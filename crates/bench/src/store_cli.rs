//! `--store <dir>` support shared by every figure ([`crate::cli`] parses the
//! flag).
//!
//! The store is **off by default** — a plain figure run touches no cache and
//! pays nothing. With `--store <dir>`, the binary becomes *resumable*: its
//! results are keyed by `(experiment id, canonical config JSON)` in a
//! content-addressed store (`store::Store`), and a rerun with the same spec
//! serves every artifact byte-identically from disk instead of recomputing.
//! Identical bytes are sound because the simulation itself is deterministic:
//! same spec ⇒ same bytes, at any `SIM_THREADS` setting.
//!
//! One figure = one record: the payload is a manifest bundling every
//! artifact the figure writes (`fig2.json` plus its per-N CSVs, say), so a
//! hit restores all of them or none — a `kill -9` between a figure's
//! artifacts can never leave a half-served result. Serving is skipped
//! whenever `--obs` is given: its files describe a *run*, so a run must
//! actually happen.
//!
//! `figs --all` forwards the store to every child figure.

use std::path::{Path, PathBuf};

use obs::json::Value;

/// Parsed store flags plus the figure's content address.
pub struct StoreCli {
    store: Option<store::Store>,
    key: Option<store::SpecKey>,
}

/// Open the store at `dir` (`None`: caching off). `experiment` is the
/// figure's stable id; `config_json` is the spec whose canonical form
/// addresses the record.
pub fn from_dir(dir: Option<&Path>, experiment: &str, config_json: &str) -> StoreCli {
    let store = dir.and_then(|d| match store::Store::open(d) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("store: cannot open {} ({e}); caching disabled", d.display());
            None
        }
    });
    let key = if store.is_some() {
        match store::spec_key(experiment, config_json) {
            Ok(k) => Some(k),
            Err(e) => {
                eprintln!("store: cannot canonicalize spec ({e}); caching disabled");
                None
            }
        }
    } else {
        None
    };
    StoreCli {
        store: if key.is_some() { store } else { None },
        key,
    }
}

impl StoreCli {
    /// True when `--store` was given and usable.
    pub fn active(&self) -> bool {
        self.store.is_some()
    }

    /// The underlying store, for experiments that cache at a finer grain
    /// than whole figures (`ext_incast` stores per sweep cell).
    pub fn store(&self) -> Option<&store::Store> {
        self.store.as_ref()
    }

    /// Serve the figure's artifacts from the store. On a hit, every
    /// artifact in the stored manifest is written (atomically) into
    /// `crate::results_dir()` and the restored paths are returned; `None`
    /// is a miss — compute as usual. All-or-nothing by construction: the
    /// manifest is one framed record, whole or quarantined.
    pub fn try_serve(&self) -> Option<Vec<PathBuf>> {
        let (st, key) = (self.store.as_ref()?, self.key.as_ref()?);
        let bytes = st.get(key)?;
        let text = String::from_utf8(bytes).ok()?;
        let doc = obs::json::parse(&text).ok()?;
        let items = doc.get("artifacts")?.items()?;
        let dir = crate::results_dir();
        let mut restored = Vec::new();
        // Parse the full manifest before touching the filesystem so a
        // schema mismatch restores nothing instead of something.
        let mut planned = Vec::new();
        for item in items {
            let name = item.get("name")?.as_str()?;
            let body = item.get("body")?.as_str()?;
            // A manifest name is a bare file name by construction (see
            // `record`); reject anything path-like from a tampered store.
            if name.contains('/') || name.contains('\\') || name.is_empty() {
                return None;
            }
            planned.push((dir.join(name), body.as_bytes().to_vec()));
        }
        for (path, body) in planned {
            store::write_atomic(&path, &body).ok()?;
            println!("results -> {} (served from store)", path.display());
            restored.push(path);
        }
        Some(restored)
    }

    /// Record the artifacts a completed figure run just wrote. Call after
    /// the final `write_json`/`write_series_csv`; the files are re-read and
    /// bundled into one manifest record under the figure's key. Errors are
    /// reported and swallowed — a broken cache must never fail the run.
    pub fn record(&self, paths: &[PathBuf]) {
        let (Some(st), Some(key)) = (self.store.as_ref(), self.key.as_ref()) else {
            return;
        };
        let mut items = Vec::new();
        for path in paths {
            let Some(name) = path.file_name().map(|n| n.to_string_lossy().into_owned()) else {
                eprintln!("store: skipping artifact without a file name: {path:?}");
                return;
            };
            match std::fs::read_to_string(path) {
                Ok(body) => items.push(Value::Obj(vec![
                    ("name".to_string(), Value::Str(name)),
                    ("body".to_string(), Value::Str(body)),
                ])),
                Err(e) => {
                    eprintln!(
                        "store: cannot re-read {} ({e}); not recording",
                        path.display()
                    );
                    return;
                }
            }
        }
        let manifest = Value::Obj(vec![("artifacts".to_string(), Value::Arr(items))]);
        if let Err(e) = st.put(key, manifest.render_pretty().as_bytes()) {
            eprintln!("store: record failed ({e}); continuing without cache");
        }
    }

    /// Print the run's store counter summary (hits/misses/corrupt/writes).
    /// A no-op when the store is inactive.
    pub fn finish(&self) {
        if self.store.is_none() {
            return;
        }
        let c = store::counters();
        println!(
            "store: {} hit(s), {} miss(es), {} corrupt, {} write(s)",
            c.hits, c.misses, c.corrupt, c.writes
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "store_cli_{tag}_{}_{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn record_then_serve_round_trips_artifacts() {
        let root = tmp("roundtrip");
        let results = tmp("results");
        std::fs::create_dir_all(&results).expect("results dir");
        // Route results_dir() at the serve target.
        std::env::set_var("ECN_DELAY_RESULTS", &results);
        let a = results.join("figx.json");
        let b = results.join("figx_series.csv");
        store::write_atomic(&a, b"{\n  \"v\": 1\n}").expect("write a");
        store::write_atomic(&b, b"t,y\n0,1\n").expect("write b");

        let cli = from_dir(Some(&root), "figx", "{\"n\": 3}");
        assert!(cli.active());
        assert!(cli.try_serve().is_none(), "empty store must miss");
        cli.record(&[a.clone(), b.clone()]);

        // Delete the originals; a hit must restore both byte-identically.
        std::fs::remove_file(&a).expect("rm a");
        std::fs::remove_file(&b).expect("rm b");
        let served = cli.try_serve().expect("hit after record");
        assert_eq!(served.len(), 2);
        assert_eq!(std::fs::read(&a).expect("a"), b"{\n  \"v\": 1\n}");
        assert_eq!(std::fs::read(&b).expect("b"), b"t,y\n0,1\n");

        // A different spec misses.
        let other = from_dir(Some(&root), "figx", "{\"n\": 4}");
        assert!(other.try_serve().is_none());
        std::env::remove_var("ECN_DELAY_RESULTS");
        let _ = std::fs::remove_dir_all(&root);
        let _ = std::fs::remove_dir_all(&results);
    }

    #[test]
    fn disabled_cli_is_inert() {
        let cli = from_dir(None, "figx", "{}");
        assert!(!cli.active());
        assert!(cli.store().is_none());
        assert!(cli.try_serve().is_none());
        cli.record(&[PathBuf::from("/nonexistent/x.json")]);
        cli.finish();
    }

    #[test]
    fn tampered_manifest_names_restore_nothing() {
        let root = tmp("tamper");
        let cli = from_dir(Some(&root), "figx", "{}");
        let (st, key) = (
            cli.store().expect("store"),
            store::spec_key("figx", "{}").expect("key"),
        );
        st.put(
            &key,
            b"{\"artifacts\": [{\"name\": \"../escape\", \"body\": \"x\"}]}",
        )
        .expect("put");
        assert!(
            cli.try_serve().is_none(),
            "path-like names must be rejected"
        );
        let _ = std::fs::remove_dir_all(&root);
    }
}
