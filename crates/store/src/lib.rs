//! # store — crash-safe content-addressed result store
//!
//! ROADMAP item 4's serving substrate: experiment sweeps are deterministic
//! (byte-identical at any `SIM_THREADS`, held by tests), so a result keyed by
//! its scenario spec is valid forever — same spec hash, same bytes. This crate provides that cache with crash safety as the
//! design center:
//!
//! * **Content addressing** ([`canon`]): a spec is `(experiment id, config
//!   JSON)`; the config is canonicalized (sorted keys, normalized floats,
//!   compact form) and folded with the id into a 64-bit FNV-1a [`SpecKey`]
//!   — the same hash family as the `ext_incast` report digests.
//! * **Atomic writes** ([`atomic`]): records are written via temp file +
//!   fsync + rename into a sharded `<root>/<2-hex>/<16-hex>.rec` layout, so
//!   a `kill -9` mid-write can never leave a half-record under a live name.
//! * **Framed records**: each record is `magic ++ payload length ++ payload
//!   ++ FNV-1a checksum`, so torn writes and bit-flips are *detected* on
//!   open, moved to `<root>/corrupt/` for post-mortem, and recomputed
//!   rather than served.
//! * **Counters**: hits / misses / corrupt / writes per [`Store`]
//!   ([`Store::counters`]) and summed over the process ([`counters`]),
//!   mirrored into `obs::metrics` (`store.hit` …) when metrics are
//!   enabled, so a figure's `--obs` metrics show cache behavior per run.
//!
//! The store never invents data: it returns exactly the payload bytes a
//! completed run recorded, or `None`. Resumability falls out — a rerun
//! after a crash serves finished cells from the store and recomputes only
//! the remainder, byte-identically.

#![deny(missing_docs)]
// The determinism, crash-safety and panic bans (root `clippy.toml`,
// DESIGN.md §8.1); `xtask`'s `headers_deny_what_the_table_demands` test holds
// this header to `xtask::CRATE_LINTS`.
#![deny(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used
)]
#![cfg_attr(not(test), deny(clippy::float_cmp))]

pub mod atomic;
pub mod canon;
pub mod json;

pub use atomic::write_atomic;
pub use canon::{canonical, spec_key, SpecKey};

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Record container format marker; bump the trailing digit on any framing
/// change so old stores read as corrupt instead of silently misparsing.
const MAGIC: &[u8; 8] = b"ECNSTOR1";

/// Live hit/miss/corrupt/write counts: one per [`Store`], one for the
/// process. Statistics only — no other data is published through them, so
/// every access is `Relaxed`.
#[derive(Debug)]
struct Tally {
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
    writes: AtomicU64,
}

impl Tally {
    const fn new() -> Self {
        Tally {
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(0),
            writes: AtomicU64::new(0),
        }
    }

    fn read(&self) -> Counters {
        Counters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
        }
    }
}

/// Every store's counts, summed.
static TOTAL: Tally = Tally::new();

/// Snapshot of store counters: one [`Store`]'s or the whole process's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    /// Records served whole.
    pub hits: u64,
    /// Lookups that found nothing servable (including corrupt records).
    pub misses: u64,
    /// Records that failed frame validation and were quarantined.
    pub corrupt: u64,
    /// Records written.
    pub writes: u64,
}

/// Read the process-wide totals over every [`Store`]. Anything else in the
/// process that touches a store moves them; to count one store's traffic
/// use [`Store::counters`].
pub fn counters() -> Counters {
    TOTAL.read()
}

/// Frame a payload for durable storage: `MAGIC ++ len(u64 LE) ++ payload ++
/// fnv1a(payload)(u64 LE)`.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 24);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&payload_checksum(payload).to_le_bytes());
    out
}

/// Validate a framed record and return its payload slice.
pub fn unframe(bytes: &[u8]) -> Result<&[u8], FrameError> {
    if bytes.len() < 24 {
        return Err(FrameError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    // Bounds: the length check above guarantees 16 header bytes.
    let mut len_le = [0u8; 8];
    len_le.copy_from_slice(&bytes[8..16]);
    let len = u64::from_le_bytes(len_le) as usize;
    if bytes.len() != 24 + len {
        return Err(FrameError::Truncated);
    }
    let payload = &bytes[16..16 + len];
    let mut sum_le = [0u8; 8];
    sum_le.copy_from_slice(&bytes[16 + len..]);
    if u64::from_le_bytes(sum_le) != payload_checksum(payload) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok(payload)
}

/// Why a record failed frame validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Too short for the header/trailer, or the length field disagrees with
    /// the file size (the torn-write signature).
    Truncated,
    /// The magic marker is absent or from an incompatible format version.
    BadMagic,
    /// Length frame intact but the payload checksum disagrees (bit rot).
    ChecksumMismatch,
}

impl FrameError {
    /// Short label used in quarantine names and flight entries.
    pub fn label(&self) -> &'static str {
        match self {
            FrameError::Truncated => "truncated",
            FrameError::BadMagic => "bad_magic",
            FrameError::ChecksumMismatch => "checksum",
        }
    }
}

fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in payload {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A content-addressed record store rooted at one directory. A clone is a
/// second handle to the same store and shares its counters.
#[derive(Debug, Clone)]
pub struct Store {
    root: PathBuf,
    tally: Arc<Tally>,
}

impl Store {
    /// Open (creating as needed) a store rooted at `root`.
    pub fn open(root: impl Into<PathBuf>) -> io::Result<Store> {
        let root = root.into();
        fs::create_dir_all(&root)?;
        Ok(Store {
            root,
            tally: Arc::new(Tally::new()),
        })
    }

    /// What this store (through any of its clones) has served, missed,
    /// quarantined and written since it was opened.
    pub fn counters(&self) -> Counters {
        self.tally.read()
    }

    /// Count one outcome on this store, in the process totals and in the
    /// `obs` metric of the same name.
    fn count(&self, which: fn(&Tally) -> &AtomicU64, metric: &'static str) {
        which(&self.tally).fetch_add(1, Ordering::Relaxed);
        which(&TOTAL).fetch_add(1, Ordering::Relaxed);
        obs::metrics::counter_inc(metric);
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Compute the key for a spec; see [`spec_key`].
    pub fn key(&self, experiment: &str, config_json: &str) -> Result<SpecKey, String> {
        spec_key(experiment, config_json)
    }

    /// Final on-disk path of a record.
    pub fn record_path(&self, key: &SpecKey) -> PathBuf {
        self.root
            .join(key.shard())
            .join(format!("{}.rec", key.hex()))
    }

    /// Fetch a record's payload. `None` means "recompute": absent, or
    /// present but failing frame validation — in which case the record is
    /// quarantined to `<root>/corrupt/` (rename, preserving the evidence),
    /// counted, and noted on the flight recorder.
    pub fn get(&self, key: &SpecKey) -> Option<Vec<u8>> {
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                self.count(|t| &t.misses, "store.miss");
                return None;
            }
        };
        match unframe(&bytes) {
            Ok(payload) => {
                let payload = payload.to_vec();
                self.count(|t| &t.hits, "store.hit");
                Some(payload)
            }
            Err(e) => {
                self.quarantine(key, &path, e);
                self.count(|t| &t.misses, "store.miss");
                self.count(|t| &t.corrupt, "store.corrupt");
                None
            }
        }
    }

    /// Write a record (framed, atomic). Overwrites an existing record for
    /// the key — by the determinism contract the payload is identical, so
    /// concurrent same-key writers converge on one valid record whichever
    /// rename lands last.
    pub fn put(&self, key: &SpecKey, payload: &[u8]) -> io::Result<()> {
        write_atomic(&self.record_path(key), &frame(payload))?;
        self.count(|t| &t.writes, "store.write");
        Ok(())
    }

    /// Move a failed record out of the serving tree into
    /// `<root>/corrupt/<key>.<why>.<n>` for post-mortem inspection.
    fn quarantine(&self, key: &SpecKey, path: &Path, why: FrameError) {
        let dir = self.root.join("corrupt");
        if fs::create_dir_all(&dir).is_err() {
            // Can't quarantine: remove so the corpse is at least not
            // re-validated (and re-counted) on every lookup.
            let _ = fs::remove_file(path);
            return;
        }
        // A low sequence suffix keeps repeat quarantines of one key apart.
        let mut dest = dir.join(format!("{}.{}", key.hex(), why.label()));
        for n in 1..1000u32 {
            if !dest.exists() {
                break;
            }
            dest = dir.join(format!("{}.{}.{n}", key.hex(), why.label()));
        }
        let _ = fs::rename(path, &dest);
        obs::flight::record(0.0, "store_quarantine", key.0 as f64, None);
    }

    /// Record a failed computation of the key (a sweep cell that panicked)
    /// as a durable note under `<root>/quarantine/`. Notes are
    /// advisory observability — lookups never serve or skip based on them.
    pub fn put_quarantine_note(&self, key: &SpecKey, note_json: &str) -> io::Result<()> {
        let path = self
            .root
            .join("quarantine")
            .join(format!("{}.json", key.hex()));
        write_atomic(&path, note_json.as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_store(tag: &str) -> Store {
        let d = std::env::temp_dir().join(format!("store_lib_{tag}_{}", std::process::id(),));
        let _ = fs::remove_dir_all(&d);
        Store::open(d).expect("open")
    }

    #[test]
    fn frame_round_trip_and_rejections() {
        let f = frame(b"hello");
        assert_eq!(unframe(&f).expect("valid"), b"hello");
        assert_eq!(unframe(&f[..f.len() - 1]), Err(FrameError::Truncated));
        assert_eq!(unframe(b"short"), Err(FrameError::Truncated));
        let mut bad = f.clone();
        bad[0] ^= 0xff;
        assert_eq!(unframe(&bad), Err(FrameError::BadMagic));
        let mut flip = f.clone();
        flip[17] ^= 0x01; // one payload bit
        assert_eq!(unframe(&flip), Err(FrameError::ChecksumMismatch));
        // Empty payloads are legal records.
        assert_eq!(unframe(&frame(b"")).expect("valid"), b"");
    }

    #[test]
    fn put_get_round_trip_with_counters() {
        let s = tmp_store("roundtrip");
        let total_before = counters();
        let k = s.key("t", "{\"a\": 1}").expect("key");
        assert_eq!(s.get(&k), None);
        s.put(&k, b"payload").expect("put");
        assert_eq!(s.clone().get(&k).as_deref(), Some(&b"payload"[..]));
        // The instance counts exactly its own traffic (a clone is the same
        // store); sibling tests on other stores only show in the totals.
        let c = s.counters();
        assert_eq!((c.hits, c.misses, c.corrupt, c.writes), (1, 1, 0, 1));
        let total = counters();
        assert!(total.hits > total_before.hits && total.writes > total_before.writes);
        assert!(s.record_path(&k).starts_with(s.root()));
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn corrupt_record_is_quarantined_and_recomputable() {
        let s = tmp_store("corrupt");
        let k = s.key("t", "{\"b\": 2}").expect("key");
        s.put(&k, b"data").expect("put");
        // Flip one payload bit on disk.
        let path = s.record_path(&k);
        let mut bytes = fs::read(&path).expect("read");
        bytes[17] ^= 0x01;
        // Direct low-level write: this test *manufactures* the corruption
        // the store exists to detect.
        write_atomic(&path, &bytes).expect("rewrite");
        assert_eq!(s.get(&k), None, "corrupt record must not be served");
        assert!(!path.exists(), "corpse must leave the serving tree");
        let quarantined: Vec<_> = fs::read_dir(s.root().join("corrupt"))
            .expect("corrupt dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(quarantined.len(), 1, "{quarantined:?}");
        assert!(quarantined[0].contains(&k.hex()), "{quarantined:?}");
        assert!(quarantined[0].contains("checksum"), "{quarantined:?}");
        // A fresh put serves again.
        s.put(&k, b"data").expect("re-put");
        assert_eq!(s.get(&k).as_deref(), Some(&b"data"[..]));
        let _ = fs::remove_dir_all(s.root());
    }

    #[test]
    fn quarantine_notes_are_durable_and_advisory() {
        let s = tmp_store("notes");
        let k = s.key("t", "{}").expect("key");
        s.put_quarantine_note(&k, "{\"kind\": \"job_panicked\"}")
            .expect("note");
        let p = s
            .root()
            .join("quarantine")
            .join(format!("{}.json", k.hex()));
        assert!(fs::read_to_string(p)
            .expect("read")
            .contains("job_panicked"));
        // Advisory: a subsequent put/get pair is unaffected.
        s.put(&k, b"ok").expect("put");
        assert_eq!(s.get(&k).as_deref(), Some(&b"ok"[..]));
        let _ = fs::remove_dir_all(s.root());
    }
}
