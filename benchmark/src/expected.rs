//! The output oracle, independent of the checked-in `results/`:
//! `benchmark/expected.json` pins one FNV-1a digest per
//! `(seed, workload, artifact)` for seeds 1 and 2. Other seeds are checked by
//! pass-to-pass identity and the invariants only. `--bless` is the only way
//! a pinned digest changes.

use std::collections::BTreeMap;
use std::path::PathBuf;

use ecn_delay_core::json::Json;
use store::json::Value;

/// artifact id → digest.
pub type Pins = BTreeMap<String, u64>;
/// seed → workload → pins.
type File = BTreeMap<String, BTreeMap<String, Pins>>;

fn path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

fn load_file() -> Result<File, String> {
    let text = std::fs::read_to_string(path()).map_err(|e| format!("{}: {e}", path().display()))?;
    let bad = || {
        format!(
            "{}: not a seed/workload/artifact/digest map",
            path().display()
        )
    };
    let entries = |v: &Value| match v {
        Value::Obj(entries) => Ok(entries.clone()),
        _ => Err(bad()),
    };
    let mut file = File::new();
    for (seed, workloads) in entries(&store::json::parse(&text)?)? {
        for (workload, artifacts) in entries(&workloads)? {
            let pins = file
                .entry(seed.clone())
                .or_default()
                .entry(workload)
                .or_default();
            for (artifact, digest) in entries(&artifacts)? {
                let hex = digest.as_str().ok_or_else(bad)?;
                pins.insert(artifact, u64::from_str_radix(hex, 16).map_err(|_| bad())?);
            }
        }
    }
    Ok(file)
}

/// The pins of `(seed, workload)`, or `None` when that pair is not pinned.
pub fn load(seed: u64, workload: &str) -> Result<Option<Pins>, String> {
    Ok(load_file()?
        .get(&seed.to_string())
        .and_then(|w| w.get(workload))
        .cloned())
}

/// Replace the pins of `(seed, workload)` and rewrite the file.
pub fn bless(seed: u64, workload: &str, pins: Pins) -> Result<(), String> {
    let mut file = load_file()?;
    file.entry(seed.to_string())
        .or_default()
        .insert(workload.to_string(), pins);
    let obj = |entries: Vec<(String, Json)>| Json::Obj(entries);
    let doc = obj(file
        .into_iter()
        .map(|(seed, workloads)| {
            let workloads = workloads
                .into_iter()
                .map(|(w, pins)| {
                    let pins = pins
                        .into_iter()
                        .map(|(a, d)| (a, Json::Str(format!("{d:016x}"))))
                        .collect();
                    (w, obj(pins))
                })
                .collect();
            (seed, obj(workloads))
        })
        .collect());
    store::write_atomic(&path(), (doc.render_pretty() + "\n").as_bytes())
        .map_err(|e| format!("{}: {e}", path().display()))
}
