//! The figure registry against the rest of the tree, and `figs` /
//! `ext_incast` at their command lines.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bench::figures::FIGURES;

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every artifact id of every entry.
fn ids() -> BTreeSet<String> {
    FIGURES
        .iter()
        .flat_map(|f| f.ids)
        .map(|id| id.to_string())
        .collect()
}

fn figs(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_figs"))
        .args(args)
        .output()
        .expect("launch figs")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_figures_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Each artifact id is written by exactly one entry.
#[test]
fn ids_are_unique_and_plain() {
    let written: usize = FIGURES.iter().map(|f| f.ids.len()).sum();
    assert_eq!(ids().len(), written, "an id in two entries");
    for id in FIGURES.iter().flat_map(|f| f.ids) {
        assert!(
            !id.is_empty()
                && id
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
            "{id:?}"
        );
    }
}

/// `ext_incast` is a sweep CLI of its own: it has a results file and an
/// experiment module but no registry entry.
#[test]
fn the_table_is_the_checked_in_results() {
    let mut stems: BTreeSet<String> = std::fs::read_dir(repo().join("results"))
        .expect("results/")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .map(|p| p.file_stem().expect("stem").to_string_lossy().into_owned())
        .collect();
    assert!(stems.remove("ext_incast"));
    assert_eq!(ids(), stems);
}

/// Every figure is one module of `core::experiments`.
#[test]
fn the_table_is_the_experiment_modules() {
    let source = std::fs::read_to_string(repo().join("crates/core/src/experiments/mod.rs"))
        .expect("experiments/mod.rs");
    let mut modules: BTreeSet<String> = source
        .lines()
        .filter_map(|l| l.strip_prefix("pub mod ")?.strip_suffix(';'))
        .map(String::from)
        .collect();
    assert!(modules.remove("ext_incast"));
    assert_eq!(ids(), modules);
}

#[test]
fn no_id_and_an_unknown_id_list_the_table() {
    for args in [&[][..], &["nope"]] {
        let out = figs(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let listed = String::from_utf8_lossy(&out.stderr).into_owned();
        for id in ids() {
            assert!(
                listed
                    .lines()
                    .any(|l| l.split_whitespace().any(|w| w == id)),
                "{args:?} does not list {id}"
            );
        }
    }
}

/// `figs fig16` runs the entry that writes it, which writes Figures 14 and
/// 15 and the queue CSVs too, each to its checked-in bytes.
#[test]
fn figs_fig16_writes_the_whole_fct_study() {
    let results = tmp("fct");
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .arg("fig16")
        .env("ECN_DELAY_RESULTS", &results)
        .output()
        .expect("launch figs");
    assert!(out.status.success(), "{out:?}");
    for name in [
        "fig14.json",
        "fig15.json",
        "fig16.json",
        "fig16_dcqcn.csv",
        "fig16_timely.csv",
        "fig16_patchedtimely.csv",
    ] {
        let written = std::fs::read(results.join(name)).expect(name);
        let checked_in = std::fs::read(repo().join("results").join(name)).expect(name);
        assert!(written == checked_in, "{name} differs from results/");
    }
    let _ = std::fs::remove_dir_all(&results);
}

/// `figs eq14 | head`: a reader that has gone silences the console, not
/// the run, which still writes its artifact.
#[test]
fn a_closed_stdout_stops_the_console_not_the_run() {
    let results = tmp("epipe");
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .arg("eq14")
        .env("ECN_DELAY_RESULTS", &results)
        .stdout(writer)
        .output()
        .expect("launch figs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(
        std::fs::read(results.join("eq14.json")).expect("eq14.json"),
        std::fs::read(repo().join("results/eq14.json")).expect("results/eq14.json")
    );
    let _ = std::fs::remove_dir_all(&results);
}

/// Nothing is skipped: a misspelt or removed flag, a missing or unreadable
/// value, a flag another entry takes, a stray word, an `--obs` directory
/// that cannot be created and a `--store` that cannot be opened all stop
/// the run before any work, so nothing is printed and no `results/` is made.
#[test]
fn bad_flags_are_usage_errors() {
    let dir = tmp("usage");
    std::fs::create_dir_all(&dir).expect("temp dir");
    std::fs::write(dir.join("file"), b"").expect("a regular file");
    for (line, flag, reason) in [
        ("figs eq14 --metrcs x", "--metrcs", "unknown flag"),
        ("figs eq14 --obs", "--obs", "missing value"),
        ("figs eq14 stray", "stray", "unknown flag"),
        ("figs eq14 --all", "--all", "unknown flag"),
        ("figs eq14 --faults x", "--faults", "unknown flag"),
        ("figs ext_faults --k 4", "--k", "unknown flag"),
        ("figs --all --faults x", "--faults", "unknown flag"),
        ("ext_incast --sender 64", "--sender", "unknown flag"),
        ("ext_incast --faults x", "--faults", "unknown flag"),
        ("ext_incast fig3", "fig3", "unknown flag"),
        ("ext_incast --k", "--k", "missing value"),
        ("ext_incast --k four", "--k", "expected an integer"),
        ("figs eq14 --obs file/o", "--obs", "cannot create file/o"),
        ("figs --all --obs file", "--obs", "cannot create file"),
        ("figs eq14 --store file/s", "--store", "cannot open file/s"),
        ("figs --all --store file", "--store", "cannot open file"),
        ("ext_incast --store file/s", "--store", "cannot open file/s"),
        ("figs eq14 --trace x", "--trace", "unknown flag"),
        ("figs eq14 --metrics x", "--metrics", "unknown flag"),
        ("figs eq14 --timeseries x", "--timeseries", "unknown flag"),
        ("figs eq14 --flight x", "--flight", "unknown flag"),
        ("figs eq14 --no-store", "--no-store", "unknown flag"),
        ("figs --all --trace x", "--trace", "unknown flag"),
        ("ext_incast --trace x", "--trace", "unknown flag"),
        ("ext_incast --metrics x", "--metrics", "unknown flag"),
        ("ext_incast --timeseries x", "--timeseries", "unknown flag"),
        ("ext_incast --flight x", "--flight", "unknown flag"),
        ("ext_incast --no-store", "--no-store", "unknown flag"),
    ] {
        let mut words = line.split_whitespace();
        let program = match words.next() {
            Some("figs") => env!("CARGO_BIN_EXE_figs"),
            _ => env!("CARGO_BIN_EXE_ext_incast"),
        };
        let out = Command::new(program)
            .args(words)
            .current_dir(&dir)
            .env("ECN_DELAY_RESULTS", dir.join("results"))
            .output()
            .expect(line);
        assert_eq!(out.status.code(), Some(2), "{line}");
        assert!(out.stdout.is_empty(), "{line}: nothing ran");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diagnostic = stderr.lines().last().expect("a diagnostic line");
        let doc = obs::json::parse(diagnostic).expect("the diagnostic is JSON");
        let field = |name| doc.get(name).and_then(|v| v.as_str().map(String::from));
        assert_eq!(field("error").as_deref(), Some("invalid_usage"), "{line}");
        assert_eq!(field("flag").as_deref(), Some(flag), "{line}");
        assert!(
            field("reason").is_some_and(|r| r.contains(reason)),
            "{stderr}"
        );
    }
    assert!(
        !dir.join("results").exists(),
        "a usage error wrote results/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eq14_reproduces_its_checked_in_bytes_cold_recorded_and_served() {
    let checked_in = std::fs::read(repo().join("results/eq14.json")).expect("results/eq14.json");
    let (results, store) = (tmp("results"), tmp("store"));
    let run = |flags: &[&str]| {
        let _ = std::fs::remove_file(results.join("eq14.json"));
        let out = Command::new(env!("CARGO_BIN_EXE_figs"))
            .arg("eq14")
            .args(flags)
            .env("ECN_DELAY_RESULTS", &results)
            .output()
            .expect("launch figs");
        assert!(out.status.success(), "{flags:?}");
        assert_eq!(
            std::fs::read(results.join("eq14.json")).expect("eq14.json"),
            checked_in,
            "{flags:?}"
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    let store_flags = ["--store", store.to_str().expect("utf-8 temp dir")];
    assert!(!run(&[]).contains("store:"));
    assert!(run(&store_flags).contains("store: 0 hit(s), 1 miss(es), 0 corrupt, 1 write(s)"));
    let served = run(&store_flags);
    assert!(served.contains("(served from store)"), "{served}");
    assert!(served.contains("store: 1 hit(s), 0 miss(es), 0 corrupt, 0 write(s)"));
    // `--obs` files describe a run, so an instrumented run is not served.
    let obs = results.join("obs");
    let traced = run(&[&store_flags[..], &["--obs", obs.to_str().expect("utf-8")]].concat());
    assert!(!traced.contains("(served from store)"), "{traced}");
    assert!(
        traced.contains("store: 0 hit(s), 0 miss(es), 0 corrupt, 1 write(s)"),
        "{traced}"
    );
    let _ = std::fs::remove_dir_all(&results);
    let _ = std::fs::remove_dir_all(&store);
}
