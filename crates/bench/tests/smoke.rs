//! End-to-end pins on the built binaries: each runs `figs` or `ext_incast`
//! into a temp dir and checks what it wrote, printed and exited with.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `figs fig4` into `results`, with `flags`; its stdout.
fn fig4(results: &Path, flags: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_figs"))
        .arg("fig4")
        .args(flags)
        .env("ECN_DELAY_RESULTS", results)
        .output()
        .expect("launch figs");
    assert!(out.status.success(), "fig4 {flags:?}: {out:?}");
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The `store: H hit(s), M miss(es), C corrupt, W write(s)` line as
/// `[H, M, C, W]`.
fn store_counts(stdout: &str) -> [u64; 4] {
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("store: "))
        .unwrap_or_else(|| panic!("no store line in {stdout}"));
    let counts: Vec<u64> = line
        .split(", ")
        .map(|field| {
            let n = field.split(' ').next().unwrap_or_default();
            n.parse().unwrap_or_else(|_| panic!("{line:?}"))
        })
        .collect();
    counts.try_into().unwrap_or_else(|_| panic!("{line:?}"))
}

/// Every file `figs` wrote into `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("results dir")
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path
                .file_name()
                .expect("name")
                .to_string_lossy()
                .into_owned();
            (name, std::fs::read(&path).expect("artifact"))
        })
        .collect();
    out.sort();
    out
}

/// fig4 uninterrupted is the reference; a `--store` run records it (one
/// miss, one write), a rerun serves it (one hit, nothing written), and the
/// uncached, recorded and served artifacts are the same bytes.
#[test]
fn fig4_is_byte_identical_uncached_recorded_and_served() {
    let (reference, first, second, store) = (tmp("ref"), tmp("first"), tmp("second"), tmp("store"));
    let store_flags = ["--store", store.to_str().expect("utf-8 temp dir")];

    assert!(!fig4(&reference, &[]).contains("store:"));
    assert_eq!(store_counts(&fig4(&first, &store_flags)), [0, 1, 0, 1]);
    let served = fig4(&second, &store_flags);
    assert!(served.contains("(served from store)"), "{served}");
    assert_eq!(store_counts(&served), [1, 0, 0, 0]);

    let want = files(&reference);
    assert!(
        want.iter().any(|(name, _)| name == "fig4.json"),
        "{reference:?}"
    );
    for dir in [&first, &second] {
        let got = files(dir);
        let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
        assert_eq!(names(&got), names(&want), "{dir:?}");
        assert!(got == want, "{dir:?}: bytes differ from the uncached run");
    }
    for dir in [reference, first, second, store] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `ext_incast` with the words of `args`, writing into `results` on
/// `threads` workers.
fn ext_incast(results: &Path, threads: usize, args: &str) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ext_incast"))
        .args(args.split_whitespace())
        .env("ECN_DELAY_RESULTS", results)
        .env("SIM_THREADS", threads.to_string())
        .output()
        .expect("launch ext_incast")
}

/// A panicking cell is caught in its own slot: its batchmates finish, the
/// failed table names it, the run exits 4, and stdout is the same bytes on
/// one worker and on four.
#[test]
fn ext_incast_isolates_an_injected_panic_identically_across_workers() {
    let results = tmp("incast_panic");
    let args = "--k 4 --senders 64,256 --bytes 16000 --inject-panic 1";
    let runs: Vec<String> = [1, 4]
        .into_iter()
        .map(|threads| {
            let out = ext_incast(&results, threads, args);
            assert_eq!(out.status.code(), Some(4), "SIM_THREADS={threads}: {out:?}");
            String::from_utf8_lossy(&out.stdout).into_owned()
        })
        .collect();
    let stdout = &runs[0];
    let row = |protocol: &str, n: &str| {
        stdout.lines().any(|l| {
            let mut cols = l.split_whitespace();
            cols.next() == Some(protocol) && cols.next() == Some(n) && cols.next() == Some(n)
        })
    };
    assert!(
        row("DCQCN", "64") && row("PatchedTIMELY", "256"),
        "{stdout}"
    );
    assert!(
        stdout.lines().any(|l| l.starts_with("DCQCN")
            && l.contains(" 256  job_panicked ")
            && l.ends_with("job 1 panicked: injected panic in cell 1")),
        "{stdout}"
    );
    assert_eq!(runs[0], runs[1], "stdout differs between 1 and 4 workers");
    let _ = std::fs::remove_dir_all(results);
}

/// Impossible sweeps exit 2 before simulating, with one JSON diagnostic
/// line naming the flag.
#[test]
fn ext_incast_rejects_impossible_sweeps_with_a_structured_diagnostic() {
    let results = tmp("incast_usage");
    for (args, flag, reason) in [
        ("--k 5", "--k", "even"),
        ("--k 4 --senders 2048", "--senders", "capacity"),
    ] {
        let out = ext_incast(&results, 1, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diagnostic = stderr
            .lines()
            .find_map(|l| obs::json::parse(l).ok())
            .unwrap_or_else(|| panic!("{args:?}: no JSON line in {stderr}"));
        let field = |k: &str| diagnostic.get(k).and_then(|v| v.as_str());
        assert_eq!(field("error"), Some("invalid_usage"), "{stderr}");
        assert_eq!(field("flag"), Some(flag), "{stderr}");
        assert!(
            field("reason").is_some_and(|r| r.contains(reason)),
            "{stderr}"
        );
    }
    assert!(!results.exists(), "a rejected sweep writes nothing");
}
