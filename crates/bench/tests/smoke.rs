//! End-to-end pins on the built binaries: each runs `figs`, `ext_incast` or
//! `simreport` in a temp dir and checks what it wrote, printed and exited
//! with. Artifacts are read through `obs::json`, and two files that should
//! be the same bytes but are not fail with their first divergence
//! (`bench::report::diff_jsonl`), not with their contents.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bench::report::diff_jsonl;
use obs::json::{parse, Value};

const FIGS: &str = env!("CARGO_BIN_EXE_figs");
const EXT_INCAST: &str = env!("CARGO_BIN_EXE_ext_incast");
const SIMREPORT: &str = env!("CARGO_BIN_EXE_simreport");
const FAULTS_SMOKE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/faults_smoke.json");

/// A fresh, empty working directory for one test.
fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench_smoke_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// `exe` with the words of `args`, run in `dir` on `threads` workers; the
/// results go to `dir/results`.
fn launch(exe: &str, dir: &Path, threads: usize, args: &str) -> Output {
    Command::new(exe)
        .args(args.split_whitespace())
        .current_dir(dir)
        .env("ECN_DELAY_RESULTS", dir.join("results"))
        .env("SIM_THREADS", threads.to_string())
        .output()
        .unwrap_or_else(|e| panic!("launch {exe}: {e}"))
}

/// `launch`, which must exit 0; its stdout.
fn stdout_of(exe: &str, dir: &Path, threads: usize, args: &str) -> String {
    let out = launch(exe, dir, threads, args);
    assert!(out.status.success(), "{args} on {threads}: {out:?}");
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

/// Every file in `dir`, by name.
fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{dir:?}: {e}"));
    let mut out: Vec<(String, Vec<u8>)> = entries
        .map(|e| {
            let path = e.expect("dir entry").path();
            let name = path.file_name().expect("name").to_string_lossy().into();
            (name, std::fs::read(&path).expect("artifact"))
        })
        .collect();
    out.sort();
    out
}

/// `a` and `b` hold the same file names with the same bytes; a mismatch
/// names the file and its first divergence.
fn assert_same_files(a: &Path, b: &Path) {
    let (fa, fb) = (files(a), files(b));
    let names = |fs: &[(String, Vec<u8>)]| fs.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&fa), names(&fb), "{a:?} vs {b:?}");
    for ((name, x), (_, y)) in fa.iter().zip(&fb) {
        assert_same_text(
            name,
            &String::from_utf8_lossy(x),
            &String::from_utf8_lossy(y),
        );
    }
}

fn assert_same_text(what: &str, a: &str, b: &str) {
    if let Some(d) = diff_jsonl(a, b) {
        panic!("{what} differs: {d:?}");
    }
}

/// The file at `path`, parsed as one JSON document.
fn json_file(path: &Path) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"))
}

/// Every line of the JSONL file at `path`, parsed.
fn jsonl_file(path: &Path) -> Vec<Value> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path:?}: {e}"));
    text.lines()
        .map(|l| parse(l).unwrap_or_else(|e| panic!("{path:?}: {e}: {l}")))
        .collect()
}

fn str_field<'a>(line: &'a Value, key: &str) -> Option<&'a str> {
    line.get(key).and_then(Value::as_str)
}

/// fig4 uninterrupted is the reference; a `--store` run records it (one
/// miss, one write), a rerun serves it (one hit, nothing written), and the
/// uncached, recorded and served artifacts are the same bytes.
#[test]
fn fig4_is_byte_identical_uncached_recorded_and_served() {
    let (reference, cached) = (tmp("ref"), tmp("cached"));
    assert!(!stdout_of(FIGS, &reference, 1, "fig4").contains("store:"));
    let want = files(&reference.join("results"));
    assert!(want.iter().any(|(name, _)| name == "fig4.json"));

    let recorded = stdout_of(FIGS, &cached, 1, "fig4 --store store");
    assert_eq!(store_counts(&recorded), [0, 1, 0, 1]);
    assert_same_files(&reference.join("results"), &cached.join("results"));
    std::fs::remove_dir_all(cached.join("results")).expect("clear results");
    let served = stdout_of(FIGS, &cached, 1, "fig4 --store store");
    assert!(served.contains("(served from store)"), "{served}");
    assert_eq!(store_counts(&served), [1, 0, 0, 0]);
    assert_same_files(&reference.join("results"), &cached.join("results"));
    for dir in [reference, cached] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Every `--obs` file, and stdout without its ` -> <path>` lines, is the
/// same bytes on one worker and on four: the merged incast run, fig5's
/// packet DCQCN runs (`par_map` over flow counts), and the fault spec with
/// its post-mortem.
#[test]
fn obs_artifacts_and_stdout_are_the_same_bytes_on_1_and_4_workers() {
    let runs = [
        (
            "same_incast",
            EXT_INCAST,
            "--k 4 --senders 64,256 --bytes 16000 --obs T".to_string(),
        ),
        ("same_fig5", FIGS, "fig5 --obs T".to_string()),
        (
            "same_faults",
            FIGS,
            format!("ext_faults --faults {FAULTS_SMOKE} --obs T"),
        ),
    ];
    for (tag, exe, args) in runs {
        let dir = tmp(tag);
        let stdout: Vec<String> = [1, 4]
            .into_iter()
            .map(|threads| {
                let args = args.replace("--obs T", &format!("--obs t{threads}"));
                let out = stdout_of(exe, &dir, threads, &args);
                out.lines()
                    .filter(|l| !l.contains(" -> "))
                    .map(|l| format!("{l}\n"))
                    .collect()
            })
            .collect();
        assert_same_text(&format!("{tag} stdout"), &stdout[0], &stdout[1]);
        assert_same_files(&dir.join("t1"), &dir.join("t4"));
        if tag == "same_fig5" {
            let metrics = json_file(&dir.join("t1/metrics.json"));
            for counter in ["netsim.ecn_marks", "netsim.rate_updates"] {
                let n = metrics.get("counters").and_then(|c| c.get(counter));
                assert!(
                    n.and_then(Value::as_u64).is_some_and(|n| n > 0),
                    "{counter}: {n:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// `simreport` on a real `timeseries.jsonl` export: `diff` finds nothing
/// between copies and localizes a perturbed window by line and event;
/// `render` shows the queue series and the FCT percentiles.
#[test]
fn simreport_diffs_and_renders_a_real_timeseries_export() {
    let dir = tmp("simreport");
    stdout_of(
        EXT_INCAST,
        &dir,
        1,
        "--k 4 --senders 64 --bytes 16000 --obs o",
    );
    let ts = std::fs::read_to_string(dir.join("o/timeseries.jsonl")).expect("timeseries");
    std::fs::write(dir.join("copy.jsonl"), &ts).expect("write copy");
    let mut lines: Vec<String> = ts.lines().map(String::from).collect();
    let line = &mut lines[99]; // line 100: a window with a count
    let at = line.find("\"count\": ").expect("line 100 has a count") + "\"count\": ".len();
    let digits = line[at..].chars().take_while(char::is_ascii_digit).count();
    line.replace_range(at..at + digits, "99999");
    std::fs::write(dir.join("bad.jsonl"), lines.join("\n") + "\n").expect("write bad");

    let diff = |b: &str| launch(SIMREPORT, &dir, 1, &format!("diff o/timeseries.jsonl {b}"));
    assert_eq!(diff("copy.jsonl").status.code(), Some(0));
    let out = diff("bad.jsonl");
    let text = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{text}");
    assert!(text.contains("first divergence at line 100\n"), "{text}");
    let event = text
        .lines()
        .find_map(|l| l.strip_prefix("event: ctx=")?.split_once(" seq="));
    let numbers =
        |(ctx, seq): (&str, &str)| ctx.parse::<u64>().is_ok() && seq.parse::<u64>().is_ok();
    assert!(event.is_some_and(numbers), "{text}");

    let render = stdout_of(SIMREPORT, &dir, 1, "render o/timeseries.jsonl");
    let rows: Vec<Vec<&str>> = render
        .lines()
        .map(|l| l.split_whitespace().collect())
        .collect();
    let p99 = |row: &[&str]| row.iter().any(|w| w.starts_with("p99="));
    assert!(
        rows.iter()
            .any(|r| r.starts_with(&["series", "netsim.queue_bytes"])),
        "{render}"
    );
    assert!(
        rows.iter()
            .any(|r| r.starts_with(&["hist", "netsim.fct_ms"]) && p99(r)),
        "{render}"
    );
    let _ = std::fs::remove_dir_all(dir);
}

/// `figs ext_faults --faults` degrades instead of panicking: the divergent
/// watchdog gain prints `Err`, the flight dump is headed by the divergence
/// and holds the watchdog and causal dispatch entries, and a spec with an
/// unknown kind exits 2 naming it.
#[test]
fn ext_faults_spec_degrades_to_err_and_dumps_the_flight_recorder() {
    let dir = tmp("faults");
    let spec_run = format!("ext_faults --faults {FAULTS_SMOKE} --obs o");
    let stdout = stdout_of(FIGS, &dir, 1, &spec_run);
    let watchdog = |verdict: &str| {
        stdout.lines().any(|l| {
            l.strip_prefix("watchdog: gain=")
                .is_some_and(|rest| rest.trim_start().starts_with(verdict))
        })
    };
    assert!(watchdog("4000.0/s -> Err (numeric divergence"), "{stdout}");
    assert!(watchdog("-1.0/s -> ok"), "{stdout}");

    let flight = jsonl_file(&dir.join("o/flight.jsonl"));
    assert_eq!(str_field(&flight[0], "kind"), Some("flight_dump"));
    // Gains 400 and 4000 both diverge; the header names the first in
    // context order (gain 400, at t = 0.974 s) on every worker count.
    let reason = str_field(&flight[0], "reason").unwrap_or_default();
    assert!(
        reason.starts_with("numeric divergence in dde integration: t=9.740000e-1 s"),
        "{reason}"
    );
    let kind = |e: &Value, k: &str| str_field(e, "kind") == Some(k);
    assert!(flight.iter().any(|e| kind(e, "watchdog")));
    let caused = |e: &Value| e.get("by").and_then(Value::as_u64).is_some();
    assert!(flight.iter().any(|e| kind(e, "dispatch") && caused(e)));

    let bogus = r#"{"seed": 1, "events": [{"at_s": 0.0, "kind": "bogus"}]}"#;
    std::fs::write(dir.join("bad.json"), bogus).expect("write spec");
    let out = launch(FIGS, &dir, 1, "ext_faults --faults bad.json");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("unknown kind"), "{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

/// `v` with every `wall_ms` field, the one machine-dependent value, zeroed.
fn zero_wall_ms(v: &mut Value) {
    match v {
        Value::Obj(fields) => {
            for (key, value) in fields {
                if key == "wall_ms" {
                    *value = Value::Int(0);
                } else {
                    zero_wall_ms(value);
                }
            }
        }
        Value::Arr(items) => items.iter_mut().for_each(zero_wall_ms),
        _ => {}
    }
}

/// A sweep resumes from a partial store: the 64-sender cells recorded by a
/// first run, with the stray temp file a killed write leaves behind, are
/// served to the full sweep, a warm rerun is all hits, and its results
/// equal an uncached run's but for `wall_ms`.
#[test]
fn ext_incast_resumes_from_a_partial_store() {
    let (uncached, dir) = (tmp("resume_uncached"), tmp("resume"));
    let sweep = "--k 4 --senders 64,256 --bytes 16000";
    stdout_of(EXT_INCAST, &uncached, 1, sweep);
    let partial = "--k 4 --senders 64 --bytes 16000 --store st";
    let resume = format!("{sweep} --store st");
    let store_run = |args: &str| store_counts(&stdout_of(EXT_INCAST, &dir, 1, args));
    assert_eq!(store_run(partial), [0, 2, 0, 2]);

    // The store is `<shard>/<key>.rec`: take the first shard's record.
    let first = |d: &Path| {
        std::fs::read_dir(d)
            .expect("dir")
            .flatten()
            .next()
            .expect("entry")
    };
    let record = first(&first(&dir.join("st")).path()).path();
    assert!(record.extension().is_some_and(|x| x == "rec"), "{record:?}");
    let bytes = std::fs::read(&record).expect("record");
    let stray = format!("{}.tmp.{}.0", record.display(), std::process::id());
    std::fs::write(stray, &bytes[..bytes.len() / 2]).expect("plant temp file");

    assert_eq!(store_run(&resume), [2, 2, 0, 2]);
    assert_eq!(store_run(&resume), [4, 0, 0, 0]);
    let [want, got] = [&uncached, &dir].map(|d| {
        let mut v = json_file(&d.join("results/ext_incast.json"));
        zero_wall_ms(&mut v);
        v
    });
    assert!(want == got, "served results differ from the uncached run's");
    for dir in [uncached, dir] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// A panicking cell is caught in its own slot: its batchmates finish, the
/// failed table names it, the run exits 4, and stdout is the same bytes on
/// one worker and on four.
#[test]
fn ext_incast_isolates_an_injected_panic_identically_across_workers() {
    let dir = tmp("incast_panic");
    let args = "--k 4 --senders 64,256 --bytes 16000 --inject-panic 1";
    let runs: Vec<String> = [1, 4]
        .into_iter()
        .map(|threads| {
            let out = launch(EXT_INCAST, &dir, threads, args);
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
    let _ = std::fs::remove_dir_all(dir);
}

/// Impossible sweeps exit 2 before simulating, with one JSON diagnostic
/// line naming the flag.
#[test]
fn ext_incast_rejects_impossible_sweeps_with_a_structured_diagnostic() {
    let dir = tmp("incast_usage");
    for (args, flag, reason) in [
        ("--k 5", "--k", "even"),
        ("--k 4 --senders 2048", "--senders", "capacity"),
    ] {
        let out = launch(EXT_INCAST, &dir, 1, args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let diagnostic = stderr
            .lines()
            .find_map(|l| parse(l).ok())
            .unwrap_or_else(|| panic!("{args:?}: no JSON line in {stderr}"));
        let field = |k: &str| str_field(&diagnostic, k);
        assert_eq!(field("error"), Some("invalid_usage"), "{stderr}");
        assert_eq!(field("flag"), Some(flag), "{stderr}");
        assert!(
            field("reason").is_some_and(|r| r.contains(reason)),
            "{stderr}"
        );
    }
    assert!(
        !dir.join("results").exists(),
        "a rejected sweep writes nothing"
    );
    let _ = std::fs::remove_dir_all(dir);
}
