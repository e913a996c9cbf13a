//! `ecn-bench` — the repository's end-to-end and per-layer benchmark.
//!
//! A closed loop with one client: one process per workload, calling only
//! public functions of the crates, so every layer is measured from outside.
//!
//! ```text
//! ecn-bench [run|trace] --workload <name>|--all [--seed N] [--seconds S]
//!           [--trace 0|1] [--out run.json] [--trace-out spans.jsonl] [--bless]
//! ecn-bench check [<a.json> <b.json>]
//! ```
//!
//! `run` is `--trace 0` (end-to-end metrics), `trace` is `--trace 1`
//! (per-layer metrics). The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`.

mod catalogue;
mod check;
mod expected;
mod host;
mod layers;
mod report;
mod span;
mod workloads;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use ecn_delay_core::json::Json;

use span::{Ctx, Recorder};
use workloads::{Artifact, Inputs};

/// 64-bit FNV-1a, the repository's one fingerprint dialect (`store::canon`,
/// `ext_incast::report_digest`).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Median of `samples` (mean of the middle two when even); NaN when empty.
pub fn median(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The sample a quarter of the way up the sorted samples, without
/// interpolation: the fastest of up to four, the second fastest of five to
/// eight. NaN when empty.
pub fn lower_quartile(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v.get(v.len().saturating_sub(1) / 4)
        .copied()
        .unwrap_or(f64::NAN)
}

/// The run's scratch tree, `<cargo target dir>/scratch/<pid>`: artifacts are
/// regenerated into `results/` below it (where `ECN_DELAY_RESULTS` points),
/// and it is removed when the run ends.
pub struct Scratch {
    pub root: PathBuf,
}

impl Scratch {
    fn create(tag: &str) -> Result<Scratch, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        // <target>/release/ecn-bench → <target>/scratch
        let target = exe
            .parent()
            .and_then(Path::parent)
            .ok_or("executable has no target dir")?;
        let root = target.join("scratch").join(tag);
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(root.join("results"))
            .map_err(|e| format!("{}: {e}", root.display()))?;
        std::env::set_var("ECN_DELAY_RESULTS", root.join("results"));
        Ok(Scratch { root })
    }

    /// One tree shared by the unit tests of this process; the environment is
    /// set once, before any test reads it.
    #[cfg(test)]
    pub fn for_tests() -> &'static Scratch {
        static SHARED: std::sync::OnceLock<Scratch> = std::sync::OnceLock::new();
        SHARED.get_or_init(|| Scratch::create("tests").expect("scratch dir"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        if let Some(parent) = self.root.parent() {
            let _ = std::fs::remove_dir(parent); // only when no other run is using it
        }
    }
}

/// Replace every `wall_ms` value in the tree by 0: `ext_incast` persists a
/// per-cell wall time that must stay out of the digest. True when any was
/// found.
fn scrub_wall_ms(tree: &mut Json) -> bool {
    match tree {
        Json::Arr(items) => items
            .iter_mut()
            .fold(false, |hit, v| scrub_wall_ms(v) | hit),
        Json::Obj(fields) => fields.iter_mut().fold(false, |hit, (key, v)| {
            if key == "wall_ms" {
                *v = Json::Num(0.0);
                true
            } else {
                scrub_wall_ms(v) | hit
            }
        }),
        _ => false,
    }
}

/// One unit of a pass — an artifact regenerated, or recorded and served
/// through the store: its id, its digest or failure, and its wall time.
pub type Outcome = (String, Result<u64, String>, f64);
pub type Units = Vec<(String, f64)>;

/// Regenerate one artifact: call the layer, render JSON, write it atomically
/// into the scratch results dir, digest it.
fn regenerate(a: &Artifact, ctx: &Ctx) -> Outcome {
    let started = Instant::now();
    let outcome = ctx.span("bench", "artifact", &a.id, |s| {
        let value = catch_unwind(AssertUnwindSafe(|| (a.run)(&s.ctx))).unwrap_or_else(|p| {
            let msg = p.downcast_ref::<String>().map(String::as_str);
            Err(format!(
                "panic: {}",
                msg.or(p.downcast_ref::<&str>().copied()).unwrap_or("?")
            ))
        })?;
        let (text, digest) = s.ctx.span("core", "core.json_render", &a.id, |r| {
            let mut tree = value.to_json();
            let text = tree.render_pretty();
            r.count("bytes", text.len() as u64);
            let digest = if scrub_wall_ms(&mut tree) {
                fnv1a(tree.render_pretty().as_bytes())
            } else {
                fnv1a(text.as_bytes())
            };
            (text, digest)
        });
        s.ctx
            .span("store", "store.write_atomic", &a.id, |_| {
                store::write_atomic(&workloads::artifact_path(&a.id), text.as_bytes())
            })
            .map_err(|e| format!("write failed: {e}"))?;
        Ok(digest)
    });
    (a.id.clone(), outcome, started.elapsed().as_secs_f64())
}

/// One pass over the workload's inputs: every artifact once. `store_warm`
/// needs a fresh store each pass; the old one is removed here, outside the
/// pass span and the timed region.
///
/// Returns the outcomes, the pass's wall time, and the wall time of each of
/// its units in the order they ran (`record/<id>` then `<id>` on
/// `store_warm`).
fn run_pass(inputs: &Inputs, ctx: &Ctx, scratch: &Scratch) -> (Vec<Outcome>, f64, Units) {
    let _ = std::fs::remove_dir_all(scratch.root.join("store"));
    let mut units = Units::new();
    let started = Instant::now();
    let outcomes = ctx.span("bench", "pass", "", |s| match inputs {
        Inputs::Artifacts { items, threads } => desim::par::with_threads(*threads, || {
            desim::par::par_map((0..items.len()).collect(), |i: usize| {
                regenerate(&items[i], &s.ctx)
            })
        }),
        Inputs::StoreWarm(items) => {
            let dir = scratch.root.join("store");
            let before = store::counters();
            let failures = workloads::store_record_all(&s.ctx, items, &dir, &mut units);
            let mut outcomes: Vec<Outcome> = failures
                .into_iter()
                .map(|msg| ("record".to_string(), Err(msg), 0.0))
                .collect();
            outcomes.extend(workloads::store_serve_all(&s.ctx, items, &dir));
            let c = store_delta(before);
            let n = items.len() as u64;
            if (c.hits, c.misses, c.writes, c.corrupt) != (n, n, n, 0) {
                let msg = format!("store counted {c:?}");
                outcomes.push(("counters".to_string(), Err(msg), 0.0));
            }
            outcomes
        }
    });
    let wall_s = started.elapsed().as_secs_f64();
    let ok = outcomes.iter().filter(|o| o.1.is_ok());
    units.extend(ok.map(|(id, _, secs)| (id.clone(), *secs)));
    (outcomes, wall_s, units)
}

fn store_delta(before: store::Counters) -> store::Counters {
    let now = store::counters();
    store::Counters {
        hits: now.hits - before.hits,
        misses: now.misses - before.misses,
        corrupt: now.corrupt - before.corrupt,
        writes: now.writes - before.writes,
    }
}

/// Judges every regenerated artifact against the pins (seeds 1 and 2) and
/// against the previous pass (any seed).
pub struct Verdict {
    pins: Option<expected::Pins>,
    previous: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failures: Vec<String>,
}

impl Verdict {
    fn absorb(&mut self, outcomes: Vec<Outcome>) {
        for (id, outcome, _) in outcomes {
            self.attempted += 1;
            let digest = match outcome {
                Ok(d) => d,
                Err(e) => {
                    self.failures.push(format!("{id}: {e}"));
                    continue;
                }
            };
            let pinned = self.pins.as_ref().map(|p| p.get(&id).copied());
            if let Some(pin) = pinned.filter(|pin| *pin != Some(digest)) {
                self.failures.push(format!(
                    "{id}: digest {digest:016x} differs from the pinned {}",
                    pin.map_or("(none)".to_string(), |p| format!("{p:016x}"))
                ));
            } else if self
                .previous
                .insert(id.clone(), digest)
                .is_some_and(|prev| prev != digest)
            {
                self.failures
                    .push(format!("{id}: digest changed between passes"));
            }
        }
    }
}

/// Compare what `figset_paper` just wrote with the checked-in `results/`:
/// `(stale, missing)` counts. Informational — a later PR fixes `results/`
/// against these numbers.
fn compare_with_results(scratch: &Scratch) -> (usize, usize) {
    let repo_results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../results");
    let (mut stale, mut missing) = (0, 0);
    for id in catalogue::FIGURES {
        let fresh = std::fs::read(scratch.root.join("results").join(format!("{id}.json")));
        match std::fs::read(repo_results.join(format!("{id}.json"))) {
            Err(_) => missing += 1,
            Ok(old) if fresh.is_ok_and(|new| new != old) => stale += 1,
            Ok(_) => {}
        }
    }
    (stale, missing)
}

pub struct Opts {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: Option<PathBuf>,
    pub trace_out: Option<PathBuf>,
    pub bless: bool,
}

fn parse_opts(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        workload: None,
        seed: 1,
        seconds: catalogue::RUN_SECONDS as f64,
        trace: false,
        out: None,
        trace_out: None,
        bless: false,
    };
    let mut all = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "run" => o.trace = false,
            "trace" => o.trace = true,
            "--all" => all = true,
            "--bless" => o.bless = true,
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = value()? == "1",
            "--out" => o.out = Some(value()?.into()),
            "--trace-out" => o.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if all == o.workload.is_some() {
        return Err("give exactly one of --workload <name> and --all".to_string());
    }
    if o.seconds.is_nan() || o.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(o)
}

/// `--all`: one child process per workload, one after another, so each has
/// its own peak RSS; their `--out` documents are merged into one run set.
fn run_all(o: &Opts) -> Result<bool, String> {
    let scratch = Scratch::create(&format!("all-{}", std::process::id()))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (mut ok, mut docs, mut spans) = (true, Vec::new(), String::new());
    for w in &catalogue::WORKLOADS {
        let (out, trace_out) = (
            scratch.root.join("out.json"),
            scratch.root.join("spans.jsonl"),
        );
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", w.name, "--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .args(["--trace", if o.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&out)
            .arg("--trace-out")
            .arg(&trace_out);
        if o.bless {
            cmd.arg("--bless");
        }
        let status = cmd
            .status()
            .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
        ok &= status.success();
        let doc = std::fs::read_to_string(&out).map_err(|e| format!("{}: {e}", w.name))?;
        docs.push(format!("\"{}\": {}", w.name, doc.trim_end()));
        spans += &std::fs::read_to_string(&trace_out).unwrap_or_default();
    }
    if let Some(path) = &o.out {
        let text = format!("{{\"workloads\": {{\n{}\n}}}}\n", docs.join(",\n"));
        store::write_atomic(path, text.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    if let (Some(path), true) = (&o.trace_out, o.trace) {
        store::write_atomic(path, spans.as_bytes())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("\nall workloads: {}", if ok { "ok" } else { "FAILED" });
    Ok(ok)
}

pub struct Pass {
    pub traced: bool,
    pub wall_s: f64,
    /// Wall time of each unit of the pass, in the order they ran.
    pub units: Units,
    /// Main-thread CPU time and run-queue wait over the pass.
    pub cpu_s: f64,
    pub runqueue_wait_s: f64,
    /// Per-layer metrics; empty for an untraced pass.
    pub layers: BTreeMap<String, f64>,
}

/// The state a run accumulates pass by pass.
struct Run {
    scratch: Scratch,
    rec: Recorder,
    verdict: Verdict,
    passes: Vec<Pass>,
    spans: Vec<span::Span>,
    /// Count-valued per-layer metrics of the last traced pass.
    last_counts: Option<Vec<(String, f64)>>,
}

impl Run {
    /// Run one pass over `inputs`, judge its outputs and keep its readings.
    /// A traced pass switches on the benchmark's spans and the crates' own
    /// `obs` counters and phase timers for its duration only.
    fn measure(&mut self, inputs: &Inputs, traced: bool) {
        let pass_no = self.passes.len() as u32;
        self.rec.set_enabled(traced);
        if traced {
            obs::metrics::reset();
            obs::metrics::enable();
            obs::span::drain();
            obs::span::enable();
        }
        let store_before = store::counters();
        let (cpu0, wait0) = host::schedstat_s();
        let (outcomes, wall_s, units) = run_pass(inputs, &self.rec.pass(pass_no), &self.scratch);
        let (cpu1, wait1) = host::schedstat_s();
        obs::metrics::disable();
        obs::span::disable();
        self.rec.set_enabled(false);
        self.verdict.absorb(outcomes);

        let mut layers = BTreeMap::new();
        if traced {
            let spans = self.rec.take();
            layers = layers::pass_metrics(&layers::PassReadings {
                spans: &spans,
                phases: obs::span::drain(),
                store: store_delta(store_before),
                wall_s,
                threads: inputs.threads(),
            });
            // Counts are deterministic: they must repeat exactly pass to pass.
            let counts: Vec<(String, f64)> = catalogue::per_layer()
                .iter()
                .filter(|p| p.unit == "count")
                .map(|p| (p.name.clone(), layers[&p.name]))
                .collect();
            self.verdict.attempted += 1;
            if self
                .last_counts
                .as_ref()
                .is_some_and(|prev| *prev != counts)
            {
                let msg = "per-layer counts changed between passes";
                self.verdict.failures.push(msg.to_string());
            }
            self.last_counts = Some(counts);
            self.spans.extend(spans);
        }
        self.passes.push(Pass {
            traced,
            wall_s,
            units,
            cpu_s: cpu1 - cpu0,
            runqueue_wait_s: wait1 - wait0,
            layers,
        });
    }
}

fn run_workload(o: &Opts, name: &str, started: Instant) -> Result<bool, String> {
    let entry = catalogue::WORKLOADS.iter().find(|w| w.name == name);
    let entry = entry.ok_or_else(|| format!("unknown workload {name:?}"))?;
    let mut run = Run {
        scratch: Scratch::create(&std::process::id().to_string())?,
        rec: Recorder::new(),
        verdict: Verdict {
            pins: None,
            previous: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        },
        passes: Vec::new(),
        spans: Vec::new(),
        last_counts: None,
    };

    // Set-up: inputs from the seed, the digest pins, and one pass — on
    // figset_paper the process-cold pass users pay on every run. Repeated
    // where it is cheap, so setup_s is a median; the first repeat counts
    // from process start.
    let reps = if o.trace { 1 } else { entry.setup_reps };
    let mut setup_samples = Vec::new();
    let mut peak_rss_mb = f64::NAN;
    let mut inputs = None;
    for rep in 0..reps {
        let t = if rep == 0 { started } else { Instant::now() };
        let fresh = workloads::prepare(name, o.seed).ok_or("workload has no inputs")?;
        run.verdict.pins = expected::load(o.seed, name)?.filter(|_| !o.bless);
        run.measure(&fresh, false);
        inputs = Some(fresh);
        setup_samples.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            // What one regeneration needs: read after the first pass, because
            // the heap's high-water mark creeps with the number of passes,
            // and that number depends on the machine's speed.
            peak_rss_mb = host::peak_rss_mb();
        }
    }
    let inputs = inputs.ok_or("no set-up ran")?;
    let mut info: BTreeMap<String, f64> = BTreeMap::new();
    if name == "figset_paper" && o.seed == 1 {
        let (stale, missing) = compare_with_results(&run.scratch);
        info.insert("info.results_stale".into(), stale as f64);
        info.insert("info.results_missing".into(), missing as f64);
    }

    // Timed passes, for --seconds: at least one, then another while half of
    // it, at the fastest pace seen, still fits, so a run measures for
    // --seconds to the nearest whole pass. A traced run alternates traced and
    // untraced passes, so the tracing overhead is measured within the run.
    let mut calib = vec![host::calib_s()];
    let timed_start = Instant::now();
    let first_timed = run.passes.len();
    let half_fits = |passes: &[Pass]| {
        let fastest = passes
            .iter()
            .map(|p| p.wall_s)
            .fold(f64::INFINITY, f64::min);
        timed_start.elapsed().as_secs_f64() + fastest / 2.0 <= o.seconds
    };
    while run.passes.len() == first_timed || half_fits(&run.passes) {
        let traced = o.trace && (run.passes.len() - first_timed).is_multiple_of(2);
        run.measure(&inputs, traced);
        calib.push(host::calib_s());
    }

    if o.bless {
        let pins = run.verdict.previous.clone();
        println!(
            "blessed {} digests for seed {} of {name}",
            pins.len(),
            o.seed
        );
        expected::bless(o.seed, name, pins)?;
    }
    report::report(&report::RunData {
        opts: o,
        workload: name,
        threads: inputs.threads(),
        verdict: &run.verdict,
        setup_samples: &setup_samples,
        peak_rss_mb,
        passes: &run.passes,
        calib: &calib,
        info,
        spans: &run.spans,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    // Before any thread exists: sweeps nested inside an artifact stay serial
    // on worker threads, the shape of `all_figures`' child pool.
    std::env::set_var("SIM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().is_some_and(|a| a == "check") {
        check::main(&args[1..])
    } else {
        parse_opts(&args).and_then(|o| match o.workload.clone() {
            Some(name) => run_workload(&o, &name, started),
            None => run_all(&o),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("ecn-bench: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn lower_quartile_is_a_sample_a_quarter_of_the_way_up() {
        assert_eq!(lower_quartile(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[4.0, 1.0, 3.0, 2.0]), 1.0);
        assert_eq!(lower_quartile(&[5.0, 4.0, 1.0, 3.0, 2.0]), 2.0);
        let nine: Vec<f64> = (1..=9).rev().map(f64::from).collect();
        assert_eq!(lower_quartile(&nine), 3.0);
        assert!(lower_quartile(&[]).is_nan());
    }

    #[test]
    fn fnv1a_matches_the_store_checksum_dialect() {
        // The store frames a payload with the same FNV-1a; its trailer is the
        // reference.
        let framed = store::frame(b"ecn or delay");
        let trailer: [u8; 8] = framed[framed.len() - 8..].try_into().expect("8 bytes");
        assert_eq!(fnv1a(b"ecn or delay"), u64::from_le_bytes(trailer));
    }

    #[test]
    fn wall_ms_is_scrubbed_at_any_depth_and_nothing_else_is() {
        let cell = |ms: f64| {
            Json::Obj(vec![
                ("n_senders".to_string(), Json::Int(64)),
                ("wall_ms".to_string(), Json::Num(ms)),
            ])
        };
        let doc = |ms| {
            Json::Obj(vec![(
                "cells".to_string(),
                Json::Arr(vec![cell(ms), cell(ms * 2.0)]),
            )])
        };
        let (mut a, mut b) = (doc(12.5), doc(90.0));
        assert_ne!(a, b);
        assert!(scrub_wall_ms(&mut a) && scrub_wall_ms(&mut b));
        assert_eq!(a, b, "runs that differ only in wall_ms digest equally");
        assert_eq!(a, doc(0.0));
        assert!(!scrub_wall_ms(&mut Json::Arr(vec![Json::Num(1.0)])));
    }

    #[test]
    fn verdict_fails_pin_mismatches_errors_and_pass_to_pass_changes() {
        let ok = |id: &str, d: u64| (id.to_string(), Ok(d), 0.0);
        let mut v = Verdict {
            pins: Some([("a".to_string(), 1), ("b".to_string(), 2)].into()),
            previous: BTreeMap::new(),
            attempted: 0,
            failures: Vec::new(),
        };
        v.absorb(vec![ok("a", 1), ok("b", 2)]);
        assert_eq!((v.attempted, v.failures.len()), (2, 0));
        v.absorb(vec![
            ok("a", 9),
            ok("unpinned", 3),
            ("b".to_string(), Err("boom".into()), 0.0),
        ]);
        assert_eq!(v.attempted, 5);
        assert_eq!(v.failures.len(), 3, "{:?}", v.failures);

        // Without pins only the pass-to-pass identity is checked.
        v.pins = None;
        v.failures.clear();
        v.absorb(vec![ok("c", 5)]);
        v.absorb(vec![ok("c", 5)]);
        assert!(v.failures.is_empty());
        v.absorb(vec![ok("c", 6)]);
        assert_eq!(v.failures, ["c: digest changed between passes"]);
    }

    #[test]
    fn contract_flags_and_subcommand_aliases_parse() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse_opts(&args(
            "--workload store_warm --seed 7 --seconds 3 --trace 1",
        ))
        .expect("parses");
        assert_eq!(
            (o.workload.as_deref(), o.seed, o.seconds, o.trace),
            (Some("store_warm"), 7, 3.0, true)
        );
        let o = parse_opts(&args("trace --all")).expect("parses");
        assert!(o.trace && o.workload.is_none() && o.seed == 1);
        assert!(
            parse_opts(&args("run")).is_err(),
            "needs a workload or --all"
        );
        assert!(parse_opts(&args("--all --workload x")).is_err());
        assert!(parse_opts(&args("--workload x --seed")).is_err());
        assert!(parse_opts(&args("--workload x --bogus")).is_err());
    }
}
