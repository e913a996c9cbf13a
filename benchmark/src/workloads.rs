//! The six workloads. Sizes were fitted to the stated pass times on the
//! 2-core reference box and are frozen: a later change is measured against
//! these inputs, never against resized ones.
//!
//! Every input is generated from the run's seed before the first pass; the
//! crates only ever see the generated configs. Fluid and control artifacts
//! are deterministic in their configs, so the seed reaches them only where a
//! config has a seed field.

use std::path::{Path, PathBuf};
use std::time::Instant;

use desim::{SimDuration, SimTime};
use ecn_delay_core::experiments as ex;
use ecn_delay_core::json::{Json, ToJson};
use ecn_delay_core::scenarios::{self, Protocol};
use netsim::{Engine, EngineConfig, LinkId, SimReport, Topology};
use workload::{FlowSizeDist, IncastConfig, ScenarioConfig};

use crate::span::Ctx;

/// One regenerable output: `run` calls into a layer and returns the value
/// whose pretty-printed JSON is the artifact.
pub struct Artifact {
    pub id: String,
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn Fn(&Ctx) -> Result<Box<dyn ToJson>, String> + Send + Sync>,
}

/// A real artifact rendered once in set-up, for `store_warm` to record and
/// serve. `spec_reordered` is the same config with its keys in another
/// order: it must canonicalise to the same store key.
pub struct Rendered {
    pub id: &'static str,
    pub spec: String,
    pub spec_reordered: String,
    pub body: String,
    /// FNV-1a of `body`, taken once in set-up: a served file that equals the
    /// body byte for byte has this digest.
    pub digest: u64,
}

pub enum Inputs {
    /// Regenerate each artifact: compute, render, write, digest.
    Artifacts {
        items: Vec<Artifact>,
        threads: usize,
    },
    /// Record, then serve, each pre-rendered artifact through the store.
    StoreWarm(Vec<Rendered>),
}

impl Inputs {
    /// Threads a pass runs on.
    pub fn threads(&self) -> usize {
        match self {
            Inputs::Artifacts { threads, .. } => *threads,
            Inputs::StoreWarm(_) => 1,
        }
    }
}

pub fn prepare(workload: &str, seed: u64) -> Option<Inputs> {
    let serial = |items| Inputs::Artifacts { items, threads: 1 };
    Some(match workload {
        "figset_paper" => Inputs::Artifacts {
            items: figset_paper(seed),
            threads: host_threads(),
        },
        "fluid_dde" => serial(fluid_dde()),
        "margin_grid" => serial(margin_grid()),
        "packet_longflow" => serial(packet_longflow(seed)),
        "packet_churn" => serial(packet_churn(seed)),
        "store_warm" => Inputs::StoreWarm(store_warm()),
        _ => return None,
    })
}

/// The closed loop's thread cap: `min(nproc, 4)`.
pub fn host_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// An artifact that is one call `run(&cfg)` into `layer`, recorded as span
/// `name`/`detail` with `points` units of work.
fn artifact<C, R>(
    id: &str,
    (layer, name, detail): (&'static str, &'static str, &'static str),
    points: u64,
    cfg: C,
    run: fn(&C) -> R,
) -> Artifact
where
    C: Send + Sync + 'static,
    R: ToJson + 'static,
{
    Artifact {
        id: id.to_string(),
        run: Box::new(move |ctx| {
            Ok(ctx.span(layer, name, detail, |s| {
                if points > 0 {
                    s.count("points", points);
                }
                Box::new(run(&cfg)) as Box<dyn ToJson>
            }))
        }),
    }
}

// ---------------------------------------------------------------- figset_paper

/// All 24 experiments at paper scale — what `all_figures` regenerates, minus
/// `thm2`/`ablations`, which live only in binary files. `--seed 1` is the
/// checked-in configuration; seed `s` shifts every seeded config by `s − 1`.
fn figset_paper(seed: u64) -> Vec<Artifact> {
    let shift = seed.wrapping_sub(1);
    macro_rules! figure {
        ($id:ident) => {
            figure!($id, |_cfg| {})
        };
        ($id:ident, seeded) => {
            figure!($id, |cfg| cfg.seed = cfg.seed.wrapping_add(shift))
        };
        ($id:ident, $tweak:expr) => {{
            let mut cfg = Default::default();
            let run: fn(&_) -> _ = ex::$id::run;
            tweak_with(&mut cfg, run, $tweak);
            let id = stringify!($id);
            artifact(id, ("core", "core.run", id), 0, cfg, run)
        }};
    }
    vec![
        figure!(eq14),
        figure!(fig2),
        figure!(fig3),
        figure!(fig4),
        figure!(fig5),
        figure!(fig6),
        figure!(fig8),
        figure!(fig9),
        figure!(fig10),
        figure!(fig11),
        figure!(fig12),
        figure!(fig14, seeded),
        figure!(fig15, seeded),
        figure!(fig16, seeded),
        figure!(fig17),
        figure!(fig18),
        figure!(fig19),
        figure!(fig20, seeded),
        figure!(ext_pi_packet),
        figure!(ext_parking_lot),
        figure!(ext_pfc),
        figure!(ext_faults, seeded),
        figure!(ext_incast, seeded),
        figure!(appendix_b),
    ]
}

/// Ties the tweak closure's argument type to the config type of `run`, so
/// the macro above needs no type names.
fn tweak_with<C, R>(cfg: &mut C, _run: fn(&C) -> R, tweak: impl FnOnce(&mut C)) {
    tweak(cfg);
}

// ------------------------------------------------------------------- fluid_dde

/// The batch-lane integrator (`fig4`) beside the scalar one (`fig9`, `fig12`,
/// `fig18`), so a gain for one that costs the other shows.
fn fluid_dde() -> Vec<Artifact> {
    let span = |model| ("models", "models.run", model);
    vec![
        artifact(
            "fig4",
            span("dcqcn"),
            0,
            ex::fig4::Fig4Config::default(),
            ex::fig4::run,
        ),
        artifact(
            "fig9",
            span("timely"),
            0,
            ex::fig9::Fig9Config::default(),
            ex::fig9::run,
        ),
        artifact(
            "fig12",
            span("patched_timely"),
            0,
            ex::fig12::Fig12Config {
                duration_a_s: 0.1,
                duration_bc_s: 0.1,
                ..Default::default()
            },
            ex::fig12::run,
        ),
        artifact(
            "fig18",
            span("dcqcn_pi"),
            0,
            ex::fig18::Fig18Config {
                duration_s: 0.05,
                ..Default::default()
            },
            ex::fig18::run,
        ),
    ]
}

// ----------------------------------------------------------------- margin_grid

/// ≈27 k phase-margin points. The delay grid varies only what the DCQCN
/// linearisation never reads (Jacobian-cache hits); the gain grid varies
/// `R_AI`, which it does (misses).
fn margin_grid() -> Vec<Artifact> {
    let flows: Vec<usize> = (2..=257).collect();
    let n = flows.len() as u64;
    let delay = ex::fig3::Fig3Config {
        flow_counts: flows.clone(),
        delays_us: (1..=60).map(|i| 2.0 * i as f64).collect(),
        r_ai_mbps: vec![],
        kmax_kb: vec![],
        ..Default::default()
    };
    let gain = ex::fig3::Fig3Config {
        flow_counts: flows,
        delays_us: vec![],
        r_ai_mbps: (1..=20).map(|i| 5.0 * i as f64).collect(),
        kmax_kb: (1..=20).map(|i| 100.0 * i as f64).collect(),
        ..Default::default()
    };
    let dense = ex::fig11::Fig11Config {
        flow_counts: (2..=2049).collect(),
    };
    // `DcqcnFluid::fixed_point` loses its bracket beyond N = 512 at these
    // capacities; that robustness bug is another issue's, so stay below it.
    let fixed = ex::eq14::Eq14Config {
        flow_counts: (1..=512).collect(),
        capacities_gbps: vec![10.0, 25.0, 40.0, 100.0],
    };
    let span = |grid| ("control", "control.run", grid);
    vec![
        artifact(
            "fig3_delay_grid",
            span("delay_grid"),
            n * 60,
            delay,
            ex::fig3::run,
        ),
        artifact(
            "fig3_gain_grid",
            span("gain_grid"),
            n * 40,
            gain,
            ex::fig3::run,
        ),
        artifact(
            "fig11_dense",
            span("fig11_dense"),
            2048,
            dense,
            ex::fig11::run,
        ),
        artifact(
            "eq14_grid",
            ("models", "models.fixed_point", "eq14_grid"),
            0,
            fixed,
            ex::eq14::run,
        ),
    ]
}

// -------------------------------------------------------------- packet workloads

/// What a packet cell writes: the run's counters, its decision digest and
/// the traces a figure would plot.
struct CellReport {
    cell: &'static str,
    report: SimReport,
    bottleneck: LinkId,
}

impl ToJson for CellReport {
    fn to_json(&self) -> Json {
        let r = &self.report;
        let field = |k: &str, v: Json| (k.to_string(), v);
        Json::Obj(vec![
            field("cell", self.cell.to_json()),
            field("digest", ex::ext_incast::report_digest(r).to_json()),
            field("events_processed", r.events_processed.to_json()),
            field("data_packets", r.data_packets.to_json()),
            field("marked_packets", r.marked_packets.to_json()),
            field("cnps_sent", r.cnps_sent.to_json()),
            field("end_time_s", r.end_time_s.to_json()),
            field("delivered_bytes", r.delivered_bytes.to_json()),
            field("fcts", r.fcts.to_json()),
            field(
                "bottleneck_queue",
                r.queue_traces.get(self.bottleneck).to_json(),
            ),
            field("rate_traces", r.rate_traces.to_json()),
        ])
    }
}

/// A packet cell: `build` the engine (recording its own set-up spans), run it
/// to `end_s` inside a `netsim.run` span that carries the run's counts, and
/// hold the report to the cell's `invariant`.
fn packet_cell(
    cell: &'static str,
    end_s: f64,
    build: impl Fn(&Ctx) -> (Engine, LinkId) + Send + Sync + 'static,
    invariant: impl Fn(&SimReport) -> Result<(), String> + Send + Sync + 'static,
) -> Artifact {
    Artifact {
        id: cell.to_string(),
        run: Box::new(move |ctx| {
            let (mut eng, bottleneck) = build(ctx);
            let report = ctx.span("netsim", "netsim.run", cell, |s| {
                let report = eng.run(SimTime::from_secs_f64(end_s));
                s.count("events", report.events_processed);
                s.count("data_packets", report.data_packets);
                s.count("flows_completed", report.fcts.len() as u64);
                report
            });
            invariant(&report).map_err(|e| format!("{cell}: {e}"))?;
            Ok(Box::new(CellReport {
                cell,
                report,
                bottleneck,
            }) as Box<dyn ToJson>)
        }),
    }
}

/// Time the topology constructor on its own. The scenario builders build the
/// same fabric again inside `core.scenario_build`; this span is how that
/// share is told apart from flow set-up.
fn topology_span(ctx: &Ctx, cell: &'static str, build: impl FnOnce() -> Topology) {
    ctx.span("netsim", "netsim.topology_build", cell, |s| {
        s.count("links", build().link_count() as u64);
    });
}

/// Long-lived flows through one switch: few flows, few pending events, so
/// the per-packet link/switch/CC handlers are all there is.
fn packet_longflow(seed: u64) -> Vec<Artifact> {
    let cell = |cell: &'static str, proto: Protocol, n: usize, gbps: f64, hop_us: u64, ms: f64| {
        let ecfg = EngineConfig {
            seed,
            // 1 ms rate windows: at these horizons the default 100 µs would
            // make JSON rendering, not the engine, a fifth of the pass.
            rate_trace_window: Some(SimDuration::from_millis(1)),
            ..Default::default()
        };
        let (bw, hop) = (gbps * 1e9, SimDuration::from_micros(hop_us));
        packet_cell(
            cell,
            ms * 1e-3,
            move |ctx| {
                topology_span(ctx, cell, || Topology::single_switch(n, bw, hop).0);
                ctx.span("core", "core.scenario_build", cell, |_| {
                    scenarios::single_switch_longlived(proto, n, bw, hop, ecfg.clone())
                })
            },
            |report| match report.delivered_bytes.iter().position(|&b| b == 0) {
                Some(flow) => Err(format!("flow {flow} delivered nothing")),
                None => Ok(()),
            },
        )
    };
    vec![
        cell("long_dcqcn_n10", Protocol::Dcqcn, 10, 40.0, 21, 200.0),
        cell("long_dcqcn_n64", Protocol::Dcqcn, 64, 40.0, 21, 150.0),
        cell("long_timely_n10", Protocol::Timely, 10, 10.0, 1, 800.0),
        cell(
            "long_patched_n10",
            Protocol::PatchedTimely,
            10,
            10.0,
            1,
            600.0,
        ),
    ]
}

/// Thousands of concurrent flows and pending timers, 6-hop ECMP paths, flow
/// arrival and completion: the same engine code used differently.
fn packet_churn(seed: u64) -> Vec<Artifact> {
    const K: usize = 8;
    const BW: f64 = 10e9;
    let hop = SimDuration::from_micros(1);
    let ecfg = EngineConfig {
        seed,
        rate_trace_window: None, // thousands of flows; rate traces are noise
        ..Default::default()
    };

    let incast = |cell: &'static str, proto: Protocol, n_senders: usize, bytes: u64| {
        let ecfg = ecfg.clone();
        let burst = IncastConfig {
            n_senders,
            bytes_per_sender: bytes,
            seed,
            ..Default::default()
        };
        packet_cell(
            cell,
            0.5,
            move |ctx| {
                topology_span(ctx, cell, || Topology::fat_tree(K, BW, hop).0);
                ctx.span("workload", "workload.generate", cell, |s| {
                    let flows = workload::generate_incast(&burst, K * K * K / 4).flows;
                    s.count("flows", flows.len() as u64);
                });
                ctx.span("core", "core.scenario_build", cell, |_| {
                    scenarios::fat_tree_incast(proto, K, &burst, BW, hop, ecfg.clone())
                })
            },
            move |report| match report.fcts.len() {
                done if done == n_senders => Ok(()),
                done => Err(format!("{done} of {n_senders} incast flows completed")),
            },
        )
    };
    let fct = |cell: &'static str, proto: Protocol| {
        let ecfg = ecfg.clone();
        let scenario = ScenarioConfig {
            horizon_s: 0.4,
            seed,
            ..Default::default() // 10 pairs, load 0.8 of 8 Gbps
        };
        packet_cell(
            cell,
            scenario.horizon_s * 1.5,
            move |ctx| {
                let dist = FlowSizeDist::web_search();
                topology_span(ctx, cell, || {
                    Topology::dumbbell(scenario.n_pairs, BW, hop).0
                });
                ctx.span("workload", "workload.generate", cell, |s| {
                    let mut rng = desim::SimRng::new(scenario.seed);
                    let flows = workload::generate_flows(&scenario, &dist, &mut rng);
                    s.count("flows", flows.len() as u64);
                });
                ctx.span("core", "core.scenario_build", cell, |_| {
                    scenarios::dumbbell_fct(proto, &scenario, &dist, BW, hop, ecfg.clone())
                })
            },
            |report| match report.fcts.is_empty() {
                true => Err("no flow completed".to_string()),
                false => Ok(()),
            },
        )
    };
    vec![
        incast("incast_dcqcn_n1024", Protocol::Dcqcn, 1024, 64_000),
        incast("incast_dcqcn_n4096", Protocol::Dcqcn, 4096, 16_000),
        incast("incast_timely_n1024", Protocol::Timely, 1024, 64_000),
        incast(
            "incast_patched_n4096",
            Protocol::PatchedTimely,
            4096,
            16_000,
        ),
        fct("fct_dcqcn", Protocol::Dcqcn),
        fct("fct_timely", Protocol::Timely),
        fct("fct_patched", Protocol::PatchedTimely),
    ]
}

// ------------------------------------------------------------------ store_warm

/// Nine real artifacts at their default configs, 1 KB … 3.6 MB.
fn store_warm() -> Vec<Rendered> {
    fn rendered<C: Default + ToJson, R: ToJson>(id: &'static str, run: fn(&C) -> R) -> Rendered {
        let cfg = C::default();
        let spec = cfg.to_json();
        let spec_reordered = match spec.clone() {
            Json::Obj(mut fields) => {
                fields.reverse();
                Json::Obj(fields)
            }
            other => other,
        };
        let body = run(&cfg).to_json().render_pretty();
        Rendered {
            id,
            spec: spec.render_pretty(),
            spec_reordered: spec_reordered.render_pretty(),
            digest: crate::fnv1a(body.as_bytes()),
            body,
        }
    }
    vec![
        rendered("fig4", ex::fig4::run),
        rendered("fig2", ex::fig2::run),
        rendered("fig10", ex::fig10::run),
        rendered("fig17", ex::fig17::run),
        rendered("ext_pfc", ex::ext_pfc::run),
        rendered("fig3", ex::fig3::run),
        rendered("fig11", ex::fig11::run),
        rendered("eq14", ex::eq14::run),
        rendered("fig6", ex::fig6::run),
    ]
}

/// Phase one of a `store_warm` pass: every lookup must miss, then the
/// artifact is written and recorded. Returns one failure message per
/// artifact that misbehaved, and pushes each artifact's wall time to `units`.
pub fn store_record_all(
    ctx: &Ctx,
    items: &[Rendered],
    store_dir: &Path,
    units: &mut Vec<(String, f64)>,
) -> Vec<String> {
    let mut failures = Vec::new();
    for r in items {
        let started = Instant::now();
        let unit = format!("record/{}", r.id);
        let mut done = || units.push((unit.clone(), started.elapsed().as_secs_f64()));
        let cli = ctx.span("store", "store.key", r.id, |_| {
            bench::store_cli::from_dir(Some(store_dir), r.id, &r.spec)
        });
        if ctx
            .span("store", "store.serve", r.id, |_| cli.try_serve())
            .is_some()
        {
            failures.push(format!("{}: a fresh store served a record", r.id));
        }
        let path = artifact_path(r.id);
        let written = ctx.span("store", "store.write_atomic", r.id, |_| {
            store::write_atomic(&path, r.body.as_bytes())
        });
        if let Err(e) = written {
            failures.push(format!("{}: write failed: {e}", r.id));
            done();
            continue;
        }
        ctx.span("store", "store.record", r.id, |s| {
            s.count("bytes", r.body.len() as u64);
            cli.record(std::slice::from_ref(&path));
        });
        done();
    }
    failures
}

/// Phase two: look each artifact up under its re-ordered spec; it must hit,
/// and the restored file must equal the recorded bytes. Returns the restored
/// bytes' digest or a failure per artifact, with its wall time.
pub fn store_serve_all(ctx: &Ctx, items: &[Rendered], store_dir: &Path) -> Vec<crate::Outcome> {
    items
        .iter()
        .map(|r| {
            let started = Instant::now();
            let path = artifact_path(r.id);
            let _ = std::fs::remove_file(&path);
            let cli = ctx.span("store", "store.key", r.id, |_| {
                bench::store_cli::from_dir(Some(store_dir), r.id, &r.spec_reordered)
            });
            let served = ctx.span("store", "store.serve", r.id, |s| {
                let served = cli.try_serve();
                if served.is_some() {
                    s.count("hit_bytes", r.body.len() as u64);
                }
                served
            });
            let outcome = match served {
                None => Err("store miss where a hit is due".to_string()),
                Some(paths) if paths != [path.clone()] => {
                    Err(format!("served {paths:?}, expected {path:?}"))
                }
                Some(_) => match std::fs::read(&path) {
                    Ok(bytes) if bytes == r.body.as_bytes() => Ok(r.digest),
                    Ok(_) => Err("served bytes differ from recorded bytes".to_string()),
                    Err(e) => Err(format!("served file unreadable: {e}")),
                },
            };
            (r.id.to_string(), outcome, started.elapsed().as_secs_f64())
        })
        .collect()
}

/// Where an artifact lands: `<ECN_DELAY_RESULTS>/<id>.json`, the directory
/// `store_cli::try_serve` restores into.
pub fn artifact_path(id: &str) -> PathBuf {
    bench::results_dir().join(format!("{id}.json"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::Recorder;

    fn run_cell(a: &Artifact) -> (u64, u64) {
        let rec = Recorder::new();
        rec.set_enabled(true);
        let value = (a.run)(&rec.pass(1)).expect("cell runs");
        let digest = crate::fnv1a(value.to_json().render_pretty().as_bytes());
        let events = rec
            .take()
            .iter()
            .filter(|s| s.name == "netsim.run")
            .map(|s| s.count_of("events"))
            .sum();
        (digest, events)
    }

    #[test]
    fn seed_reaches_the_packet_engine() {
        // The smallest churn cell: same seed → identical bytes and event
        // count; another seed → another burst, marking draw and ECMP hash.
        let cell = |seed| packet_churn(seed).into_iter().nth(4).expect("fct_dcqcn");
        let (a, b, other) = (run_cell(&cell(1)), run_cell(&cell(1)), run_cell(&cell(2)));
        assert_eq!(a, b, "same seed must repeat exactly");
        assert_ne!(a.0, other.0, "seed 2 must change the output");
        assert_ne!(a.1, other.1, "seed 2 must change the event count");
    }

    #[test]
    fn seed_shifts_only_the_seeded_figure_configs() {
        let ids = |seed| -> Vec<String> { figset_paper(seed).into_iter().map(|a| a.id).collect() };
        assert_eq!(ids(1), crate::catalogue::FIGURES);
        assert_eq!(ids(1), ids(7));
    }

    #[test]
    fn store_warm_counts_a_flipped_byte_as_a_failed_operation() {
        let dirs = crate::Scratch::for_tests();
        let store_dir = dirs.root.join("flip_store");
        let item = |id, spec: &str, spec_reordered: &str, body: &str| Rendered {
            id,
            spec: spec.into(),
            spec_reordered: spec_reordered.into(),
            body: body.into(),
            digest: crate::fnv1a(body.as_bytes()),
        };
        let items = vec![
            item(
                "flip_a",
                "{\"n\": 1, \"m\": 2}",
                "{\"m\": 2, \"n\": 1}",
                "{\n  \"v\": [1, 2, 3]\n}",
            ),
            item("flip_b", "{\"n\": 2}", "{\"n\": 2}", "[]"),
        ];
        let rec = Recorder::new();
        assert!(store_record_all(&rec.pass(1), &items, &store_dir, &mut Vec::new()).is_empty());

        let key = store::spec_key("flip_a", &items[0].spec).expect("key");
        let record = store::Store::open(&store_dir)
            .expect("open")
            .record_path(&key);
        let mut bytes = std::fs::read(&record).expect("record exists");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&record, bytes).expect("tamper");

        let served = store_serve_all(&rec.pass(1), &items, &store_dir);
        assert!(served[0].1.is_err(), "flipped record must not be served");
        assert!(served[1].1.is_ok(), "its neighbour is untouched");
        assert!(store_dir.join("corrupt").is_dir(), "and it is quarantined");
    }
}
