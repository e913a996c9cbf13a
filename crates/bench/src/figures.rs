//! The figure registry: every artifact of the paper's evaluation that
//! `figs <id>` regenerates, in the order `figs --all` prints them.
//!
//! An entry keeps what is the figure's own — its experiment (one module of
//! `ecn_delay_core::experiments`, which builds any packet scenario through
//! `ecn_delay_core::scenarios`), its config and its console table; nothing
//! here runs a simulation. The protocol around it is `Figure::standard`'s:
//! print the banner, serve the artifacts from the store when allowed, else
//! run, print, write `<id>.json` under [`results_dir`], record and report.
//! Two entries have bodies of their own: Figures 14–16 are three views of
//! one set of runs, so one entry writes all three, and `ext_faults` takes a
//! `--faults` schedule.

use std::path::PathBuf;

use crate::cli::Args;
use crate::obs_cli::{self, ObsCli};
use crate::store_cli::{self, StoreCli};
use crate::{banner, print_series, results_dir};
use ecn_delay_core::experiments as ex;
use ecn_delay_core::{write_json, write_series_csv, ToJson};

mod ext_faults;

/// One entry: the artifacts one run regenerates.
pub struct Figure {
    /// The stable ids of the artifacts it writes, each a `figs` argument
    /// and the stem of `results/<id>.json`. The first is also the store's
    /// experiment id and the directory `figs --all --obs` gives the entry.
    pub ids: &'static [&'static str],
    /// The banner printed above the console output.
    pub title: &'static str,
    /// Regenerate the artifact under the parsed flags.
    pub body: fn(&Figure, &Args),
}

/// A figure run that was not served from the store, between its banner and
/// its results.
struct Run {
    obs: ObsCli,
    store: StoreCli,
}

impl Figure {
    /// Start `--obs`' instrumentation, print the banner and look the figure
    /// up in the store under `spec_json`. `None`: the artifacts were served
    /// and there is nothing left to do. The `--obs` files describe a run, so
    /// an instrumented invocation always runs.
    fn begin(&self, args: &Args, spec_json: &str) -> Option<Run> {
        let obs = obs_cli::init(args);
        banner(self.title);
        let store = store_cli::from_dir(args.store.as_deref(), self.ids[0], spec_json);
        if !obs.active() && store.try_serve().is_some() {
            store.finish();
            obs.finish();
            return None;
        }
        Some(Run { obs, store })
    }

    /// Write each of `results` as its id's `<id>.json`, record them with the
    /// `csvs` already written beside them as the entry's one store record,
    /// and write the `--obs` files.
    fn save(&self, run: Run, results: &[&dyn ToJson], csvs: Vec<PathBuf>) {
        let mut artifacts = Vec::new();
        for (id, res) in self.ids.iter().zip(results) {
            let path = results_dir().join(format!("{id}.json"));
            write_json(&path, *res).expect("write results");
            println!("\nresults -> {}", path.display());
            artifacts.push(path);
        }
        artifacts.extend(csvs);
        run.store.record(&artifacts);
        run.store.finish();
        run.obs.finish();
    }

    /// The whole protocol for a figure that is `run(&cfg)` and a console
    /// table.
    fn standard<C: ToJson, R: ToJson>(
        &self,
        args: &Args,
        cfg: C,
        run: fn(&C) -> R,
        print: fn(&C, &R),
        csvs: Option<fn(&R) -> Vec<PathBuf>>,
    ) {
        let Some(started) = self.begin(args, &cfg.to_json().render_pretty()) else {
            return;
        };
        let res = run(&cfg);
        print(&cfg, &res);
        let csvs = csvs.map_or_else(Vec::new, |write| write(&res));
        self.save(started, &[&res], csvs);
    }
}

/// An entry that writes `<id>.json` from `ex::<id>::run` at its default
/// config and prints it with this file's `<id>` table, plus any CSVs.
macro_rules! standard {
    ($id:ident, $title:literal) => {
        standard!($id, $title, None)
    };
    ($id:ident, $title:literal, $csvs:expr) => {
        Figure {
            ids: &[stringify!($id)],
            title: $title,
            body: |f, a| f.standard(a, Default::default(), ex::$id::run, $id, $csvs),
        }
    };
}

/// Every figure, in the order `figs --all` runs and prints them.
pub const FIGURES: &[Figure] = &[
    standard!(eq14, "Eq 14: p* approximation vs exact fixed point"),
    standard!(
        fig2,
        "Figure 2: DCQCN fluid model vs packet simulation (40 Gbps)",
        Some(fig2_csvs)
    ),
    standard!(
        fig3,
        "Figure 3: DCQCN phase margin (degrees) vs number of flows"
    ),
    standard!(fig4, "Figure 4: DCQCN fluid stability grid (tau* x N)"),
    standard!(
        fig5,
        "Figure 5: packet-level DCQCN instability (85 us loop)"
    ),
    standard!(fig6, "Figure 6 / Theorem 2: discrete AIMD convergence"),
    standard!(thm2, "Theorem 2: exponential convergence of DCQCN rates"),
    standard!(
        fig8,
        "Figure 8: TIMELY fluid model vs packet simulation (10 Gbps)"
    ),
    standard!(fig9, "Figure 9: TIMELY multi-equilibria (2 flows, fluid)"),
    standard!(fig10, "Figure 10: impact of per-burst pacing on TIMELY"),
    standard!(fig11, "Figure 11: Patched TIMELY phase margin vs N"),
    standard!(fig12, "Figure 12: Patched TIMELY convergence and stability"),
    Figure {
        ids: &["fig14", "fig15", "fig16"],
        title: "Figures 14-16: small-flow FCT vs load; its CDF and the queue at load 0.8",
        body: fct,
    },
    standard!(
        fig17,
        "Figure 17: DCQCN with egress vs ingress marking (85 us loop)"
    ),
    standard!(fig18, "Figure 18: DCQCN + PI controller (q_ref = 100 KB)"),
    standard!(
        fig19,
        "Figure 19: Patched TIMELY + end-host PI (q_ref = 300 KB)"
    ),
    standard!(fig20, "Figure 20: uniform [0,100us] feedback jitter"),
    Figure {
        ids: &["ext_pi_packet"],
        title: "Extension: packet-level DCQCN + PI AQM vs RED",
        body: |f, a| {
            f.standard(
                a,
                ex::ext_pi_packet::ExtPiPacketConfig {
                    duration_s: 0.25,
                    ..Default::default()
                },
                ex::ext_pi_packet::run,
                ext_pi_packet,
                None,
            )
        },
    },
    standard!(ext_parking_lot, "Extension: DCQCN on a 3-hop parking lot"),
    standard!(
        ext_pfc,
        "Extension: ECN-before-PFC vs PFC-only (4 flows, 10 Gbps)"
    ),
    Figure {
        ids: &["ext_faults"],
        title: "Extension: fault injection — degradation matrix & divergence watchdog",
        body: ext_faults::body,
    },
    standard!(ablations, "Ablations"),
    standard!(
        appendix_b,
        "Appendix B: Eq 40 AIMD cycle length vs packet measurement"
    ),
];

/// Figures 14-16 read one set of dumbbell runs (`fig14::study`), so their
/// spec is the three figures' configs.
fn fct(f: &Figure, args: &Args) {
    use ex::{fig14, fig15, fig16};
    let cfg: (fig14::Fig14Config, fig15::Fig15Config, fig16::Fig16Config) = Default::default();
    let Some(started) = f.begin(args, &cfg.to_json().render_pretty()) else {
        return;
    };
    let (r14, r15, r16) = fig14::study(&cfg.0, &cfg.1, &cfg.2);
    print_fig14(&r14);
    print_fig15(&r15);
    print_fig16(&r16);
    f.save(started, &[&r14, &r15, &r16], fig16_csvs(&r16));
}

fn fig2_csvs(res: &ex::fig2::Fig2Result) -> Vec<PathBuf> {
    let write = |p: &ex::fig2::Fig2Panel| {
        let csv = results_dir().join(format!("fig2_n{}_queue.csv", p.n_flows));
        write_series_csv(
            &csv,
            "t_s",
            &[
                ("fluid_queue_kb", p.fluid_queue_kb.as_slice()),
                ("sim_queue_kb", p.sim_queue_kb.as_slice()),
            ],
        )
        .expect("write csv");
        csv
    };
    res.panels.iter().map(write).collect()
}

fn fig16_csvs(res: &ex::fig16::Fig16Result) -> Vec<PathBuf> {
    let write = |(name, series): &(String, ex::Series)| {
        let csv = results_dir().join(format!("fig16_{}.csv", name.to_lowercase()));
        write_series_csv(&csv, "t_s", &[("queue_kb", series.as_slice())]).expect("write csv");
        csv
    };
    res.queues_kb.iter().map(write).collect()
}

// The console tables, one per figure that is `run(&cfg)` and a table.

fn eq14(_: &ex::eq14::Eq14Config, res: &ex::eq14::Eq14Result) {
    println!(
        "{:>8} {:>6} {:>12} {:>12} {:>10} {:>10} {:>6}",
        "C (Gbps)", "N", "p* exact", "p* approx", "rel err", "q* (KB)", "sat?"
    );
    for r in &res.rows {
        println!(
            "{:>8} {:>6} {:>12.6} {:>12.6} {:>10.3} {:>10.1} {:>6}",
            r.capacity_gbps,
            r.n_flows,
            r.p_exact,
            r.p_approx,
            r.rel_error,
            r.q_star_kb,
            if r.saturated { "yes" } else { "no" }
        );
    }
}

fn fig2(cfg: &ex::fig2::Fig2Config, res: &ex::fig2::Fig2Result) {
    for p in &res.panels {
        println!("\nN = {} flows:", p.n_flows);
        println!(
            "  tail flow rate   : fluid {:8.2} Gbps | sim {:8.2} Gbps | fair share {:8.2} Gbps",
            p.tail_rates_gbps.0,
            p.tail_rates_gbps.1,
            cfg.bandwidth_gbps / p.n_flows as f64
        );
        println!(
            "  tail queue       : fluid {:8.1} KB   | sim {:8.1} KB",
            p.tail_queues_kb.0, p.tail_queues_kb.1
        );
        print_series("fluid queue (KB)", &p.fluid_queue_kb, 12);
        print_series("sim queue (KB)", &p.sim_queue_kb, 12);
    }
}

fn fig3(_: &ex::fig3::Fig3Config, res: &ex::fig3::Fig3Result) {
    let table = |title: &str, curves: &[ex::fig3::MarginCurve]| {
        println!("\n{title}");
        print!("{:>6}", "N");
        for c in curves {
            print!("{:>16}", c.label);
        }
        println!();
        for i in 0..curves[0].points.len() {
            print!("{:>6}", curves[0].points[i].0);
            for c in curves {
                print!("{:>16.1}", c.points[i].1);
            }
            println!();
        }
    };
    table("(a) by control-loop delay", &res.by_delay);
    table("(b) by R_AI at 85 us", &res.by_r_ai);
    table("(c) by K_max at 85 us", &res.by_kmax);
}

fn fig4(_: &ex::fig4::Fig4Config, res: &ex::fig4::Fig4Result) {
    println!(
        "{:>10} {:>6} {:>18} {:>18}",
        "tau* (us)", "N", "queue osc (q*)", "margin predicts"
    );
    for p in &res.panels {
        println!(
            "{:>10} {:>6} {:>18.3} {:>18}",
            p.delay_us,
            p.n_flows,
            p.queue_oscillation,
            if p.predicted_stable {
                "stable"
            } else {
                "UNSTABLE"
            }
        );
    }
}

fn fig5(_: &ex::fig5::Fig5Config, res: &ex::fig5::Fig5Result) {
    for p in &res.panels {
        println!(
            "N = {:>3}: tail queue peak-to-peak = {:8.1} KB",
            p.n_flows, p.queue_p2p_kb
        );
        print_series("queue (KB)", &p.queue_kb, 10);
    }
}

fn fig6(_: &ex::fig6::Fig6Config, res: &ex::fig6::Fig6Result) {
    println!("alpha* (Eq 42)              = {:.5}", res.alpha_star);
    println!("contraction bound (1-a*/2)  = {:.5}", res.contraction_bound);
    println!("measured per-cycle decay    = {:.5}", res.measured_decay);
    println!(
        "\n{:>6} {:>16} {:>10}",
        "cycle", "rate gap (Gbps)", "mean α"
    );
    for &(k, gap, a) in res.convergence.iter().step_by(5) {
        println!("{k:>6} {gap:>16.4} {a:>10.5}");
    }
}

fn thm2(_: &ex::thm2::Thm2Config, rows: &ex::thm2::Thm2Result) {
    for &(n, alpha_star, bound, decay) in rows {
        println!(
            "{n} flows: alpha*={alpha_star:.4}  bound={bound:.4}  measured decay={decay:.4}  (decay ≤ bound ⇒ Theorem 2 holds)"
        );
    }
}

fn fig8(_: &ex::fig8::Fig8Config, res: &ex::fig8::Fig8Result) {
    for p in &res.panels {
        println!("\nN = {} flows:", p.n_flows);
        println!(
            "  tail queue      : fluid {:8.1} KB | sim {:8.1} KB",
            p.tail_queues_kb.0, p.tail_queues_kb.1
        );
        println!(
            "  aggregate rate  : fluid {:8.2} Gbps | sim {:8.2} Gbps",
            p.tail_agg_gbps.0, p.tail_agg_gbps.1
        );
        print_series("fluid queue (KB)", &p.fluid_queue_kb, 10);
        print_series("sim queue (KB)", &p.sim_queue_kb, 10);
    }
}

fn fig9(_: &ex::fig9::Fig9Config, res: &ex::fig9::Fig9Result) {
    for p in &res.panels {
        println!(
            "{:<34} tail share of flow 0 = {:.3}",
            p.label, p.tail_share_flow0
        );
        print_series("flow 0 rate (Gbps)", &p.rate0_gbps, 8);
        print_series("flow 1 rate (Gbps)", &p.rate1_gbps, 8);
    }
    println!("\nNote: identical protocol, different starts, different regimes —");
    println!("Theorems 3/4: no unique fixed point, arbitrary unfairness.");
}

fn fig10(_: &ex::fig10::Fig10Config, res: &ex::fig10::Fig10Result) {
    for p in &res.panels {
        println!(
            "Seg = {:>6} B: early (0-50ms) aggregate {:6.2} Gbps | tail aggregate {:6.2} Gbps",
            p.seg_bytes, p.early_agg_gbps, p.tail_agg_gbps
        );
        print_series("queue (KB)", &p.queue_kb, 10);
    }
}

fn fig11(_: &ex::fig11::Fig11Config, res: &ex::fig11::Fig11Result) {
    println!(
        "{:>6} {:>14} {:>12} {:>16}",
        "N", "margin (deg)", "q* (KB)", "fb delay (us)"
    );
    for &(n, pm, q, d) in &res.points {
        println!("{n:>6} {pm:>14.1} {q:>12.1} {d:>16.1}");
    }
    match res.instability_threshold {
        Some(n) => println!("\nunstable from N = {n} (paper: ~40 with its tuning)"),
        None => println!("\nstable across the swept range"),
    }
}

fn fig12(_: &ex::fig12::Fig12Config, res: &ex::fig12::Fig12Result) {
    println!(
        "(a) 7 vs 3 Gbps start -> tail share of flow 0 = {:.3} (0.5 = fair)",
        res.panel_a_share
    );
    println!(
        "(b) N=16 queue oscillation (x q*) = {:.3}",
        res.panel_b_oscillation
    );
    println!(
        "(c) N=64 queue oscillation (x q*) = {:.3}",
        res.panel_c_oscillation
    );
    print_series("(b) queue KB", &res.panel_b_queue_kb, 10);
    print_series("(c) queue KB", &res.panel_c_queue_kb, 10);
}

fn print_fig14(res: &ex::fig14::Fig14Result) {
    println!("\nFigure 14: small-flow FCT vs load (dumbbell, 10 Gbps)");
    println!(
        "{:<16} {:>6} {:>14} {:>14} {:>8} {:>8}",
        "protocol", "load", "median (ms)", "p90 (ms)", "flows", "util"
    );
    for c in &res.curves {
        for i in 0..c.median_ms.len() {
            println!(
                "{:<16} {:>6} {:>14.3} {:>14.3} {:>8} {:>8.3}",
                c.protocol,
                c.median_ms[i].0,
                c.median_ms[i].1,
                c.p90_ms[i].1,
                c.small_counts[i].1,
                c.utilization[i].1
            );
        }
    }
}

fn print_fig15(res: &ex::fig15::Fig15Result) {
    println!("\nFigure 15: CDF of small-flow FCT, load = 0.8");
    for (name, cdf) in &res.cdfs {
        let q = |p: f64| {
            cdf.iter()
                .find(|&&(_, cp)| cp >= p)
                .map(|&(x, _)| x)
                .unwrap_or(f64::NAN)
        };
        println!(
            "{name:<16}: p50={:8.3} ms  p90={:8.3} ms  p99={:8.3} ms  max={:8.3} ms",
            q(0.5),
            q(0.9),
            q(0.99),
            cdf.last().map(|&(x, _)| x).unwrap_or(f64::NAN)
        );
    }
}

fn print_fig16(res: &ex::fig16::Fig16Result) {
    println!("\nFigure 16: bottleneck queue, load = 0.8");
    for (name, mean, p99, max) in &res.summary {
        println!("{name:<16}: mean={mean:8.1} KB  p99={p99:8.1} KB  max={max:8.1} KB");
    }
    for (name, series) in &res.queues_kb {
        print_series(&format!("{name} queue (KB)"), series, 10);
    }
}

fn fig17(_: &ex::fig17::Fig17Config, res: &ex::fig17::Fig17Result) {
    println!(
        "tail queue std-dev: egress {:8.1} KB | ingress {:8.1} KB",
        res.queue_stddev_kb.0, res.queue_stddev_kb.1
    );
    print_series("egress queue (KB)", &res.egress_queue_kb, 10);
    print_series("ingress queue (KB)", &res.ingress_queue_kb, 10);
}

fn fig18(_: &ex::fig18::Fig18Config, res: &ex::fig18::Fig18Result) {
    println!(
        "{:>6} {:>16} {:>22}",
        "N", "tail queue (KB)", "worst rate error"
    );
    for p in &res.panels {
        println!(
            "{:>6} {:>16.1} {:>22.4}",
            p.n_flows, p.tail_queue_kb, p.worst_rate_error
        );
    }
    println!("\nqueue pinned at q_ref for every N — fair AND fixed delay (ECN can).");
}

fn fig19(_: &ex::fig19::Fig19Config, res: &ex::fig19::Fig19Result) {
    println!(
        "tail queue      = {:8.1} KB (target 300)",
        res.tail_queue_kb
    );
    println!("tail shares     = {:?}", res.tail_shares);
    println!("tail utilization= {:8.3}", res.tail_utilization);
    println!("\nTheorem 6: with delay-only feedback you can pin the queue OR be fair, not both.");
}

fn fig20(_: &ex::fig20::Fig20Config, res: &ex::fig20::Fig20Result) {
    for p in &res.panels {
        println!(
            "{:<16}: queue oscillation x q* — clean {:6.3} | jittered {:6.3}",
            p.protocol, p.oscillation.0, p.oscillation.1
        );
    }
    println!("\nECN survives jitter (signal delayed, not corrupted); delay-based does not.");
}

fn ext_pi_packet(
    _: &ex::ext_pi_packet::ExtPiPacketConfig,
    res: &ex::ext_pi_packet::ExtPiPacketResult,
) {
    println!(
        "{:>6} {:>18} {:>18} {:>18}",
        "N", "RED queue (KB)", "PI queue (KB)", "PI worst rate err"
    );
    for p in &res.panels {
        println!(
            "{:>6} {:>18.1} {:>18.1} {:>18.3}",
            p.n_flows, p.red_tail_queue_kb, p.pi_tail_queue_kb, p.pi_worst_rate_error
        );
    }
    println!(
        "\nRED's operating queue drifts with N (Eq 14); PI pins it at q_ref = {} KB.",
        res.q_ref_kb
    );
}

fn ext_parking_lot(
    _: &ex::ext_parking_lot::ParkingLotConfig,
    res: &ex::ext_parking_lot::ParkingLotResult,
) {
    println!("long flow tail rate : {:.2} Gbps", res.long_tail_gbps);
    for (h, &c) in res.cross_tail_gbps.iter().enumerate() {
        println!(
            "hop {h}: cross flow {:.2} Gbps, utilization {:.3}",
            c, res.hop_utilization[h]
        );
    }
    println!("\nthe multi-hop flow takes less than the per-hop fair share (classic");
    println!("parking-lot outcome) but does not starve; every hop stays utilized.");
}

fn ext_pfc(_: &ex::ext_pfc::ExtPfcConfig, res: &ex::ext_pfc::ExtPfcResult) {
    println!(
        "{:<16} {:>8} {:>14} {:>16} {:>14}",
        "config", "pauses", "paused (s)", "max queue (KB)", "goodput (Gbps)"
    );
    for o in &res.outcomes {
        println!(
            "{:<16} {:>8} {:>14.6} {:>16.1} {:>14.2}",
            o.label, o.pauses, o.paused_s, o.max_queue_kb, o.goodput_gbps
        );
    }
    println!("\nwith ECN marking below the PFC threshold, end-to-end control reacts");
    println!("first and PFC (the blunt hop-by-hop mechanism) stays disengaged.");
}

fn ablations(_: &ex::ablations::AblationsConfig, res: &ex::ablations::AblationsResult) {
    println!("\n(1) DCQCN fast-recovery stages (4 flows, 10 Gbps):");
    println!(
        "{:>4} {:>16} {:>18}",
        "F", "goodput (Gbps)", "queue stddev (KB)"
    );
    for &(f, g, sd) in &res.fast_recovery {
        println!("{f:>4} {g:>16.2} {sd:>18.1}");
    }
    println!("\n(2) CNP coalescing timer τ (4 flows):");
    println!(
        "{:>8} {:>16} {:>18}",
        "τ (us)", "goodput (Gbps)", "queue stddev (KB)"
    );
    for &(tau, g, sd) in &res.cnp_timer {
        println!("{tau:>8} {g:>16.2} {sd:>18.1}");
    }
    println!("\n(3) TIMELY burst size (2 flows, tail goodput):");
    println!("{:>10} {:>16}", "Seg (KB)", "goodput (Gbps)");
    for &(seg, g) in &res.burst_size {
        println!("{:>10} {g:>16.2}", seg / 1000);
    }
    println!("\n(4) DCQCN α gain g (fluid, 10 flows @ 85 us delay — stability knob):");
    println!("{:>10} {:>22}", "g", "queue osc (x q*)");
    for &(g, osc) in &res.alpha_gain {
        println!("{g:>10.5} {osc:>22.3}");
    }
}

fn appendix_b(_: &ex::appendix_b::AppendixBConfig, res: &ex::appendix_b::AppendixBResult) {
    println!(
        "{:>6} {:>10} {:>20} {:>20} {:>8}",
        "N", "alpha*", "predicted (us)", "measured (us)", "cuts"
    );
    for r in &res.rows {
        println!(
            "{:>6} {:>10.4} {:>20.1} {:>20.1} {:>8}",
            r.n_flows, r.alpha_star, r.predicted_cycle_us, r.measured_cycle_us, r.cuts_measured
        );
    }
}
