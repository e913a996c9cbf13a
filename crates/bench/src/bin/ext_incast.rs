//! Extension: datacenter-scale incast FCT on fat-tree topologies.
//!
//! Runs the `ext_incast` sweep — an N:1 incast burst on a k-ary fat-tree,
//! FCT distribution and engine scale probe per `(protocol, fan-in)` cell —
//! and writes `results/ext_incast.json`. Every cell prints a 64-bit digest
//! of its exact FCT bit patterns; `crates/bench/tests/smoke.rs` compares
//! this stdout (and every obs artifact) across `SIM_THREADS` settings.
//!
//! A cell that panics is caught in its own slot (reported in the `failed`
//! table, exit status 4) while its batchmates complete normally.
//! With `--store <dir>` each *cell* is cached individually, so a killed
//! sweep resumes from its finished cells on rerun.
//!
//! Flags (all optional, combinable with the shared `--obs` and `--store`):
//!
//! * `--k <arity>` — fat-tree arity (even, 4..=16; default 8, k³/4 hosts);
//! * `--senders <csv>` — fan-in degrees to sweep (default `64,256,1024`;
//!   senders beyond the k³/4 hosts wrap round-robin, bounded at 64 flows
//!   per host);
//! * `--bytes <n>` — response size per sender (default 32000, ≥ 1);
//! * `--seed <n>` — burst/engine seed (default 1);
//! * `--inject-panic <i>` — fault-injection hook for the smoke tests:
//!   sweep cell `i` panics instead of simulating.
//!
//! Malformed or out-of-range flags exit with status 2 after printing a
//! one-line JSON diagnostic (`{"error": "invalid_usage", ...}`) to stderr.

use bench::cli::Usage;
use bench::println;
use ecn_delay_core::experiments::ext_incast::{run_sweep, ExtIncastConfig};
use ecn_delay_core::write_json;

/// Senders wrap round-robin over the fat-tree's hosts, but a fan-in past
/// this many flows per host is rejected as out of range.
const MAX_FLOWS_PER_HOST: usize = 64;

/// The sweep's own flags, read and range-checked.
struct Flags {
    k: usize,
    senders: Vec<usize>,
    bytes: u64,
    seed: u64,
    inject_panic: Option<usize>,
}

fn read_flags(own: &[(&'static str, String)]) -> Result<Flags, Usage> {
    let mut flags = Flags {
        k: 8,
        senders: vec![64, 256, 1024],
        bytes: 32_000,
        seed: 1,
        inject_panic: None,
    };
    for (flag, raw) in own {
        let int = || -> Result<u64, Usage> {
            raw.parse::<u64>()
                .map_err(|_| Usage::new(*flag, format!("expected an integer, got {raw:?}")))
        };
        match *flag {
            "--k" => flags.k = int()? as usize,
            "--senders" => {
                let mut senders = Vec::new();
                for part in raw.split(',') {
                    let n: u64 = part.trim().parse().map_err(|_| {
                        Usage::new(
                            "--senders",
                            format!("expected a csv of integers, got {part:?}"),
                        )
                    })?;
                    senders.push(n as usize);
                }
                flags.senders = senders;
            }
            "--bytes" => flags.bytes = int()?,
            "--seed" => flags.seed = int()?,
            "--inject-panic" => flags.inject_panic = Some(int()? as usize),
            _ => unreachable!("bench::cli hands back this entry's flags only"),
        }
    }

    // Semantic validation: keep impossible sweeps out of the engine.
    if flags.k < 4 || flags.k > 16 || !flags.k.is_multiple_of(2) {
        return Err(Usage::new(
            "--k",
            format!("fat-tree arity must be even and in 4..=16, got {}", flags.k),
        ));
    }
    if flags.senders.is_empty() {
        return Err(Usage::new("--senders", "at least one fan-in is required"));
    }
    // Senders beyond the host count wrap round-robin over the hosts (a
    // host can source several response flows), but only up to a bounded
    // oversubscription — past that the "sweep" is a typo, not a scenario.
    let hosts = flags.k * flags.k * flags.k / 4;
    let capacity = hosts * MAX_FLOWS_PER_HOST;
    for &n in &flags.senders {
        if n < 1 || n > capacity {
            return Err(Usage::new(
                "--senders",
                format!(
                    "fan-in {n} exceeds the k={} fat-tree's capacity: {hosts} hosts \
                     source at most {capacity} wrapped senders \
                     ({MAX_FLOWS_PER_HOST} flows per host); need 1..={capacity}",
                    flags.k
                ),
            ));
        }
    }
    if flags.bytes == 0 {
        return Err(Usage::new(
            "--bytes",
            "response size must be at least 1 byte",
        ));
    }
    Ok(flags)
}

fn main() {
    let args = bench::cli::parse(Some("ext_incast"));
    let flags = read_flags(&args.own).unwrap_or_else(|u| u.exit("ext_incast"));
    let obs = bench::obs_cli::init(&args);
    let cfg = ExtIncastConfig {
        k: flags.k,
        sender_counts: flags.senders.clone(),
        bytes_per_sender: flags.bytes,
        seed: flags.seed,
        ..Default::default()
    };
    // The sweep caches per cell, not per figure: pass the raw store through
    // and let `run_sweep` key each (protocol, fan-in) cell separately.
    let store = bench::store_cli::from_dir(
        args.store.as_deref(),
        "ext_incast",
        &ecn_delay_core::json::ToJson::to_json(&cfg).render_pretty(),
    );
    bench::banner("Extension: fat-tree incast FCT at scale");
    let hosts = flags.k * flags.k * flags.k / 4;
    println!(
        "k={} fat-tree ({hosts} hosts), {} B/sender, seed {}\n",
        cfg.k, cfg.bytes_per_sender, cfg.seed
    );
    let res = run_sweep(&cfg, store.store(), flags.inject_panic);
    println!(
        "{:<15} {:>7} {:>6} {:>11} {:>11} {:>9} {:>10}  digest",
        "protocol", "fan-in", "done", "median (ms)", "p99 (ms)", "Gbps", "events"
    );
    for c in &res.cells {
        println!(
            "{:<15} {:>7} {:>6} {:>11.3} {:>11.3} {:>9.2} {:>10}  {}",
            c.protocol,
            c.n_senders,
            c.completed,
            c.median_fct_ms,
            c.p99_fct_ms,
            c.goodput_gbps,
            c.events_processed,
            c.digest
        );
    }
    if !res.failed.is_empty() {
        println!("\nfailed cells (each panic caught in its own cell):");
        for f in &res.failed {
            println!(
                "{:<15} {:>7}  {:<12} {}",
                f.protocol, f.n_senders, f.kind, f.error
            );
        }
    }
    let path = bench::results_dir().join("ext_incast.json");
    write_json(&path, &res).expect("write results");
    println!("results -> {}", path.display());
    store.finish();
    let n_failed = res.failed.len();
    obs.finish();
    if n_failed > 0 {
        eprintln!("ext_incast: {n_failed} cell(s) failed (see table above)");
        std::process::exit(4);
    }
}
