//! # bench — figure regeneration and std-only benchmarks
//!
//! Every table and figure in the paper's evaluation is an artifact of one
//! entry of [`figures::FIGURES`]; the `figs` binary regenerates them. An
//! entry may write several: Figures 14–16 are three views of one set of
//! dumbbell runs, so `figs fig14`, `figs fig15` and `figs fig16` all run
//! that one entry and write all three.
//!
//! ```text
//! cargo run -p bench --release --bin figs             # lists the ids
//! cargo run -p bench --release --bin figs -- fig3     # one figure
//! cargo run -p bench --release --bin figs -- --all    # every entry, one child process each
//! ```
//!
//! A figure prints the paper's series to stdout and writes JSON under
//! `results/`. Benchmarks (`cargo bench`, driven by [`harness`]) measure
//! the substrate: event-queue throughput, DDE integration speed, and
//! packet-simulation rates.
//!
//! [`cli`] is the one argv parser (of `figs` and of the `ext_incast` sweep
//! CLI), and the binaries share two flags, both off by default. `--obs <dir>`
//! (see [`obs_cli`]) exports the run's sim-time event trace, counter
//! snapshot, windowed series and flight-recorder ring as four files in
//! `<dir>`. `--store <dir>` (see [`store_cli`]) makes a figure run
//! resumable: results are cached in a crash-safe content-addressed store
//! keyed by the figure's canonical config, and a rerun with the same spec is
//! served byte-identically from disk; a `--store` that cannot be opened is
//! a usage error before any work. `figs --all` hands every child
//! `--obs <dir>/<id>` and the shared store.

#![warn(missing_docs)]
// The wall-clock ban (`crates/bench/clippy.toml`, DESIGN.md §8.1): only
// `harness` reads the clock. `xtask`'s `headers_deny_what_the_table_demands`
// test holds this header to `xtask::CRATE_LINTS`.
#![deny(clippy::disallowed_types, clippy::disallowed_methods)]

pub mod cli;
pub mod figures;
pub mod harness;
pub mod obs_cli;
pub mod report;
pub mod store_cli;

use std::path::PathBuf;

/// Directory where figure binaries drop their JSON results.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("ECN_DELAY_RESULTS").unwrap_or_else(|_| "results".to_string());
    PathBuf::from(dir)
}

/// Pretty-print a separator + title for a figure's console output.
pub fn banner(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Format a `(x, y)` series compactly for the console: decimated to at most
/// `max_points` rows.
pub fn print_series(name: &str, series: &[(f64, f64)], max_points: usize) {
    println!("-- {name} ({} points)", series.len());
    if series.is_empty() {
        return;
    }
    let step = (series.len() / max_points.max(1)).max(1);
    for (i, (x, y)) in series.iter().enumerate() {
        if i % step == 0 || i == series.len() - 1 {
            println!("   {x:12.6}  {y:14.4}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_default() {
        let d = results_dir();
        assert!(d.components().count() >= 1);
    }
}
