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
//! `results/`; the simulations are `ecn_delay_core`'s, and this crate parses
//! argv, prints, and wires up the store and the instrumentation. Its
//! [`print!`] and [`println!`] shadow std's, so `figs <id> | head` ends the
//! console, not the run. Benchmarks (`cargo bench`, driven by [`harness`])
//! measure the substrate: event-queue throughput, DDE integration speed,
//! and packet-simulation rates.
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

use std::io::{ErrorKind, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once stdout's reader has gone (`figs <id> | head`).
static STDOUT_CLOSED: AtomicBool = AtomicBool::new(false);

/// Write console text to stdout. A closed pipe silences the rest of the
/// process's console output instead of panicking as std's `print!` does;
/// any other write error is still fatal.
pub fn write_stdout(text: std::fmt::Arguments) {
    if STDOUT_CLOSED.load(Ordering::Relaxed) {
        return;
    }
    if let Err(e) = std::io::stdout().lock().write_fmt(text) {
        assert!(e.kind() == ErrorKind::BrokenPipe, "write to stdout: {e}");
        STDOUT_CLOSED.store(true, Ordering::Relaxed);
    }
}

/// std's `print!`, through [`write_stdout`]; a binary imports it by name.
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => { $crate::write_stdout(format_args!($($arg)*)) };
}

/// std's `println!`, through [`write_stdout`].
#[macro_export]
macro_rules! println {
    () => { $crate::print!("\n") };
    ($($arg:tt)*) => { $crate::print!("{}\n", format_args!($($arg)*)) };
}

pub mod cli;
pub mod figures;
pub mod harness;
pub mod obs_cli;
pub mod report;
pub mod store_cli;

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
