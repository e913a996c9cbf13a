//! Minimal std-only micro-benchmark harness.
//!
//! The container builds offline, so instead of criterion the `[[bench]]`
//! targets (compiled with `harness = false`) use this module: fixed warmup,
//! adaptive iteration count targeting a wall-clock budget per benchmark,
//! and a one-line `min / median / mean` report. Timing benchmarks live
//! outside the simulator crates, so wall-clock reads are allowed here (the
//! simulator itself is forbidden from `Instant::now` by `clippy.toml`).
//!
//! The rows are printed, not stored: the repo's performance record is the
//! `benchmark/` ruler. These benches time layers the ruler does not report
//! on its own (event-queue micro rows, the store's hit path, `par_map`
//! overhead, `fluid::History`).

use std::hint::black_box as std_black_box;
use std::time::{Duration, Instant};

/// Re-export of [`std::hint::black_box`] under the name criterion used.
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// Run `f` repeatedly, print `name: min / median / mean per iteration`,
/// and return the median, from which callers derive rates (e.g. events per
/// second).
///
/// Two warmup calls, then batches until ~0.5 s of measured time or 200
/// iterations, whichever comes first.
pub fn bench<T>(name: &str, mut f: impl FnMut() -> T) -> Duration {
    const BUDGET: Duration = Duration::from_millis(500);
    const MAX_ITERS: usize = 200;
    for _ in 0..2 {
        std_black_box(f());
    }
    let mut times = Vec::new();
    let mut total = Duration::ZERO;
    while times.is_empty() || (total < BUDGET && times.len() < MAX_ITERS) {
        #[expect(clippy::disallowed_methods, reason = "wall time is the measurement")]
        let start = Instant::now();
        std_black_box(f());
        let dt = start.elapsed();
        total += dt;
        times.push(dt);
    }
    times.sort_unstable();
    let min = times.first().copied().unwrap_or_default();
    let median = times[times.len() / 2];
    let mean = total / times.len() as u32;
    println!(
        "{name:<44} min {:>12} med {:>12} mean {:>12} ({} iters)",
        fmt_ns(min),
        fmt_ns(median),
        fmt_ns(mean),
        times.len()
    );
    median
}

fn fmt_ns(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}
