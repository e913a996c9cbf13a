//! Fixture: measure-only wall-clock flows (`obs::span` style) are
//! sanctioned — readings may be aggregated into profiling counters and
//! reported, but never written into simulation state. Zero determinism-taint
//! findings expected (the wall-clock *read* is what clippy.toml bans, and the
//! real span module carries `#[expect]` for it; this fixture checks the flow).

use std::sync::atomic::{AtomicU64, Ordering};

pub fn measure(counter: &AtomicU64) -> u64 {
    let start = std::time::Instant::now();
    let dt_ns = start.elapsed().as_nanos() as u64;
    counter.fetch_add(dt_ns, Ordering::Relaxed);
    dt_ns
}
