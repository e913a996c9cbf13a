//! Host-side readings: peak memory, scheduler accounting, and a calibration
//! kernel whose run time tracks the machine's speed rather than the
//! program's. Same-code repeats on a small shared box drift by tens of
//! percent over ~10 s while run-queue wait stays under 1 %: the machine's
//! clock moves, not the scheduler. The canaries let a reader tell that apart
//! from a change in the code.

use std::hint::black_box;
use std::time::Instant;

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(cpu_s, runqueue_wait_s)` of the calling thread since it started, from
/// `/proc/thread-self/schedstat`. Worker threads of `desim::par` are not
/// included: on `figset_paper` the main thread only waits for them.
pub fn schedstat_s() -> (f64, f64) {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let mut fields = text
        .split_whitespace()
        .map(|f| f.parse::<f64>().unwrap_or(f64::NAN) / 1e9);
    (
        fields.next().unwrap_or(f64::NAN),
        fields.next().unwrap_or(f64::NAN),
    )
}

/// Iterations of the calibration kernel: ≈10 ms on the reference box, long
/// enough to read and short enough to run between all passes.
const CALIB_ITERS: u64 = 2_500_000;

/// Time a fixed integer spin: eight independent xorshift chains, so the core
/// retires several instructions a cycle, as the simulators do. A busy sibling
/// hyper-thread or a lower clock slows it the way it slows them; it touches
/// no memory, so its duration moves only with the core's speed.
pub fn calib_s() -> f64 {
    let start = Instant::now();
    let mut x: [u64; 8] = black_box(std::array::from_fn(|i| 0x9e37_79b9_7f4a_7c15 + i as u64));
    for _ in 0..CALIB_ITERS {
        for v in &mut x {
            *v ^= *v << 13;
            *v ^= *v >> 7;
            *v ^= *v << 17;
        }
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}

/// A run set is `noisy` when the machine's speed moved by more than this
/// share within it, judged by the calibration kernel (max/min − 1) …
pub const NOISY_CALIB_SPREAD: f64 = 0.05;
/// … or when the timed passes waited for a core for more than this share of
/// their wall time.
pub const NOISY_RUNQUEUE_SHARE: f64 = 0.02;

pub fn is_noisy(calib_samples: &[f64], runqueue_wait_s: f64, timed_wall_s: f64) -> bool {
    let lo = calib_samples.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = calib_samples.iter().copied().fold(0.0, f64::max);
    (lo.is_finite() && hi / lo - 1.0 > NOISY_CALIB_SPREAD)
        || runqueue_wait_s > NOISY_RUNQUEUE_SHARE * timed_wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        assert!(peak_rss_mb() > 0.5);
        let (cpu, wait) = schedstat_s();
        assert!(cpu >= 0.0 && wait >= 0.0);
        assert!(calib_s() > 0.0);
    }

    #[test]
    fn noisy_flags_calibration_drift_and_runqueue_wait() {
        assert!(!is_noisy(&[0.0100, 0.0102, 0.0101], 0.001, 1.0));
        assert!(is_noisy(&[0.0100, 0.0110], 0.0, 1.0));
        assert!(is_noisy(&[0.0100, 0.0100], 0.03, 1.0));
    }
}
