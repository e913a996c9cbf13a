//! Deterministic windowed time-series and streaming log-bucketed histograms.
//!
//! The trajectory layer of the telemetry model (DESIGN.md §8.8): where
//! [`crate::metrics`] records scalar totals and [`crate::trace`] records raw
//! events, this module records *dynamics* — per-link queue depth, arrival and
//! departure rates, ECN mark rates, pause state, per-flow sending rates —
//! without ever storing one point per event. Two collectors:
//!
//! * **windowed series** — each sample lands in a fixed-width simulation-time
//!   window keyed by `floor(t_s / window_s)`; per window only
//!   `(count, sum, min, max, last)` are kept, so a 10M-event run costs
//!   O(windows), not O(events);
//! * **log-bucketed streaming histograms** — HDR-style: a sample's bucket is
//!   the top bits of its `f64` representation (exponent plus
//!   [`SUB_BITS`] mantissa bits), pure integer math, ≤2.3 % relative bucket
//!   width. Quantiles cost O(buckets) regardless of sample count, which is
//!   what makes FCT percentiles affordable at 1024-flow incast scale.
//!
//! ## Determinism contract
//!
//! Everything is keyed by `(name, key, context)` where the context is the
//! same per-job recording context [`crate::trace`] uses (`desim::par`
//! derives it from the job's *input index*), so the JSONL export is sorted,
//! windowed in simulation time only, and byte-identical across
//! `SIM_THREADS` settings. Bucket assignment is bit-exact integer
//! arithmetic — no `log2` calls whose libm rounding could differ.
//!
//! Off by default: a disabled sampling point costs one relaxed atomic load
//! and a branch.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Mantissa bits that subdivide each power-of-two bucket: 32 sub-buckets
/// per octave, ≤2.3 % relative width.
pub const SUB_BITS: u32 = 5;
/// Right-shift turning a positive finite `f64`'s bits into its bucket id.
const BUCKET_SHIFT: u32 = 52 - SUB_BITS;
/// Windows retained per series before new *windows* (not samples into
/// existing windows) are dropped and counted.
pub const MAX_WINDOWS: usize = 1 << 16;

/// Is time-series recording enabled? One relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn time-series recording on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn time-series recording off (sampling becomes a no-op again).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// One aggregated window of a series.
#[derive(Debug, Clone, Copy)]
struct Agg {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    last: f64,
}

/// A windowed series: fixed window width in simulation seconds, windows
/// keyed by index so late or out-of-order samples still land correctly.
#[derive(Debug)]
struct Series {
    window_s: f64,
    windows: BTreeMap<u64, Agg>,
    dropped: u64,
}

/// A streaming log-bucketed histogram over positive finite samples.
///
/// The bucket of a value is the top `11 + SUB_BITS` bits of its IEEE-754
/// representation; for positive floats, integer bit order equals numeric
/// order, so buckets are monotone in the value. Non-positive samples are
/// counted in a dedicated zero bucket (quantile value 0.0) and non-finite
/// samples in an overflow bucket ranked above everything.
#[derive(Debug, Default, Clone)]
pub struct LogHistogram {
    buckets: BTreeMap<u16, u64>,
    zero: u64,
    non_finite: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    /// New, empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            buckets: BTreeMap::new(),
            zero: 0,
            non_finite: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket id of a positive finite value: exponent plus the top
    /// mantissa bits, taken straight from the bit pattern.
    pub fn bucket_of(value: f64) -> u16 {
        (value.to_bits() >> BUCKET_SHIFT) as u16
    }

    /// The lower edge of a bucket (the smallest value mapping into it).
    pub fn bucket_lo(bucket: u16) -> f64 {
        f64::from_bits((bucket as u64) << BUCKET_SHIFT)
    }

    /// Record one sample.
    pub fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        if value > 0.0 {
            *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        } else {
            self.zero += 1;
            self.min = self.min.min(0.0);
            self.max = self.max.max(0.0);
        }
    }

    /// Fold `other`'s samples into `self`. Log-bucketed histograms share a
    /// universal bucket layout, so merge never fails (unlike the
    /// fixed-bound [`crate::metrics::Histogram::merge`]).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&b, &n) in &other.buckets {
            *self.buckets.entry(b).or_insert(0) += n;
        }
        self.zero += other.zero;
        self.non_finite += other.non_finite;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Total samples recorded, including zero and non-finite ones.
    pub fn count(&self) -> u64 {
        self.zero + self.non_finite + self.buckets.values().sum::<u64>()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest-rank over the buckets,
    /// reporting a bucket's lower edge (≤2.3 % below the true value).
    /// Non-finite samples rank above every bucket and report as `None`
    /// only when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based; q = 0 means the first sample.
        let rank = ((q * total as f64).ceil() as u64).max(1);
        let mut cum = self.zero;
        if rank <= cum {
            return Some(0.0);
        }
        for (&b, &n) in &self.buckets {
            cum += n;
            if rank <= cum {
                return Some(Self::bucket_lo(b));
            }
        }
        Some(f64::INFINITY)
    }

    /// Minimum finite sample, if any.
    pub fn min(&self) -> Option<f64> {
        (self.min.is_finite()).then_some(self.min)
    }

    /// Maximum finite sample, if any.
    pub fn max(&self) -> Option<f64> {
        (self.max.is_finite()).then_some(self.max)
    }
}

/// The recorder state: series and histograms keyed `(name, key, context)`
/// so the export iterates in sorted order.
#[derive(Default)]
struct State {
    series: BTreeMap<(&'static str, u64, u64), Series>,
    hists: BTreeMap<(&'static str, u64, u64), LogHistogram>,
}

fn state() -> &'static Mutex<State> {
    static STATE: OnceLock<Mutex<State>> = OnceLock::new();
    STATE.get_or_init(|| Mutex::new(State::default()))
}

fn with_state<R>(f: impl FnOnce(&mut State) -> R) -> R {
    // Poisoning cannot corrupt the aggregates; recover rather than propagate.
    let mut guard = state().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Discard all recorded series and histograms (the enabled flag is kept).
pub fn reset() {
    with_state(|s| {
        s.series.clear();
        s.hists.clear();
    });
}

/// Record `value` at simulation time `t_s` into the series `(name, key)`
/// under the current trace context. `window_s` fixes the series' window
/// width on first touch (later calls reuse it). No-op when disabled.
#[inline]
pub fn sample(name: &'static str, key: u64, window_s: f64, t_s: f64, value: f64) {
    if !enabled() {
        return;
    }
    sample_always(name, key, window_s, t_s, value);
}

fn sample_always(name: &'static str, key: u64, window_s: f64, t_s: f64, value: f64) {
    let ctx = crate::trace::current_context();
    with_state(|s| {
        let series = s.series.entry((name, key, ctx)).or_insert_with(|| Series {
            window_s: if window_s > 0.0 { window_s } else { 0.0 },
            windows: BTreeMap::new(),
            dropped: 0,
        });
        let w = if series.window_s > 0.0 && t_s > 0.0 {
            (t_s / series.window_s) as u64
        } else {
            0
        };
        if let Some(agg) = series.windows.get_mut(&w) {
            agg.count += 1;
            agg.sum += value;
            agg.min = agg.min.min(value);
            agg.max = agg.max.max(value);
            agg.last = value;
        } else if series.windows.len() < MAX_WINDOWS {
            series.windows.insert(
                w,
                Agg {
                    count: 1,
                    sum: value,
                    min: value,
                    max: value,
                    last: value,
                },
            );
        } else {
            series.dropped += 1;
        }
    });
}

/// Record `value` into the log-bucketed histogram `(name, key)` under the
/// current trace context. No-op when disabled.
#[inline]
pub fn observe(name: &'static str, key: u64, value: f64) {
    if !enabled() {
        return;
    }
    observe_always(name, key, value);
}

fn observe_always(name: &'static str, key: u64, value: f64) {
    let ctx = crate::trace::current_context();
    with_state(|s| {
        s.hists
            .entry((name, key, ctx))
            .or_insert_with(LogHistogram::new)
            .observe(value);
    });
}

/// Total windows currently buffered across all series.
pub fn buffered_windows() -> u64 {
    with_state(|s| s.series.values().map(|x| x.windows.len() as u64).sum())
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) => crate::json::write_f64(out, x),
        None => out.push_str("null"),
    }
}

/// Export everything as JSONL, sorted by `(name, key, ctx)`. Three line
/// kinds (`series` header, `win` per window, `hist` per histogram), each
/// carrying its full identity so lines filter and diff independently:
///
/// ```json
/// {"kind": "series", "name": "...", "key": 0, "ctx": 1, "window_s": 0.001, "windows": 4, "dropped": 0}
/// {"kind": "win", "name": "...", "key": 0, "ctx": 1, "w": 17, "t_s": 0.017, "count": 3, "mean": 1.5, "min": 1.0, "max": 2.0, "last": 2.0}
/// {"kind": "hist", "name": "...", "key": 0, "ctx": 1, "count": 9, "zero": 0, "non_finite": 0, "min": ..., "max": ..., "p50": ..., "p90": ..., "p99": ..., "p999": ...}
/// ```
pub fn export_jsonl() -> String {
    use std::fmt::Write as _;
    with_state(|s| {
        let mut out = String::new();
        for (&(name, key, ctx), series) in &s.series {
            let _ = write!(out, "{{\"kind\": \"series\", \"name\": ");
            crate::json::write_str(&mut out, name);
            let _ = write!(out, ", \"key\": {key}, \"ctx\": {ctx}, \"window_s\": ");
            crate::json::write_f64(&mut out, series.window_s);
            let _ = writeln!(
                out,
                ", \"windows\": {}, \"dropped\": {}}}",
                series.windows.len(),
                series.dropped
            );
            for (&w, agg) in &series.windows {
                let _ = write!(out, "{{\"kind\": \"win\", \"name\": ");
                crate::json::write_str(&mut out, name);
                let _ = write!(
                    out,
                    ", \"key\": {key}, \"ctx\": {ctx}, \"w\": {w}, \"t_s\": "
                );
                crate::json::write_f64(&mut out, w as f64 * series.window_s);
                let _ = write!(out, ", \"count\": {}, \"mean\": ", agg.count);
                crate::json::write_f64(&mut out, agg.sum / agg.count as f64);
                out.push_str(", \"min\": ");
                crate::json::write_f64(&mut out, agg.min);
                out.push_str(", \"max\": ");
                crate::json::write_f64(&mut out, agg.max);
                out.push_str(", \"last\": ");
                crate::json::write_f64(&mut out, agg.last);
                out.push_str("}\n");
            }
        }
        for (&(name, key, ctx), h) in &s.hists {
            let _ = write!(out, "{{\"kind\": \"hist\", \"name\": ");
            crate::json::write_str(&mut out, name);
            let _ = write!(
                out,
                ", \"key\": {key}, \"ctx\": {ctx}, \"count\": {}, \"zero\": {}, \"non_finite\": {}",
                h.count(),
                h.zero,
                h.non_finite
            );
            out.push_str(", \"min\": ");
            push_opt_f64(&mut out, h.min());
            out.push_str(", \"max\": ");
            push_opt_f64(&mut out, h.max());
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)] {
                let _ = write!(out, ", \"{label}\": ");
                push_opt_f64(&mut out, h.quantile(q));
            }
            out.push_str("}\n");
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Recorder state is process-global; tests that toggle it must not
    /// interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_sampling_is_a_no_op() {
        let _g = serial();
        disable();
        reset();
        sample("test.ts_noop", 0, 1.0, 0.5, 1.0);
        observe("test.ts_noop", 0, 1.0);
        assert_eq!(buffered_windows(), 0);
        assert!(export_jsonl().is_empty());
    }

    #[test]
    fn windows_aggregate_count_sum_min_max_last() {
        let _g = serial();
        reset();
        enable();
        // Window width 1 s: t = 0.1, 0.7 land in window 0; t = 1.2 in 1.
        sample("test.ts_a", 3, 1.0, 0.1, 10.0);
        sample("test.ts_a", 3, 1.0, 0.7, 2.0);
        sample("test.ts_a", 3, 1.0, 1.2, 5.0);
        disable();
        let out = export_jsonl();
        assert!(
            out.contains(
                "{\"kind\": \"win\", \"name\": \"test.ts_a\", \"key\": 3, \"ctx\": 0, \
                 \"w\": 0, \"t_s\": 0.0, \"count\": 2, \"mean\": 6.0, \"min\": 2.0, \
                 \"max\": 10.0, \"last\": 2.0}"
            ),
            "{out}"
        );
        assert!(
            out.contains("\"w\": 1, \"t_s\": 1.0, \"count\": 1"),
            "{out}"
        );
        assert!(
            out.contains("\"kind\": \"series\", \"name\": \"test.ts_a\""),
            "{out}"
        );
        reset();
    }

    #[test]
    fn log_histogram_buckets_are_monotone_and_tight() {
        // Positive-float bit order equals numeric order, so bucket ids are
        // monotone; sub-buckets split each octave linearly into 32, so the
        // widest bucket (at an octave's bottom edge) spans 1/32 = 3.125% of
        // its lower bound.
        let mut prev = 0u16;
        for i in 1..400 {
            let v = (i as f64) * 0.37;
            let b = LogHistogram::bucket_of(v);
            assert!(b >= prev, "buckets monotone in value");
            prev = b;
            let lo = LogHistogram::bucket_lo(b);
            let hi = LogHistogram::bucket_lo(b + 1);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            assert!(
                hi / lo <= 1.0 + 1.0 / 32.0,
                "bucket wider than 1/32: {lo}..{hi}"
            );
        }
    }

    #[test]
    fn log_histogram_quantiles_approximate_exact_ranks() {
        let mut h = LogHistogram::new();
        for i in 1..=1000u64 {
            h.observe(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.03, "p50 = {p50}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.03, "p99 = {p99}");
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(1000.0));
        // q = 0 is the minimum's bucket; q = 1 the maximum's.
        assert!(h.quantile(0.0).unwrap() <= 1.0);
        assert!(h.quantile(1.0).unwrap() <= 1000.0);
    }

    #[test]
    fn log_histogram_zero_and_non_finite_are_separated() {
        let mut h = LogHistogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        h.observe(f64::INFINITY);
        h.observe(4.0);
        assert_eq!(h.count(), 5);
        assert_eq!(h.quantile(0.0), Some(0.0), "zero bucket ranks first");
        assert_eq!(
            h.quantile(1.0),
            Some(f64::INFINITY),
            "non-finite ranks last"
        );
        assert!(LogHistogram::new().quantile(0.5).is_none());
    }

    #[test]
    fn log_histogram_merge_sums_everything() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in [1.0, 2.0, 0.0] {
            a.observe(v);
        }
        for v in [2.0, 400.0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.max(), Some(400.0));
        assert_eq!(
            a.quantile(1.0),
            Some(LogHistogram::bucket_lo(LogHistogram::bucket_of(400.0)))
        );
    }

    #[test]
    fn window_cap_drops_new_windows_and_counts() {
        let _g = serial();
        reset();
        enable();
        for i in 0..(MAX_WINDOWS as u64 + 5) {
            sample("test.ts_cap", 0, 1.0, i as f64 + 0.5, 1.0);
        }
        disable();
        let out = export_jsonl();
        assert!(
            out.contains(&format!("\"windows\": {MAX_WINDOWS}, \"dropped\": 5")),
            "{out}"
        );
        reset();
    }

    #[test]
    fn export_lines_sorted_and_ctx_tagged() {
        let _g = serial();
        reset();
        enable();
        crate::trace::with_context(2, || sample("test.ts_b", 0, 1.0, 0.0, 1.0));
        sample("test.ts_b", 0, 1.0, 0.0, 1.0);
        observe("test.ts_hist", 1, 2.5);
        disable();
        let out = export_jsonl();
        let ctx0 = out.find("\"ctx\": 0").unwrap();
        let ctx2 = out.find("\"ctx\": 2").unwrap();
        assert!(ctx0 < ctx2, "sorted by (name, key, ctx):\n{out}");
        assert!(
            out.contains("\"kind\": \"hist\", \"name\": \"test.ts_hist\", \"key\": 1"),
            "{out}"
        );
        reset();
    }
}
