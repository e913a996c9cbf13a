//! Deterministic windowed time-series and streaming log-bucketed histograms.
//!
//! The trajectory layer of the telemetry model (DESIGN.md §8.4): where
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
//!   `SUB_BITS` mantissa bits), pure integer math, ≤3.1 % relative bucket
//!   width. Quantiles cost O(buckets) regardless of sample count, which is
//!   what makes FCT percentiles affordable at 1024-flow incast scale.
//!
//! ## Determinism contract
//!
//! Everything is keyed by `(name, key, context)` where the context is the
//! crate's per-job recording context ([`crate::current_context`]), so the
//! JSONL export is sorted, windowed in simulation time only, and
//! byte-identical across `SIM_THREADS` settings. Bucket assignment is
//! bit-exact integer arithmetic — no `log2` calls whose libm rounding could
//! differ.
//!
//! Off by default: a disabled sampling point costs one relaxed atomic load
//! and a branch.

use std::collections::BTreeMap;

/// Mantissa bits that subdivide each power-of-two bucket: 32 sub-buckets
/// per octave, ≤3.1 % relative width.
const SUB_BITS: u32 = 5;
/// Right-shift turning a positive finite `f64`'s bits into its bucket id.
const BUCKET_SHIFT: u32 = 52 - SUB_BITS;
/// Windows retained per series before new *windows* (not samples into
/// existing windows) are dropped and counted.
const MAX_WINDOWS: usize = 1 << 16;

/// Is time-series recording enabled? One relaxed load on the disabled path.
#[inline(always)]
pub fn enabled() -> bool {
    crate::on(crate::SERIES)
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
#[derive(Debug)]
struct LogHistogram {
    buckets: BTreeMap<u16, u64>,
    zero: u64,
    non_finite: u64,
    min: f64,
    max: f64,
}

impl LogHistogram {
    fn new() -> Self {
        LogHistogram {
            buckets: BTreeMap::new(),
            zero: 0,
            non_finite: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket id of a positive finite value: exponent plus the top
    /// mantissa bits, taken straight from the bit pattern.
    fn bucket_of(value: f64) -> u16 {
        (value.to_bits() >> BUCKET_SHIFT) as u16
    }

    /// The lower edge of a bucket (the smallest value mapping into it).
    fn bucket_lo(bucket: u16) -> f64 {
        f64::from_bits((bucket as u64) << BUCKET_SHIFT)
    }

    fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        if value > 0.0 {
            *self.buckets.entry(Self::bucket_of(value)).or_insert(0) += 1;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        } else {
            self.zero += 1;
            self.min = self.min.min(0.0);
            self.max = self.max.max(0.0);
        }
    }

    /// Total samples recorded, including zero and non-finite ones.
    fn count(&self) -> u64 {
        self.zero + self.non_finite + self.buckets.values().sum::<u64>()
    }

    /// The `q`-quantile (`q` in `[0, 1]`) by nearest-rank over the buckets,
    /// reporting a bucket's lower edge (≤3.1 % below the true value).
    /// Non-finite samples rank above every bucket; `None` only when the
    /// histogram is empty.
    fn quantile(&self, q: f64) -> Option<f64> {
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
    fn min(&self) -> Option<f64> {
        (self.min.is_finite()).then_some(self.min)
    }

    /// Maximum finite sample, if any.
    fn max(&self) -> Option<f64> {
        (self.max.is_finite()).then_some(self.max)
    }
}

/// `(name, key, ctx)`: the identity of a series or histogram.
type Key = (&'static str, u64, u64);

/// The series and histograms recorded so far, sorted by [`Key`] so the
/// export iterates in order. Part of the crate's one state.
pub(crate) struct Collector {
    series: BTreeMap<Key, Series>,
    hists: BTreeMap<Key, LogHistogram>,
}

impl Collector {
    pub(crate) const fn new() -> Self {
        Collector {
            series: BTreeMap::new(),
            hists: BTreeMap::new(),
        }
    }

    fn sample(&mut self, id: Key, window_s: f64, t_s: f64, value: f64) {
        let series = self.series.entry(id).or_insert_with(|| Series {
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
    }

    fn observe(&mut self, id: Key, value: f64) {
        self.hists
            .entry(id)
            .or_insert_with(LogHistogram::new)
            .observe(value);
    }

    fn export_jsonl(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (&(name, key, ctx), series) in &self.series {
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
        for (&(name, key, ctx), h) in &self.hists {
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
    }
}

fn push_opt_f64(out: &mut String, v: Option<f64>) {
    match v {
        Some(x) => crate::json::write_f64(out, x),
        None => out.push_str("null"),
    }
}

/// Record `value` at simulation time `t_s` into the series `(name, key)`
/// under the current context. `window_s` fixes the series' window width on
/// first touch (later calls reuse it). No-op when disabled.
#[inline]
pub fn sample(name: &'static str, key: u64, window_s: f64, t_s: f64, value: f64) {
    if !enabled() {
        return;
    }
    sample_always(name, key, window_s, t_s, value);
}

fn sample_always(name: &'static str, key: u64, window_s: f64, t_s: f64, value: f64) {
    let id = (name, key, crate::current_context());
    crate::with_state(|s| s.series.sample(id, window_s, t_s, value));
}

/// Record `value` into the log-bucketed histogram `(name, key)` under the
/// current context. No-op when disabled.
#[inline]
pub fn observe(name: &'static str, key: u64, value: f64) {
    if !enabled() {
        return;
    }
    observe_always(name, key, value);
}

fn observe_always(name: &'static str, key: u64, value: f64) {
    let id = (name, key, crate::current_context());
    crate::with_state(|s| s.series.observe(id, value));
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
    crate::with_state(|s| s.series.export_jsonl())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_count_sum_min_max_last() {
        let mut c = Collector::new();
        // Window width 1 s: t = 0.1, 0.7 land in window 0; t = 1.2 in 1.
        c.sample(("test.ts_a", 3, 0), 1.0, 0.1, 10.0);
        c.sample(("test.ts_a", 3, 0), 1.0, 0.7, 2.0);
        c.sample(("test.ts_a", 3, 0), 1.0, 1.2, 5.0);
        let out = c.export_jsonl();
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
    fn window_cap_drops_new_windows_and_counts() {
        let mut c = Collector::new();
        for i in 0..(MAX_WINDOWS as u64 + 5) {
            c.sample(("test.ts_cap", 0, 0), 1.0, i as f64 + 0.5, 1.0);
        }
        let out = c.export_jsonl();
        assert!(
            out.contains(&format!("\"windows\": {MAX_WINDOWS}, \"dropped\": 5")),
            "{out}"
        );
    }

    #[test]
    fn export_lines_sorted_and_ctx_tagged() {
        let mut c = Collector::new();
        c.sample(("test.ts_b", 0, 2), 1.0, 0.0, 1.0);
        c.sample(("test.ts_b", 0, 0), 1.0, 0.0, 1.0);
        c.observe(("test.ts_hist", 1, 0), 2.5);
        let out = c.export_jsonl();
        let ctx0 = out.find("\"ctx\": 0").unwrap();
        let ctx2 = out.find("\"ctx\": 2").unwrap();
        assert!(ctx0 < ctx2, "sorted by (name, key, ctx):\n{out}");
        assert!(
            out.contains("\"kind\": \"hist\", \"name\": \"test.ts_hist\", \"key\": 1"),
            "{out}"
        );
    }
}
