//! Named counters, gauges and fixed-bucket histograms.
//!
//! The registry is process-global and off by default: every recording call
//! first checks a relaxed [`AtomicBool`], so disabled instrumentation costs
//! one load and a branch. When enabled, updates take a single global mutex —
//! acceptable because metrics-enabled runs are diagnostic, not benchmarked.
//!
//! Counter totals are commutative sums and therefore independent of thread
//! interleaving; the JSON snapshot sorts every section by name (`BTreeMap`),
//! so a metrics file is byte-identical across `SIM_THREADS` settings.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Is metrics collection enabled? One relaxed load; inlined at call sites so
/// the disabled path is branch-predictable and lock-free.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn metrics collection on.
pub fn enable() {
    ENABLED.store(true, Ordering::Relaxed);
}

/// Turn metrics collection off (recordings become no-ops again).
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// A fixed-bucket histogram: `counts[i]` counts observations `v` with
/// `bounds[i-1] < v <= bounds[i]` (first bucket: `v <= bounds[0]`); the
/// final slot counts overflow (`v > bounds.last()`) and non-finite values.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Upper bucket bounds, strictly increasing; values equal to a bound
    /// fall in that bound's bucket (upper-inclusive, Prometheus-style).
    pub bounds: Vec<f64>,
    /// Per-bucket counts; `counts.len() == bounds.len() + 1`.
    pub counts: Vec<u64>,
}

impl Histogram {
    fn new(bounds: &[f64]) -> Self {
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    /// The bucket index `value` falls into (upper-inclusive bounds; the last
    /// index is the overflow bucket, which also absorbs NaN).
    pub fn bucket_index(bounds: &[f64], value: f64) -> usize {
        bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(bounds.len())
    }

    fn observe(&mut self, value: f64) {
        let i = Self::bucket_index(&self.bounds, value);
        self.counts[i] += 1;
    }

    /// Total observations across all buckets.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fold `other`'s counts into `self`. Merging is only meaningful when
    /// both histograms share the exact same bucket bounds (compared by bit
    /// pattern — merging across rounding-different bounds would silently
    /// misattribute counts); otherwise an error naming the mismatch is
    /// returned and `self` is left untouched.
    pub fn merge(&mut self, other: &Histogram) -> Result<(), String> {
        let same_bounds = self.bounds.len() == other.bounds.len()
            && self
                .bounds
                .iter()
                .zip(&other.bounds)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same_bounds {
            return Err(format!(
                "histogram bounds mismatch: {:?} vs {:?}",
                self.bounds, other.bounds
            ));
        }
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        Ok(())
    }
}

/// The metric store behind the global registry: name-sorted maps so the
/// snapshot is deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Registry::default()))
}

fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
    // Poisoning cannot corrupt a counter map; recover rather than propagate.
    let mut guard = registry().lock().unwrap_or_else(PoisonError::into_inner);
    f(&mut guard)
}

/// Add `delta` to the named counter (registered on first use). No-op when
/// metrics are disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name).or_insert(0) += delta);
}

/// Increment the named counter by one. No-op when metrics are disabled.
#[inline]
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Set the named gauge (last write wins; call only from deterministic
/// serial or per-context code). No-op when metrics are disabled.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name, value);
    });
}

/// Record `value` into the named fixed-bucket histogram. The bucket bounds
/// are fixed by the first observation; later calls reuse the registered
/// bounds. No-op when metrics are disabled.
#[inline]
pub fn histogram_observe(name: &'static str, bounds: &'static [f64], value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms
            .entry(name)
            .or_insert_with(|| Histogram::new(bounds))
            .observe(value);
    });
}

/// Read a counter's current value (0 if never touched). Works regardless of
/// the enabled flag — used by tests and the figure binaries' summaries.
pub fn counter_value(name: &str) -> u64 {
    with_registry(|r| r.counters.get(name).copied().unwrap_or(0))
}

/// Clear all registered metrics (the enabled flag is left untouched).
pub fn reset() {
    with_registry(|r| {
        r.counters.clear();
        r.gauges.clear();
        r.histograms.clear();
    });
}

/// Render the registry as a deterministic JSON document: three name-sorted
/// sections (`counters`, `gauges`, `histograms`), 2-space indentation.
pub fn snapshot_json() -> String {
    with_registry(|r| {
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let mut first = true;
        for (name, v) in &r.counters {
            push_key(&mut out, &mut first, name);
            out.push_str(&v.to_string());
        }
        close_section(&mut out, first);
        out.push_str(",\n  \"gauges\": {");
        first = true;
        for (name, v) in &r.gauges {
            push_key(&mut out, &mut first, name);
            crate::json::write_f64(&mut out, *v);
        }
        close_section(&mut out, first);
        out.push_str(",\n  \"histograms\": {");
        first = true;
        for (name, h) in &r.histograms {
            push_key(&mut out, &mut first, name);
            out.push_str("{\"bounds\": [");
            for (i, b) in h.bounds.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                crate::json::write_f64(&mut out, *b);
            }
            out.push_str("], \"counts\": [");
            for (i, c) in h.counts.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                out.push_str(&c.to_string());
            }
            out.push_str("], \"total\": ");
            out.push_str(&h.total().to_string());
            out.push('}');
        }
        close_section(&mut out, first);
        out.push_str("\n}\n");
        out
    })
}

fn push_key(out: &mut String, first: &mut bool, name: &str) {
    if !*first {
        out.push(',');
    }
    *first = false;
    out.push_str("\n    ");
    crate::json::write_str(out, name);
    out.push_str(": ");
}

fn close_section(out: &mut String, was_empty: bool) {
    if was_empty {
        out.push('}');
    } else {
        out.push_str("\n  }");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// Metrics state is process-global; tests that toggle it must not
    /// interleave.
    fn serial() -> MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn disabled_recording_is_a_no_op() {
        let _g = serial();
        disable();
        reset();
        counter_inc("test.noop");
        gauge_set("test.noop_gauge", 1.0);
        assert_eq!(counter_value("test.noop"), 0);
        assert!(!snapshot_json().contains("test.noop"));
    }

    #[test]
    fn counters_accumulate_and_snapshot_sorts() {
        let _g = serial();
        reset();
        enable();
        counter_add("test.b", 2);
        counter_inc("test.a");
        counter_inc("test.b");
        gauge_set("test.g", 0.5);
        disable();
        assert_eq!(counter_value("test.a"), 1);
        assert_eq!(counter_value("test.b"), 3);
        let snap = snapshot_json();
        let a = snap.find("test.a").unwrap();
        let b = snap.find("test.b").unwrap();
        assert!(a < b, "sorted by name:\n{snap}");
        assert!(snap.contains("\"test.g\": 0.5"), "{snap}");
        reset();
    }

    #[test]
    fn histogram_bucket_boundaries_are_upper_inclusive() {
        // Satellite: bucket boundary assignment. Bounds [1, 10, 100]:
        //   bucket 0: v <= 1, bucket 1: 1 < v <= 10, bucket 2: 10 < v <= 100,
        //   bucket 3 (overflow): v > 100 and non-finite.
        const B: &[f64] = &[1.0, 10.0, 100.0];
        assert_eq!(Histogram::bucket_index(B, -5.0), 0);
        assert_eq!(Histogram::bucket_index(B, 1.0), 0, "boundary is inclusive");
        assert_eq!(Histogram::bucket_index(B, 1.0 + 1e-12), 1);
        assert_eq!(Histogram::bucket_index(B, 10.0), 1);
        assert_eq!(Histogram::bucket_index(B, 100.0), 2);
        assert_eq!(Histogram::bucket_index(B, 100.1), 3);
        assert_eq!(Histogram::bucket_index(B, f64::INFINITY), 3);
        assert_eq!(Histogram::bucket_index(B, f64::NAN), 3, "NaN -> overflow");
        assert_eq!(
            Histogram::bucket_index(&[], 7.0),
            0,
            "no bounds: overflow only"
        );
    }

    #[test]
    fn histogram_observe_counts_and_total() {
        let _g = serial();
        reset();
        enable();
        const B: &[f64] = &[1.0, 2.0];
        for v in [0.5, 1.0, 1.5, 2.0, 3.0] {
            histogram_observe("test.h", B, v);
        }
        disable();
        let snap = snapshot_json();
        assert!(
            snap.contains("\"bounds\": [1.0, 2.0], \"counts\": [2, 2, 1], \"total\": 5"),
            "{snap}"
        );
        reset();
    }

    #[test]
    fn histogram_merge_sums_counts_bucketwise() {
        const B: &[f64] = &[1.0, 2.0];
        let mut a = Histogram::new(B);
        let mut b = Histogram::new(B);
        a.observe(0.5);
        a.observe(1.5);
        b.observe(1.5);
        b.observe(3.0);
        a.merge(&b).unwrap();
        assert_eq!(a.counts, vec![1, 2, 1]);
        assert_eq!(a.total(), 4);
        // The merged-from histogram is unchanged.
        assert_eq!(b.total(), 2);
    }

    #[test]
    fn histogram_merge_rejects_mismatched_bounds() {
        let mut a = Histogram::new(&[1.0, 2.0]);
        a.observe(0.5);
        // Different length.
        let b = Histogram::new(&[1.0]);
        assert!(a.merge(&b).is_err());
        // Same length, bit-different bound.
        let c = Histogram::new(&[1.0, 2.0 + 1e-12]);
        let err = a.merge(&c).unwrap_err();
        assert!(err.contains("bounds mismatch"), "{err}");
        // A failed merge leaves the target untouched.
        assert_eq!(a.counts, vec![1, 0, 0]);
    }

    #[test]
    fn empty_snapshot_is_valid_shape() {
        let _g = serial();
        reset();
        let snap = snapshot_json();
        assert_eq!(
            snap,
            "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {}\n}\n"
        );
    }
}
