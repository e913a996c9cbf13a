//! Named counters.
//!
//! Off by default: every recording call first tests the [`crate::METRICS`]
//! bit, so disabled instrumentation costs one load and a branch. When
//! enabled, an update takes the crate's one state mutex.
//!
//! Counter totals are commutative sums and therefore independent of thread
//! interleaving; the JSON snapshot sorts by name (`BTreeMap`), so a metrics
//! file is byte-identical across `SIM_THREADS` settings.

use std::collections::BTreeMap;

/// Is metrics collection enabled? One relaxed load; inlined at call sites so
/// the disabled path is branch-predictable and lock-free.
#[inline(always)]
pub fn enabled() -> bool {
    crate::on(crate::METRICS)
}

/// `obs::enable(obs::METRICS)`, kept for `benchmark/`.
pub fn enable() {
    crate::enable(crate::METRICS);
}

/// `obs::disable(obs::METRICS)`, kept for `benchmark/`.
pub fn disable() {
    crate::disable(crate::METRICS);
}

/// Clear every counter (nothing else), kept for `benchmark/`.
pub fn reset() {
    crate::with_state(|s| s.counters.clear());
}

/// Add `delta` to the named counter (registered on first use). No-op when
/// metrics are disabled.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() {
        return;
    }
    crate::with_state(|s| *s.counters.entry(name).or_insert(0) += delta);
}

/// Increment the named counter by one. No-op when metrics are disabled.
#[inline]
pub fn counter_inc(name: &'static str) {
    counter_add(name, 1);
}

/// Read a counter's current value (0 if never touched). Works regardless of
/// the enabled flag — used by tests and the figure binaries' summaries.
pub fn counter_value(name: &str) -> u64 {
    crate::with_state(|s| s.counters.get(name).copied().unwrap_or(0))
}

/// Render the counters as a deterministic JSON document, name-sorted,
/// 2-space indentation: `{"counters": {"a.b": 3, …}}`.
pub fn snapshot_json() -> String {
    crate::with_state(|s| render(&s.counters))
}

fn render(counters: &BTreeMap<&'static str, u64>) -> String {
    let mut out = String::from("{\n  \"counters\": {");
    for (i, (name, v)) in counters.iter().enumerate() {
        out.push_str(if i == 0 { "\n    " } else { ",\n    " });
        crate::json::write_str(&mut out, name);
        out.push_str(": ");
        out.push_str(&v.to_string());
    }
    out.push_str(if counters.is_empty() { "}" } else { "\n  }" });
    out.push_str("\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_sorts_by_name() {
        let counters = BTreeMap::from([("test.b", 3), ("test.a", 1)]);
        assert_eq!(
            render(&counters),
            "{\n  \"counters\": {\n    \"test.a\": 1,\n    \"test.b\": 3\n  }\n}\n"
        );
    }

    #[test]
    fn empty_snapshot_is_valid_shape() {
        assert_eq!(render(&BTreeMap::new()), "{\n  \"counters\": {}\n}\n");
    }

    #[test]
    fn counters_accumulate() {
        let _g = crate::test_lock();
        reset();
        enable();
        counter_add("test.b", 2);
        counter_inc("test.b");
        disable();
        counter_inc("test.b");
        assert_eq!(counter_value("test.b"), 3);
        reset();
        assert_eq!(counter_value("test.b"), 0);
    }
}
