//! Debug-assertion invariant layer.
//!
//! The static checks (`clippy.toml`, simlint in crates/xtask) keep
//! nondeterminism and silent unit errors out of the source; this module is its runtime complement — a
//! set of `debug_assert!`-based checks that pin the dynamic invariants the
//! simulators rely on:
//!
//! * event time never flows backwards ([`monotonic_time`]),
//! * queues stay non-negative and bounded ([`bounded_queue`]),
//! * rates stay finite and non-negative ([`finite_rate`]),
//! * fluid state vectors stay finite ([`finite_state`]),
//! * DCQCN's `α` stays in `[0, 1]` ([`unit_interval`]).
//!
//! All checks compile to nothing in release builds, so they cost nothing in
//! experiment runs while making `cargo test` (which builds with
//! `debug-assertions` on) a continuous audit of the simulator state.

use crate::time::SimTime;

/// Event/timestamp monotonicity: `next` must not precede `prev`.
#[inline]
pub fn monotonic_time(context: &str, prev: SimTime, next: SimTime) {
    debug_assert!(
        next >= prev,
        "{context}: time ran backwards ({next:?} < {prev:?})"
    );
}

/// A queue occupancy must be non-negative, finite, and below `cap` (use
/// `f64::INFINITY` for an unbounded queue).
#[inline]
pub fn bounded_queue(context: &str, occupancy: f64, cap: f64) {
    debug_assert!(
        occupancy >= 0.0 && occupancy.is_finite(),
        "{context}: queue occupancy {occupancy} is negative or non-finite"
    );
    debug_assert!(
        occupancy <= cap,
        "{context}: queue occupancy {occupancy} exceeds bound {cap}"
    );
}

/// A rate (bps, pps, …) must be finite and non-negative. `value` takes no
/// unit suffix: finiteness holds in any unit.
#[inline]
pub fn finite_rate(context: &str, value: f64) {
    debug_assert!(
        value.is_finite() && value >= 0.0,
        "{context}: rate {value} is negative or non-finite"
    );
}

/// Every component of a state vector must be finite (no NaN/±inf): a DDE
/// integration that diverges should fail loudly, not produce a quietly
/// garbage trace.
#[inline]
pub fn finite_state(context: &str, t: f64, x: &[f64]) {
    debug_assert!(
        x.iter().all(|v| v.is_finite()),
        "{context}: non-finite state at t={t}: {x:?}"
    );
}

/// A value specified to live in `[0, 1]` (probabilities, DCQCN's `α`).
#[inline]
pub fn unit_interval(context: &str, v: f64) {
    debug_assert!(
        (0.0..=1.0).contains(&v),
        "{context}: value {v} outside [0, 1]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_checks_are_silent() {
        monotonic_time("t", SimTime::from_nanos(1), SimTime::from_nanos(1));
        monotonic_time("t", SimTime::from_nanos(1), SimTime::from_nanos(2));
        bounded_queue("q", 0.0, f64::INFINITY);
        bounded_queue("q", 10.0, 10.0);
        finite_rate("r", 0.0);
        finite_rate("r", 40e9);
        finite_state("x", 0.0, &[1.0, -2.0, 0.0]);
        unit_interval("a", 0.0);
        unit_interval("a", 1.0);
    }

    #[test]
    #[should_panic(expected = "time ran backwards")]
    fn backwards_time_panics_in_debug() {
        monotonic_time("t", SimTime::from_nanos(2), SimTime::from_nanos(1));
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn alpha_above_one_panics_in_debug() {
        unit_interval("alpha", 1.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "non-finite state")]
    fn nan_state_panics_in_debug() {
        finite_state("x", 0.5, &[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "exceeds bound")]
    fn overflowing_queue_panics_in_debug() {
        bounded_queue("q", 11.0, 10.0);
    }

    #[test]
    #[should_panic(expected = "negative or non-finite")]
    fn infinite_rate_panics_in_debug() {
        finite_rate("r", f64::INFINITY);
    }
}
