//! The congestion-control interface between the engine and the protocols.
//!
//! The engine owns pacing and packetization; a [`CongestionControl`]
//! implementation owns the rate. The engine feeds it events (CNP arrival,
//! RTT completion sample, transmitted bytes, its own timers) and applies the
//! returned rate and timer requests. This is exactly the division of labour
//! in RoCEv2 NICs: the rate limiter is hardware, the update rules are the
//! protocol.
//!
//! A [`CongestionControl`] must depend only on its own state and arguments:
//! the engine delivers a flow's events in order, each with its own `now`,
//! but a timer firing when the flow is next touched — after other flows'
//! later events.

use desim::{SimDuration, SimTime};

/// Events delivered to a congestion-control instance.
#[derive(Debug, Clone, Copy)]
pub enum CcEvent {
    /// A CNP arrived (DCQCN's congestion signal).
    Cnp,
    /// A chunk-completion RTT sample (TIMELY's congestion signal).
    RttSample {
        /// The measured round-trip time.
        rtt: SimDuration,
    },
    /// The sender transmitted `bytes` more payload bytes (drives DCQCN's
    /// byte counter).
    SentBytes {
        /// Newly transmitted payload bytes.
        bytes: u64,
    },
    /// A timer previously requested via [`CcUpdate::with_timer`] fired.
    Timer {
        /// The protocol-defined timer kind that fired.
        kind: u8,
    },
}

/// The protocol's response to an event.
///
/// Plain data with no heap part: the engine gets one of these back from
/// every CNP, ACK, byte-counter step and timer firing, so building and
/// dropping it must not touch the allocator.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcUpdate {
    /// New sending rate in bits/second, if changed.
    pub new_rate_bps: Option<f64>,
    timers: [(u8, SimTime); CcUpdate::MAX_TIMERS],
    timer_count: u8,
}

impl CcUpdate {
    /// Timer capacity: the timer requests one update can carry, and the
    /// timer kinds a protocol can use (`0..MAX_TIMERS`; the engine keeps one
    /// clock per flow and kind). DCQCN, the only protocol with
    /// timers, has two: the α-timer and the rate-increase timer.
    pub const MAX_TIMERS: usize = 2;

    /// No action.
    pub fn none() -> Self {
        CcUpdate::default()
    }

    /// Set the rate only.
    pub fn rate(bps: f64) -> Self {
        CcUpdate {
            new_rate_bps: Some(bps),
            ..CcUpdate::default()
        }
    }

    /// Add a timer request. Panics on a kind outside `0..MAX_TIMERS` or a
    /// request beyond the capacity — both are bugs in the protocol.
    pub fn with_timer(mut self, kind: u8, at: SimTime) -> Self {
        let n = self.timer_count as usize;
        assert!(
            n < Self::MAX_TIMERS && (kind as usize) < Self::MAX_TIMERS,
            "CcUpdate holds at most {0} timers of kinds 0..{0}: no room for kind {kind} after {n}",
            Self::MAX_TIMERS,
        );
        self.timers[n] = (kind, at);
        self.timer_count += 1;
        self
    }

    /// Timers to (re)arm: `(kind, fire_at)`, in request order. Re-arming a
    /// kind replaces any pending timer of that kind.
    pub fn timers(&self) -> &[(u8, SimTime)] {
        &self.timers[..self.timer_count as usize]
    }
}

/// A rate-based congestion-control algorithm.
pub trait CongestionControl: std::fmt::Debug {
    /// Called once when the flow starts; returns the initial rate (bps) and
    /// any initial timers.
    fn on_start(&mut self, now: SimTime, line_rate_bps: f64) -> CcUpdate;

    /// Handle an event.
    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate;

    /// Current rate in bits/second (for tracing).
    fn current_rate_bps(&self) -> f64;

    /// Apply a mid-run fault-plane parameter perturbation: multiply the
    /// targeted knob by `scale`. The default ignores the request, so
    /// controllers without the targeted parameter are unaffected (e.g.
    /// TIMELY has no `R_AI`). Protocols opt in per [`faults::ParamTarget`].
    fn perturb(&mut self, _target: faults::ParamTarget, _scale: f64) {}
}

/// A fixed-rate sender (no congestion control) — the baseline for tests and
/// for exercising raw queue dynamics.
#[derive(Debug, Clone)]
pub struct FixedRate {
    /// The constant rate in bits/second.
    pub rate_bps: f64,
}

impl CongestionControl for FixedRate {
    fn on_start(&mut self, _now: SimTime, _line_rate_bps: f64) -> CcUpdate {
        CcUpdate::rate(self.rate_bps)
    }

    fn on_event(&mut self, _now: SimTime, _event: CcEvent) -> CcUpdate {
        CcUpdate::none()
    }

    fn current_rate_bps(&self) -> f64 {
        self.rate_bps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine passes updates by value on every event; a heap part would
    /// put the allocator back on that path.
    const _: () = {
        const fn assert_copy<T: Copy>() {}
        assert_copy::<CcUpdate>()
    };

    #[test]
    fn fixed_rate_never_reacts() {
        let mut cc = FixedRate { rate_bps: 5e9 };
        let up = cc.on_start(SimTime::ZERO, 10e9);
        assert_eq!(up.new_rate_bps, Some(5e9));
        let up = cc.on_event(SimTime::ZERO, CcEvent::Cnp);
        assert!(up.new_rate_bps.is_none() && up.timers().is_empty());
        assert_eq!(cc.current_rate_bps(), 5e9);
    }

    #[test]
    fn update_builder() {
        let up = CcUpdate::rate(1e9).with_timer(1, SimTime::from_micros(55));
        assert_eq!(up.new_rate_bps, Some(1e9));
        assert_eq!(up.timers(), [(1, SimTime::from_micros(55))]);
    }

    #[test]
    #[should_panic(expected = "CcUpdate holds at most 2 timers")]
    fn third_timer_on_one_update_panics() {
        let at = SimTime::from_micros(55);
        let _ = CcUpdate::none()
            .with_timer(0, at)
            .with_timer(1, at)
            .with_timer(0, at);
    }

    #[test]
    #[should_panic(expected = "of kinds 0..2")]
    fn timer_kind_beyond_capacity_panics() {
        let _ = CcUpdate::none().with_timer(2, SimTime::ZERO);
    }
}
