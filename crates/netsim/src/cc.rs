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
//! later events — and all of a flow's firings due by then in one
//! [`CongestionControl::fire_timers`] call.

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
    #[inline]
    pub fn none() -> Self {
        CcUpdate::default()
    }

    /// Set the rate only.
    #[inline]
    pub fn rate(bps: f64) -> Self {
        CcUpdate {
            new_rate_bps: Some(bps),
            ..CcUpdate::default()
        }
    }

    /// Add a timer request. Panics on a kind outside `0..MAX_TIMERS` or a
    /// request beyond the capacity — both are bugs in the protocol.
    #[inline]
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
    #[inline]
    pub fn timers(&self) -> &[(u8, SimTime)] {
        &self.timers[..self.timer_count as usize]
    }
}

/// One timer kind's clock: its next firing and that firing's place among
/// firings due at the same instant. The engine keeps one per flow and kind
/// and hands a flow's set to [`CongestionControl::fire_timers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerClock {
    /// The next firing; [`SimTime::MAX`] while not armed.
    pub at: SimTime,
    /// The tie-break among firings due at one instant: the lower goes first.
    pub order: u64,
    /// When the firing that armed it was due, if a firing did.
    pub rearmed_at: Option<SimTime>,
}

impl TimerClock {
    /// A clock that is not armed.
    pub const IDLE: TimerClock = TimerClock {
        at: SimTime::MAX,
        order: 0,
        rearmed_at: None,
    };

    /// The kind whose firing comes first in `(at, order)` order.
    #[inline]
    pub(crate) fn first(clocks: &[TimerClock; CcUpdate::MAX_TIMERS]) -> usize {
        (0..clocks.len())
            .min_by_key(|&k| (clocks[k].at, clocks[k].order))
            .unwrap_or(0)
    }
}

/// What one [`CongestionControl::fire_timers`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TimerRun {
    /// Firings made: one `on_event(Timer)` call each.
    pub fired: u64,
    /// Firings whose update set a rate.
    pub rates: u64,
    /// The last rate set, in bits/second.
    pub last_rate_bps: Option<f64>,
}

/// Fire clock `kind`: one `on_event(at, Timer { kind })` call, its rate
/// counted into `run` and handed to `on_rate`, its timer requests re-arming
/// `clocks` with orders taken from `next_order`. `C` is a protocol type
/// when [`CongestionControl::fire_timers`] calls this, so the call is static;
/// the engine calls it through `dyn` for the one firing due at the instant
/// of the event it dispatches.
#[inline]
pub(crate) fn fire_timer<C: CongestionControl + ?Sized>(
    cc: &mut C,
    clocks: &mut [TimerClock; CcUpdate::MAX_TIMERS],
    kind: usize,
    next_order: &mut u64,
    run: &mut TimerRun,
    on_rate: Option<&mut (dyn FnMut(SimTime, f64) + '_)>,
) {
    let at = clocks[kind].at;
    clocks[kind].at = SimTime::MAX;
    let update = cc.on_event(at, CcEvent::Timer { kind: kind as u8 });
    run.fired += 1;
    if let Some(r) = update.new_rate_bps {
        desim::invariants::finite_rate("cc update rate", r);
        run.rates += 1;
        run.last_rate_bps = Some(r);
        if let Some(on_rate) = on_rate {
            on_rate(at, r);
        }
    }
    for &(k, t) in update.timers() {
        clocks[k as usize] = TimerClock {
            at: t.max(at),
            order: *next_order,
            rearmed_at: Some(at),
        };
        *next_order += 1;
    }
}

/// A rate-based congestion-control algorithm.
pub trait CongestionControl: std::fmt::Debug {
    /// Called once when the flow starts; returns the initial rate (bps) and
    /// any initial timers.
    fn on_start(&mut self, now: SimTime, line_rate_bps: f64) -> CcUpdate;

    /// Handle an event.
    fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate;

    /// Fire every timer in `clocks` due strictly before `before`, firings
    /// re-armed by this call included, in `(at, order)` order: each is one
    /// `on_event(at, Timer { kind })` call at its own time. A timer request
    /// in an update re-arms that kind at `max(fire_at, at)` with the order
    /// `*next_order` (then incremented), replacing its pending firing; the
    /// caller passes a `next_order` above every order in `clocks`. Each rate
    /// an update sets goes to `on_rate` with its firing's time; the returned
    /// [`TimerRun`] counts the firings and rates and keeps the last rate.
    ///
    /// The contract: implementors do not override this method. It makes
    /// exactly the calls the engine would make one firing at a time, and
    /// since it is compiled per protocol, each of them is a static call the
    /// compiler can inline. That is sound only because a congestion control
    /// depends on nothing but its own state and arguments (see the module
    /// doc): no firing can observe that the engine did nothing in between.
    fn fire_timers(
        &mut self,
        clocks: &mut [TimerClock; CcUpdate::MAX_TIMERS],
        before: SimTime,
        next_order: &mut u64,
        mut on_rate: Option<&mut dyn FnMut(SimTime, f64)>,
    ) -> TimerRun {
        let mut run = TimerRun::default();
        loop {
            let kind = TimerClock::first(clocks);
            if clocks[kind].at >= before {
                return run;
            }
            fire_timer(
                self,
                clocks,
                kind,
                next_order,
                &mut run,
                on_rate.as_deref_mut(),
            );
        }
    }

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

    /// Logs its timer calls. Kind 0 re-arms itself 10 ns later; kind 1 sets
    /// the rate to its firing time in ns and, the first time, asks for kind 1
    /// again 5 ns in the past.
    #[derive(Debug, Default)]
    struct Logged {
        log: Vec<(u64, u8)>,
        rearmed_1: bool,
    }

    impl CongestionControl for Logged {
        fn on_start(&mut self, _now: SimTime, _line_rate_bps: f64) -> CcUpdate {
            CcUpdate::none()
        }

        fn on_event(&mut self, now: SimTime, event: CcEvent) -> CcUpdate {
            let CcEvent::Timer { kind } = event else {
                return CcUpdate::none();
            };
            self.log.push((now.as_nanos(), kind));
            match kind {
                0 => CcUpdate::none().with_timer(0, now + SimDuration::from_nanos(10)),
                _ if !self.rearmed_1 => {
                    self.rearmed_1 = true;
                    CcUpdate::rate(now.as_nanos() as f64)
                        .with_timer(1, now - SimDuration::from_nanos(5))
                }
                _ => CcUpdate::rate(now.as_nanos() as f64),
            }
        }

        fn current_rate_bps(&self) -> f64 {
            0.0
        }
    }

    #[test]
    fn fire_timers_goes_in_at_order_order_and_clamps_a_rearm_to_its_firing() {
        let clock = |at, order| TimerClock {
            at: SimTime::from_nanos(at),
            order,
            rearmed_at: None,
        };
        // Both due at 10 ns, kind 1 armed first. Its re-arm into the past
        // fires at 10 ns again, after kind 0; kind 0's re-arm for 30 ns is
        // not before 30 ns and stays pending.
        let mut clocks = [clock(10, 1), clock(10, 0)];
        let (mut cc, mut next_order, mut rates) = (Logged::default(), 100, Vec::new());
        let mut on_rate = |at: SimTime, r: f64| rates.push((at.as_nanos(), r));
        let run = cc.fire_timers(
            &mut clocks,
            SimTime::from_nanos(30),
            &mut next_order,
            Some(&mut on_rate),
        );
        assert_eq!(cc.log, [(10, 1), (10, 0), (10, 1), (20, 0)]);
        assert_eq!(
            run,
            TimerRun {
                fired: 4,
                rates: 2,
                last_rate_bps: Some(10.0)
            }
        );
        assert_eq!(rates, [(10, 10.0), (10, 10.0)]);
        let rearmed_at = Some(SimTime::from_nanos(20));
        assert_eq!(
            clocks[0],
            TimerClock {
                rearmed_at,
                ..clock(30, 102)
            }
        );
        assert_eq!((clocks[1].at, next_order), (SimTime::MAX, 103));
    }
}
