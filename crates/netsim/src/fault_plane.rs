//! The fault plane: a [`faults::FaultSchedule`] compiled onto the event
//! queue. [`FaultPlane`] owns all fault state and counts; the engine holds
//! one only once a non-empty schedule has validated, so a fault-free run
//! pays one `None` test per hook. The hooks are its methods:
//! [`FaultPlane::holds`] and [`FaultPlane::extra_delay`] at transmit,
//! [`FaultPlane::loses`] at delivery.

use super::{paused_s, Engine, Ev, Touch};
use crate::topology::LinkId;
use crate::types::{FlowId, Packet, PacketKind};
use desim::{EventQueue, SimDuration, SimRng, SimTime};
use faults::{FaultKind, ParamTarget, SimError};

/// A windowed fault effect active on a link. Loss probabilities across
/// overlapping windows combine as `1 − Π(1 − pᵢ)`; delays add.
#[derive(Debug, Clone, Copy, PartialEq)]
enum WindowEffect {
    /// Bernoulli drop probability for data packets.
    DataLoss(f64),
    /// Bernoulli drop probability for CNPs.
    CnpLoss(f64),
    /// Mean of an exponential per-packet extra delivery delay (seconds).
    Jitter(f64),
    /// Constant extra delivery delay (seconds).
    ExtraDelay(f64),
}

impl WindowEffect {
    /// Trace a window of this effect opening (`starting`) or closing on
    /// `link`.
    fn trace(self, t_s: f64, link: usize, starting: bool) {
        let effect = match self {
            WindowEffect::DataLoss(_) => "data_loss",
            WindowEffect::CnpLoss(_) => "cnp_loss",
            WindowEffect::Jitter(_) => "jitter",
            WindowEffect::ExtraDelay(_) => "delay_spike",
        };
        let link = link as u64;
        obs::trace::record(
            t_s,
            obs::Event::FaultWindow {
                link,
                effect,
                starting,
            },
        );
    }
}

/// A fault-schedule entry compiled into an engine-executable operation.
#[derive(Debug, Clone, Copy)]
enum FaultOp {
    LinkDown {
        link: usize,
    },
    LinkUp {
        link: usize,
    },
    /// `id` is the index of this operation: unique, so the matching
    /// `WindowEnd` finds it among overlapping windows.
    WindowStart {
        link: usize,
        id: usize,
        effect: WindowEffect,
    },
    WindowEnd {
        link: usize,
        id: usize,
    },
    /// One storm tick: force a pause of `pause`, then re-schedule itself
    /// every `period` until `until`.
    StormTick {
        link: usize,
        period: SimDuration,
        pause: SimDuration,
        until: SimTime,
    },
    Perturb {
        target: ParamTarget,
        scale: f64,
    },
}

/// Per-link fault state.
#[derive(Debug)]
struct LinkFaultState {
    /// False while a link-flap outage is in effect.
    up: bool,
    /// When the pause storm's current forced pause began, while one holds
    /// the link's data class paused.
    storm_since: Option<SimTime>,
    storm_total: SimDuration,
    /// The `(schedule seed, link id)`-keyed RNG sub-stream: loss coin flips
    /// and jitter samples never touch the engine's marking RNG.
    rng: SimRng,
    /// Active windowed effects as `(window id, effect)`.
    windows: Vec<(usize, WindowEffect)>,
}

/// An installed fault schedule: its operations, the state they drive and
/// what it counted (cumulative over the engine's runs).
#[derive(Debug, Default)]
pub(super) struct FaultPlane {
    /// Indexed by `Ev::Fault`.
    ops: Vec<FaultOp>,
    links: Vec<LinkFaultState>,
    /// Operations executed (flap edges, window starts/ends, storm ticks,
    /// perturbations).
    injected: u64,
    link_flaps: u64,
    windows: u64,
    pauses: u64,
    perturbations: u64,
    drops: u64,
    delays: u64,
}

impl FaultPlane {
    /// File `op` on the event queue at `at`.
    fn push(&mut self, events: &mut EventQueue<Ev>, at: SimTime, op: FaultOp) {
        events.schedule(at, Ev::Fault(self.ops.len()));
        self.ops.push(op);
    }

    /// File a window of `effect` on `link` from `at` for `duration_s`.
    fn push_window(
        &mut self,
        events: &mut EventQueue<Ev>,
        at: SimTime,
        duration_s: f64,
        link: usize,
        effect: WindowEffect,
    ) {
        let id = self.ops.len();
        self.push(events, at, FaultOp::WindowStart { link, id, effect });
        let end_at = at + SimDuration::from_secs_f64(duration_s);
        self.push(events, end_at, FaultOp::WindowEnd { link, id });
    }

    /// What the plane holds back on `link`: `(everything, the data class)`
    /// — everything while a flap has it down, the data class while a pause
    /// storm pauses it (like PFC; control rides a separate priority).
    #[inline]
    pub(super) fn holds(&self, link: LinkId) -> (bool, bool) {
        let fs = &self.links[link.0];
        (!fs.up, fs.storm_since.is_some())
    }

    /// Extra delivery delay for a packet `link` starts transmitting now:
    /// the sum of active constant extra delays plus one exponential sample
    /// per active jitter window, drawn from the link's fault sub-stream.
    pub(super) fn extra_delay(&mut self, link: LinkId, now: SimTime) -> SimDuration {
        let fs = &mut self.links[link.0];
        let mut extra_s = 0.0;
        for &(_, effect) in &fs.windows {
            match effect {
                WindowEffect::ExtraDelay(d) => extra_s += d,
                WindowEffect::Jitter(sigma) if sigma > 0.0 => extra_s += fs.rng.exponential(sigma),
                _ => {}
            }
        }
        if extra_s <= 0.0 {
            return SimDuration::ZERO;
        }
        self.delays += 1;
        obs::trace::record(
            now.as_secs_f64(),
            obs::Event::FaultDelay {
                link: link.0 as u64,
                extra_s,
            },
        );
        SimDuration::from_secs_f64(extra_s)
    }

    /// Whether a loss window drops `pkt` arriving over `link` now. Data
    /// packets see the combined data-loss windows; CNPs see the CNP-loss
    /// windows; ACKs are never targeted. Draws from the link's fault RNG
    /// sub-stream only when a loss window is active, so inactive links
    /// consume no randomness.
    pub(super) fn loses(&mut self, link: LinkId, pkt: &Packet, now: SimTime) -> bool {
        let is_cnp = matches!(pkt.kind(), PacketKind::Cnp);
        if pkt.is_control() && !is_cnp {
            return false;
        }
        let fs = &mut self.links[link.0];
        let mut keep = 1.0;
        for (_, e) in &fs.windows {
            match *e {
                WindowEffect::DataLoss(p) if !is_cnp => keep *= 1.0 - p,
                WindowEffect::CnpLoss(p) if is_cnp => keep *= 1.0 - p,
                _ => {}
            }
        }
        let p_drop = 1.0 - keep;
        if p_drop <= 0.0 || fs.rng.next_f64() >= p_drop {
            return false;
        }
        self.drops += 1;
        obs::trace::record(
            now.as_secs_f64(),
            obs::Event::FaultDrop {
                flow: pkt.flow().0 as u64,
                link: link.0 as u64,
                control: is_cnp,
            },
        );
        true
    }

    /// Packets dropped by loss windows.
    pub(super) fn drops(&self) -> u64 {
        self.drops
    }

    /// Forced-pause intervals started by pause storms.
    pub(super) fn pauses(&self) -> u64 {
        self.pauses
    }

    /// Operations executed.
    pub(super) fn injected(&self) -> u64 {
        self.injected
    }

    /// Each link's time paused by storms up to `end`, in seconds.
    pub(super) fn paused_s(&self, end: SimTime) -> impl Iterator<Item = f64> + '_ {
        let paused = move |fs: &LinkFaultState| paused_s(fs.storm_total, fs.storm_since, end);
        self.links.iter().map(paused)
    }

    /// The counts under their obs counter names.
    pub(super) fn counters(&self) -> [(&'static str, u64); 6] {
        [
            ("netsim.fault_link_flaps", self.link_flaps),
            ("netsim.fault_windows", self.windows),
            ("netsim.fault_pauses", self.pauses),
            ("netsim.fault_perturbations", self.perturbations),
            ("netsim.fault_drops", self.drops),
            ("netsim.fault_delays", self.delays),
        ]
    }
}

impl Engine {
    /// Compile the fault schedule, if any, onto the event queue. The plane
    /// is installed once its schedule has validated, and only once; an
    /// empty schedule installs none. A rejected schedule is rejected again
    /// on every call.
    pub(super) fn install_faults(&mut self) -> Result<(), SimError> {
        let Some(schedule) = self.cfg.faults.as_ref().filter(|_| self.faults.is_none()) else {
            return Ok(());
        };
        schedule.validate(self.topo.link_count())?;
        if schedule.is_empty() {
            return Ok(());
        }
        let mut plane = FaultPlane {
            links: (0..self.topo.link_count())
                .map(|l| LinkFaultState {
                    up: true,
                    storm_since: None,
                    storm_total: SimDuration::ZERO,
                    rng: faults::link_stream(schedule.seed, l),
                    windows: Vec::new(),
                })
                .collect(),
            ..FaultPlane::default()
        };
        let events = &mut self.events;
        for ev in &schedule.events {
            let at = SimTime::from_secs_f64(ev.at_s);
            match ev.kind {
                FaultKind::LinkFlap { link, down_s } => {
                    plane.push(events, at, FaultOp::LinkDown { link });
                    let up_at = at + SimDuration::from_secs_f64(down_s);
                    plane.push(events, up_at, FaultOp::LinkUp { link });
                }
                FaultKind::PacketLoss {
                    link,
                    probability: p,
                    duration_s,
                } => plane.push_window(events, at, duration_s, link, WindowEffect::DataLoss(p)),
                FaultKind::CnpLoss {
                    link,
                    probability: p,
                    duration_s,
                } => plane.push_window(events, at, duration_s, link, WindowEffect::CnpLoss(p)),
                FaultKind::RttJitter {
                    link,
                    sigma_s,
                    duration_s,
                } => plane.push_window(events, at, duration_s, link, WindowEffect::Jitter(sigma_s)),
                FaultKind::DelaySpike {
                    link,
                    extra_s: d,
                    duration_s,
                } => plane.push_window(events, at, duration_s, link, WindowEffect::ExtraDelay(d)),
                FaultKind::PauseStorm {
                    link,
                    period_s,
                    pause_frac,
                    duration_s,
                } => {
                    let op = FaultOp::StormTick {
                        link,
                        period: SimDuration::from_secs_f64(period_s),
                        pause: SimDuration::from_secs_f64(period_s * pause_frac),
                        until: at + SimDuration::from_secs_f64(duration_s),
                    };
                    plane.push(events, at, op);
                }
                FaultKind::Perturb { target, scale } => {
                    plane.push(events, at, FaultOp::Perturb { target, scale });
                }
            }
        }
        self.faults = Some(plane);
        Ok(())
    }

    /// Execute one compiled fault-plane operation. Every injected fault is
    /// counted and emitted as an obs trace event.
    pub(super) fn fault_fire(&mut self, idx: usize) {
        let now = self.now;
        let Some(plane) = &mut self.faults else {
            return;
        };
        let op = plane.ops[idx];
        plane.injected += 1;
        let t_s = now.as_secs_f64();
        match op {
            FaultOp::LinkDown { link } => {
                plane.links[link].up = false;
                plane.link_flaps += 1;
                obs::trace::record(t_s, obs::Event::LinkDown { link: link as u64 });
            }
            FaultOp::LinkUp { link } => {
                plane.links[link].up = true;
                obs::trace::record(t_s, obs::Event::LinkUp { link: link as u64 });
                // Drain whatever queued while the link was down.
                self.try_transmit(LinkId(link));
            }
            FaultOp::WindowStart { link, id, effect } => {
                plane.links[link].windows.push((id, effect));
                plane.windows += 1;
                effect.trace(t_s, link, true);
            }
            FaultOp::WindowEnd { link, id } => {
                let fs = &mut plane.links[link];
                if let Some(pos) = fs.windows.iter().position(|(w, _)| *w == id) {
                    fs.windows.remove(pos).1.trace(t_s, link, false);
                }
            }
            FaultOp::StormTick {
                link,
                period,
                pause,
                until,
            } => {
                if now > until {
                    return;
                }
                let fs = &mut plane.links[link];
                if fs.storm_since.is_none() {
                    fs.storm_since = Some(now);
                    plane.pauses += 1;
                    obs::trace::record(t_s, obs::Event::FaultPause { link: link as u64 });
                }
                self.events
                    .schedule(now + pause, Ev::FaultStormRelease(LinkId(link)));
                let next = now + period;
                if next <= until {
                    self.events.schedule(next, Ev::Fault(idx));
                }
            }
            FaultOp::Perturb { target, scale } => {
                plane.perturbations += 1;
                match target {
                    ParamTarget::RedKmax => {
                        let scaled = (self.cfg.red.kmax_bytes as f64 * scale).max(1.0) as u64;
                        // Preserve kmin <= kmax so the RED curve stays valid.
                        self.cfg.red.kmax_bytes = scaled.max(self.cfg.red.kmin_bytes);
                    }
                    ParamTarget::CcRateIncrease => {
                        for f in 0..self.senders.len() {
                            self.catch_up(FlowId(f), Touch::Own);
                            self.senders.cc[f].perturb(target, scale);
                        }
                    }
                }
                obs::trace::record(
                    t_s,
                    obs::Event::ParamPerturbed {
                        param: target.label(),
                        scale,
                    },
                );
            }
        }
    }

    /// End of a pause-storm forced-pause interval.
    pub(super) fn fault_storm_release(&mut self, link: LinkId) {
        let now = self.now;
        let Some(fs) = self.faults.as_mut().map(|p| &mut p.links[link.0]) else {
            return;
        };
        if let Some(since) = fs.storm_since.take() {
            fs.storm_total += now.saturating_since(since);
            self.try_transmit(link);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{flow, us};
    use super::*;
    use crate::config::EngineConfig;
    use crate::topology::Topology;

    /// `single_switch` link layout: host `h` gets links `2h` (host→switch)
    /// and `2h+1` (switch→host); the receiver is host `n_senders`, so its
    /// downlink — the bottleneck — is `2 * n_senders + 1`.
    fn bottleneck_link(n_senders: usize) -> usize {
        2 * n_senders + 1
    }

    #[test]
    fn fault_loss_window_drops_data() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults =
            Some(faults::FaultSchedule::new(7).packet_loss(0.0, bottleneck_link(1), 0.5, 0.005));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 500_000, 5e9));
        let report = eng.run(SimTime::from_millis(10));
        assert!(report.fault_drops > 0, "50% loss must drop packets");
        assert!(
            report.delivered_bytes[0] < 500_000,
            "fixed-rate senders do not retransmit, so losses show up"
        );
        assert!(report.faults_injected >= 2, "window start + end");
    }

    #[test]
    fn fault_link_flap_delays_but_delivers() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        // Down the sender uplink for 1 ms mid-transfer: packets queue at the
        // host port and drain on recovery — nothing is lost.
        cfg.faults = Some(faults::FaultSchedule::new(7).link_flap(0.001, 0, 0.001));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 5e9));
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.delivered_bytes[0], 2_000_000);
        assert_eq!(report.fcts.len(), 1);
        assert!(report.faults_injected >= 2, "down + up events");
        assert!(
            report.fcts[0].fct_s > 2_000_000.0 * 8.0 / 5e9,
            "the outage must slow the flow"
        );
    }

    #[test]
    fn fault_cnp_loss_spares_data() {
        let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        // Drop every CNP on the receiver's uplink; data is untouched.
        cfg.faults = Some(faults::FaultSchedule::new(3).cnp_loss(0.0, 2 * 2, 1.0, 1.0));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000_000, 8e9));
        eng.add_flow(flow(senders[1], receiver, 1_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(20));
        assert_eq!(report.delivered_bytes[0], 1_000_000);
        assert_eq!(report.delivered_bytes[1], 1_000_000);
        assert!(report.cnps_sent > 0, "overload still generates CNPs");
        assert!(report.fault_drops > 0, "all CNPs on the uplink are dropped");
    }

    #[test]
    fn fault_pause_storm_stalls_then_recovers() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(faults::FaultSchedule::new(11).pause_storm(
            0.001,
            bottleneck_link(1),
            200e-6,
            0.5,
            0.004,
        ));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
        let report = eng.run(SimTime::from_millis(30));
        assert!(report.fault_pauses > 0, "storm must pause the port");
        assert!(report.fault_paused_s > 0.0);
        assert_eq!(report.delivered_bytes[0], 2_000_000, "pauses are lossless");
    }

    #[test]
    fn fault_kmax_perturbation_increases_marking() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 2_000_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 2_000_000, 8e9));
            eng.run(SimTime::from_millis(20)).marked_packets
        };
        let base = run(None);
        let perturbed = run(Some(faults::FaultSchedule::new(5).perturb(
            0.0,
            faults::ParamTarget::RedKmax,
            0.2,
        )));
        assert!(
            perturbed > base,
            "shrinking K_max must mark more: {perturbed} vs {base}"
        );
    }

    #[test]
    fn fault_jitter_slows_completion() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 200_000, 5e9));
            eng.run(SimTime::from_millis(20)).fcts[0].fct_s
        };
        let base = run(None);
        let spiked = run(Some(faults::FaultSchedule::new(1).delay_spike(
            0.0,
            bottleneck_link(1),
            100e-6,
            1.0,
        )));
        assert!(
            spiked > base + 90e-6,
            "a 100 µs delay spike must show in the FCT: {spiked} vs {base}"
        );
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let run = || {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = Some(
                faults::FaultSchedule::new(21)
                    .packet_loss(0.001, bottleneck_link(2), 0.2, 0.01)
                    .rtt_jitter(0.002, 1, 20e-6, 0.01)
                    .pause_storm(0.004, bottleneck_link(2), 100e-6, 0.4, 0.003),
            );
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 1_000_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 1_000_000, 8e9));
            let r = eng.run(SimTime::from_millis(30));
            (
                r.fault_drops,
                r.fault_pauses,
                r.faults_injected,
                r.marked_packets,
                r.delivered_bytes.clone(),
                r.fcts.iter().map(|f| f.fct_s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical_to_none() {
        let run = |sched: Option<faults::FaultSchedule>| {
            let (topo, senders, receiver) = Topology::single_switch(2, 10e9, us(1));
            let mut cfg = EngineConfig::default();
            cfg.faults = sched;
            let mut eng = Engine::new(topo, cfg);
            eng.add_flow(flow(senders[0], receiver, 800_000, 8e9));
            eng.add_flow(flow(senders[1], receiver, 800_000, 8e9));
            let r = eng.run(SimTime::from_millis(20));
            (
                r.marked_packets,
                r.cnps_sent,
                r.delivered_bytes.clone(),
                r.fcts.iter().map(|f| f.fct_s.to_bits()).collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            run(None),
            run(Some(faults::FaultSchedule::new(99))),
            "an installed-but-empty fault plane must not perturb the run"
        );
    }

    #[test]
    fn run_rejects_schedule_with_out_of_range_link() {
        let (topo, senders, receiver) = Topology::single_switch(1, 10e9, us(1));
        let mut cfg = EngineConfig::default();
        cfg.faults = Some(faults::FaultSchedule::new(1).link_flap(0.0, 999, 0.001));
        let mut eng = Engine::new(topo, cfg);
        eng.add_flow(flow(senders[0], receiver, 1_000, 1e9));
        let err = eng.try_run(SimTime::from_millis(1)).unwrap_err();
        assert!(err.to_string().contains("link"), "{err}");
        let again = eng.try_run(SimTime::from_millis(1));
        assert!(again.is_err(), "a retry must reject the schedule again");
    }
}
