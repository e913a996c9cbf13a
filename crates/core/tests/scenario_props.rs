//! Seeded scenario properties of the packet simulator.
//!
//! Each of 64 seeds draws a small single-switch or dumbbell scenario —
//! 2–16 finite flows of 10 KB – 1 MB with random starts, one of the three
//! protocols, random RED thresholds, PFC on or off with random thresholds —
//! and checks what must hold of any lossless run:
//!
//! * every flow completes by the horizon and delivers exactly its size;
//! * the receivers counted exactly `Σ ⌈size / MTU⌉` data packets;
//! * no more packets were marked than were delivered;
//! * no port was PFC-paused longer than the run: `pfc_paused_s ≤ links ×
//!   horizon`;
//!
//! that installing an empty fault schedule changes nothing: the same
//! `report_digest` as no schedule at all; and that running one engine to a
//! random cut in (0, horizon) and then on to the horizon gives the one
//! run's digest. A failing seed prints its scenario as JSON.

use desim::{SimDuration, SimRng, SimTime};
use ecn_delay_core::experiments::ext_incast::report_digest;
use ecn_delay_core::scenarios::Protocol;
use netsim::{Engine, EngineConfig, NodeId, PfcConfig, RedConfig, SimReport, Topology};

const SEEDS: u64 = 64;
const BANDWIDTH_BPS: f64 = 10e9;
const HORIZON: SimTime = SimTime::from_millis(100);

/// One flow: its endpoints (indices into the topology's senders and
/// receivers), size and start.
#[derive(Debug, Clone, Copy)]
struct Flow {
    sender: usize,
    receiver: usize,
    size_bytes: u64,
    start_ns: u64,
}

#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    dumbbell: bool,
    protocol: Protocol,
    flows: Vec<Flow>,
    kmin_bytes: u64,
    kmax_bytes: u64,
    /// `(pause, resume)` thresholds in bytes.
    pfc: Option<(u64, u64)>,
    /// Where the split-horizon run stops first, in (0, horizon).
    cut_ns: u64,
}

impl Scenario {
    fn draw(seed: u64) -> Self {
        let mut rng = SimRng::new(seed);
        let dumbbell = rng.next_below(2) == 1;
        let protocol = [Protocol::Dcqcn, Protocol::Timely, Protocol::PatchedTimely]
            [rng.next_below(3) as usize];
        let n = 2 + rng.next_below(15) as usize;
        let flows = (0..n)
            .map(|i| Flow {
                sender: i,
                receiver: if dumbbell {
                    rng.next_below(n as u64) as usize
                } else {
                    0
                },
                size_bytes: 10_000 + rng.next_below(990_001),
                start_ns: rng.next_below(1_000_000),
            })
            .collect();
        let kmin_bytes = 1_000 + rng.next_below(100_000);
        let kmax_bytes = kmin_bytes + rng.next_below(400_000);
        let pfc = (rng.next_below(2) == 1).then(|| {
            let pause = 20_000 + rng.next_below(500_000);
            (pause, pause * (50 + rng.next_below(46)) / 100)
        });
        let cut_ns = 1 + rng.next_below(HORIZON.as_nanos() - 1);
        Scenario {
            seed,
            dumbbell,
            protocol,
            flows,
            kmin_bytes,
            kmax_bytes,
            pfc,
            cut_ns,
        }
    }

    fn to_json(&self) -> String {
        let flows: Vec<String> = self
            .flows
            .iter()
            .map(|f| {
                format!(
                    r#"{{"sender": {}, "receiver": {}, "size_bytes": {}, "start_ns": {}}}"#,
                    f.sender, f.receiver, f.size_bytes, f.start_ns
                )
            })
            .collect();
        let pfc = match self.pfc {
            Some((pause, resume)) => format!(r#"{{"pause": {pause}, "resume": {resume}}}"#),
            None => "null".to_string(),
        };
        format!(
            r#"{{"seed": {}, "topology": "{}", "protocol": "{}", "kmin_bytes": {}, "kmax_bytes": {}, "pfc": {}, "cut_ns": {}, "flows": [{}]}}"#,
            self.seed,
            if self.dumbbell {
                "dumbbell"
            } else {
                "single_switch"
            },
            self.protocol.label(),
            self.kmin_bytes,
            self.kmax_bytes,
            pfc,
            self.cut_ns,
            flows.join(", ")
        )
    }

    /// Build the engine, with `faults` installed, and its link count.
    fn engine(&self, faults: Option<faults::FaultSchedule>) -> (Engine, usize) {
        let n = self.flows.len();
        let prop = SimDuration::from_micros(1);
        let (topo, senders, receivers): (Topology, Vec<NodeId>, Vec<NodeId>) = if self.dumbbell {
            let (topo, senders, receivers, _) = Topology::dumbbell(n, BANDWIDTH_BPS, prop);
            (topo, senders, receivers)
        } else {
            let (topo, senders, receiver) = Topology::single_switch(n, BANDWIDTH_BPS, prop);
            (topo, senders, vec![receiver])
        };
        let links = topo.link_count();
        let mut cfg = EngineConfig::default();
        cfg.seed = self.seed;
        cfg.rate_trace_window = None;
        cfg.red = RedConfig {
            kmin_bytes: self.kmin_bytes,
            kmax_bytes: self.kmax_bytes,
            ..RedConfig::dcqcn_default()
        };
        cfg.pfc = self.pfc.map(|(pause, resume)| PfcConfig {
            pause_threshold_bytes: pause,
            resume_threshold_bytes: resume,
        });
        cfg.faults = faults;
        let mut eng = Engine::new(topo, cfg);
        for f in &self.flows {
            eng.add_flow(self.protocol.build_cc(n as f64).flow(
                senders[f.sender],
                receivers[f.receiver],
                Some(f.size_bytes),
                SimTime::from_nanos(f.start_ns),
            ));
        }
        (eng, links)
    }

    /// The properties every lossless run must have.
    fn check(&self, report: &SimReport, links: usize, mtu: u64) -> Result<(), String> {
        if report.fcts.len() != self.flows.len() {
            return Err(format!(
                "{} of {} flows completed by the horizon",
                report.fcts.len(),
                self.flows.len()
            ));
        }
        for (i, f) in self.flows.iter().enumerate() {
            if report.delivered_bytes[i] != f.size_bytes {
                return Err(format!(
                    "flow {i} delivered {} of {} bytes",
                    report.delivered_bytes[i], f.size_bytes
                ));
            }
        }
        let packets: u64 = self.flows.iter().map(|f| f.size_bytes.div_ceil(mtu)).sum();
        if report.data_packets != packets {
            return Err(format!(
                "{} data packets delivered, Σ⌈size/MTU⌉ = {packets}",
                report.data_packets
            ));
        }
        if report.marked_packets > report.data_packets {
            return Err(format!(
                "{} marks for {} data packets",
                report.marked_packets, report.data_packets
            ));
        }
        let port_seconds = links as f64 * HORIZON.as_secs_f64();
        if report.pfc_paused_s > port_seconds {
            return Err(format!(
                "{} s paused on {links} links in {} s",
                report.pfc_paused_s,
                HORIZON.as_secs_f64()
            ));
        }
        Ok(())
    }
}

/// Append a later run's report to the merged one: counters and delivered
/// bytes are cumulative, FCT records and traces are per run.
fn merge(mut merged: SimReport, mut later: SimReport) -> SimReport {
    later.fcts.splice(0..0, merged.fcts.drain(..));
    for (trace, earlier) in later.rate_traces.iter_mut().zip(&mut merged.rate_traces) {
        trace.splice(0..0, earlier.drain(..));
    }
    let mut queue_traces = merged.queue_traces;
    for (link, trace) in later.queue_traces.iter() {
        let earlier = queue_traces.get_mut(link).expect("same links traced");
        for &(t, v) in trace.points() {
            earlier.record(SimTime::from_secs_f64(t), v);
        }
    }
    later.queue_traces = queue_traces;
    later
}

#[test]
fn seeded_scenarios_deliver_every_byte_and_ignore_an_empty_schedule() {
    let mtu = EngineConfig::default().mtu_bytes as u64;
    for seed in 1..=SEEDS {
        let scenario = Scenario::draw(seed);
        let (mut eng, links) = scenario.engine(None);
        let report = eng.run(HORIZON);
        let verdict = scenario.check(&report, links, mtu).and_then(|()| {
            let (mut empty, _) = scenario.engine(Some(faults::FaultSchedule::new(seed)));
            let (none, with_empty) = (report_digest(&report), report_digest(&empty.run(HORIZON)));
            if none == with_empty {
                Ok(())
            } else {
                Err(format!(
                    "an empty fault schedule moved the digest: {none} -> {with_empty}"
                ))
            }
        });
        if let Err(e) = verdict {
            panic!("seed {seed}: {e}\nscenario: {}", scenario.to_json());
        }
    }
}

#[test]
fn seeded_scenarios_split_at_a_random_cut_as_one_run() {
    for seed in 1..=SEEDS {
        let scenario = Scenario::draw(seed);
        let whole = report_digest(&scenario.engine(None).0.run(HORIZON));
        let (mut eng, _) = scenario.engine(None);
        let first = eng.run(SimTime::from_nanos(scenario.cut_ns));
        let split = report_digest(&merge(first, eng.run(HORIZON)));
        if whole != split {
            panic!(
                "seed {seed}: a cut at {} ns moved the digest: {whole} -> {split}\nscenario: {}",
                scenario.cut_ns,
                scenario.to_json()
            );
        }
    }
}
