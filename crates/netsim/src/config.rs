//! Engine configuration: RED/ECN marking, marking point, PFC, PI-AQM.

use desim::SimDuration;
use faults::{FaultSchedule, SimError};

/// RED/ECN marking profile (the paper's Eq 3).
#[derive(Debug, Clone)]
pub struct RedConfig {
    /// Lower threshold in bytes: below this, never mark.
    pub kmin_bytes: u64,
    /// Upper threshold in bytes: between `kmin` and `kmax` the probability
    /// rises linearly to `p_max`; above `kmax`, every packet is marked.
    pub kmax_bytes: u64,
    /// Marking probability at `kmax`.
    pub p_max: f64,
}

impl RedConfig {
    /// DCQCN defaults from \[31\]: K_min = 5 KB, K_max = 200 KB, P_max = 1 %.
    pub fn dcqcn_default() -> Self {
        RedConfig {
            kmin_bytes: 5_000,
            kmax_bytes: 200_000,
            p_max: 0.01,
        }
    }

    /// Marking probability for an instantaneous queue of `q` bytes (Eq 3).
    pub fn probability(&self, q_bytes: u64) -> f64 {
        if q_bytes <= self.kmin_bytes {
            0.0
        } else if q_bytes <= self.kmax_bytes {
            (q_bytes - self.kmin_bytes) as f64 / (self.kmax_bytes - self.kmin_bytes) as f64
                * self.p_max
        } else {
            1.0
        }
    }
}

/// Where the marking decision reads the queue (paper §5.2 and Figure 17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingMode {
    /// Mark when the packet *departs*: the mark reflects the queue at that
    /// instant, so the feedback delay excludes queueing delay. This is how
    /// modern shared-buffer switches behave and the paper's recommended
    /// configuration.
    Egress,
    /// Mark when the packet *arrives* at the queue: the mark then sits in
    /// the queue behind earlier packets, adding the queueing delay to the
    /// control loop — the destabilizing variant of Figure 17.
    Ingress,
}

/// PFC (IEEE 802.1Qbb) PAUSE/RESUME emulation. The paper assumes ECN fires
/// before PFC and ignores it; this is an optional extension, default off.
#[derive(Debug, Clone)]
pub struct PfcConfig {
    /// Ingress-buffer occupancy (bytes) above which PAUSE is sent upstream.
    pub pause_threshold_bytes: u64,
    /// Occupancy below which RESUME is sent.
    pub resume_threshold_bytes: u64,
}

/// PI-controller AQM (the paper's §5.2 proposal, \[14\]-style): the marking
/// probability is an explicit controller state driven by the queue error,
/// updated every `update_interval`. With PI marking, DCQCN achieves a
/// queue pinned at `q_ref` *and* fairness, for any number of flows —
/// Figure 18 at the packet level (the paper ran it in the fluid model and
/// lists a hardware implementation as future work).
#[derive(Debug, Clone)]
pub struct PiAqmConfig {
    /// Queue reference in bytes.
    pub q_ref_bytes: u64,
    /// Coefficient `a` of the discrete PI update
    /// `p += a·(q − q_ref) − b·(q_old − q_ref)` (per byte).
    pub a_per_byte: f64,
    /// Coefficient `b` (per byte).
    pub b_per_byte: f64,
    /// Controller update interval.
    pub update_interval: desim::SimDuration,
}

impl PiAqmConfig {
    /// Gains matched to the fluid-model PI of `models::pi` (k1 = 5e-5/pkt,
    /// k2 = 5e-3/pkt·s at 1 KB packets), discretized at 55 µs.
    pub fn default_for(q_ref_bytes: u64) -> Self {
        let k1_per_byte = 5e-5 / 1000.0;
        let k2_per_byte_s = 5e-3 / 1000.0;
        let t = 55e-6;
        PiAqmConfig {
            q_ref_bytes,
            a_per_byte: k1_per_byte + k2_per_byte_s * t,
            b_per_byte: k1_per_byte,
            update_interval: desim::SimDuration::from_micros(55),
        }
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Payload bytes per full data packet.
    pub mtu_bytes: u32,
    /// Per-packet header overhead added to the wire size.
    pub header_bytes: u32,
    /// Wire size of control packets (ACK/CNP).
    pub control_packet_bytes: u32,
    /// RED/ECN profile applied at switch egress queues.
    pub red: RedConfig,
    /// Marking point (egress vs ingress).
    pub marking: MarkingMode,
    /// NP CNP coalescing interval τ (50 µs in the paper).
    pub cnp_interval: SimDuration,
    /// Optional PFC emulation (off by default; the paper ignores PFC).
    pub pfc: Option<PfcConfig>,
    /// Optional PI-controller AQM; when set, it replaces the RED curve as
    /// the source of the marking probability (queue pinned at `q_ref`).
    pub pi_aqm: Option<crate::config::PiAqmConfig>,
    /// RNG seed (drives probabilistic marking only).
    pub seed: u64,
    /// Queue-trace decimation (seconds); traces recorded for every switch
    /// egress queue.
    pub queue_trace_resolution_s: f64,
    /// Per-flow throughput trace window; `None` disables rate traces.
    pub rate_trace_window: Option<SimDuration>,
    /// Optional fault-injection schedule, compiled onto the event queue at
    /// the start of the run. `None` (and an empty schedule) leave the run
    /// bit-identical to a fault-free engine — the fault plane draws from
    /// its own per-link RNG sub-streams, never from the marking RNG.
    pub faults: Option<FaultSchedule>,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            mtu_bytes: 1000,
            header_bytes: 48,
            control_packet_bytes: 64,
            red: RedConfig::dcqcn_default(),
            marking: MarkingMode::Egress,
            cnp_interval: SimDuration::from_micros(50),
            pfc: None,
            pi_aqm: None,
            seed: 1,
            queue_trace_resolution_s: 20e-6,
            rate_trace_window: Some(SimDuration::from_micros(100)),
            faults: None,
        }
    }
}

impl EngineConfig {
    /// Validate field ranges, returning a descriptive [`SimError`] naming
    /// the offending field. [`Engine::try_run`](crate::Engine::try_run) calls this before the event
    /// loop starts, so a bad config is a structured error instead of a
    /// downstream panic or silent NaN. The fault schedule is validated
    /// separately against the topology's link count at install time.
    pub fn validate(&self) -> Result<(), SimError> {
        let bad = |detail: String| Err(SimError::config("EngineConfig", detail));
        if self.mtu_bytes == 0 {
            return bad("mtu_bytes must be positive".to_string());
        }
        if self.mtu_bytes >= crate::types::Packet::MAX_PAYLOAD {
            return bad(format!(
                "mtu_bytes {} must be below 2^27 (a packet keeps five flag bits above the payload)",
                self.mtu_bytes
            ));
        }
        if self.control_packet_bytes == 0 {
            return bad("control_packet_bytes must be positive".to_string());
        }
        if self.red.kmin_bytes > self.red.kmax_bytes {
            return bad(format!(
                "red.kmin_bytes {} exceeds red.kmax_bytes {}",
                self.red.kmin_bytes, self.red.kmax_bytes
            ));
        }
        if !(self.red.p_max.is_finite() && (0.0..=1.0).contains(&self.red.p_max)) {
            return bad(format!("red.p_max {} outside [0, 1]", self.red.p_max));
        }
        if !(self.queue_trace_resolution_s.is_finite() && self.queue_trace_resolution_s > 0.0) {
            return bad(format!(
                "queue_trace_resolution_s {} must be positive and finite (a zero or negative \
                 trace interval is meaningless)",
                self.queue_trace_resolution_s
            ));
        }
        if let Some(pfc) = &self.pfc {
            if pfc.resume_threshold_bytes > pfc.pause_threshold_bytes {
                return bad(format!(
                    "pfc.resume_threshold_bytes {} exceeds pfc.pause_threshold_bytes {} \
                     (the port would pause and resume simultaneously)",
                    pfc.resume_threshold_bytes, pfc.pause_threshold_bytes
                ));
            }
        }
        if let Some(pi) = &self.pi_aqm {
            if !(pi.a_per_byte.is_finite() && pi.b_per_byte.is_finite()) {
                return bad(format!(
                    "pi_aqm coefficients must be finite (a {}, b {})",
                    pi.a_per_byte, pi.b_per_byte
                ));
            }
            if pi.update_interval == SimDuration::ZERO {
                return bad("pi_aqm.update_interval must be positive".to_string());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn red_probability_profile() {
        let red = RedConfig::dcqcn_default();
        assert_eq!(red.probability(0), 0.0);
        assert_eq!(red.probability(5_000), 0.0);
        let mid = red.probability(102_500);
        assert!((mid - 0.005).abs() < 1e-12, "mid = {mid}");
        assert!((red.probability(200_000) - 0.01).abs() < 1e-12);
        assert_eq!(red.probability(200_001), 1.0);
    }

    #[test]
    fn red_monotone() {
        let red = RedConfig::dcqcn_default();
        let mut prev = -1.0;
        for q in (0..300_000).step_by(1_000) {
            let p = red.probability(q);
            assert!(p >= prev);
            prev = p;
        }
    }

    #[test]
    fn engine_config_validate_rejects_bad_fields() {
        let check = |mutate: &dyn Fn(&mut EngineConfig), needle: &str| {
            let mut cfg = EngineConfig::default();
            mutate(&mut cfg);
            let err = cfg.validate().unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "expected {needle:?} in {err}"
            );
        };
        check(&|c| c.mtu_bytes = 0, "mtu_bytes");
        check(&|c| c.mtu_bytes = 1 << 27, "below 2^27");
        check(&|c| c.control_packet_bytes = 0, "control_packet_bytes");
        check(
            &|c| {
                c.red.kmin_bytes = 100;
                c.red.kmax_bytes = 50;
            },
            "kmin_bytes",
        );
        check(&|c| c.red.p_max = f64::NAN, "p_max");
        check(&|c| c.red.p_max = 1.5, "p_max");
        check(
            &|c| c.queue_trace_resolution_s = f64::INFINITY,
            "resolution",
        );
        check(
            &|c| {
                c.pfc = Some(PfcConfig {
                    pause_threshold_bytes: 10,
                    resume_threshold_bytes: 20,
                })
            },
            "resume",
        );
        assert!(EngineConfig::default().validate().is_ok());
    }
}
