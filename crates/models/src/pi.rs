//! PI-controller variants (paper §5.2, Eq 32, Figures 18 and 19).
//!
//! The integral controller drives the queue error `e = q − q_ref` to zero:
//! `dp/dt = K₁·de/dt + K₂·e`. Where the controller runs decides what it can
//! deliver — this is the operational content of **Theorem 6**:
//!
//! * [`Marking::Pi`](crate::dcqcn::Marking::Pi) — PI marking **at the
//!   switch** replaces RED in [`DcqcnFluid`](crate::DcqcnFluid)
//!   ([`DcqcnFluid::pi`](crate::DcqcnFluid::pi)). The marking probability
//!   `p` is a shared signal, so the DCQCN fixed point keeps fair rates *and*
//!   the queue is pinned at `q_ref` regardless of the number of flows
//!   (Figure 18);
//! * [`TimelyLaw::PatchedPi`](crate::timely::TimelyLaw::PatchedPi) — PI
//!   **at each end host** computes a private `p_i` from delay samples and
//!   uses it in place of the queue-error term of Eq 29. The integral action
//!   still pins the queue at `q_ref`, but the per-flow `p_i` can settle
//!   anywhere consistent with `ΣR_i = C`, so the rate split is arbitrary
//!   (Figure 19) — fairness or fixed delay, never both, when delay is the
//!   only feedback.
//!
//! `tests/oracles/main.rs` holds both halves over seeded unequal starts.

/// Gains and reference for the PI controller (Eq 32).
#[derive(Debug, Clone)]
pub struct PiGains {
    /// Proportional-on-derivative gain `K₁` (per packet).
    pub k1: f64,
    /// Integral gain `K₂` (per packet-second).
    pub k2: f64,
    /// Reference queue `q_ref` in packets.
    pub q_ref_pkts: f64,
}

#[cfg(test)]
mod tests {
    use crate::dcqcn::{DcqcnFluid, DcqcnParams};
    use crate::units;

    #[test]
    fn dcqcn_pi_pins_queue_independent_of_n() {
        // Figure 18: queue stabilizes at q_ref for any number of flows.
        let params = DcqcnParams::default_40g();
        let q_ref = units::kb_to_pkts(100.0, params.packet_bytes);
        for n in [2usize, 10] {
            let mut m = DcqcnFluid::pi(params.clone(), 100.0, n);
            let tr = m.simulate(0.25);
            let q_tail = tr.mean_from(0, 0.2);
            assert!(
                (q_tail - q_ref).abs() / q_ref < 0.15,
                "N={n}: queue {q_tail:.1} vs q_ref {q_ref:.1}"
            );
        }
    }

    #[test]
    fn timely_pi_pins_queue_but_not_fairness() {
        // Figure 19 / Theorem 6: the queue is controlled to q_ref (300 KB)
        // but an asymmetric start persists — delay-only feedback cannot
        // give both.
        let mut m = crate::timely::TimelyFluid::patched_pi_10g(300.0, 2);
        let q_ref = m.q_star_pkts();
        let c = m.params.capacity_pps();
        let tr = m.simulate_with_rates(&[0.9 * c, 0.1 * c], 0.6);
        let q_tail = tr.mean_from(0, 0.5);
        assert!(
            (q_tail - q_ref).abs() / q_ref < 0.2,
            "queue {q_tail:.1} vs q_ref {q_ref:.1}"
        );
        let r0 = tr.mean_from(m.rate_index(0), 0.5);
        let r1 = tr.mean_from(m.rate_index(1), 0.5);
        // Utilization holds...
        assert!(((r0 + r1) - c).abs() / c < 0.15, "sum {}", r0 + r1);
        // ...but the split stays skewed (no convergence to fairness).
        assert!(
            r0 / (r0 + r1) > 0.6,
            "unfair split should persist: {} / {}",
            r0,
            r1
        );
    }
}
