//! Unit conversions between human quantities and packet units.
//!
//! The fluid models operate in packets and seconds (see the crate docs). All
//! figures and parameter tables in the paper quote Gbps, KB and µs; these
//! helpers are the single place where the conversion happens.

/// Bits per byte.
pub const BITS_PER_BYTE: f64 = 8.0;

/// Convert a bandwidth in Gbps to packets/second for a given packet size.
pub fn gbps_to_pps(gbps: f64, packet_bytes: f64) -> f64 {
    assert!(gbps > 0.0 && packet_bytes > 0.0);
    gbps * 1e9 / (BITS_PER_BYTE * packet_bytes)
}

/// Convert a bandwidth in Mbps to packets/second.
pub fn mbps_to_pps(mbps: f64, packet_bytes: f64) -> f64 {
    gbps_to_pps(mbps / 1e3, packet_bytes)
}

/// Convert packets/second back to Gbps.
pub fn pps_to_gbps(pps: f64, packet_bytes: f64) -> f64 {
    pps * BITS_PER_BYTE * packet_bytes / 1e9
}

/// Convert kilobytes to packets.
pub fn kb_to_pkts(kb: f64, packet_bytes: f64) -> f64 {
    kb * 1000.0 / packet_bytes
}

/// Convert bytes to packets.
#[cfg(test)]
pub fn bytes_to_pkts(bytes: f64, packet_bytes: f64) -> f64 {
    bytes / packet_bytes
}

/// Convert packets to kilobytes.
pub fn pkts_to_kb(pkts: f64, packet_bytes: f64) -> f64 {
    pkts * packet_bytes / 1000.0
}

/// Convert microseconds to seconds.
pub fn us_to_s(us: f64) -> f64 {
    us * 1e-6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_roundtrip() {
        let pps = gbps_to_pps(10.0, 1000.0);
        assert!((pps - 1.25e6).abs() < 1e-6);
        assert!((pps_to_gbps(pps, 1000.0) - 10.0).abs() < 1e-12);
        assert!((mbps_to_pps(40.0, 1000.0) - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn size_roundtrip() {
        assert!((kb_to_pkts(200.0, 1000.0) - 200.0).abs() < 1e-12);
        assert!((pkts_to_kb(5.0, 1000.0) - 5.0).abs() < 1e-12);
        assert!((bytes_to_pkts(1500.0, 1500.0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_conversion() {
        assert!((us_to_s(55.0) - 55e-6).abs() < 1e-18);
    }

    // Property tests, driven by the deterministic seeded SimRng (the
    // workspace has no external property-testing dependency by design).

    /// Log-uniform sample over `[lo, hi]` — exercises every magnitude.
    fn log_uniform(rng: &mut desim::SimRng, lo: f64, hi: f64) -> f64 {
        (rng.next_f64() * (hi.ln() - lo.ln()) + lo.ln()).exp()
    }

    #[test]
    fn prop_bandwidth_roundtrip_all_magnitudes() {
        let mut rng = desim::SimRng::new(0x5eed_0001);
        for _ in 0..10_000 {
            // 1 Kbps .. 10 Tbps; 64 B .. 64 KB packets.
            let gbps = log_uniform(&mut rng, 1e-6, 1e4);
            let pkt = log_uniform(&mut rng, 64.0, 65536.0);
            let back = pps_to_gbps(gbps_to_pps(gbps, pkt), pkt);
            assert!(
                (back - gbps).abs() <= 1e-12 * gbps,
                "gbps→pps→gbps drifted: {gbps} → {back} (pkt {pkt})"
            );
        }
    }

    #[test]
    fn prop_size_roundtrip_all_magnitudes() {
        let mut rng = desim::SimRng::new(0x5eed_0002);
        for _ in 0..10_000 {
            let kb = log_uniform(&mut rng, 1e-3, 1e9);
            let pkt = log_uniform(&mut rng, 64.0, 65536.0);
            let back = pkts_to_kb(kb_to_pkts(kb, pkt), pkt);
            assert!(
                (back - kb).abs() <= 1e-12 * kb,
                "kb→pkts→kb drifted: {kb} → {back} (pkt {pkt})"
            );
            let bytes = kb * 1000.0;
            let via_bytes = bytes_to_pkts(bytes, pkt);
            let via_kb = kb_to_pkts(kb, pkt);
            assert!(
                (via_bytes - via_kb).abs() <= 1e-9 * via_kb.max(1.0),
                "bytes and kb paths disagree: {via_bytes} vs {via_kb}"
            );
        }
    }

    #[test]
    fn prop_conversions_finite_under_extreme_valid_inputs() {
        // Paper-scale extremes: 100 Tbps fabrics down to dial-up, jumbo
        // frames down to minimum Ethernet, year-long down to picosecond
        // intervals — everything must stay finite and positive.
        let mut rng = desim::SimRng::new(0x5eed_0003);
        for _ in 0..10_000 {
            let gbps = log_uniform(&mut rng, 1e-9, 1e5);
            let pkt = log_uniform(&mut rng, 1.0, 1e6);
            let us = log_uniform(&mut rng, 1e-6, 3.2e13);
            for v in [
                gbps_to_pps(gbps, pkt),
                mbps_to_pps(gbps * 1e3, pkt),
                pps_to_gbps(gbps_to_pps(gbps, pkt), pkt),
                kb_to_pkts(gbps, pkt),
                pkts_to_kb(gbps, pkt),
                bytes_to_pkts(gbps, pkt),
                us_to_s(us),
            ] {
                assert!(v.is_finite() && v > 0.0, "non-finite/non-positive: {v}");
            }
        }
    }

    #[test]
    fn prop_monotone_in_bandwidth() {
        // More Gbps at the same packet size must always mean more pps.
        let mut rng = desim::SimRng::new(0x5eed_0004);
        for _ in 0..1_000 {
            let pkt = log_uniform(&mut rng, 64.0, 9000.0);
            let a = log_uniform(&mut rng, 1e-3, 1e3);
            let b = a * (1.0 + rng.next_f64());
            assert!(gbps_to_pps(b, pkt) > gbps_to_pps(a, pkt));
        }
    }
}
