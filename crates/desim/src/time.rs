//! Integer-nanosecond simulation time.
//!
//! All packet-level simulation state is ordered by [`SimTime`], a `u64`
//! nanosecond counter starting at zero. Using integers (rather than `f64`
//! seconds) makes event ordering exact: two packets scheduled from the same
//! arithmetic always land in the same order on every platform, which is a
//! prerequisite for the reproducibility claims of the experiment harness.

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An absolute point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// Simulation start (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from (possibly fractional) seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid time: {secs}");
        SimTime((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time as floating-point seconds (for plotting / fluid-model interop).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// Saturating difference `self - earlier`, zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// Maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from (possibly fractional) seconds, rounding to the nearest
    /// nanosecond. Panics on negative or non-finite input.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "invalid duration: {secs}");
        SimDuration((secs * 1e9).round() as u64)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration as floating-point seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 * 1e-9
    }

    /// The wire time needed to serialize `bytes` at `bits_per_sec`, rounded
    /// up to the next nanosecond so links never transmit faster than rated.
    ///
    /// This is the single conversion point between "bandwidth" and "time" in
    /// the simulator; keeping it here avoids scattered, slightly different
    /// roundings.
    ///
    /// The ceiling is taken in integers — the truncating cast, plus one if
    /// that fell short — which is bit for bit `x.ceil() as u64` (saturating,
    /// NaN to 0) without a libm call on targets that lack a rounding
    /// instruction.
    #[inline]
    pub fn serialization(bytes: u64, bits_per_sec: f64) -> SimDuration {
        assert!(bits_per_sec > 0.0, "bandwidth must be positive");
        SimDuration(ceil_u64(bytes as f64 * 8.0 * 1e9 / bits_per_sec))
    }
}

/// `x.ceil() as u64` in integer arithmetic. The cast truncates toward zero
/// and saturates (NaN and negatives to 0, 2^64 and up to `u64::MAX`); a
/// truncation that lost a fraction is one short of the ceiling (beyond 2^52
/// every `f64` is an integer, so there it never is). Above 2^64 the cast
/// saturates and the `+ 1` must too.
#[inline]
fn ceil_u64(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from((t as f64) < x))
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(clippy::expect_used, reason = "overflow is a programming error")]
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("SimTime overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "underflow is a programming error")]
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[expect(clippy::expect_used, reason = "underflow is a programming error")]
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_sub(rhs.0).expect("SimTime underflow"))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "overflow is a programming error")]
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[expect(clippy::expect_used, reason = "underflow is a programming error")]
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("negative SimDuration"))
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_micros(5), SimTime::from_nanos(5_000));
        assert_eq!(SimTime::from_millis(2), SimTime::from_nanos(2_000_000));
        assert_eq!(SimDuration::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(SimTime::from_secs_f64(1.5e-6), SimTime::from_nanos(1_500));
    }

    #[test]
    fn arithmetic_roundtrip() {
        let t = SimTime::from_micros(10);
        let d = SimDuration::from_micros(3);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
        let mut u = t;
        u += d;
        assert_eq!(u, t + d);
    }

    #[test]
    #[should_panic(expected = "negative SimDuration")]
    fn negative_duration_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn saturating_since() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.saturating_since(a).as_nanos(), 4);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn serialization_time_rounds_up() {
        // 1000 bytes at 10 Gbps = 800 ns exactly.
        assert_eq!(
            SimDuration::serialization(1000, 10e9),
            SimDuration::from_nanos(800)
        );
        // 1 byte at 3 Gbps = 2.666..ns, must round up to 3.
        assert_eq!(
            SimDuration::serialization(1, 3e9),
            SimDuration::from_nanos(3)
        );
    }

    #[test]
    fn integer_ceiling_matches_f64_ceil() {
        let edges = [
            0.0,
            -0.0,
            -0.5,
            -1.0,
            0.25,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            799.999_999_999_999_9,
            800.0,
            (1u64 << 52) as f64 - 0.5,
            (1u64 << 52) as f64,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 2.0,
            u64::MAX as f64,
            1e20,
            1e300,
            f64::MAX,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            f64::MIN_POSITIVE,
        ];
        for x in edges {
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
        }
        // Seeded draws over every scale the simulator meets and far beyond:
        // random mantissas at exponents 2^-30 .. 2^70, and whole numbers.
        let mut rng = crate::SimRng::new(0xCE11);
        for _ in 0..200_000 {
            let scale = 2f64.powi(rng.next_below(101) as i32 - 30);
            let x = rng.next_f64() * scale;
            assert_eq!(ceil_u64(x), x.ceil() as u64, "{x:e}");
            let n = x.floor();
            assert_eq!(ceil_u64(n), n.ceil() as u64, "{n:e}");
            // Any bit pattern: NaNs, infinities, subnormals, negatives.
            let y = f64::from_bits(rng.next_u64());
            assert_eq!(ceil_u64(y), y.ceil() as u64, "{y:e}");
        }
        // And the quotients `serialization` forms: wire sizes over rates.
        for _ in 0..100_000 {
            let bytes = rng.next_below(1 << 40);
            let bps = 1e3 + rng.next_f64() * 1e12;
            let q = bytes as f64 * 8.0 * 1e9 / bps;
            assert_eq!(
                SimDuration::serialization(bytes, bps).as_nanos(),
                q.ceil() as u64,
                "{bytes} B at {bps} bps"
            );
        }
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_nanos(7)), "7ns");
        assert_eq!(format!("{}", SimDuration::from_micros(55)), "55.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
    }

    #[test]
    fn seconds_conversion() {
        let t = SimTime::from_secs_f64(0.25);
        assert!((t.as_secs_f64() - 0.25).abs() < 1e-12);
    }
}
