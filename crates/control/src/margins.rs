//! Gain crossover and phase-margin computation.
//!
//! The paper's stability figures (3 and 11) plot the **phase margin** of the
//! linearized control loop: "A stable system must have negative Gain (in dB)
//! when there is a small oscillation around the fixed point […] Phase Margin
//! is defined as how far the system is from the 0 dB Gain state."
//!
//! Given the open-loop response `L(jω)` (a closure, so callers can assemble
//! arbitrary loops from [`crate::DelayLti`] blocks, integrators and marking
//! gains), [`phase_margin`] walks an adaptive log-ω grid, **unwraps the
//! phase** (delay terms wind it through many multiples of −180°), locates
//! every 0 dB crossing by bisection, and reports the minimum phase margin
//! across crossings — the conservative choice when delays produce multiple
//! crossovers, which is exactly the regime behind DCQCN's non-monotonic
//! stability.

use crate::complex::Complex64;

/// Why a search found no unity-gain crossing (`phase_margin_deg == None`).
///
/// A silent `None` would conflate two very different situations: a loop
/// whose gain never reaches 0 dB (genuinely gain-stable for any phase) and a
/// grid whose `[omega_min, omega_max]` range simply missed the crossing.
/// The diagnostic makes the distinction explicit so callers can widen the
/// grid instead of mistaking a truncated search for stability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoCrossing {
    /// `|L| < 1` over the entire grid: the loop is gain-stable for any
    /// phase. This is the only variant [`MarginReport::is_stable`] treats
    /// as stable.
    AllBelowUnity,
    /// `|L| > 1` over the entire grid: the unity-gain crossing lies outside
    /// `[omega_min, omega_max]`. The search says nothing about stability —
    /// widen the grid. Reported as *not* stable.
    AllAboveUnity,
    /// The loop returned no finite samples on the grid at all (poles or
    /// NaNs everywhere). Reported as *not* stable.
    EmptyGrid,
}

/// Result of a margin analysis.
#[derive(Debug, Clone)]
pub struct MarginReport {
    /// Phase margin (degrees) at the worst crossover; `None` when the grid
    /// bracketed no 0 dB crossing — see `no_crossing` for why.
    pub phase_margin_deg: Option<f64>,
    /// Present exactly when `phase_margin_deg` is `None`: the reason the
    /// grid bracketed no unity-gain crossing.
    pub no_crossing: Option<NoCrossing>,
}

impl MarginReport {
    /// A positive phase margin means stable. With no crossover at all, only
    /// the [`NoCrossing::AllBelowUnity`] diagnosis (gain below 0 dB on the
    /// whole grid) counts as stable; a grid that sat entirely above 0 dB
    /// missed the crossing and must not be reported as stable.
    pub fn is_stable(&self) -> bool {
        match self.phase_margin_deg {
            Some(pm) => pm > 0.0,
            None => matches!(self.no_crossing, Some(NoCrossing::AllBelowUnity)),
        }
    }
}

/// One accepted grid point: frequency, gain and unwrapped phase.
#[derive(Debug, Clone, Copy)]
struct Knot {
    /// Angular frequency (rad/s).
    omega: f64,
    /// Gain in dB.
    gain_db: f64,
    /// Unwrapped phase in degrees.
    phase_deg: f64,
}

impl Knot {
    /// The knot of a raw `(log ω, gain dB, wrapped phase)` sample, unwrapped
    /// by `offset` degrees.
    fn new((lg, gain_db, phase): (f64, f64, f64), offset: f64) -> Knot {
        Knot {
            omega: lg.exp(),
            gain_db,
            phase_deg: phase + offset,
        }
    }
}

/// Wrap a phase step `d` (degrees) into `[−180°, 180°]`, adding to `turns`
/// the multiples of 360° it took.
fn wrap(mut d: f64, turns: &mut f64) -> f64 {
    while d > 180.0 {
        d -= 360.0;
        *turns -= 360.0;
    }
    while d < -180.0 {
        d += 360.0;
        *turns += 360.0;
    }
    d
}

/// Phase margin of the loop `l` over `[omega_min, omega_max]`.
///
/// `points` is the *resolution floor*: the walk never takes a log-ω step
/// finer than that of `points` uniformly spaced samples. It starts at 8×
/// that spacing and subdivides only where it matters: a step that brackets
/// a 0 dB crossing is refined down to ≤ 4× the base spacing before it is
/// accepted, steps near unity gain must keep the wrapped phase change
/// ≤ 45° and the gain change ≤ 3 dB, and far-field steps only require the
/// gain change ≤ 10 dB (phase aliasing far from 0 dB cannot affect the
/// margin). Accepted steps grow back geometrically up to 64× base. A pole
/// or NaN sample is stepped over.
///
/// ```
/// use control::complex::Complex64;
/// use control::margins::phase_margin;
///
/// // L(s) = 1/(s(s+1)): the classic type-1 loop, PM ≈ 51.8°.
/// let l = |w: f64| Some(Complex64::ONE / (Complex64::j(w) * (Complex64::j(w) + Complex64::ONE)));
/// let rep = phase_margin(l, 1e-3, 1e3, 2000);
/// assert!(rep.is_stable());
/// assert!((rep.phase_margin_deg.unwrap() - 51.8).abs() < 0.5);
/// ```
pub fn phase_margin<F>(mut l: F, omega_min: f64, omega_max: f64, points: usize) -> MarginReport
where
    F: FnMut(f64) -> Option<Complex64>,
{
    assert!(omega_min > 0.0 && omega_max > omega_min && points >= 16);
    let log_min = omega_min.ln();
    let log_max = omega_max.ln();
    let base = (log_max - log_min) / (points - 1) as f64;
    let max_step = base * 64.0;

    // A raw sample: (log ω, gain dB, wrapped phase deg), or None at a pole.
    let mut sample = |lg: f64| -> Option<(f64, f64, f64)> {
        let z = l(lg.exp())?;
        if z.is_nan() {
            return None;
        }
        Some((lg, 20.0 * z.abs().log10(), z.arg().to_degrees()))
    };

    // Seed: the first finite sample at or after log_min, stepping by base.
    let mut lg = log_min;
    let mut cur = loop {
        if let Some(s) = sample(lg) {
            break s;
        }
        lg += base;
        if lg > log_max {
            return MarginReport {
                phase_margin_deg: None,
                no_crossing: Some(NoCrossing::EmptyGrid),
            };
        }
    };
    let mut offset = 0.0;
    let mut knots = Vec::with_capacity(points / 4);
    knots.push(Knot::new(cur, offset));

    let mut step = base * 8.0;
    while cur.0 < log_max - base * 1e-9 {
        step = step.min(log_max - cur.0).max(base.min(log_max - cur.0));
        loop {
            let lg_next = cur.0 + step;
            let at_floor = step <= base * 1.000001;
            let Some(next) = sample(lg_next) else {
                cur = (lg_next, cur.1, cur.2);
                break;
            };
            let mut turns = 0.0;
            let dphase = wrap(next.2 - cur.2, &mut turns).abs();
            let crossing = (cur.1 > 0.0) != (next.1 > 0.0);
            let near_unity = cur.1.abs().min(next.1.abs()) < 12.0;
            let dgain = (next.1 - cur.1).abs();
            let ok = if crossing {
                step <= base * 4.000001
            } else if near_unity {
                dphase <= 45.0 && dgain <= 3.0
            } else {
                dgain <= 10.0
            };
            if ok || at_floor {
                offset += turns;
                knots.push(Knot::new(next, offset));
                cur = next;
                step = (step * 1.7).min(max_step);
                break;
            }
            step = (step / 2.0).max(base);
        }
    }

    report(&mut l, &knots)
}

/// The back half of the margin analysis: locate the 0 dB crossings on an
/// unwrapped grid, bisect each, and diagnose the no-crossing case.
fn report<F>(l: &mut F, knots: &[Knot]) -> MarginReport
where
    F: FnMut(f64) -> Option<Complex64>,
{
    // Locate 0 dB crossings (gain falling or rising through 0).
    let mut pms = Vec::new();
    for w in knots.windows(2) {
        let (p0, p1) = (w[0], w[1]);
        if (p0.gain_db > 0.0) == (p1.gain_db > 0.0) {
            continue;
        }
        // Bisect in log-ω for the crossing.
        let mut lo = p0.omega;
        let mut hi = p1.omega;
        for _ in 0..60 {
            let mid = ((lo.ln() + hi.ln()) / 2.0).exp();
            let g = l(mid).map(|z| 20.0 * z.abs().log10()).unwrap_or(0.0);
            if (g > 0.0) == (p0.gain_db > 0.0) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let wc = (lo * hi).sqrt();
        if let Some(z) = l(wc) {
            // Take the branch of the raw phase at crossover nearest the
            // unwrapped phase interpolated between the bracketing knots.
            let approx = p0.phase_deg
                + (p1.phase_deg - p0.phase_deg)
                    * ((wc.ln() - p0.omega.ln()) / (p1.omega.ln() - p0.omega.ln()));
            let mut phase = z.arg().to_degrees();
            while phase - approx > 180.0 {
                phase -= 360.0;
            }
            while phase - approx < -180.0 {
                phase += 360.0;
            }
            pms.push(180.0 + phase);
        }
    }
    let phase_margin_deg = pms.iter().copied().min_by(|a, b| a.total_cmp(b));

    // Diagnose the no-crossing case so callers can tell "gain-stable" from
    // "the grid missed the crossing".
    let no_crossing = if phase_margin_deg.is_some() {
        None
    } else if knots.is_empty() {
        Some(NoCrossing::EmptyGrid)
    } else if knots.iter().all(|p| p.gain_db <= 0.0) {
        Some(NoCrossing::AllBelowUnity)
    } else {
        Some(NoCrossing::AllAboveUnity)
    };

    MarginReport {
        phase_margin_deg,
        no_crossing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The uniform sweep the adaptive walk is held to: `points` log-spaced
    /// samples, unwrapped, through the same crossing search.
    fn uniform<F>(mut l: F, omega_min: f64, omega_max: f64, points: usize) -> MarginReport
    where
        F: FnMut(f64) -> Option<Complex64>,
    {
        let (log_min, log_max) = (omega_min.ln(), omega_max.ln());
        let mut knots = Vec::with_capacity(points);
        let mut prev: Option<f64> = None;
        let mut offset = 0.0;
        for k in 0..points {
            let lg = log_min + (log_max - log_min) * k as f64 / (points - 1) as f64;
            let Some(z) = l(lg.exp()).filter(|z| !z.is_nan()) else {
                continue;
            };
            let raw = z.arg().to_degrees();
            if let Some(p) = prev {
                wrap(raw - p, &mut offset);
            }
            prev = Some(raw);
            knots.push(Knot::new((lg, 20.0 * z.abs().log10(), raw), offset));
        }
        report(&mut l, &knots)
    }

    /// L(s) = K / (s (s+1)): classic type-1 loop with analytic margins.
    fn type1(k: f64) -> impl Fn(f64) -> Option<Complex64> {
        move |omega: f64| {
            let s = Complex64::j(omega);
            Some(Complex64::from_re(k) / (s * (s + Complex64::ONE)))
        }
    }

    /// L(s) = e^{-sT} / (s (s+1)).
    fn with_delay(t: f64) -> impl Fn(f64) -> Option<Complex64> {
        move |omega: f64| {
            let s = Complex64::j(omega);
            Some((-s * t).exp() / (s * (s + Complex64::ONE)))
        }
    }

    #[test]
    fn integrator_lag_phase_margin_matches_analytic() {
        // For L = 1/(s(s+1)): ω_c solves ω²(ω²+1)=1 → ω_c² = (√5 − 1)/2,
        // PM = 180 − 90 − atan(ω_c) ≈ 51.83°.
        let wc = ((5.0f64.sqrt() - 1.0) / 2.0).sqrt();
        let rep = phase_margin(type1(1.0), 1e-3, 1e3, 2000);
        let pm = rep.phase_margin_deg.unwrap();
        assert!(
            (pm - (90.0 - wc.atan().to_degrees())).abs() < 1e-6,
            "pm = {pm}"
        );
        assert!(rep.is_stable());
    }

    #[test]
    fn high_gain_reduces_margin() {
        let pm1 = phase_margin(type1(1.0), 1e-3, 1e3, 1500)
            .phase_margin_deg
            .unwrap();
        let pm10 = phase_margin(type1(10.0), 1e-3, 1e3, 1500)
            .phase_margin_deg
            .unwrap();
        assert!(pm10 < pm1);
        assert!(pm10 > 0.0, "type-1 second-order loop is always stable");
    }

    #[test]
    fn delay_destabilizes() {
        // L = e^{-sT}/(s(s+1)) with big T goes unstable.
        let pm_small = phase_margin(with_delay(0.1), 1e-3, 1e3, 2000)
            .phase_margin_deg
            .unwrap();
        let rep_big = phase_margin(with_delay(5.0), 1e-3, 1e3, 2000);
        let pm_big = rep_big.phase_margin_deg.unwrap();
        assert!(pm_small > 0.0);
        assert!(pm_big < 0.0, "pm with 5 s delay = {pm_big}");
        assert!(!rep_big.is_stable());
    }

    #[test]
    fn no_crossover_reports_none_and_stable() {
        // |L| = 0.1/(1+ω²)^{1/2} < 1 everywhere.
        let l = |omega: f64| Some(Complex64::from_re(0.1) / (Complex64::j(omega) + Complex64::ONE));
        let rep = phase_margin(l, 1e-2, 1e2, 500);
        assert!(rep.phase_margin_deg.is_none());
        assert!(rep.is_stable());
        assert_eq!(rep.no_crossing, Some(NoCrossing::AllBelowUnity));
    }

    #[test]
    fn grid_missing_the_crossing_is_diagnosed_not_silently_stable() {
        // L = 100/(s+1) has its unity-gain crossing at ω ≈ 100, far outside
        // the [1e-3, 1e-1] grid: |L| ≈ 40 dB over the whole of it. This
        // must NOT be reported as stable.
        let l =
            |omega: f64| Some(Complex64::from_re(100.0) / (Complex64::j(omega) + Complex64::ONE));
        for rep in [
            uniform(l, 1e-3, 1e-1, 100),
            phase_margin(l, 1e-3, 1e-1, 100),
        ] {
            assert!(rep.phase_margin_deg.is_none());
            assert_eq!(rep.no_crossing, Some(NoCrossing::AllAboveUnity));
            assert!(
                !rep.is_stable(),
                "a truncated search must not claim stability"
            );
        }
        // Widening the grid to cover the crossing resolves the diagnosis.
        let rep = phase_margin(l, 1e-3, 1e4, 2000);
        assert!(rep.phase_margin_deg.is_some());
        assert!(rep.no_crossing.is_none());
    }

    #[test]
    fn adaptive_matches_uniform_on_reference_loops() {
        // Type-1 loop, with the number of evaluations each search spends.
        let (mut n_u, mut n_a) = (0, 0);
        let l = type1(1.0);
        let pm_u = uniform(
            |w| {
                n_u += 1;
                l(w)
            },
            1e-3,
            1e3,
            2000,
        )
        .phase_margin_deg
        .unwrap();
        let pm_a = phase_margin(
            |w| {
                n_a += 1;
                l(w)
            },
            1e-3,
            1e3,
            2000,
        )
        .phase_margin_deg
        .unwrap();
        assert!(
            (pm_a - pm_u).abs() < 1e-6,
            "uniform {pm_u} vs adaptive {pm_a}"
        );
        // The adaptive grid must actually be much smaller.
        assert!(
            n_a * 3 < n_u,
            "adaptive used {n_a} evaluations vs uniform {n_u}"
        );

        // Delay loop with a negative margin (the regime fig3 lives in).
        let pm_u = uniform(with_delay(5.0), 1e-3, 1e3, 2000)
            .phase_margin_deg
            .unwrap();
        let pm_a = phase_margin(with_delay(5.0), 1e-3, 1e3, 2000)
            .phase_margin_deg
            .unwrap();
        assert!(pm_a < 0.0, "delay loop must stay unstable: {pm_a}");
        assert!(
            (pm_a - pm_u).abs() < 1e-6,
            "uniform {pm_u} vs adaptive {pm_a}"
        );

        // Third-order loop L = 2/(s+1)³.
        let l3 = |omega: f64| {
            let den = Complex64::j(omega) + Complex64::ONE;
            Some(Complex64::from_re(2.0) / (den * den * den))
        };
        let pm_u = uniform(l3, 1e-3, 1e3, 4000).phase_margin_deg.unwrap();
        let pm_a = phase_margin(l3, 1e-3, 1e3, 4000).phase_margin_deg.unwrap();
        assert!(
            (pm_a - pm_u).abs() < 1e-6,
            "uniform {pm_u} vs adaptive {pm_a}"
        );
    }

    #[test]
    fn phase_unwrapping_is_monotone_for_pure_delay() {
        // L = K e^{-s}/s: |L| = 1 at ω = K, where the phase is
        // −90° − K·(180/π), so PM = 90° − K·180°/π. At K = 1 that is
        // ≈ 32.70°; at K = 10 the phase has wound past −360° before the
        // crossing, and only a monotone unwrap reads the margin right.
        for k in [1.0, 10.0] {
            let l = |omega: f64| {
                let s = Complex64::j(omega);
                Some((-s).exp().scale(k) / s)
            };
            let want = 90.0 - k * 180.0 / std::f64::consts::PI;
            for pm in [
                phase_margin(l, 1e-2, 1e2, 3000).phase_margin_deg.unwrap(),
                uniform(l, 1e-2, 1e2, 3000).phase_margin_deg.unwrap(),
            ] {
                assert!((pm - want).abs() < 1e-6, "K = {k}: pm {pm} vs {want}");
            }
        }
    }
}
