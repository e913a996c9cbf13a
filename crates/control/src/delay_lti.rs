//! Delayed LTI systems and transfer-function evaluation.
//!
//! Linearizing a fluid model around its fixed point yields a system
//!
//! ```text
//! δx'(t) = A₀ δx(t) + Σₖ Aₖ δx(t − τₖ) + Σₖ bₖ u(t − τₖ)
//! y(t)   = cᵀ δx(t) + d·u(t)
//! ```
//!
//! whose transfer function at `s` is
//!
//! ```text
//! H(s) = cᵀ (sI − A₀ − Σₖ Aₖ e^{−sτₖ})⁻¹ (Σₖ bₖ e^{−sτₖ}) + d
//! ```
//!
//! For the paper's protocols the per-flow subsystem is 2–3 dimensional:
//! DCQCN has state (R_C, R_T, α) driven by the delayed marking probability
//! `p(t − τ*)`; patched TIMELY has state (R, g) driven by delayed queue
//! lengths. The loop is closed through the shared queue integrator `N/s` and
//! the marking slope — assembled by the models and handed to
//! [`crate::margins`].

use crate::complex::Complex64;

/// A single-input single-output delayed LTI system (see module docs).
#[derive(Debug, Clone)]
pub struct DelayLti {
    /// Undelayed state matrix `A₀` (n×n).
    pub a0: Vec<Vec<f64>>,
    /// Delayed state couplings `(τₖ, Aₖ)`.
    pub delayed_a: Vec<(f64, Vec<Vec<f64>>)>,
    /// Delayed input columns `(τₖ, bₖ)`.
    pub b: Vec<(f64, Vec<f64>)>,
    /// Output row `cᵀ`.
    pub c: Vec<f64>,
    /// Direct feedthrough `d`.
    pub d: f64,
}

impl DelayLti {
    /// State dimension.
    pub fn dim(&self) -> usize {
        self.a0.len()
    }

    /// Validate shapes; panics with a descriptive message on mismatch.
    pub fn validate(&self) {
        let n = self.dim();
        for row in &self.a0 {
            assert_eq!(row.len(), n, "A0 must be square");
        }
        for (tau, a) in &self.delayed_a {
            assert!(*tau >= 0.0, "negative delay");
            assert_eq!(a.len(), n, "Ak row count");
            for row in a {
                assert_eq!(row.len(), n, "Ak must be n x n");
            }
        }
        for (tau, b) in &self.b {
            assert!(*tau >= 0.0, "negative delay");
            assert_eq!(b.len(), n, "b must be length n");
        }
        assert_eq!(self.c.len(), n, "c must be length n");
    }
}

/// Evaluates one [`DelayLti`] system's transfer function.
///
/// A margin search evaluates the same small system at hundreds of
/// frequencies, so the evaluator owns the dense matrix and right-hand-side
/// buffers and rebuilds them in place on every call: no evaluation
/// allocates, and a reused evaluator answers bit for bit what a fresh one
/// would (asserted by this module's tests).
#[derive(Debug, Clone)]
pub struct DelayLtiEvaluator {
    sys: DelayLti,
    m: Vec<Complex64>,
    rhs: Vec<Complex64>,
}

impl DelayLtiEvaluator {
    /// Wrap a validated system.
    pub fn new(sys: DelayLti) -> Self {
        sys.validate();
        let n = sys.dim();
        DelayLtiEvaluator {
            sys,
            m: vec![Complex64::ZERO; n * n],
            rhs: vec![Complex64::ZERO; n],
        }
    }

    /// Evaluate the transfer function `H(s)`.
    ///
    /// Returns `None` when `sI − A(s)` is numerically singular (a pole).
    pub fn transfer(&mut self, s: Complex64) -> Option<Complex64> {
        let sys = &self.sys;
        let n = sys.dim();
        // M = sI - A0 - Σ Ak e^{-s τk}
        let m = &mut self.m;
        m.fill(Complex64::ZERO);
        for i in 0..n {
            m[i * n + i] = s;
            for j in 0..n {
                m[i * n + j] -= Complex64::from_re(sys.a0[i][j]);
            }
        }
        for (tau, a) in &sys.delayed_a {
            let e = (-s * *tau).exp();
            for i in 0..n {
                for j in 0..n {
                    let sub = e * a[i][j];
                    m[i * n + j] -= sub;
                }
            }
        }
        // rhs = Σ bk e^{-s τk}
        let rhs = &mut self.rhs;
        rhs.fill(Complex64::ZERO);
        for (tau, b) in &sys.b {
            let e = (-s * *tau).exp();
            for i in 0..n {
                rhs[i] += e * b[i];
            }
        }
        if !solve_in_place(m, rhs, n) {
            return None;
        }
        let mut y = Complex64::from_re(sys.d);
        for (ci, xi) in sys.c.iter().zip(rhs.iter()).take(n) {
            y += Complex64::from_re(*ci) * *xi;
        }
        Some(y)
    }

    /// Evaluate at `s = jω`.
    pub fn freq_response(&mut self, omega: f64) -> Option<Complex64> {
        self.transfer(Complex64::j(omega))
    }
}

/// Partial-pivoted LU solve of `a · x = x₀` in place, destroying `a` and
/// overwriting `x` with the solution. `a` is row-major `n × n`. Returns
/// `false` (with `a`/`x` in an unspecified state) when the matrix is
/// numerically singular. A dense LU is exact enough for the 2–3 state
/// systems here and keeps the dependency footprint at zero.
pub fn solve_in_place(a: &mut [Complex64], x: &mut [Complex64], n: usize) -> bool {
    assert_eq!(a.len(), n * n, "matrix buffer must be n*n");
    assert_eq!(x.len(), n, "rhs must be length n");
    let idx = |i: usize, j: usize| i * n + j;

    for col in 0..n {
        // Partial pivot.
        let mut pivot = col;
        let mut best = a[idx(col, col)].abs();
        for r in col + 1..n {
            let mag = a[idx(r, col)].abs();
            if mag > best {
                best = mag;
                pivot = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        if pivot != col {
            for j in 0..n {
                a.swap(idx(col, j), idx(pivot, j));
            }
            x.swap(col, pivot);
        }
        let inv = a[idx(col, col)].inv();
        for r in col + 1..n {
            let factor = a[idx(r, col)] * inv;
            if factor.abs() == 0.0 {
                continue;
            }
            for j in col..n {
                let sub = factor * a[idx(col, j)];
                a[idx(r, j)] -= sub;
            }
            let sub = factor * x[col];
            x[r] -= sub;
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = x[col];
        for j in col + 1..n {
            acc -= a[idx(col, j)] * x[j];
        }
        x[col] = acc / a[idx(col, col)];
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `H(jω)` through a fresh evaluator.
    fn response(sys: &DelayLti, omega: f64) -> Option<Complex64> {
        DelayLtiEvaluator::new(sys.clone()).freq_response(omega)
    }

    /// First-order lag: x' = -a x + a u, y = x → H(s) = a/(s+a).
    fn first_order(a: f64) -> DelayLti {
        DelayLti {
            a0: vec![vec![-a]],
            delayed_a: vec![],
            b: vec![(0.0, vec![a])],
            c: vec![1.0],
            d: 0.0,
        }
    }

    #[test]
    fn first_order_lag_magnitude_and_phase() {
        let sys = first_order(10.0);
        // At ω = a, |H| = 1/√2 and phase = -45°.
        let h = response(&sys, 10.0).unwrap();
        assert!((h.abs() - std::f64::consts::FRAC_1_SQRT_2).abs() < 1e-12);
        assert!((h.arg().to_degrees() + 45.0).abs() < 1e-9);
        // DC gain is 1.
        let dc = response(&sys, 0.0).unwrap();
        assert!((dc - Complex64::ONE).abs() < 1e-12);
    }

    #[test]
    fn pure_delay_in_input_rotates_phase_only() {
        let tau = 0.01;
        let mut sys = first_order(10.0);
        sys.b[0].0 = tau;
        let without = response(&first_order(10.0), 5.0).unwrap();
        let with = response(&sys, 5.0).unwrap();
        assert!((with.abs() - without.abs()).abs() < 1e-12);
        let dphase = with.arg() - without.arg();
        assert!((dphase + 5.0 * tau).abs() < 1e-12, "phase shift {dphase}");
    }

    #[test]
    fn delayed_state_feedback_matches_analytic() {
        // x' = -x(t - τ), H(s) = e^{-sτ}/(s + e^{-sτ}) for y = x, u → x' += u(t-τ)
        let tau = 0.5;
        let sys = DelayLti {
            a0: vec![vec![0.0]],
            delayed_a: vec![(tau, vec![vec![-1.0]])],
            b: vec![(tau, vec![1.0])],
            c: vec![1.0],
            d: 0.0,
        };
        let w = 2.0;
        let s = Complex64::j(w);
        let e = (-s * tau).exp();
        let expect = e / (s + e);
        let got = response(&sys, w).unwrap();
        assert!((got - expect).abs() < 1e-12);
    }

    #[test]
    fn integrator_pole_detected_at_zero() {
        // x' = u, y = x → H = 1/s: singular at s = 0.
        let sys = DelayLti {
            a0: vec![vec![0.0]],
            delayed_a: vec![],
            b: vec![(0.0, vec![1.0])],
            c: vec![1.0],
            d: 0.0,
        };
        assert!(response(&sys, 0.0).is_none());
        let h = response(&sys, 4.0).unwrap();
        assert!((h.abs() - 0.25).abs() < 1e-12);
        assert!((h.arg().to_degrees() + 90.0).abs() < 1e-9);
    }

    #[test]
    fn two_state_resonator() {
        // x1' = x2; x2' = -ω0² x1 + u; y = x1 → H = 1/(s² + ω0²).
        let w0 = 3.0;
        let sys = DelayLti {
            a0: vec![vec![0.0, 1.0], vec![-w0 * w0, 0.0]],
            delayed_a: vec![],
            b: vec![(0.0, vec![0.0, 1.0])],
            c: vec![1.0, 0.0],
            d: 0.0,
        };
        let h = response(&sys, 1.0).unwrap();
        assert!((h.abs() - 1.0 / (w0 * w0 - 1.0)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "negative delay")]
    fn negative_delay_rejected() {
        let sys = DelayLti {
            a0: vec![vec![0.0]],
            delayed_a: vec![(-0.1, vec![vec![1.0]])],
            b: vec![],
            c: vec![1.0],
            d: 0.0,
        };
        sys.validate();
    }

    #[test]
    #[should_panic(expected = "c must be length n")]
    fn shape_mismatch_rejected() {
        let sys = DelayLti {
            a0: vec![vec![0.0]],
            delayed_a: vec![],
            b: vec![],
            c: vec![1.0, 2.0],
            d: 0.0,
        };
        sys.validate();
    }

    #[test]
    fn feedthrough_adds() {
        let mut sys = first_order(1.0);
        sys.d = 2.0;
        let dc = response(&sys, 0.0).unwrap();
        assert!((dc.re - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reused_evaluator_is_bitwise_identical_to_fresh_ones() {
        // Every term: delayed A, two delayed b columns, feedthrough, 2
        // states. Column 0 of A₀ and A₁ is zero, so ω = 0 is a pole; the
        // sweep passes it several times and must recover after each.
        let sys = DelayLti {
            a0: vec![vec![0.0, 1.2], vec![0.0, -2.0]],
            delayed_a: vec![(0.05, vec![vec![0.0, 0.3], vec![0.0, -0.2]])],
            b: vec![(0.01, vec![1.0, 0.0]), (0.07, vec![0.0, 3.0])],
            c: vec![1.0, -0.5],
            d: 0.25,
        };
        let mut reused = DelayLtiEvaluator::new(sys.clone());
        let mut poles = 0;
        for k in 0..200 {
            let omega = if k % 50 == 25 {
                0.0
            } else {
                1e-2 * 1.1f64.powi(k)
            };
            match (response(&sys, omega), reused.freq_response(omega)) {
                (Some(x), Some(y)) => {
                    assert_eq!(x.re.to_bits(), y.re.to_bits(), "re at omega={omega}");
                    assert_eq!(x.im.to_bits(), y.im.to_bits(), "im at omega={omega}");
                }
                (None, None) => poles += 1,
                _ => panic!("pole detection diverged at omega={omega}"),
            }
        }
        assert_eq!(poles, 4, "the pole at ω = 0 is found every time");
    }

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    /// Solve `rows · x = b` with [`solve_in_place`] on copies.
    fn solve(rows: &[Vec<Complex64>], b: &[Complex64]) -> Option<Vec<Complex64>> {
        let mut a: Vec<Complex64> = rows.concat();
        let mut x = b.to_vec();
        solve_in_place(&mut a, &mut x, b.len()).then_some(x)
    }

    fn real(rows: &[&[f64]]) -> Vec<Vec<Complex64>> {
        rows.iter()
            .map(|r| r.iter().map(|&v| Complex64::from_re(v)).collect())
            .collect()
    }

    #[test]
    fn identity_solve_is_identity() {
        let m = real(&[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]]);
        let b = vec![c(1.0, 2.0), c(3.0, 4.0), c(5.0, 6.0)];
        assert_eq!(solve(&m, &b).unwrap(), b);
    }

    #[test]
    fn solve_real_system() {
        // [2 1; 1 3] x = [5; 10] -> x = [1; 3]
        let m = real(&[&[2.0, 1.0], &[1.0, 3.0]]);
        let x = solve(&m, &[c(5.0, 0.0), c(10.0, 0.0)]).unwrap();
        assert!((x[0] - c(1.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(3.0, 0.0)).abs() < 1e-12);
    }

    #[test]
    fn solve_complex_system_roundtrip() {
        // A fixed, well-conditioned complex matrix.
        let m = vec![
            vec![c(2.0, 1.0), c(0.5, -0.3), c(0.0, 0.2)],
            vec![c(-1.0, 0.4), c(3.0, 0.0), c(0.7, 0.7)],
            vec![c(0.2, -0.2), c(0.1, 1.0), c(4.0, -1.0)],
        ];
        let x_true = [c(1.0, -1.0), c(0.5, 2.0), c(-3.0, 0.25)];
        let b: Vec<Complex64> = m
            .iter()
            .map(|row| {
                row.iter()
                    .zip(&x_true)
                    .fold(Complex64::ZERO, |acc, (&a, &x)| acc + a * x)
            })
            .collect();
        let x = solve(&m, &b).unwrap();
        for (got, want) in x.iter().zip(&x_true) {
            assert!((*got - *want).abs() < 1e-10);
        }
    }

    #[test]
    fn singular_detected() {
        let m = real(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(solve(&m, &[c(1.0, 0.0), c(2.0, 0.0)]).is_none());
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        // Leading zero requires a row swap.
        let m = real(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = solve(&m, &[c(3.0, 0.0), c(7.0, 0.0)]).unwrap();
        assert!((x[0] - c(7.0, 0.0)).abs() < 1e-12);
        assert!((x[1] - c(3.0, 0.0)).abs() < 1e-12);
    }
}
