//! Numerical linearization via central finite differences.
//!
//! The paper linearizes each fluid model by hand (Appendix A, Eq 33). We
//! differentiate the model's right-hand side numerically at the fixed point
//! instead: for a RHS written as `f(x, x_delayed, u_delayed)`, the Jacobians
//! `∂f/∂x`, `∂f/∂x_delayed` and `∂f/∂u` are exactly the `A₀`, `Aₖ` and `bₖ`
//! blocks of the [`crate::DelayLti`] system. Central differences with a
//! relative step give ~8 significant digits, far more than the phase-margin
//! plots need, and eliminate an entire class of algebra bugs.

/// Central-difference Jacobian of `f: R^n → R^m` at `x`.
///
/// `f` writes its output into the provided slice (length `m`).
pub fn jacobian<F>(mut f: F, x: &[f64], m: usize) -> Vec<Vec<f64>>
where
    F: FnMut(&[f64], &mut [f64]),
{
    let n = x.len();
    let mut jac = vec![vec![0.0; n]; m];
    let mut xp = x.to_vec();
    let mut fp = vec![0.0; m];
    let mut fm = vec![0.0; m];
    for j in 0..n {
        let h = step_for(x[j]);
        xp[j] = x[j] + h;
        f(&xp, &mut fp);
        xp[j] = x[j] - h;
        f(&xp, &mut fm);
        xp[j] = x[j];
        for i in 0..m {
            jac[i][j] = (fp[i] - fm[i]) / (2.0 * h);
        }
    }
    jac
}

/// Central-difference derivative of `f: R → R^m` at `u` (a Jacobian column).
pub fn derivative_column<F>(mut f: F, u: f64, m: usize) -> Vec<f64>
where
    F: FnMut(f64, &mut [f64]),
{
    let h = step_for(u);
    let mut fp = vec![0.0; m];
    let mut fm = vec![0.0; m];
    f(u + h, &mut fp);
    f(u - h, &mut fm);
    (0..m).map(|i| (fp[i] - fm[i]) / (2.0 * h)).collect()
}

/// A step that balances truncation and rounding error: `h ≈ ε^{1/3}·scale`.
fn step_for(x: f64) -> f64 {
    let scale = x.abs().max(1e-8);
    scale * 6e-6 // ≈ cbrt(f64::EPSILON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jacobian_of_linear_map_is_exact() {
        // f(x) = A x with A = [[1,2],[3,4],[5,6]].
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] + 2.0 * x[1];
            out[1] = 3.0 * x[0] + 4.0 * x[1];
            out[2] = 5.0 * x[0] + 6.0 * x[1];
        };
        let j = jacobian(f, &[0.7, -1.3], 3);
        let expect = [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]];
        for i in 0..3 {
            for k in 0..2 {
                assert!((j[i][k] - expect[i][k]).abs() < 1e-7, "J[{i}][{k}]");
            }
        }
    }

    #[test]
    fn jacobian_of_nonlinear_map() {
        // f(x, y) = (x², x·y): J = [[2x, 0], [y, x]].
        let f = |x: &[f64], out: &mut [f64]| {
            out[0] = x[0] * x[0];
            out[1] = x[0] * x[1];
        };
        let j = jacobian(f, &[2.0, 3.0], 2);
        assert!((j[0][0] - 4.0).abs() < 1e-6);
        assert!(j[0][1].abs() < 1e-6);
        assert!((j[1][0] - 3.0).abs() < 1e-6);
        assert!((j[1][1] - 2.0).abs() < 1e-6);
    }

    #[test]
    fn derivative_column_of_exponential() {
        let col = derivative_column(
            |u: f64, out: &mut [f64]| {
                out[0] = u.exp();
                out[1] = (2.0 * u).sin();
            },
            0.5,
            2,
        );
        assert!((col[0] - 0.5f64.exp()).abs() < 1e-6);
        assert!((col[1] - 2.0 * 1.0f64.cos()).abs() < 1e-6);
    }

    #[test]
    fn handles_tiny_operating_points() {
        // The DCQCN fixed point has p* ~ 1e-3; the step heuristic must not
        // underflow to a zero step there.
        let square = |p: f64, out: &mut [f64]| out[0] = p * p;
        let d = derivative_column(square, 1e-3, 1);
        assert!((d[0] - 2e-3).abs() < 1e-9);
        let d = derivative_column(square, 0.0, 1);
        assert!(d[0].abs() < 1e-9);
    }
}
