//! Scalar root finding for fixed-point equations.
//!
//! Theorem 1 reduces DCQCN's fixed point to one scalar equation (Eq 11) whose
//! left-hand side is monotone in `p` on (0, 1), so any bracket holds exactly
//! one root. [`brent`] finds it in a handful of evaluations; this module's
//! tests hold it to plain bisection.

/// Error from a failed root search.
#[derive(Debug, Clone, PartialEq)]
pub enum RootError {
    /// `f(a)` and `f(b)` have the same sign — no bracketed root.
    NoBracket {
        /// f at the left endpoint.
        fa: f64,
        /// f at the right endpoint.
        fb: f64,
    },
    /// The function returned NaN during the search.
    NotFinite,
}

impl std::fmt::Display for RootError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RootError::NoBracket { fa, fb } => {
                write!(f, "no sign change in bracket: f(a)={fa}, f(b)={fb}")
            }
            RootError::NotFinite => write!(f, "function returned a non-finite value"),
        }
    }
}

impl std::error::Error for RootError {}

/// Brent's method on `[a, b]` down to interval width `tol`: inverse-quadratic
/// interpolation with bisection fallback. Requires a sign change; typically
/// 5–10× fewer evaluations than bisection for smooth functions.
pub fn brent<F>(mut f: F, mut a: f64, mut b: f64, tol: f64) -> Result<f64, RootError>
where
    F: FnMut(f64) -> f64,
{
    assert!(tol > 0.0);
    let mut fa = f(a);
    let mut fb = f(b);
    if !fa.is_finite() || !fb.is_finite() {
        return Err(RootError::NotFinite);
    }
    if fa == 0.0 {
        return Ok(a);
    }
    if fb == 0.0 {
        return Ok(b);
    }
    if fa.signum() == fb.signum() {
        return Err(RootError::NoBracket { fa, fb });
    }
    if fa.abs() < fb.abs() {
        std::mem::swap(&mut a, &mut b);
        std::mem::swap(&mut fa, &mut fb);
    }
    let mut c = a;
    let mut fc = fa;
    let mut d = b - a;
    let mut mflag = true;
    for _ in 0..200 {
        if fb == 0.0 || (b - a).abs() < tol {
            return Ok(b);
        }
        let mut s;
        if fa != fc && fb != fc {
            // Inverse quadratic interpolation.
            s = a * fb * fc / ((fa - fb) * (fa - fc))
                + b * fa * fc / ((fb - fa) * (fb - fc))
                + c * fa * fb / ((fc - fa) * (fc - fb));
        } else {
            // Secant.
            s = b - fb * (b - a) / (fb - fa);
        }
        let cond_range = {
            let lo = (3.0 * a + b) / 4.0;
            let (lo, hi) = if lo < b { (lo, b) } else { (b, lo) };
            s < lo || s > hi
        };
        let cond_progress = if mflag {
            (s - b).abs() >= (b - c).abs() / 2.0
        } else {
            (s - b).abs() >= (c - d).abs() / 2.0
        };
        let cond_tol = if mflag {
            (b - c).abs() < tol
        } else {
            (c - d).abs() < tol
        };
        if cond_range || cond_progress || cond_tol {
            s = 0.5 * (a + b);
            mflag = true;
        } else {
            mflag = false;
        }
        let fs = f(s);
        if !fs.is_finite() {
            return Err(RootError::NotFinite);
        }
        d = c;
        c = b;
        fc = fb;
        if fa.signum() != fs.signum() {
            b = s;
            fb = fs;
        } else {
            a = s;
            fa = fs;
        }
        if fa.abs() < fb.abs() {
            std::mem::swap(&mut a, &mut b);
            std::mem::swap(&mut fa, &mut fb);
        }
    }
    Ok(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bisection on `[a, b]` down to interval width `tol`: the oracle [`brent`]
    /// is held to. Requires a sign change; returns the midpoint of the final
    /// interval.
    fn bisect<F>(mut f: F, mut a: f64, mut b: f64, tol: f64) -> Result<f64, RootError>
    where
        F: FnMut(f64) -> f64,
    {
        assert!(b > a && tol > 0.0);
        let mut fa = f(a);
        let fb = f(b);
        if !fa.is_finite() || !fb.is_finite() {
            return Err(RootError::NotFinite);
        }
        if fa == 0.0 {
            return Ok(a);
        }
        if fb == 0.0 {
            return Ok(b);
        }
        if fa.signum() == fb.signum() {
            return Err(RootError::NoBracket { fa, fb });
        }
        while b - a > tol {
            let mid = 0.5 * (a + b);
            let fm = f(mid);
            if !fm.is_finite() {
                return Err(RootError::NotFinite);
            }
            if fm == 0.0 {
                return Ok(mid);
            }
            if fm.signum() == fa.signum() {
                a = mid;
                fa = fm;
            } else {
                b = mid;
            }
        }
        Ok(0.5 * (a + b))
    }

    #[test]
    fn brent_sqrt2() {
        let r = brent(|x| x * x - 2.0, 0.0, 2.0, 1e-12).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-11);
    }

    #[test]
    fn brent_detects_missing_bracket() {
        let e = brent(|x| x * x + 1.0, -1.0, 1.0, 1e-9).unwrap_err();
        assert!(matches!(e, RootError::NoBracket { .. }));
    }

    #[test]
    fn brent_exact_endpoint_root() {
        assert_eq!(brent(|x| x, 0.0, 1.0, 1e-9).unwrap(), 0.0);
        assert_eq!(brent(|x| x - 1.0, 0.0, 1.0, 1e-9).unwrap(), 1.0);
    }

    #[test]
    fn brent_matches_bisect() {
        let f = |x: f64| x.exp() - 3.0;
        let rb = bisect(f, 0.0, 2.0, 1e-13).unwrap();
        let rr = brent(f, 0.0, 2.0, 1e-13).unwrap();
        assert!((rb - 3.0f64.ln()).abs() < 1e-10);
        assert!((rr - rb).abs() < 1e-12, "brent {rr} vs bisect {rb}");
    }

    #[test]
    fn brent_on_steep_function() {
        // Steep cubic: root at 0.01.
        let f = |x: f64| (x - 0.01).powi(3) * 1e9;
        let r = brent(f, -1.0, 1.0, 1e-12).unwrap();
        assert!((r - 0.01).abs() < 1e-4, "r = {r}");
    }

    #[test]
    fn brent_handles_monotone_eq11_shape() {
        // Shape like the paper's Eq 11: g(p) = LHS(p) − RHS, monotone
        // increasing, root near small p.
        let rhs = 1e-4;
        let f = |p: f64| p * p * p / (1.0 - p).max(1e-12) - rhs;
        let r = brent(f, 1e-12, 0.5, 1e-14).unwrap();
        assert!((f(r)).abs() < 1e-10);
        assert!(r > 0.0 && r < 0.1);
    }

    #[test]
    fn non_finite_reported() {
        let e = brent(|_| f64::NAN, 0.0, 1.0, 1e-9).unwrap_err();
        assert_eq!(e, RootError::NotFinite);
    }
}
