//! Minimal complex arithmetic.
//!
//! The analysis code needs complex add/sub/mul/div, exponentials of purely
//! imaginary arguments (`e^{−jωτ}`), magnitude and argument. Owning ~150
//! lines is cheaper than importing a numerics crate outside the approved
//! offline set, and keeps the numerical behaviour fully under our control.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A double-precision complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex64 {
    /// 0 + 0j.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// 1 + 0j.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// 0 + 1j.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Construct from parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Real number as complex.
    pub const fn from_re(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }

    /// Purely imaginary `jω`.
    pub const fn j(omega: f64) -> Self {
        Complex64 { re: 0.0, im: omega }
    }

    /// Squared magnitude.
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Magnitude |z|.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument in radians, in (−π, π].
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Complex exponential `e^z`.
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        Complex64::new(r * self.im.cos(), r * self.im.sin())
    }

    /// Multiplicative inverse. Panics on zero in debug builds.
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        debug_assert!(d > 0.0, "inverting zero");
        Complex64::new(self.re / d, -self.im / d)
    }

    /// True when either part is NaN.
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// Scale by a real factor.
    pub fn scale(self, k: f64) -> Self {
        Complex64::new(self.re * k, self.im * k)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex64 {
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex64 {
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex64 {
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: Complex64) -> Complex64 {
        // Smith's algorithm for numerical robustness with large/small parts.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Complex64::new((self.re + self.im * r) / d, (self.im - self.re * r) / d)
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Complex64::new((self.re * r + self.im) / d, (self.im * r - self.re) / d)
        }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    fn div(self, rhs: f64) -> Complex64 {
        Complex64::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    fn neg(self) -> Complex64 {
        Complex64::new(-self.re, -self.im)
    }
}

impl From<f64> for Complex64 {
    fn from(re: f64) -> Self {
        Complex64::from_re(re)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}j", self.re, self.im)
        } else {
            write!(f, "{}{}j", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn basic_arithmetic() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(3.0, -1.0);
        assert_eq!(a + b, Complex64::new(4.0, 1.0));
        assert_eq!(a - b, Complex64::new(-2.0, 3.0));
        assert_eq!(a * b, Complex64::new(5.0, 5.0));
        let q = a / b;
        let back = q * b;
        assert!((back - a).abs() < EPS);
    }

    #[test]
    fn division_robust_to_scale() {
        let a = Complex64::new(1e200, 1e-200);
        let q = a / a;
        assert!((q - Complex64::ONE).abs() < 1e-10);
    }

    #[test]
    fn exp_of_imaginary_is_on_unit_circle() {
        for k in 0..16 {
            let theta = k as f64 * 0.4;
            let z = Complex64::j(theta).exp();
            assert!((z.abs() - 1.0).abs() < EPS);
            assert!((z - Complex64::new(theta.cos(), theta.sin())).abs() < EPS);
        }
    }

    #[test]
    fn arg_and_abs() {
        let z = Complex64::new(0.0, 2.0);
        assert!((z.arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((z.abs() - 2.0).abs() < EPS);
        assert!((Complex64::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
    }

    #[test]
    fn inverse() {
        let z = Complex64::new(3.0, 4.0);
        assert!((z * z.inv() - Complex64::ONE).abs() < EPS);
    }

    #[test]
    fn euler_identity() {
        let z = Complex64::j(std::f64::consts::PI).exp();
        assert!((z + Complex64::ONE).abs() < 1e-12);
    }
}
