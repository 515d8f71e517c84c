//! Emotional valence.
//!
//! The paper (§3, initialization stage) labels every emotional state with
//! a *valence*: "the degree of attraction or aversion that a person feels
//! toward a specific object or event". We model it as a real number in
//! `[-1.0, 1.0]`; negative values denote aversion, positive attraction.

use std::fmt;
use std::ops::{Add, Mul, Neg};

/// Degree of attraction (positive) or aversion (negative), in `[-1, 1]`.
///
/// Construction clamps into range, so a `Valence` is always valid and
/// never NaN:
///
/// ```
/// use spa_types::Valence;
/// assert_eq!(Valence::new(2.5).value(), 1.0);
/// assert_eq!(Valence::new(f64::NAN).value(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Valence(f64);

impl Valence {
    /// Maximum attraction.
    pub const MAX: Valence = Valence(1.0);
    /// Emotional indifference.
    pub const NEUTRAL: Valence = Valence(0.0);

    /// Creates a valence, clamping into `[-1, 1]` and mapping NaN to 0.
    #[inline]
    pub fn new(v: f64) -> Self {
        if v.is_nan() {
            Valence(0.0)
        } else {
            Valence(v.clamp(-1.0, 1.0))
        }
    }

    /// Returns the underlying value.
    #[inline]
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl fmt::Display for Valence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:+.3}", self.0)
    }
}

impl From<f64> for Valence {
    #[inline]
    fn from(v: f64) -> Self {
        Valence::new(v)
    }
}

impl Neg for Valence {
    type Output = Valence;
    #[inline]
    fn neg(self) -> Valence {
        Valence(-self.0)
    }
}

impl Add for Valence {
    type Output = Valence;
    /// Saturating addition: the sum is clamped back into `[-1, 1]`.
    #[inline]
    fn add(self, rhs: Valence) -> Valence {
        Valence::new(self.0 + rhs.0)
    }
}

impl Mul<f64> for Valence {
    type Output = Valence;
    /// Scales the valence, clamping back into range.
    #[inline]
    fn mul(self, rhs: f64) -> Valence {
        Valence::new(self.0 * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_on_construction() {
        assert_eq!(Valence::new(1.5).value(), 1.0);
        assert_eq!(Valence::new(-7.0).value(), -1.0);
        assert_eq!(Valence::new(0.25).value(), 0.25);
    }

    #[test]
    fn nan_becomes_neutral() {
        assert_eq!(Valence::new(f64::NAN), Valence::NEUTRAL);
    }

    #[test]
    fn arithmetic_saturates() {
        assert_eq!((Valence::new(0.9) + Valence::new(0.9)).value(), 1.0);
        assert_eq!((Valence::new(-0.9) + Valence::new(-0.9)).value(), -1.0);
        assert_eq!((Valence::new(0.5) * 4.0).value(), 1.0);
        assert_eq!((-Valence::new(0.5)).value(), -0.5);
    }

    #[test]
    fn display_shows_sign() {
        assert_eq!(Valence::new(0.5).to_string(), "+0.500");
        assert_eq!(Valence::new(-0.5).to_string(), "-0.500");
    }
}
