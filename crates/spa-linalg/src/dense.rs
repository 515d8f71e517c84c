//! Dense vector kernels over plain `f64` slices.
//!
//! Free functions on slices (rather than a wrapper type) let callers keep
//! ownership of their buffers and reuse workhorse allocations across
//! iterations, per the heap-allocation guidance for hot loops.

/// Dot product of two equal-length slices.
///
/// # Panics
/// Panics in debug builds when lengths differ; in release the shorter
/// length governs (standard `zip` semantics), which is never what you
/// want — callers must pass equal lengths.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: dimension mismatch");
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// Euclidean (L2) norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// `y *= alpha`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        let e = (-z).exp();
        1.0 / (1.0 + e)
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn dot_of_orthogonal_is_zero() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 5.0]), 0.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn scale_in_place() {
        let mut y = vec![1.0, -2.0];
        scale(0.5, &mut y);
        assert_eq!(y, vec![0.5, -1.0]);
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!(sigmoid(1000.0) > 0.999999);
        assert!(sigmoid(-1000.0) < 1e-6);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
        assert!(sigmoid(-1000.0).is_finite());
    }

    proptest! {
        #[test]
        fn dot_is_commutative(a in proptest::collection::vec(-1e3f64..1e3, 0..32)) {
            let b: Vec<f64> = a.iter().rev().copied().collect();
            // reverse keeps length equal; compare both orders
            prop_assert!((dot(&a, &b) - dot(&b, &a)).abs() < 1e-9);
        }

        #[test]
        fn cauchy_schwarz(ab in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 0..32)) {
            let a: Vec<f64> = ab.iter().map(|p| p.0).collect();
            let b: Vec<f64> = ab.iter().map(|p| p.1).collect();
            prop_assert!(dot(&a, &b).abs() <= norm2(&a) * norm2(&b) + 1e-6);
        }

        #[test]
        fn sigmoid_is_monotone(z1 in -50f64..50.0, z2 in -50f64..50.0) {
            if z1 < z2 {
                prop_assert!(sigmoid(z1) <= sigmoid(z2));
            }
        }
    }
}
