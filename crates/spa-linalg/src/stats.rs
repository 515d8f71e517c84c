//! Descriptive statistics helpers used by reports and metrics.

/// Arithmetic mean; 0 for an empty slice.
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Pearson correlation between two equal-length dense samples; 0 when
/// either side is constant.
pub fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
    debug_assert_eq!(xs.len(), ys.len());
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let (mx, my) = (mean(xs), mean(ys));
    let mut cov = 0.0;
    let mut vx = 0.0;
    let mut vy = 0.0;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        cov += (x - mx) * (y - my);
        vx += (x - mx) * (x - mx);
        vy += (y - my) * (y - my);
    }
    if vx <= 1e-15 || vy <= 1e-15 {
        0.0
    } else {
        (cov / (vx.sqrt() * vy.sqrt())).clamp(-1.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn mean_of_no_values_and_of_some() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    #[test]
    fn correlation_basics() {
        let xs = [1.0, 2.0, 3.0];
        assert!((correlation(&xs, &[2.0, 4.0, 6.0]) - 1.0).abs() < 1e-12);
        assert!((correlation(&xs, &[3.0, 2.0, 1.0]) + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&xs, &[7.0, 7.0, 7.0]), 0.0);
        assert_eq!(correlation(&[1.0], &[1.0]), 0.0);
    }

    proptest! {
        #[test]
        fn mean_is_within_range(xs in proptest::collection::vec(-1e3f64..1e3, 1..64)) {
            let m = mean(&xs);
            let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
        }
    }
}
