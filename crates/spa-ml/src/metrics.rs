//! Evaluation metrics.
//!
//! Alongside ROC AUC, this module implements the **cumulative gains
//! curve** (the paper's "cumulative redemption curve", Fig 6a): rank the
//! audience by model score and plot the fraction of all responders
//! captured against the fraction of the audience contacted. The paper's
//! other measure, the predictive score of Fig 6b, is counted from the
//! contacts a campaign makes (`spa_campaign::CampaignOutcome`).

use spa_types::{Result, SpaError};

/// Area under the ROC curve via the rank statistic (Mann–Whitney U),
/// with tie correction. Returns 0.5 when either class is absent.
pub fn roc_auc(y_true: &[f64], scores: &[f64]) -> Result<f64> {
    if y_true.len() != scores.len() {
        return Err(SpaError::DimensionMismatch { got: scores.len(), expected: y_true.len() });
    }
    let n_pos = y_true.iter().filter(|&&y| y > 0.0).count();
    let n_neg = y_true.len() - n_pos;
    if n_pos == 0 || n_neg == 0 {
        return Ok(0.5);
    }
    // Rank scores ascending, averaging ranks over ties.
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| scores[a].partial_cmp(&scores[b]).unwrap_or(std::cmp::Ordering::Equal));
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let rank_sum_pos: f64 =
        y_true.iter().zip(ranks.iter()).filter(|(&y, _)| y > 0.0).map(|(_, &r)| r).sum();
    let u = rank_sum_pos - (n_pos * (n_pos + 1)) as f64 / 2.0;
    Ok(u / (n_pos as f64 * n_neg as f64))
}

/// One point of a cumulative gains curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GainsPoint {
    /// Fraction of the ranked audience contacted ("commercial action").
    pub effort: f64,
    /// Fraction of all responders captured ("useful impacts").
    pub captured: f64,
}

/// Cumulative gains curve: sort by descending score, then at each of
/// `points` equally-spaced effort levels record the captured fraction
/// of all positives. The paper's Fig 6(a) reads ">76% of useful impacts
/// at 40% of commercial action" off exactly this curve.
pub fn gains_curve(y_true: &[f64], scores: &[f64], points: usize) -> Result<Vec<GainsPoint>> {
    if y_true.len() != scores.len() {
        return Err(SpaError::DimensionMismatch { got: scores.len(), expected: y_true.len() });
    }
    if points == 0 {
        return Err(SpaError::Invalid("gains curve needs at least one point".into()));
    }
    let n = y_true.len();
    let total_pos = y_true.iter().filter(|&&y| y > 0.0).count();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| scores[b].partial_cmp(&scores[a]).unwrap_or(std::cmp::Ordering::Equal));
    // prefix positive counts over the ranked audience
    let mut prefix = vec![0usize; n + 1];
    for (rank, &i) in order.iter().enumerate() {
        prefix[rank + 1] = prefix[rank] + usize::from(y_true[i] > 0.0);
    }
    let mut curve = Vec::with_capacity(points + 1);
    for p in 0..=points {
        let effort = p as f64 / points as f64;
        let contacted = ((effort * n as f64).round() as usize).min(n);
        let captured =
            if total_pos == 0 { 0.0 } else { prefix[contacted] as f64 / total_pos as f64 };
        curve.push(GainsPoint { effort, captured });
    }
    Ok(curve)
}

/// Captured fraction at a given effort level, linearly interpolated
/// from a gains curve.
pub fn captured_at(curve: &[GainsPoint], effort: f64) -> f64 {
    if curve.is_empty() {
        return 0.0;
    }
    let effort = effort.clamp(0.0, 1.0);
    let mut prev = curve[0];
    for &pt in curve {
        if pt.effort >= effort {
            if pt.effort == prev.effort {
                return pt.captured;
            }
            let frac = (effort - prev.effort) / (pt.effort - prev.effort);
            return prev.captured + frac * (pt.captured - prev.captured);
        }
        prev = pt;
    }
    curve.last().map(|p| p.captured).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn auc_perfect_and_inverted() {
        let y = [1.0, 1.0, -1.0, -1.0];
        assert_eq!(roc_auc(&y, &[0.9, 0.8, 0.2, 0.1]).unwrap(), 1.0);
        assert_eq!(roc_auc(&y, &[0.1, 0.2, 0.8, 0.9]).unwrap(), 0.0);
    }

    #[test]
    fn auc_with_ties_is_half_credit() {
        let y = [1.0, -1.0];
        assert_eq!(roc_auc(&y, &[0.5, 0.5]).unwrap(), 0.5);
    }

    #[test]
    fn auc_degenerate_classes() {
        assert_eq!(roc_auc(&[1.0, 1.0], &[0.1, 0.9]).unwrap(), 0.5);
        assert_eq!(roc_auc(&[-1.0], &[0.5]).unwrap(), 0.5);
    }

    #[test]
    fn gains_curve_perfect_ranking() {
        // 2 positives in 10, perfectly ranked: all captured at 20% effort.
        let mut y = vec![-1.0; 10];
        y[0] = 1.0;
        y[1] = 1.0;
        let scores: Vec<f64> = (0..10).map(|i| 10.0 - i as f64).collect();
        let curve = gains_curve(&y, &scores, 10).unwrap();
        assert_eq!(captured_at(&curve, 0.2), 1.0);
        assert_eq!(captured_at(&curve, 1.0), 1.0);
        assert_eq!(captured_at(&curve, 0.0), 0.0);
    }

    #[test]
    fn gains_curve_random_ranking_is_diagonalish() {
        // Uniform labels, constant score: captured(effort) == effort.
        let y: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 1.0 } else { -1.0 }).collect();
        let scores: Vec<f64> = (0..100).map(|i| (i % 2) as f64 * 0.0).collect();
        let curve = gains_curve(&y, &scores, 20).unwrap();
        // Stable sort keeps index order, so positives alternate: the
        // curve tracks the diagonal.
        for pt in &curve {
            assert!((pt.captured - pt.effort).abs() < 0.05, "{pt:?}");
        }
    }

    #[test]
    fn gains_curve_validates() {
        assert!(gains_curve(&[1.0], &[], 5).is_err());
        assert!(gains_curve(&[1.0], &[0.5], 0).is_err());
        let empty = gains_curve(&[], &[], 4).unwrap();
        assert_eq!(empty.len(), 5);
        assert_eq!(captured_at(&empty, 0.5), 0.0);
        assert_eq!(captured_at(&[], 0.5), 0.0);
    }

    proptest! {
        #[test]
        fn auc_is_bounded_and_flip_symmetric(
            ys in proptest::collection::vec(prop_oneof![Just(1.0f64), Just(-1.0f64)], 2..64),
            seed in 0u64..1000,
        ) {
            use rand::prelude::*;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let scores: Vec<f64> = ys.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let auc = roc_auc(&ys, &scores).unwrap();
            prop_assert!((0.0..=1.0).contains(&auc));
            let flipped: Vec<f64> = scores.iter().map(|s| -s).collect();
            let auc_flipped = roc_auc(&ys, &flipped).unwrap();
            let has_both = ys.iter().any(|&y| y > 0.0) && ys.iter().any(|&y| y < 0.0);
            if has_both {
                prop_assert!((auc + auc_flipped - 1.0).abs() < 1e-9);
            }
        }

        #[test]
        fn gains_curve_is_monotone_and_ends_at_one(
            ys in proptest::collection::vec(prop_oneof![Just(1.0f64), Just(-1.0f64)], 1..64),
            seed in 0u64..1000,
        ) {
            use rand::prelude::*;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let scores: Vec<f64> = ys.iter().map(|_| rng.gen_range(-1.0..1.0)).collect();
            let curve = gains_curve(&ys, &scores, 10).unwrap();
            for w in curve.windows(2) {
                prop_assert!(w[1].captured >= w[0].captured - 1e-12);
            }
            if ys.iter().any(|&y| y > 0.0) {
                prop_assert!((curve.last().unwrap().captured - 1.0).abs() < 1e-12);
            }
        }
    }
}
