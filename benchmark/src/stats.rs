//! Order statistics over timing samples.

/// Percentiles a tail may be reported at, ascending, each with the
/// share of samples beyond it in parts per 10 000 (integers, so "ten
/// samples beyond" is decided exactly).
const TAIL_CANDIDATES: [(f64, u64); 7] =
    [(50.0, 5000), (75.0, 2500), (90.0, 1000), (95.0, 500), (99.0, 100), (99.9, 10), (99.99, 1)];

/// Median of `values` (mean of the middle two for an even count).
/// Sorts in place. Panics on an empty slice: a metric with no samples
/// is a benchmark bug, not a zero.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// The `pct`-th percentile (nearest rank) of an ascending slice.
pub fn percentile_sorted(sorted: &[u64], pct: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // the epsilon keeps 99.9 % of 1000 at rank 999 despite binary rounding
    let rank = (pct * sorted.len() as f64 / 100.0 - 1e-6).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest candidate percentile that still has at least ten of `n`
/// samples beyond it — the most extreme tail the sample supports. With
/// fewer than twenty samples not even the median has ten beyond it and
/// the median is what is returned.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_CANDIDATES
        .iter()
        .rev()
        .find(|(_, beyond_per_10k)| n as u64 * beyond_per_10k >= 10 * 10_000)
        .unwrap_or(&TAIL_CANDIDATES[0])
        .0
}

/// Median and supported tail of a set of durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Digest {
    /// Samples digested.
    pub count: usize,
    /// Median, ns.
    pub p50_ns: u64,
    /// Which percentile `tail_ns` is (see [`tail_percentile`]).
    pub tail_pct: f64,
    /// That percentile, ns.
    pub tail_ns: u64,
}

/// Digests `samples` (sorted in place).
pub fn digest(samples: &mut [u64]) -> Digest {
    samples.sort_unstable();
    let tail_pct = tail_percentile(samples.len());
    Digest {
        count: samples.len(),
        p50_ns: percentile_sorted(samples, 50.0),
        tail_pct,
        tail_ns: percentile_sorted(samples, tail_pct),
    }
}

/// FNV-1a over a byte stream: the digest inputs and responses are
/// compared by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }
}

impl Fnv {
    /// Folds `bytes` in.
    pub fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// The hash of `bytes` alone.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut fnv = Fnv::default();
        fnv.write(bytes);
        fnv.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(8), 50.0, "too few for any tail: the median");
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 95.0, "p99 would leave 9.99 samples beyond it");
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(99_999), 99.9);
        assert_eq!(tail_percentile(100_000), 99.99);
        assert_eq!(tail_percentile(10_000_000), 99.99, "no candidate above p99.99");
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_sorted(&sorted, 50.0), 50);
        assert_eq!(percentile_sorted(&sorted, 99.0), 99);
        assert_eq!(percentile_sorted(&sorted, 100.0), 100);
        assert_eq!(percentile_sorted(&[7], 99.99), 7);
        let mut samples = vec![5u64, 1, 4, 2, 3];
        let d = digest(&mut samples);
        assert_eq!((d.count, d.p50_ns, d.tail_pct, d.tail_ns), (5, 3, 50.0, 3));
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
