//! Order statistics for the benchmark's reports.

/// Median of a sample (mean of the two middle values for even `n`);
/// NaN for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(p: f64, n: usize) -> usize {
    // The epsilon keeps e.g. 99.9% of 10000 at rank 9990 despite the
    // binary rounding of 99.9 / 100.
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending sample.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// Percentiles a tail is reported at, highest first.
const TAIL_CANDIDATES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// A latency sample summarised the way the report states it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// Nearest-rank 99th percentile.
    pub p99: f64,
    /// The highest candidate percentile with at least ten samples
    /// beyond it (50 when even the median has fewer).
    pub tail_p: f64,
    /// Value at `tail_p`.
    pub tail: f64,
}

/// Summarise a sample: median, p99, and the highest percentile that
/// still has ten or more samples above its rank.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let beyond = |p: f64| n - rank(p, n);
    let tail_p = TAIL_CANDIDATES
        .into_iter()
        .find(|&p| n > 0 && beyond(p) >= 10)
        .unwrap_or(50.0);
    Summary {
        n,
        p50: nearest_rank(&s, 50.0),
        p99: nearest_rank(&s, 99.0),
        tail_p,
        tail: nearest_rank(&s, tail_p),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_sample_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50.0);
        assert_eq!(nearest_rank(&s, 99.0), 99.0);
        assert_eq!(nearest_rank(&s, 100.0), 100.0);
        assert_eq!(nearest_rank(&s, 0.1), 1.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
        assert!(nearest_rank(&[], 50.0).is_nan());
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1000 samples: rank(p99) = 990, ten beyond; p99.9 has only one.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!(s.n, 1000);
        assert_eq!((s.tail_p, s.tail), (99.0, 990.0));
        assert_eq!(s.p50, 500.0);
        // 100 samples: p99 and p95 leave 1 and 5 beyond, p90 leaves 10.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = summarize(&xs);
        assert_eq!((s.tail_p, s.tail, s.n), (90.0, 90.0, 100));
        assert_eq!(s.p99, 99.0);
        // 10000 samples reach p99.9.
        let xs: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(summarize(&xs).tail_p, 99.9);
        // Too few samples for any tail: fall back to the median.
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.tail_p, s.tail, s.n), (50.0, 2.0, 3));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
