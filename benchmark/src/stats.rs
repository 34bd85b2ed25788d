//! Order statistics and the selfcheck comparison. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the default "exclusive" method), the
//! rule the driver applies to the benchmark's own outputs.

/// Median, first and third quartile and sample count of one timed figure.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `p/4` quantile by the exclusive method: position `p·(n+1)/4`
/// (1-based), clamped into the sample and linearly interpolated.
fn quartile(sorted: &[f64], p: usize) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let j = (p * (n + 1) / 4).clamp(1, n - 1);
    let delta = (p * (n + 1)) as f64 / 4.0 - j as f64;
    sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
}

/// Summary of a non-empty sample.
pub fn summarize(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let v = sorted(values);
    Summary {
        median: quartile(&v, 2),
        q1: quartile(&v, 1),
        q3: quartile(&v, 3),
        n: v.len(),
    }
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample of integer
/// measurements; sorts in place.
pub fn percentile_u32(samples: &mut [u32], q: f64) -> u32 {
    assert!(!samples.is_empty(), "percentile of an empty sample");
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1]
}

/// The selfcheck comparison: how far apart two medians of the same code
/// are, as a share of the smaller. Symmetric, since neither set is the
/// "parent"; the two agree when this is within the metric's bound.
pub fn rel_diff(first: f64, second: f64) -> f64 {
    (second - first).abs() / first.min(second)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!((s.q1, s.median, s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = summarize(&[7.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.0, 7.0, 7.0, 1));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(summarize(&[5.0, 1.0, 3.0]).median, 3.0);
        assert_eq!(summarize(&[4.0, 1.0, 3.0, 2.0]).median, 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u32> = (1..=1000).rev().collect();
        assert_eq!(percentile_u32(&mut v, 0.99), 990);
        assert_eq!(percentile_u32(&mut v, 0.5), 500);
        assert_eq!(percentile_u32(&mut v, 0.999), 999);
        assert_eq!(percentile_u32(&mut v, 1.0), 1000);
        assert_eq!(percentile_u32(&mut [42], 0.99), 42);
    }

    #[test]
    fn selfcheck_comparison_is_symmetric() {
        assert_eq!(rel_diff(100.0, 109.0), rel_diff(109.0, 100.0));
        assert!(rel_diff(100.0, 109.0) <= 0.10);
        assert!(rel_diff(100.0, 111.0) > 0.10);
        assert_eq!(rel_diff(5.0, 5.0), 0.0);
    }
}
