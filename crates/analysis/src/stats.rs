//! Correlation and distribution summaries.
//!
//! The paper reads its figures qualitatively ("there appears to be a positive
//! relationship", "a longer time window brings these two metrics together").
//! To *verify* a reproduction those claims must be numeric: Pearson/Spearman
//! correlation between the paired metrics, and distribution summaries for the
//! scale reports.

/// Pearson product-moment correlation of paired samples. Returns `None` for
/// fewer than two points or zero variance on either axis.
pub fn pearson(points: &[(f64, f64)]) -> Option<f64> {
    let n = points.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let (mut sx, mut sy) = (0.0, 0.0);
    for &(x, y) in points {
        sx += x;
        sy += y;
    }
    let (mx, my) = (sx / nf, sy / nf);
    let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (dx, dy) = (x - mx, y - my);
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return None;
    }
    Some(sxy / (sxx * syy).sqrt())
}

/// Spearman rank correlation (Pearson over mid-ranks; ties get the average
/// rank). Returns `None` under the same conditions as [`pearson`].
pub fn spearman(points: &[(f64, f64)]) -> Option<f64> {
    if points.len() < 2 {
        return None;
    }
    let xr = midranks(points.iter().map(|p| p.0));
    let yr = midranks(points.iter().map(|p| p.1));
    let ranked: Vec<(f64, f64)> = xr.into_iter().zip(yr).collect();
    pearson(&ranked)
}

fn midranks(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let vals: Vec<f64> = values.collect();
    let mut idx: Vec<usize> = (0..vals.len()).collect();
    idx.sort_by(|&a, &b| vals[a].partial_cmp(&vals[b]).expect("NaN in rank input"));
    let mut ranks = vec![0.0; vals.len()];
    let mut i = 0;
    while i < idx.len() {
        let mut j = i;
        while j + 1 < idx.len() && vals[idx[j + 1]] == vals[idx[i]] {
            j += 1;
        }
        let mid = (i + j) as f64 / 2.0 + 1.0;
        for &k in &idx[i..=j] {
            ranks[k] = mid;
        }
        i = j + 1;
    }
    ranks
}

/// Five-number-plus summary of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample size.
    pub n: usize,
    /// Minimum.
    pub min: f64,
    /// First quartile (linear interpolation).
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl Summary {
    /// Summarize a sample; returns `None` for an empty one.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in summary input"));
        let q = |p: f64| -> f64 {
            let pos = p * (v.len() - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (pos - lo as f64) * (v[hi] - v[lo])
            }
        };
        Some(Summary {
            n: v.len(),
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: v[v.len() - 1],
            mean: v.iter().sum::<f64>() / v.len() as f64,
        })
    }
}

/// Mean absolute deviation of points from the diagonal `y = x` — the paper's
/// visual "how close is the trend to 1:1" judgement, made numeric. Lower is
/// tighter; the Figure 7/9 claim is that longer windows shrink this.
pub fn mean_diagonal_gap(points: &[(f64, f64)]) -> Option<f64> {
    if points.is_empty() {
        return None;
    }
    Some(points.iter().map(|&(x, y)| (y - x).abs()).sum::<f64>() / points.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_lines() {
        let up: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 2.0 * i as f64 + 1.0)).collect();
        assert!((pearson(&up).unwrap() - 1.0).abs() < 1e-12);
        let down: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, -(i as f64))).collect();
        assert!((pearson(&down).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_degenerate_cases() {
        assert_eq!(pearson(&[]), None);
        assert_eq!(pearson(&[(1.0, 2.0)]), None);
        assert_eq!(pearson(&[(1.0, 2.0), (1.0, 3.0)]), None); // zero x variance
    }

    #[test]
    fn pearson_uncorrelated_is_near_zero() {
        // a deterministic pattern with zero linear correlation
        let pts: Vec<(f64, f64)> = vec![(-1.0, 1.0), (0.0, -2.0), (1.0, 1.0), (0.0, 0.0)];
        assert!(pearson(&pts).unwrap().abs() < 1e-12);
    }

    #[test]
    fn spearman_sees_monotone_nonlinear() {
        let pts: Vec<(f64, f64)> = (1..20).map(|i| (i as f64, (i as f64).exp())).collect();
        assert!((spearman(&pts).unwrap() - 1.0).abs() < 1e-12);
        // pearson is below 1 for the same data
        assert!(pearson(&pts).unwrap() < 0.99);
    }

    #[test]
    fn spearman_handles_ties() {
        let pts = vec![(1.0, 1.0), (2.0, 1.0), (3.0, 2.0), (4.0, 2.0)];
        let s = spearman(&pts).unwrap();
        assert!(s > 0.8 && s <= 1.0, "s = {s}");
    }

    #[test]
    fn midranks_average_ties() {
        let r = midranks([10.0, 20.0, 20.0, 30.0].into_iter());
        assert_eq!(r, vec![1.0, 2.5, 2.5, 4.0]);
    }

    #[test]
    fn summary_quartiles() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]).unwrap();
        assert_eq!(s.n, 5);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.max, 5.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(Summary::of(&[]), None);
    }

    #[test]
    fn diagonal_gap_measures_tightness() {
        let tight: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64 + 0.1)).collect();
        let loose: Vec<(f64, f64)> = (0..50).map(|i| (i as f64, i as f64 + 5.0)).collect();
        assert!(mean_diagonal_gap(&tight).unwrap() < mean_diagonal_gap(&loose).unwrap());
        assert_eq!(mean_diagonal_gap(&[]), None);
    }
}
