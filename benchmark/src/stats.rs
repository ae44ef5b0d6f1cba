//! The few statistics the benchmark reports: median, midmean, MAD and min
//! of repeats, nearest-rank percentiles under the "at least ten samples
//! beyond it" rule, and the log-log exponent fit of the scaling grid.

/// Median of `xs` (mean of the two middle values for an even count).
/// Sorts in place.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(xs: &mut [f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        0.5 * (xs[mid - 1] + xs[mid])
    }
}

/// Median, midmean, median absolute deviation, minimum and sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    /// Mean of the middle half: the lowest and the highest quarter of the
    /// samples (rounded down) are dropped. As robust to a slow repeat as
    /// the median, but it does not jump between neighbours that lie far
    /// apart when a handful of samples change order.
    pub midmean: f64,
    pub mad: f64,
    pub min: f64,
    pub samples: usize,
}

/// Summarises repeats of one timing.
pub fn summarize(xs: &[f64]) -> Summary {
    let mut sorted = xs.to_vec();
    let med = median(&mut sorted);
    let middle = &sorted[sorted.len() / 4..sorted.len() - sorted.len() / 4];
    let mut dev: Vec<f64> = sorted.iter().map(|x| (x - med).abs()).collect();
    Summary {
        median: med,
        midmean: middle.iter().sum::<f64>() / middle.len() as f64,
        mad: median(&mut dev),
        min: sorted[0],
        samples: xs.len(),
    }
}

/// Percentiles the rule chooses among, ascending, in per mille (whole
/// numbers keep the sample count exact).
const LADDER: [u64; 5] = [500, 900, 950, 990, 999];

/// The highest percentile of [`LADDER`] that still has at least ten of
/// `samples` beyond it, capped at `cap`; the median when none has.
pub fn highest_supported_percentile(samples: usize, cap: f64) -> f64 {
    LADDER
        .iter()
        .filter(|&&pm| samples as u64 * (1000 - pm) >= 10_000)
        .map(|&pm| pm as f64 / 10.0)
        .filter(|&p| p <= cap)
        .fold(50.0, f64::max)
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() as f64 * p / 100.0).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Least-squares fit of `ln y = c + a ln n + b ln m` over `(n, m, y)`
/// points; returns `(a, b)`, the exponents of `n` and `m`. `None` when
/// the points do not span both dimensions.
pub fn loglog_exponents(points: &[(f64, f64, f64)]) -> Option<(f64, f64)> {
    // Normal equations of the 3-parameter linear model, solved by
    // Gauss-Jordan elimination with partial pivoting.
    let mut a = [[0.0f64; 4]; 3];
    for &(n, m, y) in points {
        let row = [1.0, n.ln(), m.ln(), y.ln()];
        for (eq, weight) in a.iter_mut().zip(row) {
            for (cell, x) in eq.iter_mut().zip(row) {
                *cell += weight * x;
            }
        }
    }
    for col in 0..3 {
        let pivot = (col..3).max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))?;
        if a[pivot][col].abs() < 1e-12 {
            return None;
        }
        a.swap(col, pivot);
        let lead = a[col];
        for (row, eq) in a.iter_mut().enumerate() {
            if row != col {
                let f = eq[col] / lead[col];
                for (cell, x) in eq.iter_mut().zip(lead) {
                    *cell -= f * x;
                }
            }
        }
    }
    Some((a[1][3] / a[1][1], a[2][3] / a[2][2]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_mad_and_min() {
        let s = summarize(&[5.0, 1.0, 9.0, 3.0, 100.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.min, 1.0);
        // |x - 5| = 0, 4, 4, 2, 95 -> median 4.
        assert_eq!(s.mad, 4.0);
        assert_eq!(s.samples, 5);
        // The lowest and the highest of five are dropped.
        assert_eq!(s.midmean, (3.0 + 5.0 + 9.0) / 3.0);
        assert_eq!(summarize(&[1.0, 2.0, 6.0]).midmean, 3.0);
        let eight = [8.0, 1.0, 7.0, 2.0, 6.0, 3.0, 5.0, 400.0];
        assert_eq!(summarize(&eight).midmean, (3.0 + 5.0 + 6.0 + 7.0) / 4.0);
        assert_eq!(median(&mut [4.0, 2.0]), 3.0);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // 3000 samples: p99 leaves 30 beyond, p99.9 only 3.
        assert_eq!(highest_supported_percentile(3000, 100.0), 99.0);
        assert_eq!(highest_supported_percentile(10_000, 100.0), 99.9);
        assert_eq!(highest_supported_percentile(10_000, 99.0), 99.0);
        assert_eq!(highest_supported_percentile(1000, 100.0), 99.0);
        assert_eq!(highest_supported_percentile(999, 100.0), 95.0);
        assert_eq!(highest_supported_percentile(100, 100.0), 90.0);
        assert_eq!(highest_supported_percentile(24, 100.0), 50.0);
        assert_eq!(highest_supported_percentile(3, 100.0), 50.0);
    }

    #[test]
    fn nearest_rank_percentile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn exponent_fit_recovers_n2_m2() {
        let mut points = Vec::new();
        for n in [100.0f64, 316.0, 1000.0] {
            for m in [10.0f64, 18.0, 32.0] {
                points.push((n, m, 3.5e-9 * n * n * m * m));
            }
        }
        let (en, em) = loglog_exponents(&points).expect("grid spans both axes");
        assert!((en - 2.0).abs() < 1e-9, "exp_n = {en}");
        assert!((em - 2.0).abs() < 1e-9, "exp_m = {em}");
        // A different law on each axis is recovered too.
        let skew: Vec<_> = points
            .iter()
            .map(|&(n, m, _)| (n, m, n.powf(1.5) * m.powf(2.6)))
            .collect();
        let (en, em) = loglog_exponents(&skew).unwrap();
        assert!((en - 1.5).abs() < 1e-9 && (em - 2.6).abs() < 1e-9);
        // One column only: m never varies, no fit.
        assert!(loglog_exponents(&points[..1]).is_none());
    }
}
