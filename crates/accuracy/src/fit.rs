//! Fitting piecewise-linear accuracy functions to sampled concave curves.
//!
//! Two fitters are provided:
//!
//! - [`chord_fit`]: interpolate the curve at chosen breakpoints. Chords of a
//!   concave function are automatically concave, so the result is valid by
//!   construction and exact at the breakpoints.
//! - [`least_squares_fit`]: the paper's "linear regression with 5 segments"
//!   — a continuous piecewise-linear least-squares fit over samples, solved
//!   through a hat-function basis, followed by a pool-adjacent-violators
//!   (PAVA) concavity repair and a monotonicity clamp.

use crate::{AccuracyError, PwlAccuracy};
use serde::{Deserialize, Serialize};

/// How breakpoint abscissae are distributed over `[0, f_max]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakpointSpacing {
    /// Equally spaced breakpoints.
    Uniform,
    /// Geometrically spaced breakpoints (denser near zero, where a concave
    /// curve bends the most). The first interior breakpoint is at
    /// `f_max / 2^{k-1}` and each subsequent one doubles.
    Geometric,
}

/// Generates `k + 1` breakpoint abscissae over `[0, f_max]`.
pub fn breakpoints(f_max: f64, k: usize, spacing: BreakpointSpacing) -> Vec<f64> {
    assert!(k >= 1, "need at least one segment");
    assert!(f_max > 0.0 && f_max.is_finite());
    let mut out = Vec::with_capacity(k + 1);
    match spacing {
        BreakpointSpacing::Uniform => {
            for i in 0..=k {
                out.push(f_max * i as f64 / k as f64);
            }
        }
        BreakpointSpacing::Geometric => {
            out.push(0.0);
            for i in 1..=k {
                out.push(f_max / 2f64.powi((k - i) as i32));
            }
        }
    }
    // Guard against floating error on the last point.
    *out.last_mut().expect("non-empty") = f_max;
    out
}

/// Chord interpolation of a concave curve `a` on `[0, f_max]` with `k`
/// segments.
pub fn chord_fit<F: Fn(f64) -> f64>(
    a: F,
    f_max: f64,
    k: usize,
    spacing: BreakpointSpacing,
) -> Result<PwlAccuracy, AccuracyError> {
    PwlAccuracy::new(&chord_points(a, f_max, k, spacing)?)
}

/// The `k + 1` interpolation points `(f, a(f))` of [`chord_fit`].
pub(crate) fn chord_points<F: Fn(f64) -> f64>(
    a: F,
    f_max: f64,
    k: usize,
    spacing: BreakpointSpacing,
) -> Result<Vec<(f64, f64)>, AccuracyError> {
    if k < 1 {
        return Err(AccuracyError::TooFewPoints(k + 1));
    }
    if !(f_max.is_finite() && f_max > 0.0) {
        return Err(AccuracyError::InvalidParameter {
            name: "f_max",
            value: f_max,
        });
    }
    Ok(breakpoints(f_max, k, spacing)
        .into_iter()
        .map(|f| (f, a(f)))
        .collect())
}

/// Continuous piecewise-linear least-squares fit over samples `(xs, ys)` with
/// prescribed breakpoints, followed by concavity repair.
///
/// The fit minimizes `Σ_i (pwl(x_i) − y_i)²` over the breakpoint ordinates
/// (hat-function basis). Because noise can make the unconstrained optimum
/// non-concave, segment slopes are then projected onto the non-increasing
/// cone with the pool-adjacent-violators algorithm, weighted by segment
/// width (an L²-optimal projection for the slope vector), and finally
/// clamped to be non-negative.
pub fn least_squares_fit(
    xs: &[f64],
    ys: &[f64],
    breakpoints: &[f64],
) -> Result<PwlAccuracy, AccuracyError> {
    if breakpoints.len() < 2 {
        return Err(AccuracyError::TooFewPoints(breakpoints.len()));
    }
    if xs.len() != ys.len() || xs.len() < breakpoints.len() {
        return Err(AccuracyError::InvalidParameter {
            name: "samples",
            value: xs.len() as f64,
        });
    }
    let n = breakpoints.len();
    // Normal equations G v = r for the hat basis: G is tridiagonal, but n is
    // tiny (typically 6) so a dense solve keeps the code simple.
    let mut g = vec![0.0f64; n * n];
    let mut r = vec![0.0f64; n];
    for (&x, &y) in xs.iter().zip(ys) {
        let (i, wi, j, wj) = hat_weights(breakpoints, x);
        g[i * n + i] += wi * wi;
        r[i] += wi * y;
        if let Some(j) = j {
            g[j * n + j] += wj * wj;
            g[i * n + j] += wi * wj;
            g[j * n + i] += wi * wj;
            r[j] += wj * y;
        }
    }
    // Tikhonov nudge keeps the system solvable when some segment has no
    // interior sample.
    for d in 0..n {
        g[d * n + d] += 1e-12;
    }
    let mut v = solve_dense(&mut g, &mut r, n).ok_or(AccuracyError::InvalidParameter {
        name: "normal_equations",
        value: f64::NAN,
    })?;

    // Concavity repair: project slopes onto the non-increasing cone.
    let widths: Vec<f64> = breakpoints.windows(2).map(|w| w[1] - w[0]).collect();
    let mut slopes: Vec<f64> = widths
        .iter()
        .enumerate()
        .map(|(k, &w)| (v[k + 1] - v[k]) / w)
        .collect();
    pava_non_increasing(&mut slopes, &widths);
    for s in &mut slopes {
        *s = s.max(0.0);
    }
    // Rebuild ordinates from the repaired slopes, anchored at the fitted
    // starting value (clamped to [0, 1]).
    let start = v[0].clamp(0.0, 1.0);
    v[0] = start;
    for k in 0..slopes.len() {
        v[k + 1] = v[k] + slopes[k] * widths[k];
    }
    let points: Vec<(f64, f64)> = breakpoints.iter().copied().zip(v).collect();
    PwlAccuracy::new(&points)
}

/// Returns the (at most two) hat-basis functions active at `x` and their
/// weights: `(i, w_i, Some(j), w_j)` with `x` in segment `[p_i, p_j]`.
fn hat_weights(bps: &[f64], x: f64) -> (usize, f64, Option<usize>, f64) {
    let n = bps.len();
    let x = x.clamp(bps[0], bps[n - 1]);
    if x >= bps[n - 1] {
        return (n - 1, 1.0, None, 0.0);
    }
    let k = bps.partition_point(|&p| p <= x).max(1) - 1;
    let w = bps[k + 1] - bps[k];
    let t = (x - bps[k]) / w;
    (k, 1.0 - t, Some(k + 1), t)
}

/// Gaussian elimination with partial pivoting; returns the solution of
/// `G v = r` or `None` when singular. `g` and `r` are clobbered.
fn solve_dense(g: &mut [f64], r: &mut [f64], n: usize) -> Option<Vec<f64>> {
    for col in 0..n {
        // Pivot selection.
        let mut piv = col;
        let mut best = g[col * n + col].abs();
        for row in (col + 1)..n {
            let cand = g[row * n + col].abs();
            if cand > best {
                best = cand;
                piv = row;
            }
        }
        if best < 1e-14 {
            return None;
        }
        if piv != col {
            for c in 0..n {
                g.swap(col * n + c, piv * n + c);
            }
            r.swap(col, piv);
        }
        let d = g[col * n + col];
        for row in (col + 1)..n {
            let factor = g[row * n + col] / d;
            if factor == 0.0 {
                continue;
            }
            for c in col..n {
                g[row * n + c] -= factor * g[col * n + c];
            }
            r[row] -= factor * r[col];
        }
    }
    let mut v = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = r[row];
        for c in (row + 1)..n {
            acc -= g[row * n + c] * v[c];
        }
        v[row] = acc / g[row * n + row];
    }
    Some(v)
}

/// Pool-adjacent-violators projection of `values` onto the non-increasing
/// cone under weights `w` (weighted L² optimal).
fn pava_non_increasing(values: &mut [f64], w: &[f64]) {
    debug_assert_eq!(values.len(), w.len());
    // Blocks of (weighted mean, total weight, count).
    let mut blocks: Vec<(f64, f64, usize)> = Vec::with_capacity(values.len());
    for (i, &v) in values.iter().enumerate() {
        blocks.push((v, w[i], 1));
        // Non-increasing requirement: previous block mean must be >= current.
        while blocks.len() >= 2 {
            let last = blocks[blocks.len() - 1];
            let prev = blocks[blocks.len() - 2];
            if prev.0 >= last.0 {
                break;
            }
            let merged_w = prev.1 + last.1;
            let merged_mean = (prev.0 * prev.1 + last.0 * last.1) / merged_w;
            blocks.pop();
            let top = blocks.len() - 1;
            blocks[top] = (merged_mean, merged_w, prev.2 + last.2);
        }
    }
    let mut idx = 0;
    for (mean, _, count) in blocks {
        for _ in 0..count {
            values[idx] = mean;
            idx += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExponentialAccuracy;

    #[test]
    fn breakpoints_uniform_and_geometric() {
        let u = breakpoints(8.0, 4, BreakpointSpacing::Uniform);
        assert_eq!(u, vec![0.0, 2.0, 4.0, 6.0, 8.0]);
        let g = breakpoints(8.0, 4, BreakpointSpacing::Geometric);
        assert_eq!(g, vec![0.0, 1.0, 2.0, 4.0, 8.0]);
    }

    #[test]
    fn chord_fit_of_linear_function_is_exact() {
        let p = chord_fit(|f| 0.1 + 0.2 * f, 5.0, 4, BreakpointSpacing::Uniform).unwrap();
        for i in 0..=50 {
            let f = 5.0 * i as f64 / 50.0;
            assert!((p.eval(f) - (0.1 + 0.2 * f)).abs() < 1e-12);
        }
    }

    #[test]
    fn chord_fit_rejects_bad_inputs() {
        assert!(chord_fit(|f| f, 0.0, 3, BreakpointSpacing::Uniform).is_err());
        assert!(chord_fit(|f| f, 1.0, 0, BreakpointSpacing::Uniform).is_err());
    }

    #[test]
    fn least_squares_recovers_noiseless_pwl() {
        // Sample an exactly-PWL concave curve and refit with the same
        // breakpoints: the fit must reproduce it to numerical precision.
        let truth = PwlAccuracy::new(&[(0.0, 0.0), (1.0, 0.6), (2.0, 0.9), (3.0, 1.0)]).unwrap();
        let xs: Vec<f64> = (0..=300).map(|i| 3.0 * i as f64 / 300.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth.eval(x)).collect();
        let fit = least_squares_fit(&xs, &ys, &[0.0, 1.0, 2.0, 3.0]).unwrap();
        for &x in &xs {
            assert!((fit.eval(x) - truth.eval(x)).abs() < 1e-6, "x = {x}");
        }
    }

    #[test]
    fn least_squares_fits_exponential_closely() {
        let e = ExponentialAccuracy::paper_default(1.0).unwrap();
        let xs: Vec<f64> = (0..=500).map(|i| e.f_max() * i as f64 / 500.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| e.eval(x)).collect();
        let bps = breakpoints(e.f_max(), 5, BreakpointSpacing::Geometric);
        let fit = least_squares_fit(&xs, &ys, &bps).unwrap();
        // The 5-segment fit should track the curve within a few percent.
        let max_err = xs
            .iter()
            .map(|&x| (fit.eval(x) - e.eval(x)).abs())
            .fold(0.0f64, f64::max);
        assert!(max_err < 0.05, "max_err = {max_err}");
        // And it must be a valid concave accuracy function (constructor
        // validated) whose range is sane.
        assert!(fit.a_min() >= 0.0 && fit.a_max() <= 1.0 + 1e-9);
    }

    #[test]
    fn least_squares_repairs_convex_noise() {
        // Construct samples from a *convex* curve: PAVA must still deliver a
        // valid concave PWL (it will flatten the slopes).
        let xs: Vec<f64> = (0..=100).map(|i| i as f64 / 100.0 * 2.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 0.1 * x * x).collect();
        let fit = least_squares_fit(&xs, &ys, &[0.0, 0.5, 1.0, 1.5, 2.0]).unwrap();
        let slopes = fit.slopes();
        for k in 1..slopes.len() {
            assert!(slopes[k] <= slopes[k - 1] + 1e-9);
        }
    }

    #[test]
    fn least_squares_rejects_bad_shapes() {
        assert!(least_squares_fit(&[0.0, 1.0], &[0.0], &[0.0, 1.0]).is_err());
        assert!(least_squares_fit(&[0.0], &[0.0], &[0.0]).is_err());
    }

    #[test]
    fn pava_pools_violators() {
        let mut v = vec![1.0, 3.0, 2.0];
        let w = vec![1.0, 1.0, 1.0];
        pava_non_increasing(&mut v, &w);
        // First pair violates (1 < 3): pooled to 2, then 2 >= 2 ok.
        assert!((v[0] - 2.0).abs() < 1e-12);
        assert!((v[1] - 2.0).abs() < 1e-12);
        assert!((v[2] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn pava_keeps_sorted_input() {
        let mut v = vec![5.0, 3.0, 1.0];
        let w = vec![1.0, 2.0, 1.0];
        let orig = v.clone();
        pava_non_increasing(&mut v, &w);
        assert_eq!(v, orig);
    }
}
