use crate::{AccuracyError, SLOPE_TOL};
use serde::{Deserialize, Serialize};

/// One linear segment of a [`PwlAccuracy`] function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Index of the segment within the function (0-based, increasing `f`).
    pub index: usize,
    /// Work (GFLOP) at which the segment starts.
    pub f_lo: f64,
    /// Work (GFLOP) at which the segment ends.
    pub f_hi: f64,
    /// Accuracy at the start of the segment.
    pub a_lo: f64,
    /// Slope of the segment in accuracy per GFLOP (`α_k` in the paper).
    pub slope: f64,
}

impl Segment {
    /// Total work spanned by the segment in GFLOP (`p_{k+1} − p_k`).
    #[inline]
    pub fn width(&self) -> f64 {
        self.f_hi - self.f_lo
    }

    /// Accuracy gained by fully processing the segment.
    #[inline]
    pub fn gain(&self) -> f64 {
        self.slope * self.width()
    }
}

/// A concave, non-decreasing piecewise-linear accuracy function.
///
/// Stored as `K + 1` breakpoints `(p_k, a(p_k))` with `p_0 = 0`. The function
/// is defined on `[0, f_max]`; evaluation beyond `f_max` saturates at
/// `a_max` (allocating more work than the uncompressed model needs cannot
/// change its accuracy), and evaluation below `0` is a domain error guarded
/// by a debug assertion (callers deal in non-negative work).
///
/// Invariants enforced at construction:
/// - at least two breakpoints, first at `f = 0`;
/// - strictly increasing abscissae;
/// - non-decreasing values;
/// - non-increasing segment slopes (concavity), within [`SLOPE_TOL`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PwlAccuracy {
    breakpoints: Vec<f64>,
    values: Vec<f64>,
    slopes: Vec<f64>,
}

impl PwlAccuracy {
    /// Builds a piecewise-linear accuracy function from `(f, a)` breakpoints.
    pub fn new(points: &[(f64, f64)]) -> Result<Self, AccuracyError> {
        if points.len() < 2 {
            return Err(AccuracyError::TooFewPoints(points.len()));
        }
        for (i, &(x, y)) in points.iter().enumerate() {
            if !x.is_finite() {
                return Err(AccuracyError::NonFinite { index: i, value: x });
            }
            if !y.is_finite() {
                return Err(AccuracyError::NonFinite { index: i, value: y });
            }
        }
        if points[0].0 != 0.0 {
            return Err(AccuracyError::FirstPointNotZero(points[0].0));
        }
        let mut breakpoints = Vec::with_capacity(points.len());
        let mut values = Vec::with_capacity(points.len());
        for &(x, y) in points {
            breakpoints.push(x);
            values.push(y);
        }
        let mut slopes = Vec::with_capacity(points.len() - 1);
        for i in 1..points.len() {
            let (x0, y0) = points[i - 1];
            let (x1, y1) = points[i];
            if x1 <= x0 {
                return Err(AccuracyError::NonIncreasingBreakpoints {
                    index: i,
                    prev: x0,
                    next: x1,
                });
            }
            if y1 < y0 - SLOPE_TOL {
                return Err(AccuracyError::DecreasingValues {
                    index: i,
                    prev: y0,
                    next: y1,
                });
            }
            slopes.push(((y1 - y0) / (x1 - x0)).max(0.0));
        }
        for i in 1..slopes.len() {
            // Tolerance scales with the magnitude of the slopes involved.
            let tol = SLOPE_TOL * (1.0 + slopes[i - 1].abs());
            if slopes[i] > slopes[i - 1] + tol {
                return Err(AccuracyError::NotConcave {
                    index: i,
                    prev_slope: slopes[i - 1],
                    next_slope: slopes[i],
                });
            }
        }
        Ok(Self {
            breakpoints,
            values,
            slopes,
        })
    }

    /// Number of linear segments `K`.
    #[inline]
    pub fn num_segments(&self) -> usize {
        self.slopes.len()
    }

    /// Accuracy at `f = 0` (`a_min`, e.g. the accuracy of a random guess).
    #[inline]
    pub fn a_min(&self) -> f64 {
        self.values[0]
    }

    /// Maximum reachable accuracy (`a_max = a(f_max)`).
    #[inline]
    pub fn a_max(&self) -> f64 {
        *self.values.last().expect("at least two breakpoints")
    }

    /// Work needed for full (uncompressed) execution, in GFLOP (`f^max`).
    #[inline]
    pub fn f_max(&self) -> f64 {
        *self.breakpoints.last().expect("at least two breakpoints")
    }

    /// Slope of the first segment — the paper's "task efficiency" θ.
    #[inline]
    pub fn first_slope(&self) -> f64 {
        self.slopes[0]
    }

    /// Slope of the last segment (the smallest marginal gain).
    #[inline]
    pub fn last_slope(&self) -> f64 {
        *self.slopes.last().expect("at least one segment")
    }

    /// Breakpoint abscissae `p_0 = 0 < p_1 < … < p_K = f_max`.
    #[inline]
    pub fn breakpoints(&self) -> &[f64] {
        &self.breakpoints
    }

    /// Accuracy values at the breakpoints.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Segment slopes `α_0 ≥ α_1 ≥ … ≥ α_{K-1}`.
    #[inline]
    pub fn slopes(&self) -> &[f64] {
        &self.slopes
    }

    /// Index of the segment containing work level `f`.
    ///
    /// Breakpoints belong to the segment on their right, except `f ≥ f_max`
    /// which maps to the last segment.
    pub fn segment_index(&self, f: f64) -> usize {
        debug_assert!(f >= 0.0, "work must be non-negative, got {f}");
        if f >= self.f_max() {
            return self.num_segments() - 1;
        }
        // partition_point returns the first breakpoint > f; segment index is
        // one less (breakpoints[0] = 0 ≤ f always).
        self.breakpoints.partition_point(|&p| p <= f).max(1) - 1
    }

    /// Evaluates the accuracy reached with `f` GFLOP of work.
    pub fn eval(&self, f: f64) -> f64 {
        debug_assert!(f >= 0.0, "work must be non-negative, got {f}");
        if f >= self.f_max() {
            return self.a_max();
        }
        let k = self.segment_index(f);
        self.values[k] + self.slopes[k] * (f - self.breakpoints[k])
    }

    /// Marginal gain: the right derivative `∂⁺a/∂f` at `f`.
    ///
    /// Zero at and beyond `f_max` (additional work yields no accuracy).
    pub fn marginal_gain(&self, f: f64) -> f64 {
        debug_assert!(f >= 0.0, "work must be non-negative, got {f}");
        if f >= self.f_max() {
            return 0.0;
        }
        // At an interior breakpoint the right derivative is the next slope,
        // which segment_index's right-inclusive convention already selects.
        self.slopes[self.segment_index(f)]
    }

    /// Marginal loss: the left derivative `∂⁻a/∂f` at `f`.
    ///
    /// At `f = 0` this returns the first slope (there is nothing to remove,
    /// so callers treat the value as an upper bound on what removing work
    /// could cost).
    pub fn marginal_loss(&self, f: f64) -> f64 {
        debug_assert!(f >= 0.0, "work must be non-negative, got {f}");
        if f <= 0.0 {
            return self.slopes[0];
        }
        if f >= self.f_max() {
            return self.last_slope();
        }
        let k = self.segment_index(f);
        if f == self.breakpoints[k] {
            // Exactly at an interior breakpoint: left derivative is the
            // previous segment's slope.
            self.slopes[k - 1]
        } else {
            self.slopes[k]
        }
    }

    /// Minimum work needed to reach accuracy `target`.
    ///
    /// Returns an error when `target` lies outside `[a_min, a_max]`.
    pub fn inverse(&self, target: f64) -> Result<f64, AccuracyError> {
        let (a_min, a_max) = (self.a_min(), self.a_max());
        if target < a_min - SLOPE_TOL || target > a_max + SLOPE_TOL {
            return Err(AccuracyError::AccuracyOutOfRange {
                target,
                a_min,
                a_max,
            });
        }
        let target = target.clamp(a_min, a_max);
        // First breakpoint whose value reaches the target.
        let k = self.values.partition_point(|&v| v < target);
        if k == 0 {
            return Ok(0.0);
        }
        let (k0, k1) = (k - 1, k);
        if self.values[k0] >= target {
            return Ok(self.breakpoints[k0]);
        }
        let slope = self.slopes[k0];
        if slope <= 0.0 {
            // Flat segment yet values[k1] >= target > values[k0]: impossible
            // by monotonicity, but guard against tolerance artifacts.
            return Ok(self.breakpoints[k1]);
        }
        Ok(self.breakpoints[k0] + (target - self.values[k0]) / slope)
    }

    /// Iterates over the linear segments in order of increasing `f`.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        (0..self.num_segments()).map(move |k| Segment {
            index: k,
            f_lo: self.breakpoints[k],
            f_hi: self.breakpoints[k + 1],
            a_lo: self.values[k],
            slope: self.slopes[k],
        })
    }

    /// Returns a copy with the work axis multiplied by `factor > 0`.
    ///
    /// Slopes divide by `factor`; accuracies are unchanged. Used to
    /// renormalize fitted curves so the first-segment slope equals a target
    /// task efficiency θ.
    pub fn scale_f(&self, factor: f64) -> Result<Self, AccuracyError> {
        if !(factor.is_finite() && factor > 0.0) {
            return Err(AccuracyError::InvalidParameter {
                name: "factor",
                value: factor,
            });
        }
        let points: Vec<(f64, f64)> = self
            .breakpoints
            .iter()
            .zip(&self.values)
            .map(|(&p, &v)| (p * factor, v))
            .collect();
        Self::new(&points)
    }

    /// Total accuracy gain available beyond work level `f`
    /// (`a_max − a(f)`).
    #[inline]
    pub fn remaining_gain(&self, f: f64) -> f64 {
        (self.a_max() - self.eval(f)).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> PwlAccuracy {
        // Concave: slopes 0.4, 0.2, 0.05.
        PwlAccuracy::new(&[(0.0, 0.1), (1.0, 0.5), (2.0, 0.7), (4.0, 0.8)]).unwrap()
    }

    #[test]
    fn construction_rejects_too_few_points() {
        assert!(matches!(
            PwlAccuracy::new(&[(0.0, 0.1)]),
            Err(AccuracyError::TooFewPoints(1))
        ));
    }

    #[test]
    fn construction_rejects_nonzero_start() {
        assert!(matches!(
            PwlAccuracy::new(&[(1.0, 0.1), (2.0, 0.2)]),
            Err(AccuracyError::FirstPointNotZero(_))
        ));
    }

    #[test]
    fn construction_rejects_non_increasing_breakpoints() {
        assert!(matches!(
            PwlAccuracy::new(&[(0.0, 0.1), (1.0, 0.2), (1.0, 0.3)]),
            Err(AccuracyError::NonIncreasingBreakpoints { index: 2, .. })
        ));
    }

    #[test]
    fn construction_rejects_decreasing_values() {
        assert!(matches!(
            PwlAccuracy::new(&[(0.0, 0.5), (1.0, 0.3)]),
            Err(AccuracyError::DecreasingValues { index: 1, .. })
        ));
    }

    #[test]
    fn construction_rejects_convex_curves() {
        assert!(matches!(
            PwlAccuracy::new(&[(0.0, 0.0), (1.0, 0.1), (2.0, 0.5)]),
            Err(AccuracyError::NotConcave { index: 1, .. })
        ));
    }

    #[test]
    fn construction_rejects_nan() {
        assert!(matches!(
            PwlAccuracy::new(&[(0.0, f64::NAN), (1.0, 0.1)]),
            Err(AccuracyError::NonFinite { index: 0, .. })
        ));
    }

    #[test]
    fn eval_at_breakpoints_and_interiors() {
        let a = sample();
        assert_eq!(a.eval(0.0), 0.1);
        assert!((a.eval(0.5) - 0.3).abs() < 1e-12);
        assert_eq!(a.eval(1.0), 0.5);
        assert!((a.eval(3.0) - 0.75).abs() < 1e-12);
        assert_eq!(a.eval(4.0), 0.8);
    }

    #[test]
    fn eval_saturates_beyond_f_max() {
        let a = sample();
        assert_eq!(a.eval(100.0), 0.8);
        assert_eq!(a.marginal_gain(100.0), 0.0);
    }

    #[test]
    fn marginal_gain_and_loss_at_breakpoint() {
        let a = sample();
        // Right derivative at p_1 = 1.0 is the second slope (0.2); left is 0.4.
        assert!((a.marginal_gain(1.0) - 0.2).abs() < 1e-12);
        assert!((a.marginal_loss(1.0) - 0.4).abs() < 1e-12);
        // Interior of segment 1: both are the segment slope.
        assert!((a.marginal_gain(1.5) - 0.2).abs() < 1e-12);
        assert!((a.marginal_loss(1.5) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn marginal_loss_at_zero_and_fmax() {
        let a = sample();
        assert!((a.marginal_loss(0.0) - 0.4).abs() < 1e-12);
        assert!((a.marginal_loss(4.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn segment_index_convention() {
        let a = sample();
        assert_eq!(a.segment_index(0.0), 0);
        assert_eq!(a.segment_index(0.99), 0);
        assert_eq!(a.segment_index(1.0), 1);
        assert_eq!(a.segment_index(3.999), 2);
        assert_eq!(a.segment_index(4.0), 2);
        assert_eq!(a.segment_index(9.0), 2);
    }

    #[test]
    fn inverse_round_trips() {
        let a = sample();
        for &f in &[0.0, 0.25, 0.5, 1.0, 1.7, 2.0, 3.2, 4.0] {
            let acc = a.eval(f);
            let back = a.inverse(acc).unwrap();
            assert!((a.eval(back) - acc).abs() < 1e-9, "f = {f}");
            // inverse returns the *minimum* work reaching that accuracy.
            assert!(back <= f + 1e-9);
        }
    }

    #[test]
    fn inverse_rejects_unreachable() {
        let a = sample();
        assert!(a.inverse(0.9).is_err());
        assert!(a.inverse(0.05).is_err());
        assert_eq!(a.inverse(0.8).unwrap(), 4.0);
        assert_eq!(a.inverse(0.1).unwrap(), 0.0);
    }

    #[test]
    fn segments_iterator_reconstructs_function() {
        let a = sample();
        let segs: Vec<Segment> = a.segments().collect();
        assert_eq!(segs.len(), 3);
        assert_eq!(segs[0].f_lo, 0.0);
        assert_eq!(segs[2].f_hi, 4.0);
        let total_gain: f64 = segs.iter().map(|s| s.gain()).sum();
        assert!((total_gain - (a.a_max() - a.a_min())).abs() < 1e-12);
        for s in &segs {
            assert!((s.a_lo + s.gain() - a.eval(s.f_hi)).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_f_scales_slopes_inversely() {
        let a = sample();
        let b = a.scale_f(2.0).unwrap();
        assert_eq!(b.f_max(), 8.0);
        assert!((b.first_slope() - a.first_slope() / 2.0).abs() < 1e-12);
        assert_eq!(b.a_max(), a.a_max());
        assert!(a.scale_f(0.0).is_err());
        assert!(a.scale_f(f64::NAN).is_err());
    }

    #[test]
    fn flat_tail_is_allowed() {
        // A final zero-slope segment is valid (already at max accuracy).
        let a = PwlAccuracy::new(&[(0.0, 0.0), (1.0, 0.5), (2.0, 0.5)]).unwrap();
        assert_eq!(a.eval(1.5), 0.5);
        assert_eq!(a.marginal_gain(1.5), 0.0);
        assert_eq!(a.inverse(0.5).unwrap(), 1.0);
    }

    #[test]
    fn remaining_gain() {
        let a = sample();
        assert!((a.remaining_gain(0.0) - 0.7).abs() < 1e-12);
        assert!((a.remaining_gain(4.0)).abs() < 1e-12);
    }
}
