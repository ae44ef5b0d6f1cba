use crate::fit::{self, BreakpointSpacing};
use crate::{AccuracyError, PwlAccuracy};
use serde::{Deserialize, Serialize};

/// Fraction of the accuracy range deliberately left unreached when deriving
/// `f_max` from θ: `f_max = −ln(CUTOFF)/θ`, so the *raw* exponential reaches
/// `a_max − CUTOFF·(a_max − a_min)` at `f_max` before normalization.
pub const DEFAULT_CUTOFF: f64 = 1e-3;

/// The paper's exponential accuracy model (§6), normalized to hit both
/// endpoints exactly:
///
/// `a(f) = a_min + (a_max − a_min) · (1 − e^{−θ f}) / (1 − e^{−θ f_max})`
/// for `f ∈ [0, f_max]`, saturating at `a_max` beyond.
///
/// θ controls how quickly accuracy saturates with work; the paper calls the
/// first fitted piecewise-linear slope the task efficiency and samples θ in
/// `[0.1, 4.9]`. `f` is in GFLOP and θ in 1/GFLOP.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExponentialAccuracy {
    a_min: f64,
    a_max: f64,
    theta: f64,
    f_max: f64,
}

impl ExponentialAccuracy {
    /// Creates the model with an explicit `f_max`.
    pub fn new(theta: f64, a_min: f64, a_max: f64, f_max: f64) -> Result<Self, AccuracyError> {
        if !(theta.is_finite() && theta > 0.0) {
            return Err(AccuracyError::InvalidParameter {
                name: "theta",
                value: theta,
            });
        }
        if !(f_max.is_finite() && f_max > 0.0) {
            return Err(AccuracyError::InvalidParameter {
                name: "f_max",
                value: f_max,
            });
        }
        if !(a_min.is_finite()
            && a_max.is_finite()
            && (0.0..=1.0).contains(&a_min)
            && a_max > a_min)
        {
            return Err(AccuracyError::InvalidParameter {
                name: "a_min/a_max",
                value: a_max,
            });
        }
        Ok(Self {
            a_min,
            a_max,
            theta,
            f_max,
        })
    }

    /// Creates the model with `f_max` derived from θ via the cutoff rule
    /// `f_max = −ln(cutoff)/θ` (the work at which the raw exponential has
    /// closed all but a `cutoff` fraction of the accuracy range).
    pub fn with_cutoff(
        theta: f64,
        a_min: f64,
        a_max: f64,
        cutoff: f64,
    ) -> Result<Self, AccuracyError> {
        if !(cutoff.is_finite() && cutoff > 0.0 && cutoff < 1.0) {
            return Err(AccuracyError::InvalidParameter {
                name: "cutoff",
                value: cutoff,
            });
        }
        if !(theta.is_finite() && theta > 0.0) {
            return Err(AccuracyError::InvalidParameter {
                name: "theta",
                value: theta,
            });
        }
        Self::new(theta, a_min, a_max, -cutoff.ln() / theta)
    }

    /// The paper's experimental defaults: `a_min = 1/1000` (random guess over
    /// ImageNet-1k classes), `a_max = 0.82` (OFA ResNet-50 top-1), and the
    /// default cutoff.
    pub fn paper_default(theta: f64) -> Result<Self, AccuracyError> {
        Self::with_cutoff(theta, 1.0 / 1000.0, 0.82, DEFAULT_CUTOFF)
    }

    /// Like [`ExponentialAccuracy::paper_default`] but with custom accuracy
    /// endpoints (the default cutoff still derives `f_max` from θ).
    pub fn paper_defaults_with(theta: f64, a_min: f64, a_max: f64) -> Result<Self, AccuracyError> {
        Self::with_cutoff(theta, a_min, a_max, DEFAULT_CUTOFF)
    }

    /// Accuracy reached with `f` GFLOP of work.
    pub fn eval(&self, f: f64) -> f64 {
        debug_assert!(f >= 0.0);
        let f = f.min(self.f_max);
        let norm = 1.0 - (-self.theta * self.f_max).exp();
        self.a_min + (self.a_max - self.a_min) * (1.0 - (-self.theta * f).exp()) / norm
    }

    /// Minimum work reaching accuracy `target`.
    pub fn inverse(&self, target: f64) -> Result<f64, AccuracyError> {
        if target < self.a_min - 1e-12 || target > self.a_max + 1e-12 {
            return Err(AccuracyError::AccuracyOutOfRange {
                target,
                a_min: self.a_min,
                a_max: self.a_max,
            });
        }
        let target = target.clamp(self.a_min, self.a_max);
        let norm = 1.0 - (-self.theta * self.f_max).exp();
        let u = (target - self.a_min) / (self.a_max - self.a_min) * norm;
        if u >= 1.0 {
            return Ok(self.f_max);
        }
        Ok((-(1.0 - u).ln() / self.theta).min(self.f_max))
    }

    /// Accuracy at zero work.
    #[inline]
    pub fn a_min(&self) -> f64 {
        self.a_min
    }

    /// Maximum reachable accuracy.
    #[inline]
    pub fn a_max(&self) -> f64 {
        self.a_max
    }

    /// Saturation rate θ (1/GFLOP).
    #[inline]
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Work for full execution (GFLOP).
    #[inline]
    pub fn f_max(&self) -> f64 {
        self.f_max
    }

    /// Chord-interpolating piecewise-linear approximation with `k` segments.
    ///
    /// Chords of a concave function are automatically concave and hit the
    /// curve exactly at the breakpoints, including both endpoints.
    pub fn to_pwl(
        &self,
        k: usize,
        spacing: BreakpointSpacing,
    ) -> Result<PwlAccuracy, AccuracyError> {
        fit::chord_fit(|f| self.eval(f), self.f_max, k, spacing)
    }

    /// Piecewise-linear approximation rescaled on the work axis so that the
    /// first segment's slope equals θ *exactly*, matching the paper's
    /// definition of task efficiency as "the slope of the first segment".
    pub fn to_pwl_theta_normalized(
        &self,
        k: usize,
        spacing: BreakpointSpacing,
    ) -> Result<PwlAccuracy, AccuracyError> {
        // Rescale the chord points, then build (and validate) the curve
        // once: the same bits as `to_pwl(..)?.scale_f(s0 / θ)` without
        // constructing the unscaled curve first. Workload generators call
        // this once per task.
        let mut points = fit::chord_points(|f| self.eval(f), self.f_max, k, spacing)?;
        let ((f0, a0), (f1, a1)) = (points[0], points[1]);
        let s0 = ((a1 - a0) / (f1 - f0)).max(0.0);
        if s0 <= 0.0 {
            return Err(AccuracyError::InvalidParameter {
                name: "first_slope",
                value: s0,
            });
        }
        let factor = s0 / self.theta;
        for point in &mut points {
            point.0 *= factor;
        }
        PwlAccuracy::new(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_parameters() {
        assert!(ExponentialAccuracy::new(0.0, 0.0, 0.8, 1.0).is_err());
        assert!(ExponentialAccuracy::new(1.0, 0.0, 0.8, 0.0).is_err());
        assert!(ExponentialAccuracy::new(1.0, 0.9, 0.8, 1.0).is_err());
        assert!(ExponentialAccuracy::with_cutoff(1.0, 0.0, 0.8, 0.0).is_err());
        assert!(ExponentialAccuracy::with_cutoff(1.0, 0.0, 0.8, 1.5).is_err());
    }

    #[test]
    fn endpoints_are_exact() {
        let e = ExponentialAccuracy::paper_default(0.5).unwrap();
        assert!((e.eval(0.0) - 0.001).abs() < 1e-12);
        assert!((e.eval(e.f_max()) - 0.82).abs() < 1e-12);
        assert_eq!(e.eval(e.f_max() * 2.0), e.eval(e.f_max()));
    }

    #[test]
    fn cutoff_rule_sets_f_max() {
        let e = ExponentialAccuracy::with_cutoff(2.0, 0.0, 1.0, 1e-3).unwrap();
        assert!((e.f_max() - (1000.0f64).ln() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn curve_is_increasing_and_concave() {
        let e = ExponentialAccuracy::paper_default(1.3).unwrap();
        let mut prev_a = e.eval(0.0);
        let mut prev_step = f64::INFINITY;
        for i in 1..=100 {
            let f = e.f_max() * i as f64 / 100.0;
            let a = e.eval(f);
            // Equal steps in f: the gains never grow (concavity).
            let step = a - prev_a;
            assert!(step >= -1e-12);
            assert!(step <= prev_step + 1e-12);
            prev_a = a;
            prev_step = step;
        }
    }

    #[test]
    fn inverse_round_trips() {
        let e = ExponentialAccuracy::paper_default(0.7).unwrap();
        for i in 0..=20 {
            let f = e.f_max() * i as f64 / 20.0;
            let back = e.inverse(e.eval(f)).unwrap();
            assert!(
                (back - f).abs() < 1e-6 * (1.0 + f),
                "f = {f}, back = {back}"
            );
        }
        assert!(e.inverse(0.9).is_err());
    }

    #[test]
    fn pwl_fit_matches_at_breakpoints() {
        let e = ExponentialAccuracy::paper_default(1.0).unwrap();
        let p = e.to_pwl(5, BreakpointSpacing::Uniform).unwrap();
        assert_eq!(p.num_segments(), 5);
        assert!((p.a_min() - e.a_min()).abs() < 1e-12);
        assert!((p.a_max() - e.a_max()).abs() < 1e-12);
        for &bp in p.breakpoints() {
            assert!((p.eval(bp) - e.eval(bp)).abs() < 1e-9);
        }
        // Chords under-approximate a concave function between breakpoints.
        for i in 0..100 {
            let f = e.f_max() * (i as f64 + 0.5) / 100.0;
            assert!(p.eval(f) <= e.eval(f) + 1e-9);
        }
    }

    #[test]
    fn theta_normalized_first_slope() {
        for &theta in &[0.1, 0.5, 1.0, 4.9] {
            let e = ExponentialAccuracy::paper_default(theta).unwrap();
            let p = e
                .to_pwl_theta_normalized(5, BreakpointSpacing::Uniform)
                .unwrap();
            assert!(
                (p.first_slope() - theta).abs() < 1e-9 * theta,
                "theta = {theta}, got {}",
                p.first_slope()
            );
            // Every generated instance's bits hang on this: rescaling the
            // chord points before the one construction equals constructing
            // the unscaled curve and rescaling that.
            let unscaled = e.to_pwl(5, BreakpointSpacing::Uniform).unwrap();
            let two_step = unscaled.scale_f(unscaled.first_slope() / theta).unwrap();
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(p.breakpoints()), bits(two_step.breakpoints()));
            assert_eq!(bits(p.values()), bits(two_step.values()));
            assert_eq!(bits(p.slopes()), bits(two_step.slopes()));
        }
    }
}
