use std::fmt;

/// Errors produced when constructing or querying accuracy models.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum AccuracyError {
    /// Fewer than two breakpoints were supplied.
    TooFewPoints(usize),
    /// The first breakpoint abscissa is not zero.
    FirstPointNotZero(f64),
    /// Breakpoint abscissae are not strictly increasing at the given index.
    NonIncreasingBreakpoints { index: usize, prev: f64, next: f64 },
    /// Accuracy values decrease at the given segment.
    DecreasingValues { index: usize, prev: f64, next: f64 },
    /// Segment slopes increase (the function is not concave) at the boundary
    /// between segments `index - 1` and `index`.
    NotConcave {
        index: usize,
        prev_slope: f64,
        next_slope: f64,
    },
    /// A coordinate is NaN or infinite.
    NonFinite { index: usize, value: f64 },
    /// An accuracy target outside `[a_min, a_max]` was passed to
    /// [`crate::PwlAccuracy::inverse`].
    AccuracyOutOfRange { target: f64, a_min: f64, a_max: f64 },
    /// Invalid scalar parameter (θ, cutoff, scale factor, …).
    InvalidParameter { name: &'static str, value: f64 },
}

impl fmt::Display for AccuracyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccuracyError::TooFewPoints(n) => {
                write!(f, "need at least 2 breakpoints, got {n}")
            }
            AccuracyError::FirstPointNotZero(x) => {
                write!(f, "first breakpoint must be at f = 0, got {x}")
            }
            AccuracyError::NonIncreasingBreakpoints { index, prev, next } => write!(
                f,
                "breakpoints must be strictly increasing: p[{}] = {} !< p[{}] = {}",
                index - 1,
                prev,
                index,
                next
            ),
            AccuracyError::DecreasingValues { index, prev, next } => write!(
                f,
                "accuracy values must be non-decreasing: a[{}] = {} > a[{}] = {}",
                index - 1,
                prev,
                index,
                next
            ),
            AccuracyError::NotConcave {
                index,
                prev_slope,
                next_slope,
            } => write!(
                f,
                "slopes must be non-increasing (concave): slope[{}] = {} < slope[{}] = {}",
                index - 1,
                prev_slope,
                index,
                next_slope
            ),
            AccuracyError::NonFinite { index, value } => {
                write!(f, "non-finite coordinate at breakpoint {index}: {value}")
            }
            AccuracyError::AccuracyOutOfRange {
                target,
                a_min,
                a_max,
            } => write!(
                f,
                "accuracy target {target} outside reachable range [{a_min}, {a_max}]"
            ),
            AccuracyError::InvalidParameter { name, value } => {
                write!(f, "invalid parameter {name} = {value}")
            }
        }
    }
}

impl std::error::Error for AccuracyError {}
