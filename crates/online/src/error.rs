//! Typed errors of the online service.
//!
//! Shard extraction makes states that were "impossible" for a
//! whole-park service routine: an empty machine slice, a zero budget
//! slice, adversarial floats in drained-and-rerouted tasks. Every such
//! degenerate-but-reachable input surfaces here as a typed error
//! instead of a panic, so the sharded server can keep serving the
//! other cells.

use dsct_exec::ExecError;
use std::fmt;

/// An error from [`crate::OnlineService`] construction or submission.
#[derive(Debug, Clone, PartialEq)]
pub enum OnlineError {
    /// The service was handed zero machines (an empty shard slice).
    EmptyPark,
    /// The budget slice is NaN, infinite, or negative.
    InvalidBudget(f64),
    /// A submission or clock advance would move the service clock
    /// backwards.
    NonMonotoneClock {
        /// The offending timestamp.
        at: f64,
        /// The service clock at the attempt.
        now: f64,
    },
    /// A task field is NaN or infinite (rejected before it can reach a
    /// sort or a residual solve).
    InvalidTask {
        /// Id of the offending task.
        id: u64,
        /// Name of the offending field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A submission reuses the id of a task still pending in the cell.
    DuplicateId {
        /// The pending id.
        id: u64,
    },
    /// An invalid execution or disruption configuration.
    Exec(ExecError),
}

impl fmt::Display for OnlineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OnlineError::EmptyPark => write!(f, "the service needs at least one machine"),
            OnlineError::InvalidBudget(b) => {
                write!(f, "budget must be finite and non-negative, got {b}")
            }
            OnlineError::NonMonotoneClock { at, now } => write!(
                f,
                "the service clock only moves forward: got {at} at time {now}"
            ),
            OnlineError::InvalidTask { id, field, value } => {
                write!(f, "task {id}: {field} must be finite, got {value}")
            }
            OnlineError::DuplicateId { id } => write!(f, "task {id} is already pending"),
            OnlineError::Exec(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OnlineError {}

impl From<ExecError> for OnlineError {
    fn from(e: ExecError) -> Self {
        OnlineError::Exec(e)
    }
}
