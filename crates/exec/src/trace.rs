//! Execution traces: what actually happened when a schedule ran.

use serde::{Deserialize, Serialize};

/// Kind of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A task started on a machine.
    Dispatch,
    /// A task finished (ran its full planned allocation).
    Finish,
    /// A task was compressed at runtime to make its deadline.
    Compressed,
    /// A task was dropped (overrun policy, or no allocation).
    Dropped,
    /// A task was cut short because its machine failed mid-run
    /// (an injected machine failure).
    Failed,
}

/// One timestamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation time in seconds.
    pub time: f64,
    /// Machine index.
    pub machine: usize,
    /// Task index.
    pub task: usize,
    /// What happened.
    pub kind: EventKind,
}

/// Realized outcome of one task.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskOutcome {
    /// Machine the task ran on (`None` = never dispatched).
    pub machine: Option<usize>,
    /// Wall-clock start time (s).
    pub start: f64,
    /// Wall-clock completion time (s).
    pub completion: f64,
    /// Work actually performed (GFLOP).
    pub work: f64,
    /// Accuracy realized, `a_j(work)`.
    pub accuracy: f64,
    /// Energy consumed by this task (J).
    pub energy: f64,
    /// Whether the task finished by its deadline (vacuously true for
    /// never-dispatched tasks, which consume nothing).
    pub met_deadline: bool,
    /// Effective speed factor the machine delivered during this task
    /// (1.0 = nominal).
    pub speed_factor: f64,
}

/// Full result of executing a schedule.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Chronological event log.
    pub events: Vec<TraceEvent>,
    /// Per-task outcomes, indexed by task.
    pub tasks: Vec<TaskOutcome>,
    /// `Σ_j a_j(realized work)`.
    pub realized_accuracy: f64,
    /// Total energy drawn (J).
    pub realized_energy: f64,
    /// Tasks whose planned allocation had to be compressed at runtime.
    pub compressions: usize,
    /// Tasks dropped at runtime.
    pub drops: usize,
    /// Latest completion time across machines (makespan, s).
    pub makespan: f64,
}

impl ExecutionTrace {
    /// Mean realized accuracy per task.
    pub fn mean_accuracy(&self) -> f64 {
        if self.tasks.is_empty() {
            0.0
        } else {
            self.realized_accuracy / self.tasks.len() as f64
        }
    }

    /// Number of tasks that missed their deadline (ran past it).
    pub fn deadline_misses(&self) -> usize {
        self.tasks.iter().filter(|t| !t.met_deadline).count()
    }

    /// Number of tasks cut short by an injected machine failure.
    pub fn failures(&self) -> usize {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Failed)
            .count()
    }
}
