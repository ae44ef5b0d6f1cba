//! Instance types for the DSCT-EA problem (paper §3).

use dsct_accuracy::PwlAccuracy;
use dsct_machines::MachinePark;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors produced when constructing an [`Instance`].
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // variant fields are self-describing
pub enum ProblemError {
    /// No tasks.
    NoTasks,
    /// A deadline is not finite and positive.
    InvalidDeadline { task: usize, deadline: f64 },
    /// Tasks are not sorted by non-decreasing deadline.
    UnsortedDeadlines { task: usize },
    /// The energy budget is not finite and non-negative.
    InvalidBudget(f64),
}

impl fmt::Display for ProblemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProblemError::NoTasks => write!(f, "instance has no tasks"),
            ProblemError::InvalidDeadline { task, deadline } => {
                write!(f, "task {task} has invalid deadline {deadline}")
            }
            ProblemError::UnsortedDeadlines { task } => {
                write!(f, "task {task} breaks non-decreasing deadline order")
            }
            ProblemError::InvalidBudget(b) => write!(f, "invalid energy budget {b}"),
        }
    }
}

impl std::error::Error for ProblemError {}

/// One compressible inference task (paper §3).
///
/// `f^max` (the work of the uncompressed model) and the accuracy range come
/// from the task's accuracy function; the deadline `d_j` is in seconds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Task {
    /// Deadline in seconds.
    pub deadline: f64,
    /// Concave piecewise-linear accuracy function over work in GFLOP.
    pub accuracy: PwlAccuracy,
}

impl Task {
    /// Creates a task.
    pub fn new(deadline: f64, accuracy: PwlAccuracy) -> Self {
        Self { deadline, accuracy }
    }

    /// Work of the uncompressed model in GFLOP (`f_j^max`).
    #[inline]
    pub fn f_max(&self) -> f64 {
        self.accuracy.f_max()
    }
}

/// A DSCT-EA instance: tasks sorted by non-decreasing deadline, a machine
/// park, and the energy budget `B` in joules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Instance {
    tasks: Vec<Task>,
    machines: MachinePark,
    budget: f64,
}

impl Instance {
    /// Validates and wraps an instance. Tasks must already be sorted by
    /// non-decreasing deadline (the paper's canonical task indexing).
    pub fn new(tasks: Vec<Task>, machines: MachinePark, budget: f64) -> Result<Self, ProblemError> {
        if tasks.is_empty() {
            return Err(ProblemError::NoTasks);
        }
        let mut prev = 0.0;
        for (j, t) in tasks.iter().enumerate() {
            if !(t.deadline.is_finite() && t.deadline > 0.0) {
                return Err(ProblemError::InvalidDeadline {
                    task: j,
                    deadline: t.deadline,
                });
            }
            if t.deadline < prev {
                return Err(ProblemError::UnsortedDeadlines { task: j });
            }
            prev = t.deadline;
        }
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(ProblemError::InvalidBudget(budget));
        }
        Ok(Self {
            tasks,
            machines,
            budget,
        })
    }

    /// Like [`Instance::new`] but sorts the tasks by deadline first.
    pub fn new_sorting(
        mut tasks: Vec<Task>,
        machines: MachinePark,
        budget: f64,
    ) -> Result<Self, ProblemError> {
        tasks.sort_by(|a, b| a.deadline.total_cmp(&b.deadline));
        Self::new(tasks, machines, budget)
    }

    /// An instance without tasks, for [`crate::residual::ResidualPool`],
    /// which fills it, keeps its rows in deadline order and never hands
    /// it out empty.
    pub(crate) fn empty(machines: MachinePark) -> Self {
        Self {
            tasks: Vec::new(),
            machines,
            budget: 0.0,
        }
    }

    /// The task rows, for a pool that keeps them in deadline order.
    pub(crate) fn tasks_mut(&mut self) -> &mut Vec<Task> {
        &mut self.tasks
    }

    /// Replaces the budget in place (finite and non-negative).
    pub(crate) fn set_budget(&mut self, budget: f64) {
        debug_assert!(budget.is_finite() && budget >= 0.0);
        self.budget = budget;
    }

    /// Replaces the machine park in place.
    pub(crate) fn set_machines(&mut self, machines: MachinePark) {
        self.machines = machines;
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Number of machines `m`.
    #[inline]
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// The tasks, in deadline order.
    #[inline]
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Task `j`.
    #[inline]
    pub fn task(&self, j: usize) -> &Task {
        &self.tasks[j]
    }

    /// The machine park.
    #[inline]
    pub fn machines(&self) -> &MachinePark {
        &self.machines
    }

    /// Energy budget `B` in joules.
    #[inline]
    pub fn budget(&self) -> f64 {
        self.budget
    }

    /// Returns a copy with a different energy budget (used by β sweeps).
    pub fn with_budget(&self, budget: f64) -> Result<Self, ProblemError> {
        Self::new(self.tasks.clone(), self.machines.clone(), budget)
    }

    /// Largest deadline `d^max`.
    pub fn d_max(&self) -> f64 {
        self.tasks.last().expect("non-empty").deadline
    }

    /// Total uncompressed work `Σ_j f_j^max` in GFLOP.
    pub fn total_work(&self) -> f64 {
        self.tasks.iter().map(Task::f_max).sum()
    }

    /// Sum of every task's maximum accuracy (the unconstrained optimum of
    /// the objective).
    pub fn total_max_accuracy(&self) -> f64 {
        self.tasks.iter().map(|t| t.accuracy.a_max()).sum()
    }

    /// Sum of every task's zero-work accuracy (the objective's floor).
    pub fn total_min_accuracy(&self) -> f64 {
        self.tasks.iter().map(|t| t.accuracy.a_min()).sum()
    }

    /// The paper's energy-budget ratio
    /// `β = B / (d^max · Σ_r P_r)`: the budget as a fraction of the energy
    /// needed to run every machine flat-out until the last deadline.
    pub fn beta(&self) -> f64 {
        self.budget / (self.d_max() * self.machines.total_power())
    }

    /// The deadline-tolerance ratio
    /// `ρ = d^max / (Σ_j f_j^max / Σ_r s_r)`: the horizon as a fraction of
    /// the time the whole park needs to process every task uncompressed.
    /// (Operational form of the paper's ρ; see DESIGN.md.)
    pub fn rho(&self) -> f64 {
        self.d_max() / (self.total_work() / self.machines.total_speed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_machines::Machine;

    fn acc() -> PwlAccuracy {
        PwlAccuracy::new(&[(0.0, 0.0), (1.0, 0.6), (2.0, 0.8)]).unwrap()
    }

    fn park() -> MachinePark {
        MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ])
    }

    #[test]
    fn rejects_empty_and_bad_deadlines() {
        assert!(matches!(
            Instance::new(vec![], park(), 1.0),
            Err(ProblemError::NoTasks)
        ));
        assert!(matches!(
            Instance::new(vec![Task::new(0.0, acc())], park(), 1.0),
            Err(ProblemError::InvalidDeadline { .. })
        ));
        assert!(matches!(
            Instance::new(vec![Task::new(f64::NAN, acc())], park(), 1.0),
            Err(ProblemError::InvalidDeadline { .. })
        ));
    }

    #[test]
    fn rejects_unsorted_and_sorts_on_request() {
        let tasks = vec![Task::new(2.0, acc()), Task::new(1.0, acc())];
        assert!(matches!(
            Instance::new(tasks.clone(), park(), 1.0),
            Err(ProblemError::UnsortedDeadlines { task: 1 })
        ));
        let inst = Instance::new_sorting(tasks, park(), 1.0).unwrap();
        assert_eq!(inst.task(0).deadline, 1.0);
        assert_eq!(inst.task(1).deadline, 2.0);
    }

    #[test]
    fn rejects_bad_budget() {
        let tasks = vec![Task::new(1.0, acc())];
        assert!(Instance::new(tasks.clone(), park(), -1.0).is_err());
        assert!(Instance::new(tasks, park(), f64::INFINITY).is_err());
    }

    #[test]
    fn derived_ratios() {
        let tasks = vec![Task::new(1.0, acc()), Task::new(2.0, acc())];
        let inst = Instance::new(tasks, park(), 1000.0).unwrap();
        assert_eq!(inst.d_max(), 2.0);
        assert!((inst.total_work() - 4.0).abs() < 1e-12);
        // beta = 1000 / (2 * (25 + 5000/70))
        let denom = 2.0 * (25.0 + 5000.0 / 70.0);
        assert!((inst.beta() - 1000.0 / denom).abs() < 1e-12);
        // rho = 2 / (4 / 7000)
        assert!((inst.rho() - 2.0 / (4.0 / 7000.0)).abs() < 1e-9);
        assert!((inst.total_max_accuracy() - 1.6).abs() < 1e-12);
        assert!((inst.total_min_accuracy()).abs() < 1e-12);
    }

    #[test]
    fn with_budget_replaces_budget_only() {
        let tasks = vec![Task::new(1.0, acc())];
        let inst = Instance::new(tasks, park(), 10.0).unwrap();
        let other = inst.with_budget(20.0).unwrap();
        assert_eq!(other.budget(), 20.0);
        assert_eq!(other.num_tasks(), inst.num_tasks());
    }
}
