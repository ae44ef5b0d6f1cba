//! Residual-instance construction for rolling-horizon re-planning.
//!
//! An online service re-plans its pending pool at the current time `t`:
//! deadlines shift to `d_j − t`, the budget shrinks to whatever the
//! energy ledger still has uncommitted, and tasks whose deadline already
//! passed are excluded (they can only realize their zero-work accuracy).
//! The result is an ordinary offline [`Instance`] — solvable by any
//! [`crate::solver::Solver`] — plus the id mapping back to the caller's
//! stable task ids.
//!
//! Machine *availability* (a machine still busy with a committed task at
//! `t`) is deliberately **not** encoded here: the residual solve assumes
//! every machine free at `t`, and the dispatcher restores feasibility at
//! materialization time by cutting tasks at their absolute deadlines
//! (the same phase-2 cut as [`crate::approx`]). Cutting only shortens
//! processing times, so the materialized plan never exceeds the solved
//! plan's energy.

use crate::problem::{Instance, ProblemError, Task};
use crate::EPS_TIME;
use dsct_accuracy::PwlAccuracy;
use dsct_machines::MachinePark;

/// One pending task submitted to residual construction: a caller-stable
/// id, an *absolute* deadline, and the accuracy function.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualItem {
    /// Caller-stable task id (e.g. the arrival rank).
    pub id: u64,
    /// Absolute deadline in seconds.
    pub deadline: f64,
    /// Concave piecewise-linear accuracy function over work in GFLOP.
    pub accuracy: PwlAccuracy,
}

/// A residual instance plus the mapping from residual task indices back
/// to the caller's stable ids.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidualInstance {
    /// The residual instance: deadlines relative to the construction
    /// time, tasks in non-decreasing residual-deadline order.
    pub instance: Instance,
    /// `task_ids[j]` is the caller id of residual task `j`.
    pub task_ids: Vec<u64>,
    /// Ids whose residual deadline was `<= 0` (excluded; they can only
    /// realize their zero-work accuracy).
    pub expired: Vec<u64>,
}

/// Builds the residual instance of `items` at time `now`, moving each
/// live item's accuracy curve into its task.
///
/// Items with `deadline − now <= 0` land in
/// [`ResidualInstance::expired`]; the rest are stably sorted by residual
/// deadline (ties keep the input order, so at `now = 0` an already
/// deadline-sorted item list reproduces the offline instance exactly).
/// Returns `Ok(None)` when no item is schedulable. The budget is clamped
/// to `>= 0` so a ledger overdraft (runtime jitter overshooting the
/// plan) degrades to a zero-budget instance instead of an error.
pub fn residual_instance(
    items: Vec<ResidualItem>,
    now: f64,
    machines: &MachinePark,
    remaining_budget: f64,
) -> Result<Option<ResidualInstance>, ProblemError> {
    let mut expired = Vec::new();
    let mut live: Vec<(u64, f64, PwlAccuracy)> = Vec::with_capacity(items.len());
    for item in items {
        let residual = item.deadline - now;
        if residual <= EPS_TIME {
            expired.push(item.id);
        } else {
            live.push((item.id, residual, item.accuracy));
        }
    }
    if live.is_empty() {
        return Ok(None);
    }
    live.sort_by(|a, b| a.1.total_cmp(&b.1));
    let task_ids: Vec<u64> = live.iter().map(|&(id, _, _)| id).collect();
    let tasks: Vec<Task> = live
        .into_iter()
        .map(|(_, d, acc)| Task::new(d, acc))
        .collect();
    let instance = Instance::new(tasks, machines.clone(), remaining_budget.max(0.0))?;
    Ok(Some(ResidualInstance {
        instance,
        task_ids,
        expired,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_machines::Machine;

    fn acc() -> PwlAccuracy {
        PwlAccuracy::new(&[(0.0, 0.0), (100.0, 0.5), (300.0, 0.8)]).unwrap()
    }

    fn park() -> MachinePark {
        MachinePark::new(vec![Machine::from_efficiency(1000.0, 40.0).unwrap()])
    }

    fn item(id: u64, deadline: f64) -> ResidualItem {
        ResidualItem {
            id,
            deadline,
            accuracy: acc(),
        }
    }

    #[test]
    fn shifts_deadlines_and_sorts_stably() {
        let items = vec![item(7, 5.0), item(3, 2.0), item(9, 5.0)];
        let r = residual_instance(items, 1.0, &park(), 10.0)
            .unwrap()
            .unwrap();
        // Sorted by residual deadline; the 5.0 tie keeps input order.
        assert_eq!(r.task_ids, vec![3, 7, 9]);
        assert!((r.instance.task(0).deadline - 1.0).abs() < 1e-12);
        assert!((r.instance.task(1).deadline - 4.0).abs() < 1e-12);
        assert!(r.expired.is_empty());
    }

    #[test]
    fn expired_items_are_excluded() {
        let items = vec![item(0, 0.5), item(1, 3.0)];
        let r = residual_instance(items, 1.0, &park(), 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(r.expired, vec![0]);
        assert_eq!(r.task_ids, vec![1]);
    }

    #[test]
    fn all_expired_yields_none() {
        let items = vec![item(0, 0.5), item(1, 0.9)];
        assert_eq!(residual_instance(items, 1.0, &park(), 10.0), Ok(None));
    }

    #[test]
    fn at_time_zero_reproduces_the_offline_instance() {
        let items = vec![item(0, 1.0), item(1, 2.0)];
        let r = residual_instance(items, 0.0, &park(), 7.0)
            .unwrap()
            .unwrap();
        let offline = Instance::new(
            vec![Task::new(1.0, acc()), Task::new(2.0, acc())],
            park(),
            7.0,
        )
        .unwrap();
        assert_eq!(r.instance, offline);
    }

    #[test]
    fn negative_budget_clamps_to_zero() {
        let items = vec![item(0, 2.0)];
        let r = residual_instance(items, 0.0, &park(), -3.0)
            .unwrap()
            .unwrap();
        assert_eq!(r.instance.budget(), 0.0);
    }
}
