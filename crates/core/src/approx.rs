//! Algorithm 5 of the paper: `DSCT-EA-APPROX` — the approximation
//! algorithm for the (NP-hard) integral DSCT-EA problem.
//!
//! The algorithm solves the fractional relaxation exactly
//! ([`crate::fr_opt`]), then list-schedules each task, in deadline order,
//! onto the machine with the least accumulated work, giving it its total
//! fractional processing time. The realized per-machine profile of the
//! fractional solution acts as a hard load cap, which keeps the integral
//! schedule inside the energy budget. A final pass cuts any task that
//! overruns its deadline (compressing it further) and shifts the following
//! tasks earlier.
//!
//! Guarantee (Eq. 13/14): `OPT − G ≤ SOL ≤ OPT` with
//! `G = m (a^max − a^min)(1 + ln(θ_max/θ_min))`; see [`crate::guarantee`].
//!
//! Deviations from the paper's listing (DESIGN.md §3): the per-machine
//! assignment caps the task's time at `f_j^max / s_r` (a fast machine can
//! finish the full model in less than the fractional total time), and the
//! load accumulator update the listing omits is restored.

use crate::algo_naive::{NaiveSolver, ValueFnWorkspace};
use crate::fr_opt::{solve_fr_opt_in, FrSolution};
use crate::problem::Instance;
use crate::profile::EnergyProfile;
use crate::schedule::FractionalSchedule;
use crate::EPS_TIME;

/// Result of the approximation algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct ApproxSolution {
    /// Integral schedule: at most one machine per task.
    pub schedule: FractionalSchedule,
    /// Machine each task was placed on (`None`: no capacity left).
    pub assignment: Vec<Option<usize>>,
    /// Total accuracy of the integral schedule.
    pub total_accuracy: f64,
    /// The fractional solution used as a base (its accuracy is the upper
    /// bound `DSCT-EA-UB`).
    pub fractional: FrSolution,
}

/// Runs `DSCT-EA-APPROX` with a caller-owned probe workspace for the
/// embedded fractional solve. This is the implementation
/// [`crate::solver::ApproxSolver`] — the sole public entry point —
/// delegates to.
pub(crate) fn solve_approx_with(inst: &Instance, ws: &mut ValueFnWorkspace) -> ApproxSolution {
    let solver = NaiveSolver::new_in(inst, &mut ws.arena);
    let solution = solve_approx_in(&solver, inst, None, ws);
    solver.recycle(&mut ws.arena);
    solution
}

/// [`solve_approx_with`] on the caller's evaluator, built for `inst`,
/// with the embedded fractional solve warm-started from `start` when
/// given (see [`crate::fr_opt`]'s `solve_fr_opt_in`) — what makes
/// per-arrival online re-plans cheap.
pub(crate) fn solve_approx_in(
    solver: &NaiveSolver,
    inst: &Instance,
    start: Option<&EnergyProfile>,
    ws: &mut ValueFnWorkspace,
) -> ApproxSolution {
    let fractional = solve_fr_opt_in(solver, inst, start, ws);
    let schedule = assign_from_fractional(inst, &fractional);
    finish(inst, fractional, schedule)
}

/// Runs the list-scheduling and cut phases on an existing fractional
/// solution (the renewable-supply solver builds its own).
pub fn approx_from_fractional(inst: &Instance, fractional: FrSolution) -> ApproxSolution {
    let schedule = assign_from_fractional(inst, &fractional);
    finish(inst, fractional, schedule)
}

fn finish(inst: &Instance, fractional: FrSolution, schedule: FractionalSchedule) -> ApproxSolution {
    let assignment = (0..inst.num_tasks())
        .map(|j| schedule.assigned_machine(j))
        .collect();
    let total_accuracy = schedule.total_accuracy(inst);
    ApproxSolution {
        schedule,
        assignment,
        total_accuracy,
        fractional,
    }
}

fn assign_from_fractional(inst: &Instance, fr: &FrSolution) -> FractionalSchedule {
    let n = inst.num_tasks();
    let m = inst.num_machines();
    let machines = inst.machines();

    // Per-machine load caps: the fractional solution's realized profile.
    let caps: Vec<f64> = fr.profile.clone();
    let mut load = vec![0.0f64; m];
    let mut schedule = FractionalSchedule::zero(n, m);

    // Phase 1: list-schedule each task's total fractional time onto the
    // least-loaded machine with cap left, capped by the machine's
    // remaining profile and by the task's full-model time on it.
    for j in 0..n {
        let total_time = fr.schedule.task_time(j);
        if total_time <= EPS_TIME {
            continue;
        }
        let r_best = (0..m)
            .filter(|&r| caps[r] - load[r] > EPS_TIME)
            .min_by(|&a, &b| load[a].total_cmp(&load[b]).then(a.cmp(&b)));
        let Some(r) = r_best else {
            continue; // every machine is at its profile: task gets nothing
        };
        let t_full_model = inst.task(j).f_max() / machines[r].speed();
        let t = total_time.min(caps[r] - load[r]).min(t_full_model);
        schedule.set_t(j, r, t.max(0.0));
        load[r] += t;
    }

    // Phase 2: cut tasks violating their deadline and shift followers.
    for r in 0..m {
        let mut completion = 0.0;
        for j in 0..n {
            let t = schedule.t(j, r);
            if t <= 0.0 {
                continue;
            }
            let d = inst.task(j).deadline;
            let new_t = if completion + t > d {
                (d - completion).max(0.0)
            } else {
                t
            };
            schedule.set_t(j, r, new_t);
            completion += new_t;
        }
    }

    schedule
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use crate::schedule::ScheduleKind;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn solve(inst: &Instance) -> ApproxSolution {
        solve_approx_with(inst, &mut ValueFnWorkspace::new())
    }

    fn instance(budget: f64) -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.3, acc(&[(0.0, 0.0), (300.0, 0.5), (900.0, 0.8)])),
            Task::new(0.8, acc(&[(0.0, 0.0), (500.0, 0.4), (1200.0, 0.7)])),
            Task::new(1.5, acc(&[(0.0, 0.0), (250.0, 0.6), (600.0, 0.82)])),
            Task::new(1.9, acc(&[(0.0, 0.0), (700.0, 0.3), (2000.0, 0.65)])),
        ];
        Instance::new(tasks, park, budget).unwrap()
    }

    #[test]
    fn integral_schedule_is_feasible() {
        for budget in [5.0, 25.0, 80.0, 400.0] {
            let inst = instance(budget);
            let sol = solve(&inst);
            sol.schedule
                .validate(&inst, ScheduleKind::Integral)
                .unwrap_or_else(|e| panic!("budget {budget}: {e:?}"));
        }
    }

    #[test]
    fn never_exceeds_fractional_upper_bound() {
        for budget in [5.0, 25.0, 80.0, 400.0] {
            let inst = instance(budget);
            let sol = solve(&inst);
            assert!(
                sol.total_accuracy <= sol.fractional.total_accuracy + 1e-9,
                "budget {budget}: SOL {} > UB {}",
                sol.total_accuracy,
                sol.fractional.total_accuracy
            );
        }
    }

    #[test]
    fn assignment_matches_schedule() {
        let inst = instance(50.0);
        let sol = solve(&inst);
        for (j, &a) in sol.assignment.iter().enumerate() {
            match a {
                Some(r) => assert!(sol.schedule.t(j, r) > 0.0),
                None => assert!(sol.schedule.task_time(j) <= EPS_TIME * 4.0),
            }
        }
    }

    #[test]
    fn single_machine_instance_matches_fractional() {
        // With one machine the relaxation is already integral, so the
        // approximation loses nothing.
        let park = MachinePark::new(vec![Machine::from_efficiency(1000.0, 40.0).unwrap()]);
        let tasks = vec![
            Task::new(0.5, acc(&[(0.0, 0.0), (300.0, 0.6)])),
            Task::new(1.0, acc(&[(0.0, 0.0), (400.0, 0.5)])),
        ];
        let inst = Instance::new(tasks, park, 20.0).unwrap();
        let sol = solve(&inst);
        assert!(
            (sol.total_accuracy - sol.fractional.total_accuracy).abs() < 1e-6,
            "SOL {} vs UB {}",
            sol.total_accuracy,
            sol.fractional.total_accuracy
        );
    }
}
