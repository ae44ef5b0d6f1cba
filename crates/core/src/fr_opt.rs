//! Algorithm 4 of the paper: `DSCT-EA-FR-OPT` — the exact combinatorial
//! solver for the fractional relaxation DSCT-EA-FR with piecewise-linear
//! accuracy functions.
//!
//! Composition of Algorithm 2 (optimal solution for the naive energy
//! profile, [`crate::algo_naive::NaiveSolver::solution_under`]) and
//! [`crate::algo_refine::refine_profile`] (energy transfers to a KKT
//! point). Runs in `O(n² m²)` time up to the refinement's convergence
//! constant. A cold solve builds its [`NaiveSolver`] once: the naive
//! stage, the profile search and its finisher all run on it.

use crate::algo_naive::{NaiveSolver, ValueFnWorkspace};
use crate::algo_refine::refine_profile_in;
use crate::problem::Instance;
use crate::profile::{naive_profile, EnergyProfile};
use crate::profile_search::{profile_search_in, ProfileSearchOptions, ProfileSearchOutcome};
use crate::schedule::FractionalSchedule;

/// Options for the fractional solver.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrOptOptions {
    /// Skip all refinement (ablation: naive profile only).
    pub skip_refine: bool,
    /// Options for the profile search.
    pub search: ProfileSearchOptions,
}

/// Solution of the fractional relaxation.
#[derive(Debug, Clone, PartialEq)]
pub struct FrSolution {
    /// Optimal processing-time matrix (fractional semantics).
    pub schedule: FractionalSchedule,
    /// Work per task in GFLOP.
    pub flops: Vec<f64>,
    /// Total accuracy `Σ_j a_j(f_j)` — equals the DSCT-EA upper bound
    /// `DSCT-EA-UB` used throughout the paper's evaluation.
    pub total_accuracy: f64,
    /// The naive energy profile the solve started from (Fig. 6 baseline).
    pub naive_profile: EnergyProfile,
    /// The realized profile (per-machine busy time) of the final solution.
    pub profile: Vec<f64>,
    /// Energy consumed by the final solution (J).
    pub energy: f64,
    /// Refinement iterations performed (0 when skipped).
    pub refine_iterations: usize,
    /// Profile-search statistics (sweeps, transfers, `V(p)` probe
    /// counters), `None` when refinement was skipped.
    pub search: Option<ProfileSearchOutcome>,
}

/// Solves DSCT-EA-FR exactly (Algorithm 4), probing through a
/// caller-owned workspace so the profile search's buffers amortize across
/// solves.
///
/// Pipeline: naive profile → optimal solution for it (Algorithm 2) →
/// task-level energy transfers (Algorithm 3, a fast first-order pass) →
/// profile-level coordinate ascent with exact re-solve
/// ([`crate::profile_search`]), which certifies/corrects the transfer
/// pass. The final solution is the exact optimum for the refined profile;
/// re-solving for the profile of any feasible solution never decreases
/// accuracy, so each stage is monotone.
///
/// This is the implementation [`crate::solver::FrOptSolver`] — the sole
/// public entry point — delegates to.
pub(crate) fn solve_fr_opt_with(
    inst: &Instance,
    opts: &FrOptOptions,
    ws: &mut ValueFnWorkspace,
) -> FrSolution {
    let solver = NaiveSolver::new_in(inst, &mut ws.arena);
    let solution = solve_fr_opt_in(&solver, inst, opts, None, ws);
    solver.recycle(&mut ws.arena);
    solution
}

/// [`solve_fr_opt_with`] on the caller's evaluator, built for `inst` —
/// the replanner keeps it past the solve for its admission certificate.
///
/// With a `start` hint (typically an online service's incumbent plan
/// minus already-dispatched work) the naive profile and the task-level
/// transfer pass are skipped and the profile search starts from the
/// hint, so the common case per arrival is a handful of incremental
/// Δ-probes rather than the full pipeline. The hint is sanitized first
/// (non-finite caps dropped, caps clamped to `[0, d_max]`, the whole
/// vector scaled down when its energy exceeds the budget), so *any*
/// profile of the right length is valid: the search's exact re-solve and
/// slack absorption make the result a profile-search optimum regardless
/// of the start — the hint only shortens the path to it. Wrong-length
/// hints, and disabled refinement, run the pipeline as without one.
pub(crate) fn solve_fr_opt_in(
    solver: &NaiveSolver,
    inst: &Instance,
    opts: &FrOptOptions,
    start: Option<&EnergyProfile>,
    ws: &mut ValueFnWorkspace,
) -> FrSolution {
    let naive = naive_profile(inst);
    let (mut schedule, mut flops);
    let mut refine_iterations = 0;
    let mut search = None;

    if let Some(hint) = start.filter(|h| h.len() == inst.num_machines() && !opts.skip_refine) {
        let start = sanitize_hint(inst, hint);
        let (_, refined, outcome) = profile_search_in(solver, inst, &start, &opts.search, ws);
        refine_iterations = outcome.transfers;
        search = Some(outcome);
        (schedule, flops) = (refined.schedule, refined.flops);
    } else {
        let base = solver.solution_under(ws, &naive);
        (schedule, flops) = (base.schedule, base.flops);
        if !opts.skip_refine {
            refine_iterations =
                refine_profile_in(inst, &mut schedule, &mut flops, &mut ws.arena).iterations;
            // Start the profile search from the realized loads of the best
            // schedule so far; its exact re-solve is monotone.
            let start = EnergyProfile::new(
                schedule
                    .profile()
                    .iter()
                    .map(|&p| p.min(inst.d_max()))
                    .collect(),
            );
            let before = schedule.total_accuracy(inst);
            let (_, refined, outcome) = profile_search_in(solver, inst, &start, &opts.search, ws);
            refine_iterations += outcome.transfers;
            search = Some(outcome);
            if refined.schedule.total_accuracy(inst) >= before {
                schedule = refined.schedule;
                flops = refined.flops;
            }
        }
    }

    let total_accuracy = schedule.total_accuracy(inst);
    let energy = schedule.energy(inst);
    let profile = schedule.profile();
    FrSolution {
        schedule,
        flops,
        total_accuracy,
        naive_profile: naive,
        profile,
        energy,
        refine_iterations,
        search,
    }
}

/// A warm-start hint made valid for `inst`: non-finite caps become 0,
/// every cap is clamped to `[0, d_max]`, and the whole vector is scaled
/// into the budget when its energy exceeds it.
fn sanitize_hint(inst: &Instance, hint: &EnergyProfile) -> EnergyProfile {
    let machines = inst.machines().machines();
    let mut caps: Vec<f64> = hint
        .caps()
        .iter()
        .map(|&c| {
            if c.is_finite() {
                c.clamp(0.0, inst.d_max())
            } else {
                0.0
            }
        })
        .collect();
    let energy: f64 = caps
        .iter()
        .zip(machines)
        .map(|(&c, mach)| c * mach.power())
        .sum();
    if energy > inst.budget() && energy > 0.0 {
        let scale = inst.budget() / energy;
        for c in &mut caps {
            *c *= scale;
        }
    }
    EnergyProfile::new(caps)
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

    fn solve(inst: &Instance, opts: &FrOptOptions) -> FrSolution {
        solve_fr_opt_with(inst, opts, &mut ValueFnWorkspace::new())
    }

    #[test]
    fn produces_feasible_solutions() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.2, acc(&[(0.0, 0.0), (300.0, 0.5), (800.0, 0.8)])),
            Task::new(0.9, acc(&[(0.0, 0.0), (500.0, 0.4), (1500.0, 0.7)])),
            Task::new(1.4, acc(&[(0.0, 0.0), (200.0, 0.6), (900.0, 0.82)])),
        ];
        let inst = Instance::new(tasks, park, 40.0).unwrap();
        let sol = solve(&inst, &FrOptOptions::default());
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        assert!(sol.total_accuracy > 0.0);
        assert!(sol.energy <= inst.budget() + 1e-6);
        // Flops bookkeeping matches the schedule.
        for j in 0..inst.num_tasks() {
            assert!((sol.schedule.flops(j, &inst) - sol.flops[j]).abs() < 1e-6);
        }
    }

    #[test]
    fn refinement_never_hurts() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 30.0).unwrap(),
            Machine::from_efficiency(4000.0, 15.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.1, acc(&[(0.0, 0.0), (400.0, 0.7)])),
            Task::new(1.0, acc(&[(0.0, 0.0), (2000.0, 0.5)])),
        ];
        let inst = Instance::new(tasks, park, 25.0).unwrap();
        let with = solve(&inst, &FrOptOptions::default());
        let without = solve(
            &inst,
            &FrOptOptions {
                skip_refine: true,
                ..Default::default()
            },
        );
        assert!(with.total_accuracy >= without.total_accuracy - 1e-9);
        assert_eq!(without.refine_iterations, 0);
    }

    #[test]
    fn generous_budget_and_deadlines_reach_max_accuracy() {
        let park = MachinePark::new(vec![Machine::from_efficiency(1000.0, 50.0).unwrap()]);
        let tasks = vec![
            Task::new(10.0, acc(&[(0.0, 0.1), (100.0, 0.8)])),
            Task::new(20.0, acc(&[(0.0, 0.1), (200.0, 0.9)])),
        ];
        let inst = Instance::new(tasks, park, 1e9).unwrap();
        let sol = solve(&inst, &FrOptOptions::default());
        assert!(
            (sol.total_accuracy - inst.total_max_accuracy()).abs() < 1e-9,
            "got {}, want {}",
            sol.total_accuracy,
            inst.total_max_accuracy()
        );
    }
}
