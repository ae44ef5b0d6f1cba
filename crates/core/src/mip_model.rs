//! The full DSCT-EA mixed-integer program (paper §3), built for
//! [`dsct_mip`] — the workspace's `DSCT-EA-Opt` (the paper uses cvx-MOSEK).
//!
//! On top of the relaxation of [`crate::lp_model`], binary assignment
//! variables `x_jr` enforce that each task runs on exactly one machine:
//! `t_jr ≤ x_jr · d_j` and `Σ_r x_jr = 1`.

use crate::lp_model::build_fr_lp;
use crate::problem::Instance;
use crate::schedule::FractionalSchedule;
use dsct_lp::{Cmp, Var};
use dsct_mip::{solve_mip, MipError, MipOptions, MipStatus};

/// Result of the exact MIP solve.
#[derive(Debug, Clone)]
pub struct MipScheduleSolution {
    /// Solver status (Optimal / TimeLimit / …).
    pub status: MipStatus,
    /// Best integral schedule found (empty when no incumbent).
    pub schedule: Option<FractionalSchedule>,
    /// Total accuracy of the incumbent.
    pub total_accuracy: f64,
    /// Proven upper bound on the optimum.
    pub best_bound: f64,
    /// Branch-and-bound nodes explored.
    pub nodes: usize,
}

/// Builds and solves the DSCT-EA MIP. This is the implementation
/// [`crate::solver::MipSolver`] — the sole public entry point —
/// delegates to.
pub(crate) fn solve_mip_exact_impl(
    inst: &Instance,
    opts: &MipOptions,
) -> Result<MipScheduleSolution, MipError> {
    let n = inst.num_tasks();
    let m = inst.num_machines();
    let mut built = build_fr_lp(inst);

    // Binary x_jr with linking rows.
    let mut x_vars: Vec<Var> = Vec::with_capacity(n * m);
    for _j in 0..n {
        for _r in 0..m {
            x_vars.push(built.model.add_var(0.0, 0.0, 1.0));
        }
    }
    for j in 0..n {
        let d_j = inst.task(j).deadline;
        for r in 0..m {
            // t_jr − d_j · x_jr ≤ 0.
            built.model.add_row(
                Cmp::Le,
                0.0,
                &[(built.t_vars[j * m + r], 1.0), (x_vars[j * m + r], -d_j)],
            );
        }
        let terms: Vec<(Var, f64)> = (0..m).map(|r| (x_vars[j * m + r], 1.0)).collect();
        built.model.add_row(Cmp::Eq, 1.0, &terms);
    }

    let sol = solve_mip(&built.model, &x_vars, opts)?;
    let schedule = if sol.found_incumbent {
        let mut s = FractionalSchedule::zero(n, m);
        for j in 0..n {
            for r in 0..m {
                s.set_t(j, r, sol.x[built.t_vars[j * m + r].index()].max(0.0));
            }
        }
        Some(s)
    } else {
        None
    };
    Ok(MipScheduleSolution {
        status: sol.status,
        schedule,
        total_accuracy: sol.objective,
        best_bound: sol.best_bound,
        nodes: sol.nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_naive::ValueFnWorkspace;
    use crate::fr_opt::solve_fr_opt_with;
    use crate::problem::Task;
    use crate::schedule::ScheduleKind;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn small_instance() -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 40.0).unwrap(),
            Machine::from_efficiency(2500.0, 25.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.4, acc(&[(0.0, 0.0), (150.0, 0.5), (500.0, 0.8)])),
            Task::new(0.9, acc(&[(0.0, 0.0), (300.0, 0.6), (700.0, 0.75)])),
            Task::new(1.2, acc(&[(0.0, 0.0), (200.0, 0.4), (600.0, 0.7)])),
        ];
        Instance::new(tasks, park, 25.0).unwrap()
    }

    #[test]
    fn mip_solution_is_integral_and_feasible() {
        let inst = small_instance();
        let sol = solve_mip_exact_impl(&inst, &MipOptions::default()).unwrap();
        assert_eq!(sol.status, MipStatus::Optimal);
        let schedule = sol.schedule.expect("incumbent");
        schedule.validate(&inst, ScheduleKind::Integral).unwrap();
        // Objective equals recomputed accuracy.
        assert!((schedule.total_accuracy(&inst) - sol.total_accuracy).abs() < 1e-6);
    }

    #[test]
    fn mip_bracketed_by_fractional_bound_and_approx() {
        let inst = small_instance();
        let mip = solve_mip_exact_impl(&inst, &MipOptions::default()).unwrap();
        let fr = solve_fr_opt_with(&inst, &mut ValueFnWorkspace::new());
        // The fractional optimum upper-bounds the integral optimum.
        assert!(
            mip.total_accuracy <= fr.total_accuracy + 1e-6,
            "MIP {} > FR {}",
            mip.total_accuracy,
            fr.total_accuracy
        );
    }

    #[test]
    fn single_machine_mip_matches_fractional() {
        let park = MachinePark::new(vec![Machine::from_efficiency(1000.0, 40.0).unwrap()]);
        let tasks = vec![
            Task::new(0.5, acc(&[(0.0, 0.0), (300.0, 0.6)])),
            Task::new(1.0, acc(&[(0.0, 0.0), (400.0, 0.5)])),
        ];
        let inst = Instance::new(tasks, park, 20.0).unwrap();
        let mip = solve_mip_exact_impl(&inst, &MipOptions::default()).unwrap();
        let fr = solve_fr_opt_with(&inst, &mut ValueFnWorkspace::new());
        assert_eq!(mip.status, MipStatus::Optimal);
        assert!(
            (mip.total_accuracy - fr.total_accuracy).abs() < 1e-5,
            "MIP {} vs FR {}",
            mip.total_accuracy,
            fr.total_accuracy
        );
    }
}
