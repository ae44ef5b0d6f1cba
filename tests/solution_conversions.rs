//! Property tests for the [`Solution`] conversions: for every wrapped
//! solver, the uniform [`Solution`] returned through the [`Solver`] trait
//! must preserve the typed solution's accuracy and energy to 1e-12, and
//! its derived fields (assignment, flops, upper bound) must be consistent
//! with the underlying schedule.

use dsct_core::solver::{
    ApproxSolver, EdfSolver, FrOptSolver, LpSolver, MipSolver, Solution, Solver,
};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use proptest::prelude::*;

const TOL: f64 = 1e-12;

fn arb_config() -> impl Strategy<Value = InstanceConfig> {
    (
        2usize..10,
        1usize..4,
        0.1f64..2.0,
        prop_oneof![Just(0.05), Just(0.2), Just(0.5)],
        0.1f64..0.9,
    )
        .prop_map(|(n, m, theta_max, rho, beta)| InstanceConfig {
            tasks: TaskConfig::paper(
                n,
                ThetaDistribution::Uniform {
                    min: 0.1,
                    max: 0.1 + theta_max,
                },
            ),
            machines: MachineConfig::paper_random(m),
            rho,
            beta,
        })
}

fn check_consistency(inst: &dsct_core::problem::Instance, sol: &Solution) {
    assert_eq!(sol.flops.len(), inst.num_tasks());
    assert_eq!(sol.assignment.len(), inst.num_tasks());
    for j in 0..inst.num_tasks() {
        assert!((sol.flops[j] - sol.schedule.flops(j, inst)).abs() <= TOL.max(1e-9 * sol.flops[j]));
    }
    assert!((sol.energy - sol.schedule.energy(inst)).abs() <= 1e-9);
    if let Some(ub) = sol.upper_bound {
        assert!(
            sol.total_accuracy <= ub + 1e-6,
            "solution {} above its own certified bound {ub}",
            sol.total_accuracy
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// FR-OPT: trait-object path == typed path, exactly.
    #[test]
    fn fr_opt_conversion_preserves_objective(cfg in arb_config(), seed in 0u64..1_000) {
        let inst = generate(&cfg, seed);
        let typed = FrOptSolver::new().solve_typed(&inst);
        let sol = FrOptSolver::new().solve(&inst).expect("infallible");
        prop_assert!((sol.total_accuracy - typed.total_accuracy).abs() <= TOL);
        prop_assert!((sol.energy - typed.energy).abs() <= TOL);
        prop_assert_eq!(sol.upper_bound, Some(typed.total_accuracy));
        prop_assert!(!sol.integral);
        check_consistency(&inst, &sol);
    }

    /// APPROX: integral accuracy and the embedded fractional UB survive.
    #[test]
    fn approx_conversion_preserves_objective(cfg in arb_config(), seed in 0u64..1_000) {
        let inst = generate(&cfg, seed);
        let typed = ApproxSolver::new().solve_typed(&inst);
        let sol = ApproxSolver::new().solve(&inst).expect("infallible");
        prop_assert!((sol.total_accuracy - typed.total_accuracy).abs() <= TOL);
        prop_assert!((sol.energy - typed.schedule.energy(&inst)).abs() <= TOL);
        prop_assert_eq!(sol.upper_bound, Some(typed.fractional.total_accuracy));
        prop_assert_eq!(&sol.assignment, &typed.assignment);
        prop_assert!(sol.integral);
        check_consistency(&inst, &sol);
    }

    /// Both EDF baselines; no certified bound.
    #[test]
    fn edf_conversions_preserve_objective(cfg in arb_config(), seed in 0u64..1_000) {
        let inst = generate(&cfg, seed);
        for solver in [EdfSolver::no_compression(), EdfSolver::three_levels()] {
            let typed = solver.solve_typed(&inst);
            let sol = solver.solve(&inst).expect("infallible");
            prop_assert!((sol.total_accuracy - typed.total_accuracy).abs() <= TOL);
            prop_assert!((sol.energy - typed.energy).abs() <= TOL);
            prop_assert_eq!(sol.upper_bound, None);
            prop_assert_eq!(&sol.assignment, &typed.assignment);
            check_consistency(&inst, &sol);
        }
    }

    /// LP relaxation: objective and simplex iteration count survive.
    #[test]
    fn lp_conversion_preserves_objective(cfg in arb_config(), seed in 0u64..1_000) {
        let inst = generate(&cfg, seed);
        let typed = LpSolver::new().solve_typed(&inst).expect("model builds");
        let sol = LpSolver::new().solve(&inst).expect("optimal on these sizes");
        prop_assert!((sol.total_accuracy - typed.total_accuracy).abs() <= TOL);
        prop_assert_eq!(sol.stats.lp_iterations, typed.iterations);
        prop_assert_eq!(sol.upper_bound, Some(typed.total_accuracy));
        check_consistency(&inst, &sol);
    }
}

/// MIP on fixed tiny instances (branch & bound is exponential — keep the
/// property cheap and deterministic).
#[test]
fn mip_conversion_preserves_objective() {
    for seed in 0..6u64 {
        let cfg = InstanceConfig {
            tasks: TaskConfig::paper(4, ThetaDistribution::Uniform { min: 0.2, max: 2.0 }),
            machines: MachineConfig::paper_random(2),
            rho: 0.3,
            beta: 0.4,
        };
        let inst = generate(&cfg, seed);
        let typed = MipSolver::new().solve_typed(&inst).expect("model builds");
        let sol = MipSolver::new().solve(&inst).expect("incumbent found");
        assert!((sol.total_accuracy - typed.total_accuracy).abs() <= TOL);
        assert_eq!(sol.stats.nodes, typed.nodes);
        assert_eq!(sol.stats.best_bound, Some(typed.best_bound));
        assert_eq!(sol.upper_bound, Some(typed.best_bound));
        assert!(sol.integral);
        let schedule = typed.schedule.expect("incumbent");
        assert!((sol.energy - schedule.energy(&inst)).abs() <= TOL);
        check_consistency(&inst, &sol);
    }
}

/// A fractional `Solution` reports the work of its schedule, to the bit —
/// not the pooled allocation the schedule was distributed from, which the
/// waterfill reproduces only down to its machine-time resolution.
#[test]
fn fr_solution_reports_the_schedules_work_bitwise() {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(20, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(4),
        rho: 0.35,
        beta: 0.5,
    };
    for seed in 0..4u64 {
        let inst = generate(&cfg, seed);
        let sol = Solution::from_fr(&inst, FrOptSolver::new().solve_typed(&inst));
        for j in 0..inst.num_tasks() {
            assert_eq!(
                sol.flops[j].to_bits(),
                sol.schedule.flops(j, &inst).to_bits(),
                "seed {seed} task {j}"
            );
        }
    }
}
