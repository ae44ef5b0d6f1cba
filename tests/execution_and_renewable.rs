//! Cross-crate integration of the two extensions: the discrete-event
//! executor and the renewable-supply solver, exercised on generated
//! workloads.

use dsct_core::renewable::{solve_renewable, supply_violation, EnergySupply};
use dsct_core::schedule::ScheduleKind;
use dsct_core::solver::ApproxSolver;
use dsct_exec::{execute, ExecutionConfig, OverrunPolicy};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use proptest::prelude::*;

fn config(n: usize, m: usize, rho: f64, beta: f64) -> InstanceConfig {
    InstanceConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.2, max: 2.0 }),
        machines: MachineConfig::paper_random(m),
        rho,
        beta,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero-jitter execution realizes exactly the planned accuracy and
    /// energy on any generated instance.
    #[test]
    fn executor_reproduces_plans(seed in 0u64..500, n in 2usize..30, m in 1usize..4) {
        let inst = generate(&config(n, m, 0.3, 0.5), seed);
        let plan = ApproxSolver::new().solve_typed(&inst);
        let trace = execute(&inst, &plan.schedule, &ExecutionConfig::default());
        prop_assert!((trace.realized_accuracy - plan.total_accuracy).abs() < 1e-7);
        prop_assert!((trace.realized_energy - plan.schedule.energy(&inst)).abs() < 1e-7);
        prop_assert_eq!(trace.deadline_misses(), 0);
    }

    /// Under jitter with the compress policy, deadlines are never missed
    /// and realized accuracy never exceeds the plan (work can only be cut
    /// or fall short... fast machines can finish early but never exceed
    /// the planned work target).
    #[test]
    fn compress_policy_is_deadline_safe(seed in 0u64..300, jitter in 0.05f64..0.45) {
        let inst = generate(&config(15, 3, 0.2, 0.5), seed);
        let plan = ApproxSolver::new().solve_typed(&inst);
        let trace = execute(&inst, &plan.schedule, &ExecutionConfig {
            speed_jitter: jitter,
            seed: seed ^ 0x5a5a,
            overrun: OverrunPolicy::Compress,
        });
        prop_assert_eq!(trace.deadline_misses(), 0);
        prop_assert!(trace.realized_accuracy <= plan.total_accuracy + 1e-7);
        for t in &trace.tasks {
            prop_assert!(t.work >= 0.0 && t.energy >= 0.0);
        }
    }

    /// The windowed (renewable) fractional optimum is sandwiched between
    /// zero supply and the unconstrained-arrival optimum with the same
    /// total energy, and all its schedules respect the windows.
    #[test]
    fn renewable_is_bounded_by_constant_supply(seed in 0u64..100) {
        let inst = generate(&config(8, 2, 0.4, 0.5), seed);
        let total = inst.budget();
        let upfront = EnergySupply::constant(total).expect("valid");
        let ramp = EnergySupply::harvest(0.0, total / inst.d_max(), inst.d_max()).expect("valid");
        let a = solve_renewable(&inst, &upfront).expect("solves");
        let b = solve_renewable(&inst, &ramp).expect("solves");
        prop_assert!(b.fractional.total_accuracy <= a.fractional.total_accuracy + 1e-6);
        for sol in [&a, &b] {
            prop_assert!(sol.approx.total_accuracy <= sol.fractional.total_accuracy + 1e-7);
        }
        prop_assert!(supply_violation(&inst, &ramp, &b.fractional.schedule) < 1e-6);
        prop_assert!(supply_violation(&inst, &ramp, &b.approx.schedule) < 1e-6);
        let relaxed = inst.with_budget(total).expect("valid");
        prop_assert!(b.approx.schedule.validate(&relaxed, ScheduleKind::Integral).is_ok());
    }
}

#[test]
fn executed_trace_is_replayable_and_serializable() {
    let inst = generate(&config(10, 2, 0.3, 0.5), 7);
    let plan = ApproxSolver::new().solve_typed(&inst);
    let cfg = ExecutionConfig {
        speed_jitter: 0.25,
        seed: 99,
        overrun: OverrunPolicy::Compress,
    };
    let a = execute(&inst, &plan.schedule, &cfg);
    let b = execute(&inst, &plan.schedule, &cfg);
    let ja = serde_json::to_string(&a).expect("serializable");
    let jb = serde_json::to_string(&b).expect("serializable");
    assert_eq!(ja, jb, "execution must replay identically");
    let back: dsct_exec::ExecutionTrace = serde_json::from_str(&ja).expect("round-trips");
    assert_eq!(back.tasks.len(), a.tasks.len());
}
