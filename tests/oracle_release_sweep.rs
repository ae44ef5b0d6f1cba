//! The oracle guard release builds otherwise lack: `check_invariants`
//! defaults to `cfg!(debug_assertions)`, so nothing verifies what an
//! optimized build ships, and the dev-profile suites stay below the sizes
//! where the waterfill's machine-time resolution (which grows with `m`
//! and `Σ s_r`) exceeds the oracle's per-task work tolerance. CI runs this
//! file once with `cargo test --release --test oracle_release_sweep`.

use dsct_core::oracle::{Claims, SolutionOracle};
use dsct_core::schedule::ScheduleKind;
use dsct_core::solver::{FrOptSolver, Solution, SolverContext};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

/// FR-OPT's `Solution` passes the feasibility oracle on twelve seeds at
/// `n = 316, m = 32`. Before `Solution::from_fr` derived `flops` from the
/// schedule, eight of these twelve reported `FlopsMismatch`. Optimality
/// claims (KKT stationarity) are not made here: seed 4008 reports
/// `KktNotStationary` with golden section and with the exact line search
/// alike. Its refined profile's `V(p)` is the LP optimum; the waterfill
/// that materializes the schedule leaves 0.0086 GFLOP of the last task
/// undistributed, below its `eps_work` stopping threshold.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-profile guard; minutes in debug")]
fn fr_opt_solutions_pass_the_oracle_at_n316_m32() {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(316, ThetaDistribution::Uniform { min: 0.1, max: 1.0 }),
        machines: MachineConfig::paper_random(32),
        rho: 0.35,
        beta: 0.5,
    };
    let mut ctx = SolverContext::new();
    for seed in 4000..4012u64 {
        let inst = generate(&cfg, seed);
        let sol = Solution::from_fr(&inst, FrOptSolver::new().solve_typed_with(&inst, &mut ctx));
        SolutionOracle::new()
            .verify(&inst, &sol, &Claims::feasible(ScheduleKind::Fractional))
            .unwrap_or_else(|violations| panic!("seed {seed}: {violations:?}"));
    }
}
