//! Agreement suite for the data-oriented solve core and the LU simplex
//! (DESIGN.md §15):
//!
//! 1. **FR-OPT vs LP agreement** — the Δ-probe/checkpoint search must
//!    reach the simplex optimum of DSCT-EA-FR to ≤ 1e-4 relative across
//!    24 seeds × 3 load regimes, with the solution oracle validating the
//!    FR-OPT output.
//! 2. **Simplex vs MIP at scale** — on relaxed instances (single
//!    machine, so the assignment binaries are forced and the MIP's root
//!    relaxation is integral) the LU/Forrest–Tomlin simplex objective
//!    must agree with the branch-and-bound MIP objective at n = 1000
//!    (scaled down under debug builds, where the LP alone would dominate
//!    the tier-1 wall clock).
//! 3. **FR-OPT vs LP at n = 1000, m = 32** — `#[ignore]`d (minutes of
//!    simplex): the largest size at which the two have been compared.

use dsct_core::oracle::{Claims, SolutionOracle};
use dsct_core::schedule::ScheduleKind;
use dsct_core::solver::{FrOptSolver, LpSolver, MipSolver, Solution, SolverContext};
use dsct_mip::MipStatus;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

fn config(n: usize, m: usize, rho: f64, beta: f64) -> InstanceConfig {
    InstanceConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 1.0 }),
        machines: MachineConfig::paper_random(m),
        rho,
        beta,
    }
}

/// FR-OPT through a reused [`SolverContext`] vs the simplex optimum of
/// the same relaxation: ≤ 1e-4 relative agreement over 24 seeds × 3
/// deadline/budget load regimes (measured worst 1.7e-5; the search stops
/// on an ε-gate and a gain tolerance, so it is not exact to the last
/// digit — `fr_optimality.rs` holds 2e-4 on its small instances).
#[test]
fn fr_opt_and_lp_agree_across_seeds_and_loads() {
    let loads = [(0.2, 0.3), (0.35, 0.5), (0.6, 0.8)];
    let (n, m) = if cfg!(debug_assertions) {
        (24, 3)
    } else {
        (48, 5)
    };
    let mut ctx = SolverContext::new();
    let mut checked = 0usize;
    for (li, &(rho, beta)) in loads.iter().enumerate() {
        for seed in 0..24u64 {
            let inst = generate(&config(n, m, rho, beta), 9000 + 100 * li as u64 + seed);
            let fr = FrOptSolver::new().solve_typed_with(&inst, &mut ctx);
            let lp = LpSolver::new()
                .solve_typed(&inst)
                .expect("well-posed relaxation");
            assert_eq!(lp.status, dsct_lp::Status::Optimal, "load {li} seed {seed}");
            let scale = lp.total_accuracy.abs().max(1.0);
            assert!(
                (fr.total_accuracy - lp.total_accuracy).abs() <= 1e-4 * scale,
                "load {li} seed {seed}: FR-OPT {} vs LP {}",
                fr.total_accuracy,
                lp.total_accuracy
            );
            // The oracle vets the FR-OPT output, not just its objective.
            let sol = Solution::from_fr(&inst, fr);
            SolutionOracle::new()
                .verify(&inst, &sol, &Claims::feasible(ScheduleKind::Fractional))
                .expect("FR-OPT output must satisfy every solution invariant");
            checked += 1;
        }
    }
    assert_eq!(checked, 72, "24 seeds x 3 loads");
}

/// LU-simplex LP vs branch-and-bound MIP on relaxed (single-machine)
/// instances: with m = 1 the assignment binaries are forced to 1, the
/// MIP's feasible set equals the LP's, and the two objectives must agree
/// to LP tolerance. Runs at n = 1000 in release (the scale the dense
/// simplex could not reach); scaled down in debug where tier-1 runs.
#[test]
fn simplex_and_mip_objectives_agree_on_relaxed_instances() {
    let n = if cfg!(debug_assertions) { 60 } else { 1000 };
    for seed in [11u64, 12] {
        let inst = generate(&config(n, 1, 0.35, 0.5), seed);
        let lp = LpSolver::new()
            .solve_typed(&inst)
            .expect("well-posed relaxation");
        assert_eq!(lp.status, dsct_lp::Status::Optimal, "seed {seed}");
        let mip = MipSolver::new().solve_typed(&inst).expect("well-posed MIP");
        assert_eq!(mip.status, MipStatus::Optimal, "seed {seed}");
        let scale = lp.total_accuracy.abs().max(1.0);
        assert!(
            (lp.total_accuracy - mip.total_accuracy).abs() <= 1e-6 * scale,
            "seed {seed} n {n}: LP {} vs MIP {}",
            lp.total_accuracy,
            mip.total_accuracy
        );
    }
}

/// The largest FR-OPT vs LP comparison on record: `n = 1000, m = 32`,
/// seed 777 (accuracy 717.14, the two 2.1e-9 apart when first measured).
/// The simplex alone runs for minutes in release, so this is opt-in:
/// `cargo test --release --test soa_lp_agreement -- --ignored`.
#[test]
#[ignore = "minutes of simplex at n = 1000, m = 32; run in --release with --ignored"]
fn fr_opt_and_lp_agree_at_n1000_m32() {
    let inst = generate(&config(1000, 32, 0.35, 0.5), 777);
    let lp = LpSolver::new()
        .solve_typed(&inst)
        .expect("well-posed relaxation");
    assert_eq!(lp.status, dsct_lp::Status::Optimal);
    let fr = FrOptSolver::new().solve_typed(&inst);
    let scale = lp.total_accuracy.abs().max(1.0);
    assert!(
        (fr.total_accuracy - lp.total_accuracy).abs() <= 1e-6 * scale,
        "FR-OPT {} vs LP {}",
        fr.total_accuracy,
        lp.total_accuracy
    );
}
