//! Ground-truth validation of the combinatorial fractional solver: on
//! randomized instances, `DSCT-EA-FR-OPT` must match the LP optimum of
//! DSCT-EA-FR computed by the simplex solver (the paper's Theorem 2 claims
//! exactness via KKT conditions).

use dsct_core::schedule::ScheduleKind;
use dsct_core::solver::{FrOptSolver, LpSolver};
use dsct_lp::Status;
use dsct_workload::{InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};

fn check_instance(cfg: &InstanceConfig, seed: u64, tol_rel: f64) {
    let inst = dsct_workload::generate(cfg, seed);
    let lp = LpSolver::new().solve_typed(&inst).expect("LP builds");
    assert_eq!(lp.status, Status::Optimal, "seed {seed}");
    let fr = FrOptSolver::new().solve_typed(&inst);
    fr.schedule
        .validate(&inst, ScheduleKind::Fractional)
        .unwrap_or_else(|e| panic!("seed {seed}: infeasible FR solution {e:?}"));

    let scale = inst.total_max_accuracy().max(1.0);
    let gap = lp.total_accuracy - fr.total_accuracy;
    assert!(
        gap <= tol_rel * scale,
        "seed {seed}: FR-OPT {:.9} below LP optimum {:.9} (gap {gap:.3e}, n={}, m={}, beta={:.2}, rho={:.2})",
        fr.total_accuracy,
        lp.total_accuracy,
        inst.num_tasks(),
        inst.num_machines(),
        inst.beta(),
        inst.rho(),
    );
    // And FR-OPT must never *exceed* a valid optimum (would indicate an
    // infeasibility the validator missed).
    assert!(
        fr.total_accuracy <= lp.total_accuracy + tol_rel * scale,
        "seed {seed}: FR-OPT {} above LP optimum {}",
        fr.total_accuracy,
        lp.total_accuracy
    );
}

fn sweep(
    theta: ThetaDistribution,
    rho: f64,
    beta: f64,
    n: usize,
    m: usize,
    seeds: std::ops::Range<u64>,
) {
    let cfg = InstanceConfig {
        tasks: TaskConfig::paper(n, theta),
        machines: MachineConfig::paper_random(m),
        rho,
        beta,
    };
    for seed in seeds {
        check_instance(&cfg, seed, 2e-4);
    }
}

#[test]
fn matches_lp_on_small_homogeneous_tasks() {
    sweep(ThetaDistribution::Fixed(0.5), 0.5, 0.5, 4, 2, 0..15);
}

#[test]
fn matches_lp_on_heterogeneous_tasks() {
    sweep(
        ThetaDistribution::Uniform { min: 0.1, max: 2.0 },
        0.35,
        0.5,
        6,
        3,
        0..15,
    );
}

#[test]
fn matches_lp_under_tight_budget() {
    sweep(
        ThetaDistribution::Uniform { min: 0.1, max: 4.9 },
        0.5,
        0.15,
        5,
        3,
        0..15,
    );
}

#[test]
fn matches_lp_under_tight_deadlines() {
    sweep(
        ThetaDistribution::Uniform { min: 0.1, max: 4.9 },
        0.05,
        0.6,
        6,
        2,
        0..15,
    );
}

#[test]
fn matches_lp_with_early_efficient_tasks() {
    sweep(
        ThetaDistribution::EarlySplit {
            fraction: 0.3,
            early: (4.0, 4.9),
            late: (0.1, 1.0),
        },
        0.05,
        0.4,
        8,
        2,
        0..15,
    );
}

#[test]
fn matches_lp_on_larger_mixed_instances() {
    sweep(
        ThetaDistribution::Uniform { min: 0.1, max: 3.0 },
        0.2,
        0.3,
        12,
        4,
        0..8,
    );
}

/// Broad stress sweep across regimes (slow; run with `--ignored`).
#[test]
#[ignore = "broad stress sweep; run explicitly with --ignored"]
fn stress_many_seeds() {
    let regimes: &[(ThetaDistribution, f64, f64, usize, usize)] = &[
        (ThetaDistribution::Fixed(0.1), 1.0, 0.3, 10, 2),
        (
            ThetaDistribution::Uniform { min: 0.1, max: 4.9 },
            0.35,
            0.5,
            10,
            5,
        ),
        (
            ThetaDistribution::Uniform { min: 0.1, max: 4.9 },
            0.01,
            0.4,
            10,
            2,
        ),
        (
            ThetaDistribution::EarlySplit {
                fraction: 0.3,
                early: (4.0, 4.9),
                late: (0.1, 1.0),
            },
            0.01,
            0.2,
            15,
            3,
        ),
        (
            ThetaDistribution::Uniform { min: 0.5, max: 2.0 },
            0.1,
            0.8,
            20,
            4,
        ),
    ];
    for (k, (theta, rho, beta, n, m)) in regimes.iter().enumerate() {
        sweep(
            *theta,
            *rho,
            *beta,
            *n,
            *m,
            (100 * k as u64)..(100 * k as u64 + 40),
        );
    }
}
