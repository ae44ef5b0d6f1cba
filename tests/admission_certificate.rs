//! The admission certificate's arithmetic ([`dsct_core::fr_dual`]): the
//! weak-duality bound `D(μ,λ)` of an instance with any one task left out
//! must lie at or above the simplex optimum of that sub-instance, for the
//! block prices an FR-OPT solve of the whole instance yields and for
//! arbitrary prices alike. A pool emptied by the removal has optimum 0.
//! The minimised bound must also lie at or below `D` at every other `μ`.
//! Debug builds hold every certified admission of the online service to
//! the exact baseline test; this file holds the bound itself in whichever
//! profile it is run (CI runs it in `--release` too).

use dsct_core::algo_naive::{NaiveSolver, PriceBlocks, ValueCheckpoint};
use dsct_core::fr_dual::dual_bound;
use dsct_core::problem::Instance;
use dsct_core::soa::ScratchArena;
use dsct_core::solver::{FrOptSolver, LpSolver};
use dsct_lp::Status;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The simplex optimum of `inst` without task `skip`; 0 for an empty pool.
fn optimum_without(inst: &Instance, skip: Option<usize>) -> f64 {
    let mut tasks = inst.tasks().to_vec();
    if let Some(j) = skip {
        tasks.remove(j);
    }
    if tasks.is_empty() {
        return 0.0;
    }
    let sub = Instance::new(tasks, inst.machines().clone(), inst.budget()).expect("valid pool");
    let lp = LpSolver::new().solve_typed(&sub).expect("the simplex runs");
    assert_eq!(lp.status, Status::Optimal);
    lp.total_accuracy
}

/// Paper instances of `n ≤ 40` tasks on `m ≤ 4` machines, under slack and
/// tight deadlines and budgets.
fn instances() -> Vec<(String, Instance)> {
    let mut out = Vec::new();
    for (k, &(n, m)) in [
        (1, 1),
        (1, 3),
        (2, 2),
        (7, 1),
        (12, 4),
        (25, 3),
        (40, 4),
        (40, 2),
    ]
    .iter()
    .enumerate()
    {
        for (rho, beta) in [(0.35, 0.5), (0.05, 0.1), (1.5, 2.0)] {
            let cfg = InstanceConfig {
                tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 4.9 }),
                machines: MachineConfig::paper_random(m),
                rho,
                beta,
            };
            let label = format!("n={n} m={m} rho={rho} beta={beta}");
            out.push((label, generate(&cfg, 9000 + k as u64)));
        }
    }
    out
}

/// `None` plus up to six removed tasks, both ends of the EDF order among
/// them.
fn skips(n: usize) -> Vec<Option<usize>> {
    let mut out = vec![None, Some(0), Some(n - 1)];
    out.extend((1..n - 1).step_by((n / 4).max(1)).take(4).map(Some));
    out.dedup();
    out
}

#[test]
fn the_bound_without_any_task_covers_that_pools_optimum() {
    let mut rng = ChaCha8Rng::seed_from_u64(34);
    let mut arena = ScratchArena::new();
    let mut checked = 0usize;
    for (label, inst) in instances() {
        let n = inst.num_tasks();
        let solver = NaiveSolver::new(&inst);
        let mut ws = solver.workspace();
        let mut chk = ValueCheckpoint::new();
        let mut prices = PriceBlocks::new();
        let profile = FrOptSolver::new().solve_typed(&inst).profile;
        solver.checkpoint_into(&mut ws, &profile, &mut chk);
        solver.price_blocks_into(&mut ws, &chk, &mut prices);

        // Three block prices, each at its minimising μ, and random prices
        // at random and at minimising μ.
        let mut cases: Vec<(String, Vec<f64>, Option<f64>)> = Vec::new();
        for t in [0.0, 1.0, 0.5] {
            let mut lambda = Vec::new();
            prices.task_prices_into(solver.deadlines(), t, &mut lambda);
            cases.push((format!("blocks t={t}"), lambda, None));
        }
        let steepest = inst
            .tasks()
            .iter()
            .flat_map(|task| task.accuracy.segments().map(|s| s.slope))
            .fold(0.0f64, f64::max);
        for case in 0..4 {
            let lambda: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..1.5) * steepest).collect();
            let mu = (case % 2 == 0).then(|| rng.gen_range(0.0..2.0) * steepest);
            cases.push((format!("random #{case}"), lambda, mu));
        }

        for skip in skips(n) {
            let optimum = optimum_without(&inst, skip);
            let tol = 1e-7 * (1.0 + optimum.abs());
            for (name, lambda, mu) in &cases {
                let bound = dual_bound(&solver, &inst, lambda, skip, *mu, &mut arena);
                assert!(
                    bound >= optimum - tol,
                    "{label}, {name}, skip {skip:?}, mu {mu:?}: bound {bound} < optimum {optimum}"
                );
                checked += 1;
                if mu.is_none() {
                    // The minimiser over μ is no worse than any other μ.
                    for _ in 0..4 {
                        let other = rng.gen_range(0.0..2.0) * steepest;
                        let at = dual_bound(&solver, &inst, lambda, skip, Some(other), &mut arena);
                        assert!(
                            bound <= at + 1e-9 * (1.0 + at.abs()),
                            "{label}, {name}, skip {skip:?}: minimised {bound} > D(mu={other}) {at}"
                        );
                    }
                }
            }
        }
    }
    assert!(checked >= 800, "{checked} bounds checked");
}
