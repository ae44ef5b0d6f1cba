//! The re-solve engine behind the online/sharded replan path: a
//! [`Replanner`] that owns the solver and, for a gated admission, bounds
//! the pool's optimum from the prices of the adoption solve instead of
//! re-planning the pool.
//!
//! # One re-plan path
//!
//! Every full re-solve runs one pipeline: when the caller supplies a hint
//! (the incumbent plan's surviving fractional profile) the profile search
//! starts from it, otherwise the cold pipeline runs. Either way the solve
//! runs on one evaluator the replanner builds for the instance and hands
//! back ([`Replanner::solve_keeping`]), so a gated admission is certified
//! against the very solve it would adopt. [`ReplanStrategy`] keeps its one
//! variant so configurations that name it keep working.
//!
//! No result is cached: between two solves of a live cell the remaining
//! budget or the clock moves, so a key on the residual's exact bits
//! would never repeat (a traced overload run read 0 hits in 5,920
//! lookups) and a store would only cost a clone per solve.
//!
//! # The admission certificate
//!
//! A gated admission compares the value of the pool plus the candidate
//! against a baseline, the value of a re-plan of the pool alone, and
//! both gated tests only get easier as the baseline falls. Any upper
//! bound on the pool's optimum `V*(P)` therefore stands in for the
//! baseline when the test passes at the bound. [`Replanner::certify_without`]
//! gets one from the adoption solve of `P ∪ {c}`: it checkpoints the
//! adopted profile on the solve's own evaluator, prices it
//! ([`PriceBlocks`]), and evaluates the weak-duality bound of
//! [`crate::fr_dual`] with the candidate left out, at each block's lower,
//! upper and middle price in turn. A bound the caller's test rejects
//! proves nothing, and the caller re-plans the pool for the exact
//! baseline.

use crate::algo_naive::{NaiveSolver, PriceBlocks, ProbeStats, ValueCheckpoint};
use crate::approx::ApproxSolution;
use crate::fr_dual::dual_bound;
use crate::oracle::{self, Claims};
use crate::problem::Instance;
use crate::profile::EnergyProfile;
use crate::solver::{ApproxSolver, Solution, SolverContext};
use serde::{Deserialize, Serialize};

/// Relative slack added to every certified bound, covering the rounding
/// of its sums and of the baseline's (both are ~1e-15 relative).
const CERT_SLOP: f64 = 1e-9;

/// How an online service (or a server shard cell) re-solves its residual
/// instance. One path is left (see the module docs); the type stays so
/// configurations that select it keep working.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplanStrategy {
    /// Warm-start the profile search from the incumbent plan's surviving
    /// fractional profile, on an evaluator that prices the admission
    /// certificate.
    #[default]
    Incremental,
}

/// Counters of everything a [`Replanner`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplanStats {
    /// Full-solve requests ([`Replanner::solve`] calls).
    pub requests: u64,
    /// Requests solved without a hint (the cold pipeline).
    pub cold_solves: u64,
    /// Requests solved from a hint (the warm-started pipeline).
    pub warm_solves: u64,
    /// Always 0: no path serves a value-only estimate any more (a traced
    /// overload run read 0 of them in 3,000 arrivals). Kept, like
    /// [`Self::cache_hits`], so readers of the stats keep compiling.
    pub estimates: u64,
    /// Gated admissions the certificate settled
    /// ([`Replanner::certify_without`] returned `Some`).
    pub delta_bounds: u64,
    /// Always 0: nothing is cached (see the module docs). Kept, like
    /// the other zero-reading counters, so readers of the stats keep
    /// compiling.
    pub cache_hits: u64,
    /// Always 0, like [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Gated evaluations the certificate could not settle, which needed
    /// the exact baseline; so `delta_bounds + fallbacks` counts every
    /// certificate asked for.
    pub fallbacks: u64,
    /// Always 0, like [`Self::cache_hits`].
    pub evictions: u64,
    /// Always 0: the online service keeps no probe memo either.
    pub memo_hits: u64,
}

impl ReplanStats {
    /// Hit ratio over the cache and memo counters; 0 while they read 0.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.memo_hits;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.memo_hits) as f64 / total as f64
        }
    }
}

/// The evaluator a full solve built for its instance, handed back by
/// [`Replanner::solve_keeping`] so [`Replanner::certify_without`] can
/// price the adopted plan without building another.
#[derive(Debug)]
pub struct SolvedEvaluator(NaiveSolver);

/// The unified re-solve engine: owns the [`ApproxSolver`] and the
/// reusable [`SolverContext`]. [`crate::residual`] callers
/// (`dsct-online`'s service, every `dsct-server` shard cell) go through
/// this instead of calling the solver directly.
#[derive(Debug)]
pub struct Replanner {
    solver: ApproxSolver,
    ctx: SolverContext,
    stats: ReplanStats,
}

impl Replanner {
    /// Builds a replanner around a configured solver.
    pub fn new(solver: ApproxSolver) -> Self {
        Self {
            solver,
            ctx: SolverContext::new(),
            stats: ReplanStats::default(),
        }
    }

    /// Everything this replanner did so far.
    pub fn stats(&self) -> ReplanStats {
        self.stats
    }

    /// Cumulative value-function probe counters of the owned context.
    pub fn probe_stats(&self) -> ProbeStats {
        self.ctx.probe_stats()
    }

    /// Full re-solve of `inst`, warm-started from `warm` when given.
    pub fn solve(&mut self, inst: &Instance, warm: Option<&EnergyProfile>) -> ApproxSolution {
        let (approx, evaluator) = self.solve_keeping(inst, warm);
        self.release(evaluator);
        approx
    }

    /// [`Replanner::solve`], also handing back the evaluator the solve
    /// ran on. Give it to [`Replanner::certify_without`] or to
    /// [`Replanner::release`]. When the solver's
    /// [`SolverOptions::check_invariants`](crate::solver::SolverOptions::check_invariants)
    /// is on, the result first goes through the invariant oracle
    /// ([`Claims::approx`]), which panics with a pinpointed report and
    /// dumps the instance as `online-residual` on a violation.
    pub fn solve_keeping(
        &mut self,
        inst: &Instance,
        warm: Option<&EnergyProfile>,
    ) -> (ApproxSolution, SolvedEvaluator) {
        self.stats.requests += 1;
        if warm.is_some() {
            self.stats.warm_solves += 1;
        } else {
            self.stats.cold_solves += 1;
        }
        let ws = self.ctx.workspace();
        let solver = NaiveSolver::new_in(inst, ws.arena_mut());
        let approx = crate::approx::solve_approx_in(&solver, inst, &self.solver.opts, warm, ws);
        if self.solver.common.check_invariants {
            let sol = Solution::from_approx(inst, approx.clone());
            oracle::enforce(inst, &sol, &Claims::approx(), "online-residual");
        }
        (approx, SolvedEvaluator(solver))
    }

    /// Returns a solve's evaluator to the context's arena.
    pub fn release(&mut self, evaluator: SolvedEvaluator) {
        evaluator.0.recycle(self.ctx.workspace().arena_mut());
    }

    /// A cold solve of `inst` that moves no counter: the replan and
    /// probe counters read afterwards what they read before. The
    /// reference for cross-checks that must not show in the stats.
    pub fn solve_uncounted(&mut self, inst: &Instance) -> ApproxSolution {
        let probes = self.ctx.probe_stats();
        let approx = self.solver.solve_typed_with(inst, &mut self.ctx);
        self.ctx.workspace().stats = probes;
        approx
    }

    /// The admission certificate (see the module docs): an upper bound
    /// on the optimum of `inst` without task `skip`, plus a relative slop
    /// for rounding, from the prices of the plan `evaluator`'s solve of
    /// `inst` realized at `caps` (one cap per machine). Tries each block's lower, upper and
    /// middle price and returns the first bound `settles` accepts;
    /// `None` when none does. Consumes the evaluator; allocates nothing
    /// on a warm context.
    pub fn certify_without(
        &mut self,
        evaluator: SolvedEvaluator,
        inst: &Instance,
        caps: &[f64],
        skip: usize,
        settles: impl Fn(f64) -> bool,
    ) -> Option<f64> {
        let solver = evaluator.0;
        let ws = self.ctx.workspace();
        let mut chk = ValueCheckpoint::new_in(ws.arena_mut());
        let mut prices = PriceBlocks::new_in(ws.arena_mut());
        let mut lambda = ws.arena_mut().take_f64();
        solver.anchor(ws, caps, &mut chk);
        solver.price_blocks_into(ws, &chk, &mut prices);
        let bound = [0.0, 1.0, 0.5].into_iter().find_map(|t| {
            prices.task_prices_into(solver.deadlines(), t, &mut lambda);
            let ub = dual_bound(&solver, inst, &lambda, Some(skip), None, ws.arena_mut());
            let ub = ub + CERT_SLOP * (1.0 + ub.abs());
            settles(ub).then_some(ub)
        });
        let arena = ws.arena_mut();
        chk.recycle(arena);
        prices.recycle(arena);
        arena.put_f64(lambda);
        solver.recycle(arena);
        match bound {
            Some(_) => self.stats.delta_bounds += 1,
            None => self.stats.fallbacks += 1,
        }
        bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn park() -> MachinePark {
        MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ])
    }

    fn instance(budget: f64) -> Instance {
        let tasks = vec![
            Task::new(0.3, acc(&[(0.0, 0.0), (300.0, 0.5), (900.0, 0.8)])),
            Task::new(0.8, acc(&[(0.0, 0.0), (500.0, 0.4), (1200.0, 0.7)])),
            Task::new(1.5, acc(&[(0.0, 0.0), (250.0, 0.6), (600.0, 0.82)])),
        ];
        Instance::new(tasks, park(), budget).unwrap()
    }

    /// The certificate of a pool without one task upper-bounds that
    /// pool's optimum, counts once per call, and holds on the evaluator
    /// of a hinted solve as on an unhinted one.
    #[test]
    fn certificate_upper_bounds_the_pool_without_the_candidate() {
        for budget in [5.0, 40.0, 400.0] {
            let inst = instance(budget);
            let hint = EnergyProfile::new(vec![inst.d_max(); inst.num_machines()]);
            let mut rp = Replanner::new(ApproxSolver::new());
            for skip in 0..inst.num_tasks() {
                let mut pool = inst.tasks().to_vec();
                pool.remove(skip);
                let pool = Instance::new(pool, park(), budget).unwrap();
                let optimum = Replanner::new(ApproxSolver::new())
                    .solve(&pool, None)
                    .fractional
                    .total_accuracy;
                for warm in [None, Some(&hint)] {
                    let (approx, evaluator) = rp.solve_keeping(&inst, warm);
                    let caps = approx.fractional.profile.clone();
                    let bound = rp
                        .certify_without(evaluator, &inst, &caps, skip, |_| true)
                        .expect("an accepting test settles on the first price");
                    assert!(
                        bound >= optimum,
                        "budget {budget} skip {skip} hinted {}: bound {bound} below the pool's {optimum}",
                        warm.is_some()
                    );
                    // A test no bound passes settles nothing.
                    let (_, evaluator) = rp.solve_keeping(&inst, warm);
                    assert!(rp
                        .certify_without(evaluator, &inst, &caps, skip, |_| false)
                        .is_none());
                }
            }
            let stats = rp.stats();
            assert_eq!((stats.delta_bounds, stats.fallbacks), (6, 6));
            assert_eq!((stats.cold_solves, stats.warm_solves), (6, 6));
        }
    }

    /// A hinted solve reaches the unhinted solve's value on the same
    /// instance, within the profile search's tolerance, whatever the
    /// hint: empty, saturated, lopsided, over budget or the wrong length.
    #[test]
    fn hinted_solve_reaches_the_unhinted_value() {
        for budget in [5.0, 40.0, 400.0] {
            let inst = instance(budget);
            let mut rp = Replanner::new(ApproxSolver::new());
            let cold = rp.solve(&inst, None).fractional.total_accuracy;
            let d = inst.d_max();
            let hints = [
                vec![0.0, 0.0],
                vec![d, d],
                vec![d, 0.0],
                vec![0.0, 0.4 * d],
                vec![1e3 * d, 1e3 * d],
                vec![d],
            ];
            for caps in hints {
                let hint = EnergyProfile::new(caps.clone());
                let warm = rp.solve(&inst, Some(&hint)).fractional.total_accuracy;
                assert!(
                    (warm - cold).abs() <= 1e-9 * cold.abs().max(1.0),
                    "budget {budget} hint {caps:?}: hinted {warm} vs unhinted {cold}"
                );
            }
        }
    }
}
