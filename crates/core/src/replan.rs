//! The incremental re-solve engine behind the online/sharded replan
//! path: a [`Replanner`] that owns the solver and settles gated
//! admissions through a [`ValueCheckpoint`] insertion delta instead of
//! a cold [`ApproxSolver`] run whenever it can.
//!
//! # Strategy semantics
//!
//! [`ReplanStrategy`] selects how a full re-solve request is served:
//!
//! - [`ReplanStrategy::Cold`] — every solve runs the cold pipeline;
//! - [`ReplanStrategy::WarmStart`] — solves run warm-started from the
//!   caller's hint (the incumbent plan's surviving fractional profile)
//!   when one is supplied, cold otherwise;
//! - [`ReplanStrategy::Incremental`] — full solves are **cold**: the
//!   result of [`Replanner::solve`] is bitwise what `Cold` computes. The
//!   speed win comes from the *decision* path instead:
//!   [`Replanner::insert_value_bound`] answers a membership probe as a
//!   checkpoint delta in `O(m + n_suffix)` without any descent at all.
//!   A gated evaluation the bound cannot settle takes the full solve.
//!
//! No result is cached: between two solves of a live cell the remaining
//! budget or the clock moves, so a key on the residual's exact bits
//! would never repeat (a traced overload run read 0 hits in 5,920
//! lookups) and a store would only cost a clone per solve.
//!
//! # One evaluator per cold solve
//!
//! The membership anchor is the [`NaiveSolver`] of the solve that made
//! the incumbent, not a copy of its instance: an `Incremental` full solve
//! ([`Replanner::solve_keeping`]) builds the evaluator once, runs the
//! naive stage, the descent and the finisher on it, and hands it back as
//! a [`SolvedEvaluator`]; [`Replanner::anchor_solved`] checkpoints the
//! adopted caps on it, and every insertion probe then runs on the
//! anchor's evaluator with no rebuild and no sort. The pairing is by
//! construction — only a solve mints the token, for the instance it
//! solved — so no anchor compares instances. `Cold` and `WarmStart`
//! never anchor, so their solves keep nothing.
//!
//! # Delta validity and fallback
//!
//! The insertion bound is the exact value of the extended pool at the
//! *anchored incumbent caps* — a lower bound on the re-optimized
//! tentative value, usable for monotone early-admit decisions but never
//! for rejection. Whenever the bound cannot be supported (no anchor,
//! machine-count mismatch, non-finite deadline) or does not clear the
//! caller's test, the probe returns `None` and the caller falls back to
//! the full solve — bit-exactly the result it would have computed
//! anyway, which is what keeps the fallback oracle-checkable via
//! [`crate::solver::SolverOptions::check_invariants`].

use crate::algo_naive::{NaiveSolver, ProbeStats, ValueCheckpoint};
use crate::approx::ApproxSolution;
use crate::problem::{Instance, Task};
use crate::profile::EnergyProfile;
use crate::solver::{ApproxSolver, SolverContext};
use serde::{Deserialize, Serialize};

/// How an online service (or a server shard cell) re-solves its residual
/// instance. Strategy never changes *which* plans are feasible — only
/// how fast the replan path reaches them (and, for
/// [`ReplanStrategy::WarmStart`], which of several same-value optima the
/// descent lands on).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplanStrategy {
    /// Cold pipeline on every solve.
    Cold,
    /// Warm-start the profile search from the incumbent plan's surviving
    /// fractional profile.
    #[default]
    WarmStart,
    /// Cold full solves, with a checkpoint insertion delta on the
    /// decision path.
    Incremental,
}

/// Counters of everything a [`Replanner`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplanStats {
    /// Full-solve requests ([`Replanner::solve`] calls).
    pub requests: u64,
    /// Requests served by the cold pipeline.
    pub cold_solves: u64,
    /// Requests served by the warm-started pipeline.
    pub warm_solves: u64,
    /// Always 0: no path serves a value-only estimate any more (a traced
    /// overload run read 0 of them in 3,000 arrivals). Kept, like
    /// [`Self::cache_hits`], so readers of the stats keep compiling.
    pub estimates: u64,
    /// Gated evaluations the anchor's insertion bound settled
    /// ([`Replanner::insert_value_bound`] returned `Some`).
    pub delta_bounds: u64,
    /// Always 0: nothing is cached (see the module docs). Kept, like
    /// the other zero-reading counters, so readers of the stats keep
    /// compiling.
    pub cache_hits: u64,
    /// Always 0, like [`Self::cache_hits`].
    pub cache_misses: u64,
    /// Under [`ReplanStrategy::Incremental`], the gated evaluations the
    /// insertion bound could not settle (no anchor, no delta, or a bound
    /// below the caller's bar), which the caller's full solve decided;
    /// so `delta_bounds + fallbacks` counts every bound asked for.
    /// Always 0 under the other strategies, which never ask.
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

/// The incumbent membership anchor for checkpoint deltas: the evaluator
/// of the pool's residual instance plus a [`ValueCheckpoint`] of its
/// value at the incumbent caps. The evaluator owns copies of everything
/// it reads, so the anchor stays valid after the service mutates its
/// pool, and every probe runs on it without a rebuild.
#[derive(Debug, Clone)]
struct DeltaAnchor {
    solver: NaiveSolver,
    chk: ValueCheckpoint,
}

/// The evaluator a full solve built for its instance, handed back by
/// [`Replanner::solve_keeping`] so [`Replanner::anchor_solved`] can anchor
/// that instance without building another. Only an
/// [`ReplanStrategy::Incremental`] solve keeps one (the other strategies
/// never anchor); the token is empty otherwise.
#[derive(Debug)]
pub struct SolvedEvaluator(Option<NaiveSolver>);

/// The unified re-solve engine: owns the [`ApproxSolver`], the reusable
/// [`SolverContext`], the strategy, and the incumbent delta anchor.
/// [`crate::residual`] callers (`dsct-online`'s service, every
/// `dsct-server` shard cell) go through this instead of calling the
/// solver directly.
#[derive(Debug)]
pub struct Replanner {
    solver: ApproxSolver,
    ctx: SolverContext,
    strategy: ReplanStrategy,
    anchor: Option<DeltaAnchor>,
    stats: ReplanStats,
}

impl Replanner {
    /// Builds a replanner around a configured solver.
    pub fn new(solver: ApproxSolver, strategy: ReplanStrategy) -> Self {
        Self {
            solver,
            ctx: SolverContext::new(),
            strategy,
            anchor: None,
            stats: ReplanStats::default(),
        }
    }

    /// The configured strategy.
    pub fn strategy(&self) -> ReplanStrategy {
        self.strategy
    }

    /// Everything this replanner did so far.
    pub fn stats(&self) -> ReplanStats {
        self.stats
    }

    /// Cumulative value-function probe counters of the owned context.
    pub fn probe_stats(&self) -> ProbeStats {
        self.ctx.probe_stats()
    }

    /// Full re-solve of `inst` under the configured strategy. The warm
    /// hint is honored only by [`ReplanStrategy::WarmStart`];
    /// [`ReplanStrategy::Incremental`] runs the cold pipeline so its
    /// adopted plans are bit-identical to [`ReplanStrategy::Cold`]'s —
    /// the byte-identity contract of the online digests.
    pub fn solve(&mut self, inst: &Instance, warm: Option<&EnergyProfile>) -> ApproxSolution {
        let (approx, evaluator) = self.solve_keeping(inst, warm);
        self.release(evaluator);
        approx
    }

    /// [`Replanner::solve`], also handing back the evaluator the solve
    /// ran on. Give it to [`Replanner::anchor_solved`] to anchor `inst`,
    /// or to [`Replanner::release`] when the plan is not adopted.
    pub fn solve_keeping(
        &mut self,
        inst: &Instance,
        warm: Option<&EnergyProfile>,
    ) -> (ApproxSolution, SolvedEvaluator) {
        self.stats.requests += 1;
        match (self.strategy, warm) {
            (ReplanStrategy::WarmStart, Some(profile)) => {
                self.stats.warm_solves += 1;
                let approx = self
                    .solver
                    .solve_typed_warm_with(inst, &mut self.ctx, profile);
                (approx, SolvedEvaluator(None))
            }
            (ReplanStrategy::Incremental, _) => {
                self.stats.cold_solves += 1;
                let ws = self.ctx.workspace();
                let solver = NaiveSolver::new_in(inst, ws.arena_mut());
                let approx = crate::approx::solve_approx_in(&solver, inst, &self.solver.opts, ws);
                (approx, SolvedEvaluator(Some(solver)))
            }
            _ => {
                self.stats.cold_solves += 1;
                let approx = self.solver.solve_typed_with(inst, &mut self.ctx);
                (approx, SolvedEvaluator(None))
            }
        }
    }

    /// Returns an unanchored solve's evaluator to the context's arena.
    pub fn release(&mut self, evaluator: SolvedEvaluator) {
        if let Some(solver) = evaluator.0 {
            solver.recycle(self.ctx.workspace().arena_mut());
        }
    }

    /// Anchors the membership-delta checkpoint on the instance
    /// `evaluator`'s solve ran on, at `caps` (the incumbent's realized
    /// profile), keeping the evaluator for every probe until the next
    /// anchor. Call after every adoption/refresh; any shape mismatch or
    /// non-finite cap silently clears the anchor instead, so later probes
    /// fall back to the full solve.
    pub fn anchor_solved(&mut self, evaluator: SolvedEvaluator, caps: &[f64]) {
        self.clear_anchor();
        let Some(solver) = evaluator.0 else {
            return;
        };
        let ws = self.ctx.workspace();
        if caps.len() != solver.speeds().len() || caps.iter().any(|c| !c.is_finite()) {
            solver.recycle(ws.arena_mut());
            return;
        }
        let mut chk = ValueCheckpoint::new_in(ws.arena_mut());
        solver.checkpoint_into(ws, caps, &mut chk);
        self.anchor = Some(DeltaAnchor { solver, chk });
    }

    /// Drops the membership anchor (the incumbent changed in a way the
    /// caller cannot re-anchor from), returning its buffers to the
    /// context's arena.
    pub fn clear_anchor(&mut self) {
        if let Some(DeltaAnchor { solver, chk }) = self.anchor.take() {
            let arena = self.ctx.workspace().arena_mut();
            solver.recycle(arena);
            chk.recycle(arena);
        }
    }

    /// Whether a membership anchor is currently held.
    pub fn has_anchor(&self) -> bool {
        self.anchor.is_some()
    }

    /// Exact value of the anchored pool **plus** `extra`, at the
    /// anchored incumbent caps, when `settles` accepts it: a lower bound
    /// on the re-optimized tentative value, computed as a checkpoint
    /// insertion delta on the anchor's evaluator without any descent.
    /// `None` when there is no anchor, the anchor cannot support the
    /// delta, or `settles` rejects the bound — the caller must run the
    /// full evaluation then (bit-exact fallback). Under
    /// [`ReplanStrategy::Incremental`] every call counts once, as a
    /// delta bound or as a fallback.
    pub fn insert_value_bound(
        &mut self,
        extra: &Task,
        settles: impl FnOnce(f64) -> bool,
    ) -> Option<f64> {
        if self.strategy != ReplanStrategy::Incremental {
            return None;
        }
        let ws = self.ctx.workspace();
        let bound = self
            .anchor
            .as_ref()
            .and_then(|anchor| anchor.solver.value_insert_delta(ws, &anchor.chk, extra))
            .filter(|&bound| settles(bound));
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

    #[test]
    fn insert_bound_lower_bounds_the_reoptimized_tentative() {
        let inst = instance(40.0);
        let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental);
        let (incumbent, evaluator) = rp.solve_keeping(&inst, None);
        rp.anchor_solved(evaluator, &incumbent.fractional.profile);
        assert!(rp.has_anchor());

        let extra = Task::new(0.6, acc(&[(0.0, 0.0), (400.0, 0.45)]));
        let bound = rp
            .insert_value_bound(&extra, |_| true)
            .expect("anchored delta");

        // Cold tentative optimum of pool + extra dominates the bound.
        let mut tasks = inst.tasks().to_vec();
        let pos = tasks.iter().position(|t| t.deadline > extra.deadline);
        match pos {
            Some(p) => tasks.insert(p, extra.clone()),
            None => tasks.push(extra.clone()),
        }
        let extended = Instance::new(tasks, park(), 40.0).unwrap();
        let tentative = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold)
            .solve(&extended, None)
            .fractional
            .total_accuracy;
        assert!(
            bound <= tentative + 1e-9 * (1.0 + tentative.abs()),
            "bound {bound} must lower-bound the tentative optimum {tentative}"
        );
        assert_eq!(rp.stats().delta_bounds, 1);

        // A bound below the caller's bar settles nothing, and neither
        // does a cleared anchor: each is one fallback.
        assert!(rp.insert_value_bound(&extra, |b| b > bound).is_none());
        rp.clear_anchor();
        assert!(rp.insert_value_bound(&extra, |_| true).is_none());
        assert_eq!((rp.stats().delta_bounds, rp.stats().fallbacks), (1, 2));

        // `Cold` never anchors and never asks, so it counts nothing.
        let mut cold = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold);
        let (incumbent, evaluator) = cold.solve_keeping(&inst, None);
        cold.anchor_solved(evaluator, &incumbent.fractional.profile);
        assert!(!cold.has_anchor());
        assert!(cold.insert_value_bound(&extra, |_| true).is_none());
        assert_eq!(cold.stats().fallbacks, 0);
    }
}
