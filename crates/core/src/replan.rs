//! The incremental re-solve engine behind the online/sharded replan
//! path: a [`Replanner`] that owns the solver, keys residual solves by a
//! structural fingerprint of (pending pool, remaining budget, surviving
//! park), replays cached incumbents from a bounded seed-pure store, and
//! answers single-arrival/-completion probes through the
//! [`ValueCheckpoint`] insertion/removal deltas instead of a cold
//! [`ApproxSolver`] run.
//!
//! # Strategy semantics
//!
//! [`ReplanStrategy`] selects how a full re-solve request is served:
//!
//! - [`ReplanStrategy::Cold`] — every solve runs the cold pipeline;
//! - [`ReplanStrategy::WarmStart`] — solves run warm-started from the
//!   caller's hint (the incumbent plan's surviving fractional profile)
//!   when one is supplied, cold otherwise;
//! - [`ReplanStrategy::Incremental`] — full solves are **bitwise-cold**:
//!   the result of [`Replanner::solve`] is either a fresh cold-pipeline
//!   run or an exact replay of a cached cold result whose fingerprint
//!   matched word-for-word. The speed win comes from the *decision* path
//!   instead: [`Replanner::estimate`] runs the value-only warm-started
//!   descent ([`crate::profile_search::profile_search_value_with`]) that
//!   skips the waterfill, assignment, and cut phases, and
//!   [`Replanner::insert_value_bound`] /
//!   [`Replanner::remove_value_bound`] answer membership probes as ≤3-cap
//!   style checkpoint deltas in `O(m + n_suffix)` without any descent at
//!   all.
//!
//! # Fingerprint keying
//!
//! A cache key must change whenever *anything* the solve depends on
//! changes: the materialized residual instance (relative deadlines in
//! pool order, the surviving machines' speed/power, the remaining
//! budget) plus — for value estimates, whose descent path depends on the
//! start — the warm-hint caps. [`fingerprint`] encodes every such field
//! as its exact `f64` bit pattern into a length-prefixed word vector and
//! folds the words through splitmix64 for a cheap first-pass hash;
//! lookups compare the full word vector on a hash match, so a cache hit
//! is a *structural* equality certificate, never a probabilistic one
//! (seed-pure: no randomized hasher state, identical across runs).
//!
//! # Delta validity and fallback
//!
//! The insertion/removal bounds are exact values of the extended/reduced
//! pool at the *anchored incumbent caps* — lower bounds on the
//! re-optimized tentative value, usable for monotone early-admit
//! decisions but never for rejection. Whenever a delta cannot be
//! supported (no anchor, machine-count mismatch, non-finite deadline,
//! out-of-range index) the probe returns `None` and the caller falls
//! back to the full solve — bit-exactly the result it would have
//! computed anyway, which is what keeps the fallback oracle-checkable
//! via [`crate::solver::SolverOptions::check_invariants`].

use crate::algo_naive::{NaiveSolver, ProbeStats, ValueCheckpoint};
use crate::approx::ApproxSolution;
use crate::problem::{Instance, Task};
use crate::profile::EnergyProfile;
use crate::profile_search::ValueSearchResult;
use crate::solver::{ApproxSolver, SolverContext};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

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
    /// Bitwise-cold full solves served through the fingerprint cache,
    /// with value-only estimates and checkpoint deltas on the decision
    /// path.
    Incremental,
}

/// Counters of everything a [`Replanner`] did. `Copy` so per-cell stats
/// can be captured into drain records without disturbing the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ReplanStats {
    /// Full-solve requests ([`Replanner::solve`] calls).
    pub requests: u64,
    /// Requests served by the cold pipeline.
    pub cold_solves: u64,
    /// Requests served by the warm-started pipeline.
    pub warm_solves: u64,
    /// Value-only warm estimates served ([`Replanner::estimate`]).
    pub estimates: u64,
    /// Membership probes answered by a checkpoint delta.
    pub delta_bounds: u64,
    /// Full solves replayed from the fingerprint cache.
    pub cache_hits: u64,
    /// Fingerprint lookups that missed (the solve ran cold and was
    /// stored).
    pub cache_misses: u64,
    /// Estimate/delta requests that could not be served and fell back to
    /// the caller's full-solve path.
    pub fallbacks: u64,
    /// Cache entries evicted by the FIFO capacity bound.
    pub evictions: u64,
    /// Hits in an owner-level memo layered above this replanner (the
    /// online service's same-state probe memo). The replanner itself
    /// never sets this; the owner folds it in when reporting stats so
    /// one surface covers every cached path.
    pub memo_hits: u64,
}

impl ReplanStats {
    /// Cache hit ratio over all cached-path lookups — fingerprint
    /// lookups plus owner-level memo hits (0 when none ran).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses + self.memo_hits;
        if total == 0 {
            0.0
        } else {
            (self.cache_hits + self.memo_hits) as f64 / total as f64
        }
    }
}

/// Structural cache key: the exact bit patterns of every solve input,
/// length-prefixed, plus their splitmix64 fold. Equality is full-vector
/// equality — the hash only short-circuits mismatches.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplanKey {
    words: Vec<u64>,
    hash: u64,
}

impl ReplanKey {
    /// The folded 64-bit hash (diagnostics; equality uses the words).
    pub fn hash(&self) -> u64 {
        self.hash
    }
}

/// SplitMix64 finalizer — the same mix the online service uses for its
/// digests: deterministic, seed-pure, and avalanching enough that the
/// fold over the word vector separates near-identical instances.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fingerprints a residual instance (and, when present, the warm-hint
/// caps) into a [`ReplanKey`]. Every field the solve output depends on
/// is encoded as its exact `f64` bit pattern; counts are length-prefixed
/// so concatenation ambiguities (e.g. moving a breakpoint from one task
/// to the next) cannot collide structurally distinct pools.
pub fn fingerprint(inst: &Instance, warm: Option<&EnergyProfile>) -> ReplanKey {
    let mut words = Vec::with_capacity(8 + 2 * inst.num_machines() + 8 * inst.num_tasks());
    words.push(inst.budget().to_bits());
    let machines = inst.machines().machines();
    words.push(machines.len() as u64);
    for m in machines {
        words.push(m.speed().to_bits());
        words.push(m.power().to_bits());
    }
    words.push(inst.num_tasks() as u64);
    for task in inst.tasks() {
        words.push(task.deadline.to_bits());
        let bps = task.accuracy.breakpoints();
        words.push(bps.len() as u64);
        for &b in bps {
            words.push(b.to_bits());
        }
        for &v in task.accuracy.values() {
            words.push(v.to_bits());
        }
    }
    match warm {
        None => words.push(0),
        Some(p) => {
            words.push(1 + p.len() as u64);
            for &c in p.caps() {
                words.push(c.to_bits());
            }
        }
    }
    let hash = words.iter().fold(0u64, |h, &w| splitmix64(h ^ w));
    ReplanKey { words, hash }
}

/// Bounded FIFO store. Insertion order is the eviction order, lookups
/// never reorder (seed-pure: the store's contents after a fixed request
/// sequence are a function of that sequence alone).
#[derive(Debug)]
struct BoundedStore<V> {
    entries: VecDeque<(ReplanKey, V)>,
    capacity: usize,
}

impl<V> BoundedStore<V> {
    fn new(capacity: usize) -> Self {
        Self {
            entries: VecDeque::with_capacity(capacity.min(64)),
            capacity,
        }
    }

    fn get(&self, key: &ReplanKey) -> Option<&V> {
        self.entries
            .iter()
            .find(|(k, _)| k.hash == key.hash && k.words == key.words)
            .map(|(_, v)| v)
    }

    /// Inserts, evicting the oldest entry when full. Returns how many
    /// entries were evicted (0 or 1; always 0 with `capacity == 0`,
    /// where the store stays empty and caching is disabled).
    fn insert(&mut self, key: ReplanKey, value: V) -> u64 {
        if self.capacity == 0 {
            return 0;
        }
        let mut evicted = 0;
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            evicted += 1;
        }
        self.entries.push_back((key, value));
        evicted
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// The incumbent membership anchor for checkpoint deltas: an owned copy
/// of the pool's residual instance plus a [`ValueCheckpoint`] of its
/// value at the incumbent caps. Owning the instance keeps the anchor
/// valid after the service mutates its pool; the borrowing
/// [`NaiveSolver`] is rebuilt per probe.
#[derive(Debug, Clone)]
struct DeltaAnchor {
    inst: Instance,
    chk: ValueCheckpoint,
}

/// Default bound on each fingerprint store.
pub const DEFAULT_CACHE_CAPACITY: usize = 32;

/// The unified re-solve engine: owns the [`ApproxSolver`], the reusable
/// [`SolverContext`], the strategy, the fingerprint caches, and the
/// incumbent delta anchor. [`crate::residual`] callers
/// (`dsct-online`'s service, every `dsct-server` shard cell) go through
/// this instead of calling the solver directly.
#[derive(Debug)]
pub struct Replanner {
    solver: ApproxSolver,
    ctx: SolverContext,
    strategy: ReplanStrategy,
    plans: BoundedStore<ApproxSolution>,
    values: BoundedStore<ValueSearchResult>,
    anchor: Option<DeltaAnchor>,
    stats: ReplanStats,
}

impl Replanner {
    /// Builds a replanner around a configured solver. `cache_capacity`
    /// bounds each fingerprint store (plans and value estimates
    /// separately); `0` disables caching.
    pub fn new(solver: ApproxSolver, strategy: ReplanStrategy, cache_capacity: usize) -> Self {
        Self {
            solver,
            ctx: SolverContext::new(),
            strategy,
            plans: BoundedStore::new(cache_capacity),
            values: BoundedStore::new(cache_capacity),
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

    /// Cached plans currently held (tests and diagnostics).
    pub fn cached_plans(&self) -> usize {
        self.plans.len()
    }

    /// Cumulative value-function probe counters of the owned context.
    pub fn probe_stats(&self) -> ProbeStats {
        self.ctx.probe_stats()
    }

    /// Full re-solve of `inst` under the configured strategy. The warm
    /// hint is honored only by [`ReplanStrategy::WarmStart`];
    /// [`ReplanStrategy::Incremental`] runs (or replays) the cold
    /// pipeline so its adopted plans are bit-identical to
    /// [`ReplanStrategy::Cold`]'s — the byte-identity contract of the
    /// online digests.
    pub fn solve(&mut self, inst: &Instance, warm: Option<&EnergyProfile>) -> ApproxSolution {
        self.stats.requests += 1;
        match self.strategy {
            ReplanStrategy::Cold => {
                self.stats.cold_solves += 1;
                self.solver.solve_typed_with(inst, &mut self.ctx)
            }
            ReplanStrategy::WarmStart => match warm {
                Some(profile) => {
                    self.stats.warm_solves += 1;
                    self.solver
                        .solve_typed_warm_with(inst, &mut self.ctx, profile)
                }
                None => {
                    self.stats.cold_solves += 1;
                    self.solver.solve_typed_with(inst, &mut self.ctx)
                }
            },
            ReplanStrategy::Incremental => {
                let key = fingerprint(inst, None);
                if let Some(hit) = self.plans.get(&key) {
                    self.stats.cache_hits += 1;
                    return hit.clone();
                }
                self.stats.cache_misses += 1;
                self.stats.cold_solves += 1;
                let sol = self.solver.solve_typed_with(inst, &mut self.ctx);
                self.stats.evictions += self.plans.insert(key, sol.clone());
                sol
            }
        }
    }

    /// Value-only tentative estimate: the warm-started descent of
    /// [`ApproxSolver::estimate_value_warm_with`], served through its own
    /// fingerprint cache. Only [`ReplanStrategy::Incremental`] answers;
    /// every `None` means "run the full solve instead" (and counts as a
    /// fallback when the strategy wanted to answer but could not).
    pub fn estimate(
        &mut self,
        inst: &Instance,
        warm: Option<&EnergyProfile>,
    ) -> Option<ValueSearchResult> {
        if self.strategy != ReplanStrategy::Incremental {
            return None;
        }
        let Some(profile) = warm else {
            self.stats.fallbacks += 1;
            return None;
        };
        let key = fingerprint(inst, Some(profile));
        if let Some(hit) = self.values.get(&key) {
            self.stats.cache_hits += 1;
            return Some(hit.clone());
        }
        match self
            .solver
            .estimate_value_warm_with(inst, &mut self.ctx, profile)
        {
            Some(est) => {
                self.stats.cache_misses += 1;
                self.stats.estimates += 1;
                self.stats.evictions += self.values.insert(key, est.clone());
                Some(est)
            }
            None => {
                self.stats.fallbacks += 1;
                None
            }
        }
    }

    /// Anchors the membership-delta checkpoint on the incumbent pool's
    /// residual instance at `caps` (the incumbent's realized profile).
    /// Call after every adoption/refresh; any shape mismatch or
    /// non-finite cap silently clears the anchor instead, so later
    /// probes fall back to the full solve.
    pub fn anchor(&mut self, inst: &Instance, caps: &[f64]) {
        if self.strategy != ReplanStrategy::Incremental
            || caps.len() != inst.num_machines()
            || caps.iter().any(|c| !c.is_finite())
        {
            self.anchor = None;
            return;
        }
        let owned = inst.clone();
        let mut chk = ValueCheckpoint::new();
        let ws = self.ctx.workspace();
        let solver = NaiveSolver::new_in(&owned, ws.arena_mut());
        solver.checkpoint_into(ws, caps, &mut chk);
        solver.recycle(self.ctx.workspace().arena_mut());
        self.anchor = Some(DeltaAnchor { inst: owned, chk });
    }

    /// Drops the membership anchor (the incumbent changed in a way the
    /// caller cannot re-anchor from).
    pub fn clear_anchor(&mut self) {
        self.anchor = None;
    }

    /// Whether a membership anchor is currently held.
    pub fn has_anchor(&self) -> bool {
        self.anchor.is_some()
    }

    /// Exact value of the anchored pool **plus** `extra`, at the
    /// anchored incumbent caps: a lower bound on the re-optimized
    /// tentative value, computed as a checkpoint insertion delta without
    /// any descent. `None` when the anchor cannot support the delta —
    /// the caller must run the full evaluation then (bit-exact
    /// fallback).
    pub fn insert_value_bound(&mut self, extra: &Task) -> Option<f64> {
        let anchor = self.anchor.as_ref()?;
        let ws = self.ctx.workspace();
        let solver = NaiveSolver::new_in(&anchor.inst, ws.arena_mut());
        let bound = solver.value_insert_delta(ws, &anchor.chk, extra);
        solver.recycle(self.ctx.workspace().arena_mut());
        match bound {
            Some(_) => self.stats.delta_bounds += 1,
            None => self.stats.fallbacks += 1,
        }
        bound
    }

    /// Exact value of the anchored pool **minus** the task at EDF index
    /// `removed`, at the anchored incumbent caps — the completion-side
    /// twin of [`Replanner::insert_value_bound`].
    pub fn remove_value_bound(&mut self, removed: usize) -> Option<f64> {
        let anchor = self.anchor.as_ref()?;
        let ws = self.ctx.workspace();
        let solver = NaiveSolver::new_in(&anchor.inst, ws.arena_mut());
        let bound = solver.value_remove_delta(ws, &anchor.chk, removed);
        solver.recycle(self.ctx.workspace().arena_mut());
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
    fn equal_instances_fingerprint_equal() {
        let a = fingerprint(&instance(40.0), None);
        let b = fingerprint(&instance(40.0), None);
        assert_eq!(a, b);
        assert_eq!(a.hash(), b.hash());
    }

    #[test]
    fn every_field_perturbation_changes_the_key() {
        let base = instance(40.0);
        let key = fingerprint(&base, None);

        // Budget.
        let k = fingerprint(&base.clone().with_budget(40.0 + 1e-9).unwrap(), None);
        assert_ne!(key, k, "budget perturbation must change the key");

        // A machine's speed/power.
        let mut machines = park().machines().to_vec();
        machines[1] = Machine::new(machines[1].speed() + 1.0, machines[1].power()).unwrap();
        let k = fingerprint(
            &Instance::new(base.tasks().to_vec(), MachinePark::new(machines), 40.0).unwrap(),
            None,
        );
        assert_ne!(key, k, "machine perturbation must change the key");

        // A task deadline.
        let mut tasks = base.tasks().to_vec();
        tasks[2].deadline += 1e-9;
        let k = fingerprint(&Instance::new(tasks, park(), 40.0).unwrap(), None);
        assert_ne!(key, k, "deadline perturbation must change the key");

        // An accuracy value.
        let mut tasks = base.tasks().to_vec();
        tasks[0] = Task::new(
            tasks[0].deadline,
            acc(&[(0.0, 0.0), (300.0, 0.5 + 1e-9), (900.0, 0.8)]),
        );
        let k = fingerprint(&Instance::new(tasks, park(), 40.0).unwrap(), None);
        assert_ne!(key, k, "accuracy perturbation must change the key");

        // Warm hint presence and contents.
        let warm = EnergyProfile::new(vec![0.1, 0.2]);
        let with_warm = fingerprint(&base, Some(&warm));
        assert_ne!(key, with_warm);
        let warm2 = EnergyProfile::new(vec![0.1, 0.2 + 1e-12]);
        assert_ne!(with_warm, fingerprint(&base, Some(&warm2)));
    }

    #[test]
    fn incremental_cache_replays_bitwise_and_counts() {
        let inst = instance(40.0);
        let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 4);
        let a = rp.solve(&inst, None);
        let b = rp.solve(&inst, None);
        assert_eq!(a, b, "cache replay must be bit-identical");
        let stats = rp.stats();
        assert_eq!(stats.requests, 2);
        assert_eq!(stats.cache_misses, 1);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cold_solves, 1);

        // And the cached plan equals a genuinely cold solve.
        let mut cold = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold, 0);
        assert_eq!(a, cold.solve(&inst, None));
    }

    #[test]
    fn fifo_eviction_respects_the_capacity_bound() {
        let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 2);
        for budget in [10.0, 20.0, 30.0] {
            rp.solve(&instance(budget), None);
        }
        assert_eq!(rp.cached_plans(), 2);
        assert_eq!(rp.stats().evictions, 1);
        // The oldest entry (budget 10) was evicted; re-solving it misses.
        rp.solve(&instance(10.0), None);
        assert_eq!(rp.stats().cache_hits, 0);
        assert_eq!(rp.stats().cache_misses, 4);
        // The newest survivor still hits.
        rp.solve(&instance(30.0), None);
        assert_eq!(rp.stats().cache_hits, 1);
    }

    #[test]
    fn estimate_only_answers_under_incremental() {
        let inst = instance(40.0);
        let warm = EnergyProfile::new(vec![0.2, 0.3]);
        let mut warm_rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::WarmStart, 4);
        assert!(warm_rp.estimate(&inst, Some(&warm)).is_none());
        assert_eq!(warm_rp.stats().fallbacks, 0);

        let mut inc = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 4);
        assert!(inc.estimate(&inst, None).is_none());
        assert_eq!(inc.stats().fallbacks, 1);
        let est = inc.estimate(&inst, Some(&warm)).expect("estimate runs");
        assert_eq!(est.flops.len(), inst.num_tasks());
        // The estimate is the fractional optimum's value: it matches the
        // cold solve's embedded fractional accuracy to fp tolerance.
        let cold = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold, 0)
            .solve(&inst, None)
            .fractional
            .total_accuracy;
        assert!(
            (est.total_accuracy - cold).abs() <= 1e-6 * (1.0 + cold.abs()),
            "estimate {} vs cold fractional {}",
            est.total_accuracy,
            cold
        );
        // Second identical request replays from the value cache.
        let again = inc.estimate(&inst, Some(&warm)).unwrap();
        assert_eq!(est.total_accuracy.to_bits(), again.total_accuracy.to_bits());
        assert!(inc.stats().cache_hits >= 1);
    }

    #[test]
    fn insert_bound_lower_bounds_the_reoptimized_tentative() {
        let inst = instance(40.0);
        let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 4);
        let incumbent = rp.solve(&inst, None);
        rp.anchor(&inst, &incumbent.fractional.profile);
        assert!(rp.has_anchor());

        let extra = Task::new(0.6, acc(&[(0.0, 0.0), (400.0, 0.45)]));
        let bound = rp.insert_value_bound(&extra).expect("anchored delta");

        // Cold tentative optimum of pool + extra dominates the bound.
        let mut tasks = inst.tasks().to_vec();
        let pos = tasks.iter().position(|t| t.deadline > extra.deadline);
        match pos {
            Some(p) => tasks.insert(p, extra.clone()),
            None => tasks.push(extra.clone()),
        }
        let extended = Instance::new(tasks, park(), 40.0).unwrap();
        let tentative = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold, 0)
            .solve(&extended, None)
            .fractional
            .total_accuracy;
        assert!(
            bound <= tentative + 1e-9 * (1.0 + tentative.abs()),
            "bound {bound} must lower-bound the tentative optimum {tentative}"
        );
        assert_eq!(rp.stats().delta_bounds, 1);

        // Removal twin: dropping a task is also answerable.
        assert!(rp.remove_value_bound(0).is_some());
        // Invalid index falls back.
        assert!(rp.remove_value_bound(99).is_none());
        assert_eq!(rp.stats().fallbacks, 1);

        rp.clear_anchor();
        assert!(rp.insert_value_bound(&extra).is_none());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let inst = instance(40.0);
        let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 0);
        rp.solve(&inst, None);
        rp.solve(&inst, None);
        assert_eq!(rp.cached_plans(), 0);
        assert_eq!(rp.stats().cache_hits, 0);
        assert_eq!(rp.stats().cache_misses, 2);
        assert_eq!(rp.stats().evictions, 0);
    }
}
