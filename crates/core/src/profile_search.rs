//! Profile-level refinement: coordinate-pair ascent on the energy-profile
//! value function.
//!
//! For *fixed* per-machine time caps `p` (an energy profile), Algorithm 2
//! computes the exact optimum — the task-work vector maximizing total
//! accuracy over the polymatroid `{f : Σ_{i≤j} f_i ≤ Σ_r min(p_r, d_j)·s_r,
//! f_j ≤ f_j^max}` (greedy on a concave separable objective). The profile
//! *value function* `V(p)` is therefore the optimum of a linear program
//! parameterized in its right-hand side, hence jointly concave and
//! piecewise linear in `p`.
//!
//! `RefineProfile` (paper Algorithm 3) is the search over budget-feasible
//! profiles `{p ≥ 0, p_r ≤ d^max, Σ_r p_r·P_r ≤ B}`. This module performs
//! that search directly: for every ordered machine pair it moves energy
//! `δ` from one machine's cap to the other's, choosing `δ` by exact line
//! search (ternary search is exact up to tolerance on a concave `V`), and
//! sweeps until no pairwise transfer improves. This subsumes the
//! task-level transfer pass of [`crate::algo_refine`] and escapes its
//! local optima, because each probe re-solves the whole allocation rather
//! than moving a single task's work; energy "trapped" in caps a machine
//! cannot use (deadline-bound) is surfaced automatically — shrinking such
//! a cap costs `V` nothing.
//!
//! # Incremental Δ-probes and the batched gate
//!
//! Every probe the search issues — gate probes and golden-section steps
//! alike — evaluates `V` at the incumbent caps shifted along a transfer
//! direction, i.e. at a profile differing from the incumbent in ≤ 3
//! coordinates. With [`ProfileSearchOptions::incremental_probes`] those
//! probes run through a [`ValueCheckpoint`] anchored at the incumbent
//! ([`NaiveSolver::value_delta`]): only the affected suffix of the
//! capacity transform is recomputed and the greedy reruns on union-find
//! capacity buckets in `O(S α(n))` instead of the tree's `O(S log n)`.
//! The checkpoint is re-anchored after every accepted transfer and never
//! mutated by probes, so rolling back to the incumbent between probes is
//! exact.
//!
//! The gated pairwise sweep is *batched*: the next (up to) `GATE_BATCH`
//! pending pairs of the scan order have their ε-gate probes evaluated
//! against the same incumbent (read-only, hence embarrassingly parallel
//! across
//! [`ProfileSearchOptions::gate_threads`] scoped workers with thread-local
//! workspaces), then accept/reject decisions fold in the fixed
//! `(from, to)` scan order. The first pair whose gate passes runs its
//! line search serially; an accepted transfer re-batches from the next
//! pair so later gates see the new incumbent — exactly the decisions the
//! serial scan makes, which is why the outcome is bit-identical for any
//! thread count (probes already evaluated for pairs after an accepted one
//! are discarded but still counted, deterministically).

use crate::algo_naive::{
    compute_naive_solution, NaiveSolution, NaiveSolver, ProbeStats, ValueCheckpoint,
    ValueFnWorkspace,
};
use crate::problem::Instance;
use crate::profile::EnergyProfile;

/// Golden ratio constant for the line search.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

/// Pairs per batched-gate round. Gate probes already evaluated for pairs
/// after an accepted transfer are discarded (the incumbent changed under
/// them), so the batch size bounds the probes wasted per accept; it must
/// be a constant — never a function of the thread count — so probe
/// counters, and with them [`ProfileSearchOutcome`], stay bit-identical
/// for any `gate_threads`. 16 keeps the waste below 4% of a line search
/// while still feeding every core of typical machines.
const GATE_BATCH: usize = 16;

/// Options for the profile search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSearchOptions {
    /// Maximum full sweeps over all machine pairs.
    pub max_sweeps: usize,
    /// Golden-section iterations per line search.
    pub line_iterations: usize,
    /// Minimum accuracy improvement (relative to the instance's maximum
    /// total accuracy) for a transfer to be applied.
    pub rel_gain_tol: f64,
    /// After pairwise convergence, also search one-source/two-sink and
    /// two-source/one-sink transfer directions. Pairwise coordinate ascent
    /// on a piecewise-linear concave function can stall at kinks whose
    /// escape direction moves three or more coordinates; the triple polish
    /// escapes those (and hands control back to the cheap pairwise sweeps
    /// as soon as it improves).
    pub triple_polish: bool,
    /// Evaluate `V(p)` probes through the reusable
    /// [`ValueFnWorkspace`] (allocation-free, prefix-capacity temporary
    /// deadlines, early exit on exhausted capacity). Disable to fall back
    /// to the cold per-probe Algorithm 2 solve — the ablation baseline the
    /// search trajectory can be diffed against.
    pub use_value_cache: bool,
    /// Gate pairwise directions behind the single-evaluation ε-probe
    /// (see the module docs): a non-improving pair costs 1 probe instead
    /// of a full `line_iterations + 3`-evaluation line search, which is
    /// where converged sweeps spend nearly all their work. The gate
    /// applies from the first sweep on. Disable to reproduce the
    /// exhaustive sweep.
    pub pairwise_probe: bool,
    /// Serve probes along transfer directions from a checkpointed
    /// incumbent ([`NaiveSolver::value_delta`]): recompute only the
    /// capacity entries the delta can touch and run the greedy on
    /// union-find buckets. Requires `use_value_cache` (it extends the
    /// cached machinery); deltas that would invalidate the checkpoint
    /// fall back to the full evaluation. Disable for the PR 1 cached
    /// baseline.
    pub incremental_probes: bool,
    /// Worker threads for the batched pairwise gate: `0` resolves to the
    /// available parallelism, `1` evaluates the batch on the calling
    /// thread. The fold order is fixed, so the search outcome is
    /// bit-identical for any value (see the module docs); only wall-clock
    /// changes. Callers embedded in an already-parallel harness (the
    /// experiment engine's workers) cap this at 1 through
    /// [`crate::solver::SolverContext::set_parallelism_budget`].
    pub gate_threads: usize,
}

impl Default for ProfileSearchOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 64,
            line_iterations: 40,
            rel_gain_tol: 1e-10,
            triple_polish: true,
            use_value_cache: true,
            pairwise_probe: true,
            incremental_probes: true,
            gate_threads: 0,
        }
    }
}

/// Statistics of a profile search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfileSearchOutcome {
    /// Sweeps performed.
    pub sweeps: usize,
    /// Transfers applied.
    pub transfers: usize,
    /// Whether the search converged before the sweep cap.
    pub converged: bool,
    /// `V(p)` evaluation counters (total, cold-path, and incremental
    /// probes).
    pub probe_stats: ProbeStats,
}

/// Dispatches `V(p)` probes to the incremental Δ-probe path, the cached
/// workspace path, or the cold per-call path, keeping the evaluation
/// counters either way. The workspace is borrowed so callers (worker
/// threads of the experiment engine) can reuse its buffers across many
/// solves; the checkpoint is owned per search and re-anchored at every
/// incumbent change.
struct Prober<'a, 'w> {
    solver: NaiveSolver<'a>,
    ws: &'w mut ValueFnWorkspace,
    cached: bool,
    incremental: bool,
    chk: ValueCheckpoint,
}

impl<'a, 'w> Prober<'a, 'w> {
    fn new(inst: &'a Instance, ws: &'w mut ValueFnWorkspace, opts: &ProfileSearchOptions) -> Self {
        let solver = NaiveSolver::new_in(inst, &mut ws.arena);
        let chk = ValueCheckpoint::new_in(&mut ws.arena);
        Self {
            solver,
            ws,
            cached: opts.use_value_cache,
            // The Δ-probe path extends the cached machinery; the cold
            // ablation stays fully cold.
            incremental: opts.incremental_probes && opts.use_value_cache,
            chk,
        }
    }

    /// Full `V(caps)` evaluation (no delta).
    fn value(&mut self, caps: &[f64]) -> f64 {
        if self.cached {
            self.solver.value_with(self.ws, caps)
        } else {
            self.ws.stats.probes += 1;
            self.ws.stats.cold_probes += 1;
            self.solver.value(caps)
        }
    }

    /// Evaluates the incumbent and (on the incremental path) anchors the
    /// Δ-probe checkpoint there.
    fn anchor(&mut self, caps: &[f64]) -> f64 {
        if self.incremental {
            self.solver.checkpoint_into(self.ws, caps, &mut self.chk)
        } else {
            self.value(caps)
        }
    }

    /// Re-anchors after an incumbent change (no-op on the non-incremental
    /// paths, whose probes don't consult a checkpoint).
    fn reanchor(&mut self, caps: &[f64]) {
        if self.incremental {
            self.solver.checkpoint_into(self.ws, caps, &mut self.chk);
        }
    }

    /// `V` at the incumbent `caps` with the sparse `changed` overrides
    /// applied — the Δ-probe fast path when anchored, otherwise a full
    /// evaluation of the materialized profile.
    fn value_at(&mut self, caps: &[f64], changed: &[(usize, f64)], scratch: &mut Vec<f64>) -> f64 {
        if self.incremental {
            debug_assert_eq!(self.chk.caps(), caps, "probe must start at the anchor");
            if let Some(v) = self.solver.value_delta(self.ws, &self.chk, changed) {
                return v;
            }
        }
        apply_changed(caps, changed, scratch);
        self.value(scratch)
    }
}

/// A budget-preserving transfer direction: each `(machine, weight)` entry
/// changes that machine's cap by `weight · δ / P_r` for a step of `δ`
/// joules; weights sum to zero so the caps' total energy is conserved.
type Direction = [(usize, f64)];

/// Largest step (joules) a direction can take before some cap leaves
/// `[0, d_max]`. An all-zero-weight direction constrains nothing and can
/// take no meaningful step: it reports 0.0 rather than `+∞`.
fn direction_step_limit(dir: &Direction, caps: &[f64], power: &[f64], d_max: f64) -> f64 {
    let mut limit = f64::INFINITY;
    let mut constrained = false;
    for &(r, w) in dir {
        if w < 0.0 {
            limit = limit.min(caps[r] * power[r] / -w);
            constrained = true;
        } else if w > 0.0 {
            limit = limit.min((d_max - caps[r]).max(0.0) * power[r] / w);
            constrained = true;
        }
    }
    if constrained {
        limit
    } else {
        0.0
    }
}

fn apply_direction(
    dir: &Direction,
    caps: &[f64],
    power: &[f64],
    d_max: f64,
    delta: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    out.extend_from_slice(caps);
    for &(r, w) in dir {
        out[r] = (out[r] + w * delta / power[r]).clamp(0.0, d_max);
    }
}

/// The caps a step of `delta` joules along `dir` touches, as sparse
/// `(machine, new_cap)` entries — bit-identical arithmetic to
/// [`apply_direction`], in the shape [`NaiveSolver::value_delta`] takes.
fn direction_changed(
    dir: &Direction,
    caps: &[f64],
    power: &[f64],
    d_max: f64,
    delta: f64,
) -> ([(usize, f64); 3], usize) {
    debug_assert!(dir.len() <= 3, "directions touch at most three caps");
    let mut out = [(0usize, 0.0f64); 3];
    let mut len = 0usize;
    for &(r, w) in dir {
        out[len] = (r, (caps[r] + w * delta / power[r]).clamp(0.0, d_max));
        len += 1;
    }
    (out, len)
}

/// Materializes sparse cap overrides into a full profile vector.
fn apply_changed(caps: &[f64], changed: &[(usize, f64)], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(caps);
    for &(r, v) in changed {
        out[r] = v;
    }
}

/// Golden-section maximization of the concave transfer objective
/// `g(δ) = V(p after stepping δ joules along `dir`)` over
/// `[0, delta_max]`. One `V` evaluation per iteration. Returns the best
/// `(δ, g(δ))` seen, including the right endpoint.
#[allow(clippy::too_many_arguments)] // bundled search context, called thrice
fn line_search(
    prober: &mut Prober<'_, '_>,
    caps: &[f64],
    scratch: &mut Vec<f64>,
    dir: &Direction,
    power: &[f64],
    d_max: f64,
    delta_max: f64,
    iterations: usize,
) -> (f64, f64) {
    let mut eval = |prober: &mut Prober<'_, '_>, delta: f64| -> f64 {
        let (changed, len) = direction_changed(dir, caps, power, d_max, delta);
        prober.value_at(caps, &changed[..len], scratch)
    };
    let (mut a, mut b) = (0.0f64, delta_max);
    let mut c = b - INV_PHI * (b - a);
    let mut d = a + INV_PHI * (b - a);
    let mut fc = eval(prober, c);
    let mut fd = eval(prober, d);
    let mut best = if fc >= fd { (c, fc) } else { (d, fd) };
    for _ in 0..iterations {
        if fc >= fd {
            b = d;
            d = c;
            fd = fc;
            c = b - INV_PHI * (b - a);
            fc = eval(prober, c);
            if fc > best.1 {
                best = (c, fc);
            }
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + INV_PHI * (b - a);
            fd = eval(prober, d);
            if fd > best.1 {
                best = (d, fd);
            }
        }
    }
    let f_end = eval(prober, delta_max);
    if f_end > best.1 {
        best = (delta_max, f_end);
    }
    best
}

/// Runs the pairwise profile ascent from `start`. Returns the refined
/// profile, its exact solution, and search statistics.
pub fn profile_search(
    inst: &Instance,
    start: &EnergyProfile,
    opts: &ProfileSearchOptions,
) -> (EnergyProfile, NaiveSolution, ProfileSearchOutcome) {
    let mut ws = ValueFnWorkspace::new();
    profile_search_with(inst, start, opts, &mut ws)
}

/// [`profile_search`] probing through a caller-owned workspace, so its
/// buffers (and allocation cost) amortize across many solves — one
/// workspace per worker thread in the experiment engine. The reported
/// [`ProfileSearchOutcome::probe_stats`] cover this solve only (including
/// any parallel-gate workers'); the workspace's own counters keep
/// accumulating across solves.
pub fn profile_search_with(
    inst: &Instance,
    start: &EnergyProfile,
    opts: &ProfileSearchOptions,
    ws: &mut ValueFnWorkspace,
) -> (EnergyProfile, NaiveSolution, ProfileSearchOutcome) {
    let (state, solver) = descend(inst, start, opts, ws);
    solver.recycle(&mut ws.arena);
    let profile = EnergyProfile::new(state.caps);
    let solution = compute_naive_solution(inst, &profile);
    (profile, solution, state.outcome)
}

/// A value-only profile search result: the refined profile, the pooled
/// per-task flop allocation under it, and the fractional accuracy those
/// flops realize — everything an admission decision needs, with no
/// waterfill or per-machine time distribution.
#[derive(Debug, Clone)]
pub struct ValueSearchResult {
    /// The refined (budget-feasible) energy profile.
    pub profile: EnergyProfile,
    /// Per-task pooled flops under the refined profile — bit-identical to
    /// the stage-1 flops [`compute_naive_solution`] assigns before
    /// waterfilling them across machines.
    pub flops: Vec<f64>,
    /// `Σ_j A_j(flops[j])`, summed in task order: the fractional total
    /// accuracy of the refined profile.
    pub total_accuracy: f64,
    /// Search statistics (same meaning as the full search's).
    pub outcome: ProfileSearchOutcome,
}

/// [`profile_search_with`] without the solution materialization: the
/// identical descent (bit-identical caps, probe counters, and trajectory
/// for equal inputs) finished with only the pooled flop vector and its
/// fractional accuracy instead of the waterfilled [`NaiveSolution`].
/// This is the replanner's tentative-evaluation fast path: an admission
/// decision needs the value, not the schedule.
pub fn profile_search_value_with(
    inst: &Instance,
    start: &EnergyProfile,
    opts: &ProfileSearchOptions,
    ws: &mut ValueFnWorkspace,
) -> ValueSearchResult {
    let (state, solver) = descend(inst, start, opts, ws);
    let profile = EnergyProfile::new(state.caps);
    let flops = solver.flops_under_with(ws, profile.caps());
    // Flat segment index instead of per-task binary searches — same bits
    // (see [`NaiveSolver::accuracy_at`]).
    let total_accuracy = flops
        .iter()
        .enumerate()
        .map(|(j, &f)| solver.accuracy_at(j, f))
        .sum();
    solver.recycle(&mut ws.arena);
    ValueSearchResult {
        profile,
        flops,
        total_accuracy,
        outcome: state.outcome,
    }
}

/// The descent's terminal state, before a finisher materializes it.
struct DescentState {
    caps: Vec<f64>,
    outcome: ProfileSearchOutcome,
}

/// The shared ascent loop behind [`profile_search_with`] and
/// [`profile_search_value_with`]: slack absorption, batched gated
/// pairwise sweeps, triple polish, and the gate-worker counter fold.
/// Also returns the solver (holding the instance's sorted segment order)
/// so finishers can materialize whatever they need without rebuilding it.
fn descend<'a>(
    inst: &'a Instance,
    start: &EnergyProfile,
    opts: &ProfileSearchOptions,
    ws: &mut ValueFnWorkspace,
) -> (DescentState, NaiveSolver<'a>) {
    let stats_before = ws.stats;
    let m = inst.num_machines();
    let d_max = inst.d_max();
    let mut power = ws.arena.take_f64();
    power.extend((0..m).map(|r| inst.machines()[r].power()));
    let gain_tol = opts.rel_gain_tol * inst.total_max_accuracy().max(1.0);

    let mut caps: Vec<f64> = start.caps().to_vec();
    // Absorb any unspent budget into the caps (most efficient machines
    // first, naive-profile style): `V` is non-decreasing in every cap and
    // pair transfers conserve cap energy, so slack must be claimed here.
    let mut slack = (inst.budget()
        - caps
            .iter()
            .enumerate()
            .map(|(r, &p)| p * power[r])
            .sum::<f64>())
    .max(0.0);
    if slack > 1e-12 {
        for r in inst.machines().by_efficiency_desc() {
            let add_time = (slack / power[r]).min((d_max - caps[r]).max(0.0));
            caps[r] += add_time;
            slack -= add_time * power[r];
            if slack <= 1e-12 {
                break;
            }
        }
    }
    // Per-solve scratch comes from (and returns to) the workspace's
    // arena, before the prober takes the workspace borrow.
    let mut scratch = ws.arena.take_f64();
    let mut pairs = ws.arena.take_pairs();
    let mut jobs = ws.arena.take_optf64();
    let mut gate_vals = ws.arena.take_f64();
    // Thread-local workspaces for the parallel gate, pooled across solves
    // (probe counters reset on take); their counters fold into the main
    // workspace at the end (addition commutes, so the fold is
    // thread-count-independent).
    let mut gate_workers = ws.arena.take_workspaces();
    let mut prober = Prober::new(inst, ws, opts);
    let mut current = prober.anchor(&caps);
    let mut sweeps = 0usize;
    let mut transfers = 0usize;
    let mut converged = false;

    // Pairwise scan order, frozen once: decisions fold in exactly this
    // order regardless of how gate probes are evaluated.
    pairs.reserve(m.saturating_mul(m.saturating_sub(1)));
    for from in 0..m {
        for to in 0..m {
            if from != to {
                pairs.push((from, to));
            }
        }
    }
    let gate_threads = if opts.pairwise_probe {
        match opts.gate_threads {
            0 => crate::available_cores(),
            t => t,
        }
        .min(pairs.len().max(1))
        .min(GATE_BATCH)
    } else {
        1
    };
    // Tries one direction; applies it when it improves. With `probe`, a
    // single evaluation at 1e-3·δ_max rules the direction out when it does
    // not increase V there (by concavity this certifies [ε, δ_max]; the
    // (0, ε) sliver is a heuristic gap, validated empirically against the
    // LP optimum in the test suite). Used by the ungated pairwise sweep
    // and the triple polish; the gated pairwise sweep batches its gate
    // probes instead (below).
    let try_direction = |dir: &Direction,
                         probe: bool,
                         caps: &mut Vec<f64>,
                         current: &mut f64,
                         transfers: &mut usize,
                         scratch: &mut Vec<f64>,
                         prober: &mut Prober<'_, '_>|
     -> bool {
        let delta_max = direction_step_limit(dir, caps, &power, d_max);
        if delta_max <= 1e-15 || delta_max.is_nan() || delta_max.is_infinite() {
            return false;
        }
        if probe {
            let eps = delta_max * 1e-3;
            let (changed, len) = direction_changed(dir, caps, &power, d_max, eps);
            let gate_val = prober.value_at(caps, &changed[..len], scratch);
            if gate_val <= *current {
                return false;
            }
        }
        let (best_delta, best_val) = line_search(
            prober,
            caps,
            scratch,
            dir,
            &power,
            d_max,
            delta_max,
            opts.line_iterations,
        );
        if best_val > *current + gain_tol {
            apply_direction(dir, caps, &power, d_max, best_delta, scratch);
            std::mem::swap(caps, scratch);
            *current = best_val;
            *transfers += 1;
            prober.reanchor(caps);
            true
        } else {
            false
        }
    };

    // Accepted transfers require a strict `gain_tol` improvement, so the
    // value must ascend sweep over sweep; the debug assert guards the
    // cached probe path against ever breaking that invariant.
    #[cfg(debug_assertions)]
    let monotone_tol = 1e-9 * inst.total_max_accuracy().max(1.0);
    while sweeps < opts.max_sweeps {
        sweeps += 1;
        #[cfg(debug_assertions)]
        let sweep_start_value = current;
        let mut improved = false;
        if opts.pairwise_probe {
            // Batched gate rounds: evaluate every still-pending pair's
            // ε-probe against the incumbent, fold decisions in scan
            // order, re-batch after an accepted transfer (see module
            // docs for the bit-identity argument).
            let mut idx = 0usize;
            while idx < pairs.len() {
                let pending = &pairs[idx..pairs.len().min(idx + GATE_BATCH)];
                jobs.clear();
                for &(from, to) in pending {
                    let dir = [(from, -1.0), (to, 1.0)];
                    let dm = direction_step_limit(&dir, &caps, &power, d_max);
                    jobs.push(if dm <= 1e-15 || dm.is_nan() || dm.is_infinite() {
                        None
                    } else {
                        Some(dm)
                    });
                }
                gate_vals.clear();
                gate_vals.resize(pending.len(), f64::NEG_INFINITY);
                let live_jobs = jobs.iter().filter(|j| j.is_some()).count();
                if gate_threads > 1 && live_jobs > 1 {
                    evaluate_gate_batch_parallel(
                        &prober,
                        &mut gate_workers,
                        gate_threads,
                        pending,
                        &jobs,
                        &caps,
                        &power,
                        d_max,
                        &mut gate_vals,
                    );
                } else {
                    for (k, job) in jobs.iter().enumerate() {
                        if let Some(dm) = *job {
                            let (from, to) = pending[k];
                            let dir = [(from, -1.0), (to, 1.0)];
                            let (changed, len) =
                                direction_changed(&dir, &caps, &power, d_max, dm * 1e-3);
                            gate_vals[k] = prober.value_at(&caps, &changed[..len], &mut scratch);
                        }
                    }
                }
                let mut accepted_at = None;
                for k in 0..pending.len() {
                    let Some(dm) = jobs[k] else { continue };
                    if gate_vals[k] <= current {
                        continue;
                    }
                    let (from, to) = pending[k];
                    let dir = [(from, -1.0), (to, 1.0)];
                    let (best_delta, best_val) = line_search(
                        &mut prober,
                        &caps,
                        &mut scratch,
                        &dir,
                        &power,
                        d_max,
                        dm,
                        opts.line_iterations,
                    );
                    if best_val > current + gain_tol {
                        apply_direction(&dir, &caps, &power, d_max, best_delta, &mut scratch);
                        std::mem::swap(&mut caps, &mut scratch);
                        current = best_val;
                        transfers += 1;
                        improved = true;
                        prober.reanchor(&caps);
                        accepted_at = Some(k);
                        break;
                    }
                    // Rejected by the line search: the incumbent is
                    // unchanged, so the rest of the batch stays valid.
                }
                // Advance past the accepted pair (later gates must see
                // the new incumbent) or past the whole exhausted batch.
                match accepted_at {
                    Some(k) => idx += k + 1,
                    None => idx += pending.len(),
                }
            }
        } else {
            // Exhaustive ablation: line-search every pair.
            for from in 0..m {
                for to in 0..m {
                    if from == to {
                        continue;
                    }
                    let dir = [(from, -1.0), (to, 1.0)];
                    improved |= try_direction(
                        &dir,
                        false,
                        &mut caps,
                        &mut current,
                        &mut transfers,
                        &mut scratch,
                        &mut prober,
                    );
                }
            }
        }
        if !improved && opts.triple_polish && m >= 3 {
            // Triple polish: one-source/two-sink and two-source/one-sink
            // directions with a few split ratios. Only runs at pairwise
            // stalls; any success falls back to the cheap pairwise sweep.
            //
            // Each `(a, b, c, orientation)` trio probes its three λ gates
            // at a *common* step `ε` (10⁻³ of the trio's smallest step
            // limit): the probed cap vectors are then affine in λ — three
            // collinear, equally spaced points — so concavity of `V`
            // bounds the third gate by the first two,
            // `V(p(λ₃)) ≤ 2·V(p(λ₂)) − V(p(λ₁))`, and a third gate
            // certified not to improve on the incumbent is skipped
            // without being evaluated. A gate that passes runs the full
            // line search exactly as before, so accepted transfers are
            // untouched by the shortcut.
            'polish: for a in 0..m {
                for b in 0..m {
                    if b == a {
                        continue;
                    }
                    for c in (b + 1)..m {
                        if c == a {
                            continue;
                        }
                        for orient in 0..2u8 {
                            let mut dirs = [[(0usize, 0.0f64); 3]; 3];
                            let mut dms = [0.0f64; 3];
                            let mut eps = f64::INFINITY;
                            for (k, lambda) in [0.25, 0.5, 0.75].into_iter().enumerate() {
                                dirs[k] = if orient == 0 {
                                    [(a, -1.0), (b, lambda), (c, 1.0 - lambda)]
                                } else {
                                    [(b, -lambda), (c, -(1.0 - lambda)), (a, 1.0)]
                                };
                                let dm = direction_step_limit(&dirs[k], &caps, &power, d_max);
                                if dm > 1e-15 && dm.is_finite() {
                                    dms[k] = dm;
                                    eps = eps.min(dm * 1e-3);
                                }
                            }
                            if !eps.is_finite() {
                                continue;
                            }
                            let (mut ga, mut gb) = (f64::NAN, f64::NAN);
                            for k in 0..3 {
                                if dms[k] == 0.0 {
                                    continue;
                                }
                                if k == 2
                                    && ga.is_finite()
                                    && gb.is_finite()
                                    && 2.0 * gb - ga <= current
                                {
                                    // Certified ≤ incumbent: the gate
                                    // would fail; skip its evaluation.
                                    continue;
                                }
                                let (changed, len) =
                                    direction_changed(&dirs[k], &caps, &power, d_max, eps);
                                let gv = prober.value_at(&caps, &changed[..len], &mut scratch);
                                if k == 0 {
                                    ga = gv;
                                } else if k == 1 {
                                    gb = gv;
                                }
                                if gv <= current {
                                    continue;
                                }
                                let (best_delta, best_val) = line_search(
                                    &mut prober,
                                    &caps,
                                    &mut scratch,
                                    &dirs[k],
                                    &power,
                                    d_max,
                                    dms[k],
                                    opts.line_iterations,
                                );
                                if best_val > current + gain_tol {
                                    apply_direction(
                                        &dirs[k],
                                        &caps,
                                        &power,
                                        d_max,
                                        best_delta,
                                        &mut scratch,
                                    );
                                    std::mem::swap(&mut caps, &mut scratch);
                                    current = best_val;
                                    transfers += 1;
                                    prober.reanchor(&caps);
                                    improved = true;
                                    break 'polish;
                                }
                            }
                        }
                    }
                }
            }
        }
        #[cfg(debug_assertions)]
        debug_assert!(
            current >= sweep_start_value - monotone_tol,
            "sweep {sweeps} decreased the value: {sweep_start_value} -> {current}"
        );
        if !improved {
            converged = true;
            break;
        }
    }

    // Fold the gate workers' probe counters into the caller's workspace.
    for wws in &gate_workers {
        prober.ws.stats.absorb(wws.stats);
    }

    let probe_stats = prober.ws.stats.since(stats_before);
    // Return every pooled buffer; the solver outlives the descent (the
    // finishers materialize through it) and is recycled by them.
    let Prober {
        solver, ws, chk, ..
    } = prober;
    chk.recycle(&mut ws.arena);
    ws.arena.put_workspaces(gate_workers);
    ws.arena.put_f64(power);
    ws.arena.put_f64(scratch);
    ws.arena.put_pairs(pairs);
    ws.arena.put_optf64(jobs);
    ws.arena.put_f64(gate_vals);
    (
        DescentState {
            caps,
            outcome: ProfileSearchOutcome {
                sweeps,
                transfers,
                converged,
                probe_stats,
            },
        },
        solver,
    )
}

/// Evaluates one gate batch on `gate_threads` scoped worker threads.
///
/// Each worker owns a thread-local [`ValueFnWorkspace`] (lazily created,
/// reused across batches) and strides over the pending pairs; every probe
/// is a pure function of the shared incumbent state (the Δ-probe
/// checkpoint, or the caps themselves on the full-evaluation paths), so
/// the values — and therefore the decisions folded afterwards — do not
/// depend on the thread count or schedule.
#[allow(clippy::too_many_arguments)] // one batch's bundled evaluation context
fn evaluate_gate_batch_parallel(
    prober: &Prober<'_, '_>,
    gate_workers: &mut Vec<ValueFnWorkspace>,
    gate_threads: usize,
    pending: &[(usize, usize)],
    jobs: &[Option<f64>],
    caps: &[f64],
    power: &[f64],
    d_max: f64,
    gate_vals: &mut [f64],
) {
    if gate_workers.len() < gate_threads {
        gate_workers.resize_with(gate_threads, ValueFnWorkspace::new);
    }
    let solver = &prober.solver;
    let chk = &prober.chk;
    let incremental = prober.incremental;
    let cached = prober.cached;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(gate_threads);
        for (w, wws) in gate_workers.iter_mut().take(gate_threads).enumerate() {
            handles.push(scope.spawn(move || {
                let mut out: Vec<(usize, f64)> = Vec::new();
                let mut full: Vec<f64> = Vec::with_capacity(caps.len());
                let mut k = w;
                while k < pending.len() {
                    if let Some(dm) = jobs[k] {
                        let (from, to) = pending[k];
                        let dir = [(from, -1.0), (to, 1.0)];
                        let (changed, len) = direction_changed(&dir, caps, power, d_max, dm * 1e-3);
                        let changed = &changed[..len];
                        let v = if incremental {
                            match solver.value_delta(wws, chk, changed) {
                                Some(v) => v,
                                None => {
                                    apply_changed(caps, changed, &mut full);
                                    solver.value_with(wws, &full)
                                }
                            }
                        } else if cached {
                            apply_changed(caps, changed, &mut full);
                            solver.value_with(wws, &full)
                        } else {
                            apply_changed(caps, changed, &mut full);
                            wws.stats.probes += 1;
                            wws.stats.cold_probes += 1;
                            solver.value(&full)
                        };
                        out.push((k, v));
                    }
                    k += gate_threads;
                }
                out
            }));
        }
        for handle in handles {
            for (k, v) in handle.join().expect("gate worker panicked") {
                gate_vals[k] = v;
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use crate::profile::naive_profile;
    use crate::schedule::ScheduleKind;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    #[test]
    fn search_never_decreases_value_and_stays_feasible() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.05, acc(&[(0.0, 0.0), (500.0, 0.8)])),
            Task::new(2.0, acc(&[(0.0, 0.0), (4000.0, 0.4)])),
        ];
        let inst = Instance::new(tasks, park, 30.0).unwrap();
        let start = naive_profile(&inst);
        let base = compute_naive_solution(&inst, &start)
            .schedule
            .total_accuracy(&inst);
        let (profile, sol, out) = profile_search(&inst, &start, &ProfileSearchOptions::default());
        assert!(out.converged);
        let refined = sol.schedule.total_accuracy(&inst);
        assert!(refined >= base - 1e-12);
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        // Profile stays within the budget.
        assert!(profile.energy(&inst) <= inst.budget() + 1e-6);
    }

    #[test]
    fn deadline_trapped_energy_is_released() {
        // The efficient machine's cap exceeds what its deadline lets it
        // use; the search must shift that energy to the other machine.
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 100.0).unwrap(), // 10 W, efficient
            Machine::from_efficiency(1000.0, 10.0).unwrap(),  // 100 W
        ]);
        // One task, deadline 1 s, needs 2000 GFLOP for full accuracy: one
        // machine alone can do at most 1000 GFLOP by the deadline.
        let tasks = vec![Task::new(1.0, acc(&[(0.0, 0.0), (2000.0, 0.8)]))];
        // Budget 40 J: naive gives m0 its full 1 s (10 J) and m1 0.3 s.
        let inst = Instance::new(tasks, park, 40.0).unwrap();
        let start = naive_profile(&inst);
        let (_, sol, _) = profile_search(&inst, &start, &ProfileSearchOptions::default());
        let acc_refined = sol.schedule.total_accuracy(&inst);
        // m0: 1 s → 1000 GFLOP (10 J). Remaining 30 J on m1 → 0.3 s → 300
        // GFLOP. Total 1300 GFLOP → 0.52 accuracy.
        assert!(
            acc_refined >= 0.52 - 1e-6,
            "refined accuracy {acc_refined} below achievable 0.52"
        );
    }

    /// The value-only finisher runs the identical descent: same caps,
    /// same outcome counters, and stage-1 flops bit-identical to the full
    /// search's materialized solution.
    #[test]
    fn value_search_matches_full_search_bitwise() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
            Machine::from_efficiency(900.0, 40.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.05, acc(&[(0.0, 0.0), (500.0, 0.8)])),
            Task::new(0.7, acc(&[(0.0, 0.1), (1500.0, 0.6)])),
            Task::new(2.0, acc(&[(0.0, 0.0), (4000.0, 0.4)])),
        ];
        let inst = Instance::new(tasks, park, 55.0).unwrap();
        let start = naive_profile(&inst);
        let opts = ProfileSearchOptions::default();
        let mut ws_a = ValueFnWorkspace::new();
        let (profile, sol, out) = profile_search_with(&inst, &start, &opts, &mut ws_a);
        let mut ws_b = ValueFnWorkspace::new();
        let est = profile_search_value_with(&inst, &start, &opts, &mut ws_b);
        assert_eq!(profile.caps(), est.profile.caps(), "caps diverged");
        assert_eq!(out, est.outcome, "outcome counters diverged");
        assert_eq!(sol.flops.len(), est.flops.len());
        for (j, (&a, &b)) in sol.flops.iter().zip(&est.flops).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "task {j} flops: {a} vs {b}");
        }
        let realized = sol.schedule.total_accuracy(&inst);
        assert!(
            (est.total_accuracy - realized).abs() <= 1e-9 * (1.0 + realized.abs()),
            "fractional accuracy {} vs realized {realized}",
            est.total_accuracy
        );
    }

    /// An all-zero-weight direction constrains no cap; its step limit must
    /// be 0.0 (a no-op direction), not `+∞`.
    #[test]
    fn zero_weight_direction_has_zero_step_limit() {
        let caps = [1.0, 2.0];
        let power = [10.0, 20.0];
        let zero_dir = [(0usize, 0.0f64), (1usize, 0.0f64)];
        assert_eq!(direction_step_limit(&zero_dir, &caps, &power, 5.0), 0.0);
        let empty: [(usize, f64); 0] = [];
        assert_eq!(direction_step_limit(&empty, &caps, &power, 5.0), 0.0);
        // Sanity: a real direction still reports a finite positive limit.
        let real = [(0usize, -1.0f64), (1usize, 1.0f64)];
        let limit = direction_step_limit(&real, &caps, &power, 5.0);
        assert!(limit > 0.0 && limit.is_finite());
    }
}
