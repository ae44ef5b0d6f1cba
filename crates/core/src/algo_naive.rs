//! Algorithm 2 of the paper: `ComputeNaiveSolution`.
//!
//! Computes the optimal fractional solution **for the naive energy
//! profile** in three steps:
//!
//! 1. derive the naive profile (most efficient machines first — see
//!    [`crate::profile::naive_profile`]);
//! 2. collapse the park into one unit-speed machine by converting each
//!    deadline `d_j` into the aggregate work capacity available by `d_j`
//!    under the profile (`Σ_r min(p_r, d_j)·s_r`), and solve that single
//!    machine exactly with Algorithm 1 — yielding the work `f_j` each task
//!    receives;
//! 3. distribute each task's work back onto the machines with an
//!    equal-increment water-filling capped per machine at
//!    `min(p_r, d_j)`.
//!
//! Deviation from the paper's listing (see DESIGN.md §3): the distribution
//! caps a machine's load at `min(p_r, d_j)` rather than `p_r` alone —
//! without the `d_j` term the redistribution can violate the very deadline
//! feasibility the single-machine transformation assumed. Because caps only
//! grow with `j`, any cap-respecting distribution preserves the aggregate
//! capacity argument, so the achieved accuracies are unchanged.
//!
//! [`NaiveSolver`] is the one evaluator of all of it, built once per
//! solve, and Algorithm 1 runs in one form on it: the bucket greedy. The
//! profile search needs step 2's objective, the profile value function
//! `V(p)`, thousands of times per solve: [`NaiveSolver::checkpoint_into`]
//! evaluates `V` at an incumbent profile and records a [`ValueCheckpoint`]
//! there — the greedy's per-task takes included — and
//! [`NaiveSolver::value_delta`] evaluates `V` at that incumbent with ≤ 3
//! caps changed, recomputing only what the change can reach. Step 3
//! (`NaiveSolver::solution_at`, the waterfill) materializes every
//! adopted schedule from a checkpoint's recorded takes, so a schedule
//! carries exactly the work its checkpoint's prices certify;
//! [`NaiveSolver::solution_under`] anchors that checkpoint first, and
//! [`compute_naive_solution`] is that on a fresh evaluator. The unit tests
//! hold the greedy to Algorithm 1's reference walk on the slack tree over
//! the AoS segment list, which is compiled for the tests only.
//!
//! Step 2 is a linear program in its right-hand side, and the greedy that
//! solves it also determines its optimal *dual* prices:
//! [`NaiveSolver::price_blocks_into`] reads them off a checkpointed
//! incumbent as [`PriceBlocks`], whose weak-duality bound lets the search
//! close most transfer gates without evaluating `V` at all
//! (`tests/price_certificate.rs`).

use crate::algo_single::{accuracy_gain_buckets_lanes, BucketSlack, SegmentSpec};
use crate::kernels;
use crate::problem::Instance;
use crate::profile::EnergyProfile;
use crate::schedule::FractionalSchedule;
use crate::soa::{ScratchArena, SegmentLanes};
use crate::EPS_TIME;
use dsct_machines::MachinePark;

/// Output of `ComputeNaiveSolution`.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveSolution {
    /// The processing-time matrix.
    pub schedule: FractionalSchedule,
    /// Work received by each task (GFLOP), `f_j = Σ_r s_r t_jr`.
    pub flops: Vec<f64>,
}

/// Builds the flattened segment list of an instance for Algorithm 1 —
/// the tests' reference input to
/// [`crate::algo_single::schedule_single_machine`]; solves walk the
/// evaluator's [`SegmentLanes`] instead.
#[cfg(test)]
pub fn collect_segments(inst: &Instance) -> Vec<SegmentSpec> {
    let mut segs = Vec::new();
    collect_segments_into(inst, &mut segs);
    segs
}

/// Flattens every task's accuracy segments into a caller-owned
/// (arena-pooled) buffer, in task then position order.
fn collect_segments_into(inst: &Instance, segs: &mut Vec<SegmentSpec>) {
    segs.clear();
    for (j, task) in inst.tasks().iter().enumerate() {
        for s in task.accuracy.segments() {
            segs.push(SegmentSpec {
                task: j,
                position: s.index,
                slope: s.slope,
                total_flops: s.width(),
            });
        }
    }
}

/// Reusable Algorithm 2 evaluator for one instance.
///
/// The profile search evaluates the value function `V(p)` thousands of
/// times on the same task set; the slope-sorted segments, the deadlines,
/// the speeds and the zero-work base accuracy are invariant across
/// evaluations, and the distribution step is unnecessary when only the
/// achieved accuracy is needed (it is fully determined by Algorithm 1's
/// work vector). This struct hoists all of that out of the hot path.
///
/// It owns copies of everything it reads, so it borrows nothing: one
/// build serves a whole cold solve — the naive stage, the descent, the
/// finisher — and the admission certificate that prices the adopted plan
/// ([`crate::fr_dual`]). It answers for one instance and no other: the
/// one [`NaiveSolver::new_in`] built it from, or, for the evaluator a
/// [`crate::residual::ResidualPool`] keeps in step with its rows, the
/// pool's instance as of its last read.
#[derive(Debug, Clone)]
pub struct NaiveSolver {
    /// The positive-gain segments in slope-descending processing order,
    /// as contiguous SoA lanes — what every probe walks (see
    /// [`crate::soa`]).
    pub(crate) lanes: SegmentLanes,
    /// Machine speeds by index, hoisted out of the per-probe loops.
    pub(crate) speeds: Vec<f64>,
    /// `Σ_j a_j(0)` over the tasks in task order.
    pub(crate) base_accuracy: f64,
    /// Task deadlines in task (EDF) order, cached for the Δ-probe's
    /// affected-suffix search.
    pub(crate) deadlines: Vec<f64>,
}

/// Counters of value-function evaluations, kept by a
/// [`ValueFnWorkspace`] and surfaced through
/// [`crate::profile_search::ProfileSearchOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Total `V(p)` evaluations.
    pub probes: u64,
    /// Evaluations served by a checkpoint delta
    /// ([`NaiveSolver::value_delta`]);
    /// the remainder anchored a checkpoint
    /// ([`NaiveSolver::checkpoint_into`]).
    pub incremental_probes: u64,
}

impl ProbeStats {
    /// Counter delta since an earlier snapshot — used to report per-solve
    /// probe counts from a workspace that outlives a single solve.
    pub fn since(self, earlier: ProbeStats) -> ProbeStats {
        ProbeStats {
            probes: self.probes - earlier.probes,
            incremental_probes: self.incremental_probes - earlier.incremental_probes,
        }
    }
}

/// Reusable state for evaluating the profile value function `V(p)` many
/// times on one instance (the profile search performs thousands of probes
/// per solve).
///
/// A probe through [`NaiveSolver::checkpoint_into`] or
/// [`NaiveSolver::value_delta`] allocates nothing once the workspace is
/// warm: the prefix-capacity vectors, the bucket state and the Δ-probe
/// scratch are all reset in place, and the solver's segment lanes are
/// shared across every probe (`tests/probe_allocations.rs` counts the
/// bytes).
#[derive(Debug, Clone)]
pub struct ValueFnWorkspace {
    /// Machine indices sorted by ascending cap (recomputed per anchor).
    cap_index: Vec<usize>,
    /// Caps in `cap_index` order.
    cap_sorted: Vec<f64>,
    /// `speed_suffix[k] = Σ_{i ≥ k} s_{cap_index[i]}` (length `m + 1`).
    speed_suffix: Vec<f64>,
    /// `capwork_prefix[k] = Σ_{i < k} p_{cap_index[i]} · s_{cap_index[i]}`.
    capwork_prefix: Vec<f64>,
    /// Δ-probe scratch: recomputed capacity-bucket suffix.
    delta_buckets: Vec<f64>,
    /// Bitmask slack buckets, reloaded from the checkpoint per probe.
    buckets: BucketSlack,
    /// Recycling pool for per-solve scratch (solver lanes, checkpoint
    /// vectors, descent buffers): steady-state solves through one
    /// workspace allocate nothing on the probe path.
    pub(crate) arena: ScratchArena,
    /// Evaluation counters.
    pub stats: ProbeStats,
}

/// Checkpointed incumbent state for Δ-probes (see
/// [`NaiveSolver::value_delta`]): everything a probe at `p + Δ` needs to
/// avoid re-deriving the parts of the evaluation the delta cannot touch.
///
/// Validity invariant: the checkpoint describes exactly one profile
/// (`caps`), and a Δ-probe against it is exact only when every entry of
/// `Δ` names a machine of that profile and the remaining caps are bit-equal
/// to `caps` — which the profile search guarantees by re-anchoring the
/// checkpoint at every incumbent change. Probes never mutate the
/// checkpoint (the working bucket state lives in the workspace), so the
/// rollback to the incumbent between probes is exact, not approximate.
#[derive(Debug, Clone, Default)]
pub struct ValueCheckpoint {
    /// Incumbent profile caps.
    caps: Vec<f64>,
    /// Raw (unguarded) temporary deadlines `Σ_r min(p_r, d_j)·s_r`.
    td_raw: Vec<f64>,
    /// Monotone-guarded temporary deadlines (running max of `td_raw`).
    td: Vec<f64>,
    /// Pristine capacity buckets `b_j = td_j − td_{j−1}`.
    buckets: Vec<f64>,
    /// Occupancy bit-words of the pristine buckets (bit `j & 63` of word
    /// `j >> 6` ⇔ `buckets[j] > 0`), snapshotted at anchor time so
    /// Δ-probes reload the untouched prefix by word copy instead of an
    /// element scan.
    bit_words: Vec<u64>,
    /// Work the bucket greedy gave each task on the way to `value`,
    /// kept so neither pricing the incumbent
    /// ([`NaiveSolver::price_blocks_into`]) nor materializing its schedule
    /// (`NaiveSolver::solution_at`) walks the lanes again.
    work: Vec<f64>,
    /// `V(caps)` as evaluated by the bucket greedy.
    value: f64,
    /// Whether the checkpoint holds a usable incumbent.
    valid: bool,
}

impl ValueCheckpoint {
    /// Fresh, invalid checkpoint.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh, invalid checkpoint over arena-pooled buffers.
    pub(crate) fn new_in(arena: &mut ScratchArena) -> Self {
        Self {
            caps: arena.take_f64(),
            td_raw: arena.take_f64(),
            td: arena.take_f64(),
            buckets: arena.take_f64(),
            bit_words: arena.take_u64(),
            work: arena.take_f64(),
            value: 0.0,
            valid: false,
        }
    }

    /// Returns the checkpoint's buffers to `arena`.
    pub(crate) fn recycle(self, arena: &mut ScratchArena) {
        arena.put_f64(self.caps);
        arena.put_f64(self.td_raw);
        arena.put_f64(self.td);
        arena.put_f64(self.buckets);
        arena.put_u64(self.bit_words);
        arena.put_f64(self.work);
    }

    /// The checkpointed `V(caps)` (meaningless while invalid).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// The incumbent caps (empty while invalid).
    pub fn caps(&self) -> &[f64] {
        &self.caps
    }

    /// The work the bucket greedy gave each task at the caps, in task
    /// order (meaningless while invalid).
    pub fn work(&self) -> &[f64] {
        &self.work
    }
}

/// Optimal dual prices of Algorithm 2's inner LP at an anchored incumbent
/// ([`NaiveSolver::price_blocks_into`]), and the weak-duality bound they
/// put on every ≤ 3-cap move away from it ([`PriceBlocks::gain_bound`]).
///
/// For fixed caps, `V(p) = W(C(p))` with `C_j = Σ_r s_r·min(p_r, d_j)` and
/// `W(C) = max Σ_j a_j(f_j)` s.t. `Σ_{i≤j} f_i ≤ C_j`, `0 ≤ f_j ≤ F_j`.
/// Any task prices `Y_0 ≥ Y_1 ≥ … ≥ 0` are dual-feasible, and with `Y`
/// optimal at `C` weak duality reads `V(p′) − V(p) ≤ Σ_j (Y_j − Y_{j+1})·
/// (C_j(p′) − C_j(p))`. An optimal `Y` only drops at *tight* prefixes, so
/// the tasks between two consecutive tight prefixes — a **block** — share
/// one price; it must lie between the steepest slope a task of the block
/// left unfilled and the flattest one it filled, block prices are
/// non-increasing, and tasks after the last tight prefix are priced 0.
/// The set of optimal duals is exactly those boxes plus the chain order;
/// stored here are the boxes *tightened* by the chain (prefix-min of the
/// upper ends, suffix-max of the lower ends), whose projection onto any
/// subset of blocks is again those boxes plus the chain.
///
/// Every tolerance decision of the builder (a segment judged full or
/// untouched, a prefix judged tight) is paid for in [`PriceBlocks::slop`],
/// the duality gap it can open; a block set with an empty box, or with
/// unfilled tasks behind the last tight prefix, is *uncertifiable* and
/// bounds nothing. Errors in the prices can therefore weaken a bound but
/// never make it wrong.
#[derive(Debug, Clone, Default)]
pub struct PriceBlocks {
    /// Deadline of each block's closing (tight) task, ascending.
    deadline: Vec<f64>,
    /// Tightened lower end of each block's price box.
    lo: Vec<f64>,
    /// Tightened upper end of each block's price box.
    hi: Vec<f64>,
    /// Duality gap of the builder's tolerance decisions (accuracy units).
    slop: f64,
    /// Whether the boxes describe a non-empty set of optimal duals.
    certifiable: bool,
}

impl PriceBlocks {
    /// Empty, uncertifiable block set.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`PriceBlocks::new`] over arena-pooled buffers.
    pub(crate) fn new_in(arena: &mut ScratchArena) -> Self {
        Self {
            deadline: arena.take_f64(),
            lo: arena.take_f64(),
            hi: arena.take_f64(),
            slop: 0.0,
            certifiable: false,
        }
    }

    /// Returns the block buffers to `arena`.
    pub(crate) fn recycle(self, arena: &mut ScratchArena) {
        arena.put_f64(self.deadline);
        arena.put_f64(self.lo);
        arena.put_f64(self.hi);
    }

    /// Whether the prices bound anything (see the type docs).
    pub fn is_certifiable(&self) -> bool {
        self.certifiable
    }

    /// What the builder's tolerance decisions can add to any bound
    /// (meaningless while uncertifiable).
    pub fn slop(&self) -> f64 {
        self.slop
    }

    /// Deadline of each block's closing task, ascending. A task belongs to
    /// the first block whose deadline is not below its own; tasks beyond
    /// the last block are priced 0.
    pub fn deadlines(&self) -> &[f64] {
        &self.deadline
    }

    /// The smallest optimal price of each block (non-increasing).
    pub fn low(&self) -> &[f64] {
        &self.lo
    }

    /// The largest optimal price of each block (non-increasing), capped at
    /// the instance's steepest slope.
    pub fn high(&self) -> &[f64] {
        &self.hi
    }

    /// One work price per task of the priced instance, given its
    /// `deadlines` in EDF order: `lo + t·(hi − lo)` of the task's block,
    /// 0 beyond the last block — the `λ` that [`crate::fr_dual`] takes.
    pub fn task_prices_into(&self, deadlines: &[f64], t: f64, out: &mut Vec<f64>) {
        out.clear();
        let mut k = 0;
        for &d in deadlines {
            while k < self.deadline.len() && self.deadline[k] < d {
                k += 1;
            }
            out.push(if k < self.deadline.len() {
                self.lo[k] + t * (self.hi[k] - self.lo[k])
            } else {
                0.0
            });
        }
    }

    fn reset(&mut self) {
        self.deadline.clear();
        self.lo.clear();
        self.hi.clear();
        self.slop = 0.0;
        self.certifiable = false;
    }

    /// Upper bound on `V(p′) − V(p)` (before [`PriceBlocks::slop`]) for a
    /// move of ≤ 3 caps away from the priced incumbent `p`, one
    /// `(p_r, s_r·x_r)` entry per machine whose cap changes by `x_r`
    /// seconds. `+∞` when the set is uncertifiable or the move touches more
    /// than three caps.
    ///
    /// A sink (`x_r > 0`) raises `C_j` by at most `s_r x_r` and only where
    /// `d_j > p_r`; a source lowers it by exactly `s_r |x_r|` wherever
    /// `d_j ≥ p_r`. Summed against `Y_j − Y_{j+1}` both telescope to
    /// `s_r x_r` times the price of the first block whose deadline lies
    /// beyond `p_r` (nothing when there is none). The bound is the minimum
    /// of that linear form over the optimal duals, attained at a vertex
    /// whose coordinates are box ends of the ≤ 3 blocks involved; it is
    /// linear in the step, so scaling the move scales the bound.
    pub fn gain_bound(&self, moves: &[(f64, f64)]) -> f64 {
        if !self.certifiable || moves.len() > 3 {
            return f64::INFINITY;
        }
        // Work moved per block, ascending in block index; machines landing
        // in one block share its price.
        let mut terms = [(0usize, 0.0f64); 3];
        let mut q = 0usize;
        for &(cap, work) in moves {
            let k = if work > 0.0 {
                self.deadline.partition_point(|&d| d <= cap)
            } else if work < 0.0 {
                self.deadline.partition_point(|&d| d < cap)
            } else {
                continue;
            };
            if k == self.deadline.len() {
                continue;
            }
            let at = terms[..q].partition_point(|&(b, _)| b < k);
            if at < q && terms[at].0 == k {
                terms[at].1 += work;
            } else {
                terms.copy_within(at..q, at + 1);
                terms[at] = (k, work);
                q += 1;
            }
        }
        if q == 0 {
            return 0.0; // every moved cap lies beyond the last tight deadline
        }
        // Vertex enumeration: each price from the ≤ 6 box ends, kept when it
        // sits in its own box and under its predecessor.
        let mut ends = [0.0f64; 6];
        for (i, &(k, _)) in terms[..q].iter().enumerate() {
            ends[2 * i] = self.lo[k];
            ends[2 * i + 1] = self.hi[k];
        }
        let ends = &ends[..2 * q];
        let inside = |i: usize, v: f64| self.lo[terms[i].0] <= v && v <= self.hi[terms[i].0];
        let mut best = f64::INFINITY;
        for &v0 in ends.iter().filter(|&&v| inside(0, v)) {
            let b0 = terms[0].1 * v0;
            if q == 1 {
                best = best.min(b0);
                continue;
            }
            for &v1 in ends.iter().filter(|&&v| v <= v0 && inside(1, v)) {
                let b1 = b0 + terms[1].1 * v1;
                if q == 2 {
                    best = best.min(b1);
                    continue;
                }
                for &v2 in ends.iter().filter(|&&v| v <= v1 && inside(2, v)) {
                    best = best.min(b1 + terms[2].1 * v2);
                }
            }
        }
        best
    }

    /// Upper bound on `V(p′) − V(p)` (before [`PriceBlocks::slop`]) for a
    /// *finite* move of ≤ 3 caps away from the priced incumbent `p`, one
    /// `(s_r, p_r, p′_r)` entry per moved machine: weak duality at the
    /// extreme optimal duals [`PriceBlocks::low`] and
    /// [`PriceBlocks::high`], the smaller of the two. `+∞` when the set
    /// is uncertifiable or the move touches more than three caps.
    ///
    /// With `Y` an optimal dual (0 past the last block) and `D_k` block
    /// `k`'s closing deadline, `V(p′) − V(p) ≤ Σ_k (Y_k − Y_{k+1})·ΔC(D_k)`,
    /// `ΔC(D) = Σ_r s_r·(min(p′_r, D) − min(p_r, D))`. Per machine, the
    /// blocks at or beyond `max(p_r, p′_r)` telescope to `s_r·(p′_r −
    /// p_r)·Y_{k1}`, those at or below `min(p_r, p′_r)` see nothing, and
    /// only the window strictly between the two caps — the deadlines the
    /// step crosses — adds terms of its own. Dropping the window and
    /// minimizing over every optimal dual gives
    /// [`PriceBlocks::gain_bound`]; the window is what sees a source cap
    /// passing a tight prefix, or a sink saturating at a deadline, inside
    /// the step.
    pub fn step_bound(&self, moves: &[(f64, f64, f64)]) -> f64 {
        if !self.certifiable || moves.len() > 3 {
            return f64::INFINITY;
        }
        self.step_bound_at(&self.lo, moves)
            .min(self.step_bound_at(&self.hi, moves))
    }

    /// [`PriceBlocks::step_bound`] at the one chain-feasible dual `y`.
    fn step_bound_at(&self, y: &[f64], moves: &[(f64, f64, f64)]) -> f64 {
        let price = |k: usize| y.get(k).copied().unwrap_or(0.0);
        let mut bound = 0.0;
        for &(speed, cap, new_cap) in moves {
            let (lo, hi) = (cap.min(new_cap), cap.max(new_cap));
            let k0 = self.deadline.partition_point(|&d| d <= lo);
            let k1 = k0 + self.deadline[k0..].partition_point(|&d| d < hi);
            bound += speed * (new_cap - cap) * price(k1);
            for (k, &d) in (k0..k1).zip(&self.deadline[k0..k1]) {
                bound += (price(k) - price(k + 1)) * speed * (new_cap.min(d) - cap.min(d));
            }
        }
        bound
    }
}

impl Default for ValueFnWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl ValueFnWorkspace {
    /// Empty workspace. Every buffer is cleared and resized per probe, so
    /// one workspace can be reused across instances of different shapes —
    /// worker threads in the experiment engine hold one per thread and
    /// amortize its allocations across all their work items.
    pub fn new() -> Self {
        Self::with_capacity(0, 0)
    }

    fn with_capacity(n: usize, m: usize) -> Self {
        Self {
            cap_index: Vec::with_capacity(m),
            cap_sorted: Vec::with_capacity(m),
            speed_suffix: Vec::with_capacity(m + 1),
            capwork_prefix: Vec::with_capacity(m + 1),
            delta_buckets: Vec::with_capacity(n),
            buckets: BucketSlack::default(),
            arena: ScratchArena::new(),
            stats: ProbeStats::default(),
        }
    }

    /// The workspace's scratch arena (per-solve buffer recycling).
    pub fn arena_mut(&mut self) -> &mut ScratchArena {
        &mut self.arena
    }
}

impl NaiveSolver {
    /// Prepares the evaluator for an instance.
    pub fn new(inst: &Instance) -> Self {
        Self::new_in(inst, &mut ScratchArena::new())
    }

    /// [`NaiveSolver::new`] with every buffer pulled from `arena` —
    /// pair with [`NaiveSolver::recycle`] so repeated solves through one
    /// workspace reuse the warm capacity instead of allocating. The AoS
    /// segment list and its sort order are build scratch, back in the
    /// arena before this returns.
    pub fn new_in(inst: &Instance, arena: &mut ScratchArena) -> Self {
        let mut segments = arena.take_specs();
        collect_segments_into(inst, &mut segments);
        let mut order = arena.take_usize();
        crate::algo_single::sort_segments_into(&segments, &mut order, arena);
        let lanes = SegmentLanes::build_in(&segments, &order, arena);
        arena.put_specs(segments);
        arena.put_usize(order);
        let mut deadlines = arena.take_f64();
        deadlines.extend((0..inst.num_tasks()).map(|j| inst.task(j).deadline));
        let mut solver = Self {
            lanes,
            speeds: arena.take_f64(),
            base_accuracy: inst.total_min_accuracy(),
            deadlines,
        };
        solver.set_speeds(inst.machines());
        solver
    }

    /// The evaluator of no task over `machines`, allocated outside any
    /// arena: where a [`crate::residual::ResidualPool`]'s starts.
    pub(crate) fn for_park(machines: &MachinePark) -> Self {
        let mut solver = Self {
            lanes: SegmentLanes::default(),
            speeds: Vec::new(),
            base_accuracy: 0.0,
            deadlines: Vec::new(),
        };
        solver.set_speeds(machines);
        solver
    }

    /// Writes the speeds of `machines` in place.
    pub(crate) fn set_speeds(&mut self, machines: &MachinePark) {
        self.speeds.clear();
        self.speeds
            .extend((0..machines.len()).map(|r| machines[r].speed()));
    }

    /// Panics unless `self` and `reference` hold the same evaluator bit
    /// for bit: the lanes' task, width and slope, the speeds, the
    /// deadlines and the base accuracy.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn assert_same_bits(&self, reference: &Self, at: f64) {
        fn bits(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }
        assert_eq!(self.lanes.task, reference.lanes.task, "lane tasks at {at}");
        assert_eq!(
            bits(&self.lanes.width),
            bits(&reference.lanes.width),
            "lane widths at {at}"
        );
        assert_eq!(
            bits(&self.lanes.slope),
            bits(&reference.lanes.slope),
            "lane slopes at {at}"
        );
        assert_eq!(
            bits(&self.speeds),
            bits(&reference.speeds),
            "speeds at {at}"
        );
        assert_eq!(
            bits(&self.deadlines),
            bits(&reference.deadlines),
            "deadlines at {at}"
        );
        assert_eq!(
            self.base_accuracy.to_bits(),
            reference.base_accuracy.to_bits(),
            "base accuracy at {at}"
        );
    }

    /// Returns every buffer of a [`NaiveSolver::new_in`]-built solver to
    /// `arena`.
    pub fn recycle(self, arena: &mut ScratchArena) {
        self.lanes.recycle(arena);
        arena.put_f64(self.speeds);
        arena.put_f64(self.deadlines);
    }

    /// Machine speeds by index.
    pub(crate) fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// Task deadlines in task (EDF) order.
    pub fn deadlines(&self) -> &[f64] {
        &self.deadlines
    }

    /// The positive-gain segments in processing order.
    pub(crate) fn lanes(&self) -> &SegmentLanes {
        &self.lanes
    }

    /// Creates a [`ValueFnWorkspace`] sized for this instance.
    pub fn workspace(&self) -> ValueFnWorkspace {
        ValueFnWorkspace::with_capacity(self.deadlines.len(), self.speeds.len())
    }

    /// The full evaluation of the profile value function: computes
    /// `V(caps)` *and* records the incumbent state Δ-probes resume from —
    /// the caps, the raw and guarded temporary deadlines, and the
    /// pristine capacity buckets. Returns the value (also stored in the
    /// checkpoint). Counts as one (non-incremental) probe.
    ///
    /// The temporary deadline of task `j` is `Σ_r min(p_r, d_j) · s_r`,
    /// computed in `O(m log m + n)` from cap-sorted prefix/suffix vectors
    /// instead of `O(n·m)`: machines with `p_r ≤ d_j` contribute their
    /// full `p_r · s_r` (a prefix in cap order), the rest contribute
    /// `d_j · s_r` (a speed suffix), and the deadlines ascend so one
    /// two-pointer pass covers all tasks. The value comes from the bucket
    /// greedy, so it is fp-consistent with every subsequent
    /// [`NaiveSolver::value_delta`] against this checkpoint, and its
    /// recorded takes are the work `NaiveSolver::solution_at`
    /// waterfills.
    pub fn checkpoint_into(
        &self,
        ws: &mut ValueFnWorkspace,
        caps: &[f64],
        chk: &mut ValueCheckpoint,
    ) -> f64 {
        ws.stats.probes += 1;
        self.anchor(ws, caps, chk)
    }

    /// [`NaiveSolver::checkpoint_into`] without the probe count.
    pub(crate) fn anchor(
        &self,
        ws: &mut ValueFnWorkspace,
        caps: &[f64],
        chk: &mut ValueCheckpoint,
    ) -> f64 {
        let n = self.deadlines.len();
        let m = self.speeds.len();
        debug_assert_eq!(caps.len(), m, "profile/machine count mismatch");
        chk.valid = false;

        // The raw (unguarded) sums are kept beside the guarded ones: a
        // Δ-probe updates those and re-applies the running-max guard (a
        // floating-point non-monotonicity fix Algorithm 1 needs) itself.
        ws.cap_index.clear();
        ws.cap_index.extend(0..m);
        ws.cap_index
            .sort_unstable_by(|&a, &b| caps[a].total_cmp(&caps[b]));
        ws.cap_sorted.clear();
        ws.cap_sorted.extend(ws.cap_index.iter().map(|&r| caps[r]));
        ws.speed_suffix.clear();
        ws.speed_suffix.resize(m + 1, 0.0);
        for k in (0..m).rev() {
            ws.speed_suffix[k] = ws.speed_suffix[k + 1] + self.speeds[ws.cap_index[k]];
        }
        ws.capwork_prefix.clear();
        ws.capwork_prefix.resize(m + 1, 0.0);
        for k in 0..m {
            ws.capwork_prefix[k + 1] =
                ws.capwork_prefix[k] + ws.cap_sorted[k] * self.speeds[ws.cap_index[k]];
        }

        chk.caps.clear();
        chk.caps.extend_from_slice(caps);
        chk.td_raw.clear();
        chk.td.clear();
        chk.buckets.clear();
        let mut k = 0usize;
        let mut prev = 0.0f64;
        for j in 0..n {
            let d_j = self.deadlines[j];
            while k < m && ws.cap_sorted[k] <= d_j {
                k += 1;
            }
            let raw = ws.capwork_prefix[k] + d_j * ws.speed_suffix[k];
            let guarded = if raw < prev { prev } else { raw };
            chk.td_raw.push(raw);
            chk.td.push(guarded);
            chk.buckets.push(guarded - prev);
            prev = guarded;
        }

        ws.buckets.load(&chk.buckets, &[]);
        chk.bit_words.clear();
        chk.bit_words.extend_from_slice(ws.buckets.bits_words());
        chk.work.clear();
        chk.work.resize(n, 0.0);
        let gain = accuracy_gain_buckets_lanes::<true>(&self.lanes, &mut ws.buckets, &mut chk.work);
        chk.value = self.base_accuracy + gain;
        chk.valid = true;
        chk.value
    }

    /// Incremental Δ-probe: `V(p′)` where `p′` equals the checkpoint's
    /// incumbent except for the `(machine, new_cap)` entries in `changed`
    /// (≤ 3 of them — a transfer direction). Returns `None` when the
    /// checkpoint cannot answer (no incumbent recorded, shape mismatch,
    /// too many coordinates, a machine out of range, a non-finite cap).
    ///
    /// Only tasks whose deadline exceeds the smallest touched cap can see
    /// a different deadline-capped capacity (`min(p_r, d_j)` is unchanged
    /// for `d_j` below both the old and new cap), so the temporary
    /// deadlines and buckets are recomputed for that suffix alone, the
    /// untouched prefix is reused bit-for-bit from the checkpoint, and the
    /// greedy reruns on the capacity buckets.
    pub fn value_delta(
        &self,
        ws: &mut ValueFnWorkspace,
        chk: &ValueCheckpoint,
        changed: &[(usize, f64)],
    ) -> Option<f64> {
        let n = self.deadlines.len();
        let m = self.speeds.len();
        if !chk.valid || chk.caps.len() != m || changed.len() > 3 {
            return None;
        }
        // Smallest cap value involved in the delta: tasks with deadlines
        // at or below it keep their exact temporary deadline.
        let mut lo = f64::INFINITY;
        let mut ch = [(0.0f64, 0.0f64, 0.0f64); 3];
        for (k, &(r, new_cap)) in changed.iter().enumerate() {
            if r >= m || !new_cap.is_finite() {
                return None;
            }
            lo = lo.min(new_cap.min(chk.caps[r]));
            ch[k] = (self.speeds[r], new_cap, chk.caps[r]);
        }
        ws.stats.probes += 1;
        ws.stats.incremental_probes += 1;
        let a = self.deadlines.partition_point(|&d| d <= lo);
        if a == n || changed.is_empty() {
            return Some(chk.value); // the delta is invisible to every task
        }

        // Elementwise suffix adjustment (SIMD-friendly, no loop
        // dependency), then the sequential running-max guard converts the
        // adjusted raws to bucket widths in place.
        kernels::delta_raw_into(
            &mut ws.delta_buckets,
            &chk.td_raw[a..],
            &self.deadlines[a..],
            &ch[..changed.len()],
        );
        let mut prev = if a == 0 { 0.0 } else { chk.td[a - 1] };
        for slot in ws.delta_buckets.iter_mut() {
            let raw = *slot;
            let guarded = if raw < prev { prev } else { raw };
            *slot = guarded - prev;
            prev = guarded;
        }

        ws.buckets
            .load_with_prefix(&chk.buckets[..a], &chk.bit_words, &ws.delta_buckets);
        let gain = accuracy_gain_buckets_lanes::<false>(&self.lanes, &mut ws.buckets, &mut []);
        Some(self.base_accuracy + gain)
    }

    /// Prices the checkpoint's incumbent: [`NaiveSolver::price_work_into`]
    /// on the per-task work its greedy recorded as it ran
    /// ([`ValueCheckpoint::work`]), so pricing walks no lane a second
    /// time. Builds with `debug_assertions` hold the recorded work to a
    /// fresh walk ([`NaiveSolver::walk_work_into`]) bit for bit. `O(n +
    /// segments)`; allocates nothing on a warm workspace and counts no
    /// probe.
    pub fn price_blocks_into(
        &self,
        ws: &mut ValueFnWorkspace,
        chk: &ValueCheckpoint,
        out: &mut PriceBlocks,
    ) {
        #[cfg(debug_assertions)]
        if chk.valid && chk.work.len() == self.deadlines.len() {
            let mut walked = ws.arena.take_f64();
            self.walk_work_into(ws, chk, &mut walked);
            assert!(
                walked
                    .iter()
                    .map(|w| w.to_bits())
                    .eq(chk.work.iter().map(|w| w.to_bits())),
                "recorded takes differ from a fresh walk's"
            );
            ws.arena.put_f64(walked);
        }
        self.price_work_into(ws, chk, &chk.work, out);
    }

    /// The bucket greedy's per-task work at the checkpoint's caps, by a
    /// fresh walk through `BucketSlack::consume` into `work` (one entry
    /// per task): what [`NaiveSolver::checkpoint_into`] records as its
    /// greedy runs, derived the long way. Counts no probe.
    pub fn walk_work_into(
        &self,
        ws: &mut ValueFnWorkspace,
        chk: &ValueCheckpoint,
        work: &mut Vec<f64>,
    ) {
        work.clear();
        work.resize(self.deadlines.len(), 0.0);
        ws.buckets
            .load_with_prefix(&chk.buckets, &chk.bit_words, &[]);
        for i in 0..self.lanes.len() {
            if ws.buckets.exhausted() {
                break;
            }
            let j = self.lanes.task[i] as usize;
            work[j] += ws.buckets.consume(j, self.lanes.width[i]);
        }
    }

    /// Builds the [`PriceBlocks`] that certify `work` (per-task GFLOP, EDF
    /// order) as an optimum of Algorithm 2's inner LP at the checkpoint's
    /// caps. A work vector that is not one — or a checkpoint of another
    /// shape — yields an uncertifiable set.
    ///
    /// One pass over the slope-ordered lanes places each task on its curve
    /// (the slope of the last segment it filled, of the first it left);
    /// one pass over the tasks accumulates prefix slack against the
    /// checkpointed capacities, closes a block at every tight prefix and
    /// tightens the upper ends; a backward scan tightens the lower ends.
    /// Tolerances: a segment is full, or untouched, within
    /// `1e-12·max(f_j, 1)` GFLOP and a prefix is tight within
    /// `1e-12·max(C_j, 1)`; what each such call can cost is added to
    /// [`PriceBlocks::slop`] (`slope·shortfall`, `(left − right
    /// slope)·excess`, `price·slack`).
    pub fn price_work_into(
        &self,
        ws: &mut ValueFnWorkspace,
        chk: &ValueCheckpoint,
        work: &[f64],
        out: &mut PriceBlocks,
    ) {
        const TOL: f64 = 1e-12;
        let n = self.deadlines.len();
        out.reset();
        if !chk.valid || chk.td.len() != n || work.len() != n {
            return;
        }
        // No price above the steepest slope is ever needed: capping the
        // upper ends there keeps every box finite (a task with no work has
        // no left slope) and only shrinks the set the bound minimises over.
        let steepest = self.lanes.slope.first().copied().unwrap_or(0.0);
        let mut slop = 0.0f64;

        // Per task: work not yet attributed to a segment, the slope of the
        // first segment left untouched (negative until seen; 0 stands for a
        // task that filled them all) and of the last one filled.
        let mut rest = ws.arena.take_f64();
        let mut right = ws.arena.take_f64();
        let mut left = ws.arena.take_f64();
        rest.extend_from_slice(work);
        right.resize(n, -1.0);
        left.resize(n, steepest);
        for i in 0..self.lanes.len() {
            let j = self.lanes.task[i] as usize;
            if right[j] >= 0.0 {
                continue; // behind the task's marginal segment
            }
            let (width, slope) = (self.lanes.width[i], self.lanes.slope[i]);
            let tol = TOL * work[j].max(1.0);
            let r = rest[j];
            if r >= width - tol {
                slop += slope * (width - r).max(0.0);
                rest[j] = (r - width).max(0.0);
                left[j] = slope;
            } else if r <= tol {
                slop += (left[j] - slope) * r.max(0.0);
                right[j] = slope;
            } else {
                rest[j] = 0.0;
                left[j] = slope;
                right[j] = slope;
            }
        }

        let mut certifiable = true;
        let (mut prefix, mut block_lo, mut block_hi) = (0.0f64, 0.0f64, steepest);
        let mut chain_hi = steepest;
        for j in 0..n {
            prefix += work[j];
            block_lo = block_lo.max(right[j]);
            block_hi = block_hi.min(left[j]);
            let slack = chk.td[j] - prefix;
            let tol = TOL * chk.td[j].max(1.0);
            if slack < -tol || rest[j] > TOL * work[j].max(1.0) {
                certifiable = false; // more work than capacity, or than curve
                break;
            }
            if slack <= tol {
                chain_hi = chain_hi.min(block_hi);
                slop += chain_hi * slack.max(0.0);
                out.deadline.push(self.deadlines[j]);
                out.lo.push(block_lo);
                out.hi.push(chain_hi);
                (block_lo, block_hi) = (0.0, steepest);
            }
        }
        ws.arena.put_f64(rest);
        ws.arena.put_f64(right);
        ws.arena.put_f64(left);
        // Tasks behind the last tight prefix are priced 0: all must be full.
        certifiable &= block_lo <= 0.0;
        let mut chain_lo = 0.0f64;
        for k in (0..out.lo.len()).rev() {
            chain_lo = chain_lo.max(out.lo[k]);
            out.lo[k] = chain_lo;
            certifiable &= chain_lo <= out.hi[k];
        }
        out.slop = slop;
        out.certifiable = certifiable && slop.is_finite();
    }

    /// Algorithm 2's steps 2–3 under `profile`: a checkpoint anchored at
    /// its caps (drawn from the workspace's arena; it counts no probe),
    /// then `NaiveSolver::solution_at` on it.
    pub fn solution_under(
        &self,
        ws: &mut ValueFnWorkspace,
        profile: &EnergyProfile,
    ) -> NaiveSolution {
        assert_eq!(
            profile.len(),
            self.speeds.len(),
            "profile/machine count mismatch"
        );
        let mut chk = ValueCheckpoint::new_in(&mut ws.arena);
        self.anchor(ws, profile.caps(), &mut chk);
        let solution = self.solution_at(ws, &chk);
        chk.recycle(&mut ws.arena);
        solution
    }

    /// Algorithm 2's step 3 at a valid checkpoint: the work its greedy
    /// recorded ([`ValueCheckpoint::work`]), distributed onto the machines
    /// by equal time increments across the active set, each machine
    /// capped at `min(p_r, d_j)` of the checkpoint's caps. The one
    /// waterfill: every solve materializes its schedules here, on the
    /// evaluator it searched with, and runs no greedy to do it.
    ///
    /// A task's work is distributed down to `max(EPS_FLOPS, 1e-12·f_j)`
    /// GFLOP. Every round either fits the remaining work or saturates a
    /// machine, so a task takes at most `m + 1` rounds.
    pub(crate) fn solution_at(
        &self,
        ws: &mut ValueFnWorkspace,
        chk: &ValueCheckpoint,
    ) -> NaiveSolution {
        let n = self.deadlines.len();
        let m = self.speeds.len();
        assert!(
            chk.valid && chk.caps.len() == m && chk.work.len() == n,
            "solution_at needs a valid checkpoint of this instance"
        );
        let flops = chk.work.clone(); // unit speed: time == work
        let speeds = &self.speeds;
        let mut schedule = FractionalSchedule::zero(n, m);
        let mut load = ws.arena.take_f64();
        load.resize(m, 0.0);
        let mut caps = ws.arena.take_f64();
        caps.resize(m, 0.0);
        let mut act = ws.arena.take_usize();
        for j in 0..n {
            let d_j = self.deadlines[j];
            let mut w = flops[j];
            let eps_work = crate::EPS_FLOPS.max(1e-12 * flops[j]);
            for (c, &p) in caps.iter_mut().zip(&chk.caps) {
                *c = p.min(d_j);
            }
            while w > eps_work {
                act.clear();
                act.extend((0..m).filter(|&r| load[r] + EPS_TIME < caps[r]));
                if act.is_empty() {
                    // Unreachable for the checkpoint's capacity-consistent
                    // takes; guard against accumulated rounding.
                    debug_assert!(
                        w <= 1e3 * eps_work + 1e-9 * flops[j],
                        "undistributable work {w} GFLOP for task {j}"
                    );
                    break;
                }
                let total_speed: f64 = act.iter().map(|&r| speeds[r]).sum();
                let delta = w / total_speed;
                let step_min = act
                    .iter()
                    .map(|&r| caps[r] - load[r])
                    .fold(f64::INFINITY, f64::min);
                let step = delta.min(step_min);
                for &r in act.iter() {
                    *schedule.t_mut(j, r) += step;
                    load[r] += step;
                    w -= speeds[r] * step;
                }
                if step >= delta {
                    break; // the whole remaining work fit in this round
                }
            }
        }
        ws.arena.put_f64(load);
        ws.arena.put_f64(caps);
        ws.arena.put_usize(act);
        NaiveSolution { schedule, flops }
    }
}

/// Runs Algorithm 2 under the given energy profile: a fresh
/// [`NaiveSolver`] and its [`NaiveSolver::solution_under`].
pub fn compute_naive_solution(inst: &Instance, profile: &EnergyProfile) -> NaiveSolution {
    let solver = NaiveSolver::new(inst);
    solver.solution_under(&mut solver.workspace(), profile)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_single::{accuracy_of, schedule_single_machine, SingleMachineSolution};
    use crate::problem::Task;
    use crate::profile::naive_profile;
    use crate::schedule::ScheduleKind;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    /// The reference walk: temporary deadlines → Algorithm 1 on the slack
    /// tree over the AoS segment list, and that list.
    fn reference_walk(inst: &Instance, caps: &[f64]) -> (Vec<SegmentSpec>, SingleMachineSolution) {
        let deadlines: Vec<f64> = inst.tasks().iter().map(|t| t.deadline).collect();
        let speeds: Vec<f64> = inst
            .machines()
            .machines()
            .iter()
            .map(|r| r.speed())
            .collect();
        let mut temp_deadlines = Vec::new();
        crate::profile::temp_deadlines_into(&deadlines, &speeds, caps, &mut temp_deadlines);
        let segments = collect_segments(inst);
        let single = schedule_single_machine(&temp_deadlines, 1.0, &segments);
        (segments, single)
    }

    /// `V(caps)` the way a schedule is materialized: the reference walk →
    /// accuracy of the work it used.
    fn reference_value(inst: &Instance, caps: &[f64]) -> f64 {
        let (segments, single) = reference_walk(inst, caps);
        accuracy_of(&segments, &single.used_flops, inst.total_min_accuracy())
    }

    fn acc(slope_flops: &[(f64, f64)]) -> PwlAccuracy {
        // Build from (slope, width) pairs starting at (0, 0).
        let mut pts = vec![(0.0, 0.0)];
        let (mut f, mut a) = (0.0, 0.0);
        for &(slope, width) in slope_flops {
            f += width;
            a += slope * width;
            pts.push((f, a));
        }
        PwlAccuracy::new(&pts).unwrap()
    }

    #[test]
    fn single_machine_park_reduces_to_algorithm_1() {
        // One machine, ample budget: result must match Algorithm 1 on it.
        let park = MachinePark::new(vec![Machine::from_efficiency(2.0, 1.0).unwrap()]);
        let tasks = vec![
            Task::new(1.0, acc(&[(0.3, 1.0), (0.1, 1.0)])),
            Task::new(2.0, acc(&[(0.2, 2.0)])),
        ];
        let inst = Instance::new(tasks, park, 1e9).unwrap();
        let profile = naive_profile(&inst);
        let sol = compute_naive_solution(&inst, &profile);
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        // Machine speed 2 GFLOP/s, horizon 2 s ⇒ 4 GFLOP total capacity,
        // enough for everything (2 + 2 GFLOP).
        assert!((sol.flops[0] - 2.0).abs() < 1e-9);
        assert!((sol.flops[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn budget_constrains_through_profile() {
        // One machine, 1 GFLOP/s, power 1 W, budget 1 J ⇒ profile 1 s ⇒ at
        // most 1 GFLOP of work despite a 10 s deadline.
        let park = MachinePark::new(vec![Machine::new(1.0, 1.0).unwrap()]);
        let tasks = vec![Task::new(10.0, acc(&[(0.5, 5.0)]))];
        let inst = Instance::new(tasks, park, 1.0).unwrap();
        let profile = naive_profile(&inst);
        let sol = compute_naive_solution(&inst, &profile);
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        assert!((sol.flops[0] - 1.0).abs() < 1e-9);
        assert!((sol.schedule.energy(&inst) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn distribution_respects_deadlines_on_fast_machine() {
        // Two machines (1 and 3 GFLOP/s, equal efficiency). Task 0 has a
        // very tight deadline; its work must not be placed beyond d_0 on
        // either machine.
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1.0, 10.0).unwrap(),
            Machine::from_efficiency(3.0, 10.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.5, acc(&[(0.9, 2.0)])),
            Task::new(4.0, acc(&[(0.1, 8.0)])),
        ];
        let inst = Instance::new(tasks, park, 1e9).unwrap();
        let profile = naive_profile(&inst);
        let sol = compute_naive_solution(&inst, &profile);
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        // Capacity by d_0 = 0.5·(1+3) = 2 GFLOP: task 0 fully processed.
        assert!((sol.flops[0] - 2.0).abs() < 1e-9);
        // Its time on each machine is at most 0.5 s.
        assert!(sol.schedule.t(0, 0) <= 0.5 + 1e-9);
        assert!(sol.schedule.t(0, 1) <= 0.5 + 1e-9);
    }

    #[test]
    fn cached_value_matches_cold_value() {
        use rand::{Rng, SeedableRng};
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2.0, 5.0).unwrap(),
            Machine::from_efficiency(4.0, 8.0).unwrap(),
            Machine::from_efficiency(1.0, 12.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(1.0, acc(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(2.0, acc(&[(0.3, 4.0)])),
            Task::new(2.5, acc(&[(0.6, 1.0), (0.25, 2.0)])),
            Task::new(3.0, acc(&[(0.5, 2.0), (0.1, 6.0)])),
        ];
        let inst = Instance::new(tasks, park, 10.0).unwrap();
        let solver = NaiveSolver::new(&inst);
        let mut ws = solver.workspace();
        let mut chk = ValueCheckpoint::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(41);
        for _ in 0..200 {
            let caps: Vec<f64> = (0..3).map(|_| rng.gen_range(0.0..3.5)).collect();
            let cold = reference_value(&inst, &caps);
            let cached = solver.checkpoint_into(&mut ws, &caps, &mut chk);
            assert!(
                (cold - cached).abs() <= 1e-9 * (1.0 + cold.abs()),
                "caps {caps:?}: cold {cold} vs cached {cached}"
            );
        }
        assert_eq!(ws.stats.probes, 200);
        assert_eq!(ws.stats.incremental_probes, 0);
    }

    /// Δ-probes through a checkpoint agree with full evaluations of the
    /// perturbed profile, for sparse deltas of arbitrary magnitude
    /// (including caps crossing deadlines and dropping to zero), and the
    /// checkpoint itself survives any number of probes (exact rollback).
    #[test]
    fn delta_probe_matches_full_evaluation() {
        use rand::{Rng, SeedableRng};
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2.0, 5.0).unwrap(),
            Machine::from_efficiency(4.0, 8.0).unwrap(),
            Machine::from_efficiency(1.0, 12.0).unwrap(),
            Machine::from_efficiency(3.0, 6.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(1.0, acc(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(2.0, acc(&[(0.3, 4.0)])),
            Task::new(2.5, acc(&[(0.6, 1.0), (0.25, 2.0)])),
            Task::new(3.0, acc(&[(0.5, 2.0), (0.1, 6.0)])),
            Task::new(3.5, acc(&[(0.7, 1.5), (0.05, 4.0)])),
        ];
        let inst = Instance::new(tasks, park, 10.0).unwrap();
        let solver = NaiveSolver::new(&inst);
        let mut ws = solver.workspace();
        let mut chk = ValueCheckpoint::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2024);
        for _ in 0..50 {
            let caps: Vec<f64> = (0..4).map(|_| rng.gen_range(0.0..4.0)).collect();
            let anchored = solver.checkpoint_into(&mut ws, &caps, &mut chk);
            let full_here = reference_value(&inst, &caps);
            assert!(
                (anchored - full_here).abs() <= 1e-9 * (1.0 + full_here.abs()),
                "checkpoint value {anchored} vs reference {full_here}"
            );
            for _ in 0..20 {
                let touched = rng.gen_range(1..=3usize);
                let mut changed: Vec<(usize, f64)> = Vec::new();
                let mut probed = caps.clone();
                for _ in 0..touched {
                    let r = rng.gen_range(0..4);
                    if changed.iter().any(|&(cr, _)| cr == r) {
                        continue;
                    }
                    let new_cap = if rng.gen_bool(0.15) {
                        0.0
                    } else {
                        rng.gen_range(0.0..4.0)
                    };
                    changed.push((r, new_cap));
                    probed[r] = new_cap;
                }
                let inc = solver
                    .value_delta(&mut ws, &chk, &changed)
                    .expect("≤3 finite coords must be delta-eligible");
                let full = reference_value(&inst, &probed);
                assert!(
                    (inc - full).abs() <= 1e-9 * (1.0 + full.abs()),
                    "caps {caps:?} changed {changed:?}: incremental {inc} vs full {full}"
                );
            }
            // Probing never invalidates the incumbent.
            let again = solver
                .value_delta(&mut ws, &chk, &[])
                .expect("empty delta stays valid");
            assert_eq!(
                again.to_bits(),
                anchored.to_bits(),
                "rollback must be exact"
            );
        }
        assert!(ws.stats.incremental_probes >= 1000);
        // Deltas the checkpoint cannot answer are refused, never guessed.
        assert!(solver
            .value_delta(&mut ws, &chk, &[(0, 1.0), (1, 1.0), (2, 1.0), (3, 1.0)])
            .is_none());
        assert!(solver.value_delta(&mut ws, &chk, &[(99, 1.0)]).is_none());
        assert!(solver
            .value_delta(&mut ws, &chk, &[(0, f64::NAN)])
            .is_none());
        assert!(solver
            .value_delta(&mut ws, &ValueCheckpoint::new(), &[(0, 1.0)])
            .is_none());
    }

    /// [`PriceBlocks::gain_bound`] is the minimum of its linear form over
    /// the chain-ordered boxes: no feasible price vector undercuts it, and
    /// one of them attains it — checked against random tightened boxes
    /// (both ends non-increasing) and random feasible vectors, with caps
    /// placed on, between and beyond the block deadlines.
    #[test]
    fn gain_bound_is_the_minimum_over_the_price_chain() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(606);
        for trial in 0..300 {
            let blocks = rng.gen_range(1..6usize);
            let mut lo: Vec<f64> = (0..blocks).map(|_| rng.gen_range(0.0..1.0)).collect();
            lo.sort_by(|a, b| b.total_cmp(a));
            let mut hi: Vec<f64> = lo
                .iter()
                .map(|&l| {
                    if rng.gen_bool(0.3) {
                        l
                    } else {
                        l + rng.gen_range(0.0..1.0)
                    }
                })
                .collect();
            for k in 1..blocks {
                hi[k] = hi[k].min(hi[k - 1]);
            }
            let prices = PriceBlocks {
                deadline: (1..=blocks).map(|k| k as f64).collect(),
                lo: lo.clone(),
                hi: hi.clone(),
                slop: 0.0,
                certifiable: true,
            };
            let moves: Vec<(f64, f64)> = (0..rng.gen_range(1..=3))
                .map(|_| {
                    let cap = match rng.gen_range(0..3) {
                        0 => rng.gen_range(0..=blocks + 1) as f64,
                        _ => rng.gen_range(0.0..blocks as f64 + 1.0),
                    };
                    (cap, rng.gen_range(-2.0..2.0))
                })
                .collect();
            let bound = prices.gain_bound(&moves);
            // The block each move is priced at, by the rule of the docs.
            let block_of = |&(cap, work): &(f64, f64)| {
                (0..blocks).find(|&k| {
                    let d = (k + 1) as f64;
                    if work > 0.0 {
                        d > cap
                    } else {
                        d >= cap
                    }
                })
            };
            let form = |y: &[f64]| -> f64 {
                moves
                    .iter()
                    .map(|mv| block_of(mv).map_or(0.0, |k| mv.1 * y[k]))
                    .sum()
            };
            let mut attained = false;
            for sample in 0..400 {
                // A feasible chain: walk down from the top, each price
                // drawn from its box clipped by its predecessor.
                let mut y = vec![0.0f64; blocks];
                let mut above = f64::INFINITY;
                for k in 0..blocks {
                    let top = hi[k].min(above);
                    y[k] = match (sample + k) % 3 {
                        0 => lo[k],
                        1 => top,
                        _ => rng.gen_range(lo[k]..=top),
                    };
                    above = y[k];
                }
                let value = form(&y);
                assert!(
                    value >= bound - 1e-12,
                    "trial {trial}: feasible {y:?} gives {value}, bound {bound}"
                );
                attained |= (value - bound).abs() <= 1e-12;
            }
            // Every vertex has its coordinates among the box ends.
            let ends: Vec<f64> = lo.iter().chain(&hi).copied().collect();
            let mut y = vec![0.0f64; blocks];
            let mut idx = vec![0usize; blocks];
            'vertices: loop {
                for k in 0..blocks {
                    y[k] = ends[idx[k]];
                }
                let feasible = (0..blocks)
                    .all(|k| lo[k] <= y[k] && y[k] <= hi[k] && (k == 0 || y[k] <= y[k - 1]));
                if feasible {
                    let value = form(&y);
                    assert!(value >= bound - 1e-12, "trial {trial}: vertex {y:?}");
                    attained |= (value - bound).abs() <= 1e-12;
                }
                for k in 0..blocks {
                    idx[k] += 1;
                    if idx[k] < ends.len() {
                        continue 'vertices;
                    }
                    idx[k] = 0;
                }
                break;
            }
            assert!(attained, "trial {trial}: bound {bound} attained nowhere");
        }
    }

    /// The schedule [`compute_naive_solution`] materializes carries its
    /// checkpoint's recorded takes bit for bit, at the naive profile and
    /// at random ones, and those are the reference walk's per-task times
    /// up to the buckets' rounding (DESIGN.md §9).
    #[test]
    fn flops_under_matches_compute_naive_solution() {
        use rand::{Rng, SeedableRng};
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2.0, 5.0).unwrap(),
            Machine::from_efficiency(4.0, 8.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(1.0, acc(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(2.0, acc(&[(0.3, 4.0)])),
            Task::new(3.0, acc(&[(0.5, 2.0), (0.1, 6.0), (0.0, 1.0)])),
        ];
        let inst = Instance::new(tasks, park, 6.0).unwrap();
        let solver = NaiveSolver::new(&inst);
        let mut ws = solver.workspace();
        let mut chk = ValueCheckpoint::new();
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1476);
        let mut profiles = vec![naive_profile(&inst)];
        profiles.extend(
            (0..50).map(|_| EnergyProfile::new((0..2).map(|_| rng.gen_range(0.0..3.5)).collect())),
        );
        for profile in &profiles {
            solver.checkpoint_into(&mut ws, profile.caps(), &mut chk);
            let (_, reference) = reference_walk(&inst, profile.caps());
            let full = compute_naive_solution(&inst, profile);
            let total: f64 = reference.times.iter().sum();
            assert_eq!(full.flops.len(), reference.times.len());
            for (j, &want) in reference.times.iter().enumerate() {
                assert_eq!(full.flops[j].to_bits(), chk.work()[j].to_bits(), "task {j}");
                assert!(
                    (full.flops[j] - want).abs() <= 1e-9 * (1.0 + total),
                    "task {j}: takes {} vs reference {want}",
                    full.flops[j]
                );
            }
        }
    }

    #[test]
    fn work_conservation() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2.0, 5.0).unwrap(),
            Machine::from_efficiency(4.0, 8.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(1.0, acc(&[(0.4, 3.0), (0.2, 3.0)])),
            Task::new(2.0, acc(&[(0.3, 4.0)])),
            Task::new(3.0, acc(&[(0.5, 2.0), (0.1, 6.0)])),
        ];
        let inst = Instance::new(tasks, park, 3.0).unwrap();
        let profile = naive_profile(&inst);
        let sol = compute_naive_solution(&inst, &profile);
        sol.schedule
            .validate(&inst, ScheduleKind::Fractional)
            .unwrap();
        for j in 0..3 {
            assert!(
                (sol.schedule.flops(j, &inst) - sol.flops[j]).abs() < 1e-6,
                "task {j}: schedule says {}, algo1 said {}",
                sol.schedule.flops(j, &inst),
                sol.flops[j]
            );
        }
        // Profile energy bound implies budget feasibility.
        assert!(sol.schedule.energy(&inst) <= inst.budget() + 1e-6);
    }
}
