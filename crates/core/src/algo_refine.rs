//! Algorithm 3 of the paper: `RefineProfile`.
//!
//! Starting from the optimal solution for the naive energy profile, the
//! refinement repeatedly moves energy from the (segment, machine) pair with
//! the lowest *accuracy-per-Joule* `ψ = slope · E_r` to the pair with the
//! highest one, until no improving transfer exists — at which point the KKT
//! conditions of §3.2 hold (comparable energy marginal gains; higher gains
//! only on machines whose profile cannot be extended).
//!
//! Deviations from the paper's listing, per DESIGN.md §3:
//! - transfers are selected by the ψ comparison alone (the listing's
//!   `r > r'` guard contradicts the paper's own Fig. 6b);
//! - the room to grow a task on a machine honours the prefix deadlines of
//!   **all** later tasks on that machine, not only the task's own deadline;
//! - unspent budget acts as a zero-cost source (`ψ = 0`), needed when the
//!   naive profile could not spend the whole budget because deadlines bind;
//! - the pass repeats until convergence, as the prose (but not the
//!   listing) prescribes;
//! - segment bookkeeping is implicit: each task's work total `f_j`
//!   determines its frontier segment through the accuracy function, which
//!   is equivalent to explicit `usedFlops` tracking (work always fills a
//!   concave function's segments in slope order) and immune to the
//!   listing's sign typo on line 16.
//!
//! The listing picks each transfer by sweeping every `(j, r)` pair twice;
//! this pass makes the sweep's picks without it (DESIGN.md §3). A transfer
//! moves the work of at most two tasks on at most two machines, so the
//! pass keeps, and re-derives only where a transfer reaches:
//! - each task's frontier — the slope and room of its next segment to
//!   grow and of its last segment to shrink — a function of `f_j` alone;
//! - each machine's completion prefix, recomputed from the moved task up,
//!   and its deadline slack, a suffix minimum swept down to the first task
//!   without slack: slack never decreases in `j`, so machine `r` can grow
//!   exactly the tasks `J_r..n`;
//! - max trees over the tasks' grow slopes and, per machine, over the
//!   negated shrink slopes of the tasks that can source a transfer there.
//!
//! The sweep keeps the first pair in `(j, r)` order with the best `ψ`,
//! and rounding can give distinct slopes one `ψ`, so per machine the pass
//! takes the best `ψ` from the tree and then the leftmost task whose
//! rounded `ψ` reaches it. Builds with
//! `debug_assertions` hold every pick, kept slack row and cached frontier
//! to the sweep over freshly derived ones.

use crate::problem::Instance;
use crate::schedule::FractionalSchedule;
use crate::soa::ScratchArena;
use dsct_accuracy::PwlAccuracy;

/// Statistics of a refinement run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RefineOutcome {
    /// Energy-transfer iterations performed.
    pub iterations: usize,
    /// Total accuracy gained by the refinement.
    pub accuracy_gain: f64,
    /// Whether the pass converged (false: iteration cap hit).
    pub converged: bool,
}

/// Work-axis snapping tolerance relative to the magnitudes involved.
fn snap_tol(acc: &PwlAccuracy) -> f64 {
    1e-9 * (1.0 + acc.f_max())
}

/// Marginal-gain info for growing a task at work level `f`: the slope of
/// the first growable segment and the work room until its end, skipping
/// slivers thinner than the snap tolerance.
fn grow_info(acc: &PwlAccuracy, f: f64) -> Option<(f64, f64)> {
    let tol = snap_tol(acc);
    if f >= acc.f_max() - tol {
        return None;
    }
    let bps = acc.breakpoints();
    let slopes = acc.slopes();
    let mut k = acc.segment_index(f.max(0.0));
    while k < slopes.len() && bps[k + 1] - f <= tol {
        k += 1;
    }
    if k >= slopes.len() || slopes[k] <= 0.0 {
        return None;
    }
    Some((slopes[k], bps[k + 1] - f))
}

/// Marginal-loss info for shrinking a task at work level `f`: the slope of
/// the last filled segment and the work that can be drained from it.
fn shrink_info(acc: &PwlAccuracy, f: f64) -> Option<(f64, f64)> {
    let tol = snap_tol(acc);
    if f <= tol {
        return None;
    }
    let bps = acc.breakpoints();
    let slopes = acc.slopes();
    let mut k = acc.segment_index(f.min(acc.f_max()));
    while k > 0 && f - bps[k] <= tol {
        k -= 1;
    }
    Some((slopes[k], f - bps[k]))
}

/// Per-machine deadline slack: `slack_r[j] = min_{i ≥ j} (d_i − Σ_{k≤i} t_kr)`
/// — the time by which task `j`'s processing on machine `r` can grow
/// without violating any (later) deadline. `out` first holds the
/// completion-time prefix, then is transformed in place into the suffix
/// minimum. The pass keeps these rows incrementally
/// ([`Pass::refresh_slack`]); this from-scratch form is what builds with
/// `debug_assertions` and the tests hold them to.
#[cfg(any(test, debug_assertions))]
fn deadline_slack(inst: &Instance, schedule: &FractionalSchedule, r: usize, out: &mut [f64]) {
    let n = inst.num_tasks();
    let mut prefix = 0.0;
    for j in 0..n {
        prefix += schedule.t(j, r);
        out[j] = prefix;
    }
    let mut suffix_min = f64::INFINITY;
    for j in (0..n).rev() {
        suffix_min = suffix_min.min(inst.task(j).deadline - out[j]);
        out[j] = suffix_min;
    }
}

/// Max tournament trees over per-task keys, each a `2·size` node slice
/// (`size` a power of two `≥ n`): leaves at `[size, size + n)`, padding
/// and absent keys at −∞, every inner node the larger of its children.
/// A node's key answers for its whole subtree under any predicate
/// monotone in the key — which is what lets a descent find the leftmost
/// task whose *rounded* `ψ = key · E_r` reaches a target, since
/// `x ↦ fl(x · E_r)` never decreases for `E_r > 0`.
mod tree {
    /// Sets leaf `i` to `key` and re-derives its ancestors.
    pub(super) fn set(t: &mut [f64], i: usize, key: f64) {
        let mut k = t.len() / 2 + i;
        t[k] = key;
        while k > 1 {
            k /= 2;
            t[k] = t[2 * k].max(t[2 * k + 1]);
        }
    }

    /// Derives every inner node from the leaves.
    pub(super) fn build(t: &mut [f64]) {
        for k in (1..t.len() / 2).rev() {
            t[k] = t[2 * k].max(t[2 * k + 1]);
        }
    }

    /// The largest key among the leaves `lo..`: the right end of the range
    /// is the end of every level, so only its left edge needs tracking.
    pub(super) fn max_from(t: &[f64], lo: usize) -> f64 {
        let size = t.len() / 2;
        let (mut l, mut end) = (size + lo, 2 * size);
        let mut best = f64::NEG_INFINITY;
        while l < end {
            if l & 1 == 1 {
                best = best.max(t[l]);
                l += 1;
            }
            l /= 2;
            end /= 2;
        }
        best
    }

    /// The leftmost leaf `≥ lo` whose key `accepts` (a predicate monotone
    /// in the key), if any.
    pub(super) fn first_from(t: &[f64], lo: usize, accepts: impl Fn(f64) -> bool) -> Option<usize> {
        let size = t.len() / 2;
        let mut k = size + lo;
        loop {
            if accepts(t[k]) {
                while k < size {
                    k *= 2;
                    if !accepts(t[k]) {
                        k += 1;
                    }
                }
                return Some(k - size);
            }
            // On to the next subtree right of `k`: climb out of right
            // children; past the root's there is none.
            while k & 1 == 1 {
                k /= 2;
            }
            if k == 0 {
                return None;
            }
            k += 1;
        }
    }
}

/// The pass's working state, every buffer drawn from a [`ScratchArena`].
struct Pass {
    n: usize,
    /// Nodes per selection tree.
    nodes: usize,
    /// Machine efficiencies `E_r` and powers by index.
    eff: Vec<f64>,
    power: Vec<f64>,
    /// Task deadlines.
    deadline: Vec<f64>,
    /// `prefix[r·n + j] = Σ_{k≤j} t_kr`, machine `r`'s completion times.
    prefix: Vec<f64>,
    /// `slack[r·n + j]`, machine `r`'s deadline slack, current from
    /// `start[r]` on; entries below it are stale and never read.
    slack: Vec<f64>,
    /// The first task with slack (`> EPS_TIME`) on each machine. Slack is
    /// a suffix minimum, so it never decreases in `j`: machine `r` can
    /// grow exactly the tasks `start[r]..n`.
    start: Vec<usize>,
    /// Each task's frontiers as `(slope, room)` lanes; a room of 0 stands
    /// for no frontier (a real one's room exceeds the snap tolerance).
    grow_slope: Vec<f64>,
    grow_room: Vec<f64>,
    shrink_slope: Vec<f64>,
    shrink_room: Vec<f64>,
    /// `m + 1` selection trees of `nodes` each: tree 0 keys every task by
    /// its grow slope, tree `1 + r` every task that can source a transfer
    /// from machine `r` by its *negated* shrink slope (the min-structure
    /// as a max tree: `fl(−x · E) = −fl(x · E)` exactly).
    trees: Vec<f64>,
    /// The smallest transfer worth making (J).
    min_transfer: f64,
}

impl Pass {
    fn new_in(
        inst: &Instance,
        schedule: &FractionalSchedule,
        flops: &[f64],
        arena: &mut ScratchArena,
    ) -> Self {
        let n = inst.num_tasks();
        let m = inst.num_machines();
        let size = n.max(1).next_power_of_two();
        let mut start = arena.take_usize();
        start.resize(m, 0);
        let mut lane = |len: usize, fill: f64| {
            let mut v = arena.take_f64();
            v.resize(len, fill);
            v
        };
        let machines = inst.machines();
        let mut pass = Self {
            n,
            nodes: 2 * size,
            eff: lane(m, 0.0),
            power: lane(m, 0.0),
            deadline: lane(n, 0.0),
            prefix: lane(n * m, 0.0),
            slack: lane(n * m, 0.0),
            start,
            grow_slope: lane(n, 0.0),
            grow_room: lane(n, 0.0),
            shrink_slope: lane(n, 0.0),
            shrink_room: lane(n, 0.0),
            trees: lane((m + 1) * 2 * size, f64::NEG_INFINITY),
            min_transfer: 1e-12 * (1.0 + inst.budget()),
        };
        for r in 0..m {
            pass.eff[r] = machines[r].efficiency();
            pass.power[r] = machines[r].power();
        }
        for j in 0..n {
            pass.deadline[j] = inst.task(j).deadline;
        }
        for r in 0..m {
            pass.refresh_slack(schedule, r, 0);
        }
        for (j, &f) in flops.iter().enumerate() {
            pass.set_frontier(inst, j, f);
        }
        for j in 0..n {
            pass.trees[size + j] = pass.grow_key(j);
            for r in 0..m {
                pass.trees[(1 + r) * pass.nodes + size + j] = pass.shrink_key(schedule, j, r);
            }
        }
        for t in pass.trees.chunks_mut(2 * size) {
            tree::build(t);
        }
        pass
    }

    /// Returns every buffer to `arena`, in reverse order of taking, so the
    /// next pass on the same arena gets each one back.
    fn recycle(self, arena: &mut ScratchArena) {
        for v in [
            self.trees,
            self.shrink_room,
            self.shrink_slope,
            self.grow_room,
            self.grow_slope,
            self.slack,
            self.prefix,
            self.deadline,
            self.power,
            self.eff,
        ] {
            arena.put_f64(v);
        }
        arena.put_usize(self.start);
    }

    fn tree(&self, k: usize) -> &[f64] {
        &self.trees[k * self.nodes..(k + 1) * self.nodes]
    }

    fn tree_mut(&mut self, k: usize) -> &mut [f64] {
        &mut self.trees[k * self.nodes..(k + 1) * self.nodes]
    }

    fn grow_of(&self, j: usize) -> Option<(f64, f64)> {
        (self.grow_room[j] > 0.0).then(|| (self.grow_slope[j], self.grow_room[j]))
    }

    fn shrink_of(&self, j: usize) -> Option<(f64, f64)> {
        (self.shrink_room[j] > 0.0).then(|| (self.shrink_slope[j], self.shrink_room[j]))
    }

    fn set_frontier(&mut self, inst: &Instance, j: usize, f: f64) {
        let acc = &inst.task(j).accuracy;
        (self.grow_slope[j], self.grow_room[j]) = grow_info(acc, f).unwrap_or((0.0, 0.0));
        (self.shrink_slope[j], self.shrink_room[j]) = shrink_info(acc, f).unwrap_or((0.0, 0.0));
    }

    /// Task `j`'s key in the grow tree: its grow slope, if it has one.
    fn grow_key(&self, j: usize) -> f64 {
        self.grow_of(j)
            .map_or(f64::NEG_INFINITY, |(slope, _)| slope)
    }

    /// Task `j`'s key in machine `r`'s source tree: its negated shrink
    /// slope when `(j, r)` can give up more than `min_transfer` joules.
    fn shrink_key(&self, schedule: &FractionalSchedule, j: usize, r: usize) -> f64 {
        let Some((slope, drain)) = self.shrink_of(j) else {
            return f64::NEG_INFINITY;
        };
        let t = schedule.t(j, r);
        let room_energy = (t * self.power[r]).min(drain / self.eff[r]);
        if t > crate::EPS_TIME && room_energy > self.min_transfer {
            -slope
        } else {
            f64::NEG_INFINITY
        }
    }

    /// Re-derives machine `r`'s completion prefix from task `from` up
    /// (only `t(from, r)` changed, so the earlier sums are bitwise what
    /// they were) and its slack from the last task down, stopping at the
    /// first task without slack: every earlier one has none either.
    fn refresh_slack(&mut self, schedule: &FractionalSchedule, r: usize, from: usize) {
        let n = self.n;
        let prefix = &mut self.prefix[r * n..(r + 1) * n];
        let mut sum = if from == 0 { 0.0 } else { prefix[from - 1] };
        for (j, p) in prefix.iter_mut().enumerate().skip(from) {
            sum += schedule.t(j, r);
            *p = sum;
        }
        let slack = &mut self.slack[r * n..(r + 1) * n];
        let mut suffix_min = f64::INFINITY;
        self.start[r] = 0;
        for j in (0..n).rev() {
            suffix_min = suffix_min.min(self.deadline[j] - prefix[j]);
            slack[j] = suffix_min;
            if suffix_min <= crate::EPS_TIME {
                self.start[r] = j + 1;
                break;
            }
        }
    }

    /// Bookkeeping after `t(j, r)` and `flops[j]` moved: machine `r`'s
    /// slack, task `j`'s frontier and its keys in every tree.
    fn moved(
        &mut self,
        inst: &Instance,
        schedule: &FractionalSchedule,
        flops: &[f64],
        j: usize,
        r: usize,
    ) {
        self.refresh_slack(schedule, r, j);
        self.set_frontier(inst, j, flops[j]);
        let key = self.grow_key(j);
        tree::set(self.tree_mut(0), j, key);
        for q in 0..self.eff.len() {
            let key = self.shrink_key(schedule, j, q);
            tree::set(self.tree_mut(1 + q), j, key);
        }
    }

    /// The sweep's growth pick — the first `(j, r)` in `(j, r)` order
    /// with the largest `ψ⁺ = slope_j · E_r` among pairs with slack —
    /// without the sweep. Per machine, the best `ψ⁺` comes from the
    /// steepest slope among its growable tasks `start[r]..n`, and the
    /// first task to reach it is the leftmost one whose rounded `ψ⁺`
    /// equals it: distinct slopes can round to one `ψ⁺`. Across machines
    /// the largest `ψ⁺` wins, ties going to the smaller task, then the
    /// earlier machine.
    fn pick_grow(&self) -> Option<(usize, usize)> {
        let grow = self.tree(0);
        let mut best: Option<(f64, usize, usize)> = None;
        for (r, (&lo, &e)) in self.start.iter().zip(&self.eff).enumerate() {
            if lo >= self.n {
                continue;
            }
            let top = tree::max_from(grow, lo);
            if top == f64::NEG_INFINITY {
                continue;
            }
            let psi = top * e;
            if best.is_some_and(|(p, _, _)| psi < p) {
                continue;
            }
            let j = tree::first_from(grow, lo, |g| g * e >= psi)
                .expect("the steepest slope's own leaf reaches its ψ");
            if best.is_none_or(|(p, bj, _)| psi > p || j < bj) {
                best = Some((psi, j, r));
            }
        }
        best.map(|(_, j, r)| (j, r))
    }

    /// The sweep's source pick — the first `(j, r)` in `(j, r)` order with
    /// the smallest `ψ⁻ = slope_j · E_r` among pairs that can give up
    /// energy, other than the growing pair — as [`Pass::pick_grow`] finds
    /// its pick, on the per-machine source trees with `grown` masked out.
    fn pick_shrink(&mut self, grown: (usize, usize)) -> Option<(usize, usize)> {
        let (gj, gr) = grown;
        let masked = self.tree(1 + gr)[self.nodes / 2 + gj];
        tree::set(self.tree_mut(1 + gr), gj, f64::NEG_INFINITY);
        let mut best: Option<(f64, usize, usize)> = None; // (−ψ⁻, j, r)
        for (r, &e) in self.eff.iter().enumerate() {
            let t = self.tree(1 + r);
            let top = t[1];
            if top == f64::NEG_INFINITY {
                continue;
            }
            let neg_psi = top * e;
            if best.is_some_and(|(p, _, _)| neg_psi < p) {
                continue;
            }
            let j = tree::first_from(t, 0, |k| k * e >= neg_psi)
                .expect("the flattest slope's own leaf reaches its ψ");
            if best.is_none_or(|(p, bj, _)| neg_psi > p || j < bj) {
                best = Some((neg_psi, j, r));
            }
        }
        tree::set(self.tree_mut(1 + gr), gj, masked);
        best.map(|(_, j, r)| (j, r))
    }

    /// Holds a growth pick to the sweep it replaces, over freshly derived
    /// slack and frontiers; also checks the kept slack rows, eligibility
    /// starts and frontiers against those.
    #[cfg(debug_assertions)]
    fn assert_grow_pick(
        &self,
        inst: &Instance,
        schedule: &FractionalSchedule,
        flops: &[f64],
        picked: Option<(usize, usize)>,
        arena: &mut ScratchArena,
    ) {
        let (n, m) = (self.n, self.eff.len());
        let mut fresh = arena.take_f64();
        fresh.resize(n * m, 0.0);
        for r in 0..m {
            let row = &mut fresh[r * n..(r + 1) * n];
            deadline_slack(inst, schedule, r, row);
            let lo = self.start[r];
            assert!(
                lo == 0 || row[lo - 1] <= crate::EPS_TIME,
                "machine {r} grows from {lo}"
            );
            assert!(
                lo == n || row[lo] > crate::EPS_TIME,
                "machine {r} grows from {lo}"
            );
            for j in lo..n {
                assert_eq!(
                    row[j].to_bits(),
                    self.slack[r * n + j].to_bits(),
                    "stale slack of ({j}, {r})"
                );
            }
        }
        for (j, &f) in flops.iter().enumerate() {
            let acc = &inst.task(j).accuracy;
            assert_eq!(
                self.grow_of(j),
                grow_info(acc, f),
                "stale grow frontier of task {j}"
            );
            assert_eq!(
                self.shrink_of(j),
                shrink_info(acc, f),
                "stale shrink frontier of task {j}"
            );
        }
        let mut best: Option<(usize, usize, f64)> = None;
        for j in 0..n {
            let Some((gslope, _)) = self.grow_of(j) else {
                continue;
            };
            for r in 0..m {
                if fresh[r * n + j] <= crate::EPS_TIME {
                    continue;
                }
                let psi = gslope * self.eff[r];
                if best.is_none_or(|(_, _, p)| psi > p) {
                    best = Some((j, r, psi));
                }
            }
        }
        arena.put_f64(fresh);
        assert_eq!(
            picked,
            best.map(|(j, r, _)| (j, r)),
            "growth pick is not the sweep's"
        );
    }

    /// Holds a source pick to the sweep it replaces (the frontiers were
    /// checked with the growth pick).
    #[cfg(debug_assertions)]
    fn assert_shrink_pick(
        &self,
        schedule: &FractionalSchedule,
        grown: (usize, usize),
        picked: Option<(usize, usize)>,
    ) {
        let mut best: Option<(usize, usize, f64)> = None;
        for j in 0..self.n {
            let Some((lslope, drain_flops)) = self.shrink_of(j) else {
                continue;
            };
            for r in 0..self.eff.len() {
                let t = schedule.t(j, r);
                if t <= crate::EPS_TIME || (j, r) == grown {
                    continue;
                }
                let psi = lslope * self.eff[r];
                let room_energy = (t * self.power[r]).min(drain_flops / self.eff[r]);
                if room_energy <= self.min_transfer {
                    continue;
                }
                if best.is_none_or(|(_, _, p)| psi < p) {
                    best = Some((j, r, psi));
                }
            }
        }
        assert_eq!(
            picked,
            best.map(|(j, r, _)| (j, r)),
            "source pick is not the sweep's"
        );
    }
}

/// Runs the refinement in place on `schedule` (with per-task work `flops`
/// kept in sync), drawing on unspent budget as a ψ = 0 source and
/// stopping after at most `64·(n·(K+m) + 16)` transfers. Returns
/// convergence statistics.
pub fn refine_profile(
    inst: &Instance,
    schedule: &mut FractionalSchedule,
    flops: &mut [f64],
) -> RefineOutcome {
    refine_profile_in(inst, schedule, flops, &mut ScratchArena::new())
}

/// [`refine_profile`] with every buffer drawn from `arena` and returned
/// to it: a pass on a warm arena allocates nothing
/// (`tests/probe_allocations.rs`).
pub fn refine_profile_in(
    inst: &Instance,
    schedule: &mut FractionalSchedule,
    flops: &mut [f64],
    arena: &mut ScratchArena,
) -> RefineOutcome {
    let n = inst.num_tasks();
    let k_max: usize = inst
        .tasks()
        .iter()
        .map(|t| t.accuracy.num_segments())
        .max()
        .unwrap_or(1);
    let max_iters = 64 * (n * (k_max + inst.num_machines()) + 16);

    let mut pass = Pass::new_in(inst, schedule, flops, arena);
    let mut energy_used = schedule.energy(inst);
    let budget = inst.budget();
    let min_transfer = pass.min_transfer;

    let mut iterations = 0usize;
    let mut accuracy_gain = 0.0f64;
    let mut converged = false;

    while iterations < max_iters {
        // Best growth candidate: max ψ⁺ = gain-slope · E_r over (j, r)
        // with positive deadline slack.
        let grown = pass.pick_grow();
        #[cfg(debug_assertions)]
        pass.assert_grow_pick(inst, schedule, flops, grown, arena);
        let Some((gj, gr)) = grown else {
            converged = true;
            break;
        };
        let gpsi = pass.grow_slope[gj] * pass.eff[gr];
        let groom_flops = pass.grow_room[gj];

        // Best source: unspent budget (ψ = 0) or the shrink candidate with
        // the lowest ψ⁻ = loss-slope · E_{r'}.
        let slack_energy = (budget - energy_used).max(0.0);
        let shrunk = pass.pick_shrink((gj, gr));
        #[cfg(debug_assertions)]
        pass.assert_shrink_pick(schedule, (gj, gr), shrunk);
        let best_shrink = shrunk.map(|(j, r)| {
            let psi = pass.shrink_slope[j] * pass.eff[r];
            let t = schedule.t(j, r);
            let room_energy = (t * pass.power[r]).min(pass.shrink_room[j] / pass.eff[r]);
            (j, r, psi, room_energy)
        });

        // Choose the cheaper source.
        let psi_eps = 1e-9 * (1.0 + gpsi.abs());
        let use_slack_source =
            slack_energy > min_transfer && best_shrink.is_none_or(|(_, _, p, _)| p >= 0.0);
        let (source_psi, source_energy, source) = if use_slack_source {
            (0.0, slack_energy, None)
        } else if let Some((sj, sr, spsi, sroom)) = best_shrink {
            (spsi, sroom, Some((sj, sr)))
        } else {
            converged = true;
            break;
        };
        if gpsi <= source_psi + psi_eps {
            // Slack is free; growing from slack is improving whenever the
            // gain is positive, so only stop when even that fails.
            if source.is_none() && gpsi > psi_eps {
                // proceed: positive gain from free energy
            } else {
                converged = true;
                break;
            }
        }

        // Transfer size in joules.
        let grow_energy_cap =
            (pass.slack[gr * n + gj] * pass.power[gr]).min(groom_flops / pass.eff[gr]);
        let delta_e = grow_energy_cap.min(source_energy);
        if delta_e <= min_transfer {
            converged = true;
            break;
        }

        // Apply: grow (gj, gr) …
        let dt_grow = delta_e / pass.power[gr];
        let df_grow = delta_e * pass.eff[gr];
        let acc_before_g = inst.task(gj).accuracy.eval(flops[gj]);
        *schedule.t_mut(gj, gr) += dt_grow;
        flops[gj] = (flops[gj] + df_grow).min(inst.task(gj).f_max());
        accuracy_gain += inst.task(gj).accuracy.eval(flops[gj]) - acc_before_g;
        energy_used += delta_e;
        pass.moved(inst, schedule, flops, gj, gr);

        // … and shrink the source if it was a task.
        if let Some((sj, sr)) = source {
            let dt_shrink = delta_e / pass.power[sr];
            let df_shrink = delta_e * pass.eff[sr];
            let acc_before_s = inst.task(sj).accuracy.eval(flops[sj]);
            let t = schedule.t_mut(sj, sr);
            *t = (*t - dt_shrink).max(0.0);
            flops[sj] = (flops[sj] - df_shrink).max(0.0);
            accuracy_gain += inst.task(sj).accuracy.eval(flops[sj]) - acc_before_s;
            energy_used -= delta_e;
            pass.moved(inst, schedule, flops, sj, sr);
        }

        iterations += 1;
    }
    pass.recycle(arena);

    RefineOutcome {
        iterations,
        accuracy_gain,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_naive::compute_naive_solution;
    use crate::problem::Task;
    use crate::profile::naive_profile;
    use crate::schedule::ScheduleKind;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    #[test]
    fn grow_and_shrink_info_respect_breakpoints() {
        let a = acc(&[(0.0, 0.0), (1.0, 0.5), (2.0, 0.8), (3.0, 0.9)]);
        let (s, room) = grow_info(&a, 0.0).unwrap();
        assert!((s - 0.5).abs() < 1e-12 && (room - 1.0).abs() < 1e-12);
        let (s, room) = grow_info(&a, 1.0).unwrap();
        assert!((s - 0.3).abs() < 1e-12 && (room - 1.0).abs() < 1e-12);
        assert!(grow_info(&a, 3.0).is_none());
        let (s, room) = shrink_info(&a, 3.0).unwrap();
        assert!((s - 0.1).abs() < 1e-12 && (room - 1.0).abs() < 1e-12);
        let (s, room) = shrink_info(&a, 1.0).unwrap();
        assert!((s - 0.5).abs() < 1e-12 && (room - 1.0).abs() < 1e-12);
        assert!(shrink_info(&a, 0.0).is_none());
    }

    #[test]
    fn snapping_skips_slivers() {
        let a = acc(&[(0.0, 0.0), (1.0, 0.5), (2.0, 0.8)]);
        // Just below a breakpoint: growing uses the *next* segment.
        let (s, _) = grow_info(&a, 1.0 - 1e-12).unwrap();
        assert!((s - 0.3).abs() < 1e-12);
        // Just above: shrinking uses the *previous* segment.
        let (s, _) = shrink_info(&a, 1.0 + 1e-12).unwrap();
        assert!((s - 0.5).abs() < 1e-12);
    }

    /// The paper's Fig. 6b mechanism in miniature: an early
    /// deadline-constrained high-value task cannot grow on the efficient
    /// machine, so refinement moves its work onto the less efficient one,
    /// beating the naive profile.
    #[test]
    fn refinement_beats_naive_profile_when_deadlines_bind() {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(), // efficient, slow
            Machine::from_efficiency(5000.0, 70.0).unwrap(), // fast, less efficient
        ]);
        // Task 0: very tight deadline, steep accuracy (high ψ).
        // Task 1: loose deadline, shallow accuracy.
        let t0 = Task::new(0.05, acc(&[(0.0, 0.0), (500.0, 0.8)]));
        let t1 = Task::new(2.0, acc(&[(0.0, 0.0), (4000.0, 0.4)]));
        // Budget fits roughly machine-0-only usage.
        let inst = Instance::new(vec![t0, t1], park, 30.0).unwrap();

        let profile = naive_profile(&inst);
        let naive = compute_naive_solution(&inst, &profile);
        let naive_acc = naive.schedule.total_accuracy(&inst);

        let mut schedule = naive.schedule.clone();
        let mut flops = naive.flops.clone();
        let out = refine_profile(&inst, &mut schedule, &mut flops);
        assert!(out.converged);
        let refined_acc = schedule.total_accuracy(&inst);
        assert!(
            refined_acc > naive_acc + 1e-6,
            "refined {refined_acc} vs naive {naive_acc}"
        );
        schedule.validate(&inst, ScheduleKind::Fractional).unwrap();
        // Machine 2 (index 1) must have picked up work for task 0.
        assert!(schedule.t(0, 1) > 1e-9);
    }

    #[test]
    fn refinement_is_a_no_op_at_optimum() {
        // Single machine with ample budget: the naive solution is already
        // optimal, so refinement must not change accuracy.
        let park = MachinePark::new(vec![Machine::from_efficiency(1000.0, 50.0).unwrap()]);
        let t0 = Task::new(1.0, acc(&[(0.0, 0.0), (500.0, 0.6), (1000.0, 0.8)]));
        let inst = Instance::new(vec![t0], park, 1e9).unwrap();
        let profile = naive_profile(&inst);
        let naive = compute_naive_solution(&inst, &profile);
        let mut schedule = naive.schedule.clone();
        let mut flops = naive.flops.clone();
        let before = schedule.total_accuracy(&inst);
        let out = refine_profile(&inst, &mut schedule, &mut flops);
        assert!(out.converged);
        assert!((schedule.total_accuracy(&inst) - before).abs() < 1e-9);
    }

    /// The pass as it was before the frontier cache: every transfer
    /// re-derives every task's grow and shrink frontier. Otherwise line
    /// for line [`refine_profile`].
    fn refine_rescan(
        inst: &Instance,
        schedule: &mut FractionalSchedule,
        flops: &mut [f64],
    ) -> RefineOutcome {
        let n = inst.num_tasks();
        let m = inst.num_machines();
        let k_max: usize = inst
            .tasks()
            .iter()
            .map(|t| t.accuracy.num_segments())
            .max()
            .unwrap_or(1);
        let max_iters = 64 * (n * (k_max + m) + 16);
        let machines = inst.machines();
        let eff: Vec<f64> = (0..m).map(|r| machines[r].efficiency()).collect();
        let power: Vec<f64> = (0..m).map(|r| machines[r].power()).collect();
        let mut energy_used = schedule.energy(inst);
        let budget = inst.budget();
        let min_transfer = 1e-12 * (1.0 + budget);
        let mut slack: Vec<Vec<f64>> = (0..m)
            .map(|r| {
                let mut v = vec![0.0; n];
                deadline_slack(inst, schedule, r, &mut v);
                v
            })
            .collect();
        let mut iterations = 0usize;
        let mut accuracy_gain = 0.0f64;
        let mut converged = false;
        while iterations < max_iters {
            let mut best_grow: Option<(usize, usize, f64, f64, f64)> = None;
            for j in 0..n {
                let Some((gslope, room_flops)) = grow_info(&inst.task(j).accuracy, flops[j]) else {
                    continue;
                };
                for r in 0..m {
                    if slack[r][j] <= crate::EPS_TIME {
                        continue;
                    }
                    let psi = gslope * eff[r];
                    if best_grow.is_none_or(|(_, _, p, _, _)| psi > p) {
                        best_grow = Some((j, r, psi, gslope, room_flops));
                    }
                }
            }
            let Some((gj, gr, gpsi, _gslope, groom_flops)) = best_grow else {
                converged = true;
                break;
            };
            let slack_energy = (budget - energy_used).max(0.0);
            let mut best_shrink: Option<(usize, usize, f64, f64)> = None;
            for j in 0..n {
                let Some((lslope, drain_flops)) = shrink_info(&inst.task(j).accuracy, flops[j])
                else {
                    continue;
                };
                for r in 0..m {
                    let t = schedule.t(j, r);
                    if t <= crate::EPS_TIME || (j == gj && r == gr) {
                        continue;
                    }
                    let psi = lslope * eff[r];
                    let room_energy = (t * power[r]).min(drain_flops / eff[r]);
                    if room_energy <= min_transfer {
                        continue;
                    }
                    if best_shrink.is_none_or(|(_, _, p, _)| psi < p) {
                        best_shrink = Some((j, r, psi, room_energy));
                    }
                }
            }
            let psi_eps = 1e-9 * (1.0 + gpsi.abs());
            let use_slack_source =
                slack_energy > min_transfer && best_shrink.is_none_or(|(_, _, p, _)| p >= 0.0);
            let (source_psi, source_energy, source) = if use_slack_source {
                (0.0, slack_energy, None)
            } else if let Some((sj, sr, spsi, sroom)) = best_shrink {
                (spsi, sroom, Some((sj, sr)))
            } else {
                converged = true;
                break;
            };
            if gpsi <= source_psi + psi_eps && !(source.is_none() && gpsi > psi_eps) {
                converged = true;
                break;
            }
            let grow_energy_cap = (slack[gr][gj] * power[gr]).min(groom_flops / eff[gr]);
            let delta_e = grow_energy_cap.min(source_energy);
            if delta_e <= min_transfer {
                converged = true;
                break;
            }
            let dt_grow = delta_e / power[gr];
            let df_grow = delta_e * eff[gr];
            let acc_before_g = inst.task(gj).accuracy.eval(flops[gj]);
            *schedule.t_mut(gj, gr) += dt_grow;
            flops[gj] = (flops[gj] + df_grow).min(inst.task(gj).f_max());
            accuracy_gain += inst.task(gj).accuracy.eval(flops[gj]) - acc_before_g;
            energy_used += delta_e;
            deadline_slack(inst, schedule, gr, &mut slack[gr]);
            if let Some((sj, sr)) = source {
                let dt_shrink = delta_e / power[sr];
                let df_shrink = delta_e * eff[sr];
                let acc_before_s = inst.task(sj).accuracy.eval(flops[sj]);
                let t = schedule.t_mut(sj, sr);
                *t = (*t - dt_shrink).max(0.0);
                flops[sj] = (flops[sj] - df_shrink).max(0.0);
                accuracy_gain += inst.task(sj).accuracy.eval(flops[sj]) - acc_before_s;
                energy_used -= delta_e;
                deadline_slack(inst, schedule, sr, &mut slack[sr]);
            }
            iterations += 1;
        }
        RefineOutcome {
            iterations,
            accuracy_gain,
            converged,
        }
    }

    /// The paper's generator in miniature (θ ~ U(0.1, 1.0), five-segment
    /// curves, machines from the paper's ranges) at work ratio `rho` and
    /// budget ratio `beta`.
    fn seeded(n: usize, m: usize, seed: u64, rho: f64, beta: f64) -> Instance {
        use dsct_accuracy::fit::BreakpointSpacing;
        use dsct_accuracy::ExponentialAccuracy;
        use dsct_machines::gen::MachineSampler;
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let park = MachineSampler::PAPER.sample_park(&mut rng, m);
        let accs: Vec<PwlAccuracy> = (0..n)
            .map(|_| {
                ExponentialAccuracy::paper_defaults_with(rng.gen_range(0.1..=1.0), 1e-3, 0.82)
                    .and_then(|e| e.to_pwl_theta_normalized(5, BreakpointSpacing::Geometric))
                    .unwrap()
            })
            .collect();
        let d_max = rho * accs.iter().map(|a| a.f_max()).sum::<f64>() / park.total_speed();
        let mut deadlines: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..1.0f64).max(1e-6) * d_max)
            .collect();
        deadlines.sort_by(f64::total_cmp);
        *deadlines.last_mut().unwrap() = d_max;
        let budget = beta * d_max * park.total_power();
        let tasks = deadlines
            .into_iter()
            .zip(accs)
            .map(|(d, a)| Task::new(d, a));
        Instance::new(tasks.collect(), park, budget).unwrap()
    }

    /// [`seeded`] with ties everywhere: machines come in identical pairs
    /// (equal `E_r`) and the tasks cycle through three curves (equal
    /// slopes at equal work).
    fn tied(n: usize, m: usize, seed: u64, rho: f64, beta: f64) -> Instance {
        let base = seeded(n, m.div_ceil(2), seed, rho, beta);
        let half = base.machines();
        let park = MachinePark::new((0..m).map(|r| half[r / 2]).collect());
        let budget = base.budget() * park.total_power() / half.total_power();
        let tasks = (0..n)
            .map(|j| Task::new(base.task(j).deadline, base.task(j % 3).accuracy.clone()))
            .collect();
        Instance::new(tasks, park, budget).unwrap()
    }

    /// Runs the pass and the rescanning pass from the naive solution of
    /// `inst` and asserts they agree bit for bit: every processing time,
    /// every task's work, the iteration count, the gain and convergence.
    /// Returns the transfers made and whether the pass drew on unspent
    /// budget.
    fn assert_replays(inst: &Instance, label: &str) -> (usize, bool) {
        let naive = compute_naive_solution(inst, &naive_profile(inst));
        let (mut cached, mut cached_flops) = (naive.schedule.clone(), naive.flops.clone());
        let (mut rescan, mut rescan_flops) = (naive.schedule.clone(), naive.flops.clone());
        let a = refine_profile(inst, &mut cached, &mut cached_flops);
        let b = refine_rescan(inst, &mut rescan, &mut rescan_flops);
        assert_eq!(a.iterations, b.iterations, "{label}");
        assert_eq!(a.converged, b.converged, "{label}");
        assert_eq!(
            a.accuracy_gain.to_bits(),
            b.accuracy_gain.to_bits(),
            "{label}"
        );
        for j in 0..inst.num_tasks() {
            assert_eq!(
                cached_flops[j].to_bits(),
                rescan_flops[j].to_bits(),
                "{label} task {j}"
            );
            for r in 0..inst.num_machines() {
                assert_eq!(
                    cached.t(j, r).to_bits(),
                    rescan.t(j, r).to_bits(),
                    "{label} t({j}, {r})"
                );
            }
        }
        let drew = cached.energy(inst) > naive.schedule.energy(inst) + 1e-9;
        (a.iterations, drew)
    }

    /// The pass makes the rescanning pass's transfers, bit for bit, from
    /// the naive solution of each seeded instance: at the paper's small
    /// shape, at the online service's shapes (`m = 4`, pools 60 and 200
    /// deep), and on tie-heavy instances where many pairs share one `ψ`.
    #[test]
    fn cached_frontiers_replay_the_rescanning_pass() {
        let ratios = [(0.35, 0.5), (0.1, 0.8), (0.6, 0.3)];
        let mut slack_drawn = 0;
        let mut transfers = 0;
        for seed in 0..24 {
            let (rho, beta) = ratios[seed as usize % 3];
            let (t, drew) =
                assert_replays(&seeded(30, 5, seed, rho, beta), &format!("seed {seed}"));
            transfers += t;
            slack_drawn += usize::from(drew);
        }
        assert!(transfers >= 50, "{transfers} transfers");
        assert!(slack_drawn > 0, "no instance drew on the slack source");

        for (n, m) in [(60, 4), (200, 4)] {
            let (mut plain, mut tie_heavy) = (0, 0);
            for seed in 0..6 {
                let (rho, beta) = ratios[seed as usize % 3];
                let label = format!("n {n} m {m} seed {seed}");
                plain += assert_replays(&seeded(n, m, seed, rho, beta), &label).0;
                tie_heavy +=
                    assert_replays(&tied(n, m, seed, rho, beta), &format!("tied {label}")).0;
            }
            assert!(plain >= 20, "n {n}: {plain} transfers");
            assert!(tie_heavy >= 20, "n {n} tied: {tie_heavy} transfers");
        }
    }

    /// Slopes one ulp apart can round to one `ψ = slope · E_r`; the sweep
    /// then keeps the first pair in `(j, r)` order, not the steeper (or,
    /// for a source, the flatter) slope, and so do the selection trees.
    #[test]
    fn rounded_psi_ties_go_to_the_first_task() {
        let park = MachinePark::new(vec![Machine::from_efficiency(1000.0, 1.7).unwrap()]);
        let e = park.machines()[0].efficiency();
        let mut g = 0.7f64;
        while g * e != g.next_up() * e {
            g = g.next_up();
        }
        let line = |slope: f64| acc(&[(0.0, 0.0), (1.0, slope)]);
        assert!(line(g).slopes()[0] < line(g.next_up()).slopes()[0]);

        // Growth: both tasks idle, the later one one ulp steeper.
        let inst = Instance::new(
            vec![Task::new(1.0, line(g)), Task::new(2.0, line(g.next_up()))],
            park.clone(),
            100.0,
        )
        .unwrap();
        let schedule = FractionalSchedule::zero(2, 1);
        let mut arena = ScratchArena::new();
        let pass = Pass::new_in(&inst, &schedule, &[0.0, 0.0], &mut arena);
        assert_eq!(pass.pick_grow(), Some((0, 0)));
        pass.recycle(&mut arena);

        // Source: both tasks half done, the later one one ulp flatter;
        // task 2 is the growing pair the pick masks.
        let inst = Instance::new(
            vec![
                Task::new(1.0, line(g.next_up())),
                Task::new(2.0, line(g)),
                Task::new(3.0, line(0.9)),
            ],
            park,
            100.0,
        )
        .unwrap();
        let mut schedule = FractionalSchedule::zero(3, 1);
        schedule.set_t(0, 0, 0.5 / 1000.0);
        schedule.set_t(1, 0, 0.5 / 1000.0);
        let mut pass = Pass::new_in(&inst, &schedule, &[0.5, 0.5, 0.0], &mut arena);
        assert_eq!(pass.pick_shrink((2, 0)), Some((0, 0)));
        pass.recycle(&mut arena);
    }

    #[test]
    fn slack_source_uses_leftover_budget() {
        // Task 0's deadline caps its time on the efficient machine well
        // below the naive profile's `d_max`, and task 1 is small, so the
        // naive solution leaves budget unspent. Only the slack source
        // can hand it to task 0 on the other machine.
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 100.0).unwrap(), // 10 W
            Machine::from_efficiency(1000.0, 10.0).unwrap(),  // 100 W
        ]);
        let t0 = Task::new(0.5, acc(&[(0.0, 0.0), (2000.0, 0.8)]));
        let t1 = Task::new(2.0, acc(&[(0.0, 0.0), (100.0, 0.3)]));
        let inst = Instance::new(vec![t0, t1], park, 25.0).unwrap();
        let profile = naive_profile(&inst);
        let naive = compute_naive_solution(&inst, &profile);
        let naive_acc = naive.schedule.total_accuracy(&inst);
        let naive_energy = naive.schedule.energy(&inst);
        assert!(
            naive_energy < inst.budget() - 1.0,
            "naive spent {naive_energy}"
        );

        let mut schedule = naive.schedule;
        let mut flops = naive.flops;
        let out = refine_profile(&inst, &mut schedule, &mut flops);
        assert!(out.converged);
        let refined_acc = schedule.total_accuracy(&inst);
        assert!(
            refined_acc > naive_acc + 1e-6,
            "refined {refined_acc} vs naive {naive_acc}"
        );
        let energy = schedule.energy(&inst);
        assert!(
            energy > naive_energy + 1e-6,
            "leftover budget stayed unspent"
        );
        assert!(
            energy <= inst.budget() + 1e-9,
            "spent {energy} over the budget"
        );
        schedule.validate(&inst, ScheduleKind::Fractional).unwrap();
    }
}
