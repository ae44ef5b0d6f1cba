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
//! # One evaluator
//!
//! Every probe the search issues — gate probes and golden-section steps
//! alike — evaluates `V` at the incumbent caps shifted along a transfer
//! direction, i.e. at a profile differing from the incumbent in ≤ 3
//! coordinates. The incumbent is anchored in a [`ValueCheckpoint`]
//! ([`NaiveSolver::checkpoint_into`]) and every probe is a Δ-probe against
//! it ([`NaiveSolver::value_delta`]): only the affected suffix of the
//! capacity transform is recomputed and the greedy reruns on bitmask
//! capacity buckets. The checkpoint is re-anchored after every accepted
//! transfer and never mutated by probes, so rolling back to the incumbent
//! between probes is exact.
//!
//! # The gated sweep
//!
//! A sweep scans the ordered pairs `(from, to)` once, in that order. Each
//! pair passes one gate, and the gate is one rule applied twice: *a
//! direction matters only if some step of its ray `[0, δ_max]` can clear
//! the gain tolerance*.
//!
//! First as a sign test that evaluates nothing. At every anchored
//! incumbent the search prices Algorithm 2's inner LP once
//! ([`NaiveSolver::price_blocks_into`], lazily at the first gate after a
//! re-anchor): optimal dual prices, one box per block of tasks between
//! tight deadline prefixes. Weak duality bounds the gain of any move
//! along a ≤ 3-machine direction by a linear form in ≤ 3 of those prices
//! ([`PriceBlocks::gain_bound`]); the bound is linear in the step, so its
//! value at `δ_max` covers the whole ray, and when it — plus the slop of
//! the builder's tolerance calls — stays under half the gain tolerance
//! the gate is closed without a probe. An incumbent whose prices come out
//! inconsistent is uncertifiable, and all of its gates are probed.
//!
//! Then, for a gate the prices leave open, as one ε-probe at `10⁻³` of the
//! step limit: by concavity `g(δ) − g(0) ≤ (δ/ε)·(g(ε) − g(0))` for
//! `δ ≥ ε`, so a gate gain that `δ_max/ε` cannot scale past the gain
//! tolerance rules out `[ε, δ_max]` (the `(0, ε)` sliver is a heuristic
//! gap, validated against the LP optimum in the test suite). A pair whose
//! gate stays open runs the line search and, when that clears the gain
//! tolerance, moves the incumbent before the next pair is looked at.
//!
//! A closed gate is one whose line search would have been rejected, so
//! the certificate changes which evaluations run, never what is decided;
//! builds with `debug_assertions` probe every closed gate anyway and
//! assert exactly that. The scan runs on the calling thread: callers that
//! want parallelism run many solves at once.

use crate::algo_naive::{
    compute_naive_solution, NaiveSolution, NaiveSolver, PriceBlocks, ProbeStats, ValueCheckpoint,
    ValueFnWorkspace,
};
use crate::problem::Instance;
use crate::profile::EnergyProfile;

/// Golden ratio constant for the line search.
const INV_PHI: f64 = 0.618_033_988_749_894_9;

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
}

impl Default for ProfileSearchOptions {
    fn default() -> Self {
        Self {
            max_sweeps: 64,
            line_iterations: 40,
            rel_gain_tol: 1e-10,
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
    /// `V(p)` evaluation counters (total and incremental probes).
    pub probe_stats: ProbeStats,
}

/// A budget-preserving transfer direction: each `(machine, weight)` entry
/// changes that machine's cap by `weight · δ / P_r` for a step of `δ`
/// joules; weights sum to zero so the caps' total energy is conserved.
/// The machines of a direction are distinct.
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

/// The caps a step of `delta` joules along `dir` touches, as sparse
/// `(machine, new_cap)` entries — the shape
/// [`NaiveSolver::value_delta`] takes.
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

/// The search's evaluator and its incumbent: the caps, their value, and
/// the [`ValueCheckpoint`] anchored at them that every probe runs
/// against. The workspace is borrowed so callers (worker threads of the
/// experiment engine) reuse its buffers across many solves.
struct Ascent<'a, 'w> {
    solver: NaiveSolver<'a>,
    ws: &'w mut ValueFnWorkspace,
    chk: ValueCheckpoint,
    /// Incumbent caps; `chk` is anchored here between accepted transfers.
    caps: Vec<f64>,
    /// `V(caps)`.
    current: f64,
    transfers: usize,
    /// Machine powers by index.
    power: Vec<f64>,
    d_max: f64,
    /// Absolute gain a line search must clear to move the incumbent.
    gain_tol: f64,
    line_iterations: usize,
    /// Dual prices of the incumbent, rebuilt at the first gate after each
    /// re-anchor (`prices_stale`).
    prices: PriceBlocks,
    prices_stale: bool,
}

/// What [`Ascent::gate`] learned about a direction.
struct Gate {
    /// `V` at the gate step; NaN when the prices settled the gate unprobed.
    value: f64,
    /// Whether some step of the ray can still clear the gain tolerance.
    open: bool,
}

impl<'a, 'w> Ascent<'a, 'w> {
    /// Anchors the search at `caps` (`power` by machine index), with the
    /// solver, checkpoint and price buffers drawn from the workspace's
    /// arena.
    fn anchored(
        inst: &'a Instance,
        caps: Vec<f64>,
        power: Vec<f64>,
        opts: &ProfileSearchOptions,
        ws: &'w mut ValueFnWorkspace,
    ) -> Self {
        let solver = NaiveSolver::new_in(inst, &mut ws.arena);
        let mut chk = ValueCheckpoint::new_in(&mut ws.arena);
        let prices = PriceBlocks::new_in(&mut ws.arena);
        let current = solver.checkpoint_into(ws, &caps, &mut chk);
        Self {
            solver,
            ws,
            chk,
            caps,
            current,
            transfers: 0,
            power,
            d_max: inst.d_max(),
            gain_tol: opts.rel_gain_tol * inst.total_max_accuracy().max(1.0),
            line_iterations: opts.line_iterations,
            prices,
            prices_stale: true,
        }
    }

    /// The step limit of `dir` at the incumbent, `None` when the
    /// direction has no room to move.
    fn step_limit(&self, dir: &Direction) -> Option<f64> {
        let dm = direction_step_limit(dir, &self.caps, &self.power, self.d_max);
        (dm > 1e-15 && dm.is_finite()).then_some(dm)
    }

    /// `V` at the incumbent stepped `delta` joules along `dir`.
    fn probe(&mut self, dir: &Direction, delta: f64) -> f64 {
        debug_assert_eq!(self.chk.caps(), self.caps, "probe must start at the anchor");
        let (changed, len) = direction_changed(dir, &self.caps, &self.power, self.d_max, delta);
        // `EnergyProfile::new` and `Instance::new` admit only finite caps,
        // powers and `d_max`, and step limits are finite, so the ≤ 3
        // stepped caps are finite entries of the anchored profile: the
        // checkpoint can always answer.
        self.solver
            .value_delta(self.ws, &self.chk, &changed[..len])
            .expect("a transfer direction moves ≤ 3 finite caps of the anchored profile")
    }

    /// Golden-section maximization of the concave transfer objective
    /// `g(δ) = V(incumbent stepped δ joules along dir)` over
    /// `[0, delta_max]`. One `V` evaluation per iteration. Returns the
    /// best `(δ, g(δ))` seen, including the right endpoint.
    fn line_search(&mut self, dir: &Direction, delta_max: f64) -> (f64, f64) {
        let (mut a, mut b) = (0.0f64, delta_max);
        let mut c = b - INV_PHI * (b - a);
        let mut d = a + INV_PHI * (b - a);
        let mut fc = self.probe(dir, c);
        let mut fd = self.probe(dir, d);
        let mut best = if fc >= fd { (c, fc) } else { (d, fd) };
        for _ in 0..self.line_iterations {
            if fc >= fd {
                b = d;
                d = c;
                fd = fc;
                c = b - INV_PHI * (b - a);
                fc = self.probe(dir, c);
                if fc > best.1 {
                    best = (c, fc);
                }
            } else {
                a = c;
                c = d;
                fc = fd;
                d = a + INV_PHI * (b - a);
                fd = self.probe(dir, d);
                if fd > best.1 {
                    best = (d, fd);
                }
            }
        }
        let f_end = self.probe(dir, delta_max);
        if f_end > best.1 {
            best = (delta_max, f_end);
        }
        best
    }

    /// Line-searches `dir` and, when the best step clears the gain
    /// tolerance, moves the incumbent there and re-anchors. Returns
    /// whether the incumbent moved.
    fn try_transfer(&mut self, dir: &Direction, delta_max: f64) -> bool {
        let (best_delta, best_val) = self.line_search(dir, delta_max);
        if best_val > self.current + self.gain_tol {
            let (changed, len) =
                direction_changed(dir, &self.caps, &self.power, self.d_max, best_delta);
            for &(r, cap) in &changed[..len] {
                self.caps[r] = cap;
            }
            self.current = best_val;
            self.transfers += 1;
            self.solver
                .checkpoint_into(self.ws, &self.caps, &mut self.chk);
            self.prices_stale = true;
            true
        } else {
            false
        }
    }

    /// Whether the incumbent's prices rule out a `gain_tol` improvement
    /// anywhere on `dir`'s ray `[0, delta_max]`: the weak-duality bound is
    /// linear in the step, so its value at `delta_max` (or 0, at the
    /// incumbent) bounds the whole ray.
    fn certified(&mut self, dir: &Direction, delta_max: f64) -> bool {
        if self.prices_stale {
            self.solver
                .price_blocks_into(self.ws, &self.chk, &mut self.prices);
            self.prices_stale = false;
        }
        if !self.prices.is_certifiable() {
            return false;
        }
        let speeds = self.solver.speeds();
        let mut moves = [(0.0f64, 0.0f64); 3];
        for (slot, &(r, w)) in moves.iter_mut().zip(dir) {
            *slot = (self.caps[r], speeds[r] * w * delta_max / self.power[r]);
        }
        let bound = self.prices.gain_bound(&moves[..dir.len()]);
        bound.max(0.0) + self.prices.slop() <= 0.5 * self.gain_tol
    }

    /// The one gate both sweeps call — *a direction matters only if its
    /// ray can clear `gain_tol`* — applied twice: first as a sign test on
    /// the incumbent's dual prices, which costs no evaluation of `V`, and,
    /// when the prices cannot decide, on one probe at step `eps`: by
    /// concavity `g(δ) − g(0) ≤ (δ/ε)·(g(ε) − g(0))` for `δ ≥ ε`, so a gate
    /// gain that `delta_max/eps` cannot scale past `gain_tol` closes
    /// `[ε, delta_max]` just as a failing gate does.
    fn gate(&mut self, dir: &Direction, eps: f64, delta_max: f64) -> Gate {
        if self.certified(dir, delta_max) {
            #[cfg(debug_assertions)]
            self.assert_closed(dir, eps, delta_max, None);
            return Gate {
                value: f64::NAN,
                open: false,
            };
        }
        let value = self.probe(dir, eps);
        let open =
            value > self.current && (value - self.current) * (delta_max / eps) > self.gain_tol;
        #[cfg(debug_assertions)]
        if !open {
            self.assert_closed(dir, eps, delta_max, Some(value));
        }
        Gate { value, open }
    }

    /// Debug cross-check of a gate [`Ascent::gate`] closed: probes it when
    /// the prices closed it unprobed, and, had its value passed the plain
    /// `> current` test, runs the line search and asserts it would not
    /// have moved the incumbent. The probe counters are restored, so both
    /// build profiles report the same `probes`.
    #[cfg(debug_assertions)]
    fn assert_closed(&mut self, dir: &Direction, eps: f64, delta_max: f64, probed: Option<f64>) {
        let stats = self.ws.stats;
        let value = probed.unwrap_or_else(|| self.probe(dir, eps));
        if value > self.current {
            let (delta, best) = self.line_search(dir, delta_max);
            assert!(
                best <= self.current + self.gain_tol,
                "closed gate {dir:?} (probed: {}) gains {:e} at step {delta:e} of {delta_max:e}, \
                 gain_tol {:e}",
                probed.is_some(),
                best - self.current,
                self.gain_tol
            );
        }
        self.ws.stats = stats;
    }

    /// One gated scan over the ordered machine pairs: step limit → gate →
    /// line search if it stays open (see the module docs).
    fn pairwise_sweep(&mut self) -> bool {
        let m = self.caps.len();
        let mut improved = false;
        for from in 0..m {
            for to in 0..m {
                if from == to {
                    continue;
                }
                let dir = [(from, -1.0), (to, 1.0)];
                let Some(dm) = self.step_limit(&dir) else {
                    continue;
                };
                if self.gate(&dir, dm * 1e-3, dm).open {
                    improved |= self.try_transfer(&dir, dm);
                }
            }
        }
        improved
    }

    /// Triple polish, run only at pairwise stalls: one-source/two-sink and
    /// two-source/one-sink directions with a few split ratios. Pairwise
    /// coordinate ascent on a piecewise-linear concave function can stall
    /// at kinks whose escape direction moves three coordinates; the first
    /// improving trio hands control back to the cheap pairwise sweeps.
    ///
    /// Each `(a, b, c, orientation)` trio probes its three λ gates at a
    /// *common* step `ε` (10⁻³ of the trio's smallest step limit): the
    /// probed cap vectors are then affine in λ — three collinear, equally
    /// spaced points — so concavity of `V` bounds the third gate by the
    /// first two, `V(p(λ₃)) ≤ 2·V(p(λ₂)) − V(p(λ₁))`, and a third gate
    /// certified not to improve on the incumbent is skipped without being
    /// evaluated (when both were probed: gates the prices settled carry no
    /// value).
    fn polish_triples(&mut self) -> bool {
        let m = self.caps.len();
        for a in 0..m {
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
                            if let Some(dm) = self.step_limit(&dirs[k]) {
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
                                continue; // this split has no room to move
                            }
                            if k == 2
                                && ga.is_finite()
                                && gb.is_finite()
                                && 2.0 * gb - ga <= self.current
                            {
                                // Certified ≤ incumbent: the gate would
                                // fail; skip its evaluation.
                                continue;
                            }
                            let gate = self.gate(&dirs[k], eps, dms[k]);
                            if k == 0 {
                                ga = gate.value;
                            } else if k == 1 {
                                gb = gate.value;
                            }
                            if gate.open && self.try_transfer(&dirs[k], dms[k]) {
                                return true;
                            }
                        }
                    }
                }
            }
        }
        false
    }
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
/// [`ProfileSearchOutcome::probe_stats`] cover this solve only; the
/// workspace's own counters keep accumulating across solves.
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
/// [`profile_search_value_with`]: slack absorption, gated pairwise
/// sweeps, triple polish at stalls. Also returns the solver (holding the
/// instance's sorted segment order) so finishers can materialize whatever
/// they need without rebuilding it.
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

    let mut ascent = Ascent::anchored(inst, caps, power, opts, ws);
    let mut sweeps = 0usize;
    let mut converged = false;

    // Accepted transfers require a strict `gain_tol` improvement, so the
    // value must ascend sweep over sweep.
    #[cfg(debug_assertions)]
    let monotone_tol = 1e-9 * inst.total_max_accuracy().max(1.0);
    while sweeps < opts.max_sweeps {
        sweeps += 1;
        #[cfg(debug_assertions)]
        let sweep_start_value = ascent.current;
        let improved = ascent.pairwise_sweep() || (m >= 3 && ascent.polish_triples());
        #[cfg(debug_assertions)]
        debug_assert!(
            ascent.current >= sweep_start_value - monotone_tol,
            "sweep {sweeps} decreased the value: {sweep_start_value} -> {}",
            ascent.current
        );
        if !improved {
            converged = true;
            break;
        }
    }

    // Return every pooled buffer; the solver outlives the descent (the
    // finishers materialize through it) and is recycled by them.
    let Ascent {
        solver,
        ws,
        chk,
        caps,
        transfers,
        power,
        prices,
        ..
    } = ascent;
    chk.recycle(&mut ws.arena);
    prices.recycle(&mut ws.arena);
    ws.arena.put_f64(power);
    (
        DescentState {
            caps,
            outcome: ProfileSearchOutcome {
                sweeps,
                transfers,
                converged,
                probe_stats: ws.stats.since(stats_before),
            },
        },
        solver,
    )
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

    /// The gate's fallback: an anchor whose prices are uncertifiable settles
    /// nothing unprobed — every gate is the plain ε-probe, one evaluation
    /// each — while the same anchor, priced, settles gates for free.
    #[test]
    fn an_uncertifiable_anchor_probes_every_gate() {
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
        let opts = ProfileSearchOptions::default();
        let (refined, _, out) = profile_search(&inst, &naive_profile(&inst), &opts);
        assert!(out.converged);
        let power: Vec<f64> = (0..3).map(|r| inst.machines()[r].power()).collect();
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = Ascent::anchored(&inst, refined.caps().to_vec(), power, &opts, &mut ws);
        let pairs: Vec<[(usize, f64); 2]> = (0..3)
            .flat_map(|from| (0..3).map(move |to| [(from, -1.0), (to, 1.0)]))
            .filter(|dir| dir[0].0 != dir[1].0)
            .collect();

        let mut unprobed = 0;
        for dir in &pairs {
            let Some(dm) = ascent.step_limit(dir) else {
                continue;
            };
            let gate = ascent.gate(dir, dm * 1e-3, dm);
            assert!(!gate.open, "the incumbent is converged");
            unprobed += usize::from(gate.value.is_nan());
        }
        assert!(unprobed > 0, "a priced optimum settles gates unprobed");

        ascent.prices = PriceBlocks::new();
        assert!(!ascent.prices.is_certifiable() && !ascent.prices_stale);
        for dir in &pairs {
            let Some(dm) = ascent.step_limit(dir) else {
                continue;
            };
            let before = ascent.ws.stats.probes;
            let gate = ascent.gate(dir, dm * 1e-3, dm);
            assert_eq!(ascent.ws.stats.probes, before + 1, "one probe per gate");
            let plain = ascent.probe(dir, dm * 1e-3);
            assert_eq!(gate.value.to_bits(), plain.to_bits());
            assert!(!gate.open);
        }
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
