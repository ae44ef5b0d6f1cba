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
//! `δ` from one machine's cap to the other's, choosing `δ` by an exact line
//! search (below), and sweeps until no pairwise transfer improves. This
//! subsumes the task-level transfer pass of [`crate::algo_refine`] and
//! escapes its local optima, because each probe re-solves the whole
//! allocation rather than moving a single task's work; energy "trapped" in
//! caps a machine cannot use (deadline-bound) is surfaced automatically —
//! shrinking such a cap costs `V` nothing.
//!
//! # One evaluator
//!
//! Every probe the search issues evaluates `V` at the incumbent caps
//! shifted along a transfer direction, i.e. at a profile differing from
//! the incumbent in ≤ 3 coordinates. The incumbent is anchored in a
//! [`ValueCheckpoint`] ([`NaiveSolver::checkpoint_into`]). A gate probe is
//! a Δ-probe against it ([`NaiveSolver::value_delta`]): only the affected
//! suffix of the capacity transform is recomputed and the greedy reruns
//! on bitmask capacity buckets. A line-search probe also needs the prices
//! at the stepped caps, so it anchors a second checkpoint there and prices
//! that. Probes never mutate the incumbent's checkpoint, which is
//! re-anchored after every accepted transfer, so rolling back to the
//! incumbent between probes is exact.
//!
//! # The gated sweep
//!
//! A sweep scans the ordered pairs `(from, to)` once, in that order. Each
//! pair passes one gate, and the gate is one rule applied in three
//! stages: *a direction matters only if some step of its ray `[0, δ_max]`
//! can clear the gain tolerance*.
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
//! Then, for a gate the sign test leaves open, the same prices bound what
//! the last stage measures, `g(ε) − g(0)` at the gate step `ε`, without
//! evaluating `V`: weak duality over the finite step, counting the block
//! deadlines the step's caps cross ([`PriceBlocks::step_bound`]). The
//! sign test's linear bound is this one's slope at `0+` with the
//! crossings dropped, and the crossings are the kinks inside `(0, ε)` —
//! a source cap passing a tight prefix, a sink saturating at a deadline
//! — that turn a ray the sign test sees rising into one the ε-probe
//! finds falling. When the bound, plus the slop and scaled by
//! `δ_max/ε`, stays under half the gain tolerance, the ε-probe could not
//! have opened the gate, and it is closed unprobed. It closes most of the
//! gates the sign test leaves open, and since it bounds the probe's gain
//! from above it closes none the probe would have opened: what is
//! decided does not move.
//!
//! Last, for a gate neither bound closes, as one ε-probe at `10⁻³` of
//! the step limit: by concavity `g(δ) − g(0) ≤ (δ/ε)·(g(ε) − g(0))` for
//! `δ ≥ ε`, so a gate gain that `δ_max/ε` cannot scale past the gain
//! tolerance rules out `[ε, δ_max]` (the `(0, ε)` sliver is a heuristic
//! gap, validated against the LP optimum in the test suite). A pair whose
//! gate stays open runs the line search and, when that clears the gain
//! tolerance, moves the incumbent before the next pair is looked at.
//!
//! A closed gate is one whose line search would have been rejected, so
//! the certificates change which evaluations run, never what is decided;
//! builds with `debug_assertions` probe every closed gate anyway, assert
//! that a gate the step bound closed fails the ε-probe's test and, where
//! its ε-step rises, that no step of a grid over the range it ruled out
//! clears the gain tolerance — by `V` alone, without the prices that
//! closed it. The scan runs on the calling thread: callers that want
//! parallelism run many solves at once.
//!
//! # The triple polish
//!
//! A sweep that moves nothing is followed by the triple polish: one
//! source into two sinks, or two sources into one sink, at splits
//! λ ∈ {0.25, 0.5, 0.75}, each through the same gate and line search. The
//! first transfer it makes hands control back to the sweeps. At a stall
//! most of its `O(m³)` orientations have no room: a source's cap sits at
//! 0 or a sink's at `d_max`. So before any step limit the polish reads
//! each machine's room once per call. A machine can give when
//! `caps[r]·P_r ≠ 0` and take when `max(d_max − caps[r], 0)·P_r ≠ 0`. An
//! orientation with a source that cannot give, or a sink that cannot
//! take, is skipped before its three step limits. That machine's term of
//! the step limit is a zero numerator over a weight in `(0, 1]`, exactly 0
//! at every split, so the orientation had no room to move. A weight in
//! `(0, 1]` cannot round a nonzero numerator to 0 either, so no
//! orientation with room is skipped: the same gates run in the same
//! order. Builds with `debug_assertions` compute the three step limits of
//! every skipped orientation and assert that none has room.
//!
//! # The line search
//!
//! Along a direction the transfer objective `g(δ) = V(p + δ·dir)` is
//! concave and piecewise linear on `[0, δ_max]`, so its maximum sits on a
//! breakpoint and two supporting lines pin it down: for any `x`, the line
//! through `(x, g(x))` with slope `σ_x = g′(x+)` lies above `g` everywhere
//! on the ray. Prices give that slope exactly. `V` is an LP value in its
//! right-hand side, so its one-sided derivative along a move is the
//! minimum, over the LP's optimal duals, of the duals times the move's
//! effect on the right-hand side — [`PriceBlocks::gain_bound`] of a
//! one-joule step. By weak duality any optimal dual's slope is a
//! supergradient, so the line is valid on both sides of `x`, not only
//! ahead of it. At the incumbent the slope is free (its gate built the
//! prices); at an interior step it costs a checkpoint and a price build.
//!
//! The search keeps the tightest rising line (left) and the tightest
//! falling one (right); their minimum is an upper envelope of `g`, which
//! peaks where they cross. Each probe goes to that peak (to `δ_max` while
//! no falling line exists). A probe on the piece of either line meets the
//! peak, closing the gap; any other probe adds the line of a piece the
//! envelope had not met, so the walk ends after a few probes on a
//! certificate: the peak is within `LINE_GAP·gain_tol` of the best probe,
//! or at most `current + gain_tol`, which rejects the transfer on the spot.
//! A ray rising to its end returns exactly `δ_max`. The builder's slop
//! rides on every line, so a certificate holds up to it.
//!
//! Why prices and not finite-difference chords: a chord's slope is an
//! average, not a supergradient. One that straddles a kink understates
//! the slope ahead of it and hides the maximum, and a narrow one cancels
//! in floating point. An incumbent whose prices are uncertifiable has no
//! free slope; its gate's chord through `(0, V)` and `(ε, g(ε))` serves as
//! the left line, which by concavity bounds `g` on `[ε, δ_max]` only — the
//! range the gate itself reasons about.

use crate::algo_naive::{
    NaiveSolution, NaiveSolver, PriceBlocks, ProbeStats, ValueCheckpoint, ValueFnWorkspace,
};
use crate::problem::Instance;
use crate::profile::EnergyProfile;

/// The line search's stopping gap, as a share of the gain tolerance: a
/// search stops once its envelope shows that no step of the ray beats the
/// best probe by more than this.
const LINE_GAP: f64 = 1e-2;

/// Probes one line search may spend before it stops uncertified. Each
/// probe either certifies or adds a supporting line of a linear piece the
/// envelope had not met, so a search ends on a certificate in a few probes;
/// the guard only stops a walk whose last gap rounding keeps open.
const LINE_SEARCH_GUARD: usize = 40;

/// Rounding allowance, as a share of the gain tolerance, when a reference
/// probe is held to a line search's bound: a Δ-probe and the checkpoints
/// the envelope is built from sum the same greedy in different orders.
#[cfg(any(test, debug_assertions))]
const REFERENCE_NOISE: f64 = 1e-2;

/// Grid intervals over a ray in the debug cross-checks of closed gates and
/// line searches.
#[cfg(debug_assertions)]
const REFERENCE_GRID: usize = 16;

/// Full sweeps over all machine pairs a search may run before it stops
/// unconverged.
const MAX_SWEEPS: usize = 64;

/// Minimum accuracy improvement, relative to the instance's maximum total
/// accuracy, for a transfer to be applied (the search's `gain_tol`).
const REL_GAIN_TOL: f64 = 1e-10;

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

/// A supporting line of the concave transfer objective `g`:
/// `g(δ) ≤ value + slope·(δ − at)` wherever the line is valid.
#[derive(Debug, Clone, Copy)]
struct Support {
    at: f64,
    value: f64,
    slope: f64,
}

impl Support {
    fn eval(&self, delta: f64) -> f64 {
        self.value + self.slope * (delta - self.at)
    }
}

/// Where the envelope `min(lo, hi)` peaks on `[lo.at, hi.at]` — on
/// `[lo.at, delta_max]` while there is no `hi` — and its value there.
fn envelope_peak(lo: &Support, hi: Option<&Support>, delta_max: f64) -> (f64, f64) {
    match hi {
        _ if lo.slope <= 0.0 => (lo.at, lo.value),
        None => (delta_max, lo.eval(delta_max)),
        Some(hi) => {
            let cross = (hi.value - hi.slope * hi.at - (lo.value - lo.slope * lo.at))
                / (lo.slope - hi.slope);
            let x = cross.clamp(lo.at, hi.at);
            (x, lo.eval(x).min(hi.eval(x)))
        }
    }
}

/// What [`Ascent::line_search`] found on a ray.
#[derive(Debug)]
struct LineSearch {
    /// The best step probed, `0` when no probe beat the incumbent.
    delta: f64,
    /// `g(delta)`.
    value: f64,
    /// The envelope's bound on `g` over the searched ray at exit. The
    /// search stopped on a certificate when `bound − value` is within the
    /// line gap or `bound` is under the acceptance bar; otherwise the guard
    /// or an unpriceable probe stopped it. Only the debug cross-check and
    /// the tests read it.
    #[cfg(any(test, debug_assertions))]
    bound: f64,
}

/// The search's evaluator and its incumbent: the caps, their value, and
/// the [`ValueCheckpoint`] anchored at them that every probe runs
/// against. The evaluator is the solve's, borrowed; the workspace is
/// borrowed so callers (worker threads of the experiment engine) reuse
/// its buffers across many solves.
struct Ascent<'s, 'w> {
    solver: &'s NaiveSolver,
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
    /// Dual prices of the incumbent, rebuilt at the first gate after each
    /// re-anchor (`prices_stale`).
    prices: PriceBlocks,
    prices_stale: bool,
    /// The line search's scratch: the caps, checkpoint and prices of the
    /// step it is probing.
    probe_caps: Vec<f64>,
    probe_chk: ValueCheckpoint,
    probe_prices: PriceBlocks,
}

/// What [`Ascent::gate`] learned about a direction.
struct Gate {
    /// The gate step.
    eps: f64,
    /// `V` at the gate step; NaN when the prices settled the gate unprobed.
    value: f64,
    /// Whether some step of the ray can still clear the gain tolerance.
    open: bool,
}

impl<'s, 'w> Ascent<'s, 'w> {
    /// Anchors the search at `caps` (`power` by machine index) on
    /// `solver`, built for `inst`, with the checkpoint and price buffers
    /// drawn from the workspace's arena.
    fn anchored(
        solver: &'s NaiveSolver,
        inst: &Instance,
        caps: Vec<f64>,
        power: Vec<f64>,
        ws: &'w mut ValueFnWorkspace,
    ) -> Self {
        let mut chk = ValueCheckpoint::new_in(&mut ws.arena);
        let prices = PriceBlocks::new_in(&mut ws.arena);
        let probe_caps = ws.arena.take_f64();
        let probe_chk = ValueCheckpoint::new_in(&mut ws.arena);
        let probe_prices = PriceBlocks::new_in(&mut ws.arena);
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
            gain_tol: REL_GAIN_TOL * inst.total_max_accuracy().max(1.0),
            prices,
            prices_stale: true,
            probe_caps,
            probe_chk,
            probe_prices,
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

    /// Builds the incumbent's prices if an accepted transfer left them
    /// stale.
    fn refresh_prices(&mut self) {
        if self.prices_stale {
            self.solver
                .price_blocks_into(self.ws, &self.chk, &mut self.prices);
            self.prices_stale = false;
        }
    }

    /// `g′(δ+)` per joule along `dir` at the profile `caps` that `prices`
    /// price: the minimum over their optimal duals of the directional
    /// derivative of Algorithm 2's right-hand side ([`PriceBlocks::gain_bound`]
    /// of a one-joule step). `+∞` when the prices are uncertifiable.
    fn ray_slope(&self, dir: &Direction, caps: &[f64], prices: &PriceBlocks) -> f64 {
        let speeds = self.solver.speeds();
        let mut moves = [(0.0f64, 0.0f64); 3];
        for (slot, &(r, w)) in moves.iter_mut().zip(dir) {
            *slot = (caps[r], speeds[r] * w / self.power[r]);
        }
        prices.gain_bound(&moves[..dir.len()])
    }

    /// `g(delta)` by a checkpoint anchored at the stepped caps
    /// (`probe_chk`), and the supporting line its prices (`probe_prices`)
    /// put through it — `None` when they are uncertifiable. By weak
    /// duality the line bounds `g` on the whole ray, both sides of `delta`:
    /// any optimal dual's slope is a supergradient of `g` there.
    fn probe_priced(&mut self, dir: &Direction, delta: f64) -> (f64, Option<Support>) {
        let (changed, len) = direction_changed(dir, &self.caps, &self.power, self.d_max, delta);
        self.probe_caps.clone_from(&self.caps);
        for &(r, cap) in &changed[..len] {
            self.probe_caps[r] = cap;
        }
        let value = self
            .solver
            .checkpoint_into(self.ws, &self.probe_caps, &mut self.probe_chk);
        self.solver
            .price_blocks_into(self.ws, &self.probe_chk, &mut self.probe_prices);
        let support = self.probe_prices.is_certifiable().then(|| Support {
            at: delta,
            value: value + self.probe_prices.slop(),
            slope: self.ray_slope(dir, &self.probe_caps, &self.probe_prices),
        });
        (value, support)
    }

    /// Exact maximization of the concave, piecewise-linear transfer
    /// objective `g(δ) = V(incumbent stepped δ joules along dir)` over
    /// `[0, delta_max]`, by an envelope of supporting lines.
    ///
    /// The left line is free at a certifiable incumbent: it passes through
    /// `(0, V)` with slope `g′(0+)` from the incumbent's prices. At an
    /// uncertifiable one the gate's chord through `(0, V)` and `chord =
    /// (ε, g(ε))` stands in; by concavity it bounds `g` on `[ε, delta_max]`
    /// only, the range the gate's ε-probe reasons about. Each probe lands
    /// where the two lines cross (at `delta_max` while no right line
    /// exists), anchors a checkpoint there and prices it, and its line
    /// replaces the left one when it still rises and the right one
    /// otherwise. A probe on the piece of an existing line meets the
    /// envelope's peak, so every probe either closes the gap or adds a
    /// piece of `g` the envelope had not met.
    ///
    /// Stops on a certificate — the peak is within `LINE_GAP · gain_tol`
    /// of the best probe, or no higher than `current + gain_tol`, which
    /// decides the transfer's rejection with no further probe — or,
    /// uncertified, on [`LINE_SEARCH_GUARD`] or an unpriceable probe.
    fn line_search(&mut self, dir: &Direction, chord: (f64, f64), delta_max: f64) -> LineSearch {
        self.refresh_prices();
        let mut found = LineSearch {
            delta: 0.0,
            value: self.current,
            #[cfg(any(test, debug_assertions))]
            bound: f64::INFINITY,
        };
        let mut lo = if self.prices.is_certifiable() {
            Support {
                at: 0.0,
                value: self.current + self.prices.slop(),
                slope: self.ray_slope(dir, &self.caps, &self.prices),
            }
        } else {
            let (eps, at_eps) = chord;
            if at_eps > found.value {
                (found.delta, found.value) = (eps, at_eps);
            }
            Support {
                at: eps,
                value: at_eps,
                slope: (at_eps - self.current) / eps,
            }
        };
        let mut hi: Option<Support> = None;
        let mut probes = 0usize;
        loop {
            let (x, bound) = envelope_peak(&lo, hi.as_ref(), delta_max);
            #[cfg(any(test, debug_assertions))]
            {
                found.bound = bound;
            }
            if bound <= self.current + self.gain_tol
                || bound - found.value <= LINE_GAP * self.gain_tol
            {
                return found;
            }
            if probes == LINE_SEARCH_GUARD || x <= lo.at || hi.is_some_and(|h| x >= h.at) {
                return found;
            }
            let (value, support) = self.probe_priced(dir, x);
            probes += 1;
            if value > found.value {
                (found.delta, found.value) = (x, value);
            }
            match support {
                None => return found,
                Some(line) if line.slope > 0.0 => lo = line,
                Some(line) => hi = Some(line),
            }
        }
    }

    /// Line-searches `dir` and, when the best step clears the gain
    /// tolerance, moves the incumbent there and re-anchors. Returns
    /// whether the incumbent moved.
    fn try_transfer(&mut self, dir: &Direction, gate: &Gate, delta_max: f64) -> bool {
        let chord = (gate.eps, gate.value);
        let found = self.line_search(dir, chord, delta_max);
        #[cfg(debug_assertions)]
        self.assert_exact(dir, chord, delta_max, &found);
        if found.value > self.current + self.gain_tol {
            let (changed, len) =
                direction_changed(dir, &self.caps, &self.power, self.d_max, found.delta);
            for &(r, cap) in &changed[..len] {
                self.caps[r] = cap;
            }
            self.current = found.value;
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
        self.refresh_prices();
        self.prices.is_certifiable() && {
            let bound = self.ray_slope(dir, &self.caps, &self.prices) * delta_max;
            bound.max(0.0) + self.prices.slop() <= 0.5 * self.gain_tol
        }
    }

    /// Whether the incumbent's prices bound the ε-probe's gain under the
    /// ε-probe's own test: weak duality over the finite step `eps`
    /// ([`PriceBlocks::step_bound`], the deadlines the step crosses
    /// counted), plus the slop, scaled by `delta_max/eps`, stays under
    /// half the gain tolerance; never at an uncertifiable incumbent, whose
    /// bound is `+∞`. The prices are fresh ([`Ascent::certified`] ran
    /// first).
    fn step_certified(&self, dir: &Direction, eps: f64, delta_max: f64) -> bool {
        let (changed, len) = direction_changed(dir, &self.caps, &self.power, self.d_max, eps);
        let speeds = self.solver.speeds();
        let mut moves = [(0.0f64, 0.0f64, 0.0f64); 3];
        for (slot, &(r, cap)) in moves.iter_mut().zip(&changed[..len]) {
            *slot = (speeds[r], self.caps[r], cap);
        }
        let bound = self.prices.step_bound(&moves[..len]) + self.prices.slop();
        bound * (delta_max / eps) <= 0.5 * self.gain_tol
    }

    /// The ε-probe's test: whether `V` at the gate step, scaled by
    /// concavity to `delta_max`, clears the gain tolerance.
    fn opens(&self, value: f64, eps: f64, delta_max: f64) -> bool {
        value > self.current && (value - self.current) * (delta_max / eps) > self.gain_tol
    }

    /// The one gate both sweeps call — *a direction matters only if its
    /// ray can clear `gain_tol`* — in three stages, the first two of which
    /// evaluate nothing: a sign test on the incumbent's dual prices over
    /// the whole ray; the same prices' finite-step bound on the gate step
    /// `eps`, held to the ε-probe's test; and, when neither decides, one
    /// probe at `eps`: by concavity `g(δ) − g(0) ≤ (δ/ε)·(g(ε) − g(0))`
    /// for `δ ≥ ε`, so a gate gain that `delta_max/eps` cannot scale past
    /// `gain_tol` closes `[ε, delta_max]` just as a failing gate does. The
    /// second stage bounds that very gain from above, so it closes a gate
    /// only where the probe would have.
    fn gate(&mut self, dir: &Direction, eps: f64, delta_max: f64) -> Gate {
        let closed = Gate {
            eps,
            value: f64::NAN,
            open: false,
        };
        if self.certified(dir, delta_max) {
            #[cfg(debug_assertions)]
            self.assert_closed(dir, eps, delta_max, None);
            return closed;
        }
        if self.step_certified(dir, eps, delta_max) {
            #[cfg(debug_assertions)]
            {
                let stats = self.ws.stats;
                let value = self.probe(dir, eps);
                assert!(
                    !self.opens(value, eps, delta_max),
                    "the step bound closed {dir:?}, whose ε-probe gains {:e} at {eps:e} of \
                     {delta_max:e}, gain_tol {:e}",
                    value - self.current,
                    self.gain_tol
                );
                self.assert_closed(dir, eps, delta_max, Some(value));
                self.ws.stats = stats;
            }
            return closed;
        }
        let value = self.probe(dir, eps);
        let open = self.opens(value, eps, delta_max);
        #[cfg(debug_assertions)]
        if !open {
            self.assert_closed(dir, eps, delta_max, Some(value));
        }
        Gate { eps, value, open }
    }

    /// Debug cross-check of a gate [`Ascent::gate`] closed, by `V` alone:
    /// probes it at `eps` when the prices closed it unprobed, and, had that
    /// value passed the plain `> current` test, asserts that no step of a
    /// dense grid over the range the gate ruled out — `[0, delta_max]` for
    /// the prices, `[ε, delta_max]` for the ε-probe — clears the acceptance
    /// bar. (A value at or under `current` rules out `[ε, delta_max]` by
    /// concavity alone.) The probe counters are restored, so both build
    /// profiles report the same `probes`.
    #[cfg(debug_assertions)]
    fn assert_closed(&mut self, dir: &Direction, eps: f64, delta_max: f64, probed: Option<f64>) {
        let stats = self.ws.stats;
        let value = probed.unwrap_or_else(|| self.probe(dir, eps));
        if value > self.current {
            let from = if probed.is_some() { eps } else { 0.0 };
            let (delta, best) = self.dense_max(dir, from, delta_max, REFERENCE_GRID);
            let (delta, best) = if value > best {
                (eps, value)
            } else {
                (delta, best)
            };
            assert!(
                best <= self.current + (1.0 + REFERENCE_NOISE) * self.gain_tol,
                "closed gate {dir:?} (probed: {}) gains {:e} at step {delta:e} of \
                 {delta_max:e}, gain_tol {:e}",
                probed.is_some(),
                best - self.current,
                self.gain_tol
            );
        }
        self.ws.stats = stats;
    }

    /// Debug cross-check of every line search [`Ascent::try_transfer`]
    /// runs: no step of a dense grid over the searched ray may rise above
    /// the envelope's exit bound, so a certified search's best probe is
    /// within the line gap of the grid's. The probe counters are restored.
    #[cfg(debug_assertions)]
    fn assert_exact(
        &mut self,
        dir: &Direction,
        chord: (f64, f64),
        delta_max: f64,
        found: &LineSearch,
    ) {
        let stats = self.ws.stats;
        let from = if self.prices.is_certifiable() {
            0.0
        } else {
            chord.0
        };
        let (delta, value) = self.dense_max(dir, from, delta_max, REFERENCE_GRID);
        assert!(
            value <= found.bound + REFERENCE_NOISE * self.gain_tol,
            "line search on {dir:?} stopped at {:e} with bound {}, but g({delta:e}) = {value}",
            found.delta,
            found.bound
        );
        self.ws.stats = stats;
    }

    /// The reference line maximizer: `g` on `points + 1` evenly spaced
    /// steps of `[from, to]` by Δ-probes, and the best of them.
    #[cfg(any(test, debug_assertions))]
    fn dense_max(&mut self, dir: &Direction, from: f64, to: f64, points: usize) -> (f64, f64) {
        let mut best = (from, f64::NEG_INFINITY);
        for k in 0..=points {
            let delta = from + (to - from) * (k as f64 / points as f64);
            let value = self.probe(dir, delta);
            if value > best.1 {
                best = (delta, value);
            }
        }
        best
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
                let gate = self.gate(&dir, dm * 1e-3, dm);
                if gate.open {
                    improved |= self.try_transfer(&dir, &gate, dm);
                }
            }
        }
        improved
    }

    /// Room flags of machine `r` at the incumbent: [`GIVES`] when a
    /// step can shrink its cap, [`TAKES`] when one can grow it — the
    /// numerators of its [`direction_step_limit`] terms, nonzero.
    fn room(&self, r: usize) -> u32 {
        let mut flags = 0;
        if self.caps[r] * self.power[r] != 0.0 {
            flags |= GIVES;
        }
        if (self.d_max - self.caps[r]).max(0.0) * self.power[r] != 0.0 {
            flags |= TAKES;
        }
        flags
    }

    /// Triple polish, run only at pairwise stalls: one-source/two-sink and
    /// two-source/one-sink directions with a few split ratios. Pairwise
    /// coordinate ascent on a piecewise-linear concave function can stall
    /// at kinks whose escape direction moves three coordinates; the first
    /// improving trio hands control back to the cheap pairwise sweeps.
    ///
    /// The machines' room is read once per call ([`Ascent::room`]; the
    /// caps only move on the transfer that ends it), and roomless trio
    /// orientations are skipped before their step limits (module docs,
    /// "The triple polish").
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
        let mut room = self.ws.arena.take_u32();
        room.extend((0..m).map(|r| self.room(r)));
        let moved = 'search: {
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
                            let dirs = trio_directions(a, b, c, orient);
                            if !trio_has_room(&room, a, b, c, orient) {
                                #[cfg(debug_assertions)]
                                for dir in &dirs {
                                    assert!(
                                        self.step_limit(dir).is_none(),
                                        "the room test skipped {dir:?}, which has room"
                                    );
                                }
                                continue;
                            }
                            let mut dms = [0.0f64; 3];
                            let mut eps = f64::INFINITY;
                            for (k, dir) in dirs.iter().enumerate() {
                                if let Some(dm) = self.step_limit(dir) {
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
                                if gate.open && self.try_transfer(&dirs[k], &gate, dms[k]) {
                                    break 'search true;
                                }
                            }
                        }
                    }
                }
            }
            false
        };
        self.ws.arena.put_u32(room);
        moved
    }
}

/// Room flag: a step can shrink the machine's cap (`caps[r]·P_r ≠ 0`).
const GIVES: u32 = 1;
/// Room flag: a step can grow the machine's cap
/// (`max(d_max − caps[r], 0)·P_r ≠ 0`).
const TAKES: u32 = 2;

/// The three split directions of a trio: orientation 0 moves energy from
/// `a` into `b` and `c`, orientation 1 from `b` and `c` into `a`, at
/// splits λ ∈ {0.25, 0.5, 0.75}.
fn trio_directions(a: usize, b: usize, c: usize, orient: u8) -> [[(usize, f64); 3]; 3] {
    [0.25, 0.5, 0.75].map(|lambda| {
        if orient == 0 {
            [(a, -1.0), (b, lambda), (c, 1.0 - lambda)]
        } else {
            [(b, -lambda), (c, -(1.0 - lambda)), (a, 1.0)]
        }
    })
}

/// Whether every source of the trio orientation can give and every sink
/// can take, by the machines' [`Ascent::room`] flags. When one cannot, no
/// split of the orientation has room (module docs, "The triple polish").
fn trio_has_room(room: &[u32], a: usize, b: usize, c: usize, orient: u8) -> bool {
    let (single, pair) = if orient == 0 {
        (GIVES, TAKES)
    } else {
        (TAKES, GIVES)
    };
    room[a] & single != 0 && room[b] & pair != 0 && room[c] & pair != 0
}

/// Runs the pairwise profile ascent from `start`. Returns the refined
/// profile, its exact solution, and search statistics.
pub fn profile_search(
    inst: &Instance,
    start: &EnergyProfile,
) -> (EnergyProfile, NaiveSolution, ProfileSearchOutcome) {
    let mut ws = ValueFnWorkspace::new();
    let solver = NaiveSolver::new_in(inst, &mut ws.arena);
    let found = profile_search_in(&solver, inst, start, &mut ws);
    solver.recycle(&mut ws.arena);
    found
}

/// [`profile_search`] on the caller's evaluator, built for `inst`:
/// slack absorption, gated pairwise sweeps and triple polish at stalls
/// probe through it, and [`NaiveSolver::solution_at`] materializes the
/// refined profile's schedule from the final incumbent's checkpoint,
/// without another greedy.
pub(crate) fn profile_search_in(
    solver: &NaiveSolver,
    inst: &Instance,
    start: &EnergyProfile,
    ws: &mut ValueFnWorkspace,
) -> (EnergyProfile, NaiveSolution, ProfileSearchOutcome) {
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

    let mut ascent = Ascent::anchored(solver, inst, caps, power, ws);
    let mut sweeps = 0usize;
    let mut converged = false;

    // Accepted transfers require a strict `gain_tol` improvement, so the
    // value must ascend sweep over sweep.
    #[cfg(debug_assertions)]
    let monotone_tol = 1e-9 * inst.total_max_accuracy().max(1.0);
    while sweeps < MAX_SWEEPS {
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

    // The incumbent's checkpoint is anchored at the final caps: its takes
    // are the refined profile's work. Then return every pooled buffer but
    // the solver's, which belongs to the caller.
    debug_assert_eq!(ascent.chk.caps(), ascent.caps, "the incumbent is anchored");
    let solution = solver.solution_at(ascent.ws, &ascent.chk);
    let Ascent {
        ws,
        chk,
        caps,
        transfers,
        power,
        prices,
        probe_caps,
        probe_chk,
        probe_prices,
        ..
    } = ascent;
    for chk in [chk, probe_chk] {
        chk.recycle(&mut ws.arena);
    }
    for prices in [prices, probe_prices] {
        prices.recycle(&mut ws.arena);
    }
    ws.arena.put_f64(power);
    ws.arena.put_f64(probe_caps);
    let outcome = ProfileSearchOutcome {
        sweeps,
        transfers,
        converged,
        probe_stats: ws.stats.since(stats_before),
    };
    (EnergyProfile::new(caps), solution, outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algo_naive::compute_naive_solution;
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
        let (profile, sol, out) = profile_search(&inst, &start);
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
        let (_, sol, _) = profile_search(&inst, &start);
        let acc_refined = sol.schedule.total_accuracy(&inst);
        // m0: 1 s → 1000 GFLOP (10 J). Remaining 30 J on m1 → 0.3 s → 300
        // GFLOP. Total 1300 GFLOP → 0.52 accuracy.
        assert!(
            acc_refined >= 0.52 - 1e-6,
            "refined accuracy {acc_refined} below achievable 0.52"
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
        let (refined, _, out) = profile_search(&inst, &naive_profile(&inst));
        assert!(out.converged);
        let power: Vec<f64> = (0..3).map(|r| inst.machines()[r].power()).collect();
        let mut ws = ValueFnWorkspace::new();
        let solver = NaiveSolver::new(&inst);
        let mut ascent = Ascent::anchored(&solver, &inst, refined.caps().to_vec(), power, &mut ws);
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

    /// The paper's generator in miniature (θ ~ U(0.1, 1.0), five-segment
    /// curves, `ρ = 0.35`, `β = 0.5`, machines from the paper's ranges).
    fn paper_like(n: usize, m: usize, seed: u64) -> Instance {
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
        let d_max = 0.35 * accs.iter().map(|a| a.f_max()).sum::<f64>() / park.total_speed();
        let mut deadlines: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..1.0f64).max(1e-6) * d_max)
            .collect();
        deadlines.sort_by(f64::total_cmp);
        *deadlines.last_mut().unwrap() = d_max;
        let budget = 0.5 * d_max * park.total_power();
        let tasks = deadlines
            .into_iter()
            .zip(accs)
            .map(|(d, a)| Task::new(d, a));
        Instance::new(tasks.collect(), park, budget).unwrap()
    }

    fn ascent_at<'s, 'w>(
        solver: &'s NaiveSolver,
        inst: &Instance,
        caps: &[f64],
        ws: &'w mut ValueFnWorkspace,
    ) -> Ascent<'s, 'w> {
        let power = (0..inst.num_machines())
            .map(|r| inst.machines()[r].power())
            .collect();
        Ascent::anchored(solver, inst, caps.to_vec(), power, ws)
    }

    /// The line search of `dir` with the gate's chord at `10⁻³` of the step
    /// limit, the step limit, and the probes the search itself spent.
    fn search(ascent: &mut Ascent, dir: &Direction) -> (LineSearch, f64, u64) {
        let dm = ascent.step_limit(dir).expect("the ray has room");
        let eps = dm * 1e-3;
        let chord = (eps, ascent.probe(dir, eps));
        let before = ascent.ws.stats.probes;
        let found = ascent.line_search(dir, chord, dm);
        (found, dm, ascent.ws.stats.probes - before)
    }

    /// The test's reference for `max g` on `[from, to]`: a 129-point grid,
    /// refined by a 64-point grid over the cells around its best point.
    fn reference(ascent: &mut Ascent, dir: &Direction, from: f64, to: f64) -> f64 {
        let cell = (to - from) / 128.0;
        let (at, coarse) = ascent.dense_max(dir, from, to, 128);
        let (_, fine) = ascent.dense_max(dir, (at - cell).max(from), (at + cell).min(to), 64);
        coarse.max(fine)
    }

    /// What every search must satisfy against a reference value `best` of
    /// its ray: the envelope bounds `g`, a certificate holds whenever the
    /// guard did not fire, and then no step beats the result by more than
    /// the line gap — or none clears the acceptance bar.
    fn check_against_reference(ascent: &Ascent, found: &LineSearch, best: f64, what: &str) {
        let gap = LINE_GAP * ascent.gain_tol;
        let bar = ascent.current + ascent.gain_tol;
        let noise = REFERENCE_NOISE * ascent.gain_tol;
        assert!(
            found.bound - found.value <= gap || found.bound <= bar,
            "{what}: exit certificate {:e} above the gap {gap:e}: the guard fired ({found:?})",
            found.bound - found.value
        );
        assert!(
            best <= found.bound + noise,
            "{what}: reference {best} above the envelope's bound {}",
            found.bound
        );
        assert!(
            found.value >= best - gap - noise || best <= bar + noise,
            "{what}: found {} but the reference reaches {best}",
            found.value
        );
    }

    /// Exactness on real directions: every ordered pair (a third of them
    /// at `m = 10`) at the naive profile and after one sweep, on seeded
    /// `n = 40` and `n = 100` instances, against the dense reference.
    #[test]
    fn line_search_matches_a_dense_reference_on_real_directions() {
        let mut searched = 0;
        let mut probes = 0;
        for (n, m, seeds) in [(40usize, 6usize, 0..4u64), (100, 10, 10..13)] {
            for seed in seeds {
                let inst = paper_like(n, m, seed);
                let solver = NaiveSolver::new(&inst);
                let mut ws = ValueFnWorkspace::new();
                let mut ascent = ascent_at(&solver, &inst, naive_profile(&inst).caps(), &mut ws);
                for round in 0..3 {
                    for from in 0..m {
                        for to in
                            (0..m).filter(|&to| to != from && (m < 10 || (from + to) % 3 == 0))
                        {
                            let dir = [(from, -1.0), (to, 1.0)];
                            if ascent.step_limit(&dir).is_none() {
                                continue;
                            }
                            let (found, dm, spent) = search(&mut ascent, &dir);
                            let best = reference(&mut ascent, &dir, 0.0, dm);
                            let what = format!("n={n} m={m} seed {seed} round {round} {dir:?}");
                            check_against_reference(&ascent, &found, best, &what);
                            searched += 1;
                            probes += spent;
                        }
                    }
                    ascent.pairwise_sweep();
                }
            }
        }
        assert!(searched > 300, "{searched} searches");
        assert!(
            probes <= 4 * searched,
            "{probes} probes for {searched} searches"
        );
    }

    /// Two machines of 1000 GFLOP/s — `m0` at 50 GFLOP/J (20 W), `m1` at
    /// 100 GFLOP/J (10 W) — anchored at `caps`, with `tasks`.
    fn two_machines(tasks: Vec<Task>, caps: [f64; 2]) -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(1000.0, 50.0).unwrap(),
            Machine::from_efficiency(1000.0, 100.0).unwrap(),
        ]);
        Instance::new(tasks, park, caps[0] * 20.0 + caps[1] * 10.0).unwrap()
    }

    /// Energy moves from `m0` to `m1`.
    const TO_M1: [(usize, f64); 2] = [(0, -1.0), (1, 1.0)];

    /// A ray that rises by `9·10⁻³` per joule until `m1`'s cap crosses the
    /// steep task's deadline `1` at `10·t` J, then falls at `8.95·10⁻³` per
    /// joule until `m0`'s cap runs out at 10 J; every deadline stays at or
    /// above `m0`'s cap, so the last piece is priced at 10 J as it falls.
    fn kinked(t: f64) -> (Instance, [f64; 2]) {
        let caps = [0.5, 1.0 - t];
        let tasks = vec![
            Task::new(1.0, acc(&[(0.0, 0.0), (5000.0, 0.9)])),
            Task::new(10.0, acc(&[(0.0, 0.0), (1e6, 0.5)])),
        ];
        (two_machines(tasks, caps), caps)
    }

    #[test]
    fn a_flat_ray_is_rejected_without_a_probe() {
        let caps = [5.0, 2.0];
        let tasks = vec![Task::new(10.0, acc(&[(0.0, 0.0), (100.0, 0.9)]))];
        let inst = two_machines(tasks, caps);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let (found, dm, spent) = search(&mut ascent, &TO_M1);
        assert_eq!(spent, 0);
        assert_eq!((found.delta, found.value), (0.0, ascent.current));
        assert!(found.bound <= ascent.current + ascent.gain_tol);
        let best = reference(&mut ascent, &TO_M1, 0.0, dm);
        assert_eq!(best, ascent.current, "the ray is flat");
    }

    #[test]
    fn a_ray_rising_to_its_end_returns_exactly_the_step_limit() {
        let caps = [5.0, 2.0];
        let tasks = vec![Task::new(10.0, acc(&[(0.0, 0.0), (1e6, 0.9)]))];
        let inst = two_machines(tasks, caps);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let (found, dm, _) = search(&mut ascent, &TO_M1);
        assert_eq!(dm, 80.0, "m1 reaches the horizon first");
        assert_eq!(found.delta.to_bits(), dm.to_bits());
        assert_eq!(found.value.to_bits(), ascent.probe(&TO_M1, dm).to_bits());
        let best = reference(&mut ascent, &TO_M1, 0.0, dm);
        check_against_reference(&ascent, &found, best, "rising ray");
    }

    /// The debug cross-check of a closed gate evaluates `V` along the ray
    /// and takes nothing from the prices: handed a rising ray, it fires.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "closed gate")]
    fn the_closed_gate_check_fires_on_a_rising_ray() {
        let caps = [5.0, 2.0];
        let tasks = vec![Task::new(10.0, acc(&[(0.0, 0.0), (1e6, 0.9)]))];
        let inst = two_machines(tasks, caps);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let dm = ascent.step_limit(&TO_M1).expect("the ray has room");
        ascent.assert_closed(&TO_M1, 1e-3 * dm, dm, None);
    }

    #[test]
    fn a_kink_inside_the_gate_step_is_found() {
        let (inst, caps) = kinked(1e-4);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let (found, dm, _) = search(&mut ascent, &TO_M1);
        let kink = 1e-3;
        assert!(kink < 1e-3 * dm, "the kink lies inside (0, ε)");
        let at_kink = ascent.probe(&TO_M1, kink);
        assert!(at_kink > ascent.current + 1e3 * ascent.gain_tol);
        let best = reference(&mut ascent, &TO_M1, 0.0, dm).max(at_kink);
        check_against_reference(&ascent, &found, best, "kink in (0, ε)");
        assert!(
            (found.delta - kink).abs() <= 1e-9,
            "stopped at {}",
            found.delta
        );
    }

    /// A ray that rises at `0+` and turns down before the gate step: the
    /// price sign test leaves its gate open, and the finite-step bound,
    /// which sees `m1`'s cap cross the steep task's deadline inside the
    /// step, closes it without a probe, as the ε-probe would have (builds
    /// with `debug_assertions` probe it inside the gate and check that).
    #[test]
    fn a_ray_turning_down_inside_the_gate_step_closes_unprobed() {
        let (inst, caps) = kinked(1e-5);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let dm = ascent.step_limit(&TO_M1).expect("the ray has room");
        let eps = 1e-3 * dm;
        assert!(
            !ascent.certified(&TO_M1, dm),
            "the sign test leaves it open"
        );
        let before = ascent.ws.stats;
        let gate = ascent.gate(&TO_M1, eps, dm);
        assert_eq!(ascent.ws.stats, before, "closed without a probe");
        assert!(!gate.open && gate.value.is_nan());

        let kink = 1e-4;
        assert!(kink < eps, "the kink lies inside (0, ε)");
        assert!(ascent.probe(&TO_M1, kink) > ascent.current, "the ray rises");
        let at_eps = ascent.probe(&TO_M1, eps);
        assert!(at_eps < ascent.current, "and turns down before ε");
        assert!(!ascent.opens(at_eps, eps, dm), "the ε-probe closes it too");
    }

    #[test]
    fn a_kink_next_to_the_step_limit_is_found() {
        // As `a_ray_rising_to_its_end…`, but a second task's deadline sits
        // 4·10⁻⁹ s under the horizon: `g` peaks 4·10⁻⁸ J = 5·10⁻¹⁰·δ_max
        // before the end and falls there by more than the line gap.
        let caps = [5.0, 2.0];
        let tasks = vec![
            Task::new(10.0 - 4e-9, acc(&[(0.0, 0.0), (1e5, 0.9)])),
            Task::new(10.0, acc(&[(0.0, 0.0), (1e6, 0.5)])),
        ];
        let inst = two_machines(tasks, caps);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let (found, dm, _) = search(&mut ascent, &TO_M1);
        let kink = (10.0 - 4e-9 - caps[1]) * 10.0;
        assert!(dm - kink <= 1e-9 * dm);
        let at_kink = ascent.probe(&TO_M1, kink);
        let at_end = ascent.probe(&TO_M1, dm);
        assert!(
            at_kink - at_end > LINE_GAP * ascent.gain_tol,
            "the end is not good enough"
        );
        let best = reference(&mut ascent, &TO_M1, 0.0, dm).max(at_kink);
        check_against_reference(&ascent, &found, best, "kink at the end");
        assert!(found.delta < dm);
    }

    /// Without prices at the anchor the gate's chord is the left line: the
    /// search is exact on `[ε, δ_max]` and agrees with the priced search.
    #[test]
    fn an_uncertifiable_anchor_searches_from_the_gate_chord() {
        let inst = paper_like(40, 6, 7);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut priced = ValueFnWorkspace::new();
        let caps = naive_profile(&inst).caps().to_vec();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let mut reference_ascent = ascent_at(&solver, &inst, &caps, &mut priced);
        ascent.prices = PriceBlocks::new();
        ascent.prices_stale = false;
        let mut moved = 0;
        for from in 0..6 {
            for to in (0..6).filter(|&to| to != from) {
                let dir = [(from, -1.0), (to, 1.0)];
                let Some(dm) = ascent.step_limit(&dir) else {
                    continue;
                };
                let (found, _, _) = search(&mut ascent, &dir);
                assert!(found.delta == 0.0 || found.delta >= 1e-3 * dm);
                let best = reference(&mut ascent, &dir, 1e-3 * dm, dm);
                check_against_reference(&ascent, &found, best, &format!("chord {dir:?}"));
                let (with_prices, _, _) = search(&mut reference_ascent, &dir);
                let gap = LINE_GAP * ascent.gain_tol;
                assert!(found.value <= with_prices.value + gap + REFERENCE_NOISE * ascent.gain_tol);
                moved += usize::from(found.value > ascent.current + ascent.gain_tol);
            }
        }
        assert!(moved > 0, "some ray of the naive profile improves");
    }

    /// A search stops as soon as its envelope shows no step can clear the
    /// acceptance bar: a falling ray at the anchor's line, a ray whose only
    /// rise is a sliver under `gain_tol` at the first probe's.
    #[test]
    fn a_search_under_the_bar_stops_at_the_probe_that_proves_it() {
        let (inst, caps) = kinked(1e-10);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let from_m1 = [(1, -1.0), (0, 1.0)];
        let (found, _, spent) = search(&mut ascent, &from_m1);
        assert_eq!(spent, 0, "the anchor's line falls");
        assert!(found.bound <= ascent.current + ascent.gain_tol && found.value == ascent.current);

        let (found, dm, spent) = search(&mut ascent, &TO_M1);
        assert_eq!(spent, 1, "the probe at δ_max closes the envelope");
        assert!(found.bound <= ascent.current + ascent.gain_tol);
        assert!(found.value <= ascent.current + ascent.gain_tol);
        let best = reference(&mut ascent, &TO_M1, 0.0, dm).max(ascent.probe(&TO_M1, 1e-9));
        assert!(best <= found.bound + REFERENCE_NOISE * ascent.gain_tol);
    }

    /// The triple polish's room test on four machines anchored with one
    /// cap at 0 (it cannot give) and one at `d_max` (it cannot take): it
    /// skips the orientations that need either, and exactly those have no
    /// split with room; the polish then runs with the skips (and, in
    /// builds with `debug_assertions`, their step-limit cross-check).
    #[test]
    fn the_trio_room_test_skips_exactly_the_roomless_orientations() {
        let inst = paper_like(30, 4, 5);
        let solver = NaiveSolver::new(&inst);
        let mut ws = ValueFnWorkspace::new();
        let d_max = inst.d_max();
        let caps = [0.0, d_max, 0.3 * d_max, 0.6 * d_max];
        let mut ascent = ascent_at(&solver, &inst, &caps, &mut ws);
        let room: Vec<u32> = (0..4).map(|r| ascent.room(r)).collect();
        assert_eq!(room, [TAKES, GIVES, GIVES | TAKES, GIVES | TAKES]);
        let (mut skipped, mut kept) = (0, 0);
        for a in 0..4 {
            for b in (0..4).filter(|&b| b != a) {
                for c in (b + 1..4).filter(|&c| c != a) {
                    for orient in 0..2u8 {
                        let has_room = trio_directions(a, b, c, orient)
                            .iter()
                            .any(|dir| ascent.step_limit(dir).is_some());
                        assert_eq!(trio_has_room(&room, a, b, c, orient), has_room);
                        if has_room {
                            kept += 1;
                        } else {
                            skipped += 1;
                        }
                    }
                }
            }
        }
        assert_eq!((skipped, kept), (14, 10), "the skip fires");
        ascent.polish_triples();
    }
}
