//! Weak-duality upper bounds on the DSCT-EA-FR optimum: the dual
//! function of the linear program [`crate::lp_model`] builds, evaluated
//! on any instance for any task work prices.
//!
//! Price the work rows `f_j = Σ_r s_r·t_jr` at `λ_j ≥ 0` and the budget
//! row at `μ ≥ 0`. The Lagrangian then separates by task curve and by
//! machine, and its supremum over the remaining constraints is
//!
//! `D(μ,λ) = Σ_j a_j(0) + μB + Σ_{j,q} w_jq·(σ_jq − λ_j)⁺
//!           + Σ_r Σ_k (d_k − d_{k−1})·(Λ_k·s_r − μ·P_r)⁺`
//!
//! with tasks in EDF order, `d_0 = 0` and `Λ_k = max_{i≥k} λ_i`. A task
//! buys the work of every segment steeper than its price. A second of
//! machine `r` in `(d_{k−1}, d_k]` may serve any task due at or after
//! `d_k`, so it earns the best of their prices less the energy it burns.
//! Every feasible schedule earns at most `D` (weak duality), so
//! `V*(inst) ≤ D(μ,λ)` for every such pair. Leaving one task out of the
//! sums is `D` for the instance without it, with the same prices.
//!
//! `D` is convex and piecewise linear in `μ`, with slope
//! `B − Σ_r P_r·d_{K_r(μ)}`, where `K_r(μ)` is the last task with
//! `Λ_k·s_r > μ·P_r`. The slope rises at the breakpoints `Λ_k·s_r/P_r`,
//! which each machine meets in order, so [`dual_bound`] minimises over
//! `μ` exactly by merging the machines' breakpoint lists until the slope
//! turns non-negative.

use crate::algo_naive::NaiveSolver;
use crate::problem::Instance;
use crate::soa::ScratchArena;

/// `D(μ,λ)` of `inst` with task `skip` left out (`None` keeps every
/// task), at `mu`, or at the exact minimiser over `μ ≥ 0` when `mu` is
/// `None`. `lambda` holds one price per task of `inst`; negative and NaN
/// prices read as 0, and the price of `skip` is ignored. `solver` must be
/// the evaluator built for `inst` (its slope lanes and deadlines are what
/// the sums walk). Scratch comes from `arena`; a warm arena allocates
/// nothing.
pub fn dual_bound(
    solver: &NaiveSolver,
    inst: &Instance,
    lambda: &[f64],
    skip: Option<usize>,
    mu: Option<f64>,
    arena: &mut ScratchArena,
) -> f64 {
    let deadlines = solver.deadlines();
    let n = deadlines.len();
    assert_eq!(lambda.len(), n, "one price per task");
    let price = |j: usize| lambda[j].max(0.0);
    let kept = |j: usize| Some(j) != skip;

    // The curve terms: each task's zero-work accuracy plus every segment
    // steeper than its price (flat segments never are).
    let mut value: f64 = (0..n)
        .filter(|&j| kept(j))
        .map(|j| inst.task(j).accuracy.a_min())
        .sum();
    let lanes = solver.lanes();
    for i in 0..lanes.len() {
        let j = lanes.task[i] as usize;
        if kept(j) {
            value += lanes.width[i] * (lanes.slope[i] - price(j)).max(0.0);
        }
    }

    // Runs of equal `Λ`, found from the back: `top[l]` rises with `l`,
    // and run `l` covers `(end[l + 1], end[l]]` (`end[runs] = 0`). Time
    // priced 0 earns nothing for `μ ≥ 0`, so it opens no run.
    let mut top = arena.take_f64();
    let mut end = arena.take_f64();
    let mut best = 0.0f64;
    for j in (0..n).rev().filter(|&j| kept(j)) {
        if price(j) > best {
            best = price(j);
            top.push(best);
            end.push(deadlines[j]);
        }
    }
    let width = |l: usize| end[l] - end.get(l + 1).copied().unwrap_or(0.0);
    let machines = inst.machines().machines();
    let budget = inst.budget();

    let mu = mu.unwrap_or_else(|| {
        // Slope just above 0: every priced second of every machine runs.
        let mut slope =
            budget - end.first().copied().unwrap_or(0.0) * inst.machines().total_power();
        let mut at = 0.0;
        let mut next = arena.take_usize();
        next.resize(machines.len(), 0);
        while slope < 0.0 {
            // The machine whose next run drops out first.
            let pick = (0..machines.len())
                .filter(|&r| next[r] < top.len())
                .map(|r| (top[next[r]] * machines[r].speed() / machines[r].power(), r))
                .min_by(|a, b| a.0.total_cmp(&b.0));
            let Some((breakpoint, r)) = pick else {
                break; // rounding kept the slope below 0 past the last breakpoint
            };
            at = breakpoint;
            slope += machines[r].power() * width(next[r]);
            next[r] += 1;
        }
        arena.put_usize(next);
        at
    });

    let mut time_value = 0.0;
    for l in 0..top.len() {
        let w = width(l);
        for mach in machines {
            time_value += w * (top[l] * mach.speed() - mu * mach.power()).max(0.0);
        }
    }
    arena.put_f64(top);
    arena.put_f64(end);
    value + mu * budget + time_value
}
