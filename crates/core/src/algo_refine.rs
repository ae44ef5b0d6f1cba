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
//! Each task's frontier — the slope and room of its next segment to grow
//! and of its last segment to shrink — is a function of `f_j` alone, and a
//! transfer moves the work of at most two tasks. The pass therefore keeps
//! every task's frontier in a cache and re-derives only the grown and the
//! shrunk task's after each transfer, instead of a binary search per task
//! per transfer. The scans read the cache in the same `(j, r)` order with
//! the same strict comparisons, so the pass makes the same transfers;
//! builds with `debug_assertions` check every cached frontier against a
//! fresh derivation as the scans read it.

use crate::problem::Instance;
use crate::schedule::FractionalSchedule;
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
/// without violating any (later) deadline.
/// Allocation-free (it runs after every accepted transfer, so like the
/// profile search's value probes it must not allocate per call): `out`
/// first holds the completion-time prefix, then is transformed in place
/// into the suffix minimum.
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

/// Runs the refinement in place on `schedule` (with per-task work `flops`
/// kept in sync), drawing on unspent budget as a ψ = 0 source and
/// stopping after at most `64·(n·(K+m) + 16)` transfers. Returns
/// convergence statistics.
pub fn refine_profile(
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

    // Deadline slack per (machine, task), refreshed after each transfer on
    // the machines involved.
    let mut slack: Vec<Vec<f64>> = (0..m)
        .map(|r| {
            let mut v = vec![0.0; n];
            deadline_slack(inst, schedule, r, &mut v);
            v
        })
        .collect();

    // Frontier per task at its current work, refreshed for the (at most
    // two) tasks each transfer moves.
    let frontier = |j: usize, f: f64| {
        let acc = &inst.task(j).accuracy;
        (grow_info(acc, f), shrink_info(acc, f))
    };
    let mut grow = Vec::with_capacity(n);
    let mut shrink = Vec::with_capacity(n);
    for (j, &f) in flops.iter().enumerate() {
        let (g, s) = frontier(j, f);
        grow.push(g);
        shrink.push(s);
    }

    let mut iterations = 0usize;
    let mut accuracy_gain = 0.0f64;
    let mut converged = false;

    while iterations < max_iters {
        // Best growth candidate: max ψ⁺ = gain-slope · E_r over (j, r)
        // with positive deadline slack.
        let mut best_grow: Option<(usize, usize, f64, f64, f64)> = None; // (j, r, psi, slope, room_flops)
        for j in 0..n {
            debug_assert_eq!(
                grow[j],
                frontier(j, flops[j]).0,
                "stale grow frontier of task {j}"
            );
            let Some((gslope, room_flops)) = grow[j] else {
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

        // Best source: unspent budget (ψ = 0) or the shrink candidate with
        // the lowest ψ⁻ = loss-slope · E_{r'}.
        let slack_energy = (budget - energy_used).max(0.0);
        let mut best_shrink: Option<(usize, usize, f64, f64)> = None; // (j', r', psi, room_energy)
        for j in 0..n {
            debug_assert_eq!(
                shrink[j],
                frontier(j, flops[j]).1,
                "stale shrink frontier of task {j}"
            );
            let Some((lslope, drain_flops)) = shrink[j] else {
                continue;
            };
            for r in 0..m {
                let t = schedule.t(j, r);
                if t <= crate::EPS_TIME {
                    continue;
                }
                if j == gj && r == gr {
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
        let grow_energy_cap = (slack[gr][gj] * power[gr]).min(groom_flops / eff[gr]);
        let delta_e = grow_energy_cap.min(source_energy);
        if delta_e <= min_transfer {
            converged = true;
            break;
        }

        // Apply: grow (gj, gr) …
        let dt_grow = delta_e / power[gr];
        let df_grow = delta_e * eff[gr];
        let acc_before_g = inst.task(gj).accuracy.eval(flops[gj]);
        *schedule.t_mut(gj, gr) += dt_grow;
        flops[gj] = (flops[gj] + df_grow).min(inst.task(gj).f_max());
        accuracy_gain += inst.task(gj).accuracy.eval(flops[gj]) - acc_before_g;
        energy_used += delta_e;
        deadline_slack(inst, schedule, gr, &mut slack[gr]);
        (grow[gj], shrink[gj]) = frontier(gj, flops[gj]);

        // … and shrink the source if it was a task.
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
            (grow[sj], shrink[sj]) = frontier(sj, flops[sj]);
        }

        iterations += 1;
    }

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

    /// The cached-frontier pass makes the rescanning pass's transfers, bit
    /// for bit: every processing time, every task's work and the iteration
    /// count agree, from the naive solution of each seeded instance.
    #[test]
    fn cached_frontiers_replay_the_rescanning_pass() {
        let mut slack_drawn = 0;
        let mut transfers = 0;
        for seed in 0..24 {
            let (rho, beta) = [(0.35, 0.5), (0.1, 0.8), (0.6, 0.3)][seed as usize % 3];
            let inst = seeded(30, 5, seed, rho, beta);
            let naive = compute_naive_solution(&inst, &naive_profile(&inst));
            let (mut cached, mut cached_flops) = (naive.schedule.clone(), naive.flops.clone());
            let (mut rescan, mut rescan_flops) = (naive.schedule.clone(), naive.flops.clone());
            let a = refine_profile(&inst, &mut cached, &mut cached_flops);
            let b = refine_rescan(&inst, &mut rescan, &mut rescan_flops);
            assert_eq!(a.iterations, b.iterations, "seed {seed}");
            assert_eq!(a.converged, b.converged, "seed {seed}");
            assert_eq!(
                a.accuracy_gain.to_bits(),
                b.accuracy_gain.to_bits(),
                "seed {seed}"
            );
            for j in 0..inst.num_tasks() {
                assert_eq!(
                    cached_flops[j].to_bits(),
                    rescan_flops[j].to_bits(),
                    "seed {seed} task {j}"
                );
                for r in 0..inst.num_machines() {
                    assert_eq!(
                        cached.t(j, r).to_bits(),
                        rescan.t(j, r).to_bits(),
                        "seed {seed} t({j}, {r})"
                    );
                }
            }
            transfers += a.iterations;
            slack_drawn += usize::from(cached.energy(&inst) > naive.schedule.energy(&inst) + 1e-9);
        }
        assert!(transfers >= 50, "{transfers} transfers");
        assert!(slack_drawn > 0, "no instance drew on the slack source");
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
