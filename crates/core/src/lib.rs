#![warn(missing_docs)]
// Indexed loops over parallel arrays (times/loads/flops per task) are the
// dominant idiom here and clearer than iterator zips of 3+ sequences.
#![allow(clippy::needless_range_loop)]

//! The DSCT-EA scheduling algorithms — the primary contribution of
//! *"Scheduling Machine Learning Compressible Inference Tasks with Limited
//! Energy Budget"* (da Silva Barros et al., ICPP 2024).
//!
//! The problem: `n` compressible inference tasks with deadlines and concave
//! piecewise-linear accuracy functions must be scheduled on `m` machines of
//! heterogeneous speed and energy efficiency, under a global energy budget
//! `B`, maximizing total accuracy. Deciding the machine of each task is
//! NP-hard; the fractional relaxation (tasks divisible across machines) is
//! a convex program solvable combinatorially.
//!
//! Modules, mirroring the paper's structure:
//!
//! - [`problem`] — instance types (§3 model);
//! - [`schedule`] — schedules, feasibility validation, metrics;
//! - [`algo_single`] — Algorithm 1: optimal single-machine fractional solve;
//! - [`profile`] — energy profiles (§3.2) and the naive profile;
//! - [`algo_naive`] — Algorithm 2: `ComputeNaiveSolution`;
//! - [`algo_refine`] — Algorithm 3: `RefineProfile` (iterated to a KKT point);
//! - [`profile_search`] — profile-level coordinate ascent subsuming Alg. 3;
//! - [`fr_opt`] — Algorithm 4: `DSCT-EA-FR-OPT`, the exact fractional solver;
//! - [`approx`] — Algorithm 5: `DSCT-EA-APPROX` with its guarantee;
//! - [`guarantee`] — the absolute performance bound `G` (Eq. 14);
//! - [`baselines`] — `EDF-NoCompression` and `EDF-3CompressionLevels` (§6);
//! - [`residual`] — residual instances for online rolling-horizon re-plans;
//! - [`replan`] — the re-solve engine the online service and every
//!   server shard cell replan through, with the admission certificate;
//! - [`fr_dual`] — weak-duality upper bounds on the fractional optimum
//!   for any work prices (the certificate's arithmetic);
//! - [`renewable`] — extension: time-varying (renewable) energy supply;
//! - [`lp_model`] — the DSCT-EA-FR linear program for [`dsct_lp`] (§3.2);
//! - [`mip_model`] — the full DSCT-EA MIP for [`dsct_mip`] (§3);
//! - [`soa`] — struct-of-arrays lanes and the scratch arena behind the
//!   solve hot path (DESIGN.md §15);
//! - [`staged`] — extension: stage-DAG tasks on DVFS machines, solved by
//!   lowering to the flat model and realizing timed placements back
//!   (DESIGN.md §17);
//! - [`solver`] — the uniform [`solver::Solver`] trait every algorithm
//!   above implements (the API the experiment sweeps solve through);
//! - [`run_indexed`] — the workspace's one scoped fan-out: the experiment
//!   sweeps and the sharded server's `finish` run on it.

pub mod algo_naive;
pub mod algo_refine;
pub mod algo_single;
pub mod approx;
pub mod baselines;
pub mod fr_dual;
pub mod fr_opt;
pub mod guarantee;
mod kernels;
pub mod lp_model;
pub mod mip_model;
pub mod oracle;
pub mod problem;
pub mod profile;
pub mod profile_search;
pub mod renewable;
pub mod replan;
pub mod residual;
pub mod schedule;
pub mod soa;
pub mod solver;
pub mod staged;

use solver::SolverContext;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Time-feasibility tolerance in seconds.
pub const EPS_TIME: f64 = 1e-9;
/// Energy-feasibility tolerance (absolute joules on top of a relative term).
pub const EPS_ENERGY: f64 = 1e-6;
/// Work (GFLOP) tolerance.
pub const EPS_FLOPS: f64 = 1e-7;

/// Cores this process may run on (`std::thread::available_parallelism`,
/// 1 when the OS will not say), resolved once per process. The OS call
/// is a `sched_getaffinity` plus cgroup file reads — tens of
/// microseconds — so every "0 = all cores" thread-count knob in the
/// workspace resolves through this cache instead of paying it per
/// call. The value is frozen at first use: a later affinity or cgroup
/// change is not seen for the life of the process.
pub fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Runs `work(ctx, i)` for every `i < n` on `threads` workers (`0` = all
/// cores, clamped to `n`) and returns the results in index order.
///
/// Workers claim indices from one atomic cursor and each owns one
/// [`SolverContext`]; each keeps the `(index, result)` pairs it produced,
/// and the caller places them by index once every worker has joined, so
/// the order never depends on which worker ran what. With at most one
/// worker (`threads = 1`, or `n ≤ 1`) everything runs inline on the
/// caller and nothing is spawned. The workers are scoped to the call:
/// nothing stays parked between calls. A panic in `work` propagates to
/// the caller.
pub fn run_indexed<T: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(&mut SolverContext, usize) -> T + Sync,
) -> Vec<T> {
    let threads = match threads {
        0 => available_cores(),
        t => t,
    }
    .min(n);
    let cursor = AtomicUsize::new(0);
    let worker = || {
        let mut ctx = SolverContext::new();
        let mut done = Vec::new();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            done.push((i, work(&mut ctx, i)));
        }
        done
    };
    if threads <= 1 {
        // One worker claims the indices in order.
        return worker().into_iter().map(|(_, out)| out).collect();
    }
    let mut slots: Vec<Option<T>> = std::iter::repeat_with(|| None).take(n).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
        for handle in handles {
            let done = handle
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            for (i, out) in done {
                slots[i] = Some(out);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index executed"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    #[test]
    fn fan_out_returns_results_in_index_order() {
        // 8 workers over 5 indices covers `threads > n`.
        for (threads, n) in [(1, 40), (2, 40), (8, 40), (8, 5)] {
            let out = run_indexed(threads, n, |_, i| 10 + 2 * i);
            assert_eq!(out, (0..n).map(|i| 10 + 2 * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fan_out_runs_empty_and_single_inputs_inline() {
        let caller = std::thread::current().id();
        for n in [0, 1] {
            let out = run_indexed(8, n, |_, i| (i, std::thread::current().id()));
            assert_eq!(out, vec![(0, caller); n], "n = {n} must not spawn");
        }
    }

    #[test]
    fn fan_out_runs_items_on_more_than_one_thread() {
        // Each item waits (up to a deadline) until both have started, which
        // only happens when two workers hold one item each at once.
        let started = AtomicUsize::new(0);
        let met = run_indexed(2, 2, |_, _| {
            started.fetch_add(1, Ordering::SeqCst);
            let t0 = Instant::now();
            while started.load(Ordering::SeqCst) < 2 && t0.elapsed() < Duration::from_secs(10) {
                std::thread::yield_now();
            }
            started.load(Ordering::SeqCst) == 2
        });
        assert_eq!(met, [true, true], "the two items never ran side by side");
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for threads in [1, 3] {
            let run = std::panic::AssertUnwindSafe(|| {
                run_indexed(threads, 6, |_, i| assert_ne!(i, 4, "item 4"))
            });
            assert!(
                std::panic::catch_unwind(run).is_err(),
                "{threads} threads: the panic of item 4 was swallowed"
            );
        }
    }
}
