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
//!   above implements (the API the experiment engine schedules against);
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

use serde::{Deserialize, Serialize};
use solver::SolverContext;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

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

/// Utilization counters of one [`run_indexed`] worker thread.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Items the worker executed.
    pub items: usize,
    /// Seconds the worker spent executing items (vs. idle/stealing).
    pub busy_time: f64,
    /// Value-function probes issued through the worker's context.
    pub probes: u64,
}

/// Runs `work(ctx, i)` for every `i < n` on `threads` workers (`0` = all
/// cores, clamped to `n`) and returns the results in index order, plus
/// one [`WorkerStats`] per worker.
///
/// Workers claim indices from one atomic cursor and each owns one
/// [`SolverContext`]; the calling thread stores each result in its slot
/// and then calls `on_result(i, slots)` — completion order, with `slots`
/// holding everything that has landed so far. With at most one worker
/// (`threads = 1`, or `n ≤ 1`) everything runs inline on the caller and
/// nothing is spawned. The workers are scoped to the call: nothing stays
/// parked between calls. A panic in `work` propagates to the caller.
pub fn run_indexed<T: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(&mut SolverContext, usize) -> T + Sync,
    mut on_result: impl FnMut(usize, &[Option<T>]),
) -> (Vec<T>, Vec<WorkerStats>) {
    let threads = match threads {
        0 => available_cores(),
        t => t,
    }
    .min(n);
    let cursor = AtomicUsize::new(0);
    let worker = |w: usize, emit: &mut dyn FnMut(usize, T)| {
        let mut ctx = SolverContext::new();
        let mut stats = WorkerStats {
            worker: w,
            items: 0,
            busy_time: 0.0,
            probes: 0,
        };
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let t0 = Instant::now();
            let out = work(&mut ctx, i);
            stats.busy_time += t0.elapsed().as_secs_f64();
            stats.items += 1;
            emit(i, out);
        }
        stats.probes = ctx.probe_stats().probes;
        stats
    };

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(n, || None);
    let mut land = |i: usize, out: T| {
        slots[i] = Some(out);
        on_result(i, &slots);
    };
    let workers = if threads <= 1 {
        vec![worker(0, &mut land)]
    } else {
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let (tx, worker) = (tx.clone(), &worker);
                    scope.spawn(move || {
                        // A failed send means the collector is gone (it
                        // panicked); the scope re-raises that panic.
                        worker(w, &mut |i, out| drop(tx.send((i, out))))
                    })
                })
                .collect();
            drop(tx);
            for (i, out) in rx {
                land(i, out);
            }
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let results = slots
        .into_iter()
        .map(|slot| slot.expect("every index executed"))
        .collect();
    (results, workers)
}
