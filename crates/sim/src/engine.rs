//! The deterministic experiment engine.
//!
//! An experiment is a grid of cells (instance configurations), a set of
//! [`Solver`]s, and a replication count. The engine flattens the grid
//! into (cell × replication × solver) *work items*, executes them on a
//! pool of scoped worker threads, and aggregates per-cell statistics,
//! with three properties:
//!
//! - **Determinism under any thread count.** Each item's RNG seed is
//!   derived by [`derive_seed`] (splitmix64 mixing) from
//!   `(master_seed, cell_id, rep_id)` alone — never from thread identity
//!   or execution order. Results land in a slot array indexed by item id,
//!   and per-cell aggregates are folded in item-id order, so the
//!   [`ExperimentRun::cells`] section is bit-identical whether the run
//!   used 1 thread or 64. (Wall-clock fields — solve times, time-limit
//!   hits — live in separate, explicitly nondeterministic sections.)
//! - **Work distribution.** Workers self-schedule from a shared injector:
//!   an atomic cursor over the frozen item list. Any idle worker claims
//!   the next unclaimed item, so a slow cell (one 60 s MIP solve) never
//!   blocks progress on the rest of the grid — the same load-balancing a
//!   work-stealing deque provides, without per-worker local queues,
//!   which coarse-grained items do not need.
//! - **Workspace reuse.** Each worker owns one [`SolverContext`], so the
//!   value-function probe cache amortizes across all items the worker
//!   executes ([`dsct_core::algo_naive::ValueFnWorkspace`]).
//!
//! Aggregates stream out as cells complete: the ordered collector holds
//! back per-item results until a cell's last item arrives, then folds and
//! emits that cell's [`CellSummary`] (see [`ExperimentPlan::run_streaming`]).
//!
//! The worker loop itself is [`dsct_core::run_indexed`], and every sweep
//! of this crate runs on it: the grid plans here, and the single-loop
//! experiments ([`crate::experiments::fig3`], `fig6`, `robustness`,
//! `staged`, `online`, `chaos`), which hand it a replication index and
//! fold the returned `Vec` in index order. The sharded server's final
//! fan-out (`dsct_server::ScheduleServer::finish`) is the same loop.

use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::{SolveError, Solver, SolverContext};
pub use dsct_core::WorkerStats;
use dsct_lp::Status;
use dsct_mip::MipStatus;
use dsct_workload::{generate, splitmix64, InstanceConfig};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Instant;

/// Derives one work item's RNG seed from the run's master seed and the
/// item's grid coordinates. Every solver of a `(cell, rep)` pair receives
/// the same seed — they must judge the *same* generated instance — and
/// the seed is a pure function of the coordinates, which is what makes
/// the engine deterministic under any scheduling of the items.
pub fn derive_seed(master_seed: u64, cell_id: u64, rep_id: u64) -> u64 {
    let a = splitmix64(master_seed);
    let b = splitmix64(a ^ cell_id.wrapping_mul(0xA24B_AED4_963E_E407));
    splitmix64(b ^ rep_id.wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// One grid cell: an instance configuration plus the subset of the plan's
/// solvers to run on it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellSpec {
    /// Display label (e.g. `"n=100"` or `"beta=0.3"`).
    pub label: String,
    /// Workload configuration the cell's instances are generated from.
    pub config: InstanceConfig,
    /// Indices into [`ExperimentPlan::solvers`] to run on this cell;
    /// `None` runs all of them. (Fig. 4 uses this to stop attempting the
    /// MIP beyond its size caps.)
    pub solvers: Option<Vec<usize>>,
}

impl CellSpec {
    /// Cell running every solver of the plan.
    pub fn new(label: impl Into<String>, config: InstanceConfig) -> Self {
        Self {
            label: label.into(),
            config,
            solvers: None,
        }
    }

    /// Cell restricted to a subset of the plan's solvers.
    pub fn with_solvers(
        label: impl Into<String>,
        config: InstanceConfig,
        solvers: Vec<usize>,
    ) -> Self {
        Self {
            label: label.into(),
            config,
            solvers: Some(solvers),
        }
    }

    fn active_solvers(&self, total: usize) -> Vec<usize> {
        match &self.solvers {
            Some(list) => list.clone(),
            None => (0..total).collect(),
        }
    }
}

/// A full experiment: grid + solver set + replication count + thread
/// budget.
pub struct ExperimentPlan {
    /// The grid cells.
    pub cells: Vec<CellSpec>,
    /// The solver set; cells reference solvers by index.
    pub solvers: Vec<Arc<dyn Solver>>,
    /// Replications per (cell, solver).
    pub replications: usize,
    /// Worker threads: `0` = all available cores, `1` = run inline on the
    /// calling thread (use for wall-clock timing studies, where worker
    /// contention would pollute the measurements).
    pub threads: usize,
    /// Master seed every item seed is derived from.
    pub master_seed: u64,
    /// Retain the per-item measurements in [`ExperimentRun::items`]
    /// (needed by drivers that pair solvers per replication, e.g.
    /// Table 1's FR-vs-LP agreement gap).
    pub keep_items: bool,
}

impl ExperimentPlan {
    /// Plan with one replication, all cores, master seed 0.
    pub fn new(cells: Vec<CellSpec>, solvers: Vec<Arc<dyn Solver>>) -> Self {
        Self {
            cells,
            solvers,
            replications: 1,
            threads: 0,
            master_seed: 0,
            keep_items: false,
        }
    }

    /// Sets the replication count.
    pub fn replications(mut self, replications: usize) -> Self {
        self.replications = replications;
        self
    }

    /// Sets the thread budget (see [`ExperimentPlan::threads`]).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the master seed.
    pub fn master_seed(mut self, master_seed: u64) -> Self {
        self.master_seed = master_seed;
        self
    }

    /// Retains per-item measurements on the run.
    pub fn keep_items(mut self, keep: bool) -> Self {
        self.keep_items = keep;
        self
    }
}

/// Deterministic measurements of one work item (one solver on one
/// generated instance). Everything here is a pure function of the
/// instance and the solver's options — no wall-clock state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemMeasure {
    /// Total accuracy, or `None` when the solve failed.
    pub total_accuracy: Option<f64>,
    /// Energy consumed (J).
    pub energy: Option<f64>,
    /// Tasks assigned to a machine.
    pub scheduled: Option<usize>,
    /// Upper bound certified by the solve, when the solver produces one.
    pub upper_bound: Option<f64>,
    /// The instance's maximum achievable total accuracy `Σ_j a_j^max`
    /// (normalization denominator for optimality-gap reporting).
    pub max_accuracy: f64,
    /// Tasks in the instance (per-task accuracy normalization).
    pub num_tasks: usize,
    /// Error rendering when the solve failed.
    pub error: Option<String>,
}

/// One retained work-item record (only with [`ExperimentPlan::keep_items`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemRecord {
    /// Cell index.
    pub cell: usize,
    /// Replication index.
    pub rep: usize,
    /// Solver index.
    pub solver: usize,
    /// Seed the instance was generated from.
    pub seed: u64,
    /// The deterministic measurements.
    pub measure: ItemMeasure,
    /// Wall-clock solve time (seconds; nondeterministic).
    pub solve_time: f64,
    /// Whether the solve stopped on a wall-clock limit (nondeterministic).
    pub timed_out: bool,
}

/// Per-cell, per-solver aggregate statistics (deterministic section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolverCellStats {
    /// Solver index in the plan.
    pub solver: usize,
    /// Solver display name.
    pub name: String,
    /// Total accuracy across successful replications.
    pub accuracy: SummaryStats,
    /// Mean per-task accuracy (total / n) across successful replications.
    pub mean_accuracy: SummaryStats,
    /// Energy consumed across successful replications.
    pub energy: SummaryStats,
    /// Certified upper bound (solvers that produce one).
    pub upper_bound: SummaryStats,
    /// Scheduled-task count across successful replications.
    pub scheduled: SummaryStats,
    /// Replications whose solve failed.
    pub failures: usize,
    /// Distinct error renderings observed (at most one kept per kind,
    /// in first-occurrence-by-replication order).
    pub errors: Vec<String>,
}

/// Per-cell aggregates (deterministic section of an [`ExperimentRun`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellSummary {
    /// Cell index in the plan.
    pub cell: usize,
    /// Cell label.
    pub label: String,
    /// Instance maximum total accuracy across replications.
    pub max_accuracy: SummaryStats,
    /// One entry per active solver, in solver-index order.
    pub solvers: Vec<SolverCellStats>,
}

/// Per-cell, per-solver wall-clock statistics (nondeterministic section).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverCellTiming {
    /// Solver index in the plan.
    pub solver: usize,
    /// Solve time over all replications (seconds).
    pub solve_time: SummaryStats,
    /// Replications that stopped on a wall-clock limit (with or without
    /// a usable incumbent).
    pub timeouts: usize,
}

/// Wall-clock statistics of one cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellTiming {
    /// Cell index in the plan.
    pub cell: usize,
    /// One entry per active solver, in solver-index order.
    pub solvers: Vec<SolverCellTiming>,
}

/// Whole-run timing of one solver across every cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverTiming {
    /// Solver display name.
    pub name: String,
    /// Items executed.
    pub solves: usize,
    /// Failed items.
    pub failures: usize,
    /// Total wall-clock time inside `solve` calls (seconds).
    pub total_time: f64,
}

/// The result of running an [`ExperimentPlan`].
///
/// [`ExperimentRun::cells`] (and [`ExperimentRun::items`], when kept) are
/// deterministic: bit-identical across runs with the same plan regardless
/// of thread count, as long as every solver's output is a pure function
/// of the instance (true for FR-OPT, APPROX, EDF, and limit-free LP/MIP;
/// a wall-clock time limit makes the LP/MIP *status* scheduling-
/// dependent). The timing and worker sections are wall-clock by nature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentRun {
    /// Master seed the run was derived from.
    pub master_seed: u64,
    /// Replications per (cell, solver).
    pub replications: usize,
    /// Worker threads actually used.
    pub threads_used: usize,
    /// Per-cell aggregates, in cell order (deterministic).
    pub cells: Vec<CellSummary>,
    /// Per-cell wall-clock statistics, in cell order.
    pub cell_timing: Vec<CellTiming>,
    /// Per-solver whole-run timing, in solver order.
    pub solver_timing: Vec<SolverTiming>,
    /// Per-worker utilization counters.
    pub workers: Vec<WorkerStats>,
    /// Retained per-item records (with [`ExperimentPlan::keep_items`]),
    /// in item order: cells × replications × active solvers.
    pub items: Option<Vec<ItemRecord>>,
    /// Wall-clock time of the whole run (seconds).
    pub wall_time: f64,
}

/// A frozen work item: everything a worker needs, precomputed.
struct WorkItem {
    cell: usize,
    rep: usize,
    solver: usize,
    seed: u64,
}

/// What a worker sends back per item.
struct ItemOutput {
    measure: ItemMeasure,
    solve_time: f64,
    timed_out: bool,
}

fn execute_item(
    item: &WorkItem,
    cells: &[CellSpec],
    solvers: &[Arc<dyn Solver>],
    ctx: &mut SolverContext,
) -> ItemOutput {
    let inst = generate(&cells[item.cell].config, item.seed);
    let solver = &solvers[item.solver];
    let t0 = Instant::now();
    let result = solver.solve_with(&inst, ctx);
    let solve_time = t0.elapsed().as_secs_f64();
    let timed_out = match &result {
        Ok(sol) => sol.stats.timed_out,
        Err(SolveError::LpNotOptimal(Status::TimeLimit)) => true,
        Err(SolveError::NoIncumbent(MipStatus::TimeLimit)) => true,
        Err(_) => false,
    };
    let measure = match result {
        Ok(sol) => ItemMeasure {
            total_accuracy: Some(sol.total_accuracy),
            energy: Some(sol.energy),
            scheduled: Some(sol.assignment.iter().filter(|a| a.is_some()).count()),
            upper_bound: sol.upper_bound,
            max_accuracy: inst.total_max_accuracy(),
            num_tasks: inst.num_tasks(),
            error: None,
        },
        Err(e) => ItemMeasure {
            total_accuracy: None,
            energy: None,
            scheduled: None,
            upper_bound: None,
            max_accuracy: inst.total_max_accuracy(),
            num_tasks: inst.num_tasks(),
            error: Some(e.to_string()),
        },
    };
    ItemOutput {
        measure,
        solve_time,
        timed_out,
    }
}

impl ExperimentPlan {
    /// Runs the plan. See [`ExperimentRun`] for the determinism contract.
    pub fn run(&self) -> ExperimentRun {
        self.run_streaming(|_| {})
    }

    /// Runs the plan, invoking `on_cell` with each cell's aggregate as
    /// soon as its last item completes (completion order, not cell
    /// order — a progress hook, not an ordering guarantee; the returned
    /// [`ExperimentRun::cells`] is always in cell order).
    pub fn run_streaming(&self, mut on_cell: impl FnMut(&CellSummary)) -> ExperimentRun {
        let t_run = Instant::now();

        // Freeze the item list: cells × replications × active solvers.
        // Item order is the canonical aggregation order; cell `c` owns
        // the contiguous range `cell_start[c]..cell_start[c + 1]`.
        let mut items: Vec<WorkItem> = Vec::new();
        let mut cell_start: Vec<usize> = Vec::with_capacity(self.cells.len() + 1);
        for (c, cell) in self.cells.iter().enumerate() {
            cell_start.push(items.len());
            for rep in 0..self.replications {
                let seed = derive_seed(self.master_seed, c as u64, rep as u64);
                for s in cell.active_solvers(self.solvers.len()) {
                    assert!(s < self.solvers.len(), "cell {c} references solver {s}");
                    items.push(WorkItem {
                        cell: c,
                        rep,
                        solver: s,
                        seed,
                    });
                }
            }
        }
        cell_start.push(items.len());
        let cell_range = |c: usize| cell_start[c]..cell_start[c + 1];

        // Per-cell hold-back: when a cell's last item lands, its
        // aggregate can stream out immediately.
        let mut remaining: Vec<usize> =
            (0..self.cells.len()).map(|c| cell_range(c).len()).collect();
        let (outputs, workers) = run_indexed(
            self.threads,
            items.len(),
            |ctx, i| execute_item(&items[i], &self.cells, &self.solvers, ctx),
            |i, slots| {
                let c = items[i].cell;
                remaining[c] -= 1;
                if remaining[c] == 0 {
                    let landed = slots[cell_range(c)]
                        .iter()
                        .map(|slot| slot.as_ref().expect("cell complete"));
                    on_cell(&self.summarize_cell(c, &items[cell_range(c)], landed));
                }
            },
        );

        // Fold the final (canonical, cell-ordered) aggregates from the
        // result array — identical no matter which worker produced each.
        let mut cells_out = Vec::with_capacity(self.cells.len());
        let mut timing_out = Vec::with_capacity(self.cells.len());
        for c in 0..self.cells.len() {
            let (cell_items, cell_outputs) = (&items[cell_range(c)], &outputs[cell_range(c)]);
            cells_out.push(self.summarize_cell(c, cell_items, cell_outputs.iter()));
            timing_out.push(self.time_cell(c, cell_items, cell_outputs));
        }
        let mut solver_timing: Vec<SolverTiming> = self
            .solvers
            .iter()
            .map(|s| SolverTiming {
                name: s.name().to_string(),
                solves: 0,
                failures: 0,
                total_time: 0.0,
            })
            .collect();
        for (item, out) in items.iter().zip(&outputs) {
            let t = &mut solver_timing[item.solver];
            t.solves += 1;
            t.total_time += out.solve_time;
            if out.measure.error.is_some() {
                t.failures += 1;
            }
        }
        let retained = self.keep_items.then(|| {
            items
                .iter()
                .zip(&outputs)
                .map(|(item, out)| ItemRecord {
                    cell: item.cell,
                    rep: item.rep,
                    solver: item.solver,
                    seed: item.seed,
                    measure: out.measure.clone(),
                    solve_time: out.solve_time,
                    timed_out: out.timed_out,
                })
                .collect()
        });

        ExperimentRun {
            master_seed: self.master_seed,
            replications: self.replications,
            threads_used: workers.len(),
            cells: cells_out,
            cell_timing: timing_out,
            solver_timing,
            workers,
            items: retained,
            wall_time: t_run.elapsed().as_secs_f64(),
        }
    }

    /// Folds cell `c`'s aggregate from its items and their outputs, in
    /// item-id order (= replication-major, solver-minor) — the canonical
    /// order that makes the fold deterministic.
    fn summarize_cell<'a>(
        &self,
        c: usize,
        items: &[WorkItem],
        outputs: impl Iterator<Item = &'a ItemOutput>,
    ) -> CellSummary {
        let cell = &self.cells[c];
        let active = cell.active_solvers(self.solvers.len());
        let mut per_solver: Vec<SolverCellStats> = active
            .iter()
            .map(|&s| SolverCellStats {
                solver: s,
                name: self.solvers[s].name().to_string(),
                accuracy: SummaryStats::new(),
                mean_accuracy: SummaryStats::new(),
                energy: SummaryStats::new(),
                upper_bound: SummaryStats::new(),
                scheduled: SummaryStats::new(),
                failures: 0,
                errors: Vec::new(),
            })
            .collect();
        let mut max_accuracy = SummaryStats::new();
        for (item, out) in items.iter().zip(outputs) {
            let stats = per_solver
                .iter_mut()
                .find(|p| p.solver == item.solver)
                .expect("active solver");
            let m = &out.measure;
            if item.solver == active[0] {
                max_accuracy.push(m.max_accuracy);
            }
            match m.total_accuracy {
                Some(acc) => {
                    stats.accuracy.push(acc);
                    stats.mean_accuracy.push(acc / m.num_tasks.max(1) as f64);
                }
                None => {
                    stats.failures += 1;
                    if let Some(e) = &m.error {
                        if !stats.errors.contains(e) {
                            stats.errors.push(e.clone());
                        }
                    }
                }
            }
            if let Some(e) = m.energy {
                stats.energy.push(e);
            }
            if let Some(ub) = m.upper_bound {
                stats.upper_bound.push(ub);
            }
            if let Some(s) = m.scheduled {
                stats.scheduled.push(s as f64);
            }
        }
        CellSummary {
            cell: c,
            label: cell.label.clone(),
            max_accuracy,
            solvers: per_solver,
        }
    }

    /// Folds cell `c`'s wall-clock statistics (nondeterministic section).
    fn time_cell(&self, c: usize, items: &[WorkItem], outputs: &[ItemOutput]) -> CellTiming {
        let mut per_solver: Vec<SolverCellTiming> = self.cells[c]
            .active_solvers(self.solvers.len())
            .iter()
            .map(|&s| SolverCellTiming {
                solver: s,
                solve_time: SummaryStats::new(),
                timeouts: 0,
            })
            .collect();
        for (item, out) in items.iter().zip(outputs) {
            let timing = per_solver
                .iter_mut()
                .find(|p| p.solver == item.solver)
                .expect("active solver");
            timing.solve_time.push(out.solve_time);
            if out.timed_out {
                timing.timeouts += 1;
            }
        }
        CellTiming {
            cell: c,
            solvers: per_solver,
        }
    }
}

impl ExperimentRun {
    /// The summary of cell `c` for solver index `s` (when active there).
    pub fn solver_stats(&self, c: usize, s: usize) -> Option<&SolverCellStats> {
        self.cells.get(c)?.solvers.iter().find(|p| p.solver == s)
    }

    /// The wall-clock stats of cell `c` for solver index `s`.
    pub fn solver_timing_at(&self, c: usize, s: usize) -> Option<&SolverCellTiming> {
        self.cell_timing
            .get(c)?
            .solvers
            .iter()
            .find(|p| p.solver == s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_core::solver::{ApproxSolver, EdfSolver, FrOptSolver};
    use dsct_workload::{MachineConfig, TaskConfig, ThetaDistribution};

    fn small_grid(betas: &[f64]) -> Vec<CellSpec> {
        betas
            .iter()
            .map(|&beta| {
                CellSpec::new(
                    format!("beta={beta:.1}"),
                    InstanceConfig {
                        tasks: TaskConfig::paper(
                            8,
                            ThetaDistribution::Uniform { min: 0.2, max: 1.0 },
                        ),
                        machines: MachineConfig::paper_random(2),
                        rho: 0.4,
                        beta,
                    },
                )
            })
            .collect()
    }

    fn solvers() -> Vec<Arc<dyn Solver>> {
        vec![
            Arc::new(ApproxSolver::new()),
            Arc::new(EdfSolver::no_compression()),
            Arc::new(EdfSolver::three_levels()),
        ]
    }

    #[test]
    fn serial_and_parallel_agree_bitwise() {
        let mk = |threads| {
            ExperimentPlan::new(small_grid(&[0.2, 0.5, 0.9]), solvers())
                .replications(3)
                .master_seed(11)
                .threads(threads)
                .keep_items(true)
                .run()
        };
        let serial = mk(1);
        let parallel = mk(4);
        assert_eq!(serial.cells, parallel.cells);
        // Items carry wall-clock solve times; compare measures only.
        let ms = |r: &ExperimentRun| -> Vec<ItemMeasure> {
            r.items
                .as_ref()
                .unwrap()
                .iter()
                .map(|i| i.measure.clone())
                .collect()
        };
        assert_eq!(ms(&serial), ms(&parallel));
        assert_eq!(serial.workers.len(), 1);
        assert_eq!(parallel.workers.len(), 4);
        let executed: usize = parallel.workers.iter().map(|w| w.items).sum();
        assert_eq!(executed, 3 * 3 * 3);
    }

    #[test]
    fn fan_out_returns_results_in_index_order() {
        // 8 workers over 5 indices covers `threads > n`.
        for (threads, n) in [(1, 40), (2, 40), (8, 40), (8, 5)] {
            let (out, workers) = run_indexed(threads, n, |_, i| 10 + 2 * i, |_, _| {});
            assert_eq!(out, (0..n).map(|i| 10 + 2 * i).collect::<Vec<_>>());
            assert_eq!(workers.len(), threads.min(n));
            assert_eq!(workers.iter().map(|w| w.items).sum::<usize>(), n);
        }
    }

    #[test]
    fn fan_out_runs_empty_and_single_inputs_inline() {
        let caller = std::thread::current().id();
        for n in [0, 1] {
            let (out, workers) =
                run_indexed(8, n, |_, i| (i, std::thread::current().id()), |_, _| {});
            assert_eq!(out, vec![(0, caller); n], "n = {n} must not spawn");
            assert_eq!(workers.len(), 1);
        }
    }

    #[test]
    fn on_result_sees_every_index_exactly_once() {
        for threads in [1, 3] {
            let mut seen = Vec::new();
            run_indexed(
                threads,
                17,
                |_, i| i * i,
                |i, slots| {
                    assert_eq!(slots[i], Some(i * i), "the slot lands before the hook");
                    seen.push(i);
                },
            );
            seen.sort_unstable();
            assert_eq!(seen, (0..17).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_panicking_item_panics_the_caller() {
        for threads in [1, 3] {
            let run = std::panic::AssertUnwindSafe(|| {
                run_indexed(threads, 6, |_, i| assert_ne!(i, 4, "item 4"), |_, _| {})
            });
            assert!(
                std::panic::catch_unwind(run).is_err(),
                "{threads} threads: the panic of item 4 was swallowed"
            );
        }
    }

    #[test]
    fn seeds_depend_only_on_coordinates() {
        let a = derive_seed(7, 3, 5);
        assert_eq!(a, derive_seed(7, 3, 5));
        assert_ne!(a, derive_seed(7, 3, 6));
        assert_ne!(a, derive_seed(7, 4, 5));
        assert_ne!(a, derive_seed(8, 3, 5));
    }

    #[test]
    fn solver_masks_restrict_cells() {
        let mut cells = small_grid(&[0.3, 0.6]);
        cells[1].solvers = Some(vec![1]);
        let run = ExperimentPlan::new(cells, solvers())
            .replications(2)
            .threads(2)
            .run();
        assert_eq!(run.cells[0].solvers.len(), 3);
        assert_eq!(run.cells[1].solvers.len(), 1);
        assert_eq!(run.cells[1].solvers[0].solver, 1);
        // Solver 0 ran only on cell 0: 2 replications.
        assert_eq!(run.solver_timing[0].solves, 2);
        assert_eq!(run.solver_timing[1].solves, 4);
    }

    #[test]
    fn streaming_emits_every_cell_once() {
        for threads in [1, 3] {
            let mut seen = Vec::new();
            let run = ExperimentPlan::new(small_grid(&[0.2, 0.5, 0.8]), solvers())
                .replications(2)
                .threads(threads)
                .run_streaming(|cell| seen.push(cell.clone()));
            seen.sort_by_key(|cell| cell.cell);
            assert_eq!(seen, run.cells, "{threads} threads");
        }
    }

    #[test]
    fn chain_ordering_holds_in_aggregates() {
        let run = ExperimentPlan::new(
            small_grid(&[0.4]),
            vec![
                Arc::new(FrOptSolver::new()) as Arc<dyn Solver>,
                Arc::new(ApproxSolver::new()),
                Arc::new(EdfSolver::three_levels()),
            ],
        )
        .replications(4)
        .master_seed(3)
        .run();
        let cell = &run.cells[0];
        let fr = &cell.solvers[0];
        let approx = &cell.solvers[1];
        let edf = &cell.solvers[2];
        assert_eq!(fr.failures, 0);
        assert!(approx.accuracy.mean() <= fr.accuracy.mean() + 1e-9);
        assert!(edf.accuracy.mean() <= fr.accuracy.mean() + 1e-9);
        assert!(cell.max_accuracy.mean() >= fr.accuracy.mean() - 1e-9);
    }
}
