//! The uniform solver API: every algorithm in the workspace — exact
//! fractional ([`crate::fr_opt`]), approximation ([`crate::approx`]),
//! EDF baselines ([`crate::baselines`]), and the general-purpose LP/MIP
//! paths ([`crate::lp_model`], [`crate::mip_model`]) — implements the
//! [`Solver`] trait and returns the same [`Solution`] struct.
//!
//! This is what makes a heterogeneous solver set schedulable as uniform
//! work items by the experiment engine (`dsct-sim`): a grid cell holds
//! `&[Arc<dyn Solver>]` and compares [`Solution`]s without knowing which
//! algorithm produced them. Options live as fields on each solver value
//! (e.g. [`LpSolver::opts`]), so a configured solver is a plain value
//! that can be cloned into worker threads. FR-OPT and APPROX have none
//! beyond the invariant switch every solver carries ([`SolverOptions`]).
//!
//! Solvers that probe the profile value function (FR-OPT and APPROX,
//! which embeds it) accept a [`SolverContext`] through
//! [`Solver::solve_with`]: the context owns the [`ValueFnWorkspace`], so
//! a worker thread reuses one set of probe buffers across all its work
//! items instead of reallocating per solve. A solve never spawns threads;
//! callers that want parallelism run many solves at once, one context
//! each.
//!
//! The PR-2 free-function shims (`solve_fr_opt`, `solve_approx`,
//! `edf_*`, `solve_fr_lp`, `solve_mip_exact`) are gone: the [`Solver`]
//! trait and the typed `solve_typed*` entry points on each solver struct
//! are the sole public API (see the README's migration table).

use crate::algo_naive::{ProbeStats, ValueFnWorkspace};
use crate::approx::{solve_approx_with, ApproxSolution};
use crate::baselines::{greedy_levels, BaselineSolution, PAPER_THREE_LEVELS};
use crate::fr_opt::{solve_fr_opt_with, FrSolution};
use crate::lp_model::{solve_fr_lp_impl, FrLpSolution};
use crate::mip_model::{solve_mip_exact_impl, MipScheduleSolution};
use crate::problem::Instance;
use crate::schedule::FractionalSchedule;
use dsct_lp::{LpError, SolveOptions, Status};
use dsct_mip::{MipError, MipOptions, MipStatus};
use std::fmt;

/// Why a solve produced no usable [`Solution`].
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The LP model was malformed (NaN input, inconsistent bounds, …).
    Lp(LpError),
    /// The MIP model was malformed.
    Mip(MipError),
    /// The LP terminated without an optimal basis (status records whether
    /// it hit the iteration cap, the time limit, or proved the model
    /// infeasible/unbounded).
    LpNotOptimal(Status),
    /// Branch-and-bound terminated without any integer-feasible incumbent
    /// (status records why).
    NoIncumbent(MipStatus),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Lp(e) => write!(f, "LP model error: {e}"),
            SolveError::Mip(e) => write!(f, "MIP model error: {e}"),
            SolveError::LpNotOptimal(s) => write!(f, "LP terminated non-optimally: {s:?}"),
            SolveError::NoIncumbent(s) => write!(f, "MIP found no incumbent: {s:?}"),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<LpError> for SolveError {
    fn from(e: LpError) -> Self {
        SolveError::Lp(e)
    }
}

impl From<MipError> for SolveError {
    fn from(e: MipError) -> Self {
        SolveError::Mip(e)
    }
}

/// Solver-independent solve statistics. Fields irrelevant to a given
/// solver stay at their defaults (e.g. `nodes` is zero for everything but
/// the MIP).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SolveStats {
    /// Energy-transfer/refinement iterations (FR-OPT and APPROX).
    pub refine_iterations: usize,
    /// Profile value-function evaluations (FR-OPT and APPROX).
    pub probes: u64,
    /// Probes served as checkpoint deltas (subset of `probes`; the rest
    /// anchored a checkpoint).
    pub incremental_probes: u64,
    /// Simplex iterations (LP path).
    pub lp_iterations: usize,
    /// Branch-and-bound nodes explored (MIP path).
    pub nodes: usize,
    /// Proven bound on the optimum, when the solver certifies one (MIP).
    pub best_bound: Option<f64>,
    /// Whether the solver stopped on a time limit with a usable incumbent.
    pub timed_out: bool,
}

/// The uniform solution every solver converts into.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Per-task processing times (EDF semantics; integral solvers use at
    /// most one machine per task).
    pub schedule: FractionalSchedule,
    /// Work per task in GFLOP.
    pub flops: Vec<f64>,
    /// Machine per task; `None` when the task was dropped or (for
    /// fractional solutions) split across machines.
    pub assignment: Vec<Option<usize>>,
    /// Whether the schedule is integral (one machine per task).
    pub integral: bool,
    /// Total accuracy `Σ_j a_j(f_j)`.
    pub total_accuracy: f64,
    /// Energy consumed (J).
    pub energy: f64,
    /// An upper bound on the *integral* optimum certified by this solve,
    /// when the solver produces one: the fractional optimum for FR-OPT
    /// and APPROX (`DSCT-EA-UB`), the LP objective for the LP path, the
    /// proven best bound for the MIP. `None` for the EDF baselines.
    pub upper_bound: Option<f64>,
    /// Solve statistics.
    pub stats: SolveStats,
}

fn flops_of(inst: &Instance, schedule: &FractionalSchedule) -> Vec<f64> {
    (0..inst.num_tasks())
        .map(|j| schedule.flops(j, inst))
        .collect()
}

fn assignment_of(inst: &Instance, schedule: &FractionalSchedule) -> Vec<Option<usize>> {
    (0..inst.num_tasks())
        .map(|j| schedule.assigned_machine(j))
        .collect()
}

impl Solution {
    /// Converts the exact fractional solution. Accuracy and energy are
    /// taken verbatim from [`FrSolution`] (both are computed from its
    /// schedule); the fractional optimum is its own upper bound. `flops`
    /// is the schedule's work, not [`FrSolution::flops`]: that is
    /// Algorithm 1's pooled allocation, which the waterfill distributes
    /// only down to its machine-time resolution.
    pub fn from_fr(inst: &Instance, fr: FrSolution) -> Self {
        let flops = flops_of(inst, &fr.schedule);
        let assignment = assignment_of(inst, &fr.schedule);
        let probe_stats = fr.search.map(|s| s.probe_stats).unwrap_or_default();
        Solution {
            flops,
            assignment,
            integral: false,
            total_accuracy: fr.total_accuracy,
            energy: fr.energy,
            upper_bound: Some(fr.total_accuracy),
            stats: SolveStats {
                refine_iterations: fr.refine_iterations,
                probes: probe_stats.probes,
                incremental_probes: probe_stats.incremental_probes,
                ..Default::default()
            },
            schedule: fr.schedule,
        }
    }

    /// Converts the approximation's integral solution. The embedded
    /// fractional solve provides the `DSCT-EA-UB` upper bound and the
    /// probe/refinement statistics.
    pub fn from_approx(inst: &Instance, approx: ApproxSolution) -> Self {
        let flops = flops_of(inst, &approx.schedule);
        let energy = approx.schedule.energy(inst);
        let probe_stats = approx
            .fractional
            .search
            .map(|s| s.probe_stats)
            .unwrap_or_default();
        Solution {
            flops,
            assignment: approx.assignment,
            integral: true,
            total_accuracy: approx.total_accuracy,
            energy,
            upper_bound: Some(approx.fractional.total_accuracy),
            stats: SolveStats {
                refine_iterations: approx.fractional.refine_iterations,
                probes: probe_stats.probes,
                incremental_probes: probe_stats.incremental_probes,
                ..Default::default()
            },
            schedule: approx.schedule,
        }
    }

    /// Converts an EDF baseline solution. Baselines certify no upper
    /// bound.
    pub fn from_baseline(inst: &Instance, b: BaselineSolution) -> Self {
        let flops = flops_of(inst, &b.schedule);
        Solution {
            flops,
            assignment: b.assignment,
            integral: true,
            total_accuracy: b.total_accuracy,
            energy: b.energy,
            upper_bound: None,
            stats: SolveStats::default(),
            schedule: b.schedule,
        }
    }

    /// Converts an optimally-solved LP relaxation.
    pub fn from_lp(inst: &Instance, lp: FrLpSolution) -> Self {
        let flops = flops_of(inst, &lp.schedule);
        let assignment = assignment_of(inst, &lp.schedule);
        let energy = lp.schedule.energy(inst);
        Solution {
            flops,
            assignment,
            integral: false,
            total_accuracy: lp.total_accuracy,
            energy,
            upper_bound: Some(lp.total_accuracy),
            stats: SolveStats {
                lp_iterations: lp.iterations,
                ..Default::default()
            },
            schedule: lp.schedule,
        }
    }

    /// Converts a MIP solve. Fails with [`SolveError::NoIncumbent`] when
    /// branch-and-bound found no integer-feasible point; a time-limited
    /// solve *with* an incumbent converts successfully and sets
    /// [`SolveStats::timed_out`].
    pub fn from_mip(inst: &Instance, mip: MipScheduleSolution) -> Result<Self, SolveError> {
        let Some(schedule) = mip.schedule else {
            return Err(SolveError::NoIncumbent(mip.status));
        };
        let flops = flops_of(inst, &schedule);
        let assignment = assignment_of(inst, &schedule);
        let energy = schedule.energy(inst);
        Ok(Solution {
            flops,
            assignment,
            integral: true,
            total_accuracy: mip.total_accuracy,
            energy,
            upper_bound: Some(mip.best_bound),
            stats: SolveStats {
                nodes: mip.nodes,
                best_bound: Some(mip.best_bound),
                timed_out: mip.status != MipStatus::Optimal,
                ..Default::default()
            },
            schedule,
        })
    }
}

/// Per-thread solve state a [`Solver`] may reuse across instances:
/// the [`ValueFnWorkspace`] whose buffers the FR-OPT profile search
/// probes through. One context per worker thread; never shared.
#[derive(Debug, Default)]
pub struct SolverContext {
    ws: ValueFnWorkspace,
}

impl SolverContext {
    /// Fresh context with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The probe workspace (buffers resize to each instance on use).
    pub fn workspace(&mut self) -> &mut ValueFnWorkspace {
        &mut self.ws
    }

    /// Cumulative value-function probe counters across every solve run
    /// through this context.
    pub fn probe_stats(&self) -> ProbeStats {
        self.ws.stats
    }
}

/// Algorithm-independent solver options shared by every [`Solver`]
/// wrapper (the `common` field on each).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SolverOptions {
    /// Run every solution produced through the trait's `solve`/`solve_with`
    /// paths through the solution oracle ([`crate::oracle`]) and panic
    /// with a pinpointed [`crate::oracle::Violation`] report on failure.
    /// Defaults to on under `debug_assertions` (so the whole test suite
    /// is oracle-checked) and off in release builds; opt in explicitly
    /// with [`SolverOptions::checked`] when release-mode verification is
    /// wanted. The typed `solve_typed*` fast paths are never checked —
    /// callers on those paths invoke [`crate::oracle::verify`] themselves.
    pub check_invariants: bool,
}

impl Default for SolverOptions {
    fn default() -> Self {
        Self {
            check_invariants: cfg!(debug_assertions),
        }
    }
}

impl SolverOptions {
    /// Invariant checking on (any build profile).
    pub fn checked() -> Self {
        Self {
            check_invariants: true,
        }
    }

    /// Invariant checking off (any build profile).
    pub fn unchecked() -> Self {
        Self {
            check_invariants: false,
        }
    }

    fn enforce(
        &self,
        inst: &Instance,
        sol: &Solution,
        claims: &crate::oracle::Claims,
        label: &str,
    ) {
        if self.check_invariants {
            crate::oracle::enforce(inst, sol, claims, label);
        }
    }
}

/// A DSCT-EA algorithm behind a uniform interface. Implementors are plain
/// option-holding values (`Send + Sync`), so one configured solver can be
/// shared by reference across worker threads.
pub trait Solver: Send + Sync {
    /// Display name (paper nomenclature, e.g. `DSCT-EA-Approx`).
    fn name(&self) -> &str;

    /// Solves the instance with fresh per-solve state.
    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError>;

    /// Solves reusing the caller's [`SolverContext`]. The default
    /// delegates to [`Solver::solve`]; solvers that probe the value
    /// function override it to run on the context's workspace.
    fn solve_with(&self, inst: &Instance, ctx: &mut SolverContext) -> Result<Solution, SolveError> {
        let _ = ctx;
        self.solve(inst)
    }
}

/// [`crate::fr_opt`]'s Algorithm 4 (`DSCT-EA-FR-Opt`) as a
/// [`Solver`]. Fractional output; its own accuracy is the `DSCT-EA-UB`
/// upper bound.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FrOptSolver {
    /// Algorithm-independent options (invariant checking).
    pub common: SolverOptions,
}

impl FrOptSolver {
    /// Solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// The typed solve, for callers that need FR-specific fields
    /// ([`FrSolution::naive_profile`], the search outcome, …).
    pub fn solve_typed(&self, inst: &Instance) -> FrSolution {
        let mut ws = ValueFnWorkspace::new();
        solve_fr_opt_with(inst, &mut ws)
    }

    /// Typed solve on a reusable context.
    pub fn solve_typed_with(&self, inst: &Instance, ctx: &mut SolverContext) -> FrSolution {
        solve_fr_opt_with(inst, ctx.workspace())
    }
}

impl Solver for FrOptSolver {
    fn name(&self) -> &str {
        "DSCT-EA-FR-Opt"
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError> {
        let sol = Solution::from_fr(inst, self.solve_typed(inst));
        self.common.enforce(
            inst,
            &sol,
            &crate::oracle::Claims::fr_optimal(),
            self.name(),
        );
        Ok(sol)
    }

    fn solve_with(&self, inst: &Instance, ctx: &mut SolverContext) -> Result<Solution, SolveError> {
        let sol = Solution::from_fr(inst, self.solve_typed_with(inst, ctx));
        self.common.enforce(
            inst,
            &sol,
            &crate::oracle::Claims::fr_optimal(),
            self.name(),
        );
        Ok(sol)
    }
}

/// [`crate::approx`]'s Algorithm 5 (`DSCT-EA-Approx`) as a
/// [`Solver`]. Integral output; [`Solution::upper_bound`] carries the
/// embedded fractional solve's `DSCT-EA-UB`.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ApproxSolver {
    /// Algorithm-independent options (invariant checking).
    pub common: SolverOptions,
}

impl ApproxSolver {
    /// Solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// The typed solve, for callers that need the embedded
    /// [`ApproxSolution::fractional`] solution.
    pub fn solve_typed(&self, inst: &Instance) -> ApproxSolution {
        let mut ws = ValueFnWorkspace::new();
        solve_approx_with(inst, &mut ws)
    }

    /// Typed solve on a reusable context.
    pub fn solve_typed_with(&self, inst: &Instance, ctx: &mut SolverContext) -> ApproxSolution {
        solve_approx_with(inst, ctx.workspace())
    }
}

impl Solver for ApproxSolver {
    fn name(&self) -> &str {
        "DSCT-EA-Approx"
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError> {
        let sol = Solution::from_approx(inst, self.solve_typed(inst));
        self.common
            .enforce(inst, &sol, &crate::oracle::Claims::approx(), self.name());
        Ok(sol)
    }

    fn solve_with(&self, inst: &Instance, ctx: &mut SolverContext) -> Result<Solution, SolveError> {
        let sol = Solution::from_approx(inst, self.solve_typed_with(inst, ctx));
        self.common
            .enforce(inst, &sol, &crate::oracle::Claims::approx(), self.name());
        Ok(sol)
    }
}

/// The EDF greedy baselines of [`crate::baselines`] as a [`Solver`]:
/// least-loaded placement in deadline order, each task tried at a set of
/// discrete compression levels (or only at full work).
#[derive(Debug, Clone, PartialEq)]
pub struct EdfSolver {
    /// Accuracy targets tried highest-first; empty with `full_only`.
    levels: Vec<f64>,
    /// Full-work-or-drop mode (`EDF-NoCompression`).
    full_only: bool,
    name: String,
    /// Algorithm-independent options (invariant checking).
    pub common: SolverOptions,
}

impl EdfSolver {
    /// `EDF-NoCompression`: every scheduled task runs all of `f^max`.
    pub fn no_compression() -> Self {
        Self {
            levels: Vec::new(),
            full_only: true,
            name: "EDF-NoCompression".to_string(),
            common: SolverOptions::default(),
        }
    }

    /// `EDF-3CompressionLevels`: the paper's 82% / 55% / 27% levels.
    pub fn three_levels() -> Self {
        Self::with_levels(&PAPER_THREE_LEVELS)
    }

    /// EDF with arbitrary discrete accuracy levels (sorted internally,
    /// highest first).
    pub fn with_levels(levels: &[f64]) -> Self {
        let mut sorted = levels.to_vec();
        sorted.sort_by(|a, b| b.total_cmp(a));
        Self {
            name: format!("EDF-{}Levels", sorted.len()),
            levels: sorted,
            full_only: false,
            common: SolverOptions::default(),
        }
    }

    /// The typed solve, for callers that need [`BaselineSolution`] fields
    /// (e.g. the scheduled-task count).
    pub fn solve_typed(&self, inst: &Instance) -> BaselineSolution {
        greedy_levels(inst, &self.levels, self.full_only)
    }
}

impl Solver for EdfSolver {
    fn name(&self) -> &str {
        &self.name
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError> {
        let sol = Solution::from_baseline(inst, self.solve_typed(inst));
        self.common.enforce(
            inst,
            &sol,
            &crate::oracle::Claims::feasible(crate::schedule::ScheduleKind::Integral),
            self.name(),
        );
        Ok(sol)
    }
}

/// The general-purpose LP path ([`crate::lp_model`], the paper's
/// Table 1 comparison arm) as a [`Solver`]. Fails with
/// [`SolveError::LpNotOptimal`] when the simplex stops on a limit.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LpSolver {
    /// Simplex options (iteration cap, time limit, tolerances).
    pub opts: SolveOptions,
    /// Algorithm-independent options (invariant checking).
    pub common: SolverOptions,
}

impl LpSolver {
    /// Solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with explicit options.
    pub fn with_options(opts: SolveOptions) -> Self {
        Self {
            opts,
            common: SolverOptions::default(),
        }
    }

    /// The typed solve, exposing the raw [`FrLpSolution`] (any status).
    pub fn solve_typed(&self, inst: &Instance) -> Result<FrLpSolution, LpError> {
        solve_fr_lp_impl(inst, &self.opts)
    }
}

impl Solver for LpSolver {
    fn name(&self) -> &str {
        "DSCT-EA-FR[simplex]"
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError> {
        let lp = self.solve_typed(inst)?;
        if lp.status != Status::Optimal {
            return Err(SolveError::LpNotOptimal(lp.status));
        }
        let sol = Solution::from_lp(inst, lp);
        self.common.enforce(
            inst,
            &sol,
            &crate::oracle::Claims::feasible(crate::schedule::ScheduleKind::Fractional),
            self.name(),
        );
        Ok(sol)
    }
}

/// The exact MIP ([`crate::mip_model`], the paper's `DSCT-EA-Opt`
/// cvx-MOSEK arm) as a [`Solver`]. A time-limited solve with an incumbent
/// succeeds with [`SolveStats::timed_out`] set; a solve without any
/// incumbent fails with [`SolveError::NoIncumbent`].
#[derive(Debug, Clone, Copy, Default)]
pub struct MipSolver {
    /// Branch-and-bound options (time limit, node cap, gaps).
    pub opts: MipOptions,
    /// Algorithm-independent options (invariant checking).
    pub common: SolverOptions,
}

impl MipSolver {
    /// Solver with default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solver with explicit options.
    pub fn with_options(opts: MipOptions) -> Self {
        Self {
            opts,
            common: SolverOptions::default(),
        }
    }

    /// The typed solve, exposing the raw [`MipScheduleSolution`].
    pub fn solve_typed(&self, inst: &Instance) -> Result<MipScheduleSolution, MipError> {
        solve_mip_exact_impl(inst, &self.opts)
    }
}

impl Solver for MipSolver {
    fn name(&self) -> &str {
        "DSCT-EA-Opt"
    }

    fn solve(&self, inst: &Instance) -> Result<Solution, SolveError> {
        let mip = self.solve_typed(inst)?;
        let sol = Solution::from_mip(inst, mip)?;
        self.common.enforce(
            inst,
            &sol,
            &crate::oracle::Claims::feasible(crate::schedule::ScheduleKind::Integral),
            self.name(),
        );
        Ok(sol)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Task;
    use crate::schedule::ScheduleKind;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::{Machine, MachinePark};

    fn acc(points: &[(f64, f64)]) -> PwlAccuracy {
        PwlAccuracy::new(points).unwrap()
    }

    fn instance() -> Instance {
        let park = MachinePark::new(vec![
            Machine::from_efficiency(2000.0, 80.0).unwrap(),
            Machine::from_efficiency(5000.0, 70.0).unwrap(),
        ]);
        let tasks = vec![
            Task::new(0.3, acc(&[(0.0, 0.0), (300.0, 0.5), (900.0, 0.8)])),
            Task::new(0.8, acc(&[(0.0, 0.0), (500.0, 0.4), (1200.0, 0.7)])),
            Task::new(1.5, acc(&[(0.0, 0.0), (250.0, 0.6), (600.0, 0.82)])),
        ];
        Instance::new(tasks, park, 40.0).unwrap()
    }

    fn all_solvers() -> Vec<Box<dyn Solver>> {
        vec![
            Box::new(FrOptSolver::new()),
            Box::new(ApproxSolver::new()),
            Box::new(EdfSolver::no_compression()),
            Box::new(EdfSolver::three_levels()),
            Box::new(LpSolver::new()),
            Box::new(MipSolver::new()),
        ]
    }

    #[test]
    fn every_solver_produces_consistent_solutions() {
        let inst = instance();
        for solver in all_solvers() {
            let sol = solver
                .solve(&inst)
                .unwrap_or_else(|e| panic!("{}: {e}", solver.name()));
            let kind = if sol.integral {
                ScheduleKind::Integral
            } else {
                ScheduleKind::Fractional
            };
            sol.schedule
                .validate(&inst, kind)
                .unwrap_or_else(|e| panic!("{}: {e:?}", solver.name()));
            // Reported accuracy/energy agree with the schedule.
            assert!(
                (sol.total_accuracy - sol.schedule.total_accuracy(&inst)).abs() < 1e-9,
                "{}",
                solver.name()
            );
            assert!(
                (sol.energy - sol.schedule.energy(&inst)).abs() < 1e-9,
                "{}",
                solver.name()
            );
            if let Some(ub) = sol.upper_bound {
                assert!(
                    sol.total_accuracy <= ub + 1e-6,
                    "{}: accuracy {} above its own bound {ub}",
                    solver.name(),
                    sol.total_accuracy
                );
            }
            assert_eq!(sol.flops.len(), inst.num_tasks());
            assert_eq!(sol.assignment.len(), inst.num_tasks());
        }
    }

    #[test]
    fn context_reuse_is_bit_identical_to_fresh_solves() {
        let inst = instance();
        let mut ctx = SolverContext::new();
        for solver in [
            Box::new(FrOptSolver::new()) as Box<dyn Solver>,
            Box::new(ApproxSolver::new()),
        ] {
            let fresh = solver.solve(&inst).unwrap();
            // Twice through the same context: the workspace carries state
            // between solves, the results must not.
            let a = solver.solve_with(&inst, &mut ctx).unwrap();
            let b = solver.solve_with(&inst, &mut ctx).unwrap();
            assert_eq!(fresh, a, "{}", solver.name());
            assert_eq!(a, b, "{}", solver.name());
        }
        assert!(ctx.probe_stats().probes > 0);
    }

    #[test]
    fn chain_ordering_through_the_trait() {
        let inst = instance();
        let edf = EdfSolver::three_levels().solve(&inst).unwrap();
        let approx = ApproxSolver::new().solve(&inst).unwrap();
        let mip = MipSolver::new().solve(&inst).unwrap();
        let ub = approx.upper_bound.unwrap();
        assert!(edf.total_accuracy <= approx.upper_bound.unwrap() + 1e-6);
        assert!(approx.total_accuracy <= mip.total_accuracy + 1e-6);
        assert!(mip.total_accuracy <= ub + 1e-5);
    }

    #[test]
    fn edf_names_reflect_configuration() {
        assert_eq!(EdfSolver::no_compression().name(), "EDF-NoCompression");
        assert_eq!(EdfSolver::three_levels().name(), "EDF-3Levels");
        assert_eq!(EdfSolver::with_levels(&[0.5, 0.9]).name(), "EDF-2Levels");
    }
}
