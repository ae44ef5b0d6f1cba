//! The arrival loop: rolling-horizon re-optimization with dispatch
//! commitment, admission control, and ledger-tracked energy.
//!
//! # Model
//!
//! The service owns a simulated clock driven by submissions (arrival
//! times must be non-decreasing). Between two arrivals the incumbent
//! plan governs: each machine runs its assigned pending tasks
//! back-to-back in residual-deadline (EDF) order, and every dispatch
//! whose start time falls strictly before the next arrival is
//! *committed* — the task leaves the pending pool, its planned energy is
//! committed to the ledger, and it never migrates. At the arrival the
//! pending pool (committed tasks excluded) is re-planned. The pool is
//! kept as the residual instance itself ([`ResidualPool`]) and a re-plan
//! only reads it at `now`: deadlines shift to `d_j − now` in place, the
//! budget shrinks to the ledger's remaining joules, and the re-solve
//! goes through a [`Replanner`](dsct_core::replan::Replanner),
//! warm-started from the incumbent's fractional profile restricted to
//! still-pending tasks. A gated arrival is solved with the candidate
//! first, and the pool is re-planned for the admission baseline only
//! when the replanner's certificate on that solve cannot settle the
//! decision.
//!
//! Machine availability is restored at plan-materialization time: tasks
//! landing on a still-busy machine are cut at their *absolute* deadline
//! (the same phase-2 cut as `DSCT-EA-APPROX`), which only shortens
//! processing times and therefore never exceeds the solved plan's
//! energy. Runtime speed jitter follows the [`dsct_exec`] model — the
//! planned allocation is a work target, a slow execution overruns and is
//! compressed or dropped per [`OverrunPolicy`] — and the jitter factor
//! of a task depends only on `(jitter_seed, id)`, never on how many
//! re-plans happened, so replays are deterministic.
//!
//! # Disruptions
//!
//! [`OnlineService::inject`] applies a [`Disruption`] at a point on the
//! service clock: a permanent machine failure, a persistent
//! (multiplicative) speed degradation, or a budget shock. Recovery is a
//! residual re-solve excluding dead machines on degraded speeds. A task
//! in flight on a failing machine is cut at the failure instant: the
//! ledger settles the joules actually burned (`P_r · elapsed`), the
//! trace records a [`EventKind::Failed`] terminal event, and — under
//! [`OverrunPolicy::Compress`] — the work already done is kept while the
//! *remaining* work returns to the pending pool as a shifted residual
//! accuracy curve `a_res(f) = a(f_done + f)`, so a later plan can finish
//! the task elsewhere. Under [`OverrunPolicy::Drop`] the partial work is
//! discarded (the joules are still paid). Disruptions are
//! dispatch-granular: a degradation affects dispatches starting at or
//! after its injection time, never a run already in progress.

use crate::admission::{AdmissionPolicy, Decision};
use crate::error::OnlineError;
use crate::ledger::EnergyLedger;
use dsct_accuracy::PwlAccuracy;
use dsct_core::problem::Instance;
use dsct_core::profile::EnergyProfile;
use dsct_core::replan::Replanner;
use dsct_core::residual::{PoolRow, ResidualPool};
use dsct_core::solver::ApproxSolver;
use dsct_core::EPS_TIME;
use dsct_exec::{
    overrun_outcome, EventKind, ExecError, ExecutionConfig, ExecutionTrace, OverrunPolicy,
    TaskOutcome, TraceEvent,
};
use dsct_machines::{Machine, MachinePark};
use dsct_workload::{splitmix64, ArrivalTrace, OnlineTask};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

/// A disruption injected into the service clock (see
/// [`OnlineService::inject`]).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Disruption {
    /// Machine `machine` fails permanently: any task in flight on it is
    /// cut at the failure instant and the machine never appears in a
    /// later plan.
    MachineFailure {
        /// Index of the failing machine.
        machine: usize,
    },
    /// Machine `machine` permanently slows to `factor` of its current
    /// speed (`0 < factor <= 1`, multiplicatively composable). Power
    /// draw is unchanged, so degradation wastes energy per unit work.
    SpeedDegradation {
        /// Index of the degrading machine.
        machine: usize,
        /// Multiplicative speed factor in `(0, 1]`.
        factor: f64,
    },
    /// The global budget shifts by `delta` joules (negative = cut),
    /// clamping at zero; see [`EnergyLedger::apply_shock`].
    BudgetShock {
        /// Signed budget change in joules.
        delta: f64,
    },
}

pub use dsct_core::replan::{ReplanStats, ReplanStrategy};

/// Configuration of an [`OnlineService`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OnlineConfig {
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// Re-solve strategy (one path is left, see [`ReplanStrategy`]).
    pub replan: ReplanStrategy,
    /// Multiplicative speed-jitter half-width in `[0, 1)` (the
    /// [`dsct_exec`] model; `0.0` = deterministic nominal speeds).
    pub speed_jitter: f64,
    /// Seed for the per-task jitter draws.
    pub jitter_seed: u64,
    /// Deadline-overrun handling at dispatch time.
    pub overrun: OverrunPolicy,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        Self {
            policy: AdmissionPolicy::AdmitAll,
            replan: ReplanStrategy::Incremental,
            speed_jitter: 0.0,
            jitter_seed: 0,
            overrun: OverrunPolicy::Compress,
        }
    }
}

impl OnlineConfig {
    fn execution_config(&self) -> ExecutionConfig {
        ExecutionConfig {
            speed_jitter: self.speed_jitter,
            seed: self.jitter_seed,
            overrun: self.overrun,
        }
    }
}

/// Deterministic aggregate of one service run (the byte-comparable
/// payload of the determinism contract: two replays of the same trace
/// and configuration produce equal summaries, bit for bit, regardless
/// of solver parallelism).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineSummary {
    /// Tasks submitted.
    pub arrivals: usize,
    /// Tasks admitted to the pending pool.
    pub admitted: usize,
    /// Tasks turned away by the admission policy.
    pub rejected: usize,
    /// Admitted tasks whose deadline passed before any dispatch.
    pub expired: usize,
    /// Admitted tasks never dispatched (plans allocated them nothing).
    pub starved: usize,
    /// Tasks actually dispatched to a machine.
    pub dispatched: usize,
    /// Plans adopted as the incumbent: one per re-plan of the pool and
    /// one per admission a gated policy adopts.
    pub replans: usize,
    /// Solver runs: one per re-plan of the pool plus one per gated
    /// admission evaluation. A gated evaluation the admission
    /// certificate settles skips the re-plan of the pool, so it counts
    /// one solve and one replan.
    pub solves: usize,
    /// Realized total accuracy `Σ_j a_j(work_j)` over **all** arrivals
    /// (rejected/expired/starved tasks contribute their zero-work
    /// accuracy).
    pub total_accuracy: f64,
    /// Cumulative planned energy committed at dispatch time (J).
    pub committed_energy: f64,
    /// Realized (settled) energy (J).
    pub spent_energy: f64,
    /// The global budget `B` (J) at the end of the run (after any
    /// [`Disruption::BudgetShock`]).
    pub budget: f64,
    /// Completion time of the last dispatched task.
    pub makespan: f64,
    /// Dispatched tasks cut short by an injected machine failure.
    pub failures: usize,
}

/// Everything a finished service run reports.
#[derive(Debug, Clone)]
pub struct OnlineReport {
    /// Execution trace in [`dsct_exec`] vocabulary: `tasks` is indexed
    /// by ascending task id (dense `0..n` ids from
    /// [`dsct_workload::generate_arrivals`] line up with the index),
    /// events are chronological, never-served tasks carry a `Dropped`
    /// event with machine `usize::MAX`.
    pub trace: ExecutionTrace,
    /// Task id of each `trace.tasks` entry, in the same (ascending id)
    /// order. Redundant for dense `0..n` traces; the sharded server
    /// needs it because each shard sees a sparse id subset.
    pub task_ids: Vec<u64>,
    /// Admission decision per submitted task, in submission order.
    pub decisions: Vec<(u64, Decision)>,
    /// The deterministic summary.
    pub summary: OnlineSummary,
    /// Final ledger state.
    pub ledger: EnergyLedger,
    /// The replanner's path counters (solves, delta bounds, fallbacks).
    /// Diagnostics only — deliberately outside [`OnlineSummary`], so
    /// the byte-comparable digest covers decisions, not solver paths.
    pub replan: ReplanStats,
}

/// The incumbent plan: an `ApproxSolver` solution of the pool as read
/// at `time`.
struct Plan {
    time: f64,
    /// The pool's rows as solved: task `j` of the solution is `rows[j]`.
    rows: Vec<PoolRow>,
    /// `machine_ids[r_sub]` is the original park index of the solved
    /// sub-park's machine `r_sub` (identity while no machine has
    /// failed).
    machine_ids: Arc<[usize]>,
    approx: dsct_core::approx::ApproxSolution,
}

/// One materialized (but not yet committed) dispatch, naming its pool
/// row by absolute deadline and sequence number.
#[derive(Debug, Clone, Copy)]
struct Queued {
    deadline: f64,
    seq: u64,
    duration: f64,
}

/// A committed dispatch awaiting ledger settlement at its completion.
/// `seq` is the dispatch sequence number: a settlement finds its
/// dispatch by `seq` in `machine`'s in-flight lane, never by task id,
/// because a task cut by a failure can be re-dispatched and own a
/// second live settlement. A `seq` no longer in the lane was cut.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Settle {
    time: f64,
    id: u64,
    seq: u64,
    machine: usize,
    planned_energy: f64,
    actual_energy: f64,
}

impl Eq for Settle {}
impl PartialOrd for Settle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Settle {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.id.cmp(&self.id))
    }
}

/// A committed dispatch currently occupying a machine — everything
/// failure recovery needs to cut it at an arbitrary instant. It lives
/// in the lane of the machine running it (its original park index).
#[derive(Debug, Clone)]
struct InFlight {
    /// Dispatch sequence number (what its settlement looks it up by).
    seq: u64,
    start: f64,
    completion: f64,
    /// Effective work rate delivered (GFLOP/s; zero for a dropped
    /// overrun, which occupies the machine without doing work).
    rate: f64,
    power: f64,
    planned_energy: f64,
    /// The jitter factor reported in the outcome.
    factor: f64,
    /// Work and energy carried from earlier cut runs of the same task.
    prior_work: f64,
    prior_energy: f64,
    /// Index of the terminal trace event this dispatch pushed, so a cut
    /// can rewrite it to [`EventKind::Failed`] in place.
    event_idx: usize,
    /// The pooled task as dispatched (its accuracy curve is already
    /// residual when earlier runs were cut).
    task: OnlineTask,
}

/// Shifts a concave accuracy curve left by `done` GFLOP of completed
/// work: `a_res(f) = a(done + f)`, the curve a failure remnant re-enters
/// the pool with. Shifting preserves concavity and monotonicity; the
/// `max(a0)` clamp absorbs interpolation round-off at the new origin.
/// Returns `None` when nothing worth re-planning remains.
fn shift_accuracy(acc: &PwlAccuracy, done: f64) -> Option<PwlAccuracy> {
    if done <= 0.0 {
        return Some(acc.clone());
    }
    let a0 = acc.eval(done);
    if acc.a_max() - a0 <= 1e-12 {
        return None;
    }
    let mut points = vec![(0.0, a0)];
    for (&f, &a) in acc.breakpoints().iter().zip(acc.values()) {
        if f > done + 1e-9 {
            points.push((f - done, a.max(a0)));
        }
    }
    if points.len() < 2 {
        return None;
    }
    PwlAccuracy::new(&points).ok()
}

/// The online scheduling service. See the module docs for the model.
pub struct OnlineService {
    cfg: OnlineConfig,
    park: MachinePark,
    ledger: EnergyLedger,
    now: f64,
    /// The pending pool, stored as the residual instance re-plans solve.
    pool: ResidualPool,
    plan: Option<Plan>,
    plan_dirty: bool,
    queues: Vec<VecDeque<Queued>>,
    free_at: Vec<f64>,
    settle: BinaryHeap<Settle>,
    /// Every outcome write, `(task id, outcome)`, in the order made.
    /// [`Self::finish`] resolves each id to its last write: a cut
    /// overwrites its commit, a re-dispatched remnant overwrites its cut.
    outcomes: Vec<(u64, TaskOutcome)>,
    decisions: Vec<(u64, Decision)>,
    events: Vec<TraceEvent>,
    replanner: Replanner,
    replans: usize,
    solves: usize,
    expired: usize,
    starved: usize,
    dispatched: usize,
    committed_energy: f64,
    alive: Vec<bool>,
    degrade: Vec<f64>,
    /// Per machine (original park index), the committed dispatches
    /// not yet settled or cut, in commit order. A machine runs one
    /// dispatch at a time, so after every clock advance a lane holds at
    /// most one record.
    inflight: Vec<Vec<InFlight>>,
    carry: BTreeMap<u64, (f64, f64)>,
    dispatch_seq: u64,
    failures: usize,
}

impl OnlineService {
    /// Creates a service over a machine park and a global energy budget.
    /// Fails with [`OnlineError::Exec`] when the jitter model is invalid
    /// (`speed_jitter` outside `[0, 1)`) and [`OnlineError::InvalidBudget`]
    /// for a NaN, infinite, or negative budget. A zero budget is *valid*
    /// — a shard can start broke and borrow later — the service then
    /// rejects or starves everything until the ledger sees joules.
    pub fn new(park: MachinePark, budget: f64, cfg: OnlineConfig) -> Result<Self, OnlineError> {
        cfg.execution_config().validate()?;
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(OnlineError::InvalidBudget(budget));
        }
        let m = park.len();
        let replanner = Replanner::new(ApproxSolver::new());
        Ok(Self {
            cfg,
            ledger: EnergyLedger::new(budget),
            now: 0.0,
            pool: ResidualPool::new(park.clone()),
            plan: None,
            plan_dirty: false,
            queues: vec![VecDeque::new(); m],
            free_at: vec![0.0; m],
            settle: BinaryHeap::new(),
            outcomes: Vec::new(),
            decisions: Vec::new(),
            events: Vec::new(),
            replanner,
            replans: 0,
            solves: 0,
            expired: 0,
            starved: 0,
            dispatched: 0,
            committed_energy: 0.0,
            alive: vec![true; m],
            degrade: vec![1.0; m],
            inflight: vec![Vec::new(); m],
            carry: BTreeMap::new(),
            dispatch_seq: 0,
            failures: 0,
            park,
        })
    }

    /// Creates a service over a bare machine slice, as shard extraction
    /// hands them out. Unlike [`MachinePark::new`] (which panics), an
    /// empty slice is a typed [`OnlineError::EmptyPark`] — a shard count
    /// exceeding the machine count produces empty slices routinely.
    pub fn from_machines(
        machines: Vec<Machine>,
        budget: f64,
        cfg: OnlineConfig,
    ) -> Result<Self, OnlineError> {
        if machines.is_empty() {
            return Err(OnlineError::EmptyPark);
        }
        Self::new(MachinePark::new(machines), budget, cfg)
    }

    /// The current simulated time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The energy ledger.
    pub fn ledger(&self) -> &EnergyLedger {
        &self.ledger
    }

    /// Admitted tasks currently awaiting dispatch.
    pub fn pending(&self) -> usize {
        self.pool.len()
    }

    /// The replanner's path counters so far (solves, delta bounds,
    /// fallbacks).
    pub fn replan_stats(&self) -> ReplanStats {
        self.replanner.stats()
    }

    /// Bulk-admits `tasks` (arrival order, non-decreasing arrivals)
    /// without tentative solves, bypassing the admission policy — the
    /// semantics of an [`AdmissionPolicy::AdmitAll`] batch regardless of
    /// the configured policy. Benchmark and test scaffolding for
    /// building a standing pool in one call: the pool re-plans lazily on
    /// the next clock advance or gated arrival, exactly like a
    /// same-timestamp `AdmitAll` burst. Dead-on-arrival tasks are
    /// rejected as in [`Self::try_submit`]; validation errors (a
    /// duplicate pending id among them) abort the batch at the offending
    /// task.
    pub fn preload(&mut self, tasks: &[OnlineTask]) -> Result<(), OnlineError> {
        for task in tasks {
            self.validate(task)?;
            if task.arrival > self.now {
                self.advance_to(task.arrival);
                self.now = task.arrival;
            }
            self.purge_expired();
            if task.deadline - self.now <= EPS_TIME {
                self.record_unserved(task.id, task.accuracy.a_min(), self.now);
                self.decisions.push((task.id, Decision::Rejected));
                continue;
            }
            self.admit(task);
            self.plan_dirty = true;
            self.decisions.push((task.id, Decision::Admitted));
        }
        Ok(())
    }

    /// Submits one arrival with typed errors instead of panics: the
    /// sharded server reroutes drained tasks between cells and must
    /// survive adversarial inputs. Advances the clock to the arrival
    /// time (committing every dispatch the incumbent plan starts before
    /// it), runs the admission policy, and — for the gated policies —
    /// adopts the tentative re-plan on admission. Under
    /// [`AdmissionPolicy::AdmitAll`] the re-plan is deferred until the
    /// clock next advances, so a batch of same-timestamp arrivals is
    /// re-planned once.
    ///
    /// A NaN or infinite arrival/deadline is
    /// [`OnlineError::InvalidTask`], a backwards arrival is
    /// [`OnlineError::NonMonotoneClock`], and the id of a task still
    /// pending here is [`OnlineError::DuplicateId`]; none records a
    /// decision or touches the pool, so the service stays usable. (The
    /// panicking `submit` wrapper deprecated in 0.7.0 is gone; this is
    /// the only submission entry point.)
    pub fn try_submit(&mut self, task: &OnlineTask) -> Result<Decision, OnlineError> {
        self.validate(task)?;
        if task.arrival > self.now {
            self.advance_to(task.arrival);
            self.now = task.arrival;
        }
        self.purge_expired();

        // Dead on arrival: the deadline already passed.
        if task.deadline - self.now <= EPS_TIME {
            self.record_unserved(task.id, task.accuracy.a_min(), self.now);
            self.decisions.push((task.id, Decision::Rejected));
            return Ok(Decision::Rejected);
        }

        let decision = match self.cfg.policy {
            AdmissionPolicy::AdmitAll => {
                self.admit(task);
                self.plan_dirty = true;
                Decision::Admitted
            }
            policy => self.decide_and_adopt(task, policy),
        };
        self.decisions.push((task.id, decision));
        Ok(decision)
    }

    /// The submission checks every entry point shares: finite arrival
    /// and deadline, a clock that does not run backwards, and an id not
    /// already pending.
    fn validate(&self, task: &OnlineTask) -> Result<(), OnlineError> {
        for (field, value) in [("arrival", task.arrival), ("deadline", task.deadline)] {
            if !value.is_finite() {
                return Err(OnlineError::InvalidTask {
                    id: task.id,
                    field,
                    value,
                });
            }
        }
        if task.arrival < self.now - EPS_TIME {
            return Err(OnlineError::NonMonotoneClock {
                at: task.arrival,
                now: self.now,
            });
        }
        if self.pool.contains_id(task.id) {
            return Err(OnlineError::DuplicateId { id: task.id });
        }
        Ok(())
    }

    /// Appends `task` to the pool (its one curve clone) and returns its
    /// sequence number.
    fn admit(&mut self, task: &OnlineTask) -> u64 {
        self.pool.push(
            task.id,
            task.tenant,
            task.arrival,
            task.deadline,
            task.accuracy.clone(),
        )
    }

    /// The pooled task a row and its curve describe.
    fn task_of(row: PoolRow, accuracy: PwlAccuracy) -> OnlineTask {
        OnlineTask {
            id: row.id,
            tenant: row.tenant,
            arrival: row.arrival,
            deadline: row.deadline,
            accuracy,
        }
    }

    /// Advances the service clock to `t` without an arrival: commits
    /// every dispatch the incumbent plan starts before `t` and settles
    /// completions at or before it. The sharded server uses this to
    /// align a cell on a routing event (a shard kill, a federation
    /// settlement) before acting on it.
    pub fn advance_clock(&mut self, t: f64) -> Result<(), OnlineError> {
        if !t.is_finite() {
            return Err(OnlineError::InvalidTask {
                id: u64::MAX,
                field: "clock",
                value: t,
            });
        }
        if t < self.now - EPS_TIME {
            return Err(OnlineError::NonMonotoneClock {
                at: t,
                now: self.now,
            });
        }
        if t > self.now {
            self.advance_to(t);
            self.now = t;
        }
        Ok(())
    }

    /// Removes and returns every pooled task that has not been
    /// dispatched and carries no partial work from an earlier cut run,
    /// in pool (admission) order. Failure remnants stay pooled: their
    /// partial outcome lives in this service's trace, and handing them
    /// to another cell would double-count that work. The incumbent plan
    /// and queues are dropped; the remaining pool re-plans on the next
    /// clock advance.
    pub fn drain_pending(&mut self) -> Vec<OnlineTask> {
        let drained = self.drain_movable(|_| true);
        self.plan = None;
        self.clear_queues();
        self.plan_dirty = !self.pool.is_empty();
        drained
    }

    /// Removes and returns every pooled task of `tenant` that has not
    /// been dispatched and carries no partial work, in pool (admission)
    /// order — the single-tenant variant of [`Self::drain_pending`],
    /// used by the server's load-skew rebalancer to move one tenant's
    /// queue to another cell. Failure remnants stay for the same
    /// reason as in a full drain: their partial outcomes belong to this
    /// cell's trace. When anything moves, the incumbent plan and queues
    /// are dropped and the remaining pool re-plans on the next advance.
    pub fn drain_tenant(&mut self, tenant: u64) -> Vec<OnlineTask> {
        let drained = self.drain_movable(|r| r.tenant == tenant);
        if drained.is_empty() {
            return drained;
        }
        self.plan = None;
        self.clear_queues();
        self.plan_dirty = !self.pool.is_empty();
        drained
    }

    /// Moves out every pooled task `take` selects that carries no partial
    /// work, in admission order.
    fn drain_movable(&mut self, mut take: impl FnMut(&PoolRow) -> bool) -> Vec<OnlineTask> {
        let carry = &self.carry;
        self.pool
            .drain_where(|r| take(r) && !carry.contains_key(&r.id))
            .into_iter()
            .map(|(row, task)| Self::task_of(row, task.accuracy))
            .collect()
    }

    /// Pending *movable* tasks per tenant — pool tasks that a
    /// [`Self::drain_tenant`] call would actually hand over (failure
    /// remnants carrying partial work are excluded). Ascending tenant
    /// order, so callers iterate deterministically.
    pub fn pending_by_tenant(&self) -> Vec<(u64, usize)> {
        let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
        for r in self.pool.rows() {
            if !self.carry.contains_key(&r.id) {
                *counts.entry(r.tenant).or_insert(0) += 1;
            }
        }
        counts.into_iter().collect()
    }

    /// Injects a disruption at service time `at`, advancing the clock to
    /// it first (committing every dispatch the incumbent plan starts
    /// before `at`, exactly as an arrival would). Returns
    /// [`ExecError::InvalidConfig`] for a non-finite or past `at`, an
    /// out-of-range machine index, or a degradation factor outside
    /// `(0, 1]`; disruptions aimed at an already-dead machine are
    /// silently ignored. See the module docs for recovery semantics.
    pub fn inject(&mut self, at: f64, d: &Disruption) -> Result<(), ExecError> {
        if !(at.is_finite() && at >= self.now - EPS_TIME) {
            return Err(ExecError::InvalidConfig {
                field: "disruption.at",
                value: at,
                requirement: "finite and non-decreasing on the service clock",
            });
        }
        match *d {
            Disruption::MachineFailure { machine }
            | Disruption::SpeedDegradation { machine, .. }
                if machine >= self.park.len() =>
            {
                return Err(ExecError::InvalidConfig {
                    field: "disruption.machine",
                    value: machine as f64,
                    requirement: "a valid machine index",
                });
            }
            Disruption::SpeedDegradation { factor, .. }
                if !(factor.is_finite() && factor > 0.0 && factor <= 1.0) =>
            {
                return Err(ExecError::InvalidConfig {
                    field: "disruption.factor",
                    value: factor,
                    requirement: "in (0, 1]",
                });
            }
            Disruption::BudgetShock { delta } if !delta.is_finite() => {
                return Err(ExecError::InvalidConfig {
                    field: "disruption.delta",
                    value: delta,
                    requirement: "finite",
                });
            }
            _ => {}
        }
        if at > self.now {
            self.advance_to(at);
            self.now = at;
        }
        match *d {
            Disruption::MachineFailure { machine } => {
                if self.alive[machine] {
                    self.alive[machine] = false;
                    self.pool.set_park(self.alive_park());
                    self.fail_machine(machine, self.now);
                    self.plan_dirty = true;
                }
            }
            Disruption::SpeedDegradation { machine, factor } => {
                if self.alive[machine] && factor < 1.0 {
                    self.degrade[machine] *= factor;
                    self.pool.set_park(self.alive_park());
                    self.plan_dirty = true;
                }
            }
            Disruption::BudgetShock { delta } => {
                self.ledger.apply_shock(delta);
                self.plan_dirty = true;
            }
        }
        Ok(())
    }

    /// Drains the service: commits every remaining planned dispatch,
    /// settles the ledger, records never-served tasks, and produces the
    /// report.
    pub fn finish(mut self) -> OnlineReport {
        self.advance_to(f64::INFINITY);
        // Whatever is still pooled never got machine time. A task whose
        // earlier run was cut by a machine failure already carries a
        // recorded partial outcome — leave it in place.
        for (row, task) in self.pool.drain_where(|_| true) {
            self.starved += 1;
            if !self.carry.contains_key(&row.id) {
                self.record_unserved(row.id, task.accuracy.a_min(), self.now);
            }
        }

        let mut events = std::mem::take(&mut self.events);
        events.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.task.cmp(&b.task)));
        let mut outcomes = std::mem::take(&mut self.outcomes);
        // Reversed, a stable sort puts each id's last write first, and
        // `dedup` keeps the first of each run: the last write stands.
        outcomes.reverse();
        outcomes.sort_by_key(|&(id, _)| id);
        outcomes.dedup_by_key(|&mut (id, _)| id);
        let (task_ids, tasks): (Vec<u64>, Vec<TaskOutcome>) = outcomes.into_iter().unzip();
        let realized_accuracy: f64 = tasks.iter().map(|t| t.accuracy).sum();
        let realized_energy: f64 = tasks.iter().map(|t| t.energy).sum();
        // Recomputed rather than tracked incrementally: a failure cut
        // can retract the completion a commit had already maxed in.
        let makespan = tasks
            .iter()
            .filter(|t| t.machine.is_some())
            .map(|t| t.completion)
            .fold(0.0, f64::max);
        let compressions = events
            .iter()
            .filter(|e| e.kind == EventKind::Compressed)
            .count();
        let drops = events
            .iter()
            .filter(|e| e.kind == EventKind::Dropped)
            .count();
        let rejected = self
            .decisions
            .iter()
            .filter(|(_, d)| *d == Decision::Rejected)
            .count();
        let summary = OnlineSummary {
            arrivals: self.decisions.len(),
            admitted: self.decisions.len() - rejected,
            rejected,
            expired: self.expired,
            starved: self.starved,
            dispatched: self.dispatched,
            replans: self.replans,
            solves: self.solves,
            total_accuracy: realized_accuracy,
            committed_energy: self.committed_energy,
            spent_energy: realized_energy,
            budget: self.ledger.budget(),
            makespan,
            failures: self.failures,
        };
        OnlineReport {
            trace: ExecutionTrace {
                events,
                tasks,
                realized_accuracy,
                realized_energy,
                compressions,
                drops,
                makespan,
            },
            task_ids,
            decisions: self.decisions,
            summary,
            ledger: self.ledger,
            replan: self.replanner.stats(),
        }
    }

    // ---- internals ------------------------------------------------------

    /// Commits every planned dispatch starting strictly before `t` (in
    /// chronological order, so jitter-shifted starts cascade correctly),
    /// then settles every completion at or before `t`. Re-plans first
    /// when the pool changed since the incumbent was computed.
    fn advance_to(&mut self, t: f64) {
        if self.plan_dirty {
            self.replan();
        }
        let plan_time = self.plan.as_ref().map(|p| p.time).unwrap_or(self.now);
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (r, q) in self.queues.iter().enumerate() {
                if q.front().is_some() {
                    let start = self.free_at[r].max(plan_time);
                    if best.map(|(s, _)| start < s).unwrap_or(true) {
                        best = Some((start, r));
                    }
                }
            }
            let Some((start, r)) = best else { break };
            if start >= t {
                break;
            }
            let q = self.queues[r].pop_front().expect("front checked");
            self.commit(q, r, start);
        }
        while let Some(s) = self.settle.peek() {
            if s.time <= t {
                let s = *s;
                self.settle.pop();
                let lane = &mut self.inflight[s.machine];
                let Some(k) = lane.iter().position(|fl| fl.seq == s.seq) else {
                    // Cut by a machine failure: the ledger already
                    // settled the joules actually burned.
                    continue;
                };
                lane.remove(k);
                self.ledger.settle(s.planned_energy, s.actual_energy);
            } else {
                break;
            }
        }
        debug_assert!(
            self.inflight.iter().all(|lane| lane.len() <= 1),
            "a machine holds at most one unsettled dispatch after advancing to {t}"
        );
    }

    /// Cuts every task in flight on machine `r` at the failure instant
    /// `at`. [`Self::advance_to`] has already settled completions `<=
    /// at`, so everything still tracked on `r` is genuinely mid-run.
    fn fail_machine(&mut self, r: usize, at: f64) {
        let mut cut = std::mem::take(&mut self.inflight[r]);
        cut.sort_by_key(|fl| fl.task.id);
        for fl in cut {
            self.cut_inflight(fl, r, at);
        }
    }

    /// Cuts one dispatch, taken out of machine `r`'s in-flight lane, at
    /// `at`: settles the joules actually burned, rewrites its terminal
    /// trace event to [`EventKind::Failed`], fixes a partial outcome per
    /// the overrun policy, and — under [`OverrunPolicy::Compress`] —
    /// returns the remaining work to the pool as a shifted residual
    /// accuracy curve. Its pending settlement then finds no record in
    /// the lane and is skipped.
    fn cut_inflight(&mut self, fl: InFlight, r: usize, at: f64) {
        debug_assert!(
            fl.completion > at - 1e-9,
            "completed dispatches settle before a cut"
        );
        let id = fl.task.id;
        let elapsed = (at - fl.start).max(0.0);
        let burned = fl.power * elapsed;
        let done = fl.rate * elapsed;
        self.ledger.settle(fl.planned_energy, burned);
        let ev = &mut self.events[fl.event_idx];
        ev.time = at;
        ev.kind = EventKind::Failed;
        let kept = match self.cfg.overrun {
            OverrunPolicy::Compress => done,
            OverrunPolicy::Drop => 0.0,
        };
        let total_work = fl.prior_work + kept;
        let total_energy = fl.prior_energy + burned;
        self.outcomes.push((
            id,
            TaskOutcome {
                machine: Some(r),
                start: fl.start,
                completion: at,
                work: total_work,
                accuracy: fl.task.accuracy.eval(kept.max(0.0)),
                energy: total_energy,
                met_deadline: at <= fl.task.deadline + 1e-9,
                speed_factor: fl.factor,
            },
        ));
        self.failures += 1;
        if self.cfg.overrun == OverrunPolicy::Compress && fl.task.deadline - at > EPS_TIME {
            if let Some(residual) = shift_accuracy(&fl.task.accuracy, kept) {
                self.pool
                    .push(id, fl.task.tenant, at, fl.task.deadline, residual);
                self.carry.insert(id, (total_work, total_energy));
                self.plan_dirty = true;
            }
        }
    }

    /// Commits one dispatch: draws the task's jitter factor, applies the
    /// overrun policy against the *absolute* deadline, fixes the task's
    /// outcome, and commits the planned energy.
    fn commit(&mut self, q: Queued, r: usize, start: f64) {
        let pos = self
            .pool
            .position_of(q.deadline, q.seq)
            .expect("queued tasks are pooled");
        let (row, planned) = self.pool.remove(pos);
        let task = Self::task_of(row, planned.accuracy);
        let mach = self.park.get(r);
        let degrade = self.degrade[r];
        let factor = self.jitter_factor(task.id);
        let rate = mach.speed() * degrade * factor;
        // The plan was solved on the degraded speed, so `duration` is
        // already time on the slow machine: planned work scales by the
        // degradation, the nominal runtime does not.
        let (runtime, work, kind) = overrun_outcome(
            q.duration,
            q.duration * mach.speed() * degrade,
            rate,
            factor,
            (task.deadline - start).max(0.0),
            self.cfg.overrun,
        );
        let completion = start + runtime;
        let planned_energy = q.duration * mach.power();
        let actual_energy = mach.power() * runtime;
        let (prior_work, prior_energy) = self.carry.remove(&task.id).unwrap_or((0.0, 0.0));
        let seq = self.dispatch_seq;
        self.dispatch_seq += 1;
        self.free_at[r] = completion;
        self.ledger.commit(planned_energy);
        self.committed_energy += planned_energy;
        self.settle.push(Settle {
            time: completion,
            id: task.id,
            seq,
            machine: r,
            planned_energy,
            actual_energy,
        });
        self.events.push(TraceEvent {
            time: start,
            machine: r,
            task: task.id as usize,
            kind: EventKind::Dispatch,
        });
        let event_idx = self.events.len();
        self.events.push(TraceEvent {
            time: completion,
            machine: r,
            task: task.id as usize,
            kind,
        });
        self.outcomes.push((
            task.id,
            TaskOutcome {
                machine: Some(r),
                start,
                completion,
                // `task.accuracy` is the residual curve when an earlier
                // run of this task was cut by a failure, so evaluating
                // the *new* work yields the cumulative accuracy while
                // work and energy report cumulative totals.
                work: prior_work + work,
                accuracy: task.accuracy.eval(work.max(0.0)),
                energy: prior_energy + actual_energy,
                met_deadline: completion <= task.deadline + 1e-9,
                speed_factor: factor,
            },
        ));
        self.inflight[r].push(InFlight {
            seq,
            start,
            completion,
            rate: if kind == EventKind::Dropped {
                0.0
            } else {
                rate
            },
            power: mach.power(),
            planned_energy,
            factor,
            prior_work,
            prior_energy,
            event_idx,
            task,
        });
        self.dispatched += 1;
    }

    /// Per-task jitter factor: a pure function of `(jitter_seed, id)`,
    /// independent of re-plan count and dispatch order.
    fn jitter_factor(&self, id: u64) -> f64 {
        let j = self.cfg.speed_jitter;
        if j <= 0.0 {
            return 1.0;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(splitmix64(self.cfg.jitter_seed ^ splitmix64(id)));
        1.0 + rng.gen_range(-j..=j)
    }

    /// Removes pool tasks whose deadline has passed, recording their
    /// zero-work outcome.
    fn purge_expired(&mut self) {
        let now = self.now;
        let expired = self.pool.purge_expired(now);
        if expired.is_empty() {
            return;
        }
        for (row, task) in &expired {
            self.expired += 1;
            // A re-pooled failure remnant already has its partial
            // outcome recorded at the cut — leave it in place.
            if !self.carry.contains_key(&row.id) {
                self.record_unserved(row.id, task.accuracy.a_min(), now);
            }
        }
        self.plan_dirty = true;
    }

    /// Records a task that will never run (rejected / expired /
    /// starved): zero work, zero energy, its floor accuracy, and a
    /// `Dropped` marker event (machine `usize::MAX`, like the offline
    /// executor's never-dispatched convention).
    fn record_unserved(&mut self, id: u64, floor: f64, time: f64) {
        self.events.push(TraceEvent {
            time,
            machine: usize::MAX,
            task: id as usize,
            kind: EventKind::Dropped,
        });
        self.outcomes.push((
            id,
            TaskOutcome {
                machine: None,
                start: time,
                completion: time,
                work: 0.0,
                accuracy: floor,
                energy: 0.0,
                met_deadline: true,
                speed_factor: 1.0,
            },
        ));
    }

    /// The admission baseline: the incumbent plan's *fractional* value
    /// `Σ_j a_j(f_j)` over its flop vector, summed in plan order. Read
    /// only while the incumbent is fresh — solved on the pool as it
    /// stands, so plan row `j` is pool row `j` — and `0.0` without one.
    fn baseline_value(&self) -> f64 {
        let Some(plan) = self.plan.as_ref() else {
            return 0.0;
        };
        debug_assert!(self.lines_up(plan), "the baseline reads a fresh plan");
        self.pool
            .instance()
            .tasks()
            .iter()
            .zip(&plan.approx.fractional.flops)
            .map(|(t, &f)| t.accuracy.eval(f))
            .sum()
    }

    /// Whether `plan` was solved on the pool's rows as they stand, so
    /// its task `j` is pool row `j`.
    fn lines_up(&self, plan: &Plan) -> bool {
        plan.rows
            .iter()
            .map(|r| r.seq)
            .eq(self.pool.rows().iter().map(|r| r.seq))
    }

    /// The fractional tentative value of a full solve: `Σ_j a_j(f_j)` in
    /// task order, the arithmetic of [`Self::baseline_value`].
    fn fractional_total(inst: &Instance, flops: &[f64]) -> f64 {
        flops
            .iter()
            .enumerate()
            .map(|(j, &f)| inst.task(j).accuracy.eval(f))
            .sum()
    }

    /// One gated admission evaluation: the candidate joins the pool, the
    /// pool is read and solved for adoption, then the policy's test runs
    /// against a baseline, and the solved plan is adopted on admission.
    /// A rejected candidate leaves the pool again.
    ///
    /// The adoption solve starts from the standing incumbent's hint
    /// ([`Self::warm_hint`]). The test first runs against the
    /// replanner's certificate on that solve, an upper bound on the
    /// pool's optimum and so on the baseline. Both gated tests only get
    /// easier as the baseline falls, so passing at the bound proves the
    /// exact test passes, and the pool is not re-planned. Otherwise the
    /// candidate steps out and the pool is re-planned for the exact
    /// baseline, as [`Self::ensure_plan`] does.
    fn decide_and_adopt(&mut self, task: &OnlineTask, policy: AdmissionPolicy) -> Decision {
        if self.pool.machine_ids().is_empty() {
            // Every machine is dead: nothing can serve the candidate,
            // so the gated policies turn it away. The pool's re-plan
            // still drops the incumbent, as on the exact path.
            self.ensure_plan();
            self.record_unserved(task.id, task.accuracy.a_min(), self.now);
            return Decision::Rejected;
        }
        let seq = self.admit(task);
        let read = self.read_pool();
        assert!(read, "the candidate is live and a machine is alive");
        let warm = self.warm_hint();
        let approx = self.solve_pool(warm.as_ref());
        self.solves += 1;
        let rows = self.pool.rows().to_vec();
        let jc = rows
            .iter()
            .position(|r| r.seq == seq)
            .expect("the candidate is pooled");
        let inst = self.pool.instance();
        let tentative = Self::fractional_total(inst, &approx.fractional.flops);
        let tentative_cand = inst.task(jc).accuracy.eval(approx.fractional.flops[jc]);
        let cand_floor = task.accuracy.a_min();
        let test = |baseline| policy.decide(baseline, tentative, tentative_cand, cand_floor);
        let certified = self.replanner.certify_without(
            self.pool.evaluator(),
            inst,
            &approx.fractional.profile,
            jc,
            |bound| test(bound) == Decision::Admitted,
        );
        let decision = match certified {
            Some(_bound) => {
                #[cfg(debug_assertions)]
                {
                    let (row, cand) = self.pool.remove(jc);
                    self.assert_certified(_bound, test);
                    self.pool.insert(jc, row, cand);
                }
                Decision::Admitted
            }
            None => {
                let (row, cand) = self.pool.remove(jc);
                self.ensure_plan();
                let decision = test(self.baseline_value());
                if decision == Decision::Admitted {
                    self.pool.insert(jc, row, cand);
                }
                decision
            }
        };
        if decision == Decision::Admitted {
            self.adopt(Plan {
                time: self.now,
                rows,
                machine_ids: self.pool.machine_ids().clone(),
                approx,
            });
        } else {
            self.record_unserved(task.id, cand_floor, self.now);
        }
        decision
    }

    /// Debug cross-check of a certified admission, with the candidate
    /// stepped out of the pool: the baseline the exact path would compare
    /// against — the incumbent's value if it is fresh, else a cold
    /// re-solve of the pool on the side, with the replanner's counters
    /// restored — lies under the certified `bound` and passes the
    /// policy's `test`.
    #[cfg(debug_assertions)]
    fn assert_certified(&mut self, bound: f64, test: impl Fn(f64) -> Decision) {
        let fresh = !self.plan_dirty && self.plan.as_ref().map(|p| p.time) == Some(self.now);
        let baseline = if fresh {
            self.baseline_value()
        } else if self.read_pool() {
            let inst = self.pool.instance();
            let approx = self.replanner.solve_uncounted(inst);
            Self::fractional_total(inst, &approx.fractional.flops)
        } else {
            0.0
        };
        assert!(
            baseline <= bound && test(baseline) == Decision::Admitted,
            "certified bound {bound} at {}: the exact baseline {baseline} decides {:?}",
            self.now,
            test(baseline)
        );
    }

    /// Ensures the incumbent plan was solved for the current pool at the
    /// current time (the gated policies compare against it).
    fn ensure_plan(&mut self) {
        self.purge_expired();
        if self.pool.is_empty() {
            self.plan = None;
            self.plan_dirty = false;
            self.clear_queues();
            return;
        }
        let fresh = !self.plan_dirty && self.plan.as_ref().map(|p| p.time) == Some(self.now);
        if !fresh {
            self.replan();
        }
    }

    /// Re-plans the pending pool at the current time and adopts the
    /// result as the incumbent.
    fn replan(&mut self) {
        self.plan_dirty = false;
        self.purge_expired();
        if self.pool.is_empty() {
            self.plan = None;
            self.clear_queues();
            return;
        }
        // Nothing adopted here means every machine is dead: pooled tasks
        // can only starve, and there is nothing to plan.
        if self.solve_and_adopt_pool() {
            self.solves += 1;
        } else {
            self.plan = None;
            self.clear_queues();
        }
    }

    /// The machine park re-plans run against: alive machines at their
    /// degraded speeds (power unchanged), plus the sub-index → original
    /// park index mapping. `None` when every machine is dead. While no
    /// disruption has touched the park this is a verbatim clone, so
    /// disruption-free runs replay the pre-fault code path bit for bit.
    /// The pool keeps it until the next disruption.
    fn alive_park(&self) -> Option<(MachinePark, Vec<usize>)> {
        let pristine = self.alive.iter().all(|&a| a) && self.degrade.iter().all(|&g| g == 1.0);
        if pristine {
            return Some((self.park.clone(), (0..self.park.len()).collect()));
        }
        let mut machines = Vec::new();
        let mut machine_ids = Vec::new();
        for (r, mach) in self.park.machines().iter().enumerate() {
            if !self.alive[r] {
                continue;
            }
            let g = self.degrade[r];
            let sub = if g == 1.0 {
                *mach
            } else {
                Machine::new(mach.speed() * g, mach.power())
                    .expect("a degraded speed stays positive and finite")
            };
            machines.push(sub);
            machine_ids.push(r);
        }
        if machines.is_empty() {
            return None;
        }
        Some((MachinePark::new(machines), machine_ids))
    }

    /// Reads the pool at the current time under the ledger's remaining
    /// budget; `false` when there is nothing to schedule — no pooled
    /// task, or no live machine. Debug builds hold every read, and the
    /// evaluator the pool keeps in step with it, to the reference
    /// builders.
    fn read_pool(&mut self) -> bool {
        let read = self
            .pool
            .read_at(self.now, self.ledger.remaining())
            .is_some();
        #[cfg(debug_assertions)]
        if read {
            self.pool.assert_matches_reference(self.now);
            self.pool.assert_evaluator_matches_reference(self.now);
        }
        read
    }

    /// Runs the pool as last read through the replanner's full-solve
    /// path, on the evaluator the pool keeps (the replanner holds the
    /// result to the invariant oracle when its solver's
    /// `check_invariants` is on).
    fn solve_pool(&mut self, warm: Option<&EnergyProfile>) -> dsct_core::approx::ApproxSolution {
        self.replanner
            .solve_on(self.pool.evaluator(), self.pool.instance(), warm)
    }

    /// Reads the pool at the current time, solves it — warm-started from
    /// [`Self::warm_hint`] when there is an incumbent — and adopts the
    /// result as the incumbent. Returns `false`, adopting nothing, when there is
    /// nothing to schedule — no pooled task, or no live machine.
    fn solve_and_adopt_pool(&mut self) -> bool {
        if !self.read_pool() {
            return false;
        }
        let warm = self.warm_hint();
        let approx = self.solve_pool(warm.as_ref());
        self.adopt(Plan {
            time: self.now,
            rows: self.pool.rows().to_vec(),
            machine_ids: self.pool.machine_ids().clone(),
            approx,
        });
        true
    }

    /// The warm-start hint for a solve of the pool as just read: the
    /// incumbent's fractional profile summed over still-pending tasks
    /// (dispatched work excluded, so the hint shrinks as the plan is
    /// consumed), re-indexed from the incumbent's machine set onto the
    /// pool's sub-park. A machine that failed since the incumbent was
    /// solved simply loses its share of the hint. Both row lists are in
    /// deadline order, so one walk pairs them: a planned row is pending
    /// when a pool row of the same deadline carries its id — a failure
    /// remnant re-enters under a new sequence number and still counts.
    /// `None` without an incumbent.
    fn warm_hint(&self) -> Option<EnergyProfile> {
        let plan = self.plan.as_ref()?;
        let fr = &plan.approx.fractional.schedule;
        let rows = self.pool.rows();
        let mut by_original = vec![0.0f64; self.park.len()];
        let mut i = 0;
        for (j, planned) in plan.rows.iter().enumerate() {
            while i < rows.len() && rows[i].deadline < planned.deadline {
                i += 1;
            }
            let pending = rows[i..]
                .iter()
                .take_while(|r| r.deadline == planned.deadline)
                .any(|r| r.id == planned.id);
            if pending {
                for (r_sub, &r) in plan.machine_ids.iter().enumerate() {
                    by_original[r] += fr.t(j, r_sub);
                }
            }
        }
        let caps: Vec<f64> = self
            .pool
            .machine_ids()
            .iter()
            .map(|&r| by_original[r])
            .collect();
        Some(EnergyProfile::new(caps))
    }

    /// Adopts a plan solved on the pool as it stands as the incumbent and
    /// materializes its dispatch queues: per machine, assigned tasks in
    /// residual (deadline) order, starting no earlier than the machine's
    /// committed work allows, cut at their absolute deadlines (the
    /// `DSCT-EA-APPROX` phase-2 cut with an availability offset). Cutting
    /// only shortens times, so the materialized plan consumes at most the
    /// solved plan's energy.
    fn adopt(&mut self, plan: Plan) {
        debug_assert!(self.lines_up(&plan), "a plan is adopted on its rows");
        self.clear_queues();
        let schedule = &plan.approx.schedule;
        for (r_sub, &r) in plan.machine_ids.iter().enumerate() {
            let mut completion = self.free_at[r].max(plan.time);
            for (j, row) in plan.rows.iter().enumerate() {
                let t = schedule.t(j, r_sub);
                if t <= 0.0 {
                    continue;
                }
                let d = row.deadline;
                let new_t = if completion + t > d {
                    (d - completion).max(0.0)
                } else {
                    t
                };
                completion += new_t;
                if new_t > 0.0 {
                    self.queues[r].push_back(Queued {
                        deadline: d,
                        seq: row.seq,
                        duration: new_t,
                    });
                }
            }
        }
        self.replans += 1;
        self.plan = Some(plan);
        self.plan_dirty = false;
    }

    fn clear_queues(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
    }
}

/// The shared configuration shape of the trace-replay entry points:
/// [`replay`] here and `replay_sharded` in `dsct-server` consume the
/// same struct, so a harness sweeps one config across both paths. The
/// plain replay is the single-cell case by definition and reads only
/// [`ReplayConfig::online`]; the sharded path additionally reads
/// `shards` and `workers`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplayConfig {
    /// Per-cell online service configuration.
    pub online: OnlineConfig,
    /// Shard cells of a sharded replay (ignored by [`replay`]).
    pub shards: usize,
    /// Worker threads finishing shard cells at the end of a sharded
    /// replay, `0` = all cores (ticks advance the cells on the caller's
    /// thread); results never depend on it (ignored by [`replay`]).
    pub workers: usize,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        Self {
            online: OnlineConfig::default(),
            shards: 4,
            workers: 1,
        }
    }
}

/// Replays an [`ArrivalTrace`] through a fresh service: submits every
/// task in arrival order and drains. Deterministic: equal inputs produce
/// equal (bit-identical) reports, regardless of how many threads the
/// surrounding harness uses.
pub fn replay(trace: &ArrivalTrace, cfg: &ReplayConfig) -> Result<OnlineReport, OnlineError> {
    let mut svc = OnlineService::new(trace.park.clone(), trace.budget, cfg.online)?;
    for task in &trace.tasks {
        svc.try_submit(task)?;
    }
    Ok(svc.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_accuracy::PwlAccuracy;
    use dsct_machines::Machine;

    fn park() -> MachinePark {
        MachinePark::new(vec![
            Machine::new(2000.0, 80.0).unwrap(),
            Machine::new(5000.0, 120.0).unwrap(),
        ])
    }

    fn task(id: u64, arrival: f64, deadline: f64) -> OnlineTask {
        OnlineTask {
            id,
            tenant: id,
            arrival,
            deadline,
            accuracy: PwlAccuracy::new(&[(0.0, 0.1), (400.0, 0.6), (1200.0, 0.85)]).unwrap(),
        }
    }

    /// The dispatches in flight, in ascending task id:
    /// `(id, machine, start, completion)`.
    fn in_flight(svc: &OnlineService) -> Vec<(u64, usize, f64, f64)> {
        let mut all: Vec<_> = (svc.inflight.iter().enumerate())
            .flat_map(|(r, lane)| {
                lane.iter()
                    .map(move |fl| (fl.task.id, r, fl.start, fl.completion))
            })
            .collect();
        all.sort_by_key(|&(id, ..)| id);
        all
    }

    #[test]
    fn single_arrival_is_served_and_the_ledger_balances() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        assert_eq!(
            svc.try_submit(&task(0, 0.0, 1.0)).unwrap(),
            Decision::Admitted
        );
        let report = svc.finish();
        assert_eq!(report.summary.dispatched, 1);
        assert_eq!(report.summary.solves, 1);
        assert!(report.summary.total_accuracy > 0.1);
        // Zero jitter: actuals equal plans, nothing stays committed.
        assert!((report.ledger.spent() - report.summary.committed_energy).abs() < 1e-9);
        assert_eq!(report.ledger.committed(), 0.0);
        assert!(report.ledger.spent() <= 500.0 + 1e-9);
    }

    #[test]
    fn same_timestamp_batch_replans_once_under_admit_all() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        for id in 0..6 {
            svc.try_submit(&task(id, 0.0, 1.0 + id as f64 * 0.1))
                .unwrap();
        }
        let report = svc.finish();
        assert_eq!(report.summary.arrivals, 6);
        assert_eq!(report.summary.admitted, 6);
        assert_eq!(
            report.summary.solves, 1,
            "a same-timestamp batch must be re-planned lazily, once"
        );
    }

    #[test]
    fn dead_on_arrival_tasks_are_rejected_by_every_policy() {
        for policy in [
            AdmissionPolicy::AdmitAll,
            AdmissionPolicy::RejectIfInfeasible,
            AdmissionPolicy::DegradeToFit,
        ] {
            let cfg = OnlineConfig {
                policy,
                ..OnlineConfig::default()
            };
            let mut svc = OnlineService::new(park(), 500.0, cfg).unwrap();
            svc.try_submit(&task(0, 0.0, 0.5)).unwrap();
            // Arrives at t=1 with deadline 0.8: already dead.
            assert_eq!(
                svc.try_submit(&task(1, 1.0, 0.8)).unwrap(),
                Decision::Rejected
            );
            let report = svc.finish();
            assert_eq!(report.summary.rejected, 1);
            assert_eq!(report.trace.tasks[1].accuracy, 0.1);
        }
    }

    #[test]
    fn rejecting_policies_never_beat_their_own_baseline_promise() {
        // Starve the budget so late arrivals cannot all be served; the
        // gated policies must still leave the run consistent.
        let cfg = OnlineConfig {
            policy: AdmissionPolicy::RejectIfInfeasible,
            ..OnlineConfig::default()
        };
        let mut svc = OnlineService::new(park(), 30.0, cfg).unwrap();
        for id in 0..5 {
            svc.try_submit(&task(id, id as f64 * 0.05, 0.6)).unwrap();
        }
        let report = svc.finish();
        assert_eq!(
            report.summary.rejected + report.summary.admitted,
            report.summary.arrivals
        );
        assert!(report.ledger.spent() <= 30.0 + 1e-9);
    }

    #[test]
    fn invalid_jitter_is_rejected_at_construction() {
        let cfg = OnlineConfig {
            speed_jitter: 1.0,
            ..OnlineConfig::default()
        };
        assert!(matches!(
            OnlineService::new(park(), 10.0, cfg),
            Err(OnlineError::Exec(ExecError::InvalidConfig { .. }))
        ));
    }

    #[test]
    fn degenerate_shard_inputs_yield_typed_errors_not_panics() {
        // Empty shard slice.
        assert_eq!(
            OnlineService::from_machines(Vec::new(), 10.0, OnlineConfig::default()).err(),
            Some(OnlineError::EmptyPark)
        );
        // Bad budget slices.
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                OnlineService::new(park(), bad, OnlineConfig::default()),
                Err(OnlineError::InvalidBudget(_))
            ));
        }
        // A zero budget slice is valid: the shard starves, not panics.
        let mut svc = OnlineService::new(park(), 0.0, OnlineConfig::default()).unwrap();
        assert_eq!(
            svc.try_submit(&task(0, 0.0, 1.0)).unwrap(),
            Decision::Admitted
        );
        let report = svc.finish();
        assert_eq!(report.summary.dispatched, 0);
        assert_eq!(report.ledger.spent(), 0.0);
    }

    #[test]
    fn adversarial_task_floats_are_rejected_without_state_damage() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        let mut bad = task(7, 0.0, 1.0);
        bad.deadline = f64::NAN;
        assert!(matches!(
            svc.try_submit(&bad),
            Err(OnlineError::InvalidTask {
                field: "deadline",
                ..
            })
        ));
        bad.deadline = f64::INFINITY;
        assert!(svc.try_submit(&bad).is_err());
        bad.deadline = 1.0;
        bad.arrival = f64::NAN;
        assert!(matches!(
            svc.try_submit(&bad),
            Err(OnlineError::InvalidTask {
                field: "arrival",
                ..
            })
        ));
        // The failed submissions recorded nothing: a clean task still
        // goes through and the report covers exactly one arrival.
        assert_eq!(
            svc.try_submit(&task(0, 0.0, 1.0)).unwrap(),
            Decision::Admitted
        );
        svc.try_submit(&task(1, 1.0, 0.5)).unwrap();
        assert!(matches!(
            svc.try_submit(&task(2, 0.2, 1.0)),
            Err(OnlineError::NonMonotoneClock { .. })
        ));
        let report = svc.finish();
        assert_eq!(report.summary.arrivals, 2);
    }

    #[test]
    fn a_pending_id_is_a_typed_duplicate() {
        for policy in [AdmissionPolicy::AdmitAll, AdmissionPolicy::DegradeToFit] {
            let cfg = OnlineConfig {
                policy,
                ..OnlineConfig::default()
            };
            let mut svc = OnlineService::new(park(), 500.0, cfg).unwrap();
            svc.try_submit(&task(0, 0.0, 1.0)).unwrap();
            assert_eq!(
                svc.try_submit(&task(0, 0.0, 2.0)),
                Err(OnlineError::DuplicateId { id: 0 })
            );
            // A batch stops at the duplicate, after admitting what came
            // before it.
            assert_eq!(
                svc.preload(&[task(1, 0.0, 1.5), task(1, 0.0, 1.5)]),
                Err(OnlineError::DuplicateId { id: 1 })
            );
            assert_eq!(svc.pending(), 2, "{policy:?}");
            let report = svc.finish();
            assert_eq!(report.summary.arrivals, 2, "no decision for a duplicate");
        }
    }

    #[test]
    fn drain_pending_hands_back_undispatched_tasks_and_keeps_remnants() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        for id in 0..4 {
            svc.try_submit(&task(id, 0.0, 5.0 + id as f64)).unwrap();
        }
        // Nothing dispatched yet (the batch re-plan is lazy): every
        // task drains, in admission order.
        let drained = svc.drain_pending();
        assert_eq!(
            drained.iter().map(|t| t.id).collect::<Vec<_>>(),
            [0, 1, 2, 3]
        );
        assert_eq!(svc.pending(), 0);
        let report = svc.finish();
        assert_eq!(report.summary.dispatched, 0);
        assert_eq!(
            report.summary.starved, 0,
            "drained tasks are not starved here"
        );
        assert!(
            report.trace.tasks.is_empty(),
            "no outcome for drained tasks"
        );

        // A failure remnant, by contrast, stays pooled on drain.
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        svc.try_submit(&task(0, 0.0, 1.0)).unwrap();
        svc.advance_clock(1e-6).unwrap();
        let (_, machine, _, _) = in_flight(&svc)[0];
        svc.inject(0.01, &Disruption::MachineFailure { machine })
            .unwrap();
        assert_eq!(svc.pending(), 1, "the remnant re-pooled");
        assert!(svc.drain_pending().is_empty(), "remnants never drain");
        assert_eq!(svc.pending(), 1);
    }

    #[test]
    fn failure_cuts_the_inflight_task_and_settles_burned_joules() {
        // One machine, so no survivor can pick up the remnant: the cut
        // outcome is final.
        let park = MachinePark::new(vec![Machine::new(2000.0, 80.0).unwrap()]);
        let mut svc = OnlineService::new(park, 500.0, OnlineConfig::default()).unwrap();
        svc.try_submit(&task(0, 0.0, 1.0)).unwrap();
        // Commit the dispatch without settling it (its completion lies
        // past 1e-6), then fail the machine it landed on mid-run.
        svc.advance_to(1e-6);
        let (_, machine, start, completion) = in_flight(&svc)[0];
        let mid = start + 0.5 * (completion - start);
        svc.inject(mid, &Disruption::MachineFailure { machine })
            .unwrap();
        let report = svc.finish();
        assert_eq!(report.summary.failures, 1);
        assert_eq!(report.trace.failures(), 1);
        let outcome = report.trace.tasks[0];
        assert_eq!(outcome.machine, Some(machine));
        assert!((outcome.completion - mid).abs() < 1e-9);
        assert!(outcome.work > 0.0, "compress keeps the partial work");
        // The ledger charged exactly the joules burned up to the cut.
        assert!((outcome.energy - 80.0 * (mid - start)).abs() < 1e-9);
        assert!((report.ledger.spent() - outcome.energy).abs() < 1e-9);
        assert_eq!(report.ledger.committed(), 0.0);
    }

    #[test]
    fn failure_remnant_finishes_on_the_surviving_machine() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        svc.try_submit(&task(0, 0.0, 1.0)).unwrap();
        svc.advance_to(1e-6);
        let (_, machine, start, completion) = in_flight(&svc)[0];
        let mid = start + 0.5 * (completion - start);
        svc.inject(mid, &Disruption::MachineFailure { machine })
            .unwrap();
        let report = svc.finish();
        assert_eq!(report.summary.failures, 1);
        let outcome = report.trace.tasks[0];
        // The remnant re-planned onto the survivor and kept its carry:
        // cumulative work exceeds the partial run, accuracy reflects it.
        assert_ne!(outcome.machine, Some(machine));
        assert!(outcome.work > 0.0);
        assert!(outcome.accuracy > 0.1);
        assert!(report.ledger.spent() <= 500.0 + 1e-9);
        assert_eq!(report.ledger.committed(), 0.0);
    }

    /// A task cut by a failure and re-dispatched reports one outcome,
    /// its last: `task_ids` stays strictly ascending and holds the id
    /// once, with the re-dispatch's machine and completion.
    #[test]
    fn a_cut_and_redispatched_task_reports_once_with_its_final_outcome() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        for (id, deadline) in [(9, 6.0), (3, 7.0), (7, 5.0)] {
            svc.try_submit(&task(id, 0.0, deadline)).unwrap();
        }
        svc.advance_to(1e-6);
        let (id, machine, start, completion) = in_flight(&svc)[0];
        let mid = start + 0.5 * (completion - start);
        svc.inject(mid, &Disruption::MachineFailure { machine })
            .unwrap();
        let report = svc.finish();
        assert_eq!(report.summary.failures, 1);
        assert_eq!(report.task_ids, [3, 7, 9], "one outcome per id, ascending");
        let dispatches = report
            .trace
            .events
            .iter()
            .filter(|e| e.task == id as usize && e.kind == EventKind::Dispatch)
            .count();
        assert_eq!(dispatches, 2, "the remnant was re-dispatched");
        let k = report.task_ids.iter().position(|&t| t == id).unwrap();
        let outcome = report.trace.tasks[k];
        assert_ne!(outcome.machine, Some(machine), "the survivor's outcome");
        assert!(outcome.start >= mid && outcome.completion > mid);
        assert!(outcome.work > 0.0);
    }

    #[test]
    fn failure_under_drop_policy_pays_joules_but_keeps_no_work() {
        let cfg = OnlineConfig {
            overrun: OverrunPolicy::Drop,
            ..OnlineConfig::default()
        };
        let mut svc = OnlineService::new(park(), 500.0, cfg).unwrap();
        svc.try_submit(&task(0, 0.0, 1.0)).unwrap();
        svc.advance_to(1e-6);
        let (_, machine, start, completion) = in_flight(&svc)[0];
        let mid = start + 0.5 * (completion - start);
        svc.inject(mid, &Disruption::MachineFailure { machine })
            .unwrap();
        let report = svc.finish();
        let outcome = report.trace.tasks[0];
        assert_eq!(outcome.work, 0.0);
        assert_eq!(outcome.accuracy, 0.1);
        assert!(outcome.energy > 0.0, "burned joules are paid either way");
    }

    #[test]
    fn failure_remnant_is_replanned_onto_surviving_machines() {
        // Fail a machine at t=0 before anything runs: the whole pool
        // must land on the survivor and the run stays budget-consistent.
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        svc.inject(0.0, &Disruption::MachineFailure { machine: 1 })
            .unwrap();
        for id in 0..4 {
            svc.try_submit(&task(id, 0.0, 1.0 + id as f64 * 0.2))
                .unwrap();
        }
        let report = svc.finish();
        assert!(report.summary.dispatched > 0);
        for t in report.trace.tasks.iter() {
            assert_ne!(t.machine, Some(1), "dead machines never serve tasks");
        }
        assert!(report.ledger.spent() <= 500.0 + 1e-9);
    }

    #[test]
    fn degradation_slows_planning_speed_but_not_power() {
        let base = {
            let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
            svc.try_submit(&task(0, 0.0, 0.3)).unwrap();
            svc.finish()
        };
        let degraded = {
            let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
            svc.inject(
                0.0,
                &Disruption::SpeedDegradation {
                    machine: 0,
                    factor: 0.5,
                },
            )
            .unwrap();
            svc.inject(
                0.0,
                &Disruption::SpeedDegradation {
                    machine: 1,
                    factor: 0.5,
                },
            )
            .unwrap();
            svc.try_submit(&task(0, 0.0, 0.3)).unwrap();
            svc.finish()
        };
        // Halved speeds with the same deadline and power: the served
        // work (hence accuracy) can only go down.
        assert!(degraded.summary.total_accuracy <= base.summary.total_accuracy + 1e-9);
        assert!(degraded.trace.tasks[0].work < base.trace.tasks[0].work - 1e-9);
    }

    #[test]
    fn budget_shock_to_zero_starves_later_arrivals() {
        let mut svc = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        svc.try_submit(&task(0, 0.0, 0.4)).unwrap();
        svc.inject(0.5, &Disruption::BudgetShock { delta: -1e6 })
            .unwrap();
        svc.try_submit(&task(1, 0.6, 1.2)).unwrap();
        let report = svc.finish();
        assert_eq!(report.ledger.budget(), 0.0);
        // Task 0 ran before the shock; task 1 found an empty ledger.
        assert!(report.trace.tasks[0].work > 0.0);
        assert_eq!(report.trace.tasks[1].work, 0.0);
    }

    #[test]
    fn disruption_free_runs_are_unchanged_by_the_fault_machinery() {
        // Injecting a degradation with factor 1.0 and a zero shock must
        // leave the run bit-identical to an untouched service.
        let run = |touch: bool| {
            let mut svc = OnlineService::new(park(), 120.0, OnlineConfig::default()).unwrap();
            if touch {
                svc.inject(
                    0.0,
                    &Disruption::SpeedDegradation {
                        machine: 0,
                        factor: 1.0,
                    },
                )
                .unwrap();
                svc.inject(0.0, &Disruption::BudgetShock { delta: 0.0 })
                    .unwrap();
            }
            for id in 0..5 {
                svc.try_submit(&task(id, id as f64 * 0.1, 0.8 + id as f64 * 0.15))
                    .unwrap();
            }
            let r = svc.finish();
            (r.summary, r.trace.tasks)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn invalid_disruptions_are_rejected_with_typed_errors() {
        let mut svc = OnlineService::new(park(), 10.0, OnlineConfig::default()).unwrap();
        assert!(svc
            .inject(f64::NAN, &Disruption::BudgetShock { delta: 0.0 })
            .is_err());
        assert!(svc
            .inject(0.0, &Disruption::MachineFailure { machine: 7 })
            .is_err());
        assert!(svc
            .inject(
                0.0,
                &Disruption::SpeedDegradation {
                    machine: 0,
                    factor: 0.0
                }
            )
            .is_err());
        assert!(svc
            .inject(
                0.0,
                &Disruption::SpeedDegradation {
                    machine: 0,
                    factor: 1.5
                }
            )
            .is_err());
        svc.try_submit(&task(0, 1.0, 2.0)).unwrap();
        assert!(
            svc.inject(0.5, &Disruption::BudgetShock { delta: 0.0 })
                .is_err(),
            "the service clock only moves forward"
        );
    }

    #[test]
    fn jitter_factor_depends_only_on_seed_and_id() {
        let cfg = OnlineConfig {
            speed_jitter: 0.2,
            jitter_seed: 42,
            ..OnlineConfig::default()
        };
        let a = OnlineService::new(park(), 10.0, cfg).unwrap();
        let b = OnlineService::new(park(), 10.0, cfg).unwrap();
        for id in 0..16u64 {
            let f = a.jitter_factor(id);
            assert_eq!(f, b.jitter_factor(id));
            assert!((0.8..=1.2).contains(&f), "factor {f} out of range");
        }
    }

    #[test]
    fn preload_matches_a_same_timestamp_admit_all_burst() {
        let batch: Vec<OnlineTask> = (0..6)
            .map(|id| task(id, 0.0, 1.0 + id as f64 * 0.1))
            .collect();
        let mut bulk = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        bulk.preload(&batch).unwrap();
        let mut serial = OnlineService::new(park(), 500.0, OnlineConfig::default()).unwrap();
        for t in &batch {
            serial.try_submit(t).unwrap();
        }
        let (bulk, serial) = (bulk.finish(), serial.finish());
        assert_eq!(bulk.summary, serial.summary);
        assert_eq!(bulk.decisions, serial.decisions);
        assert_eq!(bulk.summary.solves, 1, "preload must re-plan lazily, once");
    }

    /// The replanner's admission contract at the service level: under
    /// every gated policy each evaluation is settled once, by the
    /// certificate or by the exact baseline, and the certificate settles
    /// some of `DegradeToFit`'s. (Debug builds hold every certified
    /// admission to the exact baseline test inside the service.)
    #[test]
    fn gated_runs_settle_every_evaluation_once() {
        for policy in [
            AdmissionPolicy::RejectIfInfeasible,
            AdmissionPolicy::DegradeToFit,
        ] {
            let cfg = OnlineConfig {
                policy,
                ..OnlineConfig::default()
            };
            // A lean budget so the policies actually reject some
            // arrivals, across several timestamps.
            let mut svc = OnlineService::new(park(), 60.0, cfg).unwrap();
            for id in 0..8 {
                svc.try_submit(&task(id, (id / 2) as f64 * 0.07, 0.6 + id as f64 * 0.05))
                    .unwrap();
            }
            let r = svc.finish().replan;
            assert_eq!(r.delta_bounds + r.fallbacks, 8, "{policy:?}: {r:?}");
            if policy == AdmissionPolicy::DegradeToFit {
                assert!(r.delta_bounds > 0, "no evaluation was certified");
            }
        }
    }
}
