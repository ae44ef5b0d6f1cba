//! The sharded scheduling server: shard cells, inline tick flushes,
//! shard-kill drains, and the federation loop.
//!
//! # Tick flushes
//!
//! The first submission of a new tick advances every cell to it, in
//! shard order, on the caller's thread. At serving pool sizes a cell's
//! advance is a few µs — less than waking a parked thread, let alone
//! spawning one — so a tick asks the OS for nothing: no thread, no core
//! count. The worker count (`0` = all cores, capped at the shard count)
//! sizes only the once-per-run fan-out of [`ScheduleServer::finish`],
//! which runs on [`dsct_core::run_indexed`].
//!
//! # Determinism argument
//!
//! The server's report is byte-identical for any worker count because
//! every source of nondeterminism is structurally excluded:
//!
//! 1. **Cells are independent.** Each shard owns its own
//!    [`OnlineService`]; no cell reads another cell's state, so the
//!    order in which cells advance or finish cannot change any cell's
//!    result.
//! 2. **Everything up to `finish` is serial and canonically ordered.**
//!    Tick flushes (every cell to the *same* timestamp), routing,
//!    federation transfers (ascending borrower index, ring lender order
//!    — see [`crate::federation`]), kill drains (pool admission order)
//!    and recoveries all run on the caller's thread.
//! 3. **`finish` works on frozen items.** [`dsct_core::run_indexed`]'s
//!    workers claim shard indices from an atomic cursor over a fixed
//!    range, and each takes the cell it claimed out of its slot, so it
//!    is the only thread that touches that cell.
//! 4. **Aggregation is in shard order.** `run_indexed` returns the
//!    per-cell reports in index order, and [`ScheduleServer::finish`]
//!    folds them `0..shards`, never in completion order.
//!
//! This is the fan-out every `dsct_sim` sweep runs on, applied to owned
//! cells instead of pure jobs.

use crate::federation::{plan_transfers, FederationConfig, Settlement, ShardFunds};
use crate::route::Router;
use dsct_chaos::{ShardChaosPlan, ShardEventKind};
use dsct_core::{run_indexed, EPS_TIME};
use dsct_exec::{ExecError, TaskOutcome};
use dsct_machines::{Machine, MachinePark};
use dsct_online::{Decision, Disruption, OnlineError, OnlineService, OnlineSummary, ReplayConfig};
use dsct_workload::{ArrivalTrace, OnlineTask};
use serde::{Deserialize, Serialize};
use std::sync::Mutex;

/// Configuration of a [`ScheduleServer`]: the [`ReplayConfig`] shared
/// with `dsct_online::replay` (shard count, worker count, per-cell online
/// config), plus the server-only federation knobs.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServerConfig {
    /// Shard cells, worker threads, and the per-cell online service
    /// configuration — the same struct the single-cell
    /// `dsct_online::replay` consumes, so a harness sweeps one config
    /// across both replay paths.
    pub replay: ReplayConfig,
    /// Cross-shard budget federation.
    pub federation: FederationConfig,
}

impl ServerConfig {
    /// Shard cell count (from the embedded [`ReplayConfig`]).
    pub fn shards(&self) -> usize {
        self.replay.shards
    }
}

/// One task handed from a killed shard to a survivor (or dropped, when
/// no survivor exists).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DrainRecord {
    /// Kill time (the drained task re-arrives at this instant).
    pub at: f64,
    /// Task id.
    pub task: u64,
    /// The killed shard the task was pooled on.
    pub from: usize,
    /// Receiving shard, `None` when every shard is dead.
    pub to: Option<usize>,
    /// The receiver's admission decision, `None` when dropped.
    pub decision: Option<Decision>,
}

/// One task re-assigned by the load-skew rebalancer: drained out of a
/// hot shard's pending pool and re-submitted to a cold one, with the
/// tenant pinned to the destination so future arrivals follow.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MoveRecord {
    /// Move time (the task re-arrives at this instant).
    pub at: f64,
    /// Task id.
    pub task: u64,
    /// The tenant being re-assigned (every task of the move shares it).
    pub tenant: u64,
    /// The hot shard the task was pooled on.
    pub from: usize,
    /// The receiving (cold) shard.
    pub to: usize,
    /// The receiver's admission decision.
    pub decision: Decision,
}

/// One shard recovery: a killed cell respawned with a fresh
/// [`OnlineService`] over the original machine group.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RecoveryRecord {
    /// Recovery time.
    pub at: f64,
    /// The respawned shard.
    pub shard: usize,
    /// Joules the fresh cell restarts with — whatever the dead
    /// incarnation's ledger still held (usually near zero: dead shards
    /// lend their whole slice to the federation).
    pub restored: f64,
}

/// The finished report of a dead shard incarnation, archived when the
/// shard is recovered. Outcomes the incarnation realized (dispatches,
/// failure cuts, starved leftovers) live here, not in the fresh cell's
/// trace — task ids stay single-accounted across the respawn.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchivedShard {
    /// The shard index this incarnation served.
    pub shard: usize,
    /// The incarnation's service summary.
    pub summary: OnlineSummary,
    /// The incarnation's `(task id, outcome)` pairs, ascending by id.
    pub tasks: Vec<(u64, TaskOutcome)>,
}

/// Server-level aggregate, folded from per-shard summaries in shard
/// order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerSummary {
    /// Shard count.
    pub shards: usize,
    /// Tasks submitted to the server (drain re-submissions excluded).
    pub arrivals: usize,
    /// Server-level admissions.
    pub admitted: usize,
    /// Server-level rejections.
    pub rejected: usize,
    /// Tasks dispatched to a machine, summed over shards.
    pub dispatched: usize,
    /// Shard kills applied.
    pub kills: usize,
    /// Shard recoveries applied.
    pub recoveries: usize,
    /// Tasks drained out of killed shards.
    pub drained: usize,
    /// Tasks moved by the load-skew rebalancer.
    pub moved: usize,
    /// Federation settlements executed.
    pub settlements: usize,
    /// Joules moved by the federation.
    pub federated_joules: f64,
    /// Realized total accuracy, summed over shards.
    pub total_accuracy: f64,
    /// Realized (settled) energy, summed over shards.
    pub spent_energy: f64,
    /// Latest completion over all shards.
    pub makespan: f64,
}

/// Everything a finished server run reports. The whole struct is
/// serializable; [`ServerReport::digest`] is the byte-comparable
/// payload of the server determinism contract.
#[derive(Debug, Clone, Serialize)]
pub struct ServerReport {
    /// `(task id, shard, decision)` per submission, in arrival order.
    pub decisions: Vec<(u64, usize, Decision)>,
    /// Per-shard service summaries, indexed by shard.
    pub shard_summaries: Vec<OnlineSummary>,
    /// Per-shard `(task id, outcome)` pairs in ascending id order.
    pub shard_tasks: Vec<Vec<(u64, TaskOutcome)>>,
    /// Federation transfers, in execution order.
    pub settlements: Vec<Settlement>,
    /// Kill drains, in execution order.
    pub drains: Vec<DrainRecord>,
    /// Rebalancer moves, in execution order.
    pub moves: Vec<MoveRecord>,
    /// Shard recoveries, in execution order.
    pub recoveries: Vec<RecoveryRecord>,
    /// Finished reports of dead shard incarnations that were later
    /// recovered, in recovery order. `shard_summaries`/`shard_tasks`
    /// cover only the incarnation alive at [`ScheduleServer::finish`];
    /// the union of both is the full single-accounted task set.
    pub archived: Vec<ArchivedShard>,
    /// The folded aggregate.
    pub summary: ServerSummary,
}

impl ServerReport {
    /// Canonical JSON serialization — equal digests ⇔ equal reports,
    /// down to every float bit.
    pub fn digest(&self) -> String {
        serde_json::to_string(self).expect("report serializes")
    }
}

/// Shard index recorded for a submission no live shard could take.
const NO_SHARD: usize = usize::MAX;

/// The sharded multi-tenant scheduling server. See the module docs for
/// the determinism argument and [`crate`] docs for the model.
pub struct ScheduleServer {
    cfg: ServerConfig,
    cells: Vec<OnlineService>,
    /// Machine group per shard — kept whole (not just sizes) so a
    /// recovery can respawn the cell over the original hardware.
    shard_machines: Vec<Vec<Machine>>,
    /// Initial budget slice per shard (the federation basis).
    slices: Vec<f64>,
    router: Router,
    now: f64,
    decisions: Vec<(u64, usize, Decision)>,
    settlements: Vec<Settlement>,
    drains: Vec<DrainRecord>,
    moves: Vec<MoveRecord>,
    recoveries: Vec<RecoveryRecord>,
    archived: Vec<ArchivedShard>,
    kills: usize,
}

impl ScheduleServer {
    /// Builds a server over `park` and a global `budget`: machines are
    /// dealt round-robin across `cfg.shards` cells (so heterogeneous
    /// parks spread evenly), and the budget splits proportionally to
    /// each cell's total power draw — the slice a cell would burn
    /// running flat-out scales with what it actually draws.
    ///
    /// Fails with [`OnlineError::EmptyPark`] when `cfg.shards == 0` or
    /// exceeds the machine count (some cell would own no machines) and
    /// [`OnlineError::InvalidBudget`] for a NaN/infinite/negative
    /// budget.
    pub fn new(park: &MachinePark, budget: f64, cfg: ServerConfig) -> Result<Self, OnlineError> {
        if cfg.replay.shards == 0 {
            return Err(OnlineError::EmptyPark);
        }
        if !(budget.is_finite() && budget >= 0.0) {
            return Err(OnlineError::InvalidBudget(budget));
        }
        let shards = cfg.replay.shards;
        let mut groups: Vec<Vec<Machine>> = vec![Vec::new(); shards];
        for (i, m) in park.machines().iter().enumerate() {
            groups[i % shards].push(*m);
        }
        let total_power: f64 = park.total_power();
        let mut cells = Vec::with_capacity(shards);
        let mut shard_machines = Vec::with_capacity(shards);
        let mut slices = Vec::with_capacity(shards);
        for group in groups {
            let power: f64 = group.iter().map(|m| m.power()).sum();
            let slice = if total_power > 0.0 {
                budget * power / total_power
            } else {
                budget / shards as f64
            };
            cells.push(OnlineService::from_machines(
                group.clone(),
                slice,
                cfg.replay.online,
            )?);
            shard_machines.push(group);
            slices.push(slice);
        }
        Ok(Self {
            cfg,
            cells,
            shard_machines,
            slices,
            router: Router::new(shards),
            now: 0.0,
            decisions: Vec::new(),
            settlements: Vec::new(),
            drains: Vec::new(),
            moves: Vec::new(),
            recoveries: Vec::new(),
            archived: Vec::new(),
            kills: 0,
        })
    }

    /// The current server clock.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The tenant router (live mask included).
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Advances every cell to `t`, in shard order on the caller's
    /// thread. This is where the tick-batched residual re-solves run:
    /// each cell's pool was filled by same-tick submissions under the
    /// `AdmitAll` lazy-dirty path, and the advance triggers exactly one
    /// re-solve per dirty cell. Infallible by construction: submission
    /// and kill paths validated `t` as finite and the server clock is
    /// monotone.
    fn advance_cells(&mut self, t: f64) {
        for cell in &mut self.cells {
            cell.advance_clock(t)
                .expect("server clock is finite and monotone");
        }
    }

    /// One federation round at `t`: plan on the current fund states,
    /// then apply each settlement as a paired budget shock. Serial and
    /// canonically ordered (see [`crate::federation`]).
    fn rebalance(&mut self, t: f64) -> Result<(), OnlineError> {
        if !self.cfg.federation.enabled || self.cells.len() < 2 {
            return Ok(());
        }
        let funds: Vec<ShardFunds> = self
            .cells
            .iter()
            .enumerate()
            .map(|(s, svc)| ShardFunds {
                remaining: svc.ledger().remaining(),
                slice: self.slices[s],
                pending: svc.pending(),
                alive: self.router.is_alive(s),
            })
            .collect();
        let plan = plan_transfers(&self.cfg.federation, t, &funds);
        for s in plan {
            self.inject(s.from, t, &Disruption::BudgetShock { delta: -s.joules })?;
            self.inject(s.to, t, &Disruption::BudgetShock { delta: s.joules })?;
            self.settlements.push(s);
        }
        Ok(())
    }

    fn inject(&mut self, shard: usize, at: f64, d: &Disruption) -> Result<(), ExecError> {
        self.cells[shard].inject(at, d)
    }

    /// Advances the server clock to `t`: flushes every cell, then runs
    /// a federation round. Called on the first submission of each new
    /// tick and on kill events.
    fn tick(&mut self, t: f64) -> Result<(), OnlineError> {
        self.advance_cells(t);
        self.rebalance(t)?;
        self.now = self.now.max(t);
        Ok(())
    }

    /// Advances the server clock to `t` without submitting anything:
    /// flushes every cell and runs a federation round, exactly as the
    /// first arrival of a new tick would. The ingestion gateway calls
    /// this at flush boundaries so rebalance evaluation sees settled
    /// pending pools.
    ///
    /// `t` at or before the current clock (within `EPS_TIME`) is a
    /// no-op; a finite but *earlier* `t` is a
    /// [`OnlineError::NonMonotoneClock`] error, a non-finite `t` an
    /// invalid-config error.
    pub fn advance(&mut self, t: f64) -> Result<(), OnlineError> {
        if !t.is_finite() {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "advance.t",
                value: t,
                requirement: "finite",
            }));
        }
        if t < self.now - EPS_TIME {
            return Err(OnlineError::NonMonotoneClock {
                at: t,
                now: self.now,
            });
        }
        if t > self.now + EPS_TIME {
            self.tick(t)?;
        }
        Ok(())
    }

    /// Pending pool depth of every shard (admitted-but-undispatched
    /// tasks, failure remnants included), indexed by shard. The skew
    /// signal the rebalancer thresholds on.
    pub fn pending_per_shard(&self) -> Vec<usize> {
        self.cells.iter().map(|cell| cell.pending()).collect()
    }

    /// `(tenant, movable task count)` for `shard`'s pending pool,
    /// ascending by tenant id. Counts only tasks a
    /// [`ScheduleServer::rebalance_tenants`] drain would actually move
    /// (failure remnants with partial work stay put).
    pub fn tenant_loads(&self, shard: usize) -> Vec<(u64, usize)> {
        self.cells[shard].pending_by_tenant()
    }

    /// Moves `tenants` from shard `from` to shard `to` at time `t`:
    /// each tenant's never-dispatched pending tasks drain out of `from`
    /// (the same machinery as a kill drain, so task ids stay
    /// single-accounted), re-arrive at `t` on `to`, and the tenant is
    /// pinned to `to` in the router so future arrivals follow the moved
    /// pool instead of re-creating the skew. Returns the number of
    /// tasks moved; every one is recorded as a [`MoveRecord`].
    ///
    /// Both shards must be alive and distinct.
    pub fn rebalance_tenants(
        &mut self,
        t: f64,
        from: usize,
        to: usize,
        tenants: &[u64],
    ) -> Result<usize, OnlineError> {
        if from >= self.cells.len() || to >= self.cells.len() || from == to {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "rebalance.shards",
                value: from as f64,
                requirement: "distinct valid shard indices",
            }));
        }
        if !self.router.is_alive(from) || !self.router.is_alive(to) {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "rebalance.shards",
                value: to as f64,
                requirement: "both shards alive",
            }));
        }
        self.advance(t)?;
        let t = t.max(self.now);
        let mut moved = 0usize;
        for &tenant in tenants {
            let drained = self.cells[from].drain_tenant(tenant);
            self.router.pin(tenant, to);
            for mut task in drained {
                task.arrival = t;
                let decision = self.cells[to].try_submit(&task)?;
                self.moves.push(MoveRecord {
                    at: t,
                    task: task.id,
                    tenant,
                    from,
                    to,
                    decision,
                });
                moved += 1;
            }
        }
        Ok(moved)
    }

    /// Recovers a killed shard at time `t`: respawns the cell as a
    /// fresh [`OnlineService`] (new `Replanner`, clean pool) over the
    /// shard's original machine group, archives the dead incarnation's
    /// finished report (see [`ArchivedShard`]), revives the shard in
    /// the router — its rendezvous tenants route back to it, pins
    /// excepted — and runs a federation round so the broke newcomer can
    /// immediately borrow back into its slice. The fresh cell restarts
    /// with whatever the dead ledger still held.
    ///
    /// Recovering a live shard is a no-op returning `false`; a real
    /// recovery returns `true` and appends a [`RecoveryRecord`].
    pub fn recover_shard(&mut self, t: f64, shard: usize) -> Result<bool, OnlineError> {
        if shard >= self.cells.len() {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "recover.shard",
                value: shard as f64,
                requirement: "a valid shard index",
            }));
        }
        if self.router.is_alive(shard) {
            return Ok(false);
        }
        self.advance(t)?;
        let t = t.max(self.now);
        let restored = self.cells[shard].ledger().remaining().max(0.0);
        let fresh = OnlineService::from_machines(
            self.shard_machines[shard].clone(),
            restored,
            self.cfg.replay.online,
        )?;
        let old = std::mem::replace(&mut self.cells[shard], fresh);
        let report = old.finish();
        self.archived.push(ArchivedShard {
            shard,
            summary: report.summary,
            tasks: report
                .task_ids
                .into_iter()
                .zip(report.trace.tasks)
                .collect(),
        });
        self.router.revive(shard);
        self.recoveries.push(RecoveryRecord {
            at: t,
            shard,
            restored,
        });
        self.rebalance(t)?;
        Ok(true)
    }

    /// Submits one arrival: routes it by rendezvous hash on
    /// `task.tenant` and hands it to the owning cell. Arrivals must be
    /// non-decreasing on the server clock; the first arrival of a new
    /// tick flushes the previous tick's batch across all cells (see the
    /// module docs), so same-tick submissions cost one residual
    /// re-solve per touched shard regardless of batch size.
    pub fn submit(&mut self, task: &OnlineTask) -> Result<Decision, OnlineError> {
        if !task.arrival.is_finite() {
            return Err(OnlineError::InvalidTask {
                id: task.id,
                field: "arrival",
                value: task.arrival,
            });
        }
        if task.arrival < self.now - EPS_TIME {
            return Err(OnlineError::NonMonotoneClock {
                at: task.arrival,
                now: self.now,
            });
        }
        if task.arrival > self.now + EPS_TIME {
            self.tick(task.arrival)?;
        }
        let Some(shard) = self.router.route(task.tenant) else {
            // Every shard is dead; the arrival is turned away at the
            // door rather than lost silently.
            self.decisions.push((task.id, NO_SHARD, Decision::Rejected));
            return Ok(Decision::Rejected);
        };
        let decision = self.cells[shard].try_submit(task)?;
        self.decisions.push((task.id, shard, decision));
        Ok(decision)
    }

    /// Kills shard `shard` at time `at`: the whole cell fails.
    ///
    /// The sequence is deterministic and ordered for correctness:
    /// 1. flush every cell to `at` (dispatches due before the kill
    ///    still commit; the victim's pending pool is exactly what had
    ///    not started);
    /// 2. mark the shard dead in the router;
    /// 3. drain the victim's pending pool — only never-dispatched tasks
    ///    move; failure remnants stay, their partial outcomes belong to
    ///    the dead shard's trace;
    /// 4. fail every machine of the cell (in-flight tasks are cut at
    ///    `at` with the usual failure semantics);
    /// 5. re-route the drained tasks to surviving shards by rendezvous
    ///    hash, re-arriving at `at`, in pool (admission) order;
    /// 6. run a federation round — the dead shard's unspent slice is
    ///    now pure lending stock.
    ///
    /// Killing an already-dead shard is a no-op.
    pub fn apply_shard_kill(&mut self, at: f64, shard: usize) -> Result<(), OnlineError> {
        if !(at.is_finite() && at >= self.now - EPS_TIME) {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "kill.at",
                value: at,
                requirement: "finite and non-decreasing on the server clock",
            }));
        }
        if shard >= self.cells.len() {
            return Err(OnlineError::Exec(ExecError::InvalidConfig {
                field: "kill.shard",
                value: shard as f64,
                requirement: "a valid shard index",
            }));
        }
        if !self.router.is_alive(shard) {
            return Ok(());
        }
        let at = at.max(self.now);
        self.tick(at)?;
        self.router.kill(shard);
        let drained = self.cells[shard].drain_pending();
        for machine in 0..self.shard_machines[shard].len() {
            self.inject(shard, at, &Disruption::MachineFailure { machine })?;
        }
        for task in drained {
            let mut task = task;
            task.arrival = at;
            match self.router.route(task.tenant) {
                Some(dst) => {
                    let decision = self.cells[dst].try_submit(&task)?;
                    self.drains.push(DrainRecord {
                        at,
                        task: task.id,
                        from: shard,
                        to: Some(dst),
                        decision: Some(decision),
                    });
                }
                None => {
                    self.drains.push(DrainRecord {
                        at,
                        task: task.id,
                        from: shard,
                        to: None,
                        decision: None,
                    });
                }
            }
        }
        self.kills += 1;
        self.rebalance(at)?;
        Ok(())
    }

    /// Finishes every cell — fanned out once on
    /// [`dsct_core::run_indexed`], each worker taking the cells it claims
    /// out of their slots — and folds the per-shard reports, in shard
    /// order, never completion order, into the server report.
    pub fn finish(self) -> ServerReport {
        let shards = self.cells.len();
        let slots: Vec<Mutex<Option<OnlineService>>> = self
            .cells
            .into_iter()
            .map(|cell| Mutex::new(Some(cell)))
            .collect();
        let reports = run_indexed(self.cfg.replay.workers, shards, |_, i| {
            let cell = slots[i].lock().expect("slot lock").take();
            cell.expect("each slot is claimed once").finish()
        });

        let (shard_summaries, shard_tasks): (Vec<OnlineSummary>, Vec<Vec<(u64, TaskOutcome)>>) =
            reports
                .into_iter()
                .map(|r| {
                    (
                        r.summary,
                        r.task_ids.into_iter().zip(r.trace.tasks).collect(),
                    )
                })
                .unzip();
        let rejected = self
            .decisions
            .iter()
            .filter(|(_, _, d)| *d == Decision::Rejected)
            .count();
        // Archived (recovered-over) incarnations realized outcomes of
        // their own; fold them into the run totals alongside the cells
        // alive at finish.
        let archived_summaries = self.archived.iter().map(|a| &a.summary);
        let summary = ServerSummary {
            shards,
            arrivals: self.decisions.len(),
            admitted: self.decisions.len() - rejected,
            rejected,
            dispatched: shard_summaries
                .iter()
                .chain(archived_summaries.clone())
                .map(|s| s.dispatched)
                .sum(),
            kills: self.kills,
            recoveries: self.recoveries.len(),
            drained: self.drains.len(),
            moved: self.moves.len(),
            settlements: self.settlements.len(),
            federated_joules: self.settlements.iter().map(|s| s.joules).sum(),
            total_accuracy: shard_summaries
                .iter()
                .chain(archived_summaries.clone())
                .map(|s| s.total_accuracy)
                .sum(),
            spent_energy: shard_summaries
                .iter()
                .chain(archived_summaries.clone())
                .map(|s| s.spent_energy)
                .sum(),
            makespan: shard_summaries
                .iter()
                .chain(archived_summaries)
                .map(|s| s.makespan)
                .fold(0.0, f64::max),
        };
        ServerReport {
            decisions: self.decisions,
            shard_summaries,
            shard_tasks,
            settlements: self.settlements,
            drains: self.drains,
            moves: self.moves,
            recoveries: self.recoveries,
            archived: self.archived,
            summary,
        }
    }
}

/// Replays `trace` through a fresh [`ScheduleServer`] with `plan`'s
/// shard kills and recoveries merged in by firing time (an event fires
/// before any arrival sharing its timestamp), each fired as
/// `dsct_gateway::Gateway::apply_event` fires it: a kill through
/// [`ScheduleServer::apply_shard_kill`], a recovery through
/// [`ScheduleServer::recover_shard`]. An empty plan is a plain sharded
/// replay. `cfg.replay` is the same [`ReplayConfig`] the single-cell
/// `dsct_online::replay` consumes.
pub fn replay_sharded(
    trace: &ArrivalTrace,
    cfg: &ServerConfig,
    plan: &ShardChaosPlan,
) -> Result<ServerReport, OnlineError> {
    let mut server = ScheduleServer::new(&trace.park, trace.budget, *cfg)?;
    let mut next = 0usize;
    for event in &plan.events {
        while next < trace.tasks.len() && trace.tasks[next].arrival < event.at {
            server.submit(&trace.tasks[next])?;
            next += 1;
        }
        match event.kind {
            ShardEventKind::Kill => server.apply_shard_kill(event.at, event.shard)?,
            ShardEventKind::Recover => {
                server.recover_shard(event.at, event.shard)?;
            }
        }
    }
    for task in &trace.tasks[next..] {
        server.submit(task)?;
    }
    Ok(server.finish())
}
