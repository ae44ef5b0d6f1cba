//! The gateway proper: quota gate → sharded server, with flush-boundary
//! retries, skew rebalancing, and shard lifecycle events.

use crate::error::GatewayError;
use crate::queue::{drain_key, IngressQueue};
use crate::quota::{FlushAudit, QuotaBook, QuotaConfig, QuotaRejection, RetryBook};
use crate::rebalance::{RebalanceConfig, SkewState};
use dsct_chaos::{ShardChaosPlan, ShardEvent, ShardEventKind, BURST_ID_BASE};
use dsct_core::EPS_TIME;
use dsct_machines::MachinePark;
use dsct_online::{Decision, OnlineError};
use dsct_server::{ScheduleServer, ServerConfig, ServerReport};
use dsct_workload::{ArrivalTrace, IdMap, IdSet, OnlineTask};
use serde::{Deserialize, Serialize};

/// Base of the synthesized id range for gateway quota retries
/// (`1 << 44`). The full id-range map, disjoint by construction:
///
/// | range                          | owner                          |
/// |--------------------------------|--------------------------------|
/// | `[0, 1 << 40)`                 | trace generators / producers   |
/// | `[1 << 40, 1 << 44)`           | chaos bursts ([`BURST_ID_BASE`]) |
/// | `[1 << 44, …)`                 | gateway retries (this base)    |
///
/// [`Gateway::admit`] rejects producer ids at or above
/// [`BURST_ID_BASE`] with [`GatewayError::ReservedId`] — a producer id
/// in a synthesized range would double-account whichever synthesized
/// task later drew the same id.
pub const RETRY_ID_BASE: u64 = 1 << 44;

/// Configuration of a [`Gateway`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GatewayConfig {
    /// The sharded server underneath (shards, workers, per-cell online
    /// config, federation).
    pub server: ServerConfig,
    /// Bounded capacity of each producer lane (clamped to ≥ 1), split
    /// between the lane's channel (`capacity.div_ceil(2)`) and the batch
    /// the consumer takes off it in one go (`capacity / 2` beyond the
    /// head; see [`crate::queue`]). Full lanes block their producer — that
    /// backpressure is the point of a bounded queue, and a parked
    /// producer is woken about once per batch; it never affects results,
    /// only wall-clock.
    pub queue_capacity: usize,
    /// Per-tenant admission quotas.
    pub quota: QuotaConfig,
    /// Load-skew rebalancing.
    pub rebalance: RebalanceConfig,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        Self {
            server: ServerConfig::default(),
            queue_capacity: 64,
            quota: QuotaConfig::default(),
            rebalance: RebalanceConfig::default(),
        }
    }
}

/// What the gateway did with one offered task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GatewayDecision {
    /// Passed the quota gate and reached a shard; the shard's admission
    /// decision.
    Admitted(Decision),
    /// Turned away by the tenant's token bucket. Carries the
    /// synthesized retry id when the task will be re-offered at the
    /// next flush boundary ([`QuotaConfig::retry`]).
    QuotaExceeded(Option<u64>),
}

/// Gateway-level aggregate counts.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct GatewaySummary {
    /// Tasks producers offered (valid ids only).
    pub submitted: usize,
    /// Tasks that passed the quota gate and reached a shard.
    pub admitted: usize,
    /// Quota rejections (original offers only, not retry re-checks).
    pub quota_rejected: usize,
    /// Rejected tasks re-queued under a retry id.
    pub retries_enqueued: usize,
    /// Retries that later passed the gate.
    pub retries_admitted: usize,
    /// Retries still queued when the run finished (never admitted).
    pub retries_dropped: usize,
    /// Tenant-move tasks executed by the rebalancer (mirror of
    /// [`dsct_server::ServerSummary::moved`]).
    pub moved: usize,
    /// Shard recoveries applied (mirror of
    /// [`dsct_server::ServerSummary::recoveries`]).
    pub recoveries: usize,
}

/// The digest-stable payload of a gateway run: every typed record the
/// determinism contract covers, including the full [`ServerReport`].
#[derive(Debug, Clone, Serialize)]
pub struct GatewayCore {
    /// Quota rejections, in drain order.
    pub rejections: Vec<QuotaRejection>,
    /// Per-flush fairness audits, in boundary order.
    pub audits: Vec<FlushAudit>,
    /// Gateway-level aggregate.
    pub summary: GatewaySummary,
    /// The sharded server's own report (decisions, drains, moves,
    /// recoveries, settlements, per-shard traces).
    pub server: ServerReport,
}

/// Out-of-digest ingestion statistics. These measure *timing* (how far
/// producers ran ahead of the drain), so they are reported next to the
/// digest, never inside it.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize)]
pub struct IngestStats {
    /// Producer lanes the run used.
    pub producers: usize,
    /// Bounded capacity of each lane.
    pub queue_capacity: usize,
    /// High-water mark of tasks buffered across all lanes.
    pub max_depth: usize,
}

/// Everything a finished gateway run reports.
#[derive(Debug, Clone)]
pub struct GatewayReport {
    /// The digest-stable core.
    pub core: GatewayCore,
    /// Timing-dependent ingestion stats (outside the digest).
    pub stats: IngestStats,
}

impl GatewayReport {
    /// Canonical JSON serialization of the digest-stable core — equal
    /// digests ⇔ equal reports, down to every float bit. The
    /// determinism contract: byte-identical for any producer count,
    /// producer interleaving, worker count, and harness threading.
    pub fn digest(&self) -> String {
        serde_json::to_string(&self.core).expect("report serializes")
    }
}

/// The ingestion front-end over a [`ScheduleServer`]. Single-threaded
/// by itself — concurrency lives in the producer lanes of
/// [`IngressQueue`]; the gateway consumes the deterministic merge.
pub struct Gateway {
    cfg: GatewayConfig,
    server: ScheduleServer,
    quotas: QuotaBook,
    skew: SkewState,
    /// Every id ever offered (producer ids and synthesized retry ids) —
    /// the single-accounting guard. Only probed, never iterated.
    seen: IdSet,
    /// Quota-rejected tasks awaiting the next flush boundary, grouped
    /// by tenant, already carrying their retry ids.
    retries: RetryBook,
    retry_seq: u64,
    rejections: Vec<QuotaRejection>,
    audits: Vec<FlushAudit>,
    summary: GatewaySummary,
    /// Per-tenant admissions in the open flush window (audit input).
    /// [`Self::close_audit`] reads it by sum, length and a maximum whose
    /// ties go to the lower tenant id, so its iteration order reaches no
    /// audit.
    window_admitted: IdMap<usize>,
    window_rejected: usize,
}

impl Gateway {
    /// Builds a gateway (and its server) over `park` and `budget`.
    pub fn new(park: &MachinePark, budget: f64, cfg: GatewayConfig) -> Result<Self, GatewayError> {
        if cfg.quota.enabled {
            if !(cfg.quota.rate.is_finite() && cfg.quota.rate >= 0.0) {
                return Err(GatewayError::InvalidConfig {
                    field: "quota.rate",
                    value: cfg.quota.rate,
                    requirement: "finite and non-negative",
                });
            }
            if !(cfg.quota.burst.is_finite() && cfg.quota.burst > 0.0) {
                return Err(GatewayError::InvalidConfig {
                    field: "quota.burst",
                    value: cfg.quota.burst,
                    requirement: "finite and positive",
                });
            }
        }
        if cfg.rebalance.enabled {
            let r = &cfg.rebalance;
            if !(r.enter_ratio.is_finite() && r.exit_ratio.is_finite() && r.exit_ratio > 0.0) {
                return Err(GatewayError::InvalidConfig {
                    field: "rebalance.exit_ratio",
                    value: r.exit_ratio,
                    requirement: "finite and positive",
                });
            }
            if r.enter_ratio <= r.exit_ratio {
                return Err(GatewayError::InvalidConfig {
                    field: "rebalance.enter_ratio",
                    value: r.enter_ratio,
                    requirement: "above exit_ratio (the hysteresis band)",
                });
            }
        }
        let server = ScheduleServer::new(park, budget, cfg.server)?;
        let shards = cfg.server.shards();
        Ok(Self {
            cfg,
            server,
            quotas: QuotaBook::new(cfg.quota),
            skew: SkewState::new(shards),
            seen: IdSet::default(),
            retries: RetryBook::default(),
            retry_seq: 0,
            rejections: Vec::new(),
            audits: Vec::new(),
            summary: GatewaySummary::default(),
            window_admitted: IdMap::default(),
            window_rejected: 0,
        })
    }

    /// The server clock.
    pub fn now(&self) -> f64 {
        self.server.now()
    }

    /// Read access to the server underneath (router, live mask).
    pub fn server(&self) -> &ScheduleServer {
        &self.server
    }

    /// Closes the open audit window at boundary time `t`.
    fn close_audit(&mut self, t: f64) {
        if !self.cfg.quota.enabled {
            return;
        }
        let admitted: usize = self.window_admitted.values().sum();
        if admitted == 0 && self.window_rejected == 0 {
            return;
        }
        let (top_tenant, top_admitted) = self
            .window_admitted
            .iter()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
            .map(|(&t, &n)| (t, n))
            .unwrap_or((0, 0));
        self.audits.push(FlushAudit {
            at: t,
            admitted,
            rejected: self.window_rejected,
            tenants: self.window_admitted.len(),
            top_tenant,
            top_admitted,
        });
        self.window_admitted.clear();
        self.window_rejected = 0;
    }

    /// A flush boundary at `t`: close the audit window, flush the
    /// server (tick + federation), re-offer pending retries at `t`, and
    /// evaluate rebalancing on the settled pending pools. Everything in
    /// here is serial and canonically ordered — it runs between queue
    /// drains, so producer interleaving cannot reach it.
    fn flush_to(&mut self, t: f64) -> Result<(), GatewayError> {
        self.close_audit(t);
        self.server.advance(t)?;
        // Still-over-quota retries stay queued for the next boundary.
        // The original rejection is already on record; re-checks are
        // not new events.
        for task in self.retries.release(&mut self.quotas, t) {
            self.server.submit(&task)?;
            *self.window_admitted.entry(task.tenant).or_insert(0) += 1;
            self.summary.admitted += 1;
            self.summary.retries_admitted += 1;
        }
        self.maybe_rebalance(t)?;
        Ok(())
    }

    /// One rebalance evaluation at boundary `t`: hysteresis update on
    /// the pending-depth sample, then up to `max_moves_per_flush`
    /// hottest-tenant moves hot → cold.
    fn maybe_rebalance(&mut self, t: f64) -> Result<(), GatewayError> {
        let cfg = self.cfg.rebalance;
        let shards = self.cfg.server.shards();
        if !cfg.enabled || shards < 2 {
            return Ok(());
        }
        let alive = self.server.router().alive().to_vec();
        let pending = self.server.pending_per_shard();
        self.skew.update(&cfg, &pending, &alive);
        for _ in 0..cfg.max_moves_per_flush {
            let pending = self.server.pending_per_shard();
            // Hottest flagged shard; ties toward the lower index.
            let Some(from) = (0..shards)
                .filter(|&s| alive[s] && self.skew.is_hot(s))
                .max_by(|&a, &b| pending[a].cmp(&pending[b]).then(b.cmp(&a)))
            else {
                break;
            };
            // Coldest live destination; ties toward the lower index.
            let Some(to) = (0..shards)
                .filter(|&s| alive[s] && s != from)
                .min_by_key(|&s| (pending[s], s))
            else {
                break;
            };
            if pending[to] + 1 >= pending[from] {
                // Nothing to gain: moving any tenant would just swap
                // which shard is hot.
                break;
            }
            // Busiest movable tenant; ties toward the lower tenant id.
            let loads = self.server.tenant_loads(from);
            let Some(&(tenant, count)) = loads
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
            else {
                self.skew.cool(from);
                break;
            };
            if count == 0 {
                // Carry-only pool: nothing the drain machinery may move.
                self.skew.cool(from);
                break;
            }
            self.server.rebalance_tenants(t, from, to, &[tenant])?;
        }
        Ok(())
    }

    /// Offers one task. A NaN or infinite arrival or deadline is
    /// refused first, as the server's [`OnlineError::InvalidTask`],
    /// before it can mark its id seen, open a flush boundary or charge
    /// its tenant's bucket. The id guards run next
    /// ([`GatewayError::ReservedId`], [`GatewayError::DuplicateId`]); a
    /// task whose arrival opens a new tick triggers the flush boundary
    /// (server flush, retries, rebalance evaluation) before the task
    /// itself is considered; the tenant's token bucket then admits it
    /// into the server or turns it away as a typed [`QuotaRejection`].
    pub fn admit(&mut self, task: &OnlineTask) -> Result<GatewayDecision, GatewayError> {
        for (field, value) in [("arrival", task.arrival), ("deadline", task.deadline)] {
            if !value.is_finite() {
                return Err(OnlineError::InvalidTask {
                    id: task.id,
                    field,
                    value,
                }
                .into());
            }
        }
        if task.id >= BURST_ID_BASE {
            return Err(GatewayError::ReservedId {
                id: task.id,
                base: BURST_ID_BASE,
            });
        }
        if !self.seen.insert(task.id) {
            return Err(GatewayError::DuplicateId { id: task.id });
        }
        if task.arrival > self.server.now() + EPS_TIME {
            self.flush_to(task.arrival)?;
        }
        self.summary.submitted += 1;
        let cost = task.accuracy.f_max();
        match self.quotas.try_admit(task.tenant, task.arrival, cost) {
            Ok(()) => {
                let decision = self.server.submit(task)?;
                *self.window_admitted.entry(task.tenant).or_insert(0) += 1;
                self.summary.admitted += 1;
                Ok(GatewayDecision::Admitted(decision))
            }
            Err(available) => {
                let retry_id = if self.cfg.quota.retry {
                    let id = RETRY_ID_BASE + self.retry_seq;
                    self.retry_seq += 1;
                    self.seen.insert(id);
                    let mut retry = task.clone();
                    retry.id = id;
                    self.retries.push(cost, retry);
                    self.summary.retries_enqueued += 1;
                    Some(id)
                } else {
                    None
                };
                self.rejections.push(QuotaRejection {
                    at: task.arrival,
                    task: task.id,
                    tenant: task.tenant,
                    needed: cost,
                    available,
                    retry_id,
                });
                self.window_rejected += 1;
                self.summary.quota_rejected += 1;
                Ok(GatewayDecision::QuotaExceeded(retry_id))
            }
        }
    }

    /// Fires one shard lifecycle event: a flush boundary at `event.at`,
    /// then the kill or recovery. Killing a dead shard / recovering a
    /// live one is a no-op (plans compose safely).
    pub fn apply_event(&mut self, event: &ShardEvent) -> Result<(), GatewayError> {
        let at = event.at.max(self.server.now());
        if event.at > self.server.now() + EPS_TIME {
            self.flush_to(event.at)?;
        }
        match event.kind {
            ShardEventKind::Kill => self.server.apply_shard_kill(at, event.shard)?,
            ShardEventKind::Recover => {
                self.server.recover_shard(at, event.shard)?;
            }
        }
        Ok(())
    }

    /// Finishes the run: closes the last audit window, counts
    /// never-admitted retries as dropped, and folds the server report
    /// into the gateway core. `stats` starts zeroed — the replay driver
    /// fills it from the queue it owned.
    pub fn finish(mut self) -> GatewayReport {
        let now = self.server.now();
        self.close_audit(now);
        self.summary.retries_dropped = self.retries.len();
        let server = self.server.finish();
        self.summary.moved = server.summary.moved;
        self.summary.recoveries = server.summary.recoveries;
        GatewayReport {
            core: GatewayCore {
                rejections: self.rejections,
                audits: self.audits,
                summary: self.summary,
                server,
            },
            stats: IngestStats::default(),
        }
    }
}

/// Replays `trace` through a [`Gateway`] fed by `producers` concurrent
/// bounded lanes, with `plan`'s shard kills/recoveries merged in by
/// firing time (an event fires before any arrival at or after its
/// timestamp). References to the trace's tasks are sorted by the
/// canonical `(arrival, tenant, id)` key (a stable sort; the trace is
/// not copied, each producer clones a task as it sends it) and dealt to
/// producers in contiguous chunks, so the merge drain — and therefore
/// the report digest — is byte-identical for any `producers ≥ 1` (see
/// [`crate::queue`]).
pub fn replay_gateway(
    trace: &ArrivalTrace,
    cfg: &GatewayConfig,
    plan: &ShardChaosPlan,
    producers: usize,
) -> Result<GatewayReport, GatewayError> {
    let mut gateway = Gateway::new(&trace.park, trace.budget, *cfg)?;
    let mut tasks: Vec<&OnlineTask> = trace.tasks.iter().collect();
    tasks.sort_by(|a, b| {
        let (ka, kb) = (drain_key(a), drain_key(b));
        ka.0.total_cmp(&kb.0)
            .then(ka.1.cmp(&kb.1))
            .then(ka.2.cmp(&kb.2))
    });
    let producers = producers.max(1);
    let (mut queue, handles) = IngressQueue::new(producers, cfg.queue_capacity);
    let chunk = tasks.len().div_ceil(producers).max(1);
    let (result, max_depth) = std::thread::scope(|scope| {
        for (chunk_tasks, producer) in tasks.chunks(chunk).zip(handles) {
            scope.spawn(move || {
                for &task in chunk_tasks {
                    if !producer.send(task.clone()) {
                        // Consumer bailed (an error unwound the drain);
                        // stop producing.
                        break;
                    }
                }
            });
        }
        let result = (|| -> Result<(), GatewayError> {
            let mut next_event = 0usize;
            while let Some(task) = queue.recv()? {
                while next_event < plan.events.len() && plan.events[next_event].at <= task.arrival {
                    gateway.apply_event(&plan.events[next_event])?;
                    next_event += 1;
                }
                gateway.admit(&task)?;
            }
            for event in &plan.events[next_event..] {
                gateway.apply_event(event)?;
            }
            Ok(())
        })();
        let max_depth = queue.max_depth();
        // Dropping the queue closes every lane, so producers blocked on
        // a full lane fail their send and exit before the scope joins.
        drop(queue);
        (result, max_depth)
    });
    result?;
    let mut report = gateway.finish();
    report.stats = IngestStats {
        producers,
        queue_capacity: cfg.queue_capacity.max(1),
        max_depth,
    };
    Ok(report)
}
