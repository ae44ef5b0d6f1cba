#![warn(missing_docs)]

//! Deterministic fault injection for DSCT-EA: chaos plans and replay.
//!
//! The online service ([`dsct_online::OnlineService::inject`]) accepts
//! injected faults; this crate generates the faults *deterministically*
//! and drives full disrupted replays:
//!
//! - [`ChaosPlan`] — a timed list of [`ChaosEvent`]s (machine failures,
//!   persistent speed degradations, budget shocks, arrival bursts).
//!   Every event is a pure function of `(chaos_seed, event_index)` and
//!   the trace shape (horizon, machine count, budget), so two plans for
//!   the same trace and seed are identical down to the bit — no global
//!   RNG state, no dependence on generation order;
//! - [`chaos_replay`] — merges a plan into an
//!   [`dsct_workload::ArrivalTrace`] by time and replays the disrupted
//!   stream through a fresh [`dsct_online::OnlineService`], returning
//!   the ordinary [`dsct_online::OnlineReport`] plus a serializable
//!   [`ChaosSummary`]. Replays are byte-identical for any solver
//!   parallelism and any harness thread count (the determinism tests in
//!   the facade crate compare serialized summaries across both);
//! - [`ShardChaosPlan`] — cell-granular failures for the sharded server
//!   (`dsct-server`, `dsct-gateway`): each [`ShardEvent`] kills a whole
//!   shard, which the server turns into per-machine failures plus a
//!   deterministic drain of the cell's pending pool into surviving
//!   shards, or respawns one ([`ShardChaosPlan::kills`] for kills alone,
//!   [`ShardChaosPlan::kill_recover`] to pair each with a recovery).
//!   Pure data, same `(seed, index)` purity contract as [`ChaosPlan`].
//!
//! # Synthesized task-id ranges
//!
//! Chaos bursts synthesize arrivals with ids from [`BURST_ID_BASE`]
//! (`1 << 40`) upward; the ingestion gateway (`dsct-gateway`) synthesizes
//! quota-retry ids from `RETRY_ID_BASE` (`1 << 44`) upward. Trace
//! generators stay below `1 << 40`. The three ranges are disjoint by
//! construction and the gateway rejects submissions that stray into a
//! reserved range with a typed error instead of double-accounting.

mod plan;
mod replay;
mod shard;

pub use plan::{ChaosConfig, ChaosEvent, ChaosEventKind, ChaosPlan, BURST_ID_BASE};
pub use replay::{chaos_replay, ChaosReport, ChaosSummary};
pub use shard::{ShardChaosPlan, ShardEvent, ShardEventKind};
