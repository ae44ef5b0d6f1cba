#![warn(missing_docs)]

//! Sharded multi-tenant scheduling server for DSCT-EA.
//!
//! [`dsct_online::OnlineService`] is a single cell: one park, one
//! ledger, one residual re-solve at a time. This crate scales it out
//! while keeping the determinism contract:
//!
//! - [`ScheduleServer`] — shards the machine park into independent
//!   cells, each owning its own `OnlineService` and a power-
//!   proportional slice of the global energy budget. Arrivals route by
//!   rendezvous hashing on [`dsct_workload::OnlineTask::tenant`];
//!   same-tick submissions batch into one residual re-solve per shard
//!   (the `AdmitAll` lazy-dirty path), flushed cell by cell on the
//!   caller's thread — the report is byte-identical for any worker
//!   count (see [`ServerReport::digest`]);
//! - [`Router`] — highest-random-weight tenant routing with a live
//!   mask: killing a shard remaps only that shard's tenants;
//! - [`FederationConfig`] / [`plan_transfers`] — cross-shard budget
//!   federation: a starving shard borrows unused joules from ring
//!   neighbors in a deterministic order, executed as paired
//!   [`dsct_online::Disruption::BudgetShock`]s and recorded as
//!   [`Settlement`]s;
//! - [`ScheduleServer::apply_shard_kill`] — whole-cell failures
//!   (composing with [`dsct_chaos::ShardChaosPlan`]): the victim's
//!   never-dispatched pool drains into surviving shards
//!   deterministically, in-flight work is cut with the usual failure
//!   semantics, and the dead shard's unspent budget becomes lending
//!   stock;
//! - [`ScheduleServer::recover_shard`] — the inverse: respawn a killed
//!   cell over its original machine group with a fresh service and
//!   replanner, archive the dead incarnation's report
//!   ([`ArchivedShard`]), hand its rendezvous tenants back, and let the
//!   federation refund its slice;
//! - [`ScheduleServer::rebalance_tenants`] — load-skew repair: drain a
//!   tenant's pending tasks off a hot shard, pin the tenant to a cold
//!   one, every task recorded as a [`MoveRecord`];
//! - [`replay_sharded`] — deterministic replay of an
//!   [`dsct_workload::ArrivalTrace`] with a shard chaos plan's kills and
//!   recoveries merged in by firing time.

mod federation;
mod route;
mod server;

pub use federation::{plan_transfers, FederationConfig, Settlement, ShardFunds};
pub use route::{rendezvous_score, Router};
pub use server::{
    replay_sharded, ArchivedShard, DrainRecord, MoveRecord, RecoveryRecord, ScheduleServer,
    ServerConfig, ServerReport, ServerSummary,
};
