#![warn(missing_docs)]

//! Discrete-event execution engine for DSCT-EA schedules.
//!
//! The scheduling algorithms of [`dsct_core`] plan under nominal machine
//! speeds. This crate *runs* an integral schedule as a discrete-event
//! simulation and reports what actually happened:
//!
//! - realized per-task work, accuracy, and completion times;
//! - realized energy consumption;
//! - deadline behaviour under runtime non-determinism (per-execution
//!   multiplicative speed jitter, e.g. co-location interference or
//!   DVFS/thermal variation), with a configurable overrun policy
//!   (compress the task further — the slimmable-network superpower — or
//!   drop it);
//! - a full event trace (dispatch/finish per task, per machine).
//!
//! Under zero jitter the executor reproduces the planner's accuracy and
//! energy exactly, which the tests enforce; under jitter it quantifies the
//! robustness edge that task compressibility buys (see
//! `examples/runtime_jitter.rs` and the `robustness` experiment).
//!
//! Machine faults are injected one layer up, on the online service's
//! clock (`dsct_online::OnlineService::inject`), which records a cut
//! task as an [`EventKind::Failed`] event in this crate's trace types.

mod engine;
mod trace;

pub use engine::{
    execute, overrun_outcome, try_execute, ExecError, ExecutionConfig, OverrunPolicy,
};
pub use trace::{EventKind, ExecutionTrace, TaskOutcome, TraceEvent};
