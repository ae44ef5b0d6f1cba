#![warn(missing_docs)]

//! Experiment harness regenerating every table and figure of the DSCT-EA
//! paper's evaluation (§6).
//!
//! Each experiment lives in [`experiments`] with a `Config` (defaulting to
//! the paper's parameters), a `run` entry point returning a serializable
//! result struct, and a text renderer that prints the same rows/series the
//! paper reports. The `dsct-experiments` binary drives them all.
//!
//! Every sweep executes on the deterministic multi-threaded [`engine`]:
//! work items claimed from one atomic cursor by scoped worker threads,
//! per-item seeds derived from the item's coordinates and results folded
//! in item order, so the data is bit-identical regardless of thread
//! count. Grid experiments hand it an [`engine::ExperimentPlan`]
//! (cell × replication × solver); single-loop sweeps hand its worker
//! loop a replication index.

pub mod engine;
pub mod experiments;
pub mod report;
pub mod stats;
