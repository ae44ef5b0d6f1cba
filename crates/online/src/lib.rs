#![warn(missing_docs)]

//! Online arrival-driven scheduling service for DSCT-EA.
//!
//! Every solver in [`dsct_core`] is clairvoyant: the whole instance is
//! known before `solve()` is called. This crate serves the *online*
//! problem the paper names as its open extension (§7): compressible
//! tasks arrive over time, and the service maintains a running schedule
//! under a global energy budget by re-solving the remaining instance on
//! each arrival over a rolling horizon.
//!
//! Pieces:
//!
//! - [`OnlineService`] — the arrival loop. Each arrival advances the
//!   simulated clock (committing dispatches whose start time has
//!   passed; started tasks never migrate), runs the admission policy,
//!   and re-plans the pending pool, which it keeps as the residual
//!   instance the solver reads and only re-reads at the new time
//!   ([`dsct_core::residual::ResidualPool`]), through a
//!   [`dsct_core::replan::Replanner`], warm-started from the incumbent
//!   plan's fractional profile. A gated arrival is solved with the
//!   candidate first and admitted without a re-plan of the pool where a
//!   weak-duality bound on that solve certifies the decision;
//! - [`AdmissionPolicy`] — pluggable admission: [`AdmissionPolicy::AdmitAll`],
//!   [`AdmissionPolicy::RejectIfInfeasible`] (protects the planned
//!   accuracy of already-admitted tasks), and
//!   [`AdmissionPolicy::DegradeToFit`] (admits whenever compressing the
//!   admitted tasks down their concave PWL curves nets a total-accuracy
//!   gain);
//! - [`EnergyLedger`] — committed vs. spent vs. remaining budget. On
//!   dispatch the *planned* energy is committed; on completion the
//!   *actual* energy (after speed jitter, same model as [`dsct_exec`])
//!   settles, so runtime overruns shrink the budget later re-plans see;
//! - [`Disruption`] — mid-run machine failures, persistent speed
//!   degradations, and budget shocks injected via
//!   [`OnlineService::inject`], with recovery by residual re-solve
//!   excluding dead machines (the `dsct-chaos` crate drives these
//!   deterministically);
//! - [`replay`] — deterministic replay of a [`dsct_workload::ArrivalTrace`],
//!   producing a [`dsct_exec::ExecutionTrace`]-based [`OnlineReport`].

mod admission;
mod error;
mod ledger;
mod service;

pub use admission::{AdmissionPolicy, Decision};
pub use error::OnlineError;
pub use ledger::EnergyLedger;
pub use service::{
    replay, Disruption, OnlineConfig, OnlineReport, OnlineService, OnlineSummary, ReplanStats,
    ReplanStrategy, ReplayConfig,
};
