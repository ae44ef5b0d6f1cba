#![warn(missing_docs)]

//! Facade crate for the DSCT-EA workspace: energy-aware scheduling of
//! compressible machine-learning inference tasks (reproduction of
//! da Silva Barros et al., ICPP 2024).
//!
//! Re-exports every sub-crate under a stable path so downstream users can
//! depend on a single crate:
//!
//! ```
//! use dsct_ea::prelude::*;
//! ```
//!
//! See the individual crates for details:
//! - [`accuracy`] — piecewise-linear accuracy models;
//! - [`machines`] — machine/GPU substrate;
//! - [`lp`] — the revised-simplex LP solver;
//! - [`mip`] — the branch-and-bound MIP solver;
//! - [`core`] — the scheduling algorithms (the paper's contribution);
//! - [`exec`] — discrete-event executor running schedules under jitter;
//! - [`workload`] — scenario generators from the paper's evaluation;
//! - [`online`] — arrival-driven service: rolling-horizon re-plans,
//!   admission control, and the energy ledger;
//! - [`chaos`] — deterministic fault-injection plans and chaos replays;
//! - [`server`] — sharded multi-tenant scheduling server: rendezvous
//!   tenant routing, per-shard cells, cross-shard budget federation;
//! - [`gateway`] — async ingestion front-end: bounded-mpsc producer
//!   lanes with a deterministic merge drain, per-tenant admission
//!   quotas, load-skew rebalancing, and shard recovery;
//! - [`sim`] — the experiment harness regenerating every table and figure.

pub use dsct_accuracy as accuracy;
pub use dsct_chaos as chaos;
pub use dsct_core as core;
pub use dsct_exec as exec;
pub use dsct_gateway as gateway;
pub use dsct_lp as lp;
pub use dsct_machines as machines;
pub use dsct_mip as mip;
pub use dsct_online as online;
pub use dsct_server as server;
pub use dsct_sim as sim;
pub use dsct_workload as workload;

/// Convenient glob-import surface with the most commonly used items.
pub mod prelude {
    pub use dsct_accuracy::{min_combine, ExponentialAccuracy, PwlAccuracy};
    pub use dsct_chaos::{chaos_replay, ChaosConfig, ChaosPlan};
    pub use dsct_core::{
        guarantee::absolute_guarantee,
        problem::{Instance, Task},
        schedule::{FractionalSchedule, ScheduleKind},
        solver::{
            ApproxSolver, EdfSolver, FrOptSolver, LpSolver, MipSolver, Solution, SolveError,
            SolveStats, Solver, SolverContext,
        },
        staged::{
            Stage, StagedApproxSolver, StagedInstance, StagedSchedule, StagedSolution, StagedTask,
        },
    };
    pub use dsct_gateway::{replay_gateway, Gateway, GatewayConfig, QuotaConfig, RebalanceConfig};
    pub use dsct_machines::{DvfsMachine, DvfsPark, Machine, MachinePark};
    pub use dsct_online::{
        replay, AdmissionPolicy, Decision, Disruption, EnergyLedger, OnlineConfig, OnlineService,
        ReplanStrategy, ReplayConfig,
    };
    pub use dsct_server::{replay_sharded, Router, ScheduleServer, ServerConfig};
    pub use dsct_workload::{
        generate_arrivals, generate_staged, ArrivalConfig, ArrivalTrace, DagShape, InstanceConfig,
        MachineConfig, OnlineTask, StagedConfig, TaskConfig, ThetaDistribution,
    };
}
