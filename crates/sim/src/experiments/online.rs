//! Extension experiment (beyond the paper): accuracy regret of the
//! online arrival-driven service vs the clairvoyant offline bound.
//!
//! Deterministic Poisson arrival traces ([`dsct_workload::generate_arrivals`])
//! are replayed through `dsct-online` at several load factors λ. Each
//! trace is served twice — [`AdmissionPolicy::AdmitAll`] and
//! [`AdmissionPolicy::DegradeToFit`], both warm-started — and compared
//! against the FR-OPT optimum of the trace's clairvoyant instance (all
//! tasks known at `t = 0` with their absolute deadlines). Ignoring
//! release times only enlarges the feasible set, so with zero runtime
//! jitter the clairvoyant value upper-bounds any online schedule and the
//! reported regret `1 − online/bound` is non-negative.
//!
//! The sweep is one [`run_indexed`] loop: per-item seeds come from
//! [`crate::derive_seed`] on `(master, cell, rep)` alone and cells fold
//! in item order, so the result is bit-identical for 1 or 64 workers.

use crate::derive_seed;
use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::{FrOptSolver, SolverContext};
use dsct_online::{replay, AdmissionPolicy, OnlineConfig};
use dsct_workload::{
    generate_arrivals, ArrivalConfig, MachineConfig, TaskConfig, ThetaDistribution,
};
use serde::{Deserialize, Serialize};

/// Configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineExpConfig {
    /// Arrivals per trace.
    pub n: usize,
    /// Machines.
    pub m: usize,
    /// Load factors λ to sweep (offered work / aggregate park speed).
    pub loads: Vec<f64>,
    /// Relative-deadline slack (windows of mean full-model time).
    pub deadline_slack: f64,
    /// Energy-budget ratio β over the trace horizon.
    pub beta: f64,
    /// Traces per load factor.
    pub replications: usize,
    /// Master seed.
    pub base_seed: u64,
}

impl Default for OnlineExpConfig {
    fn default() -> Self {
        Self {
            n: 60,
            m: 3,
            loads: vec![0.3, 0.6, 1.0, 1.5, 2.5],
            deadline_slack: 2.0,
            beta: 0.5,
            replications: 24,
            base_seed: 4242,
        }
    }
}

impl OnlineExpConfig {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 20,
            loads: vec![0.3, 1.0, 2.5],
            replications: 4,
            ..Self::default()
        }
    }

    fn arrival_config(&self, load: f64) -> ArrivalConfig {
        ArrivalConfig {
            tasks: TaskConfig::paper(self.n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(self.m),
            load,
            deadline_slack: self.deadline_slack,
            beta: self.beta,
        }
    }
}

/// Per-trace measurements (one replication of one load cell).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Item {
    bound: f64,
    admit_all: f64,
    degrade: f64,
    regret_admit: f64,
    rejected: f64,
    expired: f64,
    solves: f64,
}

/// One swept load factor.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlinePoint {
    /// Load factor λ.
    pub load: f64,
    /// Clairvoyant FR-OPT total accuracy (the regret reference).
    pub bound: SummaryStats,
    /// Realized total accuracy under `AdmitAll` (warm-started replans).
    pub admit_all: SummaryStats,
    /// Realized total accuracy under `DegradeToFit`.
    pub degrade: SummaryStats,
    /// Relative regret `1 − admit_all/bound`.
    pub regret_admit: SummaryStats,
    /// Arrivals rejected by `DegradeToFit` per trace.
    pub rejected: SummaryStats,
    /// Admitted tasks expiring undispatched per trace (`AdmitAll`).
    pub expired: SummaryStats,
    /// Solver invocations per trace (`AdmitAll`, one per arrival batch).
    pub solves: SummaryStats,
}

/// Full experiment data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct OnlineResult {
    /// Configuration used.
    pub config: OnlineExpConfig,
    /// One point per load factor.
    pub points: Vec<OnlinePoint>,
}

fn measure(cfg: &OnlineExpConfig, load: f64, seed: u64, ctx: &mut SolverContext) -> Item {
    let trace = generate_arrivals(&cfg.arrival_config(load), seed).expect("validated config");
    let run = |policy: AdmissionPolicy| {
        let rcfg = dsct_online::ReplayConfig {
            online: OnlineConfig {
                policy,
                ..OnlineConfig::default()
            },
            ..Default::default()
        };
        replay(&trace, &rcfg).expect("zero jitter is a valid execution config")
    };
    let admit = run(AdmissionPolicy::AdmitAll);
    let degrade = run(AdmissionPolicy::DegradeToFit);
    let inst = trace.clairvoyant_instance();
    let bound = FrOptSolver::new()
        .solve_typed_with(&inst, ctx)
        .total_accuracy;
    Item {
        bound,
        admit_all: admit.summary.total_accuracy,
        degrade: degrade.summary.total_accuracy,
        regret_admit: 1.0 - admit.summary.total_accuracy / bound.max(1e-12),
        rejected: degrade.summary.rejected as f64,
        expired: admit.summary.expired as f64,
        solves: admit.summary.solves as f64,
    }
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &OnlineExpConfig, threads: usize) -> OnlineResult {
    // Items are load-major: item `i` is replication `i % replications` of
    // load cell `i / replications`.
    let items = run_indexed(threads, cfg.loads.len() * cfg.replications, |ctx, i| {
        let (c, rep) = (i / cfg.replications, i % cfg.replications);
        let seed = derive_seed(cfg.base_seed, c as u64, rep as u64);
        measure(cfg, cfg.loads[c], seed, ctx)
    });

    // Fold in item order: deterministic aggregates.
    let mut points: Vec<OnlinePoint> = cfg
        .loads
        .iter()
        .map(|&load| OnlinePoint {
            load,
            bound: SummaryStats::new(),
            admit_all: SummaryStats::new(),
            degrade: SummaryStats::new(),
            regret_admit: SummaryStats::new(),
            rejected: SummaryStats::new(),
            expired: SummaryStats::new(),
            solves: SummaryStats::new(),
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        let p = &mut points[i / cfg.replications];
        p.bound.push(item.bound);
        p.admit_all.push(item.admit_all);
        p.degrade.push(item.degrade);
        p.regret_admit.push(item.regret_admit);
        p.rejected.push(item.rejected);
        p.expired.push(item.expired);
        p.solves.push(item.solves);
    }
    OnlineResult {
        config: cfg.clone(),
        points,
    }
}

/// Text rendering.
pub fn table(result: &OnlineResult) -> TextTable {
    let mut t = TextTable::new([
        "load",
        "bound",
        "admit_all",
        "degrade",
        "regret%",
        "rejected",
        "expired",
        "solves",
    ]);
    for p in &result.points {
        t.row([
            format!("{:.2}", p.load),
            format!("{:.3}", p.bound.mean()),
            format!("{:.3}", p.admit_all.mean()),
            format!("{:.3}", p.degrade.mean()),
            format!("{:.2}", 100.0 * p.regret_admit.mean()),
            format!("{:.1}", p.rejected.mean()),
            format!("{:.1}", p.expired.mean()),
            format!("{:.1}", p.solves.mean()),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &OnlineResult) -> String {
    let note = result
        .points
        .last()
        .map(|p| {
            format!(
                "At λ = {:.1}, the online service retains {:.1}% of the clairvoyant \
                 FR-OPT accuracy; DegradeToFit rejects {:.1} of {} arrivals.",
                p.load,
                100.0 * (1.0 - p.regret_admit.mean()),
                p.rejected.mean(),
                result.config.n,
            )
        })
        .unwrap_or_default();
    format!("{}\n{note}\n", table(result).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regret_is_nonnegative() {
        let a = run(&OnlineExpConfig::quick(), 0);
        for p in &a.points {
            assert!(
                p.regret_admit.min() >= -1e-9,
                "load {}: negative regret {}",
                p.load,
                p.regret_admit.min()
            );
            assert!(p.bound.mean() > 0.0);
        }
    }
}
