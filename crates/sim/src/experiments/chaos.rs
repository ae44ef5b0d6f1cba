//! Extension experiment (beyond the paper): accuracy retention of the
//! online service under deterministic fault injection.
//!
//! Each replication generates a Poisson arrival trace
//! ([`dsct_workload::generate_arrivals`]) and replays it once clean and
//! once per chaos *scenario* — a [`ChaosConfig`] enabling one fault
//! kind at a time (machine failure, speed degradation, budget shock,
//! arrival burst) plus the combined default. Reported per scenario is
//! the **retention**: realized accuracy of the base tasks under chaos
//! divided by the clean run's accuracy. The `none` scenario replays an
//! empty plan and must retain exactly 1.0 — a built-in self-test that
//! the fault machinery is invisible when unused.
//!
//! The sweep is one [`run_indexed`] loop: per-item seeds come from
//! [`crate::derive_seed`] on `(master, cell, rep)` alone and cells fold
//! in item order, so the result is bit-identical for any worker count.

use crate::derive_seed;
use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_chaos::{chaos_replay, ChaosConfig, ChaosPlan};
use dsct_core::run_indexed;
use dsct_online::OnlineConfig;
use dsct_workload::{
    generate_arrivals, ArrivalConfig, ArrivalTrace, MachineConfig, TaskConfig, ThetaDistribution,
};
use serde::{Deserialize, Serialize};

/// Configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosExpConfig {
    /// Arrivals per trace.
    pub n: usize,
    /// Machines.
    pub m: usize,
    /// Load factor λ.
    pub load: f64,
    /// Relative-deadline slack.
    pub deadline_slack: f64,
    /// Energy-budget ratio β over the trace horizon.
    pub beta: f64,
    /// Traces per scenario.
    pub replications: usize,
    /// Master seed for trace generation.
    pub base_seed: u64,
    /// Master seed for chaos plans.
    pub chaos_seed: u64,
}

impl Default for ChaosExpConfig {
    fn default() -> Self {
        Self {
            n: 60,
            m: 3,
            load: 1.0,
            deadline_slack: 2.0,
            beta: 0.5,
            replications: 24,
            base_seed: 2024,
            chaos_seed: 99,
        }
    }
}

impl ChaosExpConfig {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 20,
            replications: 4,
            ..Self::default()
        }
    }

    fn arrival_config(&self) -> ArrivalConfig {
        ArrivalConfig {
            tasks: TaskConfig::paper(self.n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(self.m),
            load: self.load,
            deadline_slack: self.deadline_slack,
            beta: self.beta,
        }
    }
}

/// The fault scenarios swept, in table order.
fn scenarios() -> Vec<(&'static str, ChaosConfig)> {
    let none = ChaosConfig {
        failures: 0,
        degradations: 0,
        shocks: 0,
        bursts: 0,
        ..ChaosConfig::default()
    };
    vec![
        ("none", none),
        (
            "failure",
            ChaosConfig {
                failures: 1,
                ..none
            },
        ),
        (
            "degrade",
            ChaosConfig {
                degradations: 1,
                ..none
            },
        ),
        ("shock", ChaosConfig { shocks: 1, ..none }),
        ("burst", ChaosConfig { bursts: 1, ..none }),
        ("all", ChaosConfig::default()),
    ]
}

/// Per-trace measurements (one replication of one scenario).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct Item {
    clean: f64,
    disrupted: f64,
    retention: f64,
    failures: f64,
    spent: f64,
}

/// One swept scenario.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosPoint {
    /// Scenario name.
    pub scenario: String,
    /// Clean-run realized accuracy over the base tasks.
    pub clean: SummaryStats,
    /// Disrupted-run realized accuracy over the base tasks.
    pub disrupted: SummaryStats,
    /// Retention `disrupted / clean`.
    pub retention: SummaryStats,
    /// Tasks cut mid-run by machine failures, per trace.
    pub failures: SummaryStats,
    /// Realized energy of the disrupted run (J).
    pub spent: SummaryStats,
}

/// Full experiment data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ChaosResult {
    /// Configuration used.
    pub config: ChaosExpConfig,
    /// One point per scenario.
    pub points: Vec<ChaosPoint>,
}

/// Accuracy realized by the first `base_n` outcomes (base-trace tasks;
/// burst ids sort after every base id, so they occupy the tail).
fn base_accuracy(tasks: &[dsct_exec::TaskOutcome], base_n: usize) -> f64 {
    tasks.iter().take(base_n).map(|t| t.accuracy).sum()
}

fn measure(cfg: &ChaosExpConfig, chaos: &ChaosConfig, seed: u64, chaos_seed: u64) -> Item {
    let trace: ArrivalTrace =
        generate_arrivals(&cfg.arrival_config(), seed).expect("validated config");
    let ocfg = OnlineConfig::default();
    let plan = ChaosPlan::generate(
        chaos,
        chaos_seed,
        trace.horizon(),
        trace.park.len(),
        trace.budget,
    );
    let rcfg = dsct_online::ReplayConfig {
        online: ocfg,
        ..Default::default()
    };
    let clean_report = dsct_online::replay(&trace, &rcfg).expect("valid config");
    let chaos_report = chaos_replay(&trace, &ocfg, &plan).expect("valid config");
    let clean = base_accuracy(&clean_report.trace.tasks, trace.tasks.len());
    let disrupted = base_accuracy(&chaos_report.report.trace.tasks, trace.tasks.len());
    Item {
        clean,
        disrupted,
        retention: disrupted / clean.max(1e-12),
        failures: chaos_report.summary.online.failures as f64,
        spent: chaos_report.summary.online.spent_energy,
    }
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &ChaosExpConfig, threads: usize) -> ChaosResult {
    let cells = scenarios();
    // Items are scenario-major: item `i` is replication
    // `i % replications` of scenario `i / replications`. (The replays
    // solve through the service's own context, not the worker's.)
    let items = run_indexed(threads, cells.len() * cfg.replications, |_ctx, i| {
        let (c, rep) = (i / cfg.replications, i % cfg.replications);
        // The trace seed depends on the replication only, so every
        // scenario disrupts the *same* traces; the chaos seed differs
        // per cell so scenarios draw independent fault parameters.
        let seed = derive_seed(cfg.base_seed, 0, rep as u64);
        let chaos_seed = derive_seed(cfg.chaos_seed, c as u64, rep as u64);
        measure(cfg, &cells[c].1, seed, chaos_seed)
    });

    // Fold in item order: deterministic aggregates.
    let mut points: Vec<ChaosPoint> = cells
        .iter()
        .map(|(name, _)| ChaosPoint {
            scenario: name.to_string(),
            clean: SummaryStats::new(),
            disrupted: SummaryStats::new(),
            retention: SummaryStats::new(),
            failures: SummaryStats::new(),
            spent: SummaryStats::new(),
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        let p = &mut points[i / cfg.replications];
        p.clean.push(item.clean);
        p.disrupted.push(item.disrupted);
        p.retention.push(item.retention);
        p.failures.push(item.failures);
        p.spent.push(item.spent);
    }
    ChaosResult {
        config: cfg.clone(),
        points,
    }
}

/// Text rendering.
pub fn table(result: &ChaosResult) -> TextTable {
    let mut t = TextTable::new([
        "scenario",
        "clean",
        "disrupted",
        "retention%",
        "cut",
        "spent",
    ]);
    for p in &result.points {
        t.row([
            p.scenario.clone(),
            format!("{:.3}", p.clean.mean()),
            format!("{:.3}", p.disrupted.mean()),
            format!("{:.2}", 100.0 * p.retention.mean()),
            format!("{:.2}", p.failures.mean()),
            format!("{:.0}", p.spent.mean()),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &ChaosResult) -> String {
    let note = result
        .points
        .iter()
        .find(|p| p.scenario == "all")
        .map(|p| {
            format!(
                "Under the combined fault scenario the service retains {:.1}% of the \
                 clean-run accuracy on the base tasks ({:.2} mid-run cuts per trace).",
                100.0 * p.retention.mean(),
                p.failures.mean(),
            )
        })
        .unwrap_or_default();
    format!("{}\n{note}\n", table(result).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_scenario_retains_everything() {
        let a = run(&ChaosExpConfig::quick(), 0);
        let none = &a.points[0];
        assert_eq!(none.scenario, "none");
        assert!(
            (none.retention.mean() - 1.0).abs() < 1e-12,
            "an empty chaos plan must retain exactly the clean accuracy"
        );
        for p in &a.points {
            assert!(p.clean.mean() > 0.0);
            assert!(p.retention.min() > 0.0);
        }
    }
}
