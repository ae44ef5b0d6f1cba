//! Fig. 6: final energy profile of two heterogeneous machines under
//! varying energy-budget ratio β — workload balancing between a slow but
//! efficient machine (2 TFLOPS, 80 GFLOPS/W) and a fast, less efficient
//! one (5 TFLOPS, 70 GFLOPS/W), with very strict deadlines (ρ = 0.01).
//!
//! Two scenarios:
//! - **Uniform Tasks** (Fig. 6a): θ ~ U[0.1, 4.9] — the final profile
//!   stays close to the naive one;
//! - **Earliest High Efficient Tasks** (Fig. 6b): the earliest 30% of
//!   tasks have θ ∈ [4.0, 4.9], the rest θ ∈ [0.1, 1.0] — deadline-bound
//!   high-value tasks force the refinement to shift work onto machine 2,
//!   deviating visibly from the naive profile at small β.

use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::FrOptSolver;
use dsct_machines::catalog::fig6_two_machine_park;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

/// Which Fig. 6 scenario to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Fig6Scenario {
    /// Fig. 6a: θ ~ U[0.1, 4.9].
    UniformTasks,
    /// Fig. 6b: earliest 30% with θ ∈ [4.0, 4.9], rest θ ∈ [0.1, 1.0].
    EarliestHighEfficient,
}

impl Fig6Scenario {
    fn theta(self) -> ThetaDistribution {
        match self {
            Fig6Scenario::UniformTasks => ThetaDistribution::Uniform { min: 0.1, max: 4.9 },
            Fig6Scenario::EarliestHighEfficient => ThetaDistribution::EarlySplit {
                fraction: 0.3,
                early: (4.0, 4.9),
                late: (0.1, 1.0),
            },
        }
    }
}

/// Configuration (defaults = the paper's).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Config {
    /// Scenario.
    pub scenario: Fig6Scenario,
    /// Tasks per instance.
    pub n: usize,
    /// Deadline tolerance (paper: 0.01 — very strict).
    pub rho: f64,
    /// Budget ratios to sweep.
    pub betas: Vec<f64>,
    /// Replications per point.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Fig6Config {
    /// Paper defaults for a scenario.
    pub fn paper(scenario: Fig6Scenario) -> Self {
        Self {
            scenario,
            n: 100,
            rho: 0.01,
            betas: (1..=10).map(|i| i as f64 / 10.0).collect(),
            replications: 10,
            base_seed: 6060,
        }
    }

    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick(scenario: Fig6Scenario) -> Self {
        Self {
            n: 30,
            betas: vec![0.2, 0.4, 0.8],
            replications: 3,
            ..Self::paper(scenario)
        }
    }
}

/// One swept point: profiles normalized by `d^max`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Point {
    /// Budget ratio.
    pub beta: f64,
    /// Final (refined) profile of machine 1, as a fraction of `d^max`.
    pub p1: SummaryStats,
    /// Final profile of machine 2, as a fraction of `d^max`.
    pub p2: SummaryStats,
    /// Naive profile of machine 1 (fraction of `d^max`).
    pub naive_p1: SummaryStats,
    /// Naive profile of machine 2 (fraction of `d^max`).
    pub naive_p2: SummaryStats,
}

/// Full figure data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Result {
    /// Configuration used.
    pub config: Fig6Config,
    /// One point per β.
    pub points: Vec<Fig6Point>,
    /// Mean absolute deviation between final and naive profiles across the
    /// sweep (the quantity that separates Fig. 6a from Fig. 6b).
    pub mean_profile_deviation: f64,
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &Fig6Config, threads: usize) -> Fig6Result {
    let park = fig6_two_machine_park();
    let points: Vec<Fig6Point> = cfg
        .betas
        .iter()
        .map(|&beta| {
            let icfg = InstanceConfig {
                tasks: TaskConfig::paper(cfg.n, cfg.scenario.theta()),
                machines: MachineConfig::Explicit(park.machines().to_vec()),
                rho: cfg.rho,
                beta,
            };
            let base_seed = cfg.base_seed.wrapping_add((beta * 1000.0) as u64);
            let samples = run_indexed(threads, cfg.replications, |ctx, rep| {
                let inst = generate(&icfg, base_seed + rep as u64);
                let d_max = inst.d_max();
                let sol = FrOptSolver::new().solve_typed_with(&inst, ctx);
                (
                    sol.profile[0] / d_max,
                    sol.profile[1] / d_max,
                    sol.naive_profile.cap(0) / d_max,
                    sol.naive_profile.cap(1) / d_max,
                )
            });
            let mut point = Fig6Point {
                beta,
                p1: SummaryStats::new(),
                p2: SummaryStats::new(),
                naive_p1: SummaryStats::new(),
                naive_p2: SummaryStats::new(),
            };
            for (p1, p2, n1, n2) in samples {
                point.p1.push(p1);
                point.p2.push(p2);
                point.naive_p1.push(n1);
                point.naive_p2.push(n2);
            }
            point
        })
        .collect();

    let mean_profile_deviation = points
        .iter()
        .map(|p| (p.p1.mean() - p.naive_p1.mean()).abs() + (p.p2.mean() - p.naive_p2.mean()).abs())
        .sum::<f64>()
        / points.len().max(1) as f64;

    Fig6Result {
        config: cfg.clone(),
        points,
        mean_profile_deviation,
    }
}

/// Text rendering.
pub fn table(result: &Fig6Result) -> TextTable {
    let mut t = TextTable::new([
        "beta",
        "p1/dmax",
        "p2/dmax",
        "naive_p1/dmax",
        "naive_p2/dmax",
    ]);
    for p in &result.points {
        t.row([
            format!("{:.2}", p.beta),
            format!("{:.3}", p.p1.mean()),
            format!("{:.3}", p.p2.mean()),
            format!("{:.3}", p.naive_p1.mean()),
            format!("{:.3}", p.naive_p2.mean()),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &Fig6Result) -> String {
    let label = match result.config.scenario {
        Fig6Scenario::UniformTasks => "Uniform Tasks (Fig. 6a)",
        Fig6Scenario::EarliestHighEfficient => "Earliest High Efficient Tasks (Fig. 6b)",
    };
    format!(
        "{label}\n{}\nmean |final − naive| profile deviation: {:.4}\n",
        table(result).render(),
        result.mean_profile_deviation
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_profiles_track_naive_more_closely_than_split() {
        let uni = run(&Fig6Config::quick(Fig6Scenario::UniformTasks), 0);
        let split = run(&Fig6Config::quick(Fig6Scenario::EarliestHighEfficient), 0);
        // The paper's qualitative claim: the split scenario deviates more
        // from the naive profile than the uniform one.
        assert!(
            split.mean_profile_deviation >= uni.mean_profile_deviation,
            "split {} vs uniform {}",
            split.mean_profile_deviation,
            uni.mean_profile_deviation
        );
    }

    #[test]
    fn profiles_are_normalized_and_bounded() {
        let r = run(&Fig6Config::quick(Fig6Scenario::UniformTasks), 0);
        for p in &r.points {
            for v in [
                p.p1.mean(),
                p.p2.mean(),
                p.naive_p1.mean(),
                p.naive_p2.mean(),
            ] {
                assert!((0.0..=1.0 + 1e-9).contains(&v), "profile fraction {v}");
            }
        }
    }
}
