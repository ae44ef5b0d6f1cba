//! Fig. 3: optimality gap of `DSCT-EA-APPROX` (distance to the fractional
//! upper bound `DSCT-EA-UB`) as the task-heterogeneity ratio
//! `μ = θ_max/θ_min` grows — mean/min/max over many replications, compared
//! against the pessimistic worst-case guarantee `G`.
//!
//! Paper parameters: `n = 100`, `m = 5`, `ρ = 0.35`, `β = 0.5`,
//! `μ ∈ [5, 20]`, 100 experiments per point.

use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::guarantee::absolute_guarantee;
use dsct_core::run_indexed;
use dsct_core::solver::ApproxSolver;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

/// Configuration (defaults = the paper's).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Config {
    /// Tasks per instance.
    pub n: usize,
    /// Machines per instance.
    pub m: usize,
    /// Deadline tolerance.
    pub rho: f64,
    /// Energy-budget ratio.
    pub beta: f64,
    /// Heterogeneity ratios to sweep.
    pub mus: Vec<f64>,
    /// Replications per point.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Fig3Config {
    fn default() -> Self {
        Self {
            n: 100,
            m: 5,
            rho: 0.35,
            beta: 0.5,
            mus: vec![5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0],
            replications: 100,
            base_seed: 42,
        }
    }
}

impl Fig3Config {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 30,
            m: 3,
            mus: vec![5.0, 12.5, 20.0],
            replications: 8,
            ..Self::default()
        }
    }
}

/// One swept point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Point {
    /// Heterogeneity ratio μ.
    pub mu: f64,
    /// Per-task optimality gap `(UB − SOL)/n`: mean/std/min/max.
    pub gap: SummaryStats,
    /// Mean per-task accuracy of the approximation.
    pub approx_mean_accuracy: f64,
    /// Mean per-task accuracy of the upper bound.
    pub ub_mean_accuracy: f64,
    /// Mean worst-case guarantee `G/n` (the pessimistic bound of Eq. 13).
    pub guarantee_per_task: f64,
}

/// Full figure data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Result {
    /// Configuration used.
    pub config: Fig3Config,
    /// One entry per μ.
    pub points: Vec<Fig3Point>,
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &Fig3Config, threads: usize) -> Fig3Result {
    let points = cfg
        .mus
        .iter()
        .map(|&mu| {
            let icfg = InstanceConfig {
                tasks: TaskConfig::paper(cfg.n, ThetaDistribution::heterogeneity(mu)),
                machines: MachineConfig::paper_random(cfg.m),
                rho: cfg.rho,
                beta: cfg.beta,
            };
            // Seeds are salted per μ so points are independent.
            let base_seed = cfg.base_seed.wrapping_add((mu * 1000.0) as u64);
            let samples = run_indexed(threads, cfg.replications, |ctx, rep| {
                let inst = generate(&icfg, base_seed + rep as u64);
                let sol = ApproxSolver::new().solve_typed_with(&inst, ctx);
                let n = inst.num_tasks() as f64;
                let ub = sol.fractional.total_accuracy / n;
                let got = sol.total_accuracy / n;
                (ub - got, got, ub, absolute_guarantee(&inst) / n)
            });
            let mut gap = SummaryStats::new();
            let mut approx = SummaryStats::new();
            let mut ub = SummaryStats::new();
            let mut guar = SummaryStats::new();
            for (g, a, u, w) in samples {
                gap.push(g.max(0.0));
                approx.push(a);
                ub.push(u);
                guar.push(w);
            }
            Fig3Point {
                mu,
                gap,
                approx_mean_accuracy: approx.mean(),
                ub_mean_accuracy: ub.mean(),
                guarantee_per_task: guar.mean(),
            }
        })
        .collect();
    Fig3Result {
        config: cfg.clone(),
        points,
    }
}

/// Text rendering.
pub fn table(result: &Fig3Result) -> TextTable {
    let mut t = TextTable::new([
        "mu",
        "gap_mean",
        "gap_min",
        "gap_max",
        "approx_acc",
        "ub_acc",
        "G/n",
    ]);
    for p in &result.points {
        t.row([
            format!("{:.1}", p.mu),
            format!("{:.5}", p.gap.mean()),
            format!("{:.5}", p.gap.min()),
            format!("{:.5}", p.gap.max()),
            format!("{:.4}", p.approx_mean_accuracy),
            format!("{:.4}", p.ub_mean_accuracy),
            format!("{:.3}", p.guarantee_per_task),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &Fig3Result) -> String {
    let worst = result
        .points
        .iter()
        .map(|p| p.gap.max())
        .fold(0.0f64, f64::max);
    format!(
        "{}\nWorst observed per-task gap {:.5} — far below the pessimistic bound (G/n ≈ {:.2}).\n",
        table(result).render(),
        worst,
        result
            .points
            .iter()
            .map(|p| p.guarantee_per_task)
            .fold(0.0f64, f64::max)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_gap_is_small_and_below_guarantee() {
        let r = run(&Fig3Config::quick(), 0);
        assert_eq!(r.points.len(), 3);
        for p in &r.points {
            assert!(p.gap.mean() >= 0.0);
            // The headline of Fig. 3: the observed gap is far below G/n.
            assert!(
                p.gap.max() < p.guarantee_per_task,
                "mu {}: gap {} vs G/n {}",
                p.mu,
                p.gap.max(),
                p.guarantee_per_task
            );
            // And small in absolute terms.
            assert!(
                p.gap.mean() < 0.15,
                "mu {}: mean gap {}",
                p.mu,
                p.gap.mean()
            );
            assert!(p.ub_mean_accuracy >= p.approx_mean_accuracy - 1e-9);
        }
    }
}
