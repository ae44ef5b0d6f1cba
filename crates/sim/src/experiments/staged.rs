//! Extension — staged solver quality over DAG depth × operating-point
//! count (DESIGN §17).
//!
//! Sweeps chain-DAG depth and DVFS catalog size on the paper's workload
//! recipe and reports the staged approximation's per-task accuracy, its
//! gap to the lowered fractional upper bound, and the spent energy
//! fraction. Depth 1 with a single operating point is the flat model,
//! so the first cell doubles as a regression pin on the flat pipeline;
//! the added catalog points are all dominated, so the gap must be flat
//! across the operating-point axis.

use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::staged::StagedApproxSolver;
use dsct_workload::{
    generate_staged, DagShape, InstanceConfig, MachineConfig, StagedConfig, TaskConfig,
    ThetaDistribution,
};
use serde::{Deserialize, Serialize};

/// Configuration of the staged sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagedExpConfig {
    /// Tasks per instance.
    pub n: usize,
    /// Machines per instance.
    pub m: usize,
    /// Deadline tolerance ρ.
    pub rho: f64,
    /// Energy-budget ratio β.
    pub beta: f64,
    /// Chain depths to sweep (stages per task).
    pub depths: Vec<usize>,
    /// Operating points per machine to sweep (1 = fixed frequency).
    pub points: Vec<usize>,
    /// Replications per (depth, points) cell.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for StagedExpConfig {
    fn default() -> Self {
        Self {
            n: 60,
            m: 4,
            rho: 0.35,
            beta: 0.5,
            depths: vec![1, 2, 4],
            points: vec![1, 2, 4],
            replications: 24,
            base_seed: 42,
        }
    }
}

impl StagedExpConfig {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 16,
            m: 2,
            depths: vec![1, 2],
            points: vec![1, 3],
            replications: 4,
            ..Self::default()
        }
    }
}

/// One (depth, operating-point count) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagedPoint {
    /// Chain depth (stages per task).
    pub depth: usize,
    /// Operating points per machine.
    pub points: usize,
    /// Per-task accuracy of the staged approximation: mean/std/min/max.
    pub accuracy: SummaryStats,
    /// Per-task gap to the lowered fractional upper bound.
    pub gap: SummaryStats,
    /// Spent energy as a fraction of the budget.
    pub energy_fraction: SummaryStats,
}

/// Full sweep data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StagedExpResult {
    /// Configuration used.
    pub config: StagedExpConfig,
    /// One entry per (depth, points) cell, depth-major.
    pub cells: Vec<StagedPoint>,
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &StagedExpConfig, threads: usize) -> StagedExpResult {
    let mut cells = Vec::with_capacity(cfg.depths.len() * cfg.points.len());
    for &depth in &cfg.depths {
        for &points in &cfg.points {
            let scfg = StagedConfig {
                base: InstanceConfig {
                    tasks: TaskConfig::paper(
                        cfg.n,
                        ThetaDistribution::Uniform { min: 0.1, max: 2.0 },
                    ),
                    machines: MachineConfig::paper_random(cfg.m),
                    rho: cfg.rho,
                    beta: cfg.beta,
                },
                shape: DagShape::Chain,
                depth,
                extra_points: points.saturating_sub(1),
            };
            // Salt seeds per depth only: cells along the points axis
            // share draws, so the dominated-point invariance is a paired
            // (bit-exact) comparison rather than a statistical one.
            let base_seed = cfg.base_seed.wrapping_add((depth as u64) << 32);
            let samples = run_indexed(threads, cfg.replications, |ctx, rep| {
                let inst =
                    generate_staged(&scfg, base_seed + rep as u64).expect("valid staged config");
                let sol = StagedApproxSolver::checked()
                    .solve_with(&inst, ctx)
                    .expect("staged solve succeeds on generated instances");
                let n = inst.num_tasks() as f64;
                let acc = sol.total_accuracy(&inst) / n;
                let ub = sol.upper_bound().expect("approx certifies a bound") / n;
                let frac = if inst.budget() > 0.0 {
                    sol.energy(&inst) / inst.budget()
                } else {
                    0.0
                };
                (acc, (ub - acc).max(0.0), frac)
            });
            let mut accuracy = SummaryStats::new();
            let mut gap = SummaryStats::new();
            let mut energy_fraction = SummaryStats::new();
            for (a, g, f) in samples {
                accuracy.push(a);
                gap.push(g);
                energy_fraction.push(f);
            }
            cells.push(StagedPoint {
                depth,
                points,
                accuracy,
                gap,
                energy_fraction,
            });
        }
    }
    StagedExpResult {
        config: cfg.clone(),
        cells,
    }
}

/// Text rendering.
pub fn table(result: &StagedExpResult) -> TextTable {
    let mut t = TextTable::new([
        "depth",
        "points",
        "acc_mean",
        "acc_min",
        "gap_mean",
        "gap_max",
        "energy_frac",
    ]);
    for c in &result.cells {
        t.row([
            format!("{}", c.depth),
            format!("{}", c.points),
            format!("{:.4}", c.accuracy.mean()),
            format!("{:.4}", c.accuracy.min()),
            format!("{:.5}", c.gap.mean()),
            format!("{:.5}", c.gap.max()),
            format!("{:.3}", c.energy_fraction.mean()),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &StagedExpResult) -> String {
    let worst_gap = result
        .cells
        .iter()
        .map(|c| c.gap.max())
        .fold(0.0f64, f64::max);
    format!(
        "{}\nWorst per-task gap to the lowered fractional bound: {:.5}.\n\
         Dominated operating points leave every column unchanged; deeper \
         chains pay only the min-rule composition, not a solver penalty.\n",
        table(result).render(),
        worst_gap
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_respects_the_bound_and_budget() {
        let r = run(&StagedExpConfig::quick(), 0);
        assert_eq!(r.cells.len(), 4);
        for c in &r.cells {
            assert!(c.accuracy.mean() > 0.0, "cell {}x{}", c.depth, c.points);
            assert!(c.gap.min() >= 0.0);
            assert!(
                c.energy_fraction.max() <= 1.0 + 1e-9,
                "cell {}x{}: energy fraction {}",
                c.depth,
                c.points,
                c.energy_fraction.max()
            );
        }
    }

    #[test]
    fn dominated_operating_points_do_not_change_any_cell() {
        // Same depth, different catalog sizes: the extra points are all
        // dominated, so the sampled metrics must be bit-identical.
        let cfg = StagedExpConfig {
            n: 10,
            m: 2,
            depths: vec![2],
            points: vec![1, 4],
            replications: 3,
            ..StagedExpConfig::default()
        };
        let r = run(&cfg, 1);
        assert_eq!(r.cells.len(), 2);
        assert_eq!(
            r.cells[0].accuracy.mean().to_bits(),
            r.cells[1].accuracy.mean().to_bits()
        );
        assert_eq!(
            r.cells[0].gap.max().to_bits(),
            r.cells[1].gap.max().to_bits()
        );
    }
}
