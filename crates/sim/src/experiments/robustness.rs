//! Extension experiment (beyond the paper): runtime robustness of
//! DSCT-EA schedules under machine-speed jitter.
//!
//! Plans are made at nominal speeds; real machines co-locate workloads,
//! throttle, and boost. We execute the planned schedule in the
//! discrete-event engine with multiplicative speed jitter and compare the
//! realized accuracy of the two overrun policies: *compress* (exploit the
//! slimmable network and keep partial work) vs *drop* (classic
//! all-or-nothing inference). The gap between them quantifies the
//! robustness value of task compressibility — the same property the paper
//! exploits at planning time, paying off again at run time.

use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::ApproxSolver;
use dsct_exec::{execute, ExecutionConfig, OverrunPolicy};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

/// Configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessConfig {
    /// Tasks per instance.
    pub n: usize,
    /// Machines per instance.
    pub m: usize,
    /// Deadline tolerance.
    pub rho: f64,
    /// Energy-budget ratio.
    pub beta: f64,
    /// Jitter half-widths to sweep.
    pub jitters: Vec<f64>,
    /// Replications (instance × execution seeds) per point.
    pub replications: usize,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for RobustnessConfig {
    fn default() -> Self {
        Self {
            n: 60,
            m: 3,
            rho: 0.2,
            beta: 0.5,
            jitters: vec![0.0, 0.05, 0.1, 0.2, 0.3, 0.4],
            replications: 40,
            base_seed: 9090,
        }
    }
}

impl RobustnessConfig {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 20,
            jitters: vec![0.0, 0.2, 0.4],
            replications: 6,
            ..Self::default()
        }
    }
}

/// One swept point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessPoint {
    /// Jitter half-width.
    pub jitter: f64,
    /// Planned mean accuracy (nominal speeds).
    pub planned: SummaryStats,
    /// Realized mean accuracy with the compress policy.
    pub compress: SummaryStats,
    /// Realized mean accuracy with the drop policy.
    pub drop: SummaryStats,
    /// Mean runtime compressions per instance (compress policy).
    pub compressions: SummaryStats,
    /// Mean runtime drops per instance (drop policy).
    pub drops: SummaryStats,
}

/// Full experiment data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RobustnessResult {
    /// Configuration used.
    pub config: RobustnessConfig,
    /// One point per jitter level.
    pub points: Vec<RobustnessPoint>,
}

/// Runs the sweep on `threads` workers (`0` = all cores). The returned
/// data is bit-identical for any worker count.
pub fn run(cfg: &RobustnessConfig, threads: usize) -> RobustnessResult {
    let icfg = InstanceConfig {
        tasks: TaskConfig::paper(cfg.n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(cfg.m),
        rho: cfg.rho,
        beta: cfg.beta,
    };
    let points = cfg
        .jitters
        .iter()
        .map(|&jitter| {
            let samples = run_indexed(threads, cfg.replications, |ctx, rep| {
                let seed = cfg.base_seed + rep as u64;
                let inst = generate(&icfg, seed);
                let n = inst.num_tasks() as f64;
                let plan = ApproxSolver::new().solve_typed_with(&inst, ctx);
                let run = |overrun: OverrunPolicy| {
                    execute(
                        &inst,
                        &plan.schedule,
                        &ExecutionConfig {
                            speed_jitter: jitter,
                            seed: seed ^ 0xabcd_1234,
                            overrun,
                        },
                    )
                };
                let c = run(OverrunPolicy::Compress);
                let d = run(OverrunPolicy::Drop);
                (
                    plan.total_accuracy / n,
                    c.realized_accuracy / n,
                    d.realized_accuracy / n,
                    c.compressions as f64,
                    d.drops as f64,
                )
            });
            let mut point = RobustnessPoint {
                jitter,
                planned: SummaryStats::new(),
                compress: SummaryStats::new(),
                drop: SummaryStats::new(),
                compressions: SummaryStats::new(),
                drops: SummaryStats::new(),
            };
            for (p, c, d, nc, nd) in samples {
                point.planned.push(p);
                point.compress.push(c);
                point.drop.push(d);
                point.compressions.push(nc);
                point.drops.push(nd);
            }
            point
        })
        .collect();
    RobustnessResult {
        config: cfg.clone(),
        points,
    }
}

/// Text rendering.
pub fn table(result: &RobustnessResult) -> TextTable {
    let mut t = TextTable::new([
        "jitter",
        "planned",
        "compress",
        "drop",
        "compressions",
        "drops",
    ]);
    for p in &result.points {
        t.row([
            format!("{:.2}", p.jitter),
            format!("{:.4}", p.planned.mean()),
            format!("{:.4}", p.compress.mean()),
            format!("{:.4}", p.drop.mean()),
            format!("{:.1}", p.compressions.mean()),
            format!("{:.1}", p.drops.mean()),
        ]);
    }
    t
}

/// Human summary.
pub fn render(result: &RobustnessResult) -> String {
    let worst = result.points.last();
    let note = worst
        .map(|p| {
            format!(
                "At {:.0}% jitter, compressibility retains {:.1}% of the planned accuracy vs \
                 {:.1}% with drop-on-overrun.",
                p.jitter * 100.0,
                100.0 * p.compress.mean() / p.planned.mean().max(1e-12),
                100.0 * p.drop.mean() / p.planned.mean().max(1e-12),
            )
        })
        .unwrap_or_default();
    format!("{}\n{note}\n", table(result).render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compress_dominates_drop_and_degrades_gracefully() {
        let r = run(&RobustnessConfig::quick(), 0);
        assert_eq!(r.points.len(), 3);
        // Zero jitter: realized == planned for both policies.
        let zero = &r.points[0];
        assert!((zero.compress.mean() - zero.planned.mean()).abs() < 1e-9);
        assert!((zero.drop.mean() - zero.planned.mean()).abs() < 1e-9);
        for p in &r.points {
            assert!(
                p.compress.mean() >= p.drop.mean() - 1e-12,
                "jitter {}: compress {} < drop {}",
                p.jitter,
                p.compress.mean(),
                p.drop.mean()
            );
        }
        // High jitter hurts the drop policy more than compress.
        let hi = r.points.last().unwrap();
        let compress_loss = zero.planned.mean() - hi.compress.mean();
        let drop_loss = zero.planned.mean() - hi.drop.mean();
        assert!(
            drop_loss >= compress_loss,
            "drop loss {drop_loss} < compress loss {compress_loss}"
        );
    }
}
