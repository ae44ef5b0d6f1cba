//! Fig. 5: average accuracy under varying energy-budget ratio β for
//! `DSCT-EA-APPROX`, the upper bound `DSCT-EA-UB`, `EDF-NoCompression`,
//! and `EDF-3CompressionLevels` — plus the paper's headline energy-gain
//! number (≈ 70% of the budget saved for ≈ 2% accuracy loss).
//!
//! Paper parameters: `n = 100`, `m = 2`, `ρ = 1.0`, uniform tasks with
//! `θ = 0.1`, β from 0.1 to 1.0.
//!
//! Runs on the [`crate::engine`]: one cell per β, three solvers per cell.
//! The upper-bound series comes for free from the approximation's
//! certified fractional bound ([`dsct_core::solver::Solution::upper_bound`]),
//! so no second fractional solve is needed.

use crate::engine::{CellSpec, ExperimentPlan, ExperimentRun};
use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::solver::{ApproxSolver, EdfSolver, Solver};
use dsct_workload::{InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

const APPROX: usize = 0;
const EDF_FULL: usize = 1;
const EDF_LEVELS: usize = 2;

/// Configuration (defaults = the paper's).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Config {
    /// Tasks per instance.
    pub n: usize,
    /// Machines per instance.
    pub m: usize,
    /// Deadline tolerance.
    pub rho: f64,
    /// Fixed task efficiency θ.
    pub theta: f64,
    /// Budget ratios to sweep.
    pub betas: Vec<f64>,
    /// Replications per point.
    pub replications: usize,
    /// Accuracy loss tolerated for the energy-gain headline (paper: 2%).
    pub gain_tolerance: f64,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Fig5Config {
    fn default() -> Self {
        Self {
            n: 100,
            m: 2,
            rho: 1.0,
            theta: 0.1,
            betas: (1..=10).map(|i| i as f64 / 10.0).collect(),
            replications: 20,
            gain_tolerance: 0.02,
            base_seed: 5050,
        }
    }
}

impl Fig5Config {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            n: 25,
            betas: vec![0.1, 0.3, 0.5, 1.0],
            replications: 4,
            ..Self::default()
        }
    }

    fn instance_config(&self, beta: f64) -> InstanceConfig {
        InstanceConfig {
            tasks: TaskConfig::paper(self.n, ThetaDistribution::Fixed(self.theta)),
            machines: MachineConfig::paper_random(self.m),
            rho: self.rho,
            beta,
        }
    }
}

/// One swept point: mean per-task accuracies of every method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Budget ratio.
    pub beta: f64,
    /// `DSCT-EA-APPROX`.
    pub approx: SummaryStats,
    /// Fractional upper bound `DSCT-EA-UB`.
    pub upper_bound: SummaryStats,
    /// `EDF-NoCompression`.
    pub edf_full: SummaryStats,
    /// `EDF-3CompressionLevels`.
    pub edf_levels: SummaryStats,
}

/// Full figure data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Result {
    /// Configuration used.
    pub config: Fig5Config,
    /// One point per β.
    pub points: Vec<Fig5Point>,
    /// Energy-gain headline: smallest swept β at which the approximation
    /// stays within `gain_tolerance` of the no-compression accuracy at
    /// β = 1 (None if the sweep never reaches the reference).
    pub energy_gain: Option<EnergyGain>,
}

/// The energy-gain headline numbers.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct EnergyGain {
    /// Reference accuracy: EDF-NoCompression at the largest swept β.
    pub reference_accuracy: f64,
    /// Smallest β at which APPROX ≥ reference − tolerance.
    pub beta_star: f64,
    /// Fraction of the budget saved (`1 − beta_star / beta_max`).
    pub energy_saved: f64,
    /// Accuracy actually lost at `beta_star` relative to the reference.
    pub accuracy_loss: f64,
}

/// Runs the sweep on `threads` workers (0 = all cores, 1 = serial).
pub fn run(cfg: &Fig5Config, threads: usize) -> Fig5Result {
    let cells = cfg
        .betas
        .iter()
        .map(|&beta| CellSpec::new(format!("beta={beta:.2}"), cfg.instance_config(beta)))
        .collect();
    let solvers: Vec<Arc<dyn Solver>> = vec![
        Arc::new(ApproxSolver::new()),
        Arc::new(EdfSolver::no_compression()),
        Arc::new(EdfSolver::three_levels()),
    ];
    let run = ExperimentPlan::new(cells, solvers)
        .replications(cfg.replications)
        .master_seed(cfg.base_seed)
        .threads(threads)
        .keep_items(true) // the UB series is per-task-normalized from items
        .run();

    let points: Vec<Fig5Point> = cfg
        .betas
        .iter()
        .enumerate()
        .map(|(c, &beta)| point(&run, c, beta))
        .collect();
    let energy_gain = compute_energy_gain(cfg, &points);
    Fig5Result {
        config: cfg.clone(),
        points,
        energy_gain,
    }
}

fn point(run: &ExperimentRun, c: usize, beta: f64) -> Fig5Point {
    let per_task = |s: usize| -> SummaryStats {
        run.solver_stats(c, s)
            .map(|st| st.mean_accuracy)
            .unwrap_or_default()
    };
    // The engine aggregates the certified bound as a total; Fig. 5 plots
    // per-task accuracies, so rebuild UB / n from the retained items.
    let mut upper_bound = SummaryStats::new();
    for item in run.items.as_deref().unwrap_or(&[]) {
        if item.cell == c && item.solver == APPROX {
            if let Some(ub) = item.measure.upper_bound {
                upper_bound.push(ub / item.measure.num_tasks.max(1) as f64);
            }
        }
    }
    Fig5Point {
        beta,
        approx: per_task(APPROX),
        upper_bound,
        edf_full: per_task(EDF_FULL),
        edf_levels: per_task(EDF_LEVELS),
    }
}

fn compute_energy_gain(cfg: &Fig5Config, points: &[Fig5Point]) -> Option<EnergyGain> {
    let last = points.last()?;
    let reference = last.edf_full.mean();
    let beta_max = last.beta;
    let hit = points
        .iter()
        .find(|p| p.approx.mean() >= reference - cfg.gain_tolerance)?;
    Some(EnergyGain {
        reference_accuracy: reference,
        beta_star: hit.beta,
        energy_saved: 1.0 - hit.beta / beta_max,
        accuracy_loss: (reference - hit.approx.mean()).max(0.0),
    })
}

/// Text rendering.
pub fn table(result: &Fig5Result) -> TextTable {
    let mut t = TextTable::new(["beta", "approx", "ub", "edf_full", "edf_3levels"]);
    for p in &result.points {
        t.row([
            format!("{:.2}", p.beta),
            format!("{:.4}", p.approx.mean()),
            format!("{:.4}", p.upper_bound.mean()),
            format!("{:.4}", p.edf_full.mean()),
            format!("{:.4}", p.edf_levels.mean()),
        ]);
    }
    t
}

/// Human summary with the energy-gain headline.
pub fn render(result: &Fig5Result) -> String {
    let gain = match &result.energy_gain {
        Some(g) => format!(
            "Energy gain: β* = {:.2} ⇒ {:.0}% of the budget saved for {:.2}% mean-accuracy loss \
             (reference: EDF-NoCompression at β = {:.1}, accuracy {:.4}).",
            g.beta_star,
            g.energy_saved * 100.0,
            g.accuracy_loss * 100.0,
            result.points.last().map(|p| p.beta).unwrap_or(1.0),
            g.reference_accuracy
        ),
        None => "Energy gain: sweep never reached the no-compression reference.".to_string(),
    };
    format!("{}\n{}\n", table(result).render(), gain)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_increases_with_budget_and_respects_ordering() {
        let r = run(&Fig5Config::quick(), 0);
        for w in r.points.windows(2) {
            assert!(
                w[1].approx.mean() >= w[0].approx.mean() - 0.02,
                "approx not (weakly) increasing in beta: {} then {}",
                w[0].approx.mean(),
                w[1].approx.mean()
            );
        }
        for p in &r.points {
            assert_eq!(p.approx.count() as usize, r.config.replications);
            assert_eq!(p.upper_bound.count() as usize, r.config.replications);
            // UB dominates APPROX; APPROX should beat the EDF baselines.
            assert!(
                p.upper_bound.mean() >= p.approx.mean() - 1e-9,
                "beta {}",
                p.beta
            );
            assert!(
                p.approx.mean() >= p.edf_full.mean() - 0.02,
                "beta {}: approx {} vs edf {}",
                p.beta,
                p.approx.mean(),
                p.edf_full.mean()
            );
        }
    }

    #[test]
    fn energy_gain_is_reported() {
        let r = run(&Fig5Config::quick(), 0);
        let g = r.energy_gain.expect("sweep reaches the reference");
        assert!(g.beta_star <= 1.0);
        assert!(g.energy_saved >= 0.0);
        assert!(g.accuracy_loss <= r.config.gain_tolerance + 1e-9);
    }

    #[test]
    fn thread_count_does_not_change_the_figure() {
        let serial = run(&Fig5Config::quick(), 1);
        let parallel = run(&Fig5Config::quick(), 4);
        let flat = |r: &Fig5Result| -> Vec<(f64, f64, f64, f64, f64)> {
            r.points
                .iter()
                .map(|p| {
                    (
                        p.beta,
                        p.approx.mean(),
                        p.upper_bound.mean(),
                        p.edf_full.mean(),
                        p.edf_levels.mean(),
                    )
                })
                .collect()
        };
        assert_eq!(flat(&serial), flat(&parallel));
    }
}
