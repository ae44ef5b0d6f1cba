//! Fig. 5: average accuracy under varying energy-budget ratio β for
//! `DSCT-EA-APPROX`, the upper bound `DSCT-EA-UB`, `EDF-NoCompression`,
//! and `EDF-3CompressionLevels` — plus the paper's headline energy-gain
//! number (≈ 70% of the budget saved for ≈ 2% accuracy loss).
//!
//! Paper parameters: `n = 100`, `m = 2`, `ρ = 1.0`, uniform tasks with
//! `θ = 0.1`, β from 0.1 to 1.0.
//!
//! One [`run_indexed`] item per `(β, replication)` solves one generated
//! instance with all three methods. The upper-bound series comes for
//! free from the approximation's certified fractional bound
//! ([`dsct_core::solver::Solution::upper_bound`]), so no second
//! fractional solve is needed.

use crate::derive_seed;
use crate::report::TextTable;
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::{ApproxSolver, EdfSolver, Solution, Solver};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

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

/// Runs the sweep on `threads` workers (0 = all cores, 1 = serial). The
/// returned data is bit-identical for any worker count.
pub fn run(cfg: &Fig5Config, threads: usize) -> Fig5Result {
    let approx = ApproxSolver::new();
    let edf_full = EdfSolver::no_compression();
    let edf_levels = EdfSolver::three_levels();
    let reps = cfg.replications;
    // Each item: the per-task accuracies of APPROX, its certified bound,
    // EDF-NoCompression and EDF-3CompressionLevels (`None` where the
    // solve failed or certified no bound).
    let items = run_indexed(threads, cfg.betas.len() * reps, |ctx, i| {
        let (c, rep) = (i / reps, i % reps);
        let seed = derive_seed(cfg.base_seed, c as u64, rep as u64);
        let inst = generate(&cfg.instance_config(cfg.betas[c]), seed);
        let n = inst.num_tasks().max(1) as f64;
        let sol = approx.solve_with(&inst, ctx).ok();
        let full = edf_full.solve_with(&inst, ctx).ok();
        let levels = edf_levels.solve_with(&inst, ctx).ok();
        let per_task = |sol: &Option<Solution>| sol.as_ref().map(|s| s.total_accuracy / n);
        [
            per_task(&sol),
            sol.as_ref().and_then(|s| s.upper_bound).map(|ub| ub / n),
            per_task(&full),
            per_task(&levels),
        ]
    });

    let mut points: Vec<Fig5Point> = cfg
        .betas
        .iter()
        .map(|&beta| Fig5Point {
            beta,
            approx: SummaryStats::new(),
            upper_bound: SummaryStats::new(),
            edf_full: SummaryStats::new(),
            edf_levels: SummaryStats::new(),
        })
        .collect();
    // Fold in item order: each series sees its replications in order.
    for (i, values) in items.iter().enumerate() {
        let p = &mut points[i / reps];
        let series = [
            &mut p.approx,
            &mut p.upper_bound,
            &mut p.edf_full,
            &mut p.edf_levels,
        ];
        for (stats, value) in series.into_iter().zip(values) {
            if let Some(v) = value {
                stats.push(*v);
            }
        }
    }
    let energy_gain = compute_energy_gain(cfg, &points);
    Fig5Result {
        config: cfg.clone(),
        points,
        energy_gain,
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
}
