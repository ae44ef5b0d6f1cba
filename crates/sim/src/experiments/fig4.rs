//! Fig. 4: execution time of `DSCT-EA-APPROX` vs the exact MIP solver
//! (`DSCT-EA-Opt`, 60 s time limit) when scaling (a) the number of tasks
//! with `m = 5` and (b) the number of machines with `n = 50`.
//!
//! The paper's finding: the MIP solver hits the time limit from `n = 30`
//! (resp. `m = 4`) while the approximation handles hundreds of tasks. Our
//! branch-and-bound substitute hits the wall even earlier (it is no MOSEK),
//! which only sharpens the contrast; the *shape* — exponential exact
//! solver vs polynomial approximation — is the reproduced claim.
//!
//! The paper does not state ρ/β/θ for this experiment; we use the Fig. 3
//! operating point (ρ = 0.35, β = 0.5, θ ~ U[0.1, 1.0]), noted in
//! EXPERIMENTS.md.
//!
//! One [`run_indexed`] item per `(cell, replication)` solves one
//! generated instance with the approximation and, within the MIP size
//! caps, with the MIP. The loop runs on one thread: these are wall-clock
//! measurements, so no solve may share the machine with another item.

use crate::derive_seed;
use crate::experiments::timed_solve;
use crate::report::{fmt_secs, TextTable};
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::{ApproxSolver, MipSolver, SolveError};
use dsct_lp::Status;
use dsct_mip::{MipOptions, MipStatus};
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Configuration (defaults = the paper's sweep).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Config {
    /// Task counts for sweep (a), with `m = m_fixed`.
    pub task_counts: Vec<usize>,
    /// Machine counts for sweep (b), with `n = n_fixed`.
    pub machine_counts: Vec<usize>,
    /// Fixed machine count for sweep (a).
    pub m_fixed: usize,
    /// Fixed task count for sweep (b).
    pub n_fixed: usize,
    /// Wall-clock limit per MIP solve (paper: 60 s).
    pub time_limit_secs: f64,
    /// Replications per point (paper: 10; default 5 here because each
    /// capped MIP run costs the full 60 s once past the wall).
    pub replications: usize,
    /// Skip the MIP beyond this task count (it would only burn the full
    /// time limit; the paper's solver was already timing out at 30).
    pub mip_max_n: usize,
    /// Skip the MIP beyond this machine count.
    pub mip_max_m: usize,
    /// Deadline tolerance.
    pub rho: f64,
    /// Energy-budget ratio.
    pub beta: f64,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Fig4Config {
    fn default() -> Self {
        Self {
            task_counts: vec![10, 20, 30, 50, 100, 200, 300, 400, 500],
            machine_counts: vec![2, 3, 4, 5, 6, 7, 8, 9, 10],
            m_fixed: 5,
            n_fixed: 50,
            time_limit_secs: 60.0,
            replications: 5,
            mip_max_n: 30,
            mip_max_m: 5,
            rho: 0.35,
            beta: 0.5,
            base_seed: 4242,
        }
    }
}

impl Fig4Config {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            task_counts: vec![5, 10, 20],
            machine_counts: vec![2, 3],
            n_fixed: 8,
            time_limit_secs: 2.0,
            replications: 2,
            mip_max_n: 10,
            mip_max_m: 3,
            ..Self::default()
        }
    }

    fn instance_config(&self, n: usize, m: usize) -> InstanceConfig {
        InstanceConfig {
            tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 1.0 }),
            machines: MachineConfig::paper_random(m),
            rho: self.rho,
            beta: self.beta,
        }
    }
}

/// One swept point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Point {
    /// Swept size (n for sweep a, m for sweep b).
    pub size: usize,
    /// Approximation runtime (s).
    pub approx_time: SummaryStats,
    /// MIP runtime (s); empty when the MIP was skipped at this size.
    pub mip_time: SummaryStats,
    /// How many MIP runs stopped on the wall-clock limit.
    pub mip_timeouts: usize,
    /// Whether the MIP was attempted at all.
    pub mip_attempted: bool,
}

/// Full figure data (both sweeps).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Result {
    /// Configuration used.
    pub config: Fig4Config,
    /// Sweep (a): size = n.
    pub by_tasks: Vec<Fig4Point>,
    /// Sweep (b): size = m.
    pub by_machines: Vec<Fig4Point>,
}

/// Runs both sweeps as one loop on one thread (a wall-clock study).
pub fn run(cfg: &Fig4Config) -> Fig4Result {
    // (size, instance config, attempt the MIP): sweep (a), then sweep (b).
    let mut cells = Vec::new();
    for &n in &cfg.task_counts {
        cells.push((n, cfg.instance_config(n, cfg.m_fixed), n <= cfg.mip_max_n));
    }
    let split = cells.len();
    for &m in &cfg.machine_counts {
        cells.push((m, cfg.instance_config(cfg.n_fixed, m), m <= cfg.mip_max_m));
    }
    let approx = ApproxSolver::new();
    let mip = MipSolver::with_options(MipOptions {
        time_limit: Some(Duration::from_secs_f64(cfg.time_limit_secs)),
        ..Default::default()
    });
    let reps = cfg.replications;
    // Each item: the approximation's solve time and, where attempted, the
    // MIP's solve time and whether it stopped on its limit (with or
    // without an incumbent).
    let items = run_indexed(1, cells.len() * reps, |ctx, i| {
        let (c, rep) = (i / reps, i % reps);
        let (_, config, attempt_mip) = &cells[c];
        let inst = generate(config, derive_seed(cfg.base_seed, c as u64, rep as u64));
        let (approx_time, _) = timed_solve(&approx, &inst, ctx);
        let mip = attempt_mip.then(|| {
            let (time, result) = timed_solve(&mip, &inst, ctx);
            let timed_out = match result {
                Ok(sol) => sol.stats.timed_out,
                Err(SolveError::LpNotOptimal(Status::TimeLimit))
                | Err(SolveError::NoIncumbent(MipStatus::TimeLimit)) => true,
                Err(_) => false,
            };
            (time, timed_out)
        });
        (approx_time, mip)
    });

    let mut points: Vec<Fig4Point> = cells
        .iter()
        .map(|&(size, _, mip_attempted)| Fig4Point {
            size,
            approx_time: SummaryStats::new(),
            mip_time: SummaryStats::new(),
            mip_timeouts: 0,
            mip_attempted,
        })
        .collect();
    for (i, (approx_time, mip)) in items.into_iter().enumerate() {
        let p = &mut points[i / reps];
        p.approx_time.push(approx_time);
        if let Some((time, timed_out)) = mip {
            p.mip_time.push(time);
            p.mip_timeouts += usize::from(timed_out);
        }
    }
    let by_machines = points.split_off(split);
    Fig4Result {
        config: cfg.clone(),
        by_tasks: points,
        by_machines,
    }
}

fn sweep_table(label: &str, points: &[Fig4Point]) -> TextTable {
    let mut t = TextTable::new([label, "approx_mean", "mip_mean", "mip_timeouts"]);
    for p in points {
        t.row([
            p.size.to_string(),
            fmt_secs(p.approx_time.mean()),
            if p.mip_attempted {
                fmt_secs(p.mip_time.mean())
            } else {
                "skipped".to_string()
            },
            if p.mip_attempted {
                p.mip_timeouts.to_string()
            } else {
                "-".to_string()
            },
        ]);
    }
    t
}

/// Text rendering of both sweeps.
pub fn render(result: &Fig4Result) -> String {
    format!(
        "(a) runtime vs number of tasks (m = {}):\n{}\n(b) runtime vs number of machines (n = {}):\n{}",
        result.config.m_fixed,
        sweep_table("n", &result.by_tasks).render(),
        result.config.n_fixed,
        sweep_table("m", &result.by_machines).render(),
    )
}

/// CSV table (sweep a then sweep b, tagged).
pub fn table(result: &Fig4Result) -> TextTable {
    let mut t = TextTable::new([
        "sweep",
        "size",
        "approx_mean_s",
        "mip_mean_s",
        "mip_timeouts",
    ]);
    for (tag, points) in [
        ("tasks", &result.by_tasks),
        ("machines", &result.by_machines),
    ] {
        for p in points {
            t.row([
                tag.to_string(),
                p.size.to_string(),
                format!("{:.6}", p.approx_time.mean()),
                if p.mip_attempted {
                    format!("{:.6}", p.mip_time.mean())
                } else {
                    "".to_string()
                },
                p.mip_timeouts.to_string(),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_sweep_shows_approx_scaling() {
        let r = run(&Fig4Config::quick());
        assert_eq!(r.by_tasks.len(), 3);
        assert_eq!(r.by_machines.len(), 2);
        // The approximation always finishes fast.
        for p in r.by_tasks.iter().chain(&r.by_machines) {
            assert_eq!(p.approx_time.count() as usize, 2);
            assert!(p.approx_time.mean() < 5.0);
        }
        // MIP attempted only within the caps.
        assert!(r.by_tasks[0].mip_attempted);
        assert!(!r.by_tasks[2].mip_attempted);
        assert_eq!(r.by_tasks[2].mip_time.count(), 0);
    }
}
