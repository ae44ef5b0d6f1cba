//! Table 1: execution time of the combinatorial `DSCT-EA-FR-OPT` vs a
//! general-purpose LP solver on the fractional relaxation DSCT-EA-FR, for
//! `n ∈ {100, …, 500}` tasks and `m = 5` machines.
//!
//! The paper compares a Python implementation against MOSEK; here the LP
//! path is this workspace's revised simplex. The reproduced claim is the
//! *shape*: the dedicated combinatorial algorithm beats the
//! general-purpose LP machinery at every size, with a widening margin.
//!
//! One [`run_indexed`] item per `(n, replication)` solves one generated
//! instance with both paths, so the agreement check pairs them on the
//! same instance. The loop runs on one thread (a wall-clock study).

use crate::derive_seed;
use crate::experiments::timed_solve;
use crate::report::{fmt_secs, TextTable};
use crate::stats::SummaryStats;
use dsct_core::run_indexed;
use dsct_core::solver::{FrOptSolver, LpSolver};
use dsct_lp::SolveOptions;
use dsct_workload::{generate, InstanceConfig, MachineConfig, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

/// Configuration (defaults follow the paper; replications reduced from 10
/// to 3 because the simplex path dominates runtime — noted in
/// EXPERIMENTS.md).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Config {
    /// Task counts.
    pub task_counts: Vec<usize>,
    /// Machines.
    pub m: usize,
    /// Replications per point.
    pub replications: usize,
    /// Deadline tolerance.
    pub rho: f64,
    /// Energy-budget ratio.
    pub beta: f64,
    /// Optional wall-clock cap per LP solve (seconds; 0 = none).
    pub lp_time_limit_secs: f64,
    /// Also verify that both paths agree on the optimal value.
    pub check_agreement: bool,
    /// Base RNG seed.
    pub base_seed: u64,
}

impl Default for Table1Config {
    fn default() -> Self {
        Self {
            task_counts: vec![100, 200, 300, 400, 500],
            m: 5,
            replications: 3,
            rho: 0.35,
            beta: 0.5,
            lp_time_limit_secs: 120.0,
            check_agreement: false,
            base_seed: 777,
        }
    }
}

impl Table1Config {
    /// Reduced configuration for smoke tests / quick runs.
    pub fn quick() -> Self {
        Self {
            task_counts: vec![20, 40],
            m: 3,
            replications: 2,
            lp_time_limit_secs: 30.0,
            check_agreement: true,
            ..Self::default()
        }
    }

    fn instance_config(&self, n: usize) -> InstanceConfig {
        InstanceConfig {
            tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 1.0 }),
            machines: MachineConfig::paper_random(self.m),
            rho: self.rho,
            beta: self.beta,
        }
    }
}

/// One row of the table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Task count.
    pub n: usize,
    /// Combinatorial solver runtime (s).
    pub fr_opt_time: SummaryStats,
    /// LP solver runtime (s).
    pub lp_time: SummaryStats,
    /// LP solves that did not reach optimality (time or iteration cap).
    pub lp_timeouts: usize,
    /// Worst relative disagreement between the two optimal values (only
    /// populated when agreement checking is on).
    pub max_rel_gap: f64,
}

/// Full table data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Result {
    /// Configuration used.
    pub config: Table1Config,
    /// One row per n.
    pub rows: Vec<Table1Row>,
}

/// Runs the comparison as one loop on one thread (a wall-clock study).
pub fn run(cfg: &Table1Config) -> Table1Result {
    let fr_opt = FrOptSolver::new();
    let lp = LpSolver::with_options(SolveOptions {
        time_limit: if cfg.lp_time_limit_secs > 0.0 {
            Some(std::time::Duration::from_secs_f64(cfg.lp_time_limit_secs))
        } else {
            None
        },
        ..Default::default()
    });
    let reps = cfg.replications;
    // Each item: both solve times, whether the LP failed, and (with the
    // agreement check) the relative gap between the two optima.
    let items = run_indexed(1, cfg.task_counts.len() * reps, |ctx, i| {
        let (c, rep) = (i / reps, i % reps);
        let seed = derive_seed(cfg.base_seed, c as u64, rep as u64);
        let inst = generate(&cfg.instance_config(cfg.task_counts[c]), seed);
        let (fr_time, fr) = timed_solve(&fr_opt, &inst, ctx);
        let (lp_time, lp) = timed_solve(&lp, &inst, ctx);
        let gap = match (&fr, &lp) {
            (Ok(fr), Ok(lp)) if cfg.check_agreement => Some(
                (lp.total_accuracy - fr.total_accuracy).abs() / inst.total_max_accuracy().max(1.0),
            ),
            _ => None,
        };
        (fr_time, lp_time, lp.is_err(), gap)
    });

    let mut rows: Vec<Table1Row> = cfg
        .task_counts
        .iter()
        .map(|&n| Table1Row {
            n,
            fr_opt_time: SummaryStats::new(),
            lp_time: SummaryStats::new(),
            lp_timeouts: 0,
            max_rel_gap: 0.0,
        })
        .collect();
    for (i, (fr_time, lp_time, lp_failed, gap)) in items.into_iter().enumerate() {
        let row = &mut rows[i / reps];
        row.fr_opt_time.push(fr_time);
        row.lp_time.push(lp_time);
        // A non-optimal LP end state (time or iteration cap) is a failed
        // solve; the LP has no other failure mode on these models.
        row.lp_timeouts += usize::from(lp_failed);
        if let Some(gap) = gap {
            row.max_rel_gap = row.max_rel_gap.max(gap);
        }
    }
    Table1Result {
        config: cfg.clone(),
        rows,
    }
}

/// Text rendering in the paper's layout (rows = methods, columns = n).
pub fn render(result: &Table1Result) -> String {
    let mut header = vec!["Number of tasks".to_string()];
    header.extend(result.rows.iter().map(|r| r.n.to_string()));
    let mut t = TextTable::new(header);
    let mut fr_row = vec!["DSCT-EA-FR-Opt (s)".to_string()];
    fr_row.extend(result.rows.iter().map(|r| fmt_secs(r.fr_opt_time.mean())));
    t.row(fr_row);
    let mut lp_row = vec!["DSCT-EA-FR [simplex] (s)".to_string()];
    lp_row.extend(result.rows.iter().map(|r| fmt_secs(r.lp_time.mean())));
    t.row(lp_row);
    t.render()
}

/// CSV-friendly table.
pub fn table(result: &Table1Result) -> TextTable {
    let mut t = TextTable::new([
        "n",
        "fr_opt_mean_s",
        "lp_mean_s",
        "lp_timeouts",
        "max_rel_gap",
    ]);
    for r in &result.rows {
        t.row([
            r.n.to_string(),
            format!("{:.6}", r.fr_opt_time.mean()),
            format!("{:.6}", r.lp_time.mean()),
            r.lp_timeouts.to_string(),
            format!("{:.2e}", r.max_rel_gap),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_comparison_agrees_and_reports() {
        let r = run(&Table1Config::quick());
        assert_eq!(r.rows.len(), 2);
        for row in &r.rows {
            assert_eq!(row.lp_timeouts, 0);
            assert_eq!(row.fr_opt_time.count() as usize, r.config.replications);
            assert_eq!(row.lp_time.count() as usize, r.config.replications);
            // Both paths compute the same optimum.
            assert!(
                row.max_rel_gap < 5e-4,
                "n {}: gap {}",
                row.n,
                row.max_rel_gap
            );
            assert!(row.fr_opt_time.mean() > 0.0);
        }
        let text = render(&r);
        assert!(text.contains("DSCT-EA-FR-Opt"));
    }
}
