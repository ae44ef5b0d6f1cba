//! Chaos replay: merging a fault plan into an arrival trace.

use crate::plan::{ChaosEventKind, ChaosPlan};
use dsct_online::{
    Disruption, OnlineConfig, OnlineError, OnlineReport, OnlineService, OnlineSummary,
};
use dsct_workload::{synthesize_burst, ArrivalTrace, TaskConfig, ThetaDistribution};
use serde::{Deserialize, Serialize};

/// Deterministic aggregate of one chaos replay — the byte-comparable
/// payload of the chaos determinism contract: equal `(trace, config,
/// plan)` triples serialize to equal summaries regardless of solver
/// parallelism or harness thread count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosSummary {
    /// The underlying service summary (includes the failure count).
    pub online: OnlineSummary,
    /// Seed of the applied plan.
    pub chaos_seed: u64,
    /// Events applied, by kind.
    pub failures_injected: usize,
    /// Speed degradations applied.
    pub degradations_injected: usize,
    /// Budget shocks applied.
    pub shocks_injected: usize,
    /// Burst tasks submitted on top of the base trace.
    pub burst_arrivals: usize,
}

/// Everything a chaos replay reports.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// The full service report of the disrupted run.
    pub report: OnlineReport,
    /// The deterministic summary.
    pub summary: ChaosSummary,
}

/// The θ recipe burst tasks are synthesized with (the paper's uniform
/// heterogeneous scenario, one task per call is resized by the burst).
fn burst_task_config() -> TaskConfig {
    TaskConfig::paper(1, ThetaDistribution::Uniform { min: 0.1, max: 2.0 })
}

/// Replays `trace` through a fresh [`OnlineService`] with `plan`'s
/// events merged in by firing time (an event fires before any arrival
/// sharing its timestamp). An empty plan reduces to
/// [`dsct_online::replay`] — bit for bit.
pub fn chaos_replay(
    trace: &ArrivalTrace,
    cfg: &OnlineConfig,
    plan: &ChaosPlan,
) -> Result<ChaosReport, OnlineError> {
    let mut svc = OnlineService::new(trace.park.clone(), trace.budget, *cfg)?;
    let mut failures_injected = 0usize;
    let mut degradations_injected = 0usize;
    let mut shocks_injected = 0usize;
    let mut burst_arrivals = 0usize;
    let tcfg = burst_task_config();

    let mut next_task = 0usize;
    for event in &plan.events {
        while next_task < trace.tasks.len() && trace.tasks[next_task].arrival < event.at {
            svc.try_submit(&trace.tasks[next_task])?;
            next_task += 1;
        }
        match event.kind {
            ChaosEventKind::MachineFailure { machine } => {
                svc.inject(event.at, &Disruption::MachineFailure { machine })?;
                failures_injected += 1;
            }
            ChaosEventKind::SpeedDegradation { machine, factor } => {
                svc.inject(event.at, &Disruption::SpeedDegradation { machine, factor })?;
                degradations_injected += 1;
            }
            ChaosEventKind::BudgetShock { delta } => {
                svc.inject(event.at, &Disruption::BudgetShock { delta })?;
                shocks_injected += 1;
            }
            ChaosEventKind::ArrivalBurst {
                seed,
                count,
                first_id,
                slack,
            } => {
                let burst =
                    synthesize_burst(&tcfg, seed, count, event.at, &trace.park, slack, first_id);
                for task in &burst {
                    svc.try_submit(task)?;
                    burst_arrivals += 1;
                }
            }
        }
    }
    for task in &trace.tasks[next_task..] {
        svc.try_submit(task)?;
    }
    let report = svc.finish();
    let summary = ChaosSummary {
        online: report.summary.clone(),
        chaos_seed: plan.chaos_seed,
        failures_injected,
        degradations_injected,
        shocks_injected,
        burst_arrivals,
    };
    Ok(ChaosReport { report, summary })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{ChaosConfig, ChaosPlan};
    use dsct_workload::{generate_arrivals, ArrivalConfig, MachineConfig};

    fn trace(seed: u64) -> ArrivalTrace {
        let cfg = ArrivalConfig {
            tasks: TaskConfig::paper(24, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(3),
            load: 1.0,
            deadline_slack: 2.0,
            beta: 0.5,
        };
        generate_arrivals(&cfg, seed).expect("validated config")
    }

    fn plan_for(trace: &ArrivalTrace, chaos_seed: u64) -> ChaosPlan {
        ChaosPlan::generate(
            &ChaosConfig::default(),
            chaos_seed,
            trace.horizon(),
            trace.park.len(),
            trace.budget,
        )
    }

    #[test]
    fn empty_plan_reduces_to_the_plain_replay() {
        let t = trace(5);
        let empty = ChaosPlan {
            chaos_seed: 0,
            events: Vec::new(),
        };
        let cfg = OnlineConfig::default();
        let chaos = chaos_replay(&t, &cfg, &empty).unwrap();
        let rcfg = dsct_online::ReplayConfig {
            online: cfg,
            ..Default::default()
        };
        let plain = dsct_online::replay(&t, &rcfg).unwrap();
        assert_eq!(
            serde_json::to_string(&chaos.summary.online).unwrap(),
            serde_json::to_string(&plain.summary).unwrap(),
            "an empty chaos plan must be invisible"
        );
        assert_eq!(chaos.report.trace.tasks, plain.trace.tasks);
    }

    #[test]
    fn disrupted_runs_stay_ledger_consistent() {
        let t = trace(3);
        let p = plan_for(&t, 13);
        let r = chaos_replay(&t, &OnlineConfig::default(), &p).unwrap();
        assert_eq!(r.summary.failures_injected, 1);
        assert_eq!(r.summary.degradations_injected, 1);
        assert_eq!(r.summary.shocks_injected, 1);
        assert_eq!(r.summary.burst_arrivals, 3);
        assert_eq!(
            r.summary.online.arrivals,
            t.tasks.len() + r.summary.burst_arrivals
        );
        // Everything settled; nothing left committed.
        assert_eq!(r.report.ledger.committed(), 0.0);
        // Spending never exceeds the largest budget the run ever had
        // (a shock can only raise it above the initial value by 25%).
        let cap = t.budget.max(r.summary.online.budget) * 1.25 + 1e-6;
        assert!(r.summary.online.spent_energy <= cap);
    }

    #[test]
    fn burst_tasks_are_recorded_with_their_synthetic_ids() {
        let t = trace(21);
        let p = plan_for(&t, 8);
        let r = chaos_replay(&t, &OnlineConfig::default(), &p).unwrap();
        let burst_decisions = r
            .report
            .decisions
            .iter()
            .filter(|(id, _)| *id >= crate::plan::BURST_ID_BASE)
            .count();
        assert_eq!(burst_decisions, r.summary.burst_arrivals);
    }
}
