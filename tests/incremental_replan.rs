//! The replanner's admission contract, end to end:
//!
//! 1. **Byte-identity vs cold** — replaying any trace under
//!    [`ReplanStrategy::Incremental`] produces decisions, summary, and
//!    energy ledger byte-identical to [`ReplanStrategy::Cold`], over 24
//!    seeds × 3 load factors and both gated admission policies. Every
//!    gated evaluation is counted once, as a certified admission or as a
//!    fallback to the exact baseline, and under overload the certificate
//!    settles most of them. (Debug builds hold every certified admission
//!    to the exact baseline test inside the service.)
//! 2. **Repeated probes** — a standing pool probed again and again
//!    decides the same under every strategy, with `Cold`'s summary.

use dsct_ea::accuracy::PwlAccuracy;
use dsct_ea::online::{
    replay, AdmissionPolicy, Decision, OnlineConfig, OnlineService, ReplanStrategy, ReplayConfig,
};
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, MachineConfig, OnlineTask, TaskConfig, ThetaDistribution,
};

fn arrival_config(n: usize, load: f64) -> ArrivalConfig {
    ArrivalConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        load,
        deadline_slack: 2.0,
        beta: 0.5,
    }
}

fn replay_config(policy: AdmissionPolicy, replan: ReplanStrategy) -> ReplayConfig {
    ReplayConfig {
        online: OnlineConfig {
            policy,
            replan,
            ..OnlineConfig::default()
        },
        ..ReplayConfig::default()
    }
}

#[test]
fn incremental_replays_are_byte_identical_to_cold_across_seeds_and_loads() {
    let policies = [
        AdmissionPolicy::RejectIfInfeasible,
        AdmissionPolicy::DegradeToFit,
    ];
    let mut overload = (0u64, 0u64);
    for (t, &load) in [0.3, 1.0, 2.5].iter().enumerate() {
        for seed in 0..24u64 {
            let trace = generate_arrivals(&arrival_config(18, load), 7000 * t as u64 + seed)
                .expect("valid config");
            let policy = policies[(seed % 2) as usize];
            let cold = replay(&trace, &replay_config(policy, ReplanStrategy::Cold))
                .expect("zero jitter is valid");
            let inc = replay(&trace, &replay_config(policy, ReplanStrategy::Incremental))
                .expect("zero jitter is valid");
            assert_eq!(
                cold.decisions, inc.decisions,
                "load {load} seed {seed} {policy:?}: decisions diverged"
            );
            assert_eq!(
                format!("{:?}", cold.summary),
                format!("{:?}", inc.summary),
                "load {load} seed {seed} {policy:?}: summaries diverged"
            );
            assert_eq!(
                cold.ledger, inc.ledger,
                "load {load} seed {seed} {policy:?}: ledgers diverged"
            );
            // No disruption and no dead-on-arrival task: every arrival
            // reaches the admission test, and each one is certified or
            // falls back, exactly once.
            let gated = trace
                .tasks
                .iter()
                .filter(|t| t.deadline - t.arrival > 1e-9)
                .count() as u64;
            let r = inc.replan;
            assert_eq!(
                r.delta_bounds + r.fallbacks,
                gated,
                "load {load} seed {seed} {policy:?}: {r:?}"
            );
            if load == 2.5 && policy == AdmissionPolicy::DegradeToFit {
                overload.0 += r.delta_bounds;
                overload.1 += gated;
            }
        }
    }
    // Under overload almost every arrival is admitted on a certificate:
    // the sweep must show it, not pass with every evaluation falling back.
    assert!(
        overload.0 * 10 >= overload.1 * 9,
        "{} of {} load-2.5 DegradeToFit evaluations certified",
        overload.0,
        overload.1
    );
}

/// A shallow zero-floor probe `RejectIfInfeasible` always turns away:
/// its ceiling is far below the admission epsilon. Variants differ in
/// deadline, so each is a distinct gated evaluation.
fn probe(variant: usize, id: u64) -> OnlineTask {
    OnlineTask {
        id,
        tenant: 0,
        arrival: 0.0,
        deadline: 1.0 + 0.25 * variant as f64,
        accuracy: PwlAccuracy::new(&[(0.0, 0.0), (1.0, 1e-7)]).expect("valid shallow pwl"),
    }
}

#[test]
fn repeated_probes_against_a_standing_pool_decide_like_cold() {
    // 100 tasks on 8 machines, all live at t = 0. No probe is adopted and
    // the clock never moves, so every round of the four probe shapes
    // sees the same pool: rounds after the first are same-state repeats.
    let mut pool = generate_arrivals(
        &ArrivalConfig {
            machines: MachineConfig::paper_random(8),
            ..arrival_config(100, 1.0)
        },
        777,
    )
    .expect("valid config");
    for task in &mut pool.tasks {
        task.arrival = 0.0;
    }

    let run = |replan: ReplanStrategy| {
        let cfg = OnlineConfig {
            policy: AdmissionPolicy::RejectIfInfeasible,
            replan,
            ..OnlineConfig::default()
        };
        let mut svc =
            OnlineService::new(pool.park.clone(), pool.budget, cfg).expect("zero jitter is valid");
        svc.preload(&pool.tasks).expect("pool tasks are valid");
        let mut decisions = Vec::new();
        for id in 0..16u64 {
            // Four probe shapes, four rounds.
            let task = probe(id as usize % 4, 1_000_000 + id);
            decisions.push(svc.try_submit(&task).expect("valid probe"));
        }
        (decisions, format!("{:?}", svc.finish().summary))
    };

    let (cold, cold_summary) = run(ReplanStrategy::Cold);
    let (warm, _) = run(ReplanStrategy::WarmStart);
    let (inc, inc_summary) = run(ReplanStrategy::Incremental);
    assert!(
        cold.iter().all(|&d| d == Decision::Rejected),
        "a shallow zero-floor probe was admitted"
    );
    assert_eq!(cold, warm, "warm-start probe decisions diverged from cold");
    assert_eq!(cold, inc, "incremental probe decisions diverged from cold");
    assert_eq!(cold_summary, inc_summary, "summaries diverged");
}
