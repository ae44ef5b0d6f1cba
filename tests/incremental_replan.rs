//! The incremental replanner's contract, end to end:
//!
//! 1. **Byte-identity vs cold** — replaying any trace under
//!    [`ReplanStrategy::Incremental`] produces decisions, summary, and
//!    energy ledger byte-identical to [`ReplanStrategy::Cold`], over 24
//!    seeds × 3 load factors and both gated admission policies. The
//!    incremental arm may settle a `DegradeToFit` evaluation by the
//!    anchor's insertion bound; whichever path answers, the adopted plans
//!    are cold solves, bit for bit, and every gated evaluation is counted
//!    once, as a delta bound or as a fallback.
//! 2. **Repeated probes** — a standing pool probed again and again
//!    decides the same under every strategy, with `Cold`'s summary.
//! 3. **Invalid-delta fallback** — when the bound declines (a missing or
//!    mismatched anchor), the replanner falls back to the full solve
//!    bit-exactly.
//! 4. **The retained evaluator** — an anchor keeps the evaluator its solve
//!    ran on, and every insertion bound it answers is, to the bit, what an
//!    evaluator freshly built on the anchored instance answers.

use dsct_ea::accuracy::PwlAccuracy;
use dsct_ea::core::algo_naive::{NaiveSolver, ValueCheckpoint};
use dsct_ea::core::problem::{Instance, Task};
use dsct_ea::core::replan::Replanner;
use dsct_ea::core::residual::{residual_instance, ResidualItem};
use dsct_ea::core::solver::ApproxSolver;
use dsct_ea::machines::{Machine, MachinePark};
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
    let mut delta_bounds = 0u64;
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
            if policy == AdmissionPolicy::DegradeToFit {
                // No disruption and no dead-on-arrival task: every
                // arrival reaches the admission test, and each one is
                // settled by the bound or falls back, exactly once.
                let gated = trace
                    .tasks
                    .iter()
                    .filter(|t| t.deadline - t.arrival > 1e-9)
                    .count() as u64;
                let r = inc.replan;
                assert_eq!(
                    r.delta_bounds + r.fallbacks,
                    gated,
                    "load {load} seed {seed}: {r:?}"
                );
            }
            delta_bounds += inc.replan.delta_bounds;
        }
    }
    // The sweep must actually exercise the bound, not pass vacuously
    // with every request falling back to the full solve.
    assert!(
        delta_bounds > 0,
        "no incremental replay ever settled an evaluation by its bound"
    );
}

/// The sweep's traces replayed at the replanner: at every arrival the
/// pool's residual is solved and anchored on the solve's own evaluator,
/// and the anchor is asked for the insertion bound of the arrival and of
/// the next three. Each bound equals, by `to_bits`, the bound a
/// `NaiveSolver` freshly built on the anchored instance gives at the same
/// caps.
#[test]
fn retained_anchor_bounds_match_a_fresh_evaluator_across_seeds_and_loads() {
    let mut compared = 0usize;
    for (t, &load) in [0.3, 1.0, 2.5].iter().enumerate() {
        for seed in 0..24u64 {
            let trace = generate_arrivals(&arrival_config(18, load), 7000 * t as u64 + seed)
                .expect("valid config");
            let mut rp = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental);
            let mut pool: Vec<&OnlineTask> = Vec::new();
            for (k, task) in trace.tasks.iter().enumerate() {
                let now = task.arrival;
                let items = pool
                    .iter()
                    .map(|p| ResidualItem {
                        id: p.id,
                        deadline: p.deadline,
                        accuracy: p.accuracy.clone(),
                    })
                    .collect();
                pool.push(task);
                let Some(res) = residual_instance(items, now, &trace.park, trace.budget)
                    .expect("valid residual")
                else {
                    continue;
                };
                let (approx, evaluator) = rp.solve_keeping(&res.instance, None);
                let caps = approx.fractional.profile;
                rp.anchor_solved(evaluator, &caps);
                let fresh = NaiveSolver::new(&res.instance);
                let mut ws = fresh.workspace();
                let mut chk = ValueCheckpoint::new();
                fresh.checkpoint_into(&mut ws, &caps, &mut chk);
                for cand in trace.tasks[k..].iter().take(4) {
                    let extra = Task::new(cand.deadline - now, cand.accuracy.clone());
                    let retained = rp
                        .insert_value_bound(&extra, |_| true)
                        .expect("anchored delta");
                    let rebuilt = fresh
                        .value_insert_delta(&mut ws, &chk, &extra)
                        .expect("anchored delta");
                    assert_eq!(
                        retained.to_bits(),
                        rebuilt.to_bits(),
                        "load {load} seed {seed} arrival {k} candidate {}",
                        cand.id
                    );
                    compared += 1;
                }
            }
        }
    }
    assert!(compared > 2000, "{compared} bounds compared");
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

fn small_instance() -> Instance {
    let acc = |theta: f64| {
        PwlAccuracy::new(&[(0.0, 0.1), (theta, 0.6), (2.0 * theta, 0.9)]).expect("valid pwl")
    };
    let park = MachinePark::new(vec![
        Machine::new(1.5, 2.0).expect("valid machine"),
        Machine::new(1.0, 1.0).expect("valid machine"),
    ]);
    Instance::new(
        vec![
            Task::new(1.0, acc(0.4)),
            Task::new(1.6, acc(0.7)),
            Task::new(2.2, acc(1.1)),
        ],
        park,
        4.0,
    )
    .expect("valid instance")
}

#[test]
fn invalid_deltas_fall_back_to_the_full_solve_bit_exactly() {
    let inst = small_instance();
    let mut inc = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental);
    let mut cold = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold);

    // A wrong-shape anchor self-clears instead of poisoning deltas …
    let (_, evaluator) = inc.solve_keeping(&inst, None);
    inc.anchor_solved(evaluator, &[1.0; 3]);
    assert!(
        !inc.has_anchor(),
        "a 3-cap anchor over 2 machines must clear"
    );
    // … so the bound declines, and is counted as a fallback.
    assert!(
        inc.insert_value_bound(&Task::new(0.5, inst.task(0).accuracy.clone()), |_| true)
            .is_none(),
        "no anchor, no delta"
    );
    assert_eq!(
        (inc.stats().delta_bounds, inc.stats().fallbacks),
        (0, 1),
        "a declined bound must be counted as a fallback"
    );

    // The fallback full solve is bit-identical to the cold pipeline.
    let a = inc.solve(&inst, None);
    let b = cold.solve(&inst, None);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "incremental fallback drifted from the cold solve"
    );
}
