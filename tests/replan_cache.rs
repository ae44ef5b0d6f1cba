//! The incremental replanner's contract, end to end:
//!
//! 1. **Byte-identity vs cold** — replaying any trace under
//!    [`ReplanStrategy::Incremental`] produces decisions, summary, and
//!    energy ledger byte-identical to [`ReplanStrategy::Cold`], over 24
//!    seeds × 3 load factors and both gated admission policies. The
//!    incremental arm may answer gated evaluations from its fingerprint
//!    caches, checkpoint deltas, or same-state probe memo — whichever
//!    path answers, the adopted plans replay the cold pipeline bit for
//!    bit.
//! 2. **Eviction under a tiny capacity** — a cache bound of one entry
//!    forces constant eviction; the replay stays byte-identical (the
//!    cache only ever short-circuits work, never changes results).
//! 3. **Invalid-delta fallback** — when the cheap paths decline (a
//!    missing/mismatched anchor, a wrong-shape warm hint), the replanner
//!    falls back to the full solve bit-exactly.
//! 4. **Same-state probe memo** — repeated gated probes against a
//!    standing pool are answered from the memo under `Incremental` (and
//!    only there), with the decisions and final summary of `Cold`.
//! 5. **Fingerprint structure** (proptest) — structurally equal pools
//!    key equal; perturbing any single field (budget, a machine's speed
//!    or power, a task's deadline, breakpoint, or value, a warm cap)
//!    changes the key.

use dsct_ea::accuracy::PwlAccuracy;
use dsct_ea::core::problem::{Instance, Task};
use dsct_ea::core::profile::EnergyProfile;
use dsct_ea::core::replan::{fingerprint, Replanner};
use dsct_ea::core::solver::ApproxSolver;
use dsct_ea::machines::{Machine, MachinePark};
use dsct_ea::online::{
    replay, AdmissionPolicy, Decision, OnlineConfig, OnlineService, ReplanStrategy, ReplayConfig,
};
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, MachineConfig, OnlineTask, TaskConfig, ThetaDistribution,
};
use proptest::prelude::*;

fn arrival_config(n: usize, load: f64) -> ArrivalConfig {
    ArrivalConfig {
        tasks: TaskConfig::paper(n, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(3),
        load,
        deadline_slack: 2.0,
        beta: 0.5,
    }
}

fn replay_config(policy: AdmissionPolicy, replan: ReplanStrategy, cache: usize) -> ReplayConfig {
    ReplayConfig {
        online: OnlineConfig {
            policy,
            replan,
            replan_cache: cache,
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
    let mut cached_paths = 0u64;
    for (t, &load) in [0.3, 1.0, 2.5].iter().enumerate() {
        for seed in 0..24u64 {
            let trace = generate_arrivals(&arrival_config(18, load), 7000 * t as u64 + seed)
                .expect("valid config");
            let policy = policies[(seed % 2) as usize];
            let cold = replay(&trace, &replay_config(policy, ReplanStrategy::Cold, 32))
                .expect("zero jitter is valid");
            let inc = replay(
                &trace,
                &replay_config(policy, ReplanStrategy::Incremental, 32),
            )
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
            cached_paths += inc.replan.cache_hits
                + inc.replan.estimates
                + inc.replan.delta_bounds
                + inc.replan.memo_hits;
        }
    }
    // The sweep must actually exercise the cheap paths, not pass
    // vacuously with every request falling back to the full solve.
    assert!(
        cached_paths > 0,
        "no incremental replay ever used a cached/delta path"
    );
}

#[test]
fn a_one_entry_cache_evicts_constantly_and_stays_byte_identical() {
    let trace = generate_arrivals(&arrival_config(24, 1.2), 4711).expect("valid config");
    let cold = replay(
        &trace,
        &replay_config(AdmissionPolicy::DegradeToFit, ReplanStrategy::Cold, 32),
    )
    .expect("zero jitter is valid");
    let tiny = replay(
        &trace,
        &replay_config(
            AdmissionPolicy::DegradeToFit,
            ReplanStrategy::Incremental,
            1,
        ),
    )
    .expect("zero jitter is valid");
    assert_eq!(cold.decisions, tiny.decisions, "decisions diverged");
    assert_eq!(
        format!("{:?}", cold.summary),
        format!("{:?}", tiny.summary),
        "summaries diverged"
    );
    assert_eq!(cold.ledger, tiny.ledger, "ledgers diverged");
    assert!(
        tiny.replan.evictions > 0,
        "a one-entry cache over {} misses must evict",
        tiny.replan.cache_misses
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
fn a_standing_pool_answers_repeated_probes_from_the_memo() {
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
        let memo_hits = svc.replan_stats().memo_hits;
        (decisions, memo_hits, format!("{:?}", svc.finish().summary))
    };

    let (cold, cold_memo, cold_summary) = run(ReplanStrategy::Cold);
    let (warm, warm_memo, _) = run(ReplanStrategy::WarmStart);
    let (inc, inc_memo, inc_summary) = run(ReplanStrategy::Incremental);
    assert!(
        cold.iter().all(|&d| d == Decision::Rejected),
        "a shallow zero-floor probe was admitted"
    );
    assert_eq!(cold, warm, "warm-start probe decisions diverged from cold");
    assert_eq!(cold, inc, "incremental probe decisions diverged from cold");
    assert!(inc_memo > 0, "the incremental arm never hit its probe memo");
    assert_eq!((cold_memo, warm_memo), (0, 0), "only Incremental memoizes");
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
    let mut inc = Replanner::new(ApproxSolver::new(), ReplanStrategy::Incremental, 4);
    let mut cold = Replanner::new(ApproxSolver::new(), ReplanStrategy::Cold, 4);

    // A wrong-shape anchor self-clears instead of poisoning deltas …
    inc.anchor(&inst, &[1.0; 3]);
    assert!(
        !inc.has_anchor(),
        "a 3-cap anchor over 2 machines must clear"
    );
    assert!(
        inc.insert_value_bound(&Task::new(0.5, inst.task(0).accuracy.clone()))
            .is_none(),
        "no anchor, no delta"
    );
    // … a missing warm hint declines the estimate …
    assert!(inc.estimate(&inst, None).is_none());
    // … and a wrong-length warm hint declines it too.
    let bad_warm = EnergyProfile::new(vec![0.5; 3]);
    assert!(inc.estimate(&inst, Some(&bad_warm)).is_none());
    assert!(
        inc.stats().fallbacks >= 2,
        "declined cheap paths must be counted as fallbacks"
    );

    // The fallback full solve is bit-identical to the cold pipeline.
    let a = inc.solve(&inst, None);
    let b = cold.solve(&inst, None);
    assert_eq!(
        format!("{a:?}"),
        format!("{b:?}"),
        "incremental fallback drifted from the cold solve"
    );
    // And a repeat of the same residual state replays from the cache,
    // again bit-identically.
    let c = inc.solve(&inst, None);
    assert_eq!(format!("{a:?}"), format!("{c:?}"));
    assert_eq!(inc.stats().cache_hits, 1);
}

/// Parameters that fully determine a small instance + warm hint.
#[derive(Debug, Clone)]
struct PoolParams {
    budget: f64,
    machines: Vec<(f64, f64)>,
    tasks: Vec<(f64, f64, f64)>,
    warm: Vec<f64>,
}

fn build(p: &PoolParams) -> (Instance, EnergyProfile) {
    let park = MachinePark::new(
        p.machines
            .iter()
            .map(|&(s, w)| Machine::new(s, w).expect("valid machine"))
            .collect(),
    );
    // `Instance::new` insists on EDF order; the stable sort keeps two
    // builds of the same params byte-identical.
    let mut sorted = p.tasks.clone();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let tasks = sorted
        .iter()
        .map(|&(d, f1, a1)| {
            Task::new(
                d,
                PwlAccuracy::new(&[(0.0, 0.0), (f1, a1)]).expect("valid pwl"),
            )
        })
        .collect();
    let inst = Instance::new(tasks, park, p.budget).expect("valid instance");
    (inst, EnergyProfile::new(p.warm.clone()))
}

fn pool_params() -> impl Strategy<Value = PoolParams> {
    (
        0.5f64..20.0,
        proptest::collection::vec((0.5f64..2.0, 0.5f64..2.0), 1..4),
        proptest::collection::vec((0.2f64..5.0, 0.1f64..3.0, 0.1f64..1.0), 1..5),
        // Oversample the warm hint at the max machine count and trim to
        // fit below — the machine count isn't known until sampling time.
        proptest::collection::vec(0.0f64..2.0, 3..4),
    )
        .prop_map(|(budget, machines, tasks, mut warm)| {
            warm.truncate(machines.len());
            PoolParams {
                budget,
                machines,
                tasks,
                warm,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn structurally_equal_pools_fingerprint_equal(p in pool_params()) {
        let (a, warm_a) = build(&p);
        let (b, warm_b) = build(&p);
        prop_assert_eq!(fingerprint(&a, None), fingerprint(&b, None));
        prop_assert_eq!(
            fingerprint(&a, Some(&warm_a)),
            fingerprint(&b, Some(&warm_b))
        );
        // The warm hint is part of the key.
        prop_assert_ne!(fingerprint(&a, None), fingerprint(&a, Some(&warm_a)));
    }

    #[test]
    fn any_single_field_perturbation_changes_the_key(
        p in pool_params(),
        which in 0usize..7,
        seed in 0usize..8,
    ) {
        let (base, warm) = build(&p);
        let key = fingerprint(&base, Some(&warm));
        let mut q = p.clone();
        let bump = |v: f64| v + 1e-9 + v.abs() * 1e-9;
        let mi = seed % q.machines.len();
        let ti = seed % q.tasks.len();
        match which {
            0 => q.budget = bump(q.budget),
            1 => q.machines[mi].0 = bump(q.machines[mi].0),
            2 => q.machines[mi].1 = bump(q.machines[mi].1),
            3 => q.tasks[ti].0 = bump(q.tasks[ti].0),
            4 => q.tasks[ti].1 = bump(q.tasks[ti].1),
            5 => q.tasks[ti].2 = bump(q.tasks[ti].2),
            _ => q.warm[mi] = bump(q.warm[mi]),
        }
        let (pert, pert_warm) = build(&q);
        prop_assert!(
            key != fingerprint(&pert, Some(&pert_warm)),
            "perturbation {} at machine {} / task {} did not change the key",
            which, mi, ti
        );
    }
}
