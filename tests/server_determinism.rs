//! The sharded-server determinism contract, as CI runs it: server
//! replays must produce byte-identical report digests across worker
//! counts {1, 2, 8, 0 = all cores}, for every seed under test — including under
//! shard-kill chaos, where a whole cell dies and its pending pool
//! drains into the survivors. The `determinism` CI job runs this binary
//! twice — `--test-threads=1` and the harness default — so harness
//! threading is covered by the job matrix, not by code here.
//!
//! The runs double as oracle coverage: tests build in debug, so each
//! cell's solver has `SolverOptions::check_invariants` on by default and
//! every per-shard residual solution is verified by the solution oracle
//! before it is adopted.
//!
//! The property test at the bottom feeds NaN and infinite deadlines,
//! arrivals, and tenants through the submission path — the floats flow
//! into the EDF ready-queue and event sorts, which must reject them at
//! the door (typed errors) rather than panic or go non-deterministic.

use dsct_ea::chaos::ShardKillPlan;
use dsct_ea::online::{AdmissionPolicy, Decision, OnlineError, ReplayConfig};
use dsct_ea::server::{replay_sharded, ScheduleServer, ServerConfig};
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, ArrivalTrace, MachineConfig, OnlineTask, TaskConfig,
    ThetaDistribution,
};
use proptest::prelude::*;

/// Worker counts of the final fan-out; `0` resolves to all cores. The
/// first entry is the serial reference every other one is compared to.
const WORKER_COUNTS: [usize; 4] = [1, 2, 8, 0];
const SEEDS: [u64; 3] = [11, 22, 33];

fn trace(seed: u64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        tasks: TaskConfig::paper(32, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(8),
        load: 1.0,
        deadline_slack: 2.0,
        beta: 0.5,
    };
    generate_arrivals(&cfg, seed)
        .expect("validated config")
        .with_tenants(16, seed)
}

fn server_config(workers: usize) -> ServerConfig {
    ServerConfig {
        replay: ReplayConfig {
            shards: 4,
            workers,
            ..ReplayConfig::default()
        },
        ..ServerConfig::default()
    }
}

fn empty_plan() -> ShardKillPlan {
    ShardKillPlan {
        chaos_seed: 0,
        events: Vec::new(),
    }
}

#[test]
fn server_reports_are_byte_identical_across_worker_counts() {
    for seed in SEEDS {
        let t = trace(seed);
        let digests: Vec<String> = WORKER_COUNTS
            .iter()
            .map(|&w| {
                replay_sharded(&t, &server_config(w), &empty_plan())
                    .expect("valid replay")
                    .digest()
            })
            .collect();
        for (w, digest) in WORKER_COUNTS.iter().zip(&digests).skip(1) {
            assert_eq!(
                &digests[0], digest,
                "seed {seed}: workers 1 vs {w} diverged"
            );
        }
    }
}

/// Gated cells digest identically across worker counts too: under
/// `DegradeToFit` every arrival is a warm adoption solve, certified on
/// its own evaluator or settled by a re-plan of the pool, and nothing a
/// digest covers may depend on which worker finished the cell.
#[test]
fn gated_shards_digest_identically_across_worker_counts() {
    let gated_config = |workers: usize| {
        let mut cfg = server_config(workers);
        cfg.replay.online.policy = AdmissionPolicy::DegradeToFit;
        cfg
    };
    for seed in SEEDS {
        // A fifth of the budget, so the gate has arrivals to turn away.
        let mut t = trace(seed);
        t.budget *= 0.2;
        let reports: Vec<_> = WORKER_COUNTS
            .iter()
            .map(|&w| replay_sharded(&t, &gated_config(w), &empty_plan()).expect("valid replay"))
            .collect();
        assert!(
            reports[0]
                .decisions
                .iter()
                .any(|d| d.2 == Decision::Rejected),
            "seed {seed}: the gate rejected nothing"
        );
        let digest = reports[0].digest();
        for (w, report) in WORKER_COUNTS.iter().zip(&reports).skip(1) {
            assert_eq!(
                digest,
                report.digest(),
                "seed {seed}: gated workers 1 vs {w} diverged"
            );
        }
    }
}

#[test]
fn shard_kill_drains_are_deterministic_across_worker_counts() {
    for seed in SEEDS {
        let t = trace(seed);
        let plan = ShardKillPlan::generate(seed, t.horizon(), 4, 2);
        assert_eq!(plan.events.len(), 2, "seed {seed}: plan generated 2 kills");
        let reports: Vec<_> = WORKER_COUNTS
            .iter()
            .map(|&w| replay_sharded(&t, &server_config(w), &plan).expect("valid replay"))
            .collect();
        let digest = reports[0].digest();
        for (w, report) in WORKER_COUNTS.iter().zip(&reports).skip(1) {
            assert_eq!(
                digest,
                report.digest(),
                "seed {seed}: kill replay diverged between 1 and {w} workers"
            );
        }

        let report = &reports[0];
        assert_eq!(report.summary.kills, 2, "seed {seed}");
        let killed: Vec<usize> = plan.events.iter().map(|e| e.shard).collect();
        for d in &report.drains {
            assert!(
                killed.contains(&d.from),
                "seed {seed}: drain from a live shard"
            );
            let to = d.to.expect("survivors exist, so every drain lands");
            assert!(
                !killed.contains(&to),
                "seed {seed}: drain into a dead shard"
            );
            assert!(
                d.decision.is_some(),
                "seed {seed}: drain without a decision"
            );
        }
        // A killed cell must never dispatch after its kill instant.
        for e in &plan.events {
            let summary = &report.shard_summaries[e.shard];
            assert!(
                summary.makespan <= e.at + 1e-9 || summary.dispatched == 0,
                "seed {seed}: shard {} completed work at {} after dying at {}",
                e.shard,
                summary.makespan,
                e.at
            );
        }
    }
}

#[test]
fn every_arrival_is_accounted_for_exactly_once() {
    for seed in SEEDS {
        let t = trace(seed);
        let plan = ShardKillPlan::generate(seed ^ 0xABCD, t.horizon(), 4, 1);
        let report = replay_sharded(&t, &server_config(2), &plan).expect("valid replay");
        assert_eq!(report.decisions.len(), t.tasks.len(), "seed {seed}");
        // Each task id appears in at most one shard's outcome list, and
        // every submitted task shows up somewhere (served or recorded as
        // unserved) — drains move tasks, they never duplicate them.
        let mut seen = std::collections::BTreeSet::new();
        for shard in &report.shard_tasks {
            for (id, _) in shard {
                assert!(seen.insert(*id), "seed {seed}: task {id} in two shards");
            }
        }
        for task in &t.tasks {
            assert!(
                seen.contains(&task.id),
                "seed {seed}: task {} vanished",
                task.id
            );
        }
    }
}

/// Adversarial floats aimed at the sort sites: non-finite arrivals and
/// deadlines must come back as typed errors without panicking any EDF
/// ready-queue or event sort, and the server must stay fully usable
/// afterwards.
fn adversarial() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::MAX),
        Just(-0.0),
        0.0f64..10.0,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn hostile_floats_yield_typed_errors_not_panics(
        arrival in adversarial(),
        deadline in adversarial(),
        tenant in prop_oneof![Just(0u64), Just(u64::MAX), 0u64..64],
        seed in 0u64..64,
    ) {
        let t = trace(seed % 3);
        let mut server = ScheduleServer::new(&t.park, t.budget, server_config(2))
            .expect("valid park and budget");
        let probe = OnlineTask {
            id: 1_000_000,
            tenant,
            arrival,
            deadline,
            accuracy: t.tasks[0].accuracy.clone(),
        };
        match server.submit(&probe) {
            Ok(_) => {
                prop_assert!(arrival.is_finite() && deadline.is_finite(),
                    "non-finite input was admitted");
            }
            Err(OnlineError::InvalidTask { field, .. }) => {
                prop_assert!(field == "arrival" || field == "deadline");
            }
            Err(OnlineError::NonMonotoneClock { .. }) => {
                // f64::MAX deadlines are fine but a later finite arrival
                // can then be behind the clock — also a typed error.
            }
            Err(e) => prop_assert!(false, "unexpected error kind: {e}"),
        }
        // Whatever happened, the server still serves a clean stream.
        let late = server.now().max(0.0) + 1.0;
        for (i, task) in t.tasks.iter().take(4).enumerate() {
            let mut task = task.clone();
            task.arrival = late + i as f64;
            task.deadline = task.arrival + 5.0;
            server.submit(&task).expect("clean tasks keep flowing");
        }
        let report = server.finish();
        prop_assert!(report.summary.total_accuracy.is_finite());
    }
}

#[test]
fn degenerate_server_shapes_are_typed_errors() {
    let t = trace(1);
    let mut cfg = server_config(1);
    cfg.replay.shards = 0;
    assert!(matches!(
        ScheduleServer::new(&t.park, t.budget, cfg),
        Err(OnlineError::EmptyPark)
    ));
    // More shards than machines: some cell would own no machines.
    let mut cfg = server_config(1);
    cfg.replay.shards = t.park.len() + 1;
    assert!(matches!(
        ScheduleServer::new(&t.park, t.budget, cfg),
        Err(OnlineError::EmptyPark)
    ));
    assert!(matches!(
        ScheduleServer::new(&t.park, f64::NAN, server_config(1)),
        Err(OnlineError::InvalidBudget(_))
    ));
}
