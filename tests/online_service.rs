//! Cross-crate contracts of the online arrival-driven service
//! (`dsct-online`):
//!
//! 1. **Regret** — with zero runtime jitter, the realized total accuracy
//!    of any online replay never exceeds the FR-OPT optimum of the
//!    trace's clairvoyant instance (all tasks known at `t = 0` with
//!    their absolute deadlines). The online schedule is feasible for
//!    that instance — per machine, committed dispatches run
//!    back-to-back before their absolute deadlines — and FR-OPT
//!    relaxes release times, so the bound is structural.
//! 2. **Determinism** — replaying the same trace yields byte-identical
//!    summaries run-over-run and regardless of the solver-parallelism
//!    knob.
//! 3. **Degenerate arrivals** — a trace with every task arriving at
//!    `t = 0` reproduces the offline `ApproxSolver` solution
//!    bit-exactly (work, assignment, accuracy, energy).

use dsct_chaos::ShardChaosPlan;
use dsct_core::solver::{ApproxSolver, FrOptSolver, SolverContext};
use dsct_exec::{EventKind, OverrunPolicy};
use dsct_gateway::{replay_gateway, GatewayConfig, QuotaConfig, RebalanceConfig};
use dsct_online::{
    replay, AdmissionPolicy, Decision, Disruption, OnlineConfig, OnlineService, ReplayConfig,
};
use dsct_server::ServerConfig;
use dsct_workload::{
    generate, generate_arrivals, ArrivalConfig, ArrivalTrace, InstanceConfig, MachineConfig,
    TaskConfig, ThetaDistribution,
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

#[test]
fn online_accuracy_never_beats_the_clairvoyant_fr_opt_bound() {
    let mut ctx = SolverContext::new();
    let policies = [
        AdmissionPolicy::AdmitAll,
        AdmissionPolicy::RejectIfInfeasible,
        AdmissionPolicy::DegradeToFit,
    ];
    for (t, &load) in [0.3, 1.0, 2.5].iter().enumerate() {
        for seed in 0..24u64 {
            let trace = generate_arrivals(&arrival_config(24, load), 1000 * t as u64 + seed)
                .expect("valid config");
            let bound = FrOptSolver::new()
                .solve_typed_with(&trace.clairvoyant_instance(), &mut ctx)
                .total_accuracy;
            // Cycle policies across seeds so every policy sees several
            // traces per load factor.
            let cfg = OnlineConfig {
                policy: policies[(seed % 3) as usize],
                ..OnlineConfig::default()
            };
            let rcfg = ReplayConfig {
                online: cfg,
                ..ReplayConfig::default()
            };
            let report = replay(&trace, &rcfg).expect("zero jitter is valid");
            assert!(
                report.summary.total_accuracy <= bound + 1e-6,
                "load {load} seed {seed} {:?}: online {} > clairvoyant bound {}",
                cfg.policy,
                report.summary.total_accuracy,
                bound
            );
            assert!(
                report.summary.spent_energy <= trace.budget + 1e-6,
                "load {load} seed {seed}: spent {} over budget {}",
                report.summary.spent_energy,
                trace.budget
            );
        }
    }
}

#[test]
fn replays_are_byte_identical_across_runs() {
    for load in [0.5, 1.5] {
        let trace = generate_arrivals(&arrival_config(40, load), 99).expect("valid config");
        let render = || {
            let cfg = ReplayConfig {
                online: OnlineConfig {
                    policy: AdmissionPolicy::DegradeToFit,
                    ..OnlineConfig::default()
                },
                ..ReplayConfig::default()
            };
            let report = replay(&trace, &cfg).expect("zero jitter is valid");
            format!("{:?}|{:?}", report.summary, report.decisions)
        };
        assert_eq!(
            render(),
            render(),
            "load {load}: summaries must be byte-identical across repeated runs"
        );
    }
}

#[test]
fn degenerate_all_at_zero_trace_reproduces_offline_approx_bit_exactly() {
    for seed in [7u64, 21, 84] {
        let icfg = InstanceConfig {
            tasks: TaskConfig::paper(30, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
            machines: MachineConfig::paper_random(3),
            rho: 0.25,
            beta: 0.5,
        };
        let inst = generate(&icfg, seed);
        let offline = ApproxSolver::new().solve_typed(&inst);
        let trace = ArrivalTrace::degenerate(&inst);
        let report = replay(&trace, &ReplayConfig::default()).expect("zero jitter is valid");

        assert_eq!(
            report.summary.solves, 1,
            "seed {seed}: a same-timestamp batch must cost exactly one solve"
        );
        assert_eq!(
            report.summary.total_accuracy, offline.total_accuracy,
            "seed {seed}: realized accuracy must equal the offline \
             ApproxSolver objective bit-exactly"
        );
        // Per-task: same machine, same work, same accuracy — bit for bit.
        for j in 0..inst.num_tasks() {
            let outcome = &report.trace.tasks[j];
            assert_eq!(
                outcome.machine, offline.assignment[j],
                "seed {seed} task {j}: assignment differs"
            );
            assert_eq!(
                outcome.work,
                offline.schedule.flops(j, &inst),
                "seed {seed} task {j}: work differs"
            );
            assert_eq!(
                outcome.accuracy,
                offline.schedule.accuracy(j, &inst),
                "seed {seed} task {j}: accuracy differs"
            );
        }
        // Realized energy equals the integral schedule's planned energy
        // (zero jitter ⇒ actual = planned) and stays within budget.
        let planned_energy = offline.schedule.energy(&inst);
        assert!(
            (report.summary.spent_energy - planned_energy).abs() < 1e-9,
            "seed {seed}: spent {} != planned {}",
            report.summary.spent_energy,
            planned_energy
        );
    }
}

#[test]
fn jitter_feeds_back_into_the_ledger() {
    let trace = generate_arrivals(&arrival_config(30, 1.0), 31337).expect("valid config");
    let run = |jitter: f64| {
        let cfg = ReplayConfig {
            online: OnlineConfig {
                speed_jitter: jitter,
                jitter_seed: 7,
                ..OnlineConfig::default()
            },
            ..ReplayConfig::default()
        };
        replay(&trace, &cfg).expect("valid jitter")
    };
    let calm = run(0.0);
    // Zero jitter: planned committed energy settles to exactly what is
    // spent, and nothing stays committed at the end.
    assert!((calm.ledger.spent() - calm.summary.committed_energy).abs() < 1e-9);
    assert_eq!(calm.ledger.committed(), 0.0);

    let noisy = run(0.3);
    // Under jitter, actuals deviate from plans — the ledger must have
    // recorded a real difference between committed and settled energy.
    assert!(
        (noisy.ledger.spent() - noisy.summary.committed_energy).abs() > 1e-9,
        "30% jitter should make actual energy differ from planned"
    );
    // And the run is still reproducible.
    let again = run(0.3);
    assert_eq!(
        format!("{:?}", noisy.summary),
        format!("{:?}", again.summary)
    );
}

/// Recorded when the re-plan path became one: every re-solve
/// warm-started from the incumbent, every gated arrival certified against
/// its own adoption solve (`cargo test --test online_service
/// pool_replay_digest_is_pinned`, debug and release agree). The
/// `AdmitAll` arms fold as they did before; the `DegradeToFit` arms
/// moved on purpose. A change to how a cell stores, orders or reads its
/// pool that is meant to keep every decision must leave it untouched.
const POOL_REPLAY_PIN: u64 = 0x748e_92a2_ad42_57a7;

fn fold_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        let mut z = (h ^ u64::from_le_bytes(word)).wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h = z ^ (z >> 31);
    }
    fold_len(h, bytes.len())
}

fn fold_len(h: u64, len: usize) -> u64 {
    (h ^ len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// A 48-task trace on four machines at load 1.5 and a lean budget, with
/// arrivals snapped down onto eight ticks and deadlines snapped up onto
/// a grid of half a tick: a tick's arrivals share their arrival time,
/// and many of them share their absolute deadline.
fn tick_snapped_trace(seed: u64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        tasks: TaskConfig::paper(48, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(4),
        load: 1.5,
        deadline_slack: 2.0,
        beta: 0.3,
    };
    let mut trace = generate_arrivals(&cfg, seed)
        .expect("valid config")
        .with_tenants(6, seed);
    let last = trace.tasks.last().map_or(0.0, |t| t.arrival);
    let step = last * (1.0 + 1e-9) / 8.0;
    for task in &mut trace.tasks {
        task.arrival = (task.arrival / step).floor() * step;
        task.deadline = (task.deadline / (0.5 * step)).ceil() * (0.5 * step);
        // Half the tasks to one tenant, so the rebalancer has a hot
        // shard to relieve.
        if task.id % 2 == 0 {
            task.tenant = 1;
        }
    }
    trace
}

/// One cell replaying `trace`; with `disrupt`, machine 0 fails at a
/// quarter of the arrival window, machine 1 slows to half speed at two
/// fifths and machine 2 fails at three fifths, so tasks in flight are cut
/// and re-enter the pool as remnants. Returns the replay's digest and
/// `(remnants re-dispatched, rejections, failure cuts, overruns)`; an
/// overrun is a dispatch the jitter compressed or dropped.
fn single_cell_digest(
    trace: &ArrivalTrace,
    cfg: OnlineConfig,
    disrupt: bool,
) -> (String, usize, usize, usize, usize) {
    let last = trace.tasks.last().map_or(0.0, |t| t.arrival);
    let mut events: Vec<(f64, Disruption)> = if disrupt {
        vec![
            (0.25 * last, Disruption::MachineFailure { machine: 0 }),
            (
                0.4 * last,
                Disruption::SpeedDegradation {
                    machine: 1,
                    factor: 0.5,
                },
            ),
            (0.6 * last, Disruption::MachineFailure { machine: 2 }),
        ]
    } else {
        Vec::new()
    };
    events.reverse();
    let mut svc = OnlineService::new(trace.park.clone(), trace.budget, cfg).expect("valid");
    for task in &trace.tasks {
        while events.last().is_some_and(|&(at, _)| at <= task.arrival) {
            let (at, d) = events.pop().expect("checked");
            svc.inject(at, &d).expect("valid disruption");
        }
        svc.try_submit(task).expect("valid task");
    }
    let report = svc.finish();
    let mut dispatches = std::collections::BTreeMap::<usize, usize>::new();
    for e in &report.trace.events {
        if e.kind == EventKind::Dispatch {
            *dispatches.entry(e.task).or_default() += 1;
        }
    }
    let remnants = dispatches.values().filter(|&&c| c > 1).count();
    let overruns = report
        .trace
        .events
        .iter()
        .filter(|e| {
            e.machine != usize::MAX && matches!(e.kind, EventKind::Compressed | EventKind::Dropped)
        })
        .count();
    let digest = serde_json::to_string(&(
        &report.summary,
        &report.decisions,
        &report.trace,
        &report.task_ids,
    ))
    .expect("report serializes");
    (
        digest,
        remnants,
        report.summary.rejected,
        report.summary.failures,
        overruns,
    )
}

/// The decisions of single-cell and sharded replays, folded into one
/// `u64` and compared with the recorded value: `{AdmitAll, DegradeToFit}`
/// on the one re-plan path, each replayed undisturbed on one cell, on one
/// cell with machine failures and a degradation, and through the gateway
/// with a shard kill, its recovery and tenant rebalancing, on
/// tick-snapped arrivals whose deadlines tie.
#[test]
fn pool_replay_digest_is_pinned() {
    let trace = tick_snapped_trace(4321);
    let mut h = 0u64;
    let (mut remnants, mut rejections, mut drains, mut moves) = (0, 0, 0, 0);
    for policy in [AdmissionPolicy::AdmitAll, AdmissionPolicy::DegradeToFit] {
        let online = OnlineConfig {
            policy,
            ..OnlineConfig::default()
        };
        for disrupt in [false, true] {
            let (digest, r, rej, _, _) = single_cell_digest(&trace, online, disrupt);
            h = fold_bytes(h, digest.as_bytes());
            remnants += r;
            rejections += rej;
        }
        let cfg = GatewayConfig {
            server: ServerConfig {
                replay: ReplayConfig {
                    online,
                    shards: 3,
                    workers: 1,
                },
                ..ServerConfig::default()
            },
            queue_capacity: 8,
            quota: QuotaConfig {
                enabled: false,
                ..QuotaConfig::default()
            },
            rebalance: RebalanceConfig {
                enabled: true,
                enter_ratio: 1.5,
                exit_ratio: 1.0,
                min_pending: 2,
                max_moves_per_flush: 2,
            },
        };
        let plan = ShardChaosPlan::kill_recover(4321, trace.horizon(), 3, 1, 0.2 * trace.horizon());
        let report = replay_gateway(&trace, &cfg, &plan, 1).expect("gateway replay");
        h = fold_bytes(h, report.digest().as_bytes());
        drains += report.core.server.drains.len();
        moves += report.core.server.moves.len();
        rejections += report
            .core
            .server
            .decisions
            .iter()
            .filter(|d| d.2 == Decision::Rejected)
            .count();
    }

    assert!(remnants > 0, "no failure remnant was re-dispatched");
    assert!(rejections > 0, "no arrival was rejected");
    assert!(drains > 0, "no kill drained a pool");
    assert!(moves > 0, "the rebalancer moved nothing");
    assert_eq!(h, POOL_REPLAY_PIN, "pool replay digest moved: {h:#018x}");
}

/// Recorded before in-flight dispatches moved into per-machine lanes and
/// outcomes into an append-only list: every earlier pin runs at zero
/// jitter, so none of them has a jittered overrun meet a failure cut.
const JITTERED_REPLAY_PIN: u64 = 0x3120_c484_d8db_44a6;

/// Single-cell replays at `speed_jitter = 0.3` under both overrun
/// policies and both admission policies, each with two machine failures
/// and a degradation mid-trace, folded into one `u64`: jittered runs are
/// compressed or dropped, cut by the failures, and (under `Compress`)
/// re-dispatched as remnants.
#[test]
fn jittered_failure_replay_digest_is_pinned() {
    let trace = tick_snapped_trace(4321);
    let mut h = 0u64;
    let (mut remnants, mut failures, mut overruns) = (0, 0, 0);
    for overrun in [OverrunPolicy::Compress, OverrunPolicy::Drop] {
        for policy in [AdmissionPolicy::AdmitAll, AdmissionPolicy::DegradeToFit] {
            let cfg = OnlineConfig {
                policy,
                speed_jitter: 0.3,
                jitter_seed: 4321,
                overrun,
                ..OnlineConfig::default()
            };
            let (digest, r, _, f, o) = single_cell_digest(&trace, cfg, true);
            h = fold_bytes(h, digest.as_bytes());
            remnants += r;
            failures += f;
            overruns += o;
        }
    }
    assert!(remnants > 0, "no failure remnant was re-dispatched");
    assert!(failures > 0, "no failure cut a dispatch");
    assert!(overruns > 0, "no jittered dispatch overran");
    assert_eq!(
        h, JITTERED_REPLAY_PIN,
        "jittered replay digest moved: {h:#018x}"
    );
}
