//! The gateway determinism contract, as CI runs it: gateway replays
//! must produce byte-identical report digests across producer counts
//! {1, 4} × worker counts {1, 2, 8}, for every seed under test — with
//! and without a kill→recover chaos scenario — and the quota/rebalance
//! subsystems must surface as typed, digest-stable records rather than
//! counters. The `determinism` CI job runs this binary twice
//! (`--test-threads=1` and the harness default), so harness threading
//! is covered by the job matrix.
//!
//! Tests build in debug, so each cell's solver has
//! `SolverOptions::check_invariants` on by default and every per-shard
//! residual solution passes the solution oracle on the way through.

use dsct_ea::chaos::ShardChaosPlan;
use dsct_ea::gateway::{
    replay_gateway, Gateway, GatewayConfig, GatewayError, QuotaConfig, RebalanceConfig,
    RETRY_ID_BASE,
};
use dsct_ea::online::ReplayConfig;
use dsct_ea::server::ServerConfig;
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, ArrivalTrace, MachineConfig, TaskConfig, ThetaDistribution,
};

const PRODUCER_COUNTS: [usize; 2] = [1, 4];
const WORKER_COUNTS: [usize; 3] = [1, 2, 8];
const SEEDS: [u64; 3] = [11, 22, 33];
const SHARDS: usize = 4;

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

/// A trace with deliberate tenant skew: half the tasks belong to one
/// tenant, so one shard's pending pool runs hot and the rebalancer has
/// real work to do.
fn skewed_trace(seed: u64) -> ArrivalTrace {
    let mut trace = trace(seed);
    for task in trace.tasks.iter_mut().filter(|t| t.id % 2 == 0) {
        task.tenant = 1;
    }
    trace
}

fn gateway_config(workers: usize) -> GatewayConfig {
    GatewayConfig {
        server: ServerConfig {
            replay: ReplayConfig {
                shards: SHARDS,
                workers,
                ..ReplayConfig::default()
            },
            ..ServerConfig::default()
        },
        // The paper traces are dense: all arrivals land within ~0.01
        // time-units and per-task f_max runs ~2.5–35 GFLOP. A burst of
        // 40 admits a tenant's first task or two; a 5000 GFLOP/s refill
        // lets a handful of flush-boundary retries pass later.
        queue_capacity: 8,
        quota: QuotaConfig {
            enabled: true,
            rate: 5000.0,
            burst: 40.0,
            retry: true,
        },
        rebalance: RebalanceConfig {
            enabled: true,
            enter_ratio: 1.5,
            exit_ratio: 1.0,
            min_pending: 3,
            max_moves_per_flush: 2,
        },
    }
}

fn kill_recover_plan(seed: u64, trace: &ArrivalTrace) -> ShardChaosPlan {
    ShardChaosPlan::kill_recover(seed, trace.horizon(), SHARDS, 1, trace.horizon() * 0.2)
}

/// The headline matrix: digests byte-identical across producer and
/// worker counts, per seed, with and without kill→recover chaos.
#[test]
fn digest_identical_across_producers_and_workers() {
    for seed in SEEDS {
        let trace = trace(seed);
        for (label, plan) in [
            ("no chaos", ShardChaosPlan::none(seed)),
            ("kill->recover", kill_recover_plan(seed, &trace)),
        ] {
            let mut reference: Option<String> = None;
            for producers in PRODUCER_COUNTS {
                for workers in WORKER_COUNTS {
                    let report = replay_gateway(&trace, &gateway_config(workers), &plan, producers)
                        .expect("gateway replay");
                    let digest = report.digest();
                    match &reference {
                        None => reference = Some(digest),
                        Some(expected) => assert_eq!(
                            expected, &digest,
                            "seed {seed} [{label}]: digest diverged at \
                             producers={producers}, workers={workers}"
                        ),
                    }
                }
            }
        }
    }
}

/// Quota rejections and rebalance moves must appear as typed records in
/// the digest-stable core, not just counters — and stay byte-identical
/// across the matrix while doing so.
#[test]
fn quota_and_rebalance_records_are_typed_and_digest_stable() {
    let trace = skewed_trace(SEEDS[1]);
    let plan = ShardChaosPlan::none(SEEDS[1]);
    let reference = replay_gateway(&trace, &gateway_config(1), &plan, 1).expect("replay");
    assert!(
        !reference.core.rejections.is_empty(),
        "the skewed trace must trip the quota gate"
    );
    assert!(
        !reference.core.server.moves.is_empty(),
        "the skewed trace must trigger rebalance moves"
    );
    assert!(
        !reference.core.audits.is_empty(),
        "per-flush fairness audits must be on record"
    );
    // Typed content: rejections carry the over-quota tenant and the
    // token shortfall; moves carry tenant and both shards.
    for r in &reference.core.rejections {
        assert!(r.needed > r.available);
        assert!(r.needed.is_finite());
    }
    for m in &reference.core.server.moves {
        assert_ne!(m.from, m.to);
    }
    // The records are part of the digest: scrubbing them must change it.
    let digest = reference.digest();
    assert!(digest.contains("\"rejections\""));
    assert!(digest.contains("\"moves\""));
    assert!(digest.contains("\"audits\""));
    let mut scrubbed = reference.clone();
    scrubbed.core.rejections.clear();
    assert_ne!(digest, scrubbed.digest());
    // And stable across the full matrix.
    for producers in PRODUCER_COUNTS {
        for workers in WORKER_COUNTS {
            let report =
                replay_gateway(&trace, &gateway_config(workers), &plan, producers).expect("replay");
            assert_eq!(digest, report.digest());
        }
    }
}

/// Retries draw ids from the documented reserved range and admit on a
/// later flush once the bucket refills.
#[test]
fn quota_retries_use_the_reserved_id_range() {
    let trace = skewed_trace(SEEDS[0]);
    let plan = ShardChaosPlan::none(SEEDS[0]);
    let report = replay_gateway(&trace, &gateway_config(1), &plan, 1).expect("replay");
    let summary = report.core.summary;
    assert!(summary.retries_enqueued > 0, "skew must force retries");
    assert!(
        summary.retries_admitted > 0,
        "the refill rate must let some retries through"
    );
    assert_eq!(
        summary.retries_enqueued,
        report
            .core
            .rejections
            .iter()
            .filter(|r| r.retry_id.is_some())
            .count()
    );
    for r in &report.core.rejections {
        if let Some(id) = r.retry_id {
            assert!(id >= RETRY_ID_BASE, "retry id {id} below RETRY_ID_BASE");
        }
        assert!(r.task < RETRY_ID_BASE, "original ids stay out of the range");
    }
    assert_eq!(
        summary.retries_enqueued,
        summary.retries_admitted + summary.retries_dropped
    );
    // Admitted retries show up in the server's decision log under their
    // synthesized ids.
    let retry_decisions = report
        .core
        .server
        .decisions
        .iter()
        .filter(|(id, _, _)| *id >= RETRY_ID_BASE)
        .count();
    assert_eq!(retry_decisions, summary.retries_admitted);
}

/// The id-range guard: producer ids in a reserved synthesized range and
/// duplicate ids are typed errors, never silent double-accounting.
#[test]
fn reserved_and_duplicate_ids_are_typed_errors() {
    let trace = trace(SEEDS[2]);
    let mut gateway = Gateway::new(&trace.park, trace.budget, gateway_config(1)).expect("gateway");
    let mut task = trace.tasks[0].clone();
    gateway.admit(&task).expect("fresh id admits");
    assert_eq!(
        gateway.admit(&task),
        Err(GatewayError::DuplicateId { id: task.id })
    );
    task.id = dsct_ea::chaos::BURST_ID_BASE;
    assert_eq!(
        gateway.admit(&task),
        Err(GatewayError::ReservedId {
            id: dsct_ea::chaos::BURST_ID_BASE,
            base: dsct_ea::chaos::BURST_ID_BASE,
        })
    );
    task.id = RETRY_ID_BASE + 7;
    task.arrival += 1.0;
    assert_eq!(
        gateway.admit(&task),
        Err(GatewayError::ReservedId {
            id: RETRY_ID_BASE + 7,
            base: dsct_ea::chaos::BURST_ID_BASE,
        })
    );
}

/// Recorded at commit df1ea71 (`cargo test --test gateway_determinism`),
/// the last whose flush boundary re-checked every waiting retry in one
/// linear pass. Grouping the retries by tenant must re-offer the same
/// retries, in the same order, against the same bucket bits, so the fold
/// stays put. A change meant to move quota decisions updates it and says
/// why.
const RETRY_HEAVY_PINNED: u64 = 0x947a_1446_acea_049d;

fn fold(h: u64, word: u64) -> u64 {
    let mut z = (h ^ word).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A 96-task trace over 12 skewed tenants (a few heavy ones, a light
/// tail) with arrivals snapped down onto 12 instants, so every flush
/// boundary opens on a batch and re-offers a queue of retries.
fn retry_heavy_trace(seed: u64) -> ArrivalTrace {
    let cfg = ArrivalConfig {
        tasks: TaskConfig::paper(96, ThetaDistribution::Uniform { min: 0.1, max: 2.0 }),
        machines: MachineConfig::paper_random(8),
        load: 1.0,
        deadline_slack: 4.0,
        beta: 0.5,
    };
    let mut trace = generate_arrivals(&cfg, seed).expect("validated config");
    let last = trace.tasks.last().map_or(0.0, |t| t.arrival);
    let step = (last * (1.0 + 1e-9)).max(f64::MIN_POSITIVE) / 12.0;
    for task in &mut trace.tasks {
        task.arrival = (task.arrival / step).floor().min(11.0) * step;
        let u = fold(seed, task.id) as f64 / u64::MAX as f64;
        task.tenant = (12.0 * u * u) as u64;
    }
    trace
}

/// The fold of the digests of 16 retry-heavy replays (2 seeds × four
/// quota regimes × {no chaos, kill→recover}), with the summed retry
/// counts.
fn retry_heavy_fold() -> (u64, usize, usize) {
    let (mut h, mut admitted, mut dropped) = (0u64, 0usize, 0usize);
    for seed in [5u64, 6] {
        let trace = retry_heavy_trace(seed);
        let work: f64 = trace.tasks.iter().map(|t| t.accuracy.f_max()).sum();
        let fair = work / trace.horizon() / 12.0;
        let mean_fmax = work / trace.tasks.len() as f64;
        for (rate_x_fair, burst_x_fmax) in [(0.5, 1.5), (1.0, 2.0), (2.0, 4.0), (4.0, 1.0)] {
            let mut cfg = gateway_config(2);
            cfg.quota.rate = rate_x_fair * fair;
            cfg.quota.burst = burst_x_fmax * mean_fmax;
            for plan in [ShardChaosPlan::none(seed), kill_recover_plan(seed, &trace)] {
                let report = replay_gateway(&trace, &cfg, &plan, 2).expect("replay");
                let summary = report.core.summary;
                admitted += summary.retries_admitted;
                dropped += summary.retries_dropped;
                let digest = report.digest();
                h = fold(h, digest.len() as u64);
                for chunk in digest.as_bytes().chunks(8) {
                    let mut word = [0u8; 8];
                    word[..chunk.len()].copy_from_slice(chunk);
                    h = fold(h, u64::from_le_bytes(word));
                }
            }
        }
    }
    (h, admitted, dropped)
}

/// Absolute pin across commits: the other tests here compare
/// configurations with each other, so a shift that moved every
/// configuration together would pass them all.
#[test]
fn retry_heavy_digest_is_pinned() {
    let (h, admitted, dropped) = retry_heavy_fold();
    assert!(admitted > 0, "the replays must admit retries");
    assert!(dropped > 0, "the replays must drop retries");
    assert_eq!(
        h, RETRY_HEAVY_PINNED,
        "retry-heavy gateway digests moved: fold is {h:#018x}, pinned {RETRY_HEAVY_PINNED:#018x}"
    );
}
