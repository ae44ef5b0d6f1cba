//! Shard recovery invariants: rendezvous routing hands a recovered
//! shard exactly the tenants it owned before the kill (ties to the
//! lower shard index, as everywhere in HRW), and every task id stays
//! single-accounted across the full drain → re-route → recover chain —
//! the recovered incarnation and the archived dead one never both claim
//! an outcome for the same id.

use dsct_ea::chaos::ShardChaosPlan;
use dsct_ea::gateway::{replay_gateway, GatewayConfig};
use dsct_ea::online::ReplayConfig;
use dsct_ea::server::{Router, ScheduleServer, ServerConfig};
use dsct_ea::workload::{
    generate_arrivals, ArrivalConfig, ArrivalTrace, MachineConfig, TaskConfig, ThetaDistribution,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

fn server_config(shards: usize) -> ServerConfig {
    ServerConfig {
        replay: ReplayConfig {
            shards,
            workers: 2,
            ..ReplayConfig::default()
        },
        ..ServerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// HRW minimal disruption, round-tripped: killing a shard reroutes
    /// only that shard's tenants (each to a live shard); reviving it
    /// restores the pre-kill route for every tenant.
    #[test]
    fn revive_restores_prekill_routes(
        shards in 2usize..=8,
        kill_pick in 0usize..8,
        tenant_base in 0u64..1_000_000,
    ) {
        let dead = kill_pick % shards;
        let mut router = Router::new(shards);
        let tenants: Vec<u64> = (0..64).map(|i| tenant_base + i).collect();
        let before: Vec<usize> = tenants
            .iter()
            .map(|&t| router.route(t).expect("all shards live"))
            .collect();
        router.kill(dead);
        for (&tenant, &home) in tenants.iter().zip(&before) {
            let rerouted = router.route(tenant);
            if home == dead {
                let dst = rerouted.expect("other shards live");
                prop_assert_ne!(dst, dead, "tenant {} routed to the dead shard", tenant);
            } else {
                prop_assert_eq!(
                    rerouted, Some(home),
                    "tenant {} moved although its shard survived", tenant
                );
            }
        }
        router.revive(dead);
        for (&tenant, &home) in tenants.iter().zip(&before) {
            prop_assert_eq!(
                router.route(tenant), Some(home),
                "tenant {} not handed back after revive", tenant
            );
        }
    }

    /// The same hand-back through the server API: kill → recover
    /// returns every tenant to its original shard, and recovering a
    /// live shard stays a no-op.
    #[test]
    fn recover_hands_back_dead_shard_tenants(
        seed in 0u64..16,
        shards in 2usize..=6,
        kill_pick in 0usize..6,
    ) {
        let dead = kill_pick % shards;
        let t = trace(11 + seed % 3);
        let mut server = ScheduleServer::new(&t.park, t.budget, server_config(shards))
            .expect("valid park");
        let tenants: Vec<u64> = (0..32).collect();
        let before: Vec<usize> = tenants
            .iter()
            .map(|&t| server.router().route(t).expect("live"))
            .collect();
        server.apply_shard_kill(0.5, dead).expect("kill applies");
        prop_assert!(!server.router().is_alive(dead));
        prop_assert!(server.recover_shard(1.0, dead).expect("recover applies"));
        prop_assert!(server.router().is_alive(dead));
        for (&tenant, &home) in tenants.iter().zip(&before) {
            prop_assert_eq!(server.router().route(tenant), Some(home));
        }
        // Recovering a live shard is a no-op, not an error.
        prop_assert!(!server.recover_shard(1.5, dead).expect("no-op"));
        let report = server.finish();
        prop_assert_eq!(report.summary.kills, 1);
        prop_assert_eq!(report.summary.recoveries, 1);
        prop_assert_eq!(report.archived.len(), 1);
        prop_assert_eq!(report.archived[0].shard, dead);
    }
}

/// Single-accounting through drain → re-route → recover: the union of
/// the final incarnations' outcome lists and the archived dead
/// incarnations' lists holds every admitted task id exactly once.
#[test]
fn task_ids_single_accounted_across_kill_recover() {
    for seed in [11u64, 22, 33] {
        let t = trace(seed);
        // Quotas and rebalancing off: every producer id must reach a
        // shard, which makes "exactly once, all of them" exact.
        let cfg = GatewayConfig {
            server: server_config(4),
            ..GatewayConfig::default()
        };
        let plan = ShardChaosPlan::kill_recover(seed, t.horizon(), 4, 2, t.horizon() * 0.2);
        let report = replay_gateway(&t, &cfg, &plan, 4).expect("replay");
        let server = &report.core.server;
        assert!(
            server.summary.kills >= 1,
            "seed {seed}: plan produced no kill"
        );
        assert_eq!(
            server.summary.kills, server.summary.recoveries,
            "seed {seed}"
        );
        let mut seen = BTreeSet::new();
        for (shard, tasks) in server.shard_tasks.iter().enumerate() {
            for (id, _) in tasks {
                assert!(
                    seen.insert(*id),
                    "seed {seed}: task {id} double-accounted (live shard {shard})"
                );
            }
        }
        for archived in &server.archived {
            for (id, _) in &archived.tasks {
                assert!(
                    seen.insert(*id),
                    "seed {seed}: task {id} in both an archived and a live incarnation"
                );
            }
        }
        for task in &t.tasks {
            assert!(
                seen.contains(&task.id),
                "seed {seed}: task {} vanished",
                task.id
            );
        }
        assert_eq!(
            report.core.summary.admitted,
            t.tasks.len(),
            "seed {seed}: quota-off gateway must admit the whole trace"
        );
    }
}
