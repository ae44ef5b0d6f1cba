//! Shard chaos plans: whole-cell failures and recoveries for the
//! sharded server.
//!
//! A [`ShardChaosPlan`] is the cell-granular sibling of
//! [`crate::ChaosPlan`]: each event names a *shard* whose machines all
//! fail at once, or that respawns. The plan is pure data — `dsct-chaos`
//! knows nothing about the server — and the consumer (`dsct-server`,
//! `dsct-gateway`) turns a kill into a deterministic sequence of
//! per-machine [`dsct_online::Disruption::MachineFailure`] injections
//! plus a drain of the cell's pending pool into the surviving shards.

use dsct_workload::splitmix64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// What a [`ShardEvent`] does to its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ShardEventKind {
    /// Every machine of the shard fails at once.
    Kill,
    /// The shard respawns: a fresh cell over the original machine
    /// group, rendezvous tenants handed back, budget re-federated.
    Recover,
}

/// One lifecycle event of a shard chaos plan: a kill or a recovery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ShardEvent {
    /// Firing time on the server clock (seconds).
    pub at: f64,
    /// The event's index in the plan (the RNG discriminator; unique
    /// across kills and recoveries).
    pub index: usize,
    /// Index of the shard the event targets.
    pub shard: usize,
    /// Kill or recover.
    pub kind: ShardEventKind,
}

/// A deterministic shard lifecycle plan: kills, optionally paired with
/// later recoveries. Pure data with the [`crate::ChaosPlan`] purity
/// contract (each event a function of `(seed, index)`); the consumer
/// (`dsct-server` / `dsct-gateway`) fires each event against the live
/// server. Killing a dead shard or recovering a live one is a no-op at
/// the consumer, so overlapping plans compose safely.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardChaosPlan {
    /// Seed the plan was generated from.
    pub chaos_seed: u64,
    /// Events sorted by `(at, index)`.
    pub events: Vec<ShardEvent>,
}

impl ShardChaosPlan {
    /// Generates `kills` shard kills over `shards` cells within
    /// `horizon`, and no recovery. Each event draws from its own
    /// `(chaos_seed, index)` ChaCha stream (the [`crate::ChaosPlan`]
    /// recipe), so the plan is a pure function of its arguments. Victims
    /// are sampled without replacement in index order, so a shard dies
    /// at most once; at least one shard always survives (`kills` is
    /// capped at `shards − 1`). Kill times land in the middle of the
    /// horizon, where there is routed work both to cut and to drain.
    ///
    /// # Panics
    /// Panics when `shards == 0` while `kills > 0`, or when `horizon`
    /// is not finite and non-negative.
    pub fn kills(chaos_seed: u64, horizon: f64, shards: usize, kills: usize) -> ShardChaosPlan {
        assert!(
            horizon.is_finite() && horizon >= 0.0,
            "horizon must be finite and non-negative, got {horizon}"
        );
        assert!(shards > 0 || kills == 0, "shard kills need shards");
        let kills = kills.min(shards.saturating_sub(1));
        let mut alive: Vec<usize> = (0..shards).collect();
        let mut events = Vec::with_capacity(kills);
        for index in 0..kills {
            let mut rng =
                ChaCha8Rng::seed_from_u64(splitmix64(chaos_seed ^ splitmix64(index as u64)));
            let at = horizon * rng.gen_range(0.15..0.75);
            let victim = alive.remove(rng.gen_range(0..alive.len()));
            events.push(ShardEvent {
                at,
                index,
                shard: victim,
                kind: ShardEventKind::Kill,
            });
        }
        events.sort_by(|a, b| a.at.total_cmp(&b.at).then(a.index.cmp(&b.index)));
        ShardChaosPlan { chaos_seed, events }
    }

    /// [`ShardChaosPlan::kills`] with the same arguments — the same kill
    /// times and victims, bit for bit — with each kill paired with a
    /// recovery `recover_delay` seconds later. Recovery events take plan
    /// indices after every kill index, so the two halves never collide
    /// in the `(at, index)` order even when a recovery lands on another
    /// kill's timestamp.
    ///
    /// # Panics
    /// Panics on the [`ShardChaosPlan::kills`] preconditions, or when
    /// `recover_delay` is not finite and positive.
    pub fn kill_recover(
        chaos_seed: u64,
        horizon: f64,
        shards: usize,
        kills: usize,
        recover_delay: f64,
    ) -> ShardChaosPlan {
        assert!(
            recover_delay.is_finite() && recover_delay > 0.0,
            "recover_delay must be finite and positive, got {recover_delay}"
        );
        let mut plan = ShardChaosPlan::kills(chaos_seed, horizon, shards, kills);
        let n = plan.events.len();
        let recoveries: Vec<ShardEvent> = plan
            .events
            .iter()
            .map(|kill| ShardEvent {
                at: kill.at + recover_delay,
                index: n + kill.index,
                kind: ShardEventKind::Recover,
                ..*kill
            })
            .collect();
        plan.events.extend(recoveries);
        plan.events
            .sort_by(|a, b| a.at.total_cmp(&b.at).then(a.index.cmp(&b.index)));
        plan
    }

    /// The empty plan (a plain replay, no shard events).
    pub fn none(chaos_seed: u64) -> ShardChaosPlan {
        ShardChaosPlan {
            chaos_seed,
            events: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_and_victims_distinct() {
        let a = ShardChaosPlan::kills(7, 10.0, 8, 3);
        let b = ShardChaosPlan::kills(7, 10.0, 8, 3);
        assert_eq!(a, b);
        assert_ne!(a, ShardChaosPlan::kills(8, 10.0, 8, 3));
        assert_eq!(a.events.len(), 3);
        assert!(a.events.iter().all(|e| e.kind == ShardEventKind::Kill));
        let mut shards: Vec<usize> = a.events.iter().map(|e| e.shard).collect();
        shards.sort_unstable();
        shards.dedup();
        assert_eq!(shards.len(), 3, "a shard dies at most once");
        assert!(a
            .events
            .windows(2)
            .all(|w| w[0].at < w[1].at || (w[0].at == w[1].at && w[0].index < w[1].index)));
    }

    #[test]
    fn at_least_one_shard_survives() {
        let p = ShardChaosPlan::kills(3, 5.0, 4, 9);
        assert_eq!(p.events.len(), 3, "kills cap at shards − 1");
        assert!(ShardChaosPlan::kills(1, 5.0, 1, 5).events.is_empty());
        assert!(ShardChaosPlan::kills(1, 5.0, 0, 0).events.is_empty());
    }

    #[test]
    fn kill_recover_pairs_and_orders_events() {
        let plan = ShardChaosPlan::kill_recover(7, 10.0, 8, 3, 1.5);
        assert_eq!(plan, ShardChaosPlan::kill_recover(7, 10.0, 8, 3, 1.5));
        assert_eq!(plan.events.len(), 6);
        let kills = ShardChaosPlan::kills(7, 10.0, 8, 3);
        for e in &kills.events {
            let k = plan
                .events
                .iter()
                .find(|p| p.kind == ShardEventKind::Kill && p.shard == e.shard)
                .expect("kill present");
            assert_eq!(k, e, "kill half is verbatim");
            let r = plan
                .events
                .iter()
                .find(|p| p.kind == ShardEventKind::Recover && p.shard == e.shard)
                .expect("recovery present");
            assert_eq!(r.at, e.at + 1.5);
            assert_eq!(r.index, kills.events.len() + e.index);
        }
        assert!(plan
            .events
            .windows(2)
            .all(|w| w[0].at < w[1].at || (w[0].at == w[1].at && w[0].index < w[1].index)));
        let indices: std::collections::BTreeSet<usize> =
            plan.events.iter().map(|e| e.index).collect();
        assert_eq!(indices.len(), plan.events.len(), "indices unique");
        assert!(ShardChaosPlan::none(3).events.is_empty());
    }
}
