//! Rendezvous (highest-random-weight) tenant routing.
//!
//! Every `(tenant, shard)` pair hashes to a score; a tenant lands on the
//! live shard with the highest score, ties broken toward the lower
//! index. The property that makes HRW the right tool for shard kills:
//! removing a shard remaps *only* the tenants that were routed to it —
//! every other tenant's argmax is unchanged — so a kill-and-drain
//! disturbs the minimum possible amount of routing state.

use dsct_workload::splitmix64;

/// The rendezvous score of `(tenant, shard)` — a pure function of the
/// pair, independent of which other shards exist or are alive.
pub fn rendezvous_score(tenant: u64, shard: usize) -> u64 {
    splitmix64(splitmix64(tenant) ^ splitmix64(shard as u64))
}

/// Tenant → shard router over a fixed shard universe with a live mask
/// and an explicit pin map (load-skew rebalancing overrides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Router {
    alive: Vec<bool>,
    /// Rebalance pins: `tenant → shard` overrides consulted before the
    /// rendezvous argmax. A pin only applies while its target is alive;
    /// while the target is dead the tenant falls back to plain HRW over
    /// the live mask (and snaps back if the target is revived).
    pins: std::collections::BTreeMap<u64, usize>,
}

impl Router {
    /// A router over `shards` cells, all initially alive.
    ///
    /// # Panics
    /// Panics when `shards == 0`.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a router needs at least one shard");
        Self {
            alive: vec![true; shards],
            pins: std::collections::BTreeMap::new(),
        }
    }

    /// Total shard count (alive or dead).
    pub fn shards(&self) -> usize {
        self.alive.len()
    }

    /// The live mask.
    pub fn alive(&self) -> &[bool] {
        &self.alive
    }

    /// Whether `shard` is still routable.
    pub fn is_alive(&self, shard: usize) -> bool {
        self.alive[shard]
    }

    /// Marks `shard` dead; its tenants re-route to their next-highest
    /// scoring live shard on the next [`Router::route`] call.
    pub fn kill(&mut self, shard: usize) {
        self.alive[shard] = false;
    }

    /// Marks `shard` alive again (shard recovery). Tenants whose
    /// rendezvous argmax is `shard` — exactly the set the kill remapped,
    /// by the HRW minimal-disruption property — route back to it on the
    /// next [`Router::route`] call; every other tenant is untouched.
    pub fn revive(&mut self, shard: usize) {
        self.alive[shard] = true;
    }

    /// Pins `tenant` to `shard`, overriding the rendezvous argmax while
    /// `shard` is alive. The rebalancer installs these when it moves a
    /// tenant off a hot shard, so future arrivals follow the moved
    /// pending pool instead of re-creating the skew.
    pub fn pin(&mut self, tenant: u64, shard: usize) {
        assert!(shard < self.alive.len(), "pin target out of range");
        self.pins.insert(tenant, shard);
    }

    /// Routes `tenant` to its pinned shard when one exists and is
    /// alive, otherwise to the live shard with the highest rendezvous
    /// score (ties toward the lower index), or `None` when every shard
    /// is dead.
    pub fn route(&self, tenant: u64) -> Option<usize> {
        if let Some(&pinned) = self.pins.get(&tenant) {
            if self.alive[pinned] {
                return Some(pinned);
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for (shard, &alive) in self.alive.iter().enumerate() {
            if !alive {
                continue;
            }
            let score = rendezvous_score(tenant, shard);
            if best.map(|(s, _)| score > s).unwrap_or(true) {
                best = Some((score, shard));
            }
        }
        best.map(|(_, shard)| shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kills_remap_only_the_dead_shards_tenants() {
        let mut router = Router::new(8);
        let before: Vec<usize> = (0..1000).map(|t| router.route(t).unwrap()).collect();
        router.kill(3);
        for (t, &b) in before.iter().enumerate() {
            let after = router.route(t as u64).unwrap();
            if b != 3 {
                assert_eq!(after, b, "tenant {t} moved without losing its shard");
            } else {
                assert_ne!(after, 3, "tenant {t} routed to a dead shard");
            }
        }
    }

    #[test]
    fn routing_is_reasonably_balanced() {
        let router = Router::new(4);
        let mut counts = [0usize; 4];
        for t in 0..4000 {
            counts[router.route(t).unwrap()] += 1;
        }
        for (shard, &c) in counts.iter().enumerate() {
            assert!(
                (700..=1300).contains(&c),
                "shard {shard} got {c} of 4000 tenants"
            );
        }
    }

    #[test]
    fn all_dead_routes_to_none() {
        let mut router = Router::new(2);
        router.kill(0);
        assert!(router.route(7).is_some());
        router.kill(1);
        assert_eq!(router.route(7), None);
        assert_eq!(router.alive(), &[false, false]);
    }
}
