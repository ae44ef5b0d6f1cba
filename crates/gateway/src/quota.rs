//! Per-tenant admission quotas: a token bucket on offered work.
//!
//! The bucket is keyed on *simulated* time (task arrival timestamps),
//! not wall clock, so quota decisions are a pure function of the
//! arrival stream — the same determinism contract as everything else.
//! Cost is the task's uncompressed work `f_max` in GFLOP: the most a
//! task can ask the park for, known at admission time without running
//! any solver. A tenant sustains `rate` GFLOP/s of offered work and may
//! burst up to `burst` GFLOP; beyond that the gateway turns the task
//! away with a typed [`QuotaRejection`] instead of letting one tenant
//! starve a shard's pool.

use dsct_workload::{IdMap, OnlineTask};
use serde::{Deserialize, Serialize};

/// Per-tenant admission-quota configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuotaConfig {
    /// Master switch; when `false` every task passes.
    pub enabled: bool,
    /// Sustained admissible work per tenant, GFLOP/s of uncompressed
    /// (`f_max`) work.
    pub rate: f64,
    /// Bucket capacity: the largest burst of uncompressed work (GFLOP)
    /// a tenant can land at one instant. Buckets start full.
    pub burst: f64,
    /// Re-offer quota-rejected tasks at the next flush boundary under a
    /// fresh synthesized id (see [`crate::RETRY_ID_BASE`]). Retries
    /// still pay the quota; whatever never fits is dropped at finish.
    pub retry: bool,
}

impl Default for QuotaConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            rate: 0.0,
            burst: 0.0,
            retry: false,
        }
    }
}

/// One quota rejection, recorded in the digest-stable gateway report.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuotaRejection {
    /// Rejection time (the task's arrival).
    pub at: f64,
    /// The rejected task's id (the producer's id, never a retry id).
    pub task: u64,
    /// The over-quota tenant.
    pub tenant: u64,
    /// Tokens the task needed (its `f_max`, GFLOP).
    pub needed: f64,
    /// Tokens the tenant's bucket held at `at`.
    pub available: f64,
    /// The synthesized id the retry will carry, when
    /// [`QuotaConfig::retry`] is on.
    pub retry_id: Option<u64>,
}

/// One per-flush fairness audit record: who got through the gate in the
/// window that just closed. Digest-stable, so a fairness regression
/// shows up as a digest change, not a log line.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FlushAudit {
    /// The boundary time that closed the window.
    pub at: f64,
    /// Tasks admitted through the quota gate in the window.
    pub admitted: usize,
    /// Tasks quota-rejected in the window.
    pub rejected: usize,
    /// Distinct tenants with at least one admission in the window
    /// (a tenant whose every offer was rejected is not counted).
    pub tenants: usize,
    /// The tenant with the most admissions (ties toward the lower id).
    pub top_tenant: u64,
    /// That tenant's admission count — `top_admitted / admitted` is the
    /// window's max tenant share, the fairness headline.
    pub top_admitted: usize,
}

/// One tenant's bucket.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    tokens: f64,
    last: f64,
}

#[cfg(any(test, debug_assertions))]
impl Bucket {
    /// `(tokens, last)`, bit for bit.
    fn bits(&self) -> (u64, u64) {
        (self.tokens.to_bits(), self.last.to_bits())
    }
}

/// The per-tenant token-bucket book.
#[derive(Debug, Clone)]
pub struct QuotaBook {
    cfg: QuotaConfig,
    /// Per tenant its bucket, reached by key only: nothing outside the
    /// debug cross-check of [`RetryBook::release`] iterates it.
    buckets: IdMap<Bucket>,
}

impl QuotaBook {
    /// A book over `cfg`; buckets materialize full on first touch.
    pub fn new(cfg: QuotaConfig) -> Self {
        Self {
            cfg,
            buckets: IdMap::default(),
        }
    }

    /// Refills `tenant`'s bucket to time `at` and returns its tokens.
    /// Time may move backwards between tenants (the merge orders by
    /// arrival, retries re-arrive at flush time) but never within one
    /// tenant's stream; refill clamps at the bucket's own last-touch
    /// time, so a second refill at the same `at` leaves every bit alone.
    pub(crate) fn refill(&mut self, tenant: u64, at: f64) -> &mut f64 {
        let bucket = self.buckets.entry(tenant).or_insert(Bucket {
            tokens: self.cfg.burst,
            last: at,
        });
        let dt = (at - bucket.last).max(0.0);
        bucket.tokens = (bucket.tokens + self.cfg.rate * dt).min(self.cfg.burst);
        bucket.last = bucket.last.max(at);
        &mut bucket.tokens
    }

    /// Charges `cost` GFLOP against `tenant`'s bucket at time `at`.
    /// `Ok(())` consumes the tokens; `Err(available)` reports what the
    /// bucket held. Disabled quotas always admit.
    pub fn try_admit(&mut self, tenant: u64, at: f64, cost: f64) -> Result<(), f64> {
        if !self.cfg.enabled {
            return Ok(());
        }
        let tokens = self.refill(tenant, at);
        if take(tokens, cost) {
            Ok(())
        } else {
            Err(*tokens)
        }
    }
}

/// The bucket test: consumes `cost` from `tokens` when it fits.
fn take(tokens: &mut f64, cost: f64) -> bool {
    let fits = *tokens + 1e-12 >= cost;
    if fits {
        *tokens -= cost;
    }
    fits
}

/// Quota-rejected tasks awaiting a flush boundary, grouped by tenant.
#[derive(Debug, Default)]
pub(crate) struct RetryBook {
    /// Per waiting tenant: its cheapest cost (while that does not fit
    /// the bucket, none of its retries can pass) and its `(cost, task)`
    /// queue in rejection order, which is retry-id order. Buckets are
    /// per tenant and [`Self::release`] sorts what it admits by id, so
    /// the order tenants are visited in reaches no result.
    tenants: IdMap<(f64, Vec<(f64, OnlineTask)>)>,
}

impl RetryBook {
    /// Queues `task`, already carrying its retry id, at bucket cost `cost`.
    pub(crate) fn push(&mut self, cost: f64, task: OnlineTask) {
        let (cheapest, queue) = self
            .tenants
            .entry(task.tenant)
            .or_insert((f64::INFINITY, Vec::new()));
        *cheapest = cheapest.min(cost);
        queue.push((cost, task));
    }

    /// Retries still waiting.
    pub(crate) fn len(&self) -> usize {
        self.tenants.values().map(|(_, queue)| queue.len()).sum()
    }

    /// Re-offers the waiting retries at boundary `t` and returns the
    /// ones that pass, in retry-id order, re-stamped to arrive at `t`.
    /// Each waiting tenant's bucket is refilled once; its retries are
    /// walked, in rejection order, only when its cheapest one fits.
    /// That is the one linear pass over every retry in retry-id order
    /// bit for bit: buckets are per tenant, and every re-check after a
    /// tenant's first at `t` refills by `rate · 0`. The walk is in place:
    /// only the retries that pass leave the queue, the rest keep their
    /// order, and `cheapest` becomes the least cost left.
    pub(crate) fn release(&mut self, quotas: &mut QuotaBook, t: f64) -> Vec<OnlineTask> {
        #[cfg(debug_assertions)]
        let (linear_ids, linear_book) = self.linear_release(quotas, t);
        let mut admitted = Vec::new();
        for (&tenant, (cheapest, queue)) in &mut self.tenants {
            let tokens = quotas.refill(tenant, t);
            if *tokens + 1e-12 < *cheapest {
                continue;
            }
            let mut kept = f64::INFINITY;
            let passing = queue.extract_if(.., |&mut (cost, _)| {
                let passes = take(tokens, cost);
                if !passes {
                    kept = kept.min(cost);
                }
                passes
            });
            admitted.extend(passing.map(|(_, task)| OnlineTask { arrival: t, ..task }));
            *cheapest = kept;
        }
        self.tenants.retain(|_, (_, queue)| !queue.is_empty());
        admitted.sort_unstable_by_key(|task| task.id);
        #[cfg(debug_assertions)]
        {
            let ids: Vec<u64> = admitted.iter().map(|task| task.id).collect();
            assert_eq!(ids, linear_ids, "retry release left the linear pass at {t}");
            for (tenant, bucket) in &linear_book.buckets {
                let bits = quotas.buckets[tenant].bits();
                assert_eq!(bits, bucket.bits(), "tenant {tenant}'s bucket at {t}");
            }
        }
        admitted
    }

    /// The linear pass over every waiting retry in retry-id order, on
    /// copies of the waiting tenants' buckets: the ids it admits, in
    /// order, and the buckets it leaves.
    #[cfg(debug_assertions)]
    fn linear_release(&self, quotas: &QuotaBook, t: f64) -> (Vec<u64>, QuotaBook) {
        let mut book = QuotaBook::new(quotas.cfg);
        let mut retries = Vec::new();
        for (&tenant, (_, queue)) in &self.tenants {
            book.buckets
                .extend(quotas.buckets.get(&tenant).map(|&b| (tenant, b)));
            retries.extend(queue.iter().map(|(cost, task)| (task.id, tenant, *cost)));
        }
        retries.sort_unstable_by_key(|&(id, _, _)| id);
        retries.retain(|&(_, tenant, cost)| book.try_admit(tenant, t, cost).is_ok());
        (retries.iter().map(|&(id, _, _)| id).collect(), book)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_accuracy::PwlAccuracy;
    use proptest::prelude::*;

    fn retry(id: u64, tenant: u64) -> OnlineTask {
        OnlineTask {
            id,
            tenant,
            arrival: 0.0,
            deadline: 1.0,
            accuracy: PwlAccuracy::new(&[(0.0, 0.1), (1.0, 0.9)]).expect("concave"),
        }
    }

    fn bucket_bits(book: &QuotaBook) -> Vec<(u64, (u64, u64))> {
        let mut bits: Vec<_> = (book.buckets.iter())
            .map(|(&tenant, b)| (tenant, b.bits()))
            .collect();
        bits.sort_unstable_by_key(|&(tenant, _)| tenant);
        bits
    }

    /// Offer costs; the repeated 0.5 makes equal costs common.
    const COSTS: [f64; 6] = [0.25, 0.5, 0.5, 1.0, 1.5, 3.0];
    /// Clock steps; the zeros repeat boundary times.
    const STEPS: [f64; 5] = [0.0, 0.0, 1e-13, 0.1, 0.7];
    /// Offsets of an edge offer's cost from `tokens + 1e-12`.
    const EDGES: [f64; 6] = [-1e-12, -5e-13, 0.0, 5e-13, 1e-12, 2e-12];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The grouped release admits the ids the one linear pass over
        /// every waiting retry admits, in the same order, and leaves
        /// every bucket with the same bits, boundary after boundary.
        /// Ops: `kind` 0–1 offers a `COSTS` cost, 2 offers one within
        /// 2e-12 of the tenant's tokens, 3 is a flush boundary.
        #[test]
        fn grouped_release_is_the_linear_pass(
            rate in prop_oneof![Just(0.0), 0.1..4.0f64],
            burst in 1.0..4.0f64,
            ops in proptest::collection::vec((0u8..4, 0u64..4, 0usize..6, 0usize..5), 1..80),
        ) {
            let cfg = QuotaConfig { enabled: true, rate, burst, retry: true };
            let (mut quotas, mut retries) = (QuotaBook::new(cfg), RetryBook::default());
            let (mut linear, mut queue) = (QuotaBook::new(cfg), Vec::new());
            let (mut now, mut next_id) = (0.0, 0u64);
            for (kind, tenant, pick, step) in ops {
                now += STEPS[step];
                if kind == 3 {
                    let got: Vec<u64> =
                        retries.release(&mut quotas, now).iter().map(|task| task.id).collect();
                    let mut want = Vec::new();
                    queue.retain(|&(id, tenant, cost)| {
                        let admitted = linear.try_admit(tenant, now, cost).is_ok();
                        if admitted {
                            want.push(id);
                        }
                        !admitted
                    });
                    prop_assert_eq!(got, want);
                    prop_assert_eq!(retries.len(), queue.len());
                } else {
                    let cost = if kind == 2 {
                        let peek = linear.buckets.get(&tenant).map_or(burst, |b| {
                            (b.tokens + rate * (now - b.last).max(0.0)).min(burst)
                        });
                        peek + 1e-12 + EDGES[pick]
                    } else {
                        COSTS[pick]
                    };
                    let got = quotas.try_admit(tenant, now, cost).map_err(f64::to_bits);
                    prop_assert_eq!(got, linear.try_admit(tenant, now, cost).map_err(f64::to_bits));
                    if got.is_err() {
                        retries.push(cost, retry(next_id, tenant));
                        queue.push((next_id, tenant, cost));
                        next_id += 1;
                    }
                }
                prop_assert_eq!(bucket_bits(&quotas), bucket_bits(&linear));
            }
        }
    }

    #[test]
    fn cheaper_later_retry_passes_behind_a_stuck_one() {
        let mut quotas = QuotaBook::new(QuotaConfig {
            enabled: true,
            rate: 1.0,
            burst: 2.0,
            retry: true,
        });
        let mut retries = RetryBook::default();
        assert!(quotas.try_admit(7, 0.0, 2.0).is_ok());
        for (id, cost) in [(0, 1.5), (1, 0.5), (2, 0.5)] {
            assert!(quotas.try_admit(7, 0.0, cost).is_err());
            retries.push(cost, retry(id, 7));
        }
        // 0.75 tokens at t = 0.75: id 0 stays stuck, id 1 passes
        // behind it, id 2 finds 0.25 left.
        let ids = |tasks: Vec<OnlineTask>| tasks.iter().map(|t| t.id).collect::<Vec<_>>();
        assert_eq!(ids(retries.release(&mut quotas, 0.75)), [1]);
        assert_eq!(
            ids(retries.release(&mut quotas, 0.75)),
            [] as [u64; 0],
            "a repeated t adds nothing"
        );
        let admitted = retries.release(&mut quotas, 2.5);
        assert_eq!(ids(admitted.clone()), [0, 2], "admitted in retry-id order");
        assert!(admitted.iter().all(|task| task.arrival == 2.5));
        assert_eq!(retries.len(), 0);
    }

    /// A tenant whose cheapest retry fits but whose later ones do not:
    /// the walk takes the one that passes out of the queue and leaves the
    /// rest in rejection order, with `cheapest` their least cost.
    #[test]
    fn release_keeps_the_unadmitted_in_rejection_order() {
        let mut quotas = QuotaBook::new(QuotaConfig {
            enabled: true,
            rate: 1.0,
            burst: 4.0,
            retry: true,
        });
        let mut retries = RetryBook::default();
        assert!(quotas.try_admit(3, 0.0, 4.0).is_ok());
        for (id, cost) in [(10, 2.0), (11, 0.5), (12, 1.5), (13, 0.75), (14, 3.0)] {
            assert!(quotas.try_admit(3, 0.0, cost).is_err());
            retries.push(cost, retry(id, 3));
        }
        // One token at t = 1: id 11 passes, leaving 0.5 for the rest.
        let admitted = retries.release(&mut quotas, 1.0);
        assert_eq!(admitted.iter().map(|t| t.id).collect::<Vec<_>>(), [11]);
        let (cheapest, queue) = &retries.tenants[&3];
        let left: Vec<(u64, f64)> = queue.iter().map(|(c, t)| (t.id, *c)).collect();
        assert_eq!(left, [(10, 2.0), (12, 1.5), (13, 0.75), (14, 3.0)]);
        assert_eq!(*cheapest, 0.75);
    }

    /// `release` admits the same ids, in the same order, and leaves the
    /// same bucket bits whatever order the tenants were charged and
    /// queued in: the book's iteration order reaches no result.
    #[test]
    fn release_does_not_depend_on_tenant_order() {
        let cfg = QuotaConfig {
            enabled: true,
            rate: 1.0,
            burst: 2.0,
            retry: true,
        };
        let tenants: Vec<u64> = (0..48)
            .map(|k| match k % 3 {
                0 => k,
                1 => u64::MAX - k,
                _ => k << 40,
            })
            .collect();
        let run = |order: &[u64]| {
            let (mut quotas, mut retries) = (QuotaBook::new(cfg), RetryBook::default());
            for &tenant in order {
                let k = tenants.iter().position(|&t| t == tenant).unwrap() as u64;
                assert!(quotas.try_admit(tenant, 0.0, 2.0).is_ok());
                // Retry ids ascend within each tenant's queue, as
                // rejection order makes them.
                for (j, cost) in [0.25, 1.0, 0.5 + 0.01 * k as f64].into_iter().enumerate() {
                    assert!(quotas.try_admit(tenant, 0.0, cost).is_err());
                    retries.push(cost, retry(3 * k + j as u64, tenant));
                }
            }
            let mut released = Vec::new();
            for t in [0.3, 0.9, 1.6] {
                released.push(
                    retries
                        .release(&mut quotas, t)
                        .iter()
                        .map(|task| task.id)
                        .collect::<Vec<_>>(),
                );
            }
            (released, bucket_bits(&quotas), retries.len())
        };
        let forward = run(&tenants);
        assert!(forward.0.iter().any(|ids| !ids.is_empty()));
        assert!(forward.2 > 0, "some retries still wait");
        let mut reversed = tenants.clone();
        reversed.reverse();
        // 7 is prime to 48, so this visits every tenant once.
        let strided: Vec<u64> = (0..tenants.len())
            .map(|k| tenants[(7 * k) % tenants.len()])
            .collect();
        assert_eq!(run(&reversed), forward);
        assert_eq!(run(&strided), forward);
    }

    #[test]
    fn bucket_refills_at_rate_and_caps_at_burst() {
        let mut book = QuotaBook::new(QuotaConfig {
            enabled: true,
            rate: 1.0,
            burst: 2.0,
            retry: false,
        });
        assert!(book.try_admit(7, 0.0, 2.0).is_ok(), "burst starts full");
        assert_eq!(book.try_admit(7, 0.5, 1.0), Err(0.5));
        assert!(book.try_admit(7, 1.5, 1.0).is_ok(), "refilled 1.0 by t=1.5");
        assert!(
            book.try_admit(7, 100.0, 2.0).is_ok(),
            "refill caps at burst, not rate x dt"
        );
        assert!(book.try_admit(8, 0.0, 2.0).is_ok(), "tenants independent");
    }

    #[test]
    fn disabled_quota_admits_everything() {
        let mut book = QuotaBook::new(QuotaConfig::default());
        assert!(book.try_admit(1, 0.0, 1e18).is_ok());
    }
}
