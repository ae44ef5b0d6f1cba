//! The pending pool of a rolling-horizon re-planner, kept as the
//! residual instance the solver reads.
//!
//! An online service re-plans its pending pool at the current time `t`:
//! deadlines shift to `d_j − t`, the budget shrinks to whatever the
//! energy ledger still has uncommitted, and only tasks whose deadline is
//! still ahead take part. [`ResidualPool`] holds the pool *as* that
//! [`Instance`]: one task row per pooled task, beside a [`PoolRow`] of
//! bookkeeping (caller id, tenant, arrival, absolute deadline, admission
//! sequence number). [`ResidualPool::read_at`] writes `d_j − t` into
//! every row and the clamped budget into the instance in place — each
//! row stores the absolute value and the read derives the residual one
//! at `now` — so a re-plan builds no instance and clones no curve.
//!
//! - An admission ([`ResidualPool::push`]) appends its row to an
//!   unsorted tail, at the cost of the one curve clone it brings in; the
//!   next read merges the tail into deadline order in one pass.
//! - Dispatch ([`ResidualPool::remove`]), expiry
//!   ([`ResidualPool::purge_expired`], the expired prefix) and drains
//!   ([`ResidualPool::drain_where`]) move rows out without cloning them.
//! - The alive sub-park is part of the instance and changes only when a
//!   machine dies or slows ([`ResidualPool::set_park`]).
//!
//! # Row order
//!
//! Rows are ordered by absolute deadline, ties by admission sequence
//! number. Subtracting a common `t` is monotone, so residual deadlines
//! are non-decreasing too. This is the stable sort by `d_j − t` of the
//! pool in admission order — what the reference builder
//! `residual_instance` (test and debug builds only) computes from
//! scratch — except where `d_j − t` rounds two *distinct* absolute
//! deadlines to one value: the pool then keeps the true deadline (EDF)
//! order, the reference the admission order.
//! [`ResidualPool::assert_matches_reference`] (test and debug builds)
//! compares a read with the reference under exactly that allowance; the
//! online service calls it after every read in debug builds.
//!
//! Machine *availability* (a machine still busy with a committed task at
//! `t`) is deliberately **not** encoded here: the residual solve assumes
//! every machine free at `t`, and the dispatcher restores feasibility at
//! materialization time by cutting tasks at their absolute deadlines
//! (the same phase-2 cut as [`crate::approx`]). Cutting only shortens
//! processing times, so the materialized plan never exceeds the solved
//! plan's energy.

use crate::problem::{Instance, Task};
use crate::EPS_TIME;
use dsct_accuracy::PwlAccuracy;
use dsct_machines::MachinePark;
use std::cmp::Ordering;
use std::sync::Arc;

/// The bookkeeping of one pooled task, beside its [`Task`] row.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolRow {
    /// Caller-stable task id.
    pub id: u64,
    /// Tenant the task belongs to.
    pub tenant: u64,
    /// Time the task entered the pool.
    pub arrival: f64,
    /// Absolute deadline in seconds.
    pub deadline: f64,
    /// Admission sequence number: unique, increasing in append order.
    pub seq: u64,
}

impl PoolRow {
    /// The row order: absolute deadline, ties by admission.
    fn order(&self, other: &Self) -> Ordering {
        order(self.deadline, self.seq, other)
    }
}

fn order(deadline: f64, seq: u64, other: &PoolRow) -> Ordering {
    deadline
        .total_cmp(&other.deadline)
        .then(seq.cmp(&other.seq))
}

/// A pending pool stored as its residual [`Instance`]; see the module
/// docs.
#[derive(Debug, Clone)]
pub struct ResidualPool {
    /// One task row per pooled task; deadlines are residual as of the
    /// last read (absolute in rows appended since).
    inst: Instance,
    /// `rows[i]` describes `inst.task(i)`.
    rows: Vec<PoolRow>,
    /// `rows[..merged]` are in [`PoolRow::order`]; the rest is the tail
    /// of admissions since, in append order.
    merged: usize,
    next_seq: u64,
    /// Original park index of each machine of `inst`'s sub-park; empty
    /// while no machine is alive.
    machine_ids: Arc<[usize]>,
    /// Reused buffers of the tail merge.
    spare_head: Vec<(PoolRow, Task)>,
    spare_tail: Vec<(PoolRow, Task)>,
}

impl ResidualPool {
    /// An empty pool over `machines`, every machine alive.
    pub fn new(machines: MachinePark) -> Self {
        let machine_ids = (0..machines.len()).collect();
        Self {
            inst: Instance::empty(machines),
            rows: Vec::new(),
            merged: 0,
            next_seq: 0,
            machine_ids,
            spare_head: Vec::new(),
            spare_tail: Vec::new(),
        }
    }

    /// Replaces the sub-park reads solve on: alive machines at their
    /// current speeds plus each one's original park index, or `None`
    /// once every machine is dead (reads then return `None`).
    pub fn set_park(&mut self, park: Option<(MachinePark, Vec<usize>)>) {
        match park {
            Some((machines, ids)) => {
                debug_assert_eq!(machines.len(), ids.len());
                self.inst.set_machines(machines);
                self.machine_ids = ids.into();
            }
            None => self.machine_ids = Arc::from([]),
        }
    }

    /// Original park index of each machine of the sub-park reads solve
    /// on; empty while no machine is alive.
    pub fn machine_ids(&self) -> &Arc<[usize]> {
        &self.machine_ids
    }

    /// Pooled tasks.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing is pooled.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The rows, in instance order (see [`ResidualPool::instance`]).
    pub fn rows(&self) -> &[PoolRow] {
        &self.rows
    }

    /// The instance as of the last read: row `j` is [`Self::rows`]`[j]`.
    pub fn instance(&self) -> &Instance {
        &self.inst
    }

    /// Whether `id` is pooled.
    pub fn contains_id(&self, id: u64) -> bool {
        self.rows.iter().any(|r| r.id == id)
    }

    /// Appends a task to the tail and returns its sequence number. The
    /// caller hands over the curve (its one clone, if it keeps its own).
    pub fn push(
        &mut self,
        id: u64,
        tenant: u64,
        arrival: f64,
        deadline: f64,
        accuracy: PwlAccuracy,
    ) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        // In order already when nothing waits in the tail and no merged
        // deadline is later (the sequence number is the largest).
        if self.merged == self.rows.len()
            && self
                .rows
                .last()
                .is_none_or(|last| last.deadline.total_cmp(&deadline).is_le())
        {
            self.merged += 1;
        }
        self.rows.push(PoolRow {
            id,
            tenant,
            arrival,
            deadline,
            seq,
        });
        self.inst.tasks_mut().push(Task::new(deadline, accuracy));
        seq
    }

    /// The pool at time `now` under `budget` (clamped at zero): merges
    /// the tail, writes `d_j − now` into every row and the budget into
    /// the instance. Allocates nothing once the merge buffers are warm.
    /// `None` when nothing is pooled or no machine is alive. Expired
    /// rows must have been purged at `now` first. A caller that wants
    /// the read held to the reference builder calls
    /// [`Self::assert_matches_reference`] after it (test and debug
    /// builds), which allocates.
    pub fn read_at(&mut self, now: f64, budget: f64) -> Option<&Instance> {
        if self.rows.is_empty() || self.machine_ids.is_empty() {
            return None;
        }
        self.merge_tail();
        debug_assert!(
            self.rows[0].deadline - now > EPS_TIME,
            "purge the pool before reading it"
        );
        for (task, row) in self.inst.tasks_mut().iter_mut().zip(&self.rows) {
            task.deadline = row.deadline - now;
        }
        self.inst.set_budget(budget.max(0.0));
        Some(&self.inst)
    }

    /// Merges the tail into the ordered rows: sorts the tail, then
    /// interleaves it with the ordered rows from the first one that sorts
    /// after the tail's smallest.
    fn merge_tail(&mut self) {
        if self.merged == self.rows.len() {
            return;
        }
        let tasks = self.inst.tasks_mut();
        self.spare_tail.extend(
            self.rows
                .drain(self.merged..)
                .zip(tasks.drain(self.merged..)),
        );
        self.spare_tail.sort_unstable_by(|a, b| a.0.order(&b.0));
        let first = self.spare_tail[0].0;
        let from = self.rows.partition_point(|r| r.order(&first).is_lt());
        self.spare_head
            .extend(self.rows.drain(from..).zip(tasks.drain(from..)));
        let mut head = self.spare_head.drain(..).peekable();
        let mut tail = self.spare_tail.drain(..).peekable();
        loop {
            let next = match (head.peek(), tail.peek()) {
                (Some(h), Some(t)) if h.0.order(&t.0).is_lt() => head.next(),
                (_, Some(_)) => tail.next(),
                (Some(_), None) => head.next(),
                (None, None) => break,
            };
            let (row, task) = next.expect("peeked");
            self.rows.push(row);
            tasks.push(task);
        }
        self.merged = self.rows.len();
        debug_assert!(self.rows.windows(2).all(|w| w[0].order(&w[1]).is_lt()));
    }

    /// Position of the row with this absolute deadline and sequence
    /// number among the ordered rows — every row a read has seen; the
    /// tail of later admissions is not searched.
    pub fn position_of(&self, deadline: f64, seq: u64) -> Option<usize> {
        let ordered = &self.rows[..self.merged];
        let i = ordered.partition_point(|r| order(deadline, seq, r).is_gt());
        ordered.get(i).is_some_and(|r| r.seq == seq).then_some(i)
    }

    /// Moves ordered row `pos` out (a dispatch, or a candidate popped
    /// after its trial solve). Rows after it shift up by one; nothing is
    /// cloned.
    pub fn remove(&mut self, pos: usize) -> (PoolRow, Task) {
        assert!(pos < self.merged, "only ordered rows are removed");
        self.merged -= 1;
        (self.rows.remove(pos), self.inst.tasks_mut().remove(pos))
    }

    /// Puts a row [`Self::remove`] took back at `pos`, which must be its
    /// place among the ordered rows.
    pub fn insert(&mut self, pos: usize, row: PoolRow, task: Task) {
        debug_assert!(pos <= self.merged);
        debug_assert!(pos == 0 || self.rows[pos - 1].order(&row).is_lt());
        debug_assert!(pos == self.merged || row.order(&self.rows[pos]).is_lt());
        self.rows.insert(pos, row);
        self.inst.tasks_mut().insert(pos, task);
        self.merged += 1;
    }

    /// Moves out every row whose deadline is at most [`EPS_TIME`] after
    /// `now`: the expired prefix of the ordered rows, then any in the
    /// tail. Allocates only when something expired.
    pub fn purge_expired(&mut self, now: f64) -> Vec<(PoolRow, Task)> {
        let live = |r: &PoolRow| r.deadline - now > EPS_TIME;
        // The common case, checked first: the ordered rows start live and
        // the tail is live.
        if self.rows[..self.merged].first().is_none_or(live)
            && self.rows[self.merged..].iter().all(live)
        {
            return Vec::new();
        }
        let k = self.rows[..self.merged].partition_point(|r| !live(r));
        let tasks = self.inst.tasks_mut();
        let mut expired: Vec<(PoolRow, Task)> =
            self.rows.drain(..k).zip(tasks.drain(..k)).collect();
        self.merged -= k;
        let mut i = self.merged;
        while i < self.rows.len() {
            if live(&self.rows[i]) {
                i += 1;
            } else {
                expired.push((self.rows.remove(i), tasks.remove(i)));
            }
        }
        expired
    }

    /// Moves out every row `take` selects, in admission order; the rest
    /// keep their order.
    pub fn drain_where(&mut self, mut take: impl FnMut(&PoolRow) -> bool) -> Vec<(PoolRow, Task)> {
        let tasks = self.inst.tasks_mut();
        self.spare_head
            .extend(self.rows.drain(..).zip(tasks.drain(..)));
        let merged = self.merged;
        let mut taken = Vec::new();
        for (i, (row, task)) in self.spare_head.drain(..).enumerate() {
            if take(&row) {
                taken.push((row, task));
                if i < merged {
                    self.merged -= 1;
                }
            } else {
                self.rows.push(row);
                tasks.push(task);
            }
        }
        taken.sort_unstable_by_key(|(row, _)| row.seq);
        taken
    }

    /// Cross-check of a read at `now`: the instance equals the reference
    /// builder's, built from scratch from the rows in admission order, up
    /// to the order of rows whose distinct absolute deadlines share a
    /// residual deadline (see the module docs). Panics otherwise.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_matches_reference(&self, now: f64) {
        let mut by_seq: Vec<usize> = (0..self.rows.len()).collect();
        by_seq.sort_unstable_by_key(|&i| self.rows[i].seq);
        let items = by_seq
            .iter()
            .map(|&i| ResidualItem {
                id: self.rows[i].seq,
                deadline: self.rows[i].deadline,
                accuracy: self.inst.task(i).accuracy.clone(),
            })
            .collect();
        let reference = residual_instance(items, now, self.inst.machines(), self.inst.budget())
            .expect("pooled rows have finite deadlines")
            .expect("a read pool has live rows");
        assert!(reference.expired.is_empty(), "pool read with expired rows");
        assert_eq!(reference.instance.budget(), self.inst.budget());
        for (j, &seq) in reference.task_ids.iter().enumerate() {
            let k = by_seq[by_seq
                .binary_search_by_key(&seq, |&i| self.rows[i].seq)
                .expect("every reference row is pooled")];
            let expected = reference.instance.task(j);
            assert_eq!(self.inst.task(k), expected, "row {k} (seq {seq}) at {now}");
            // Elsewhere only inside a group of equal residual deadlines.
            assert_eq!(
                reference.instance.task(k).deadline,
                expected.deadline,
                "seq {seq} left its tie group at {now}"
            );
        }
    }
}

/// One pending task submitted to the reference builder: a caller-stable
/// id, an *absolute* deadline, and the accuracy function.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidualItem {
    pub id: u64,
    pub deadline: f64,
    pub accuracy: PwlAccuracy,
}

/// The reference builder's result: the residual instance, the caller id
/// of each of its tasks, and the ids of the expired items it left out.
#[cfg(any(test, debug_assertions))]
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ResidualInstance {
    pub instance: Instance,
    pub task_ids: Vec<u64>,
    pub expired: Vec<u64>,
}

/// The reference builder a [`ResidualPool`] read must agree with: the
/// residual instance of `items` at `now`, built from scratch. Items with
/// `deadline − now <= EPS_TIME` are expired; the rest are stably sorted
/// by residual deadline (ties keep the input order). `Ok(None)` when no
/// item is live. The budget is clamped at zero.
#[cfg(any(test, debug_assertions))]
pub(crate) fn residual_instance(
    items: Vec<ResidualItem>,
    now: f64,
    machines: &MachinePark,
    remaining_budget: f64,
) -> Result<Option<ResidualInstance>, crate::problem::ProblemError> {
    let mut expired = Vec::new();
    let mut live: Vec<(u64, f64, PwlAccuracy)> = Vec::with_capacity(items.len());
    for item in items {
        let residual = item.deadline - now;
        if residual <= EPS_TIME {
            expired.push(item.id);
        } else {
            live.push((item.id, residual, item.accuracy));
        }
    }
    if live.is_empty() {
        return Ok(None);
    }
    live.sort_by(|a, b| a.1.total_cmp(&b.1));
    let task_ids: Vec<u64> = live.iter().map(|&(id, _, _)| id).collect();
    let tasks: Vec<Task> = live
        .into_iter()
        .map(|(_, d, acc)| Task::new(d, acc))
        .collect();
    let instance = Instance::new(tasks, machines.clone(), remaining_budget.max(0.0))?;
    Ok(Some(ResidualInstance {
        instance,
        task_ids,
        expired,
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_machines::Machine;
    use proptest::prelude::*;

    fn acc() -> PwlAccuracy {
        PwlAccuracy::new(&[(0.0, 0.0), (100.0, 0.5), (300.0, 0.8)]).unwrap()
    }

    /// A curve that differs per `k`, so a misplaced row shows.
    fn acc_k(k: u64) -> PwlAccuracy {
        let f = 100.0 + k as f64;
        PwlAccuracy::new(&[(0.0, 0.0), (f, 0.5), (3.0 * f, 0.8)]).unwrap()
    }

    fn park() -> MachinePark {
        MachinePark::new(vec![Machine::from_efficiency(1000.0, 40.0).unwrap()])
    }

    fn item(id: u64, deadline: f64) -> ResidualItem {
        ResidualItem {
            id,
            deadline,
            accuracy: acc(),
        }
    }

    #[test]
    fn shifts_deadlines_and_sorts_stably() {
        let items = vec![item(7, 5.0), item(3, 2.0), item(9, 5.0)];
        let r = residual_instance(items, 1.0, &park(), 10.0)
            .unwrap()
            .unwrap();
        // Sorted by residual deadline; the 5.0 tie keeps input order.
        assert_eq!(r.task_ids, vec![3, 7, 9]);
        assert!((r.instance.task(0).deadline - 1.0).abs() < 1e-12);
        assert!((r.instance.task(1).deadline - 4.0).abs() < 1e-12);
        assert!(r.expired.is_empty());
    }

    #[test]
    fn expired_items_are_excluded() {
        let items = vec![item(0, 0.5), item(1, 3.0)];
        let r = residual_instance(items, 1.0, &park(), 10.0)
            .unwrap()
            .unwrap();
        assert_eq!(r.expired, vec![0]);
        assert_eq!(r.task_ids, vec![1]);
    }

    #[test]
    fn all_expired_yields_none() {
        let items = vec![item(0, 0.5), item(1, 0.9)];
        assert_eq!(residual_instance(items, 1.0, &park(), 10.0), Ok(None));
    }

    #[test]
    fn at_time_zero_reproduces_the_offline_instance() {
        let offline = Instance::new(
            vec![Task::new(1.0, acc()), Task::new(2.0, acc())],
            park(),
            7.0,
        )
        .unwrap();
        let items = vec![item(0, 1.0), item(1, 2.0)];
        let r = residual_instance(items, 0.0, &park(), 7.0)
            .unwrap()
            .unwrap();
        assert_eq!(r.instance, offline);
        // The pool reads the same instance, whatever the admission order.
        let mut pool = ResidualPool::new(park());
        pool.push(1, 0, 0.0, 2.0, acc());
        pool.push(0, 0, 0.0, 1.0, acc());
        assert_eq!(pool.read_at(0.0, 7.0), Some(&offline));
        assert_eq!(pool.rows()[0].id, 0);
    }

    #[test]
    fn negative_budget_clamps_to_zero() {
        let items = vec![item(0, 2.0)];
        let r = residual_instance(items, 0.0, &park(), -3.0)
            .unwrap()
            .unwrap();
        assert_eq!(r.instance.budget(), 0.0);
        let mut pool = ResidualPool::new(park());
        pool.push(0, 0, 0.0, 2.0, acc());
        assert_eq!(pool.read_at(0.0, -3.0).unwrap().budget(), 0.0);
    }

    #[test]
    fn an_empty_or_dead_pool_reads_none() {
        let mut pool = ResidualPool::new(park());
        assert!(pool.read_at(0.0, 1.0).is_none());
        pool.push(0, 0, 0.0, 2.0, acc());
        pool.set_park(None);
        assert!(pool.read_at(0.0, 1.0).is_none());
        pool.set_park(Some((park(), vec![0])));
        assert!(pool.read_at(0.0, 1.0).is_some());
    }

    /// Two distinct absolute deadlines whose residuals round to one
    /// value: `1 + 2u − u/2` and `1 + 3u − u/2` are both ties of the
    /// round-to-even rule and land on `1 + 2u`. The reference keeps
    /// admission order (the later deadline was admitted first); the pool
    /// keeps the true deadline order, and that order is pinned.
    #[test]
    fn a_collapsed_tie_reads_in_deadline_order() {
        let u = f64::EPSILON;
        let (early, late, now) = (1.0 + 2.0 * u, 1.0 + 3.0 * u, u / 2.0);
        assert_eq!(early - now, late - now, "the residuals collapse");
        let mut pool = ResidualPool::new(park());
        pool.push(10, 0, 0.0, late, acc_k(1));
        pool.push(11, 0, 0.0, early, acc_k(2));
        pool.read_at(now, 5.0).expect("live rows");
        let ids: Vec<u64> = pool.rows().iter().map(|r| r.id).collect();
        assert_eq!(ids, [11, 10], "the pool reads in true deadline order");
        // The cross-check allows exactly this reordering.
        pool.assert_matches_reference(now);
        let items = vec![
            ResidualItem {
                id: 10,
                deadline: late,
                accuracy: acc_k(1),
            },
            ResidualItem {
                id: 11,
                deadline: early,
                accuracy: acc_k(2),
            },
        ];
        let reference = residual_instance(items, now, &park(), 5.0)
            .unwrap()
            .unwrap();
        assert_eq!(
            reference.task_ids,
            [10, 11],
            "the reference keeps admission order"
        );
    }

    /// One step of a pool's life.
    #[derive(Debug, Clone)]
    enum Op {
        /// Admit a task with deadline `now + grid step`; a coarse grid,
        /// so absolute deadlines tie.
        Append { step: u32, tenant: u64 },
        /// Advance the clock (possibly by zero), purge and read.
        Read { dt: u32 },
        /// Dispatch the row at this fraction of the rows a read has seen.
        Dispatch { at: u32 },
        /// Purge at the current time without reading.
        Purge,
        /// Drain one tenant.
        Drain { tenant: u64 },
        /// Re-append the last dispatched task with a fresh curve, as a
        /// failure remnant does.
        Remnant,
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u32..12, 0u64..3).prop_map(|(step, tenant)| Op::Append { step, tenant }),
            (1u32..12, 0u64..3).prop_map(|(step, tenant)| Op::Append { step, tenant }),
            (0u32..4).prop_map(|dt| Op::Read { dt }),
            (0u32..1000).prop_map(|at| Op::Dispatch { at }),
            Just(Op::Purge),
            (0u64..3).prop_map(|tenant| Op::Drain { tenant }),
            Just(Op::Remnant),
        ]
    }

    /// The model: rows in admission order with their curves.
    type Model = Vec<(PoolRow, PwlAccuracy)>;

    fn assert_same_rows(pool: &ResidualPool, model: &Model) -> Result<(), TestCaseError> {
        let mut rows: Vec<(PoolRow, PwlAccuracy)> = pool
            .rows()
            .iter()
            .zip(pool.instance().tasks())
            .map(|(r, t)| (*r, t.accuracy.clone()))
            .collect();
        rows.sort_by_key(|(r, _)| r.seq);
        prop_assert_eq!(&rows, model);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random appends, reads at non-decreasing times, dispatches,
        /// purges, tenant drains and remnant re-appends: the pool always
        /// holds the model's rows, drains hand them back in admission
        /// order, and every read equals the reference builder's instance
        /// of the model (collapsed ties aside, which a coarse grid never
        /// makes).
        #[test]
        fn pool_reads_match_the_reference_builder(ops in proptest::collection::vec(arb_op(), 1..60)) {
            let mut pool = ResidualPool::new(park());
            let mut model: Model = Vec::new();
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut last_dispatched: Option<PoolRow> = None;
            for op in ops {
                match op {
                    Op::Append { step, tenant } => {
                        let deadline = (now / 0.25).floor() * 0.25 + 0.25 * step as f64;
                        let curve = acc_k(next_id);
                        let seq = pool.push(next_id, tenant, now, deadline, curve.clone());
                        model.push((
                            PoolRow { id: next_id, tenant, arrival: now, deadline, seq },
                            curve,
                        ));
                        next_id += 1;
                    }
                    Op::Read { dt } => {
                        now += 0.125 * dt as f64;
                        pool.purge_expired(now);
                        model.retain(|(r, _)| r.deadline - now > EPS_TIME);
                        let items: Vec<ResidualItem> = model
                            .iter()
                            .map(|(r, a)| ResidualItem { id: r.seq, deadline: r.deadline, accuracy: a.clone() })
                            .collect();
                        let reference = residual_instance(items, now, &park(), 3.0).unwrap();
                        let read = pool.read_at(now, 3.0).cloned();
                        match reference {
                            None => prop_assert!(read.is_none()),
                            Some(reference) => {
                                prop_assert_eq!(read.as_ref(), Some(&reference.instance));
                                let seqs: Vec<u64> = pool.rows().iter().map(|r| r.seq).collect();
                                prop_assert_eq!(seqs, reference.task_ids);
                                pool.assert_matches_reference(now);
                            }
                        }
                    }
                    Op::Dispatch { at } => {
                        // Only rows a read has seen are queued for dispatch.
                        let seen = pool.merged;
                        if seen > 0 {
                            let row = pool.rows()[at as usize * seen / 1000];
                            let pos = pool.position_of(row.deadline, row.seq).expect("pooled");
                            let (taken, task) = pool.remove(pos);
                            prop_assert_eq!(taken, row);
                            let m = model.iter().position(|(r, _)| r.seq == row.seq).unwrap();
                            prop_assert_eq!(&model.remove(m).1, &task.accuracy);
                            last_dispatched = Some(row);
                        }
                    }
                    Op::Purge => {
                        let mut expired: Vec<u64> =
                            pool.purge_expired(now).into_iter().map(|(r, _)| r.seq).collect();
                        expired.sort_unstable();
                        let want: Vec<u64> = model
                            .iter()
                            .filter(|(r, _)| r.deadline - now <= EPS_TIME)
                            .map(|(r, _)| r.seq)
                            .collect();
                        prop_assert_eq!(expired, want);
                        model.retain(|(r, _)| r.deadline - now > EPS_TIME);
                    }
                    Op::Drain { tenant } => {
                        let drained: Vec<u64> =
                            pool.drain_where(|r| r.tenant == tenant).into_iter().map(|(r, _)| r.seq).collect();
                        let want: Vec<u64> = model
                            .iter()
                            .filter(|(r, _)| r.tenant == tenant)
                            .map(|(r, _)| r.seq)
                            .collect();
                        prop_assert_eq!(drained, want);
                        model.retain(|(r, _)| r.tenant != tenant);
                    }
                    Op::Remnant => {
                        if let Some(row) = last_dispatched.take() {
                            let curve = acc_k(1000 + row.id);
                            let seq = pool.push(row.id, row.tenant, now, row.deadline, curve.clone());
                            model.push((PoolRow { arrival: now, seq, ..row }, curve));
                        }
                    }
                }
                assert_same_rows(&pool, &model)?;
            }
        }
    }
}
