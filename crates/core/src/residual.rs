//! The pending pool of a rolling-horizon re-planner, kept as the
//! residual instance the solver reads and as that instance's evaluator.
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
//! # The evaluator
//!
//! The pool also holds the [`NaiveSolver`] of its rows
//! ([`ResidualPool::evaluator`]), which a re-plan solves and certifies
//! on, and pays per read only for the rows that arrived or left since
//! the last one. A row's positive-gain segments are collected once, when
//! it joins ([`ResidualPool::push`], or [`ResidualPool::insert`] putting
//! a popped candidate back), while its curve is hot. A read then, in one
//! pass over the lanes, drops the segments of rows that left (dispatch,
//! expiry, drain, a popped candidate) and renumbers the surviving ones
//! to their rows' new places; it sorts the joining rows' segments with
//! the build's own sort ([`crate::soa::slope_order_into`]) and merges
//! them in from the back, so it moves only the surviving segments that
//! sort after the first joining one. A read where no row joined or left
//! touches no lane. It writes the deadlines and the base accuracy as it
//! writes the instance; [`ResidualPool::set_park`] writes the speeds. A
//! read that returns `None` (nothing pooled, or every machine dead) keeps
//! only the collected segments of rows still waiting to be merged.
//!
//! The lanes keep the order [`NaiveSolver::new_in`]'s sort gives them:
//! slope descending by `f64::total_cmp`, then row, then position within
//! the row. Survivors keep their relative row order across a read
//! (removals and the tail merge never reorder two rows), so renumbering
//! keeps them in lane order; a joining row is never a surviving one, so a
//! slope tie between a surviving and a joining segment is broken by the
//! row index alone. [`ResidualPool::assert_evaluator_matches_reference`]
//! (test and debug builds) holds a read's evaluator to a fresh build, bit
//! for bit; the online service calls it after every read in debug builds.
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

use crate::algo_naive::NaiveSolver;
use crate::problem::{Instance, Task};
use crate::soa::{carries_gain, slope_order_into, JoiningSegment, GONE};
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

/// Where a row's segments are, beside the row.
#[derive(Debug, Clone, Copy)]
enum Slot {
    /// In the evaluator's lanes, under the row's index as of the last
    /// read.
    Read(u32),
    /// Collected in `fresh[from..to]` since, for the next read to merge.
    Fresh { from: u32, to: u32 },
}

/// A row moved out of the pool for a merge or a drain, with its task and
/// its slot.
type Moved = (PoolRow, Task, Slot);

/// A pending pool stored as its residual [`Instance`] and that
/// instance's evaluator; see the module docs.
#[derive(Debug, Clone)]
pub struct ResidualPool {
    /// One task row per pooled task; deadlines are residual as of the
    /// last read (absolute in rows appended since).
    inst: Instance,
    /// `rows[i]` describes `inst.task(i)`.
    rows: Vec<PoolRow>,
    /// `slots[i]` says where `rows[i]`'s segments are.
    slots: Vec<Slot>,
    /// `rows[..merged]` are in [`PoolRow::order`]; the rest is the tail
    /// of admissions since, in append order.
    merged: usize,
    next_seq: u64,
    /// Original park index of each machine of `inst`'s sub-park; empty
    /// while no machine is alive.
    machine_ids: Arc<[usize]>,
    /// Reused buffers of the tail merge.
    spare_head: Vec<Moved>,
    spare_tail: Vec<Moved>,
    /// The evaluator and what keeps it in step, boxed only to keep the
    /// pool, and the online cell that embeds it, small: held inline it
    /// adds 264 B to a cell. Whether that size moves a cell's set-up
    /// cost is unresolved: measured both ways, it was bimodal.
    up: Box<Upkeep>,
}

/// A [`ResidualPool`]'s evaluator and the buffers that keep it in step
/// with the rows.
#[derive(Debug, Clone)]
struct Upkeep {
    /// The evaluator of the pool's instance as of the last read.
    eval: NaiveSolver,
    /// The positive-gain segments of every row that joined since the
    /// last read (and of some that left again), in joining order, each
    /// row's in position order.
    fresh: Vec<JoiningSegment>,
    /// Reused buffers of the lane merge: the new index of each row of
    /// the last read, the joining rows' segments in (row, position)
    /// order, and their lane order.
    remap: Vec<u32>,
    joining: Vec<JoiningSegment>,
    order: Vec<u64>,
}

impl ResidualPool {
    /// An empty pool over `machines`, every machine alive.
    pub fn new(machines: MachinePark) -> Self {
        let machine_ids = (0..machines.len()).collect();
        let eval = NaiveSolver::for_park(&machines);
        Self {
            inst: Instance::empty(machines),
            rows: Vec::new(),
            slots: Vec::new(),
            merged: 0,
            next_seq: 0,
            machine_ids,
            spare_head: Vec::new(),
            spare_tail: Vec::new(),
            up: Box::new(Upkeep {
                eval,
                fresh: Vec::new(),
                remap: Vec::new(),
                joining: Vec::new(),
                order: Vec::new(),
            }),
        }
    }

    /// Replaces the sub-park reads solve on: alive machines at their
    /// current speeds plus each one's original park index, or `None`
    /// once every machine is dead (reads then return `None`).
    pub fn set_park(&mut self, park: Option<(MachinePark, Vec<usize>)>) {
        match park {
            Some((machines, ids)) => {
                debug_assert_eq!(machines.len(), ids.len());
                self.up.eval.set_speeds(&machines);
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

    /// The evaluator of [`Self::instance`] as of the last read that
    /// returned it. Rows that joined or left since show in it only after
    /// the next read.
    pub fn evaluator(&self) -> &NaiveSolver {
        &self.up.eval
    }

    /// Whether `id` is pooled.
    pub fn contains_id(&self, id: u64) -> bool {
        self.rows.iter().any(|r| r.id == id)
    }

    /// Appends a task to the tail and returns its sequence number. The
    /// caller hands over the curve (its one clone, if it keeps its own);
    /// its segments are collected here, for the next read's lane merge.
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
        let slot = self.collect_segments(&accuracy);
        self.slots.push(slot);
        self.inst.tasks_mut().push(Task::new(deadline, accuracy));
        seq
    }

    /// Collects a joining row's positive-gain segments into `fresh`.
    fn collect_segments(&mut self, accuracy: &PwlAccuracy) -> Slot {
        let from = self.up.fresh.len();
        self.up.fresh.extend(
            accuracy
                .segments()
                .filter(|s| carries_gain(s.width(), s.slope))
                .map(|s| JoiningSegment {
                    task: GONE,
                    width: s.width(),
                    slope: s.slope,
                }),
        );
        let index = |k: usize| u32::try_from(k).expect("fresh segments overflow a slot");
        Slot::Fresh {
            from: index(from),
            to: index(self.up.fresh.len()),
        }
    }

    /// The pool at time `now` under `budget` (clamped at zero): merges
    /// the tail, writes `d_j − now` into every row and the budget into
    /// the instance, and brings the evaluator in step with it (see the
    /// module docs). Allocates nothing once the merge buffers are warm.
    /// `None` when nothing is pooled or no machine is alive; such a read
    /// only drops the collected segments of rows that left, so they do not
    /// pile up over an outage. Expired rows must have been purged at
    /// `now` first. A caller that wants
    /// the read held to the reference builders calls
    /// [`Self::assert_matches_reference`] and
    /// [`Self::assert_evaluator_matches_reference`] after it (test and
    /// debug builds), which allocate.
    pub fn read_at(&mut self, now: f64, budget: f64) -> Option<&Instance> {
        if self.rows.is_empty() || self.machine_ids.is_empty() {
            self.compact_fresh();
            return None;
        }
        self.merge_tail();
        debug_assert!(
            self.rows[0].deadline - now > EPS_TIME,
            "purge the pool before reading it"
        );
        self.merge_lanes();
        self.up.eval.deadlines.clear();
        for (task, row) in self.inst.tasks_mut().iter_mut().zip(&self.rows) {
            task.deadline = row.deadline - now;
            self.up.eval.deadlines.push(task.deadline);
        }
        self.up.eval.base_accuracy = self.inst.total_min_accuracy();
        self.inst.set_budget(budget.max(0.0));
        Some(&self.inst)
    }

    /// Brings the evaluator's lanes to the rows as they stand: drops the
    /// segments of rows that left since the last read, renumbers the
    /// rest, and merges in the segments collected since, in lane order. Skips
    /// the lane pass when no row joined or left.
    fn merge_lanes(&mut self) {
        let up = &mut *self.up;
        let read = up.eval.deadlines.len();
        let unchanged = read == self.rows.len()
            && (self.slots.iter().enumerate())
                .all(|(i, slot)| matches!(*slot, Slot::Read(k) if k as usize == i));
        if unchanged {
            up.fresh.clear();
            return;
        }
        up.remap.clear();
        up.remap.resize(read, GONE);
        up.joining.clear();
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let i = u32::try_from(i).expect("rows overflow the lane index");
            match *slot {
                Slot::Read(k) => up.remap[k as usize] = i,
                Slot::Fresh { from, to } => {
                    let segments = &up.fresh[from as usize..to as usize];
                    up.joining
                        .extend(segments.iter().map(|&s| JoiningSegment { task: i, ..s }));
                }
            }
            *slot = Slot::Read(i);
        }
        up.fresh.clear();
        let joining = &up.joining;
        slope_order_into(joining.len(), |k| joining[k].slope, &mut up.order);
        up.eval
            .lanes
            .renumber_merge(&up.remap, &up.joining, &up.order);
    }

    /// Keeps in `fresh` only the segments of the rows still waiting for
    /// a read to merge them, renumbering their slots.
    fn compact_fresh(&mut self) {
        let up = &mut *self.up;
        up.joining.clear();
        for slot in &mut self.slots {
            if let Slot::Fresh { from, to } = slot {
                let start = up.joining.len();
                up.joining
                    .extend_from_slice(&up.fresh[*from as usize..*to as usize]);
                // No longer than `fresh`, whose ends `collect_segments` checked.
                (*from, *to) = (start as u32, up.joining.len() as u32);
            }
        }
        std::mem::swap(&mut up.fresh, &mut up.joining);
    }

    /// Merges the tail into the ordered rows: sorts the tail, then
    /// interleaves it with the ordered rows from the first one that sorts
    /// after the tail's smallest.
    fn merge_tail(&mut self) {
        if self.merged == self.rows.len() {
            return;
        }
        let tasks = self.inst.tasks_mut();
        self.spare_tail
            .extend(moved(&mut self.rows, tasks, &mut self.slots, self.merged..));
        self.spare_tail.sort_unstable_by(|a, b| a.0.order(&b.0));
        let first = self.spare_tail[0].0;
        let from = self.rows.partition_point(|r| r.order(&first).is_lt());
        self.spare_head
            .extend(moved(&mut self.rows, tasks, &mut self.slots, from..));
        let mut head = self.spare_head.drain(..).peekable();
        let mut tail = self.spare_tail.drain(..).peekable();
        loop {
            let next = match (head.peek(), tail.peek()) {
                (Some(h), Some(t)) if h.0.order(&t.0).is_lt() => head.next(),
                (_, Some(_)) => tail.next(),
                (Some(_), None) => head.next(),
                (None, None) => break,
            };
            let (row, task, slot) = next.expect("peeked");
            self.rows.push(row);
            tasks.push(task);
            self.slots.push(slot);
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
        self.slots.remove(pos);
        (self.rows.remove(pos), self.inst.tasks_mut().remove(pos))
    }

    /// Puts a row [`Self::remove`] took back at `pos`, which must be its
    /// place among the ordered rows. Its segments are collected again, for
    /// the next read's lane merge.
    pub fn insert(&mut self, pos: usize, row: PoolRow, task: Task) {
        debug_assert!(pos <= self.merged);
        debug_assert!(pos == 0 || self.rows[pos - 1].order(&row).is_lt());
        debug_assert!(pos == self.merged || row.order(&self.rows[pos]).is_lt());
        let slot = self.collect_segments(&task.accuracy);
        self.slots.insert(pos, slot);
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
        self.slots.drain(..k);
        let mut expired: Vec<(PoolRow, Task)> =
            self.rows.drain(..k).zip(tasks.drain(..k)).collect();
        self.merged -= k;
        let mut i = self.merged;
        while i < self.rows.len() {
            if live(&self.rows[i]) {
                i += 1;
            } else {
                self.slots.remove(i);
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
            .extend(moved(&mut self.rows, tasks, &mut self.slots, ..));
        let merged = self.merged;
        let mut taken = Vec::new();
        for (i, (row, task, slot)) in self.spare_head.drain(..).enumerate() {
            if take(&row) {
                taken.push((row, task));
                if i < merged {
                    self.merged -= 1;
                }
            } else {
                self.rows.push(row);
                tasks.push(task);
                self.slots.push(slot);
            }
        }
        taken.sort_unstable_by_key(|(row, _)| row.seq);
        taken
    }

    /// Cross-check of a read at `now`: [`Self::evaluator`] equals a fresh
    /// [`NaiveSolver::new_in`] build on [`Self::instance`], bit for bit
    /// (see [`NaiveSolver`]'s fields). Call it right after the read;
    /// panics otherwise.
    #[cfg(any(test, debug_assertions))]
    pub fn assert_evaluator_matches_reference(&self, now: f64) {
        self.up
            .eval
            .assert_same_bits(&NaiveSolver::new(&self.inst), now);
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

/// Drains `range` of the parallel rows, tasks and slots as [`Moved`]
/// triples.
fn moved<'a>(
    rows: &'a mut Vec<PoolRow>,
    tasks: &'a mut Vec<Task>,
    slots: &'a mut Vec<Slot>,
    range: impl std::ops::RangeBounds<usize> + Clone,
) -> impl Iterator<Item = Moved> + 'a {
    rows.drain(range.clone())
        .zip(tasks.drain(range.clone()))
        .zip(slots.drain(range))
        .map(|((row, task), slot)| (row, task, slot))
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

    /// Admissions and expiries while every machine is dead, with reads
    /// that return `None` between them: the collected segments of rows that
    /// left do not pile up, and the first read after the outage merges
    /// the rest into the reference evaluator.
    #[test]
    fn collected_segments_stay_bounded_over_an_outage() {
        let mut pool = ResidualPool::new(park());
        pool.set_park(None);
        let mut now = 0.0;
        for k in 0..200 {
            pool.push(k, k % 2, now, now + 1.0, acc());
            now += 0.25;
            pool.purge_expired(now);
            assert!(pool.read_at(now, 5.0).is_none());
            // `acc` has two positive-gain segments.
            assert_eq!(pool.up.fresh.len(), 2 * pool.len());
        }
        pool.drain_where(|r| r.tenant == 0);
        assert!(pool.read_at(now, 5.0).is_none());
        assert_eq!(pool.up.fresh.len(), 2 * pool.len());
        pool.set_park(Some((park(), vec![0])));
        assert!(pool.read_at(now, 5.0).is_some());
        pool.assert_evaluator_matches_reference(now);
        pool.drain_where(|_| true);
        assert!(pool.read_at(now, 5.0).is_none());
        assert!(pool.up.fresh.is_empty());
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

    /// The curve of a row admitted as the `id`-th, of family `shape`:
    /// 0 differs per `id`, so a misplaced row shows, and starts at an
    /// inexact base accuracy, so a base summed out of row order shows; 1
    /// draws its slopes
    /// from three exact powers of two, so slopes tie across rows; 2 adds
    /// a flat last segment (zero slope, kept out of the lanes) and, when
    /// `id` is odd, a sliver of width 2⁻³⁰ that ties its neighbour's
    /// slope inside the row.
    fn curve(shape: u8, id: u64) -> PwlAccuracy {
        let a0 = 0.125 * (id % 2) as f64;
        match shape {
            0 => {
                let (f, b) = (100.0 + id as f64, 0.1 * (id % 7) as f64 / 3.0);
                PwlAccuracy::new(&[(0.0, b), (f, b + 0.5), (3.0 * f, b + 0.8)]).unwrap()
            }
            1 => {
                let w = 32.0 * (1 + id % 4) as f64;
                let slopes = [1.0 / 128.0, 1.0 / 256.0, 1.0 / 512.0];
                let mut points = vec![(0.0, a0)];
                for s in &slopes[(id % 2) as usize..] {
                    let &(f, a) = points.last().unwrap();
                    points.push((f + w, a + w * s));
                }
                PwlAccuracy::new(&points).unwrap()
            }
            _ => {
                let w = 64.0 * (1 + id % 3) as f64;
                let s = 1.0 / 256.0;
                let mut points = vec![(0.0, a0), (w, a0 + w * s)];
                if id % 2 == 1 {
                    let sliver = 2f64.powi(-30);
                    points.push((w + sliver, a0 + (w + sliver) * s));
                }
                let &(f, a) = points.last().unwrap();
                points.push((f + w, a));
                PwlAccuracy::new(&points).unwrap()
            }
        }
    }

    /// What a failure remnant re-pools: `curve` with its first `done`
    /// GFLOP cut off, as the online service shifts it.
    fn shifted(curve: &PwlAccuracy, done: f64) -> Option<PwlAccuracy> {
        let a0 = curve.eval(done);
        let mut points = vec![(0.0, a0)];
        for (&f, &a) in curve.breakpoints().iter().zip(curve.values()) {
            if f > done + 1e-9 {
                points.push((f - done, a.max(a0)));
            }
        }
        PwlAccuracy::new(&points).ok()
    }

    /// The alive sub-park of setting `k`: 0 is [`park`], the rest add
    /// machines and slow some down, as failures and degradations do.
    fn park_k(k: u32) -> (MachinePark, Vec<usize>) {
        let machine = |speed: f64| Machine::from_efficiency(speed, 40.0).unwrap();
        match k {
            0 => (park(), vec![0]),
            1 => (
                MachinePark::new(vec![machine(1000.0), machine(600.0)]),
                vec![0, 1],
            ),
            _ => (MachinePark::new(vec![machine(450.0)]), vec![1]),
        }
    }

    /// One step of a pool's life.
    #[derive(Debug, Clone)]
    enum Op {
        /// Admit a task with deadline `now + grid step`, of curve family
        /// `shape`; a coarse grid, so absolute deadlines tie.
        Append { step: u32, tenant: u64, shape: u8 },
        /// Advance the clock (possibly by zero), purge and read.
        Read { dt: u32 },
        /// Dispatch the row at this fraction of the rows a read has seen.
        Dispatch { at: u32 },
        /// Purge at the current time without reading.
        Purge,
        /// Drain one tenant.
        Drain { tenant: u64 },
        /// Re-append the last dispatched task with its curve shifted by
        /// `done` GFLOP, as a failure remnant does.
        Remnant { done: u32 },
        /// Pop the row at this fraction of the rows a read has seen, as a
        /// rejected candidate leaves, read without it when `read`, and
        /// put it back, as a candidate that passes after all returns.
        PopInsert { at: u32, read: bool },
        /// Set the alive sub-park to [`park_k`]`(k)`, or kill every
        /// machine when `k` is 3.
        Park { k: u32 },
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1u32..12, 0u64..3, 0u8..3).prop_map(|(step, tenant, shape)| Op::Append {
                step,
                tenant,
                shape
            }),
            (1u32..12, 0u64..3, 0u8..3).prop_map(|(step, tenant, shape)| Op::Append {
                step,
                tenant,
                shape
            }),
            (0u32..4).prop_map(|dt| Op::Read { dt }),
            (0u32..1000).prop_map(|at| Op::Dispatch { at }),
            Just(Op::Purge),
            (0u64..3).prop_map(|tenant| Op::Drain { tenant }),
            (0u32..100).prop_map(|done| Op::Remnant { done }),
            (0u32..1000, 0u8..2).prop_map(|(at, read)| Op::PopInsert {
                at,
                read: read == 1
            }),
            (0u32..4).prop_map(|k| Op::Park { k }),
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

        /// Random appends (curves whose slopes tie across and within
        /// rows, flat segments), reads at non-decreasing times,
        /// dispatches, purges, tenant drains, shifted remnant re-appends,
        /// candidates popped and put back, and park changes: the pool
        /// always holds the model's rows, drains hand them back in
        /// admission order, every read equals the reference builder's
        /// instance of the model (collapsed ties aside, which a coarse
        /// grid never makes), and every read's evaluator equals a fresh
        /// build on the read instance, bit for bit.
        #[test]
        fn pool_reads_match_the_reference_builder(ops in proptest::collection::vec(arb_op(), 1..60)) {
            let mut pool = ResidualPool::new(park());
            let mut model: Model = Vec::new();
            let mut now = 0.0f64;
            let mut next_id = 0u64;
            let mut last_dispatched: Option<(PoolRow, PwlAccuracy)> = None;
            let mut alive: Option<MachinePark> = Some(park());
            for op in ops {
                match op {
                    Op::Append { step, tenant, shape } => {
                        let deadline = (now / 0.25).floor() * 0.25 + 0.25 * step as f64;
                        let curve = curve(shape, next_id);
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
                        let read = pool.read_at(now, 3.0).cloned();
                        let Some(machines) = &alive else {
                            prop_assert!(read.is_none());
                            continue;
                        };
                        match residual_instance(items, now, machines, 3.0).unwrap() {
                            None => prop_assert!(read.is_none()),
                            Some(reference) => {
                                prop_assert_eq!(read.as_ref(), Some(&reference.instance));
                                let seqs: Vec<u64> = pool.rows().iter().map(|r| r.seq).collect();
                                prop_assert_eq!(seqs, reference.task_ids);
                                pool.assert_matches_reference(now);
                                pool.assert_evaluator_matches_reference(now);
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
                            last_dispatched = Some((row, task.accuracy));
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
                    Op::Remnant { done } => {
                        let remnant = last_dispatched.take().and_then(|(row, curve)| {
                            let done = curve.f_max() * done as f64 / 100.0;
                            Some(row).zip(shifted(&curve, done))
                        });
                        if let Some((row, curve)) = remnant {
                            let seq = pool.push(row.id, row.tenant, now, row.deadline, curve.clone());
                            model.push((PoolRow { arrival: now, seq, ..row }, curve));
                        }
                    }
                    Op::PopInsert { at, read } => {
                        let seen = pool.merged;
                        if seen > 0 {
                            let (row, task) = pool.remove(at as usize * seen / 1000);
                            if read {
                                prop_assert!(pool.purge_expired(now).is_empty());
                                if pool.read_at(now, 3.0).is_some() {
                                    pool.assert_evaluator_matches_reference(now);
                                }
                            }
                            let pos = pool.rows()[..pool.merged].partition_point(|r| r.order(&row).is_lt());
                            pool.insert(pos, row, task);
                        }
                    }
                    Op::Park { k } => {
                        let park = (k < 3).then(|| park_k(k));
                        alive = park.as_ref().map(|(machines, _)| machines.clone());
                        pool.set_park(park);
                    }
                }
                assert_same_rows(&pool, &model)?;
            }
        }
    }
}
