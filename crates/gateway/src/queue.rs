//! The bounded-mpsc ingress queue and its deterministic merge drain.
//!
//! # Lanes and batches
//!
//! Each producer owns a bounded `std::sync::mpsc::sync_channel` lane.
//! The consumer does not take tasks one at a time. When its batch of a
//! lane runs out, it blocks on one `recv` and then takes whatever else
//! the channel holds, up to half the capacity, with `try_recv`. It heads
//! that lane from the batch until the batch is empty again.
//!
//! *Capacity.* The channel holds `capacity.div_ceil(2)` tasks, and a batch
//! holds at most `capacity / 2` once its first task has become the head.
//! A lane therefore holds at most `capacity` tasks besides its head, as
//! when the whole capacity was the channel. A producer blocks while its
//! channel is full — the backpressure contract of a bounded queue.
//!
//! *Wake policy.* A producer that finds its channel full parks, and the
//! receive that frees a slot wakes it. With the channel kept full and
//! each receive taking one task, that was a wake and a park per task, paid
//! on the consumer's critical path. A batch empties the channel in one go:
//! the producer, woken by its first receive, refills the channel while the
//! consumer works through the batch, and parks again about once per batch.
//! Dropping the queue drops the receivers, so a producer blocked on a full
//! lane fails its send; a dropped producer closes its lane once the
//! consumer has drained what it sent.
//!
//! # Determinism argument
//!
//! The consumer k-way-merges the lane heads by the canonical key
//! `(arrival, tenant, id)` — `total_cmp` on arrival, so the order is
//! total even for adversarial floats. Two facts make the drained
//! sequence a pure function of the task *set*, independent of producer
//! count, interleaving, capacity and batch boundaries:
//!
//! 1. **Per-lane monotonicity is enforced.** A producer must send in
//!    non-decreasing key order; the consumer verifies every task as it
//!    becomes the lane's head — one at a time, in send order, wherever
//!    the batch boundaries fall — and fails with
//!    [`GatewayError::OutOfOrder`] instead of reordering. Each lane is
//!    therefore a sorted run.
//! 2. **The merge never races a lane.** Before emitting anything the
//!    consumer blocks until every open lane has a head, so the minimum it
//!    picks is the global minimum of all unconsumed tasks — exactly what
//!    a single sorted stream would yield. A batch only moves tasks from
//!    the lane's channel to the consumer's side of the same lane, in send
//!    order, so the head sequence of a lane, and with it the merge, is
//!    the one a task-at-a-time drain would see. Lanes are independent (no
//!    producer waits on another), so blocking on one lane cannot deadlock
//!    the rest.
//!
//! A driver that deals a globally sorted task list into contiguous
//! per-producer chunks (what [`crate::replay_gateway`] does) thus
//! drains the identical sequence for 1 producer or 40.
//!
//! The queue also tracks the high-water mark of buffered tasks across
//! all lanes (`max_depth`): a task counts from the start of its `send`
//! until it becomes a lane's head. That number is timing-dependent by
//! nature — it measures how far producers ran ahead — and is reported
//! only in the out-of-digest [`crate::IngestStats`].

use crate::error::GatewayError;
use dsct_workload::OnlineTask;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender};
use std::sync::Arc;

/// The canonical drain key. Arrival first (`total_cmp`), tenant and id
/// as tie-breakers, so tasks sharing a timestamp still have one order.
pub fn drain_key(t: &OnlineTask) -> (f64, u64, u64) {
    (t.arrival, t.tenant, t.id)
}

/// `a < b` under the canonical `(arrival, tenant, id)` key.
fn key_lt(a: &(f64, u64, u64), b: &(f64, u64, u64)) -> bool {
    a.0.total_cmp(&b.0)
        .then(a.1.cmp(&b.1))
        .then(a.2.cmp(&b.2))
        .is_lt()
}

/// A producer handle: a bounded lane into the [`IngressQueue`]. Cheap
/// to move across threads; dropping it closes the lane.
pub struct Producer {
    tx: SyncSender<OnlineTask>,
    depth: Arc<AtomicUsize>,
}

impl Producer {
    /// Enqueues one task, blocking while the lane is full (that is the
    /// backpressure contract of a bounded queue). Returns `false` when
    /// the consumer hung up — the producer should stop.
    pub fn send(&self, task: OnlineTask) -> bool {
        // Count the task as buffered *before* it becomes visible to the
        // consumer, so the depth gauge never undercounts.
        self.depth.fetch_add(1, Ordering::Relaxed);
        if self.tx.send(task).is_err() {
            self.depth.fetch_sub(1, Ordering::Relaxed);
            return false;
        }
        true
    }
}

/// One lane's consumer-side state.
struct Lane {
    rx: Option<Receiver<OnlineTask>>,
    /// Tasks taken off the channel in one go and not yet headed, in
    /// send order.
    batch: VecDeque<OnlineTask>,
    /// The buffered head (the lane's minimum unconsumed task).
    head: Option<OnlineTask>,
    /// Key of the last task headed on this lane, for the monotonicity
    /// check.
    last_key: Option<(f64, u64, u64)>,
}

/// Consumer side of the ingress queue: merges the producer lanes into
/// one deterministic sorted drain. See the module docs for the
/// argument.
pub struct IngressQueue {
    lanes: Vec<Lane>,
    /// Tasks a batch takes with `try_recv` after its blocking `recv`.
    drain: usize,
    depth: Arc<AtomicUsize>,
    max_depth: usize,
}

impl IngressQueue {
    /// Builds a queue with `producers` lanes of `capacity` buffered
    /// tasks each (capacity is clamped to at least 1) and hands back
    /// the producer handles. Each lane's capacity is split between its
    /// channel and the consumer's batch (module docs).
    pub fn new(producers: usize, capacity: usize) -> (IngressQueue, Vec<Producer>) {
        let producers = producers.max(1);
        let capacity = capacity.max(1);
        let depth = Arc::new(AtomicUsize::new(0));
        let mut lanes = Vec::with_capacity(producers);
        let mut handles = Vec::with_capacity(producers);
        for _ in 0..producers {
            let (tx, rx) = std::sync::mpsc::sync_channel(capacity.div_ceil(2));
            lanes.push(Lane {
                rx: Some(rx),
                batch: VecDeque::new(),
                head: None,
                last_key: None,
            });
            handles.push(Producer {
                tx,
                depth: Arc::clone(&depth),
            });
        }
        (
            IngressQueue {
                lanes,
                drain: capacity / 2,
                depth,
                max_depth: 0,
            },
            handles,
        )
    }

    /// Refills lane `i`'s head from its batch. An empty batch is first
    /// refilled from the channel: one blocking `recv` until the producer
    /// sends or hangs up, then what else the channel holds, up to
    /// `drain` more tasks. Enforces per-lane key monotonicity on each
    /// task as it is headed.
    fn refill(&mut self, i: usize) -> Result<(), GatewayError> {
        let lane = &mut self.lanes[i];
        if lane.head.is_some() {
            return Ok(());
        }
        if lane.batch.is_empty() {
            let Some(rx) = lane.rx.as_ref() else {
                return Ok(());
            };
            match rx.recv() {
                Ok(task) => {
                    lane.batch.push_back(task);
                    lane.batch.extend(rx.try_iter().take(self.drain));
                }
                Err(_) => {
                    // Producer hung up: the lane is exhausted.
                    lane.rx = None;
                    return Ok(());
                }
            }
        }
        let task = lane.batch.pop_front().expect("refilled above");
        let d = self.depth.fetch_sub(1, Ordering::Relaxed);
        self.max_depth = self.max_depth.max(d);
        let key = drain_key(&task);
        if let Some(last) = lane.last_key {
            if key_lt(&key, &last) {
                return Err(GatewayError::OutOfOrder {
                    producer: i,
                    task: task.id,
                });
            }
        }
        lane.last_key = Some(key);
        lane.head = Some(task);
        Ok(())
    }

    /// Pops the globally minimal unconsumed task, or `None` when every
    /// lane has closed and drained. Blocks until each open lane has a
    /// head, which is what pins the merge order (module docs, point 2).
    pub fn recv(&mut self) -> Result<Option<OnlineTask>, GatewayError> {
        for i in 0..self.lanes.len() {
            self.refill(i)?;
        }
        let mut best: Option<(usize, (f64, u64, u64))> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(head) = &lane.head {
                let key = drain_key(head);
                if best.map(|(_, b)| key_lt(&key, &b)).unwrap_or(true) {
                    best = Some((i, key));
                }
            }
        }
        Ok(best.and_then(|(i, _)| self.lanes[i].head.take()))
    }

    /// High-water mark of tasks buffered across all lanes so far.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsct_accuracy::PwlAccuracy;

    fn task(id: u64, tenant: u64, arrival: f64) -> OnlineTask {
        OnlineTask {
            id,
            tenant,
            arrival,
            deadline: arrival + 1.0,
            accuracy: PwlAccuracy::new(&[(0.0, 0.0), (1.0, 1.0)]).unwrap(),
        }
    }

    #[test]
    fn merge_equals_global_sort_for_any_producer_count() {
        let mut tasks: Vec<OnlineTask> = (0..40)
            .map(|i| task(i, i % 5, f64::from((i % 7) as u32)))
            .collect();
        tasks.sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then(a.tenant.cmp(&b.tenant))
                .then(a.id.cmp(&b.id))
        });
        let expected: Vec<u64> = tasks.iter().map(|t| t.id).collect();
        for capacity in [1usize, 2, 64] {
            for producers in [1usize, 3, 8] {
                let (mut queue, handles) = IngressQueue::new(producers, capacity);
                let chunk = tasks.len().div_ceil(producers);
                let mut drained = Vec::new();
                std::thread::scope(|scope| {
                    for (chunk_tasks, producer) in tasks.chunks(chunk).zip(handles) {
                        scope.spawn(move || {
                            for t in chunk_tasks {
                                if !producer.send(t.clone()) {
                                    break;
                                }
                            }
                        });
                    }
                    while let Some(t) = queue.recv().expect("in-order lanes") {
                        drained.push(t.id);
                    }
                });
                assert_eq!(
                    drained, expected,
                    "{producers} producers, capacity {capacity}"
                );
                // Depth gauge bound: cap buffered + 1 in-flight send per
                // lane, + 1 for the decrement lag on the task the consumer
                // is holding between recv and fetch_sub.
                if capacity == 2 {
                    assert!(queue.max_depth() <= producers * 3 + 1);
                }
                assert!(queue.max_depth() <= producers * (capacity + 1) + 1);
                assert!(queue.max_depth() >= 1);
            }
        }
    }

    #[test]
    fn out_of_order_lane_is_a_typed_error() {
        let (mut queue, handles) = IngressQueue::new(1, 4);
        let producer = &handles[0];
        assert!(producer.send(task(0, 0, 5.0)));
        assert!(producer.send(task(1, 0, 3.0)));
        drop(handles);
        assert!(queue.recv().unwrap().is_some());
        assert_eq!(
            queue.recv(),
            Err(GatewayError::OutOfOrder {
                producer: 0,
                task: 1
            })
        );
    }

    /// The check runs as each task is headed, not as a batch is taken: the
    /// tasks of the batch before the offender still drain.
    #[test]
    fn out_of_order_in_the_middle_of_a_batch_is_raised_on_that_task() {
        let (mut queue, handles) = IngressQueue::new(1, 8);
        for (id, arrival) in [(0, 5.0), (1, 6.0), (2, 3.0), (3, 7.0)] {
            assert!(handles[0].send(task(id, 0, arrival)));
        }
        drop(handles);
        assert_eq!(queue.recv().unwrap().map(|t| t.id), Some(0));
        assert_eq!(queue.lanes[0].batch.len(), 3, "one batch took the rest");
        assert_eq!(queue.recv().unwrap().map(|t| t.id), Some(1));
        assert_eq!(
            queue.recv(),
            Err(GatewayError::OutOfOrder {
                producer: 0,
                task: 2
            })
        );
    }

    /// A producer blocked on a full lane (capacity 1, the one slot held
    /// undrained) is released by dropping the queue, and its send fails.
    #[test]
    fn dropping_the_queue_fails_a_send_blocked_on_a_full_lane() {
        let (queue, mut handles) = IngressQueue::new(1, 1);
        let producer = handles.pop().expect("one lane");
        assert!(producer.send(task(0, 0, 0.0)));
        let depth = Arc::clone(&queue.depth);
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| producer.send(task(1, 0, 1.0)));
            // A send counts itself before it waits for room: from here on
            // the second send is under way on a full lane, so it can only
            // return once the queue is gone.
            while depth.load(Ordering::Relaxed) < 2 {
                std::thread::yield_now();
            }
            drop(queue);
            assert!(!blocked.join().expect("the producer returns"));
        });
    }

    /// A producer dropped while the consumer is partway through a batch
    /// leaves every task it sent drainable, in order, and the lane then
    /// closes.
    #[test]
    fn a_producer_dropped_mid_batch_leaves_its_tasks_drainable() {
        // Capacity 4: a channel of 2 and batches of up to 1 + 2.
        let (mut queue, mut handles) = IngressQueue::new(1, 4);
        let producer = handles.pop().expect("one lane");
        for id in 0..2 {
            assert!(producer.send(task(id, 0, id as f64)));
        }
        assert_eq!(queue.recv().unwrap().map(|t| t.id), Some(0));
        assert_eq!(queue.lanes[0].batch.len(), 1, "mid-batch");
        // The batch emptied the channel: both slots are free again.
        for id in 2..4 {
            assert!(producer.send(task(id, 0, id as f64)));
        }
        drop(producer);
        let rest: Vec<u64> = std::iter::from_fn(|| queue.recv().unwrap())
            .map(|t| t.id)
            .collect();
        assert_eq!(rest, [1, 2, 3]);
        assert_eq!(queue.recv(), Ok(None));
    }
}
