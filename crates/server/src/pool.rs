//! The server's persistent flush pool: a fixed set of threads, spawned
//! on the first pooled flush and parked on a condvar between flushes,
//! that advance the shard cells of one tick in parallel with the
//! caller.
//!
//! A flush publishes a fresh [`Job`] — the tick's timestamp, an atomic
//! injector `next` over the cell indices, and a countdown `left` — and
//! wakes the workers. The caller claims indices from the same injector,
//! so a flush never waits for a sleeper to wake: it returns as soon as
//! `left` reaches zero, whoever did the work. Each job is its own
//! allocation, so a worker that wakes late holds the job it was woken
//! for, finds that job's injector exhausted, and parks again; it can
//! never claim an index of a newer job through a stale handle.
//!
//! The cells sit in an `Arc<Vec<Mutex<T>>>` shared with the owner, so
//! jobs are `'static` and nothing here is `unsafe`. A panic in the work
//! function on a worker poisons the job (and the cell's mutex); the
//! caller's [`FlushPool::flush`] panics in turn instead of waiting
//! forever. Dropping the pool shuts the workers down and joins them.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

/// Polls of `left` the caller makes after running out of indices before
/// it blocks on the condvar: the stragglers are at most one cell advance
/// each, usually shorter than a futex round trip.
const DONE_SPINS: u32 = 1 << 12;

/// One flush: advance every cell to `t`.
struct Job {
    t: f64,
    /// Injector: the next unclaimed cell index. `Relaxed` — it hands out
    /// indices only; the cells' own mutexes order the data.
    next: AtomicUsize,
    /// Cells not yet advanced. Decremented with `Release` after the
    /// cell's lock is dropped, read with `Acquire` by the caller, so
    /// `left == 0` happens-after every advance (and after `poisoned`).
    left: AtomicUsize,
    /// Set (before the `left` decrement) when the work function
    /// panicked on some cell of this job.
    poisoned: AtomicBool,
}

struct State {
    /// The job of the latest flush; exhausted between flushes.
    job: Option<Arc<Job>>,
    shutdown: bool,
}

struct Shared<T> {
    cells: Arc<Vec<Mutex<T>>>,
    work: fn(&mut T, f64),
    state: Mutex<State>,
    /// Workers park here for a job or shutdown.
    wake: Condvar,
    /// The caller parks here for `left == 0`.
    done: Condvar,
}

impl<T> Shared<T> {
    /// The state lock, through poison: no code panics while holding it,
    /// and every update leaves it valid, so a poisoned guard is sound —
    /// and the unwind paths (`Finished::drop`, `FlushPool::drop`) must
    /// not panic again.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims and advances cells of `job` until its injector runs dry.
    fn drain(&self, job: &Job) {
        loop {
            let i = job.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.cells.len() {
                return;
            }
            // Declared before the cell guard, so it drops after it: the
            // cell is unlocked (or poisoned) before `left` counts it.
            let _finished = Finished { shared: self, job };
            let mut cell = self.cells[i]
                .lock()
                .expect("cell lock: an earlier advance panicked");
            (self.work)(&mut cell, job.t);
        }
    }
}

/// Counts one claimed cell off `job.left` on every exit from the work
/// function, unwinding included, so the caller is never parked forever.
struct Finished<'a, T> {
    shared: &'a Shared<T>,
    job: &'a Job,
}

impl<T> Drop for Finished<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.job.poisoned.store(true, Ordering::Release);
        }
        if self.job.left.fetch_sub(1, Ordering::AcqRel) == 1 {
            // Under the lock, so the notify cannot fall between the
            // caller's check of `left` and its wait.
            let _state = self.shared.state();
            self.shared.done.notify_one();
        }
    }
}

/// A persistent pool advancing `Mutex`-guarded cells tick by tick. See
/// the module docs.
pub(crate) struct FlushPool<T> {
    shared: Arc<Shared<T>>,
    /// Threads to spawn on the first flush.
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Send + 'static> FlushPool<T> {
    /// A pool of `threads` workers (besides the caller) over `cells`,
    /// applying `work(cell, t)` to each cell on [`FlushPool::flush`].
    /// Spawns nothing until the first flush.
    pub(crate) fn new(cells: Arc<Vec<Mutex<T>>>, threads: usize, work: fn(&mut T, f64)) -> Self {
        Self {
            shared: Arc::new(Shared {
                cells,
                work,
                state: Mutex::new(State {
                    job: None,
                    shutdown: false,
                }),
                wake: Condvar::new(),
                done: Condvar::new(),
            }),
            threads,
            handles: Vec::new(),
        }
    }

    /// Worker threads spawned so far (zero until the first flush).
    pub(crate) fn started(&self) -> usize {
        self.handles.len()
    }

    /// Applies the work function to every cell at `t`, on the workers
    /// and the calling thread, and returns once all cells are done.
    ///
    /// # Panics
    ///
    /// When the work function panics on any cell, on whichever thread.
    pub(crate) fn flush(&mut self, t: f64) {
        while self.handles.len() < self.threads {
            let shared = Arc::clone(&self.shared);
            self.handles.push(
                std::thread::Builder::new()
                    .name("dsct-flush".into())
                    .spawn(move || worker(&shared))
                    .expect("spawn flush worker"),
            );
        }
        let job = Arc::new(Job {
            t,
            next: AtomicUsize::new(0),
            left: AtomicUsize::new(self.shared.cells.len()),
            poisoned: AtomicBool::new(false),
        });
        self.shared.state().job = Some(Arc::clone(&job));
        self.shared.wake.notify_all();
        self.shared.drain(&job);
        let done = || job.left.load(Ordering::Acquire) == 0;
        for _ in 0..DONE_SPINS {
            if done() {
                break;
            }
            std::hint::spin_loop();
        }
        let mut state = self.shared.state();
        while !done() {
            state = self
                .shared
                .done
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        drop(state);
        assert!(
            !job.poisoned.load(Ordering::Acquire),
            "a flush worker panicked while advancing a cell"
        );
    }
}

impl<T> Drop for FlushPool<T> {
    fn drop(&mut self) {
        self.shared.state().shutdown = true;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            // A worker's panic already surfaced in the flush it broke;
            // `Drop` must not panic again.
            let _ = handle.join();
        }
    }
}

/// A worker: park until a job with unclaimed cells (or shutdown)
/// appears, drain it, park again.
fn worker<T>(shared: &Shared<T>) {
    loop {
        let job = {
            let mut state = shared.state();
            loop {
                if state.shutdown {
                    return;
                }
                match &state.job {
                    Some(job) if job.next.load(Ordering::Relaxed) < shared.cells.len() => {
                        break Arc::clone(job);
                    }
                    _ => {}
                }
                state = shared
                    .wake
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.drain(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;
    use std::thread::ThreadId;

    fn cells<T>(items: Vec<T>) -> Arc<Vec<Mutex<T>>> {
        Arc::new(items.into_iter().map(Mutex::new).collect())
    }

    /// A cell that counts its advances and remembers the last `t`.
    #[derive(Default)]
    struct Counter {
        advances: u64,
        last: f64,
    }

    fn count(cell: &mut Counter, t: f64) {
        cell.advances += 1;
        cell.last = t;
    }

    #[test]
    fn spawns_lazily_and_every_flush_advances_every_cell_once() {
        let cells = cells((0..4).map(|_| Counter::default()).collect());
        let mut pool = FlushPool::new(Arc::clone(&cells), 3, count);
        assert_eq!(pool.started(), 0);
        pool.flush(1.0);
        assert_eq!(pool.started(), 3);
        pool.flush(2.0);
        assert_eq!(pool.started(), 3);
        for cell in cells.iter() {
            let cell = cell.lock().unwrap();
            assert_eq!((cell.advances, cell.last), (2, 2.0));
        }
    }

    /// The stale-job race: back-to-back tiny flushes, so workers woken
    /// for flush `k` routinely arrive during flush `k + 1` or later. A
    /// worker claiming through a stale handle would advance a cell twice
    /// in one flush or to an old `t`.
    #[test]
    fn stress_tiny_flushes_never_cross_jobs() {
        const FLUSHES: u64 = 20_000;
        let cells = cells((0..4).map(|_| Counter::default()).collect());
        let mut pool = FlushPool::new(Arc::clone(&cells), 7, count);
        for k in 1..=FLUSHES {
            pool.flush(k as f64);
            for cell in cells.iter() {
                let cell = cell.lock().unwrap();
                assert_eq!((cell.advances, cell.last), (k, k as f64));
            }
        }
        assert_eq!(pool.started(), 7);
    }

    /// Two cells that rendezvous on a barrier, so the caller and the one
    /// worker are each inside a cell at once; then the cell held by the
    /// thread that is *not* the caller panics.
    struct Rendezvous {
        caller: ThreadId,
        barrier: Arc<Barrier>,
    }

    fn panic_off_caller(cell: &mut Rendezvous, _t: f64) {
        cell.barrier.wait();
        if std::thread::current().id() != cell.caller {
            panic!("injected worker panic");
        }
    }

    #[test]
    fn worker_panic_surfaces_in_the_caller_not_as_a_hang() {
        let barrier = Arc::new(Barrier::new(2));
        let cells = cells(
            (0..2)
                .map(|_| Rendezvous {
                    caller: std::thread::current().id(),
                    barrier: Arc::clone(&barrier),
                })
                .collect(),
        );
        let mut pool = FlushPool::new(Arc::clone(&cells), 1, panic_off_caller);
        let flushed = catch_unwind(AssertUnwindSafe(|| pool.flush(1.0)));
        assert!(flushed.is_err(), "the worker's panic must reach the caller");
        // Exactly the worker's cell is poisoned.
        assert_eq!(cells.iter().filter(|c| c.is_poisoned()).count(), 1);
        // Dropping the pool joins the dead worker without panicking.
        drop(pool);
        assert_eq!(Arc::strong_count(&cells), 1);
    }

    #[test]
    fn drop_joins_the_workers() {
        let cells = cells((0..4).map(|_| Counter::default()).collect());
        let mut pool = FlushPool::new(Arc::clone(&cells), 3, count);
        pool.flush(1.0);
        assert_eq!(pool.started(), 3);
        // Each parked worker holds the shared state, hence the cells.
        drop(pool);
        // A joined thread has dropped its closure: no owner is left.
        assert_eq!(Arc::strong_count(&cells), 1);
    }
}
