//! The one persistent worker pool. [`DecodeEngine`](crate::DecodeEngine)
//! batches and
//! [`ShardedDecodeService::pump`](crate::ShardedDecodeService::pump)
//! both run their parallel work on it, and [`worker_count`] is the one
//! rule that turns a `threads` setting into a worker count.
//!
//! The pool owns the one dispatch pattern. It holds a persistent batch
//! value (the crate-private `Batch` trait: an item count and a step per
//! item), which its owner refills between runs. A run on N threads
//! resets a pool-owned atomic cursor, and the caller plus N − 1 pool
//! threads claim item indices off it until it runs dry: engine shards,
//! busy pump sessions. So one slow item never idles the other threads,
//! and a one-thread run claims every item inline and wakes nothing.
//!
//! Worker threads spawn lazily, the first time a run asks for them,
//! and only ever grow to the largest worker count asked for. Between
//! runs they park on a condvar, so a high-frequency caller pays no
//! spawn cost per run. A worker that has not woken by the time the
//! caller finds the cursor dry is released, not waited for. Every item
//! runs under one `catch_unwind`: a panicking item is lost, every other
//! item still runs, and the first payload goes back to the caller to
//! re-raise. Dropping the pool wakes and joins every worker, so no
//! thread outlives its owner.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};
use qecool_obs::Counter;

/// Worker threads for a `threads` setting: `threads` itself, or every
/// available core when it is `0`.
pub fn worker_count(threads: usize) -> usize {
    if threads > 0 {
        threads
    } else {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// A panic payload caught on a worker, for the caller to re-raise.
pub(crate) type Panic = Box<dyn Any + Send>;

/// The work of one pool run: `items()` independent items, each run once
/// by whichever thread claims its index.
pub(crate) trait Batch: Send + Sync + 'static {
    /// Items in this run.
    fn items(&self) -> usize;

    /// Runs item `index` on `stripe`: 0 for the caller, `i + 1` for pool
    /// thread `i`.
    fn run(&self, index: usize, stripe: usize);
}

/// Telemetry counters a pool's workers record into, each on the
/// worker's own stripe.
#[derive(Clone)]
pub(crate) struct PoolCounters {
    /// Times a worker parked on the work-ready condvar.
    pub(crate) parks: Arc<Counter>,
    /// Times a parked worker woke.
    pub(crate) wakes: Arc<Counter>,
}

/// Run state shared between the pool's caller and its workers.
struct State<T> {
    /// The running batch, offered to workers until the caller finds the
    /// cursor dry.
    batch: Option<Arc<T>>,
    /// Workers that may still join the running batch.
    seats: usize,
    /// Workers holding the batch.
    active: usize,
    /// First panic payload a worker caught this run.
    panic: Option<Panic>,
    /// Set once, on drop; idle workers exit when they see it.
    shutdown: bool,
}

pub(crate) struct Shared<T> {
    state: Mutex<State<T>>,
    /// Next unclaimed item of the running batch. `Relaxed` suffices: it
    /// hands out indices and publishes no data (the state lock publishes
    /// the batch).
    cursor: AtomicUsize,
    /// Signalled by `run` when a batch is offered and on shutdown.
    work_ready: Condvar,
    /// Signalled by the last worker to let go of a withdrawn batch.
    batch_done: Condvar,
    /// Worker threads that have exited their loop (observability for
    /// shutdown tests; `run` never reads it).
    pub(crate) exited: AtomicUsize,
    counters: Option<PoolCounters>,
}

impl<T: Batch> Shared<T> {
    /// Claims items off the cursor until it runs dry, each under its own
    /// `catch_unwind`, and returns the first payload caught.
    fn claim(&self, batch: &T, stripe: usize) -> Option<Panic> {
        let items = batch.items();
        let mut panic = None;
        loop {
            let index = self.cursor.fetch_add(1, Ordering::Relaxed);
            if index >= items {
                return panic;
            }
            if let Err(payload) =
                std::panic::catch_unwind(AssertUnwindSafe(|| batch.run(index, stripe)))
            {
                panic.get_or_insert(payload);
            }
        }
    }
}

/// A persistent pool of worker threads over one [`Batch`] value, which
/// the owner refills through [`Self::batch_mut`] between runs. See the
/// module docs.
pub(crate) struct WorkerPool<T> {
    pub(crate) shared: Arc<Shared<T>>,
    batch: Arc<T>,
    handles: Vec<JoinHandle<()>>,
}

impl<T: Batch> WorkerPool<T> {
    /// A pool over `batch`. Spawns no thread: workers appear at the
    /// first [`Self::run`] that asks for them.
    pub(crate) fn new(batch: T, counters: Option<PoolCounters>) -> Self {
        Self {
            shared: Arc::new(Shared {
                state: Mutex::new(State {
                    batch: None,
                    seats: 0,
                    active: 0,
                    panic: None,
                    shutdown: false,
                }),
                cursor: AtomicUsize::new(0),
                work_ready: Condvar::new(),
                batch_done: Condvar::new(),
                exited: AtomicUsize::new(0),
                counters,
            }),
            batch: Arc::new(batch),
            handles: Vec::new(),
        }
    }

    /// The batch, for refilling between runs.
    pub(crate) fn batch_mut(&mut self) -> &mut T {
        Arc::get_mut(&mut self.batch).expect("no worker holds the batch between runs")
    }

    /// Worker threads spawned so far. The pool never respawns or shrinks,
    /// so this is also the number of live workers.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs every item of the batch once, on the caller and up to
    /// `workers` pool threads, and returns the first panic payload once
    /// no thread holds the batch. Spawns the threads the pool is short
    /// of, so it tracks a workload that grows after its first run. With
    /// `workers = 0` the caller claims every item inline and nothing is
    /// woken.
    pub(crate) fn run(&mut self, workers: usize) -> Option<Panic> {
        for i in self.handles.len()..workers {
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name(format!("qecool-worker-{i}"))
                .spawn(move || {
                    // Stripe i+1: stripe 0 belongs to the caller, so
                    // worker cells never share with it.
                    Self::worker_loop(&shared, i + 1);
                    shared.exited.fetch_add(1, Ordering::Release);
                })
                .expect("spawn pool worker");
            self.handles.push(handle);
        }
        self.shared.cursor.store(0, Ordering::Relaxed);
        if workers == 0 {
            return self.shared.claim(&self.batch, 0);
        }
        {
            let mut state = self.shared.state.lock();
            state.batch = Some(Arc::clone(&self.batch));
            state.seats = workers;
        }
        self.shared.work_ready.notify_all();
        let own = self.shared.claim(&self.batch, 0);
        let mut state = self.shared.state.lock();
        // The cursor is dry: withdraw the batch, so workers that have
        // not woken yet stay parked instead of being waited for.
        state.batch = None;
        state.seats = 0;
        let mut state = self
            .shared
            .batch_done
            .wait_while(state, |state| state.active > 0);
        let theirs = state.panic.take();
        own.or(theirs)
    }

    fn worker_loop(shared: &Shared<T>, stripe: usize) {
        let counters = shared.counters.as_ref();
        let mut state = shared.state.lock();
        loop {
            if let Some(batch) = state.batch.as_ref().filter(|_| state.seats > 0).cloned() {
                state.seats -= 1;
                state.active += 1;
                drop(state);
                let panic = shared.claim(&batch, stripe);
                // Let go of the batch before the caller can see this
                // worker retire, so `batch_mut` finds it unshared.
                drop(batch);
                state = shared.state.lock();
                state.active -= 1;
                if let Some(payload) = panic {
                    state.panic.get_or_insert(payload);
                }
                // The caller waits only once it has withdrawn the batch.
                if state.active == 0 && state.batch.is_none() {
                    shared.batch_done.notify_one();
                }
                continue;
            }
            if state.shutdown {
                return;
            }
            if let Some(c) = counters {
                c.parks.add(stripe, 1);
            }
            state = shared.work_ready.wait(state);
            if let Some(c) = counters {
                c.wakes.add(stripe, 1);
            }
        }
    }
}

impl<T> Drop for WorkerPool<T> {
    /// Graceful shutdown: wake every worker with the shutdown flag set
    /// and join them all.
    fn drop(&mut self) {
        self.shared.state.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts how often each item ran; items listed in `panics` panic
    /// with their index after counting.
    #[derive(Default)]
    struct Count {
        hits: Vec<AtomicUsize>,
        panics: Vec<usize>,
    }

    impl Batch for Count {
        fn items(&self) -> usize {
            self.hits.len()
        }

        fn run(&self, index: usize, _stripe: usize) {
            self.hits[index].fetch_add(1, Ordering::Relaxed);
            if self.panics.contains(&index) {
                std::panic::panic_any(index);
            }
        }
    }

    fn refill(pool: &mut WorkerPool<Count>, items: usize, panics: &[usize]) {
        let batch = pool.batch_mut();
        batch.hits = (0..items).map(|_| AtomicUsize::new(0)).collect();
        batch.panics = panics.to_vec();
    }

    fn hits(pool: &mut WorkerPool<Count>) -> Vec<usize> {
        let batch = pool.batch_mut();
        batch.hits.iter_mut().map(|h| *h.get_mut()).collect()
    }

    #[test]
    fn every_item_runs_exactly_once_at_any_thread_count() {
        let mut pool = WorkerPool::new(Count::default(), None);
        // 4 threads, then 2 and 1 on a pool that still holds 3.
        for threads in [1, 2, 4, 2, 1] {
            for items in [0, 1, 3, 1000] {
                refill(&mut pool, items, &[]);
                assert!(pool.run(threads - 1).is_none());
                assert_eq!(hits(&mut pool), vec![1; items], "{threads} threads");
            }
        }
        assert_eq!(pool.workers(), 3, "grown once, never respawned");
    }

    #[test]
    fn a_panicking_item_loses_only_itself_and_the_pool_recovers() {
        let mut pool = WorkerPool::new(Count::default(), None);
        for threads in [1, 2, 4] {
            refill(&mut pool, 200, &[5, 90, 150]);
            let payload = pool.run(threads - 1).expect("the panics reach the caller");
            let index = *payload.downcast::<usize>().expect("an index payload");
            assert!([5, 90, 150].contains(&index), "{index}");
            assert_eq!(hits(&mut pool), vec![1; 200], "{threads} threads");
            refill(&mut pool, 200, &[]);
            assert!(pool.run(threads - 1).is_none(), "no stale payload");
            assert_eq!(hits(&mut pool), vec![1; 200]);
        }
    }

    #[test]
    fn batch_mut_succeeds_right_after_run() {
        let mut pool = WorkerPool::new(Count::default(), None);
        for _ in 0..50 {
            refill(&mut pool, 4, &[]);
            assert!(pool.run(3).is_none());
            // Panics if a worker still held the batch.
            pool.batch_mut().hits.clear();
        }
    }
}
