//! The one persistent worker pool. [`DecodeEngine`](crate::DecodeEngine)
//! batches and [`DecodeService::pump`](crate::DecodeService::pump) both
//! run their parallel work on it, and [`worker_count`] is the one rule
//! that turns a `threads` setting into a worker count.
//!
//! Both run one dispatch pattern. A batch of N draining threads is N
//! owned jobs, one per thread, each a handle on state the batch shares;
//! each job claims the real work items (engine shards, busy pump
//! sessions) off an atomic cursor in that state until it runs dry. So
//! only the N jobs pass through the queue lock, however many items the
//! batch holds, and one slow item never idles the other threads. The
//! caller is one of the N: it pulls jobs too, so a batch needs N − 1
//! pool threads, and a batch of one job runs inline and spawns nothing.
//!
//! Worker threads spawn lazily, the first time a batch asks for them,
//! and only ever grow to the largest worker count asked for. Between
//! batches they park on a condvar, so a high-frequency caller pays no
//! spawn cost per batch. The worker that retires a batch's last job
//! wakes the caller if it is still waiting. Every job runs under
//! `catch_unwind`: a panicking job is dropped, the rest of the batch
//! still finishes, and the first payload goes back to the caller to
//! re-raise. Dropping the pool wakes and joins every worker, so no
//! thread outlives its owner.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex, MutexGuard};
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

/// What a worker does with a job, given its stripe.
type Work<J> = Box<dyn Fn(&mut J, usize) + Send + Sync>;

/// Telemetry counters a pool's workers record into, each on the
/// worker's own stripe.
#[derive(Clone)]
pub(crate) struct PoolCounters {
    /// Times a worker parked on the work-ready condvar.
    pub(crate) parks: Arc<Counter>,
    /// Times a parked worker woke.
    pub(crate) wakes: Arc<Counter>,
}

/// State shared between the pool's caller and its workers.
struct Queue<J> {
    /// Jobs awaiting a thread this batch, one per draining thread.
    pending: VecDeque<J>,
    /// Jobs finished this batch, awaiting hand-back.
    finished: Vec<J>,
    /// Jobs queued this batch.
    submitted: usize,
    /// Jobs retired this batch, successfully or not: `finished.len()`
    /// plus any panicked jobs. `run` waits for it to reach `submitted`,
    /// so a worker panic cannot strand it.
    completed: usize,
    /// First panic payload caught this batch.
    panic: Option<Panic>,
    /// Set once, on drop; workers exit when they see it with an empty
    /// queue.
    shutdown: bool,
}

pub(crate) struct Shared<J> {
    queue: Mutex<Queue<J>>,
    /// Signalled by `run` when jobs are enqueued and on shutdown.
    work_ready: Condvar,
    /// Signalled by the worker that retires a batch's last job.
    batch_done: Condvar,
    /// Worker threads that have exited their loop (observability for
    /// shutdown tests; `run` never reads it).
    pub(crate) exited: AtomicUsize,
    work: Work<J>,
    counters: Option<PoolCounters>,
}

/// A persistent pool of worker threads over owned jobs of type `J`. See
/// the module docs.
pub(crate) struct WorkerPool<J> {
    pub(crate) shared: Arc<Shared<J>>,
    handles: Vec<JoinHandle<()>>,
}

impl<J: Send + 'static> WorkerPool<J> {
    /// A pool that runs `work(job, stripe)` on every job. Spawns no
    /// thread: workers appear at the first [`Self::run`].
    pub(crate) fn new(
        counters: Option<PoolCounters>,
        work: impl Fn(&mut J, usize) + Send + Sync + 'static,
    ) -> Self {
        Self {
            shared: Arc::new(Shared {
                queue: Mutex::new(Queue {
                    pending: VecDeque::new(),
                    finished: Vec::new(),
                    submitted: 0,
                    completed: 0,
                    panic: None,
                    shutdown: false,
                }),
                work_ready: Condvar::new(),
                batch_done: Condvar::new(),
                exited: AtomicUsize::new(0),
                work: Box::new(work),
                counters,
            }),
            handles: Vec::new(),
        }
    }

    /// Worker threads spawned so far. The pool never respawns or shrinks,
    /// so this is also the number of live workers.
    pub(crate) fn workers(&self) -> usize {
        self.handles.len()
    }

    /// Runs one batch on `workers` pool threads plus the caller and
    /// blocks until every job has retired. Spawns the threads the pool is
    /// short of, so it tracks a workload that grows after its first
    /// batch. The calling thread pulls jobs (on stripe 0; worker `i` runs
    /// on stripe `i + 1`) until the queue is empty, so a batch of one job
    /// runs inline with `workers = 0`. Appends the finished jobs to
    /// `finished`, in no particular order, and returns the first panic
    /// payload; a job that panicked is dropped, not finished. Taking
    /// `finished` from the caller lets both vectors keep their capacity,
    /// so a warm pool allocates nothing per batch.
    pub(crate) fn run(
        &mut self,
        workers: usize,
        jobs: impl IntoIterator<Item = J>,
        finished: &mut Vec<J>,
    ) -> Option<Panic> {
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
        {
            let mut queue = self.shared.queue.lock();
            debug_assert!(queue.pending.is_empty() && queue.finished.is_empty());
            queue.completed = 0;
            queue.pending.extend(jobs);
            queue.submitted = queue.pending.len();
        }
        self.shared.work_ready.notify_all();
        let mut queue = self.shared.queue.lock();
        while let Some(job) = queue.pending.pop_front() {
            drop(queue);
            queue = Self::retire(&self.shared, job, 0);
        }
        while queue.completed < queue.submitted {
            queue = self.shared.batch_done.wait(queue);
        }
        finished.append(&mut queue.finished);
        queue.panic.take()
    }

    /// Runs `job` and records its retirement, returning the re-taken
    /// queue lock.
    fn retire(shared: &Shared<J>, mut job: J, stripe: usize) -> MutexGuard<'_, Queue<J>> {
        // Catch unwinds so a panicking job cannot strand `run` waiting
        // for a job that will never finish; the payload is re-raised by
        // the caller.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            (shared.work)(&mut job, stripe);
            job
        }));
        let mut queue = shared.queue.lock();
        match outcome {
            Ok(job) => queue.finished.push(job),
            Err(payload) => {
                // The job died with the panic; keep the first payload
                // for re-raise.
                queue.panic.get_or_insert(payload);
            }
        }
        queue.completed += 1;
        // `run` is the only possible waiter, and it only wants to hear
        // about the last job of its batch.
        if queue.completed == queue.submitted {
            shared.batch_done.notify_one();
        }
        queue
    }

    fn worker_loop(shared: &Shared<J>, stripe: usize) {
        let counters = shared.counters.as_ref();
        let mut queue = shared.queue.lock();
        loop {
            if let Some(job) = queue.pending.pop_front() {
                drop(queue);
                queue = Self::retire(shared, job, stripe);
                continue;
            }
            if queue.shutdown {
                return;
            }
            if let Some(c) = counters {
                c.parks.add(stripe, 1);
            }
            queue = shared.work_ready.wait(queue);
            if let Some(c) = counters {
                c.wakes.add(stripe, 1);
            }
        }
    }
}

impl<J> Drop for WorkerPool<J> {
    /// Graceful shutdown: wake every worker with the shutdown flag set
    /// and join them all.
    fn drop(&mut self) {
        self.shared.queue.lock().shutdown = true;
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}
