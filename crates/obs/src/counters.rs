//! Lock-free metric primitives: striped counters, gauges and histograms.
//!
//! The hot-path story is the same for every type here: writers touch one
//! **stripe** — a cache-line-padded cell picked by worker index (or
//! [`thread_stripe`]) — so concurrent writers on different stripes never
//! share a line, and readers pay the aggregation cost at snapshot time
//! instead.

use std::sync::atomic::{AtomicI64, AtomicU64, AtomicUsize, Ordering};

use parking_lot::Mutex;
use qecool_sfq::budget::CycleHistogram;

/// Pads (and aligns) a value to a 64-byte cache line so adjacent stripes
/// of one metric never false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
struct CachePadded<T>(T);

/// Number of stripes a [`Counter`] spreads its cells over. A power of
/// two so `worker_index % COUNTER_STRIPES` compiles to a mask; 16 covers
/// every pool size the fabric runs (workers beyond 16 share stripes,
/// which costs contention only, never correctness).
pub const COUNTER_STRIPES: usize = 16;

/// Number of stripes a [`Histogram`] spreads its cells over.
pub const HISTOGRAM_STRIPES: usize = 8;

/// A monotonic counter striped across cache-line-padded cells.
///
/// Writers pick a stripe (their worker index, or [`thread_stripe`]) and
/// do one relaxed `fetch_add` on their own cell; [`Counter::value`] sums
/// the cells. Relaxed ordering is sound because the only invariant is
/// the total, and snapshots are explicitly racy-by-a-few-counts — the
/// metric is monotone, never load-bearing.
#[derive(Debug)]
pub struct Counter {
    cells: [CachePadded<AtomicU64>; COUNTER_STRIPES],
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| CachePadded(AtomicU64::new(0))),
        }
    }

    /// Adds `n` on the caller's stripe (any `usize`; reduced modulo
    /// [`COUNTER_STRIPES`]).
    pub fn add(&self, stripe: usize, n: u64) {
        self.cells[stripe % COUNTER_STRIPES]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the caller's stripe by one and returns the **new
    /// per-stripe count** — a free monotone tick callers use to make
    /// deterministic 1-in-N sampling decisions without a second atomic.
    pub fn tick(&self, stripe: usize) -> u64 {
        self.cells[stripe % COUNTER_STRIPES]
            .0
            .fetch_add(1, Ordering::Relaxed)
            + 1
    }

    /// Sum over all stripes.
    pub fn value(&self) -> u64 {
        self.cells.iter().map(|c| c.0.load(Ordering::Relaxed)).sum()
    }
}

/// A signed up/down gauge (e.g. currently-open sessions). Not striped:
/// gauges track lifecycle events, not per-round traffic.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Increments by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Decrements by one.
    pub fn dec(&self) {
        self.add(-1);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One histogram stripe: the log₂ bucket counts plus the exact sum of
/// recorded values (Prometheus histograms expose `_sum`; the bucketed
/// [`CycleHistogram`] alone cannot reconstruct it).
#[derive(Debug, Default)]
struct HistCell {
    hist: CycleHistogram,
    sum: u64,
}

/// A [`CycleHistogram`] striped across cache-line-padded, per-stripe
/// locked cells.
///
/// Each writer locks only its own stripe, and the instrumented call
/// sites stripe by worker index — so the locks are uncontended by
/// construction. [`Histogram::merged`] folds the
/// stripes with [`CycleHistogram::merge`], whose equivalence to
/// single-stream recording is pinned by a proptest in this crate.
#[derive(Debug)]
pub struct Histogram {
    cells: [CachePadded<Mutex<HistCell>>; HISTOGRAM_STRIPES],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            cells: std::array::from_fn(|_| CachePadded(Mutex::new(HistCell::default()))),
        }
    }

    /// Records one value on the caller's stripe (any `usize`; reduced
    /// modulo [`HISTOGRAM_STRIPES`]).
    pub fn record(&self, stripe: usize, value: u64) {
        let mut cell = self.cells[stripe % HISTOGRAM_STRIPES].0.lock();
        cell.hist.record(value);
        cell.sum = cell.sum.saturating_add(value);
    }

    /// Merges every stripe into one `(histogram, sum_of_values)` pair.
    pub fn merged(&self) -> (CycleHistogram, u64) {
        let mut hist = CycleHistogram::new();
        let mut sum = 0u64;
        for cell in &self.cells {
            let cell = cell.0.lock();
            hist.merge(&cell.hist);
            sum = sum.saturating_add(cell.sum);
        }
        (hist, sum)
    }
}

/// A small, stable stripe id for the calling thread: ids are handed out
/// in first-use order from a global counter and cached thread-locally,
/// so producer threads that were never given an explicit worker index
/// (e.g. callers pushing into the sharded fabric) still spread across
/// stripes instead of piling onto stripe 0.
pub fn thread_stripe() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    thread_local! {
        static STRIPE: usize = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    STRIPE.with(|s| *s)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_stripes() {
        let c = Counter::new();
        for stripe in 0..COUNTER_STRIPES * 2 {
            c.add(stripe, 3);
        }
        assert_eq!(c.value(), 3 * (COUNTER_STRIPES as u64) * 2);
    }

    #[test]
    fn counter_tick_counts_per_stripe() {
        let c = Counter::new();
        assert_eq!(c.tick(0), 1);
        assert_eq!(c.tick(0), 2);
        // Another stripe ticks independently...
        assert_eq!(c.tick(1), 1);
        // ...but the total sees everything.
        assert_eq!(c.value(), 3);
    }

    #[test]
    fn counter_is_exact_under_concurrency() {
        let c = std::sync::Arc::new(Counter::new());
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let c = std::sync::Arc::clone(&c);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        c.add(t, 1);
                    }
                });
            }
        });
        assert_eq!(c.value(), 80_000);
    }

    #[test]
    fn gauge_moves_both_ways() {
        let g = Gauge::new();
        g.inc();
        g.inc();
        g.dec();
        assert_eq!(g.value(), 1);
        g.add(-5);
        assert_eq!(g.value(), -4);
    }

    #[test]
    fn histogram_merges_stripes() {
        let h = Histogram::new();
        h.record(0, 5);
        h.record(3, 9);
        h.record(7, 1000);
        let (hist, sum) = h.merged();
        assert_eq!(hist.total(), 3);
        assert_eq!(sum, 5 + 9 + 1000);
        assert!(hist.percentile(1.0) >= 1000);
    }

    #[test]
    fn thread_stripe_is_stable_per_thread() {
        let here = thread_stripe();
        assert_eq!(here, thread_stripe());
        let other = std::thread::spawn(thread_stripe).join().unwrap();
        assert_ne!(here, other, "two threads must not share a fresh stripe id");
    }
}
