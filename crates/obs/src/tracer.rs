//! Stage-latency tracing: splits a round's lifetime into the segments
//! of the serving path and records each into a log₂ [`Histogram`]
//! stripe.
//!
//! The three wall-clock stages are nanoseconds read from the owning
//! [`MetricsRegistry`]'s monotonic clock, and — unlike counters, which
//! are exact — they are **sampled** one round in
//! [`STAGE_SAMPLE_PERIOD`]: the instrumented sites stamp only every
//! N-th round, so the `Instant` reads stay a rounding error next to a
//! decode call. The sampling decision is made from counters the sites
//! already maintain (no RNG), so enabling tracing cannot perturb
//! decode ordering or determinism.
//!
//! [`Stage::CommitLag`] is the odd one out: its unit is **rounds**, not
//! nanoseconds, and it is recorded exactly (every committed round, no
//! sampling) — the value comes from the commit watermark the decoder
//! already reports, so recording it involves no clock reads at all.

use std::sync::Arc;

use crate::counters::Histogram;
use crate::registry::MetricsRegistry;

/// Sampling period for wall-clock stage timings: one round in
/// `STAGE_SAMPLE_PERIOD` gets stamped and traced. A power of two so
/// call sites can use `tick % STAGE_SAMPLE_PERIOD == 0`.
pub const STAGE_SAMPLE_PERIOD: u64 = 8;

/// The segments of a round's lifetime through the serving path, plus
/// the commit-lag series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// From the push into the session inbox to the start of the drain
    /// that decodes the round.
    QueueWait,
    /// The drain itself: syndrome decoding inside `drain_inbox`.
    Decode,
    /// From corrections becoming available to the `poll_corrections`
    /// call that hands them to the caller.
    PollDrain,
    /// Rounds-behind-head at the moment a round's corrections were
    /// committed (unit: rounds, recorded exactly — not sampled).
    CommitLag,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 4] = [
        Stage::QueueWait,
        Stage::Decode,
        Stage::PollDrain,
        Stage::CommitLag,
    ];

    /// The exposition metric name for this stage's histogram.
    pub fn metric_name(self) -> &'static str {
        match self {
            Stage::QueueWait => "qecool_stage_queue_wait_ns",
            Stage::Decode => "qecool_stage_decode_ns",
            Stage::PollDrain => "qecool_stage_poll_drain_ns",
            Stage::CommitLag => "qecool_stage_commit_lag_rounds",
        }
    }

    /// One-line help string for the exposition output.
    pub fn help(self) -> &'static str {
        match self {
            Stage::QueueWait => "Sampled ns a round waited in the session inbox before decode",
            Stage::Decode => "Sampled ns spent decoding a drained batch",
            Stage::PollDrain => {
                "Sampled ns from corrections ready to poll_corrections draining them"
            }
            Stage::CommitLag => {
                "Rounds behind the stream head when a round's corrections committed"
            }
        }
    }

    /// Position in [`Stage::ALL`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// Bundles the per-stage histograms, get-or-registered against one
/// [`MetricsRegistry`] — every service of a sharded fabric constructs
/// its own `StageTracer` and they all land in the same series.
#[derive(Debug, Clone)]
pub struct StageTracer {
    registry: Arc<MetricsRegistry>,
    histograms: [Arc<Histogram>; 4],
}

impl StageTracer {
    /// A tracer recording into `registry`.
    pub fn new(registry: &Arc<MetricsRegistry>) -> Self {
        let histograms =
            Stage::ALL.map(|stage| registry.histogram(stage.metric_name(), stage.help()));
        Self {
            registry: Arc::clone(registry),
            histograms,
        }
    }

    /// Nanoseconds since the registry's epoch — the timebase for every
    /// stamp compared against [`StageTracer::record`].
    pub fn now_ns(&self) -> u64 {
        self.registry.now_ns()
    }

    /// Records one sampled segment duration on the caller's stripe.
    pub fn record(&self, stage: Stage, stripe: usize, elapsed_ns: u64) {
        self.histograms[stage.index()].record(stripe, elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracers_on_one_registry_share_series() {
        let registry = Arc::new(MetricsRegistry::new());
        let a = StageTracer::new(&registry);
        let b = StageTracer::new(&registry);
        a.record(Stage::Decode, 0, 100);
        b.record(Stage::Decode, 1, 200);
        let snap = registry.snapshot();
        let (hist, sum) = snap.histogram(Stage::Decode.metric_name()).unwrap();
        assert_eq!(hist.total(), 2);
        assert_eq!(sum, 300);
    }

    #[test]
    fn every_stage_has_a_distinct_metric_name() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.metric_name()).collect();
        let mut deduped = names.clone();
        deduped.sort_unstable();
        deduped.dedup();
        assert_eq!(deduped.len(), names.len());
        for name in names {
            assert!(name.starts_with("qecool_stage_"));
        }
    }

    #[test]
    fn sample_period_is_a_power_of_two() {
        assert!(STAGE_SAMPLE_PERIOD.is_power_of_two());
    }

    #[test]
    fn now_ns_is_monotone_through_the_tracer() {
        let registry = Arc::new(MetricsRegistry::new());
        let tracer = StageTracer::new(&registry);
        let a = tracer.now_ns();
        assert!(tracer.now_ns() >= a);
    }
}
