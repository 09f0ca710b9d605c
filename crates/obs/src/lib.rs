//! Telemetry for the decoding fabric: lock-free counters, stage-latency
//! tracing and a metrics exposition endpoint.
//!
//! The serving path (`qecool_sim`'s shards and services) is
//! instrumented against this crate behind a [`TelemetryHandle`]. The
//! design constraints, in order:
//!
//! 1. **Zero cost when disabled.** A disabled handle holds no registry
//!    at all; every instrumentation site is a single `Option` branch on
//!    data the hot path already touches.
//! 2. **No hot-path contention when enabled.** Counters are striped
//!    across cache-line-padded per-worker cells ([`Counter`]); a worker
//!    increments its own cell with one relaxed atomic add and cells are
//!    only summed at snapshot time. Stage histograms stripe the same way
//!    ([`Histogram`]), with per-stripe locks that are uncontended by
//!    construction.
//! 3. **Observational only.** Nothing in this crate feeds back into
//!    decoding: no RNG, no ordering decisions, no budget arithmetic.
//!    Enabling telemetry cannot perturb the byte-identical determinism
//!    guarantees the fabric makes (pinned by `tests/determinism.rs` and
//!    the CI `metrics-smoke` leg).
//!
//! Wall-clock stage timings ([`tracer`]) are additionally **sampled**
//! (1 round in [`tracer::STAGE_SAMPLE_PERIOD`]) so the `Instant` reads
//! they need stay far below the perf gate's telemetry-overhead bound;
//! counters are always exact.
//!
//! A [`MetricsRegistry`] snapshot renders two exposition formats:
//! Prometheus-style text ([`Snapshot::to_prometheus`]) and the
//! hand-rolled flat JSON the perf tooling already parses
//! ([`Snapshot::to_flat_json`]).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod counters;
pub mod registry;
pub mod tracer;

pub use counters::{Counter, Gauge, Histogram, COUNTER_STRIPES, HISTOGRAM_STRIPES};
pub use registry::{MetricsRegistry, Snapshot, SnapshotEntry, SnapshotValue, TelemetryHandle};
pub use tracer::{Stage, StageTracer, STAGE_SAMPLE_PERIOD};
