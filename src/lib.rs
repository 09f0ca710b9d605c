//! Umbrella crate for the QECOOL (DAC 2021) reproduction workspace.
//!
//! This crate re-exports the workspace's public surface so the top-level
//! `examples/` and `tests/` can use a single dependency. The actual
//! implementations live in the member crates:
//!
//! * [`surface_code`] — lattice, noise, syndrome extraction substrate;
//! * [`mwpm`] — blossom-based minimum-weight perfect-matching baseline;
//! * [`uf`] — union-find (almost-linear-time) baseline decoder;
//! * [`decoder`] — the QECOOL spike-based on-line decoder (the paper's
//!   contribution);
//! * [`sfq`] — SFQ cell library, timing, power and refrigerator-budget
//!   models;
//! * [`sim`] — Monte-Carlo engine, statistics and experiment drivers;
//! * [`obs`] — lock-free telemetry: striped counters, stage-latency
//!   histograms and the metrics registry/exposition layer.
//!
//! See `README.md` for a tour; its "Workspace layout" table is the
//! system inventory.

#![deny(missing_docs)]

pub use qecool as decoder;
pub use qecool_mwpm as mwpm;
pub use qecool_obs as obs;
pub use qecool_sfq as sfq;
pub use qecool_sim as sim;
pub use qecool_surface_code as surface_code;
pub use qecool_uf as uf;

// The long-lived decoding service is the workspace's primary serving
// surface; surface it (and its budget type) at the crate root so
// downstream users don't need to know which member crate owns what.
pub use qecool::{CommitCadence, CommitHint, FatalError, SimulatedSource, SyndromeSource};
pub use qecool_obs::{MetricsRegistry, Snapshot, TelemetryHandle};
pub use qecool_sfq::budget::CycleBudget;
pub use qecool_sim::service::{
    LatencyStats, Polled, ServiceBackend, ServiceConfig, ServiceError, SessionId, SessionReport,
};
pub use qecool_sim::shard::{ShardStats, ShardedDecodeService, ShardedServiceConfig};
pub use qecool_sim::window::{StreamingMwpm, StreamingUf, WindowConfig};
pub use qecool_surface_code::{NoiseSpec, PackedReader, PackedWriter};
