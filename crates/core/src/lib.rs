//! QECOOL: the spike-based on-line surface-code decoder of Ueno et al.
//! (DAC 2021), reproduced as a cycle-accounted simulation of the paper's
//! distributed SFQ hardware.
//!
//! The decoder models the paper's machine — a `d × (d − 1)` grid of Units
//! with small measurement registers, Row Masters, shared Boundary Units
//! and a Controller — and implements Algorithm 1: greedy nearest-pair
//! matching by racing spikes across the grid with an iteratively growing
//! radius, applied either **batch** (decode after a full observation
//! window) or **on-line** (decode continuously within a per-layer cycle
//! budget, with register overflow as the failure mode).
//!
//! * [`QecoolDecoder`] — the decoder itself ([`decoder`] module docs
//!   describe the hardware mapping).
//! * [`api::Decoder`] — the streaming ingest/step/finish trait the
//!   decoding service drives; implemented here for [`QecoolDecoder`] and
//!   by the windowed baseline adapters in `qecool-sim`.
//! * [`QecoolConfig`] — operating-mode presets (batch / on-line with the
//!   paper's 7-bit `Reg` and `th_v = 3`).
//! * [`reg`] — the per-Unit measurement register bank.
//! * [`stats`] — per-layer cycle accounting (Table III) and match
//!   telemetry (Fig. 4(b)).
//! * [`json`] — the workspace's shared hand-rolled JSON tree (the
//!   vendored `serde` is a stub), used by the bench perf records and the
//!   campaign checkpoint files.
//!
//! # Example
//!
//! ```
//! use qecool::{QecoolConfig, QecoolDecoder};
//! use qecool_surface_code::{CodePatch, Lattice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let lattice = Lattice::new(5)?;
//! let mut patch = CodePatch::new(lattice.clone());
//! patch.inject_error(lattice.vertical_edge(1, 2));
//!
//! let mut decoder = QecoolDecoder::new(lattice, QecoolConfig::batch(1));
//! decoder.push_round(&patch.perfect_round())?;
//! let report = decoder.drain();
//! patch.apply_corrections(report.corrections.iter().copied());
//! assert!(patch.syndrome_is_trivial());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod api;
pub mod config;
pub mod decoder;
pub mod error;
pub mod json;
pub mod reg;
pub mod stats;

pub use api::{
    CommitCadence, CommitHint, DecodeOutput, DecodeStats, Decoder, SimulatedSource, SyndromeSource,
};
pub use config::{QecoolConfig, DEFAULT_BOUNDARY_PENALTY, PAPER_REG_CAPACITY, PAPER_THV};
pub use decoder::{QecoolDecoder, RunReport};
pub use error::{exit_with, FatalError};
pub use reg::{RegFile, RegOverflow};
pub use stats::{ExecStats, MatchKind, MatchRecord};
