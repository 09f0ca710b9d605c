//! Union-find surface-code decoder (Delfosse–Nickerson) — the
//! almost-linear-time baseline the QECOOL paper surveys in Table IV
//! (\[3\], hardware architecture by Das et al. \[2\]).
//!
//! The decoder grows clusters around detection events on the 3-D
//! (space × time) decoding graph until every cluster has even defect
//! parity or touches an open boundary, then peels a spanning forest of
//! the grown *erasure* to extract the correction. Its threshold sits just
//! below MWPM's (literature: 2.6% vs 2.9% phenomenological) at a fraction
//! of the computational cost — which is why the paper lists it as the
//! FPGA-class contender against which cryogenic decoders are judged.
//!
//! * [`graph`] — the decoding graph (spatial/temporal/boundary edges),
//!   computed from indices: O(1) endpoints and incidence, and one
//!   round's incidence as an O(d²) template the decoder shifts by round;
//! * [`dsu`] — union-find with defect-parity and boundary bookkeeping,
//!   plus per-cluster member lists spliced in O(1) on union, reset for
//!   the next decode in O(1) by starting a new epoch;
//! * [`decoder`] — growth + peeling and correction extraction.
//!
//! A decode's work follows the defects, not the window: growth visits
//! only the edges around active clusters (O(active clusters + active
//! cluster size) per step), peeling touches only the erasure components
//! the caller asks for (a sliding window peels only the ones it
//! commits), and a defect-free window returns before touching anything
//! graph-sized. Nothing is O(graph) per decode: the scratch arrays are
//! kept per thread and reset only where the decode touched them, and
//! there is no graph to build. Once the scratch has grown, a window
//! commit allocates nothing either: each component reaches the caller
//! through a visitor over the scratch
//! ([`UnionFindDecoder::for_each_component`]). The decoder is pinned
//! bit for bit (components, defect order, corrections, growth steps,
//! erasure size) to the original whole-graph-scan implementation, which
//! its tests keep as a reference.
//!
//! # Example
//!
//! ```
//! use qecool_surface_code::{CodePatch, Lattice, SyndromeHistory};
//! use qecool_uf::UnionFindDecoder;
//!
//! # fn main() -> Result<(), qecool_surface_code::LatticeError> {
//! let lattice = Lattice::new(3)?;
//! let mut patch = CodePatch::new(lattice.clone());
//! patch.inject_error(lattice.vertical_edge(0, 1));
//! let mut history = SyndromeHistory::new(lattice.clone());
//! history.push(patch.perfect_round());
//!
//! let outcome = UnionFindDecoder::new(lattice).decode(&history);
//! outcome.apply(&mut patch);
//! assert!(patch.syndrome_is_trivial());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod decoder;
pub mod dsu;
pub mod graph;
#[cfg(test)]
mod reference;

pub use decoder::{UfComponent, UfComponentOutcome, UfGrowth, UfOutcome, UnionFindDecoder};
pub use graph::{DecodingGraph, GraphEdge, GraphEdgeKind};
