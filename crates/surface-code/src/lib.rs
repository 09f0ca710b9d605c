//! Planar surface-code substrate for the QECOOL reproduction.
//!
//! This crate implements the quantum-error-correction substrate that the
//! QECOOL paper (Ueno et al., DAC 2021) evaluates its decoder on:
//!
//! * the **planar surface-code lattice** of code distance `d`, restricted to
//!   the bit-flip (Pauli-X) sector that the paper simulates — a
//!   `d × (d − 1)` grid of syndrome ancillas with two open (west/east)
//!   boundaries, exactly matching the paper's `d × (d − 1)` Unit array and
//!   its two shared Boundary Units (§IV-A);
//! * a **noise-family matrix** (see [`noise`]): the paper's
//!   phenomenological model (independent data-qubit flips with
//!   probability `p` per measurement round *and* syndrome measurement
//!   flips with probability `q` per round) plus asymmetric, code-capacity,
//!   Z-biased, heralded-erasure and burst/correlated families, all named
//!   by the serializable [`NoiseSpec`];
//! * a **bit-packed detection-event file format** (see [`packed`]) so any
//!   run can be recorded and replayed byte-identically, or sessions fed
//!   from externally sampled events;
//! * **syndrome extraction with detection-event semantics**: the decoder
//!   consumes detection events (`current syndrome ⊕ last reported syndrome`)
//!   and the tracker folds the decoder's own corrections into the reference
//!   value so a correction never spawns a spurious event (the latch of
//!   [`CodePatch`]);
//! * the **logical failure check** (parity of the residual error across a
//!   west–east cut).
//!
//! The Pauli-Z sector is an exact mirror image (transpose the lattice), so —
//! like the paper — all quantitative experiments run on the X sector only.
//!
//! # Example
//!
//! ```
//! use qecool_surface_code::{CodePatch, Lattice, NoiseSpec};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), qecool_surface_code::LatticeError> {
//! let lattice = Lattice::new(5)?;
//! let mut patch = CodePatch::new(lattice);
//! let noise = NoiseSpec::Phenomenological { p: 0.001 };
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//!
//! // One noisy QEC round: inject noise, then measure all stabilizers.
//! let round = patch.noisy_round(&noise, &mut rng);
//! assert_eq!(round.events().len(), patch.lattice().num_ancillas());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod bitvec;
pub mod geometry;
pub mod history;
pub mod noise;
pub mod packed;
pub mod patch;
pub mod syndrome;

pub use bitvec::BitVec;
pub use geometry::{Ancilla, Boundary, Edge, EdgeKind, Lattice, LatticeError};
pub use history::SyndromeHistory;
pub use noise::{NoiseSpec, NoiseSpecError};
pub use packed::{PackedError, PackedHeader, PackedReader, PackedWriter};
pub use patch::CodePatch;
pub use syndrome::DetectionRound;
