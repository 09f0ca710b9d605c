//! Minimum-weight perfect matching (MWPM) and the baseline surface-code
//! decoder the QECOOL paper compares against.
//!
//! The crate has two layers:
//!
//! * [`blossom`] / [`perfect`] — a from-scratch implementation of Edmonds'
//!   blossom algorithm for maximum-weight matching on general graphs
//!   (O(n³), integer-exact), plus the minimum-weight *perfect* matching
//!   reduction. [`perfect::PerfectMatcher`] keeps its buffers between
//!   calls;
//! * [`decoder`] — the surface-code MWPM decoder: detection events →
//!   matching graph (3-D Manhattan weights, graph-doubling boundary
//!   reduction; by default each event joins its 16 nearest events, and
//!   [`MwpmDecoder::exact`] joins every pair) → correction chains.
//!
//! The matching graph and the blossom kernel are pinned bit for bit (edge
//! lists and `mate` vectors) to the original implementation, which the
//! tests keep as a reference.
//!
//! # Example
//!
//! ```
//! use qecool_mwpm::blossom::max_weight_matching;
//!
//! let mate = max_weight_matching(4, &[(0, 1, 3), (1, 2, 5), (2, 3, 3)], false);
//! assert_eq!(mate[0], Some(1));
//! assert_eq!(mate[2], Some(3));
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod blossom;
pub mod decoder;
pub mod perfect;
#[cfg(test)]
mod reference;

pub use decoder::{Match, MwpmDecoder, MwpmOutcome};
pub use perfect::{min_weight_perfect_matching, PerfectMatcher, PerfectMatchingError};
