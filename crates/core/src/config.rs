//! Decoder configuration: the knobs Algorithm 1 exposes.

use serde::{Deserialize, Serialize};

/// Register capacity of the paper's hardware Unit (7-bit `Reg`, §IV-A).
pub const PAPER_REG_CAPACITY: usize = 7;

/// The paper's vertical search threshold for on-line QEC (`th_v = 3`,
/// chosen in §III-C from the Fig. 4(b) measurement).
pub const PAPER_THV: usize = 3;

/// Default extra hops charged to Boundary-Unit spikes.
///
/// The paper only says the boundary spike timing "is adjusted" to
/// prioritize matching between normal Units (footnote 1) without giving
/// the magnitude. The default is 2 hops; the `ablations` binary
/// (`cargo run --release -p qecool-bench --bin ablations`) sweeps 0–3
/// hops so that the choice can be checked against the accuracy
/// threshold.
pub const DEFAULT_BOUNDARY_PENALTY: u64 = 2;

/// Configuration of a [`QecoolDecoder`](crate::QecoolDecoder).
///
/// Two presets match the paper's two operating modes:
///
/// * [`QecoolConfig::batch`] — batch-QECOOL (§III-C): the register holds a
///   whole observation window (`N_depth = d` rounds plus the closing
///   round) and decoding starts only once everything is measured
///   (`th_v = -1`, modeled as `thv: None`).
/// * [`QecoolConfig::online`] — on-line QECOOL (§III-B, §V-B): 7-bit
///   register, `th_v = 3`, decode continuously within the per-layer cycle
///   budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct QecoolConfig {
    /// Layers each Unit's register can hold.
    pub reg_capacity: usize,
    /// Vertical threshold `th_v`: a layer `b` becomes decodable only once
    /// more than `th_v` newer measurement results exist (`m − b > th_v`).
    /// `None` models the paper's `th_v = -1` (decode immediately — batch).
    pub thv: Option<usize>,
    /// Extra hops charged to Boundary-Unit spikes so that normal Units win
    /// distance ties (paper footnote 1).
    pub boundary_penalty: u64,
    /// Maximum spike-radius iteration (`N_limit`). `None` derives a value
    /// guaranteed to cover the whole 3-D lattice.
    pub nlimit: Option<u32>,
}

impl QecoolConfig {
    /// Batch-QECOOL preset for a window of `rounds` measurement layers
    /// (use `d + 1` for the paper's `d` noisy rounds plus the perfect
    /// closing round).
    pub fn batch(rounds: usize) -> Self {
        Self {
            reg_capacity: rounds,
            thv: None,
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
            nlimit: None,
        }
    }

    /// On-line QECOOL preset: the paper's 7-bit register and `th_v = 3`.
    pub fn online() -> Self {
        Self {
            reg_capacity: PAPER_REG_CAPACITY,
            thv: Some(PAPER_THV),
            boundary_penalty: DEFAULT_BOUNDARY_PENALTY,
            nlimit: None,
        }
    }

    /// Overrides the register capacity.
    pub fn with_reg_capacity(mut self, capacity: usize) -> Self {
        self.reg_capacity = capacity;
        self
    }

    /// Overrides the vertical threshold.
    pub fn with_thv(mut self, thv: Option<usize>) -> Self {
        self.thv = thv;
        self
    }

    /// Overrides the boundary spike penalty.
    pub fn with_boundary_penalty(mut self, penalty: u64) -> Self {
        self.boundary_penalty = penalty;
        self
    }

    /// Effective `N_limit` for a lattice with the given grid extents:
    /// large enough that a radius-`N_limit` spike reaches any Unit or
    /// boundary across the full register depth.
    pub fn effective_nlimit(&self, rows: usize, cols: usize) -> u32 {
        self.nlimit.unwrap_or_else(|| {
            (rows + cols + self.reg_capacity) as u32 + self.boundary_penalty as u32 + 2
        })
    }
}

impl Default for QecoolConfig {
    /// Defaults to the paper's on-line configuration.
    fn default() -> Self {
        Self::online()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_preset_matches_paper() {
        let c = QecoolConfig::online();
        assert_eq!(c.reg_capacity, 7);
        assert_eq!(c.thv, Some(3));
        assert_eq!(c.boundary_penalty, DEFAULT_BOUNDARY_PENALTY);
        assert_eq!(QecoolConfig::default(), c);
    }

    #[test]
    fn batch_preset_disables_thv() {
        let c = QecoolConfig::batch(10);
        assert_eq!(c.reg_capacity, 10);
        assert_eq!(c.thv, None);
    }

    #[test]
    fn builders_override_fields() {
        let c = QecoolConfig::online()
            .with_reg_capacity(9)
            .with_thv(Some(2))
            .with_boundary_penalty(0);
        assert_eq!(c.reg_capacity, 9);
        assert_eq!(c.thv, Some(2));
        assert_eq!(c.boundary_penalty, 0);
    }

    #[test]
    fn effective_nlimit_covers_lattice() {
        let c = QecoolConfig::online();
        let n = c.effective_nlimit(13, 12);
        // Worst-case 3-D Manhattan distance: (rows-1)+(cols-1)+depth.
        assert!(n as usize >= 12 + 11 + 7);
        let explicit = QecoolConfig {
            nlimit: Some(5),
            ..QecoolConfig::online()
        };
        assert_eq!(explicit.effective_nlimit(13, 12), 5);
    }
}
