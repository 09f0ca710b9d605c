//! Execution-cycle accounting and match telemetry.
//!
//! Table III of the paper reports per-layer execution cycles (Max / Avg /
//! σ); Fig. 4(b) reports the distribution of vertical (temporal) match
//! extents. Both are gathered here while the decoder runs; the
//! simulator's `CycleAggregate` reduces the cycles to Max / Avg / σ.

use qecool_surface_code::{Ancilla, Boundary};
use serde::{Deserialize, Serialize};

/// How a sink Unit's event was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatchKind {
    /// Matched to another Unit's event via a spike race.
    Spatial {
        /// Spatial Manhattan hop count between the Units.
        distance: usize,
        /// Temporal layer separation of the two events.
        dt: usize,
    },
    /// Matched to a later event on the *same* Unit (pure measurement-error
    /// pair — the `t != b && Reg[t] == 1` branch of Algorithm 1).
    VerticalSelf {
        /// Temporal layer separation.
        dt: usize,
    },
    /// Matched to a Boundary Unit.
    Boundary {
        /// Which boundary won the race.
        side: Boundary,
        /// Spatial hop count to that boundary.
        distance: usize,
    },
}

impl MatchKind {
    /// Temporal extent of the match in measurement layers (0 for boundary
    /// matches, which are purely spatial).
    pub fn vertical_extent(&self) -> usize {
        match *self {
            MatchKind::Spatial { dt, .. } | MatchKind::VerticalSelf { dt } => dt,
            MatchKind::Boundary { .. } => 0,
        }
    }
}

/// One resolved match.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatchRecord {
    /// The sink Unit that held the Token.
    pub sink: Ancilla,
    /// Base layer (`b`) the sink's event lived in, counted in absolute
    /// rounds since the start of the trial.
    pub layer: usize,
    /// How the event was resolved.
    pub kind: MatchKind,
}

/// Telemetry accumulated by one decoder instance.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    layer_cycles: Vec<u64>,
    total_cycles: u64,
    matches: Vec<MatchRecord>,
    timeouts: u64,
}

impl ExecStats {
    /// Creates empty telemetry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Discards all telemetry, keeping allocations for reuse.
    pub fn reset(&mut self) {
        self.layer_cycles.clear();
        self.total_cycles = 0;
        self.matches.clear();
        self.timeouts = 0;
    }

    /// Records the retirement of one layer after `cycles` of decode work.
    pub(crate) fn record_layer(&mut self, cycles: u64) {
        self.layer_cycles.push(cycles);
    }

    /// Adds decode work to the running total.
    pub(crate) fn add_cycles(&mut self, cycles: u64) {
        self.total_cycles += cycles;
    }

    /// Records a resolved match.
    pub(crate) fn record_match(&mut self, record: MatchRecord) {
        self.matches.push(record);
    }

    /// Records a sink that timed out waiting for a spike.
    pub(crate) fn record_timeout(&mut self) {
        self.timeouts += 1;
    }

    /// Per-layer cycle counts, in retirement order.
    pub fn layer_cycles(&self) -> &[u64] {
        &self.layer_cycles
    }

    /// Total decode cycles consumed so far.
    pub fn total_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// All resolved matches.
    pub fn matches(&self) -> &[MatchRecord] {
        &self.matches
    }

    /// Number of sink timeouts (failed races that will be retried at a
    /// larger radius).
    pub fn timeouts(&self) -> u64 {
        self.timeouts
    }

    /// Histogram of vertical match extents: `hist[dt]` counts matches with
    /// temporal separation `dt` (Fig. 4(b) input).
    pub fn vertical_extent_histogram(&self) -> Vec<usize> {
        let mut hist = Vec::new();
        self.vertical_extent_histogram_into(&mut hist);
        hist
    }

    /// Allocation-free variant of [`Self::vertical_extent_histogram`]:
    /// clears `hist` and fills it in place (the Monte-Carlo hot path).
    pub fn vertical_extent_histogram_into(&self, hist: &mut Vec<usize>) {
        hist.clear();
        for m in &self.matches {
            let dt = m.kind.vertical_extent();
            if hist.len() <= dt {
                hist.resize(dt + 1, 0);
            }
            hist[dt] += 1;
        }
    }

    /// Fraction of matches whose vertical extent is at least `min_dt`.
    /// Returns 0 when no matches were recorded.
    pub fn vertical_extent_fraction(&self, min_dt: usize) -> f64 {
        if self.matches.is_empty() {
            return 0.0;
        }
        let hits = self
            .matches
            .iter()
            .filter(|m| m.kind.vertical_extent() >= min_dt)
            .count();
        hits as f64 / self.matches.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertical_extent_accounting() {
        let mut st = ExecStats::new();
        let a = Ancilla::new(0, 0);
        st.record_match(MatchRecord {
            sink: a,
            layer: 0,
            kind: MatchKind::Spatial { distance: 2, dt: 0 },
        });
        st.record_match(MatchRecord {
            sink: a,
            layer: 1,
            kind: MatchKind::VerticalSelf { dt: 3 },
        });
        st.record_match(MatchRecord {
            sink: a,
            layer: 2,
            kind: MatchKind::Boundary {
                side: Boundary::West,
                distance: 1,
            },
        });
        assert_eq!(st.vertical_extent_histogram(), vec![2, 0, 0, 1]);
        assert!((st.vertical_extent_fraction(3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(st.vertical_extent_fraction(0), 1.0);
        assert_eq!(st.matches().len(), 3);
    }

    #[test]
    fn empty_fraction_is_zero() {
        assert_eq!(ExecStats::new().vertical_extent_fraction(1), 0.0);
    }

    #[test]
    fn match_kind_extent() {
        assert_eq!(
            MatchKind::Spatial { distance: 5, dt: 2 }.vertical_extent(),
            2
        );
        assert_eq!(MatchKind::VerticalSelf { dt: 4 }.vertical_extent(), 4);
        assert_eq!(
            MatchKind::Boundary {
                side: Boundary::East,
                distance: 2
            }
            .vertical_extent(),
            0
        );
    }

    #[test]
    fn layer_recording() {
        let mut st = ExecStats::new();
        st.record_layer(10);
        st.record_layer(30);
        st.add_cycles(40);
        st.record_timeout();
        assert_eq!(st.layer_cycles(), &[10, 30]);
        assert_eq!(st.total_cycles(), 40);
        assert_eq!(st.timeouts(), 1);
    }
}
