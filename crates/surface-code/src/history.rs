//! Accumulated multi-round syndrome history (the 3-D lattice of Fig. 1(c)).

use crate::geometry::Lattice;
use crate::syndrome::{DetectionEvent, DetectionRound};

/// An ordered stack of detection rounds — the 3-D (space × time) syndrome
/// lattice that batch decoders consume whole.
///
/// Round 0 is the oldest layer. The history does not interpret events; it
/// only collects them and can enumerate them as
/// [`DetectionEvent`]s for graph-based decoders.
///
/// # Example
///
/// ```
/// use qecool_surface_code::{CodePatch, Lattice, NoiseSpec, SyndromeHistory};
/// use rand::SeedableRng;
///
/// # fn main() -> Result<(), qecool_surface_code::LatticeError> {
/// let lattice = Lattice::new(3)?;
/// let mut patch = CodePatch::new(lattice.clone());
/// let mut history = SyndromeHistory::new(lattice);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(5);
/// let noise = NoiseSpec::Phenomenological { p: 0.02 };
/// for _ in 0..3 {
///     history.push(patch.noisy_round(&noise, &mut rng));
/// }
/// history.push(patch.perfect_round());
/// assert_eq!(history.num_rounds(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyndromeHistory {
    lattice: Lattice,
    /// Round storage. Only `rounds[..live]` are collected data; the tail
    /// holds retired buffers kept warm for [`Self::begin_round`] reuse.
    rounds: Vec<DetectionRound>,
    live: usize,
}

impl SyndromeHistory {
    /// Creates an empty history for the given lattice.
    pub fn new(lattice: Lattice) -> Self {
        Self {
            lattice,
            rounds: Vec::new(),
            live: 0,
        }
    }

    /// The lattice the rounds were measured on.
    pub fn lattice(&self) -> &Lattice {
        &self.lattice
    }

    /// Appends a measurement round (newest layer).
    ///
    /// # Panics
    ///
    /// Panics if the round's width does not match the lattice.
    pub fn push(&mut self, round: DetectionRound) {
        assert_eq!(
            round.events().len(),
            self.lattice.num_ancillas(),
            "round width does not match lattice"
        );
        if self.live < self.rounds.len() {
            self.rounds[self.live] = round;
        } else {
            self.rounds.push(round);
        }
        self.live += 1;
    }

    /// Appends a copy of `round`, reusing a retired round buffer when one
    /// is available — the allocation-free sibling of [`Self::push`] for
    /// hot loops that keep ownership of their round.
    ///
    /// # Panics
    ///
    /// Panics if the round's width does not match the lattice.
    pub fn push_copy(&mut self, round: &DetectionRound) {
        assert_eq!(
            round.events().len(),
            self.lattice.num_ancillas(),
            "round width does not match lattice"
        );
        self.begin_round().copy_from(round);
    }

    /// Opens the next (newest) layer in place and returns it for the
    /// caller to fill — typically as the target of
    /// [`CodePatch::measure_into`](crate::CodePatch::measure_into).
    /// Reuses a buffer retired by [`Self::clear`] when one is available;
    /// the returned round starts all-quiet either way.
    pub fn begin_round(&mut self) -> &mut DetectionRound {
        if self.live < self.rounds.len() {
            self.rounds[self.live].clear();
        } else {
            self.rounds
                .push(DetectionRound::zeros(self.lattice.num_ancillas()));
        }
        self.live += 1;
        &mut self.rounds[self.live - 1]
    }

    /// Number of rounds collected.
    pub fn num_rounds(&self) -> usize {
        self.live
    }

    /// Discards all collected rounds, keeping every round buffer for
    /// reuse across Monte-Carlo shots and service windows.
    pub fn clear(&mut self) {
        self.live = 0;
    }

    /// `true` when no round has been pushed.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The round at time layer `t` (0 = oldest).
    pub fn round(&self, t: usize) -> Option<&DetectionRound> {
        self.rounds[..self.live].get(t)
    }

    /// Iterates over the rounds from oldest to newest.
    pub fn iter(&self) -> std::slice::Iter<'_, DetectionRound> {
        self.rounds[..self.live].iter()
    }

    /// Total number of detection events across all rounds.
    pub fn num_events(&self) -> usize {
        self.iter().map(DetectionRound::num_events).sum()
    }

    /// Enumerates every detection event as a 3-D lattice node, ordered by
    /// round then ancilla index.
    pub fn events(&self) -> Vec<DetectionEvent> {
        let mut out = Vec::with_capacity(self.num_events());
        for (t, round) in self.iter().enumerate() {
            for idx in round.events().iter_ones() {
                out.push(DetectionEvent::new(self.lattice.ancilla_from_index(idx), t));
            }
        }
        out
    }
}

impl<'a> IntoIterator for &'a SyndromeHistory {
    type Item = &'a DetectionRound;
    type IntoIter = std::slice::Iter<'a, DetectionRound>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitvec::BitVec;

    fn round_with(lat: &Lattice, fired: &[usize]) -> DetectionRound {
        let mut bits = BitVec::zeros(lat.num_ancillas());
        for &i in fired {
            bits.set(i, true);
        }
        DetectionRound::new(bits)
    }

    #[test]
    fn push_and_enumerate() {
        let lat = Lattice::new(3).unwrap();
        let mut h = SyndromeHistory::new(lat.clone());
        assert!(h.is_empty());
        h.push(round_with(&lat, &[0, 3]));
        h.push(round_with(&lat, &[3]));
        assert_eq!(h.num_rounds(), 2);
        assert_eq!(h.num_events(), 3);
        let events = h.events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0], DetectionEvent::new(lat.ancilla_from_index(0), 0));
        assert_eq!(events[2], DetectionEvent::new(lat.ancilla_from_index(3), 1));
    }

    #[test]
    fn clear_retires_buffers_for_begin_round_reuse() {
        let lat = Lattice::new(3).unwrap();
        let mut h = SyndromeHistory::new(lat.clone());
        h.push(round_with(&lat, &[0, 3]));
        h.push(round_with(&lat, &[5]));
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.num_rounds(), 0);
        assert!(h.round(0).is_none());
        // A fresh layer reuses the retired buffer and starts quiet.
        let r = h.begin_round();
        assert!(r.is_quiet());
        r.events_mut().set(2, true);
        assert_eq!(h.num_rounds(), 1);
        assert_eq!(h.round(0).unwrap().fired_indices(), vec![2]);
        assert_eq!(h.num_events(), 1);
    }

    #[test]
    fn push_copy_matches_push() {
        let lat = Lattice::new(3).unwrap();
        let source = round_with(&lat, &[1, 4]);
        let mut by_value = SyndromeHistory::new(lat.clone());
        by_value.push(source.clone());
        let mut by_copy = SyndromeHistory::new(lat.clone());
        by_copy.push_copy(&source);
        assert_eq!(by_value.round(0), by_copy.round(0));
        assert_eq!(by_copy.events(), by_value.events());
    }

    #[test]
    #[should_panic(expected = "does not match lattice")]
    fn push_copy_rejects_mismatched_round() {
        let lat = Lattice::new(3).unwrap();
        let mut h = SyndromeHistory::new(lat);
        h.push_copy(&DetectionRound::zeros(2));
    }

    #[test]
    #[should_panic(expected = "does not match lattice")]
    fn rejects_mismatched_round() {
        let lat = Lattice::new(3).unwrap();
        let mut h = SyndromeHistory::new(lat);
        h.push(DetectionRound::new(BitVec::zeros(2)));
    }

    #[test]
    fn iterator_visits_in_order() {
        let lat = Lattice::new(3).unwrap();
        let mut h = SyndromeHistory::new(lat.clone());
        h.push(round_with(&lat, &[1]));
        h.push(round_with(&lat, &[2]));
        let counts: Vec<usize> = (&h).into_iter().map(|r| r.fired_indices()[0]).collect();
        assert_eq!(counts, vec![1, 2]);
        assert!(h.round(0).is_some());
        assert!(h.round(2).is_none());
    }
}
