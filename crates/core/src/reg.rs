//! The per-Unit measurement register (`Reg`) bank.
//!
//! Each hardware Unit stores its ancilla's detection events in a small
//! shift-register queue (`Reg`, 7 bits in the paper's implementation,
//! §IV-A). A `Push` broadcast appends the newest measurement to every Unit;
//! a `Pop` broadcast retires the oldest layer once it is fully decoded.
//!
//! [`RegFile`] models the whole bank: one machine word per Unit, plus the
//! shared occupancy counter `m` (all Units hold the same number of layers —
//! the Controller broadcasts Push/Pop to everyone simultaneously).

use std::fmt;
use std::ops::Range;

use qecool_surface_code::bitvec::IterOnes;
use qecool_surface_code::BitVec;

/// Maximum register capacity supported by the packed representation.
pub const MAX_REG_CAPACITY: usize = 64;

/// Error returned when a `Push` arrives while the registers are full —
/// the paper treats this buffer overflow as a decoding failure (§V-B).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegOverflow {
    capacity: usize,
}

impl RegOverflow {
    /// Builds the overflow error for a register bank of `capacity`
    /// layers. Test-only: lets custom [`crate::api::Decoder`]
    /// implementations in tests signal overflow without standing up a
    /// real register bank.
    #[cfg(test)]
    pub(crate) fn at(capacity: usize) -> Self {
        Self { capacity }
    }

    /// The register capacity that was exceeded.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

impl fmt::Display for RegOverflow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "measurement register overflow (capacity {} layers)",
            self.capacity
        )
    }
}

impl std::error::Error for RegOverflow {}

/// The bank of per-Unit measurement registers.
///
/// Bit `t` of unit `u`'s word is the detection event of time layer `t`
/// (0 = oldest pending layer).
///
/// Next to the words the bank keeps two summaries, updated by every
/// push, clear and shift so that reading them never scans the units:
///
/// * **live units** — bit `u` of a bitset is set iff unit `u` holds an
///   event in some pending layer (its word is non-zero);
/// * **layer-0 count** — the number of units whose layer-0 bit is set.
///
/// The Controller reads them for the `Pop` condition
/// ([`Self::layer_zero_clear`]), the Row Master's quiet-row test
/// ([`Self::range_quiet`]) and the spike race ([`Self::live_units`]),
/// so a step costs what the live events cost, not what the grid costs.
///
/// # Example
///
/// ```
/// use qecool::reg::RegFile;
///
/// let mut regs = RegFile::new(4, 7);
/// regs.push_round(&[true, false, false, true])?;
/// assert_eq!(regs.occupancy(), 1);
/// assert!(regs.get(0, 0));
/// assert_eq!(regs.live_units().collect::<Vec<_>>(), [0, 3]);
/// assert!(regs.range_quiet(1..3));
/// regs.clear(0, 0);
/// regs.clear(3, 0);
/// assert!(regs.layer_zero_clear());
/// # Ok::<(), qecool::reg::RegOverflow>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    words: Vec<u64>,
    /// Bit `u` set iff `words[u] != 0`.
    live: BitVec,
    /// Number of units whose layer-0 bit is set.
    layer_zero: usize,
    capacity: usize,
    occupancy: usize,
}

impl RegFile {
    /// Creates a register bank for `num_units` Units with the given layer
    /// capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is 0 or exceeds [`MAX_REG_CAPACITY`].
    pub fn new(num_units: usize, capacity: usize) -> Self {
        assert!(
            capacity > 0 && capacity <= MAX_REG_CAPACITY,
            "capacity must be in 1..={MAX_REG_CAPACITY}, got {capacity}"
        );
        Self {
            words: vec![0; num_units],
            live: BitVec::zeros(num_units),
            layer_zero: 0,
            capacity,
            occupancy: 0,
        }
    }

    /// Number of Units in the bank.
    pub fn num_units(&self) -> usize {
        self.words.len()
    }

    /// Empties every register and the occupancy counter, reusing the
    /// existing allocation (a hardware power-on reset).
    pub fn reset(&mut self) {
        self.words.fill(0);
        self.live.clear();
        self.layer_zero = 0;
        self.occupancy = 0;
    }

    /// Layer capacity of each register (7 in the paper's design).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of layers currently held (`m` in Algorithm 1).
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Appends one detection-event layer (the `Push` broadcast).
    ///
    /// # Errors
    ///
    /// Returns [`RegOverflow`] when the registers already hold
    /// `capacity` layers — the slow-decoder failure mode of §V-B.
    ///
    /// # Panics
    ///
    /// Panics if `events.len() != self.num_units()`.
    pub fn push_round(&mut self, events: &[bool]) -> Result<(), RegOverflow> {
        self.push_bits(&events.iter().copied().collect())
    }

    /// [`Self::push_round`] from a packed event vector (e.g. a
    /// [`DetectionRound`](qecool_surface_code::DetectionRound)'s events):
    /// visits the fired units only — the allocation-free hot path.
    ///
    /// # Errors
    ///
    /// Returns [`RegOverflow`] when the registers are already full.
    ///
    /// # Panics
    ///
    /// Panics if `events.len() != self.num_units()`.
    pub fn push_bits(&mut self, events: &BitVec) -> Result<(), RegOverflow> {
        assert_eq!(events.len(), self.num_units(), "round width mismatch");
        if self.occupancy == self.capacity {
            return Err(RegOverflow {
                capacity: self.capacity,
            });
        }
        let bit = 1u64 << self.occupancy;
        for u in events.iter_ones() {
            self.words[u] |= bit;
            self.live.set(u, true);
        }
        if self.occupancy == 0 {
            // An empty bank holds no events, so layer 0 is this round.
            self.layer_zero = events.count_ones();
        }
        self.occupancy += 1;
        Ok(())
    }

    /// Retires the oldest layer (the `Pop` broadcast / `SHIFTREG`).
    ///
    /// # Panics
    ///
    /// Panics if the bank is empty, or if layer 0 still holds events —
    /// the Controller only pops once the oldest layer is fully decoded.
    pub fn shift(&mut self) {
        assert!(self.occupancy > 0, "shift on empty register bank");
        assert!(
            self.layer_zero_clear(),
            "shift while layer 0 still holds events"
        );
        // Layer 0 is clear, so no word empties: the live set is unchanged.
        let mut layer_zero = 0;
        for word in &mut self.words {
            *word >>= 1;
            layer_zero += (*word & 1) as usize;
        }
        self.layer_zero = layer_zero;
        self.occupancy -= 1;
    }

    /// Detection-event bit of unit `u` at layer `t`.
    ///
    /// # Panics
    ///
    /// Panics if `t >= occupancy` or `u` is out of range.
    #[inline]
    pub fn get(&self, u: usize, t: usize) -> bool {
        assert!(
            t < self.occupancy,
            "layer {t} >= occupancy {}",
            self.occupancy
        );
        (self.words[u] >> t) & 1 == 1
    }

    /// Clears the event bit of unit `u` at layer `t` (a match consumed it).
    ///
    /// # Panics
    ///
    /// Panics if `t >= occupancy` or `u` is out of range.
    #[inline]
    pub fn clear(&mut self, u: usize, t: usize) {
        assert!(
            t < self.occupancy,
            "layer {t} >= occupancy {}",
            self.occupancy
        );
        let mask = 1u64 << t;
        let word = &mut self.words[u];
        if *word & mask == 0 {
            return;
        }
        *word &= !mask;
        if t == 0 {
            self.layer_zero -= 1;
        }
        if *word == 0 {
            self.live.set(u, false);
        }
    }

    /// `true` when no unit in `units` holds an event in any pending
    /// layer — what the Row Master checks before granting a Token to a
    /// row. A masked test of the live-unit bitset, so a row that
    /// straddles two of its words costs two word reads.
    ///
    /// # Panics
    ///
    /// Panics if `units.end > self.num_units()`.
    #[inline]
    pub fn range_quiet(&self, units: Range<usize>) -> bool {
        assert!(
            units.end <= self.num_units(),
            "unit range {units:?} out of {} units",
            self.num_units()
        );
        if units.is_empty() {
            return true;
        }
        let words = self.live.words();
        let (first, last) = (units.start / 64, (units.end - 1) / 64);
        (first..=last).all(|w| {
            let mut mask = !0u64;
            if w == first {
                mask &= !0u64 << (units.start % 64);
            }
            if w == last {
                mask &= !0u64 >> (63 - (units.end - 1) % 64);
            }
            words[w] & mask == 0
        })
    }

    /// The units holding an event in some pending layer, in ascending
    /// order — the spike initiators of a race.
    #[inline]
    pub fn live_units(&self) -> IterOnes<'_> {
        self.live.iter_ones()
    }

    /// Earliest layer `>= t` where unit `u` holds an event — the
    /// oldest-first scan of the paper's spike generation (§III-B).
    #[inline]
    pub fn first_event_at_or_after(&self, u: usize, t: usize) -> Option<usize> {
        if t >= self.occupancy {
            return None;
        }
        let masked = self.words[u] >> t;
        if masked == 0 {
            None
        } else {
            let layer = t + masked.trailing_zeros() as usize;
            (layer < self.occupancy).then_some(layer)
        }
    }

    /// `true` when no unit holds an event in layer 0 (the `Pop` condition).
    #[inline]
    pub fn layer_zero_clear(&self) -> bool {
        self.layer_zero == 0
    }

    /// `true` when every register is empty (decoding fully drained).
    pub fn all_clear(&self) -> bool {
        self.live.is_zero()
    }

    /// Total number of pending events across all units and layers.
    pub fn pending_events(&self) -> usize {
        self.live_units()
            .map(|u| self.words[u].count_ones() as usize)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn push_get_roundtrip() {
        let mut regs = RegFile::new(3, 7);
        regs.push_round(&[true, false, true]).unwrap();
        regs.push_round(&[false, true, false]).unwrap();
        assert_eq!(regs.occupancy(), 2);
        assert!(regs.get(0, 0));
        assert!(!regs.get(0, 1));
        assert!(regs.get(1, 1));
        assert!(regs.get(2, 0));
        assert_eq!(regs.pending_events(), 3);
    }

    #[test]
    fn overflow_after_capacity_pushes() {
        let mut regs = RegFile::new(2, 3);
        for _ in 0..3 {
            regs.push_round(&[false, false]).unwrap();
        }
        let err = regs.push_round(&[false, false]).unwrap_err();
        assert_eq!(err.capacity(), 3);
        assert!(err.to_string().contains("overflow"));
    }

    #[test]
    fn shift_retires_oldest_layer() {
        let mut regs = RegFile::new(2, 4);
        regs.push_round(&[false, false]).unwrap();
        regs.push_round(&[true, false]).unwrap();
        regs.shift();
        assert_eq!(regs.occupancy(), 1);
        assert!(regs.get(0, 0), "layer 1 must move down to layer 0");
    }

    #[test]
    #[should_panic(expected = "layer 0 still holds events")]
    fn shift_with_pending_layer_zero_panics() {
        let mut regs = RegFile::new(1, 4);
        regs.push_round(&[true]).unwrap();
        regs.shift();
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn shift_empty_panics() {
        RegFile::new(1, 4).shift();
    }

    #[test]
    fn clear_then_quiet() {
        let mut regs = RegFile::new(2, 4);
        regs.push_round(&[true, true]).unwrap();
        regs.clear(0, 0);
        assert!(regs.range_quiet(0..1));
        assert!(!regs.range_quiet(1..2));
        assert!(!regs.layer_zero_clear());
        regs.clear(1, 0);
        assert!(regs.layer_zero_clear());
        assert!(regs.all_clear());
    }

    #[test]
    fn first_event_scans_oldest_first() {
        let mut regs = RegFile::new(1, 7);
        regs.push_round(&[false]).unwrap();
        regs.push_round(&[true]).unwrap();
        regs.push_round(&[false]).unwrap();
        regs.push_round(&[true]).unwrap();
        assert_eq!(regs.first_event_at_or_after(0, 0), Some(1));
        assert_eq!(regs.first_event_at_or_after(0, 1), Some(1));
        assert_eq!(regs.first_event_at_or_after(0, 2), Some(3));
        assert_eq!(regs.first_event_at_or_after(0, 4), None);
        regs.clear(0, 1);
        assert_eq!(regs.first_event_at_or_after(0, 0), Some(3));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        RegFile::new(1, 0);
    }

    #[test]
    fn seven_bit_reg_matches_paper_capacity() {
        let mut regs = RegFile::new(1, 7);
        for _ in 0..7 {
            regs.push_round(&[false]).unwrap();
        }
        assert!(regs.push_round(&[false]).is_err());
    }

    #[test]
    fn overflow_at_seven_depends_on_occupancy_not_events() {
        // The paper's overflow condition is occupancy = capacity; even a
        // fully event-free register bank refuses the 8th push.
        let mut regs = RegFile::new(4, 7);
        for _ in 0..7 {
            regs.push_round(&[false; 4]).unwrap();
        }
        assert!(regs.all_clear(), "no events were pushed");
        let err = regs.push_round(&[true; 4]).unwrap_err();
        assert_eq!(err.capacity(), 7);
    }

    #[test]
    fn overflow_leaves_state_untouched_and_is_repeatable() {
        let mut regs = RegFile::new(2, 7);
        for layer in 0..7 {
            regs.push_round(&[layer % 2 == 0, false]).unwrap();
        }
        let before = regs.clone();
        for _ in 0..3 {
            assert!(regs.push_round(&[true, true]).is_err());
        }
        assert_eq!(regs, before, "failed push must not mutate the bank");
        assert_eq!(regs.occupancy(), 7);
    }

    #[test]
    fn shift_at_the_boundary_frees_exactly_one_layer() {
        let mut regs = RegFile::new(1, 7);
        for _ in 0..7 {
            regs.push_round(&[false]).unwrap();
        }
        assert!(regs.push_round(&[false]).is_err());
        regs.shift();
        assert_eq!(regs.occupancy(), 6);
        regs.push_round(&[true]).unwrap();
        assert!(
            regs.push_round(&[false]).is_err(),
            "full again after refill"
        );
        assert!(regs.get(0, 6), "refilled layer landed on top");
    }

    #[test]
    fn reset_restores_full_capacity() {
        let mut regs = RegFile::new(3, 7);
        for _ in 0..7 {
            regs.push_round(&[true, false, true]).unwrap();
        }
        assert!(regs.push_round(&[false; 3]).is_err());
        regs.reset();
        assert_eq!(regs.occupancy(), 0);
        assert!(regs.all_clear());
        for _ in 0..7 {
            regs.push_round(&[false; 3]).unwrap();
        }
        assert!(regs.push_round(&[false; 3]).is_err());
    }

    #[test]
    fn max_capacity_word_boundary() {
        // The packed u64 representation supports exactly 64 layers.
        let mut regs = RegFile::new(1, MAX_REG_CAPACITY);
        for _ in 0..MAX_REG_CAPACITY {
            regs.push_round(&[false]).unwrap();
        }
        assert_eq!(regs.push_round(&[false]).unwrap_err().capacity(), 64);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn beyond_word_capacity_rejected() {
        RegFile::new(1, MAX_REG_CAPACITY + 1);
    }

    /// Checks the bank's incremental summaries against brute-force scans
    /// of its words.
    fn assert_summaries_match_words(regs: &RegFile) {
        let n = regs.num_units();
        let layer_zero_clear = regs.words.iter().all(|w| w & 1 == 0);
        prop_assert_eq!(regs.layer_zero_clear(), layer_zero_clear);
        let live: Vec<usize> = (0..n).filter(|&u| regs.words[u] != 0).collect();
        prop_assert_eq!(regs.live_units().collect::<Vec<_>>(), live);
        // Every row range of every grid width up to d = 14.
        for cols in 1..=13 {
            for start in 0..n {
                let end = (start + cols).min(n);
                let quiet = regs.words[start..end].iter().all(|&w| w == 0);
                prop_assert_eq!(regs.range_quiet(start..end), quiet, "{}..{}", start, end);
            }
        }
    }

    proptest! {
        /// After every push, clear and shift, the layer-0 count, the
        /// live-unit set and the quiet-row test agree with a scan of the
        /// words — on banks of one word up to three.
        #[test]
        fn prop_summaries_track_the_words(n in 1usize..=160, seed in any::<u64>()) {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let mut regs = RegFile::new(n, 7);
            for _ in 0..40 {
                match rng.gen_range(0..3u8) {
                    0 => {
                        let density = [0.0, 0.02, 0.1, 0.5][rng.gen_range(0..4usize)];
                        let events: Vec<bool> = (0..n).map(|_| rng.gen_bool(density)).collect();
                        let full = regs.occupancy() == regs.capacity();
                        prop_assert_eq!(regs.push_round(&events).is_err(), full);
                    }
                    1 if regs.occupancy() > 0 => {
                        let (u, t) = (rng.gen_range(0..n), rng.gen_range(0..regs.occupancy()));
                        regs.clear(u, t);
                    }
                    2 if regs.occupancy() > 0 => {
                        for u in 0..n {
                            regs.clear(u, 0);
                        }
                        regs.shift();
                    }
                    _ => {}
                }
                assert_summaries_match_words(&regs);
            }
        }

        /// Pushing then shifting layer-by-layer preserves the event stream
        /// (a FIFO law).
        #[test]
        fn prop_fifo_law(rounds in proptest::collection::vec(
            proptest::collection::vec(any::<bool>(), 3), 1..8)
        ) {
            let mut regs = RegFile::new(3, 8);
            for r in &rounds {
                regs.push_round(r).unwrap();
            }
            for r in &rounds {
                for (u, &fired) in r.iter().enumerate() {
                    prop_assert_eq!(regs.get(u, 0), fired);
                    if fired {
                        regs.clear(u, 0);
                    }
                }
                regs.shift();
            }
            prop_assert!(regs.all_clear());
        }

        /// `first_event_at_or_after` agrees with a naive scan.
        #[test]
        fn prop_first_event_matches_naive(
            bits in proptest::collection::vec(any::<bool>(), 1..8),
            from in 0usize..8,
        ) {
            let mut regs = RegFile::new(1, 8);
            for &b in &bits {
                regs.push_round(&[b]).unwrap();
            }
            let naive = bits
                .iter()
                .enumerate()
                .skip(from.min(bits.len()))
                .find_map(|(t, &b)| b.then_some(t));
            prop_assert_eq!(regs.first_event_at_or_after(0, from), naive);
        }
    }
}
