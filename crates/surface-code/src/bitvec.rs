//! A compact, fixed-length bit vector used for error states and syndromes.
//!
//! The simulator manipulates Pauli-error indicator vectors (one bit per data
//! qubit) and syndrome vectors (one bit per ancilla) in tight Monte-Carlo
//! loops. [`BitVec`] packs them into `u64` words and provides the XOR/parity
//! operations the surface-code algebra needs.

use std::fmt;
use std::ops::BitXorAssign;

/// A fixed-length vector of bits packed into `u64` words.
///
/// Unlike `Vec<bool>`, XOR and population count operate a word at a time,
/// which is what the Monte-Carlo inner loops in
/// [`CodePatch`](crate::CodePatch) need.
///
/// # Example
///
/// ```
/// use qecool_surface_code::BitVec;
///
/// let mut bits = BitVec::zeros(130);
/// bits.set(3, true);
/// bits.toggle(129);
/// assert!(bits.get(3));
/// assert_eq!(bits.count_ones(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        Self {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` when the vector holds zero bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> bool {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Writes the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn set(&mut self, idx: usize, value: bool) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        let mask = 1u64 << (idx % 64);
        if value {
            self.words[idx / 64] |= mask;
        } else {
            self.words[idx / 64] &= !mask;
        }
    }

    /// Flips the bit at `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn toggle(&mut self, idx: usize) {
        assert!(idx < self.len, "bit index {idx} out of range {}", self.len);
        self.words[idx / 64] ^= 1u64 << (idx % 64);
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Returns `true` when no bit is set.
    pub fn is_zero(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Clears every bit.
    pub fn clear(&mut self) {
        for w in &mut self.words {
            *w = 0;
        }
    }

    /// Overwrites this vector with the contents of `other` without
    /// allocating — the word buffers are copied in place.
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    pub fn copy_from(&mut self, other: &BitVec) {
        assert_eq!(self.len, other.len, "BitVec length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// The packed `u64` words backing the vector, little-endian within
    /// each word (bit `i` lives at `words()[i / 64]`, position `i % 64`).
    /// Bits at positions `>= self.len()` are always zero.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Number of backing words, `len().div_ceil(64)`.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// Overwrites one backing word. Bits of the final word beyond
    /// `self.len()` are masked off, so the all-clear tail invariant that
    /// [`Self::count_ones`] and [`Self::is_zero`] rely on is preserved
    /// whatever the caller writes.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= self.num_words()`.
    #[inline]
    pub fn set_word(&mut self, idx: usize, value: u64) {
        assert!(
            idx < self.words.len(),
            "word index {idx} out of range {}",
            self.words.len()
        );
        let tail = self.len % 64;
        self.words[idx] = if idx == self.words.len() - 1 && tail != 0 {
            value & ((1u64 << tail) - 1)
        } else {
            value
        };
    }

    /// XORs a raw word slice into the vector — the word-level sibling of
    /// `^=` for callers that assemble masks outside a [`BitVec`]. The
    /// final word is tail-masked like [`Self::set_word`].
    ///
    /// # Panics
    ///
    /// Panics if `rhs` does not have exactly `self.num_words()` words.
    pub fn xor_words(&mut self, rhs: &[u64]) {
        assert_eq!(self.words.len(), rhs.len(), "word count mismatch");
        for (a, b) in self.words.iter_mut().zip(rhs) {
            *a ^= *b;
        }
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of set bits within the positions selected by `masks`
    /// (`popcount(self & masks)` without materialising the intersection).
    ///
    /// # Panics
    ///
    /// Panics if `masks` does not have exactly `self.num_words()` words.
    pub fn popcount_masked(&self, masks: &[u64]) -> usize {
        assert_eq!(self.words.len(), masks.len(), "word count mismatch");
        self.words
            .iter()
            .zip(masks)
            .map(|(w, m)| (w & m).count_ones() as usize)
            .sum()
    }

    /// Iterates over the indices of the set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            bits: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }
}

impl BitXorAssign<&BitVec> for BitVec {
    /// Element-wise XOR, delegating to the word-level
    /// [`BitVec::xor_words`].
    ///
    /// # Panics
    ///
    /// Panics if the two vectors have different lengths.
    fn bitxor_assign(&mut self, rhs: &BitVec) {
        assert_eq!(self.len, rhs.len, "BitVec length mismatch");
        self.xor_words(&rhs.words);
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ones=", self.len)?;
        f.debug_list().entries(self.iter_ones()).finish()?;
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<T: IntoIterator<Item = bool>>(iter: T) -> Self {
        let bools: Vec<bool> = iter.into_iter().collect();
        let mut bits = BitVec::zeros(bools.len());
        for (i, b) in bools.iter().enumerate() {
            if *b {
                bits.set(i, true);
            }
        }
        bits
    }
}

/// Iterator over set-bit indices, produced by [`BitVec::iter_ones`].
#[derive(Debug)]
pub struct IterOnes<'a> {
    bits: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.bits.words.len() {
                return None;
            }
            self.current = self.bits.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeros_is_all_clear() {
        let bits = BitVec::zeros(100);
        assert_eq!(bits.len(), 100);
        assert!(bits.is_zero());
        assert_eq!(bits.count_ones(), 0);
        assert!(!bits.is_empty());
        assert!(BitVec::zeros(0).is_empty());
    }

    #[test]
    fn set_get_roundtrip() {
        let mut bits = BitVec::zeros(130);
        for idx in [0, 1, 63, 64, 65, 127, 128, 129] {
            bits.set(idx, true);
            assert!(bits.get(idx), "bit {idx} should be set");
        }
        assert_eq!(bits.count_ones(), 8);
        bits.set(64, false);
        assert!(!bits.get(64));
        assert_eq!(bits.count_ones(), 7);
    }

    #[test]
    fn toggle_twice_is_identity() {
        let mut bits = BitVec::zeros(70);
        bits.toggle(69);
        assert!(bits.get(69));
        bits.toggle(69);
        assert!(bits.is_zero());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn iter_ones_ascending() {
        let mut bits = BitVec::zeros(200);
        let expected = [0usize, 5, 63, 64, 120, 199];
        for &i in &expected {
            bits.set(i, true);
        }
        let got: Vec<usize> = bits.iter_ones().collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn copy_from_overwrites_in_place() {
        let mut dst = BitVec::zeros(100);
        dst.set(7, true);
        let mut src = BitVec::zeros(100);
        src.set(64, true);
        src.set(99, true);
        dst.copy_from(&src);
        assert_eq!(dst, src);
        assert!(!dst.get(7));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn copy_from_rejects_width_mismatch() {
        BitVec::zeros(10).copy_from(&BitVec::zeros(11));
    }

    #[test]
    fn words_expose_packed_layout() {
        let mut bits = BitVec::zeros(130);
        bits.set(0, true);
        bits.set(64, true);
        bits.set(129, true);
        assert_eq!(bits.num_words(), 3);
        assert_eq!(bits.words(), &[1, 1, 2]);
    }

    #[test]
    fn set_word_masks_the_tail() {
        let mut bits = BitVec::zeros(70);
        bits.set_word(1, u64::MAX);
        // Only bits 64..70 of word 1 are in range.
        assert_eq!(bits.count_ones(), 6);
        assert!(bits.get(64) && bits.get(69));
        bits.set_word(0, 0b101);
        assert_eq!(bits.count_ones(), 8);
        assert!(bits.get(0) && !bits.get(1) && bits.get(2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn set_word_rejects_bad_index() {
        BitVec::zeros(64).set_word(1, 0);
    }

    #[test]
    fn xor_words_matches_bitxor_and_masks_tail() {
        let mut a = BitVec::zeros(70);
        a.set(3, true);
        a.xor_words(&[0b1010, u64::MAX]);
        // Word 0: {1, 3} ⊕ {3} = {1}; word 1: bits 64..70 survive the
        // tail mask. Bits beyond 70 must not leak into counts.
        assert!(a.get(1) && !a.get(3));
        assert_eq!(a.count_ones(), 1 + 6);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn xor_words_rejects_width_mismatch() {
        BitVec::zeros(70).xor_words(&[0]);
    }

    #[test]
    fn popcount_masked_counts_intersection() {
        let mut bits = BitVec::zeros(130);
        for i in [0, 5, 64, 100, 129] {
            bits.set(i, true);
        }
        let all = vec![u64::MAX; bits.num_words()];
        assert_eq!(bits.popcount_masked(&all), 5);
        // Word 0 mask 1 hits bit 0; word 1 full mask hits bits 64, 100.
        assert_eq!(bits.popcount_masked(&[1, u64::MAX, 0]), 3);
        assert_eq!(bits.popcount_masked(&[0, 0, 0]), 0);
    }

    #[test]
    #[should_panic(expected = "word count mismatch")]
    fn popcount_masked_rejects_width_mismatch() {
        BitVec::zeros(130).popcount_masked(&[0]);
    }

    #[test]
    fn from_iterator_roundtrip() {
        let bools = [true, false, true, true, false];
        let bits: BitVec = bools.iter().copied().collect();
        assert_eq!(bits.len(), 5);
        for (i, b) in bools.iter().enumerate() {
            assert_eq!(bits.get(i), *b);
        }
    }

    #[test]
    fn debug_lists_ones() {
        let mut bits = BitVec::zeros(8);
        bits.set(2, true);
        let s = format!("{bits:?}");
        assert!(s.contains('2'), "debug output should mention bit 2: {s}");
    }

    proptest! {
        #[test]
        fn xor_assign_matches_boolwise(
            a in proptest::collection::vec(any::<bool>(), 1..200),
            seed in any::<u64>(),
        ) {
            // Build b as a deterministic shuffle of a's length.
            let b: Vec<bool> = a
                .iter()
                .enumerate()
                .map(|(i, _)| (seed.wrapping_mul(i as u64 + 1) >> 7) & 1 == 1)
                .collect();
            let mut va: BitVec = a.iter().copied().collect();
            let vb: BitVec = b.iter().copied().collect();
            va ^= &vb;
            for i in 0..a.len() {
                prop_assert_eq!(va.get(i), a[i] ^ b[i]);
            }
        }

        #[test]
        fn count_ones_matches_boolwise(a in proptest::collection::vec(any::<bool>(), 0..300)) {
            let bits: BitVec = a.iter().copied().collect();
            prop_assert_eq!(bits.count_ones(), a.iter().filter(|&&x| x).count());
            prop_assert_eq!(bits.is_zero(), a.iter().all(|&x| !x));
        }

        #[test]
        fn iter_ones_matches_boolwise(a in proptest::collection::vec(any::<bool>(), 0..300)) {
            let bits: BitVec = a.iter().copied().collect();
            let got: Vec<usize> = bits.iter_ones().collect();
            let expected: Vec<usize> = a
                .iter()
                .enumerate()
                .filter_map(|(i, &x)| x.then_some(i))
                .collect();
            prop_assert_eq!(got, expected);
        }
    }
}
