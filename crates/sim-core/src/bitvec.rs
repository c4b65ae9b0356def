//! Bit vectors.
//!
//! [`TouchVec`] is the 16-bit per-chunk touch vector from the paper
//! (§IV-B: "a bit vector is initialized for the chunk ... records touches
//! to individual pages in a chunk"; §VI-C sizes it at 16 bits for the
//! 16-page chunk). [`BitVec`] is a growable bit set over dense indices:
//! the policies' per-chunk marks and the data caches' evicted-chunk
//! batch.

/// Fixed 16-bit touch vector for one chunk (bit *i* ⇔ page *i* touched).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TouchVec(u16);

impl TouchVec {
    /// Number of pages a chunk holds (paper: chunk size 16 = 64 KB of 4 KB pages).
    pub const LEN: usize = 16;

    /// All-untouched vector.
    #[must_use]
    pub fn empty() -> Self {
        TouchVec(0)
    }

    /// All-touched vector.
    #[must_use]
    pub fn full() -> Self {
        TouchVec(u16::MAX)
    }

    /// Build from a raw mask (bit i = page i).
    #[must_use]
    pub fn from_bits(bits: u16) -> Self {
        TouchVec(bits)
    }

    /// Raw mask.
    #[must_use]
    pub fn bits(self) -> u16 {
        self.0
    }

    /// Mark page `i` touched.
    ///
    /// # Panics
    /// Panics if `i >= 16`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < Self::LEN, "page index {i} out of chunk");
        self.0 |= 1 << i;
    }

    /// Was page `i` touched?
    #[inline]
    #[must_use]
    pub fn get(self, i: usize) -> bool {
        assert!(i < Self::LEN, "page index {i} out of chunk");
        self.0 & (1 << i) != 0
    }

    /// Number of touched pages.
    #[inline]
    #[must_use]
    pub fn count_touched(self) -> u32 {
        self.0.count_ones()
    }

    /// Number of untouched pages — the paper's per-chunk "untouch level".
    #[inline]
    #[must_use]
    pub fn untouch_level(self) -> u32 {
        Self::LEN as u32 - self.count_touched()
    }

    /// Iterate over indices of touched pages, ascending.
    pub fn touched(self) -> impl Iterator<Item = usize> {
        (0..Self::LEN).filter(move |&i| self.0 & (1 << i) != 0)
    }

    /// Iterate over indices of untouched pages, ascending.
    pub fn untouched(self) -> impl Iterator<Item = usize> {
        (0..Self::LEN).filter(move |&i| self.0 & (1 << i) == 0)
    }
}

/// Growable bit vector (u64-word backed): a dense set over small
/// indices such as chunk ids. Bits past [`BitVec::len`] read as clear,
/// and setting one grows the vector, so a caller never sizes it up
/// front.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// `len` bits, all zero.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Number of bits: one past the highest bit ever set, or the
    /// [`BitVec::zeros`] length if that is larger.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if it holds no bits.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i` to `v`, growing the vector when a bit past the end
    /// is set.
    #[inline]
    pub fn set(&mut self, i: usize, v: bool) {
        let (w, b) = (i / 64, i % 64);
        if v {
            if i >= self.len {
                self.grow(i);
            }
            self.words[w] |= 1 << b;
        } else if let Some(word) = self.words.get_mut(w) {
            *word &= !(1 << b);
        }
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        self.len = i + 1;
        if self.words.len() < self.len.div_ceil(64) {
            self.words.resize(self.len.div_ceil(64), 0);
        }
    }

    /// Read bit `i` (clear past the end).
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Clear bit `i`; returns whether it was set.
    #[inline]
    pub fn take(&mut self, i: usize) -> bool {
        let was = self.get(i);
        self.set(i, false);
        was
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clear all bits (the length stays).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn touchvec_set_get() {
        let mut t = TouchVec::empty();
        assert_eq!(t.count_touched(), 0);
        assert_eq!(t.untouch_level(), 16);
        t.set(0);
        t.set(15);
        assert!(t.get(0) && t.get(15) && !t.get(7));
        assert_eq!(t.count_touched(), 2);
        assert_eq!(t.untouch_level(), 14);
    }

    #[test]
    fn touchvec_full() {
        let t = TouchVec::full();
        assert_eq!(t.untouch_level(), 0);
        assert_eq!(t.touched().count(), 16);
        assert_eq!(t.untouched().count(), 0);
    }

    #[test]
    fn touchvec_iterators_partition() {
        let t = TouchVec::from_bits(0b1010_1010_1010_1010);
        let touched: Vec<_> = t.touched().collect();
        let untouched: Vec<_> = t.untouched().collect();
        assert_eq!(touched, vec![1, 3, 5, 7, 9, 11, 13, 15]);
        assert_eq!(untouched, vec![0, 2, 4, 6, 8, 10, 12, 14]);
    }

    #[test]
    fn touchvec_paper_fig6_example() {
        // Fig. 6: data "0 1 0 1" scaled to 4 pages — pages 1 and 3 touched.
        let mut t = TouchVec::empty();
        t.set(1);
        t.set(3);
        assert!(!t.get(0) && t.get(1) && !t.get(2) && t.get(3));
    }

    #[test]
    #[should_panic(expected = "out of chunk")]
    fn touchvec_oob_panics() {
        let _ = TouchVec::empty().get(16);
    }

    #[test]
    fn bitvec_basics() {
        let mut b = BitVec::zeros(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0, true);
        b.set(64, true);
        b.set(129, true);
        assert!(b.get(0) && b.get(64) && b.get(129) && !b.get(1));
        assert_eq!(b.count_ones(), 3);
        b.set(64, false);
        assert_eq!(b.count_ones(), 2);
        b.clear();
        assert_eq!(b.count_ones(), 0);
    }

    #[test]
    fn bitvec_grows_on_set_and_reads_clear_past_the_end() {
        let mut b = BitVec::default();
        assert!(!b.get(1000) && !b.take(1000));
        b.set(1000, false);
        assert_eq!(b.len(), 0, "clearing never grows");
        b.set(1000, true);
        assert_eq!(b.len(), 1001);
        assert!(b.get(1000) && !b.get(999));
        assert!(b.take(1000) && !b.take(1000));
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.len(), 1001, "the length is a high-water mark");
    }

    #[test]
    fn bitvec_empty() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
    }
}
