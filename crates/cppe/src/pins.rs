//! The fault batch's pinned chunks.
//!
//! The driver pins every chunk a fault batch has planned or migrated,
//! and the eviction policies must not pick a pinned chunk (§IV: the
//! chunks whose migration is in flight are not eviction candidates).
//! Chunk ids are dense — below footprint ÷ 16 — so [`PinSet`] keeps one
//! epoch stamp per chunk instead of hashing: a chunk is pinned when its
//! stamp equals the current epoch, and [`PinSet::clear`] starts a new
//! epoch instead of touching the stamps. Beside the stamps it lists the
//! pinned chunks, so [`PinSet::len`] and [`PinSet::iter`] cost nothing
//! extra. The stamp vector grows on demand, so no caller sizes it.

use gmmu::types::ChunkId;

/// How a [`PinSet`] did its work. No simulated result reads these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PinCounts {
    /// Pins that were new to their epoch.
    pub inserted: u64,
    /// [`PinSet::clear`] calls.
    pub clears: u64,
    /// Epoch counter wraps, each paid with one pass over the stamps.
    pub epoch_wraps: u64,
    /// Length the stamp vector grew to: one past the highest chunk id
    /// ever pinned.
    pub stamped_chunks: u64,
}

/// A set of pinned chunks with O(1) insert, membership and clear.
///
/// ```
/// use cppe::pins::PinSet;
/// use gmmu::types::ChunkId;
///
/// let mut pins = PinSet::new();
/// assert!(pins.insert(ChunkId(7)));
/// assert!(!pins.insert(ChunkId(7)), "already pinned this epoch");
/// assert!(pins.contains(ChunkId(7)) && !pins.contains(ChunkId(9)));
/// pins.clear();
/// assert!(pins.is_empty() && !pins.contains(ChunkId(7)));
/// ```
#[derive(Debug, Clone)]
pub struct PinSet {
    /// Epoch in which each chunk was last pinned; 0 never matches.
    stamps: Vec<u32>,
    epoch: u32,
    pinned: Vec<ChunkId>,
    counts: PinCounts,
}

impl Default for PinSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PinSet {
    /// Empty set. Allocates nothing until the first pin.
    #[must_use]
    pub fn new() -> Self {
        Self::at_epoch(1)
    }

    fn at_epoch(epoch: u32) -> Self {
        PinSet {
            stamps: Vec::new(),
            epoch,
            pinned: Vec::new(),
            counts: PinCounts::default(),
        }
    }

    /// Pin `chunk`; returns true when it was not pinned yet.
    #[inline]
    pub fn insert(&mut self, chunk: ChunkId) -> bool {
        let i = chunk.0 as usize;
        if i >= self.stamps.len() {
            self.grow(i);
        }
        if self.stamps[i] == self.epoch {
            return false;
        }
        self.stamps[i] = self.epoch;
        self.pinned.push(chunk);
        self.counts.inserted += 1;
        true
    }

    #[cold]
    fn grow(&mut self, i: usize) {
        self.stamps.resize(i + 1, 0);
        self.counts.stamped_chunks = self.stamps.len() as u64;
    }

    /// Is `chunk` pinned?
    #[inline]
    #[must_use]
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.stamps.get(chunk.0 as usize) == Some(&self.epoch)
    }

    /// Unpin everything: a new epoch, so no stamp is touched unless the
    /// epoch counter wraps.
    pub fn clear(&mut self) {
        self.pinned.clear();
        self.counts.clears += 1;
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamps.fill(0);
            self.epoch = 1;
            self.counts.epoch_wraps += 1;
        }
    }

    /// Number of pinned chunks.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.pinned.len()
    }

    /// True when nothing is pinned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pinned.is_empty()
    }

    /// The pinned chunks, in pin order.
    pub fn iter(&self) -> impl Iterator<Item = ChunkId> + '_ {
        self.pinned.iter().copied()
    }

    /// Make this set hold exactly `chunks` (any order, duplicates
    /// allowed).
    pub fn load(&mut self, chunks: impl IntoIterator<Item = ChunkId>) {
        self.clear();
        for c in chunks {
            self.insert(c);
        }
    }

    /// How the set did its work so far.
    #[must_use]
    pub fn counts(&self) -> PinCounts {
        self.counts
    }
}

#[cfg(test)]
impl PinSet {
    /// An empty set whose epoch is `u32::MAX - clears_to_wrap + 1`, so
    /// the wrap comes after `clears_to_wrap` clears.
    pub(crate) fn wrapping_after(clears_to_wrap: u32) -> Self {
        Self::at_epoch(u32::MAX - clears_to_wrap + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::Xoshiro256ss;
    use sim_core::FxHashSet;

    /// Random insert/clear/contains streams against `FxHashSet`, with
    /// ids far past the stamps' current length and epoch wraps.
    #[test]
    fn matches_a_hash_set() {
        for (seed, wrap_after) in [(1u64, None), (2, Some(3)), (3, Some(40))] {
            let mut rng = Xoshiro256ss::new(seed);
            let mut pins = wrap_after.map_or_else(PinSet::new, PinSet::wrapping_after);
            let mut model = FxHashSet::default();
            for op in 0..20_000 {
                let chunk = ChunkId(match rng.gen_range(10) {
                    0 => rng.gen_range(1 << 20),
                    _ => rng.gen_range(64),
                });
                match rng.gen_range(16) {
                    0 => {
                        pins.clear();
                        model.clear();
                    }
                    1..=7 => assert_eq!(pins.insert(chunk), model.insert(chunk), "op {op}"),
                    _ => assert_eq!(pins.contains(chunk), model.contains(&chunk), "op {op}"),
                }
                assert_eq!(pins.len(), model.len(), "op {op}");
                let listed: FxHashSet<ChunkId> = pins.iter().collect();
                assert_eq!(listed, model, "op {op}");
            }
            let counts = pins.counts();
            assert!(counts.clears > 1000, "{counts:?}");
            assert_eq!(counts.epoch_wraps, u64::from(wrap_after.is_some()));
            assert!(counts.stamped_chunks > 64, "{counts:?}");
        }
    }

    #[test]
    fn a_wrap_forgets_stale_stamps() {
        let mut pins = PinSet::wrapping_after(2);
        pins.insert(ChunkId(3));
        pins.clear();
        pins.insert(ChunkId(4));
        pins.clear(); // wraps: epoch 1 again
        assert_eq!(pins.counts().epoch_wraps, 1);
        // Stamps written two and one epochs ago must not read as pinned
        // after the wrap, nor when the epoch climbs past them again.
        for _ in 0..3 {
            assert!(!pins.contains(ChunkId(3)) && !pins.contains(ChunkId(4)));
            pins.clear();
        }
        assert!(pins.insert(ChunkId(3)));
    }

    #[test]
    fn load_dedupes() {
        let mut pins = PinSet::new();
        pins.insert(ChunkId(1));
        pins.load([ChunkId(5), ChunkId(2), ChunkId(5)]);
        assert_eq!(pins.len(), 2);
        assert!(!pins.contains(ChunkId(1)));
        assert_eq!(pins.iter().collect::<Vec<_>>(), [ChunkId(5), ChunkId(2)]);
    }
}
