//! Wrong-eviction detection buffer.
//!
//! MHPE (and HPE before it) keep "a buffer ... to record recently evicted
//! chunks. When a page fault occurs, the buffer is searched for the
//! corresponding chunk. On a hit, the number of wrong evictions is
//! increased" (§IV-B). MHPE sizes the buffer from the chunk-chain length:
//! `max(8, 8 * (chain_len / 64))` entries, so applications with similar
//! footprints get similar buffers, with a floor of two intervals' worth
//! of evictions.
//!
//! The buffer probe runs on every demand fault, so membership is one bit
//! per chunk id (ids are dense, below footprint ÷ 16) beside the FIFO
//! order: a probe is one load, with no hashing.

use gmmu::types::ChunkId;
use sim_core::BitVec;
use std::collections::VecDeque;

/// Bounded FIFO of recently evicted chunks with O(1) membership tests.
#[derive(Debug)]
pub struct EvictedBuffer {
    order: VecDeque<ChunkId>,
    /// Bit `c` is set while chunk `c` is in `order`.
    members: BitVec,
    capacity: usize,
    /// High-water mark, reported by the overhead analysis (§VI-C).
    pub max_len: usize,
}

/// MHPE's sizing rule (§IV-B).
#[must_use]
pub fn mhpe_buffer_len(chain_len: usize) -> usize {
    ((chain_len / 64) * 8).max(8)
}

impl EvictedBuffer {
    /// Buffer holding at most `capacity` chunks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "evicted buffer needs capacity");
        EvictedBuffer {
            order: VecDeque::with_capacity(capacity),
            members: BitVec::default(),
            capacity,
            max_len: 0,
        }
    }

    /// Record an eviction, dropping the oldest record when full.
    pub fn push(&mut self, chunk: ChunkId) {
        if self.contains(chunk) {
            // Re-evicted while still recorded: refresh its position.
            self.order.retain(|&c| c != chunk);
            self.order.push_back(chunk);
            return;
        }
        if self.order.len() == self.capacity {
            if let Some(old) = self.order.pop_front() {
                self.members.set(old.0 as usize, false);
            }
        }
        self.order.push_back(chunk);
        self.members.set(chunk.0 as usize, true);
        self.max_len = self.max_len.max(self.order.len());
    }

    /// Fault-time probe: was `chunk` recently evicted? On a hit the
    /// record is consumed (the chunk is about to be re-migrated, and a
    /// single wrong eviction must not be counted once per page).
    pub fn take(&mut self, chunk: ChunkId) -> bool {
        if self.members.take(chunk.0 as usize) {
            self.order.retain(|&c| c != chunk);
            true
        } else {
            false
        }
    }

    /// Non-consuming membership test.
    #[must_use]
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.members.get(chunk.0 as usize)
    }

    /// Current length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Configured capacity.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_rule() {
        assert_eq!(mhpe_buffer_len(0), 8);
        assert_eq!(mhpe_buffer_len(63), 8);
        assert_eq!(mhpe_buffer_len(64), 8);
        assert_eq!(mhpe_buffer_len(128), 16);
        assert_eq!(mhpe_buffer_len(640), 80);
    }

    #[test]
    fn push_take_roundtrip() {
        let mut b = EvictedBuffer::new(4);
        b.push(ChunkId(1));
        assert!(b.contains(ChunkId(1)));
        assert!(b.take(ChunkId(1)));
        assert!(!b.take(ChunkId(1)), "take consumes");
        assert!(b.is_empty());
    }

    #[test]
    fn fifo_eviction_when_full() {
        let mut b = EvictedBuffer::new(3);
        for i in 0..5 {
            b.push(ChunkId(i));
        }
        assert!(!b.contains(ChunkId(0)));
        assert!(!b.contains(ChunkId(1)));
        assert!(b.contains(ChunkId(2)));
        assert!(b.contains(ChunkId(4)));
        assert_eq!(b.len(), 3);
    }

    #[test]
    fn re_push_refreshes_position() {
        let mut b = EvictedBuffer::new(2);
        b.push(ChunkId(1));
        b.push(ChunkId(2));
        b.push(ChunkId(1)); // refresh, not duplicate
        assert_eq!(b.len(), 2);
        b.push(ChunkId(3)); // evicts 2, the oldest
        assert!(b.contains(ChunkId(1)));
        assert!(!b.contains(ChunkId(2)));
    }

    #[test]
    fn max_len_high_water() {
        let mut b = EvictedBuffer::new(10);
        for i in 0..4 {
            b.push(ChunkId(i));
        }
        b.take(ChunkId(0));
        b.take(ChunkId(1));
        assert_eq!(b.max_len, 4);
        assert_eq!(b.len(), 2);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = EvictedBuffer::new(0);
    }
}
