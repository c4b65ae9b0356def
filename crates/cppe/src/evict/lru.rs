//! LRU pre-eviction — the paper's baseline policy.
//!
//! With demand paging the driver only observes *migrations*, not every
//! access, so "LRU" here is migration-order LRU exactly as in Ganguly
//! et al.'s prefetch-semantics-aware pre-eviction: chunks are ordered by
//! the time they were brought in (re-migration refreshes recency) and
//! the oldest chunk is evicted first, 16 pages at a time.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use crate::pins::PinSet;
use gmmu::types::ChunkId;

/// Migration-order LRU over chunks.
#[derive(Debug, Default)]
pub struct LruPolicy;

impl LruPolicy {
    /// New LRU policy.
    #[must_use]
    pub fn new() -> Self {
        LruPolicy
    }
}

impl EvictPolicy for LruPolicy {
    fn name(&self) -> &'static str {
        "lru"
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        chain.iter_lru().find(|&c| !pins.contains(c))
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        // The LRU-first prefix is exactly the window LRU draws from.
        chain
            .iter_lru()
            .filter(|&c| !pins.contains(c))
            .take(limit)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evicts_oldest_migrated() {
        let mut p = LruPolicy::new();
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(10), 0);
        ch.insert_tail(ChunkId(11), 0);
        ch.insert_tail(ChunkId(12), 1);
        assert_eq!(p.select_victim(&ch, 1, &PinSet::new()), Some(ChunkId(10)));
    }

    #[test]
    fn remigration_refreshes_recency() {
        let mut p = LruPolicy::new();
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(1), 0);
        ch.insert_tail(ChunkId(2), 0);
        ch.insert_tail(ChunkId(1), 1); // chunk 1 re-migrated
        assert_eq!(p.select_victim(&ch, 1, &PinSet::new()), Some(ChunkId(2)));
    }

    #[test]
    fn empty_chain_gives_none() {
        let mut p = LruPolicy::new();
        assert_eq!(p.select_victim(&ChunkChain::new(), 0, &PinSet::new()), None);
    }

    #[test]
    fn thrashes_on_cyclic_pattern() {
        // The classic failure the paper motivates: a cyclic sweep over
        // N+1 chunks with capacity N evicts exactly the chunk needed
        // next, every time.
        let mut p = LruPolicy::new();
        let mut ch = ChunkChain::new();
        for i in 0..4 {
            ch.insert_tail(ChunkId(i), 0);
        }
        // Next access is chunk 4; capacity forces one eviction. LRU
        // evicts chunk 0 — precisely the chunk the cyclic pattern
        // revisits after 4.
        assert_eq!(p.select_victim(&ch, 0, &PinSet::new()), Some(ChunkId(0)));
    }
}
