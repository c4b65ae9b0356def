//! Reserved LRU (Ganguly et al., ISCA'19).
//!
//! "Reserved LRU avoids selecting the top portion (percentage) of the
//! LRU page list as eviction candidates." For a cyclic (thrashing)
//! pattern the chunks a sweep revisits *soonest* are exactly the oldest
//! ones, so reserving the LRU-most `p%` of the chain and evicting the
//! first chunk past the reserved region lets the head of the cycle stay
//! resident — the source of reserved LRU's "limited" thrashing gains
//! (Fig. 3). Conversely, for region-moving apps (B+T, HYB) the reserved
//! chunks are stale dead weight and the policy loses up to 27 %
//! (Fig. 9, Type VI at LRU-10 %), which this implementation reproduces.
//!
//! The reservation percentage must be chosen *a priori* — the paper's
//! criticism — so it is a constructor parameter here.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use crate::pins::PinSet;
use gmmu::types::ChunkId;

/// LRU with the bottom `percent`% of the chain protected from eviction.
#[derive(Debug)]
pub struct ReservedLruPolicy {
    percent: u32,
    name: &'static str,
}

impl ReservedLruPolicy {
    /// Reserve `percent` (0..=100) of the chain.
    ///
    /// # Panics
    /// Panics if `percent > 100`.
    #[must_use]
    pub fn new(percent: u32) -> Self {
        assert!(percent <= 100, "reservation percent out of range");
        let name = match percent {
            10 => "lru-10%",
            20 => "lru-20%",
            _ => "lru-reserved",
        };
        ReservedLruPolicy { percent, name }
    }

    /// Number of protected chunks for a chain of `len`.
    #[must_use]
    pub fn reserved_count(&self, len: usize) -> usize {
        (len * self.percent as usize).div_ceil(100)
    }
}

impl EvictPolicy for ReservedLruPolicy {
    fn name(&self) -> &'static str {
        self.name
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        if chain.is_empty() {
            return None;
        }
        let skip = self.reserved_count(chain.len()).min(chain.len() - 1);
        chain.nth_from_lru(skip, pins)
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        // Everything past the reserved LRU-most region, in LRU order —
        // the same counting nth_from_lru uses (reserved slots are counted
        // over non-excluded chunks).
        if chain.is_empty() {
            return Vec::new();
        }
        let skip = self.reserved_count(chain.len()).min(chain.len() - 1);
        chain
            .iter_lru()
            .filter(|&c| !pins.contains(c))
            .skip(skip)
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
    fn reserves_bottom_of_chain() {
        let mut p = ReservedLruPolicy::new(20);
        let ch = chain(10);
        // 20% of 10 = 2 chunks protected; victim is position 2.
        assert_eq!(p.select_victim(&ch, 0, &PinSet::new()), Some(ChunkId(2)));
    }

    #[test]
    fn zero_percent_degenerates_to_lru() {
        let mut p = ReservedLruPolicy::new(0);
        let ch = chain(10);
        assert_eq!(p.select_victim(&ch, 0, &PinSet::new()), Some(ChunkId(0)));
    }

    #[test]
    fn rounding_up_protects_at_least_one() {
        let p = ReservedLruPolicy::new(10);
        // 10% of 5 = 0.5 → 1 chunk protected.
        assert_eq!(p.reserved_count(5), 1);
    }

    #[test]
    fn never_skips_past_the_tail() {
        let mut p = ReservedLruPolicy::new(100);
        let ch = chain(4);
        // Reserving everything still must yield a victim (the MRU chunk).
        assert_eq!(p.select_victim(&ch, 0, &PinSet::new()), Some(ChunkId(3)));
    }

    #[test]
    fn single_chunk_chain() {
        let mut p = ReservedLruPolicy::new(20);
        let ch = chain(1);
        assert_eq!(p.select_victim(&ch, 0, &PinSet::new()), Some(ChunkId(0)));
    }

    #[test]
    fn empty_chain_gives_none() {
        let mut p = ReservedLruPolicy::new(20);
        assert_eq!(p.select_victim(&ChunkChain::new(), 0, &PinSet::new()), None);
    }

    #[test]
    fn names_match_figures() {
        assert_eq!(ReservedLruPolicy::new(10).name(), "lru-10%");
        assert_eq!(ReservedLruPolicy::new(20).name(), "lru-20%");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn over_100_percent_panics() {
        let _ = ReservedLruPolicy::new(101);
    }
}
