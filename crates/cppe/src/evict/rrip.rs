//! SRRIP at chunk granularity — Static Re-Reference Interval Prediction
//! (Jaleel et al., ISCA'10; the paper cites RRIP as the classic CPU
//! answer to LRU's thrashing problem — reference \[13\]). Extension; not
//! evaluated in the paper.
//!
//! Each chunk carries a re-reference prediction value (RRPV) in
//! `0..=MAX`. New chunks insert at `MAX - 1` ("long" re-reference
//! interval — the anti-thrash bias), re-references promote to 0, and the
//! victim is any chunk at `MAX`, aging everyone when none exists.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use crate::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage};

/// Maximum RRPV (2-bit RRIP, as in the paper's reference).
pub const MAX_RRPV: u8 = 3;

/// Marks a chunk SRRIP has no RRPV for. A sweep reads it as
/// [`MAX_RRPV`], but it is not the same state: a fault promotes only a
/// chunk that has an RRPV, and a migration inserts an absent chunk at
/// the long interval.
const ABSENT: u8 = u8::MAX;

/// Chunk-granularity SRRIP.
#[derive(Debug, Default)]
pub struct SrripPolicy {
    /// RRPV per chunk id, [`ABSENT`] where none; grown on demand.
    rrpv: Vec<u8>,
}

impl SrripPolicy {
    /// New SRRIP policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Current RRPV of a chunk (tests/diagnostics).
    #[must_use]
    pub fn rrpv(&self, chunk: ChunkId) -> Option<u8> {
        self.rrpv
            .get(chunk.0 as usize)
            .copied()
            .filter(|&v| v != ABSENT)
    }

    /// The RRPV a sweep reads: absent chunks count as [`MAX_RRPV`].
    fn sweep_rrpv(&self, chunk: ChunkId) -> u8 {
        self.rrpv(chunk).unwrap_or(MAX_RRPV)
    }

    /// `chunk`'s slot, growing the table to cover it.
    fn slot_mut(&mut self, chunk: ChunkId) -> &mut u8 {
        let i = chunk.0 as usize;
        if i >= self.rrpv.len() {
            self.rrpv.resize(i + 1, ABSENT);
        }
        &mut self.rrpv[i]
    }
}

impl EvictPolicy for SrripPolicy {
    fn name(&self) -> &'static str {
        "srrip"
    }

    fn on_migrate(&mut self, _chain: &mut ChunkChain, chunk: ChunkId, _pages: u32, _interval: u64) {
        // Re-migration counts as a re-reference; fresh chunks insert at
        // the long interval.
        let v = self.slot_mut(chunk);
        if *v == ABSENT {
            *v = MAX_RRPV - 1;
        } else if *v != MAX_RRPV - 1 {
            *v = 0;
        }
    }

    fn on_fault(&mut self, page: VirtPage) {
        if let Some(v) = self.rrpv.get_mut(page.chunk().0 as usize) {
            if *v != ABSENT {
                *v = 0;
            }
        }
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        let candidates: Vec<ChunkId> = chain.iter_lru().filter(|&c| !pins.contains(c)).collect();
        if candidates.is_empty() {
            return None;
        }
        loop {
            // Oldest (LRU-most) chunk at MAX_RRPV wins; otherwise age.
            if let Some(&victim) = candidates.iter().find(|&&c| self.sweep_rrpv(c) >= MAX_RRPV) {
                return Some(victim);
            }
            for &c in &candidates {
                let v = self.slot_mut(c);
                *v = if *v == ABSENT {
                    MAX_RRPV
                } else {
                    v.saturating_add(1).min(MAX_RRPV)
                };
            }
        }
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        // The chunks at the currently highest RRPV — the set the next
        // selection resolves to after its (state-mutating) aging rounds,
        // computed here without aging anything.
        let candidates: Vec<ChunkId> = chain.iter_lru().filter(|&c| !pins.contains(c)).collect();
        let Some(worst) = candidates.iter().map(|&c| self.sweep_rrpv(c)).max() else {
            return Vec::new();
        };
        candidates
            .into_iter()
            .filter(|&c| self.sweep_rrpv(c) == worst)
            .take(limit)
            .collect()
    }

    fn on_evict(&mut self, chunk: ChunkId, _untouch: u32) {
        if let Some(v) = self.rrpv.get_mut(chunk.0 as usize) {
            *v = ABSENT;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(n: u64) -> (SrripPolicy, ChunkChain) {
        let mut ch = ChunkChain::new();
        let mut p = SrripPolicy::new();
        for i in 0..n {
            ch.insert_tail(ChunkId(i), 0);
            p.on_migrate(&mut ch, ChunkId(i), 16, 0);
        }
        (p, ch)
    }

    #[test]
    fn fresh_chunks_insert_at_long_interval() {
        let (p, _) = setup(2);
        assert_eq!(p.rrpv(ChunkId(0)), Some(MAX_RRPV - 1));
    }

    #[test]
    fn aging_finds_a_victim() {
        let (mut p, ch) = setup(3);
        // Nobody at MAX yet → one aging round promotes all to MAX, the
        // LRU-most (0) wins.
        let v = p.select_victim(&ch, 0, &PinSet::new());
        assert_eq!(v, Some(ChunkId(0)));
    }

    #[test]
    fn re_referenced_chunk_survives_longer() {
        let (mut p, ch) = setup(3);
        p.on_fault(ChunkId(0).first_page()); // RRPV 0
        let v = p.select_victim(&ch, 0, &PinSet::new());
        // 1 and 2 reach MAX after one aging round; 0 is at 1.
        assert_eq!(v, Some(ChunkId(1)));
    }

    #[test]
    fn respects_exclusion_and_empty() {
        let (mut p, ch) = setup(2);
        let mut ex = PinSet::new();
        ex.insert(ChunkId(0));
        assert_eq!(p.select_victim(&ch, 0, &ex), Some(ChunkId(1)));
        ex.insert(ChunkId(1));
        assert_eq!(p.select_victim(&ch, 0, &ex), None);
    }

    #[test]
    fn eviction_drops_state() {
        let (mut p, _) = setup(1);
        p.on_evict(ChunkId(0), 0);
        assert_eq!(p.rrpv(ChunkId(0)), None);
    }
}
