//! HPE — Hierarchical Page Eviction (Yu et al., ISPASS'19 / TCAD), the
//! prior-work policy the paper modifies.
//!
//! HPE keeps a per-chunk *touch counter* and, when memory first fills,
//! classifies the application from the counter distribution:
//!
//! * **regular** — most chunks fully populated → **MRU-C** (search from
//!   the MRU end of the old partition for a *qualified* chunk, i.e. one
//!   whose counter shows full population),
//! * **irregular#1** — sparse counters → **LRU**,
//! * **irregular#2** — in between → start with LRU and *switch* between
//!   LRU and MRU-C at runtime based on wrong evictions (unlike MHPE,
//!   HPE may switch back and forth).
//!
//! Faithfulness note (documented in DESIGN.md): the published HPE papers
//! leave several knobs loosely specified (classification thresholds, the
//! MRU-C qualification rule, the switch hysteresis). We use reasonable
//! values and — importantly for this paper — reproduce **Inefficiency 1**
//! exactly: with prefetching enabled, [`EvictPolicy::on_migrate`] bumps
//! the counter by the number of *migrated* pages, so a single fault that
//! prefetches a whole chunk sets the counter to 16 and every application
//! classifies as "regular", which is precisely the counter pollution the
//! paper describes.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use crate::evicted_buffer::EvictedBuffer;
use crate::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage, PAGES_PER_CHUNK};

/// Application class HPE infers from chunk counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpeClass {
    /// Mostly fully-populated chunks → MRU-C.
    Regular,
    /// Sparsely populated chunks → LRU.
    Irregular1,
    /// Mixed → dynamic switching.
    Irregular2,
}

/// HPE's two strategies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpeStrategy {
    /// MRU with counter qualification.
    MruC,
    /// Plain LRU over the old partition.
    Lru,
}

/// The HPE policy.
#[derive(Debug)]
pub struct HpePolicy {
    class: Option<HpeClass>,
    strategy: HpeStrategy,
    /// MRU-C search start point (chunks skipped from the MRU end),
    /// adjusted by wrong evictions at runtime.
    start_skip: usize,
    buffer: EvictedBuffer,
    wrong_this_interval: u32,
    total_wrong: u64,
    /// Wrong-eviction threshold that flips irregular#2's strategy.
    switch_threshold: u32,
}

impl HpePolicy {
    /// HPE with default parameters (64-entry wrong-eviction buffer —
    /// HPE "uses a fixed interval length" for its buffer, unlike MHPE).
    #[must_use]
    pub fn new() -> Self {
        HpePolicy {
            class: None,
            strategy: HpeStrategy::MruC,
            start_skip: 0,
            buffer: EvictedBuffer::new(64),
            wrong_this_interval: 0,
            total_wrong: 0,
            switch_threshold: 2,
        }
    }

    /// The inferred class, once memory has filled.
    #[must_use]
    pub fn class(&self) -> Option<HpeClass> {
        self.class
    }

    /// The active strategy.
    #[must_use]
    pub fn strategy(&self) -> HpeStrategy {
        self.strategy
    }

    fn classify(chain: &ChunkChain) -> HpeClass {
        let len = chain.len().max(1);
        let full = chain
            .iter_lru_entries()
            .filter(|e| u64::from(e.counter) >= PAGES_PER_CHUNK)
            .count();
        let frac = full as f64 / len as f64;
        if frac >= 0.7 {
            HpeClass::Regular
        } else if frac <= 0.3 {
            HpeClass::Irregular1
        } else {
            HpeClass::Irregular2
        }
    }

    /// MRU-C: from the MRU end of the old partition, skip `start_skip`
    /// old chunks, then return the first *qualified* chunk (counter ≥
    /// chunk size). Falls back to the plain MRU-old selection when no
    /// chunk qualifies.
    fn select_mru_c(&self, chain: &ChunkChain, interval: u64, pins: &PinSet) -> Option<ChunkId> {
        let mut skipped = 0usize;
        for e in chain.iter_mru_entries() {
            if pins.contains(e.chunk) {
                continue;
            }
            let old = crate::chain::partition_of(e.last_ref_interval, interval)
                == crate::chain::Partition::Old;
            if !old {
                continue;
            }
            if skipped < self.start_skip {
                skipped += 1;
                continue;
            }
            if u64::from(e.counter) >= PAGES_PER_CHUNK {
                return Some(e.chunk);
            }
        }
        chain.select_mru_old(self.start_skip, interval, pins)
    }
}

impl Default for HpePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictPolicy for HpePolicy {
    fn name(&self) -> &'static str {
        "hpe"
    }

    fn on_memory_full(&mut self, chain: &ChunkChain) {
        if self.class.is_some() {
            return;
        }
        let class = Self::classify(chain);
        self.class = Some(class);
        self.strategy = match class {
            HpeClass::Regular => HpeStrategy::MruC,
            HpeClass::Irregular1 | HpeClass::Irregular2 => HpeStrategy::Lru,
        };
    }

    fn on_fault(&mut self, page: VirtPage) {
        if self.buffer.take(page.chunk()) {
            self.wrong_this_interval += 1;
            self.total_wrong += 1;
        }
    }

    fn on_migrate(&mut self, chain: &mut ChunkChain, chunk: ChunkId, pages: u32, interval: u64) {
        // The counter hook: every migrated page counts as a touch. With
        // prefetch enabled this is exactly the pollution of
        // Inefficiency 1 — one fault adds 16 "touches".
        chain.touch(chunk, interval, pages);
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        match self.strategy {
            HpeStrategy::MruC => self.select_mru_c(chain, interval, pins),
            HpeStrategy::Lru => chain.select_lru_old(interval, pins),
        }
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        match self.strategy {
            HpeStrategy::MruC => {
                // Qualified old chunks past the start-skip window, in the
                // MRU→LRU search order; the plain MRU-old window when no
                // chunk qualifies (mirroring select_mru_c's fallback).
                let mut skipped = 0usize;
                let mut qualified = Vec::new();
                let mut fallback = Vec::new();
                for e in chain.iter_mru_entries() {
                    if pins.contains(e.chunk) {
                        continue;
                    }
                    let old = crate::chain::partition_of(e.last_ref_interval, interval)
                        == crate::chain::Partition::Old;
                    if !old {
                        continue;
                    }
                    if skipped < self.start_skip {
                        skipped += 1;
                        continue;
                    }
                    if u64::from(e.counter) >= PAGES_PER_CHUNK {
                        if qualified.len() < limit {
                            qualified.push(e.chunk);
                        }
                    } else if fallback.len() < limit {
                        fallback.push(e.chunk);
                    }
                    if qualified.len() >= limit {
                        break;
                    }
                }
                if qualified.is_empty() {
                    fallback
                } else {
                    qualified
                }
            }
            HpeStrategy::Lru => {
                let win: Vec<ChunkId> = chain
                    .iter_lru_entries()
                    .filter(|e| {
                        !pins.contains(e.chunk)
                            && crate::chain::partition_of(e.last_ref_interval, interval)
                                == crate::chain::Partition::Old
                    })
                    .map(|e| e.chunk)
                    .take(limit)
                    .collect();
                if win.is_empty() {
                    chain
                        .iter_lru()
                        .filter(|&c| !pins.contains(c))
                        .take(limit)
                        .collect()
                } else {
                    win
                }
            }
        }
    }

    fn on_evict(&mut self, chunk: ChunkId, _untouch: u32) {
        // HPE inserts wrongly evicted chunks at the *tail* (the paper
        // contrasts this with MHPE's head insertion), which is the
        // default insert position — no mark needed.
        self.buffer.push(chunk);
    }

    fn on_interval(&mut self, _k: u64) {
        match self.class {
            Some(HpeClass::Regular) => {
                // Regular apps stay on MRU-C but adjust the search start
                // point when evictions keep going wrong.
                self.start_skip =
                    (self.start_skip + self.wrong_this_interval as usize).min(32);
            }
            Some(HpeClass::Irregular2)
                // Switch between MRU-C and LRU when the current strategy
                // keeps evicting chunks that fault right back.
                if self.wrong_this_interval > self.switch_threshold => {
                    self.strategy = match self.strategy {
                        HpeStrategy::MruC => HpeStrategy::Lru,
                        HpeStrategy::Lru => HpeStrategy::MruC,
                    };
                }
            _ => {}
        }
        self.wrong_this_interval = 0;
    }

    fn wrong_evictions(&self) -> u64 {
        self.total_wrong
    }

    fn aux_buffer_max_len(&self) -> usize {
        self.buffer.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_with_counters(counts: &[u32]) -> ChunkChain {
        let mut ch = ChunkChain::new();
        for (i, &c) in counts.iter().enumerate() {
            ch.insert_tail(ChunkId(i as u64), 0);
            ch.touch(ChunkId(i as u64), 0, c);
        }
        ch
    }

    #[test]
    fn classifies_regular_when_chunks_full() {
        let mut p = HpePolicy::new();
        p.on_memory_full(&chain_with_counters(&[16; 10]));
        assert_eq!(p.class(), Some(HpeClass::Regular));
        assert_eq!(p.strategy(), HpeStrategy::MruC);
    }

    #[test]
    fn classifies_irregular1_when_sparse() {
        let mut p = HpePolicy::new();
        p.on_memory_full(&chain_with_counters(&[2; 10]));
        assert_eq!(p.class(), Some(HpeClass::Irregular1));
        assert_eq!(p.strategy(), HpeStrategy::Lru);
    }

    #[test]
    fn classifies_irregular2_when_mixed() {
        let mut p = HpePolicy::new();
        let counts: Vec<u32> = (0..10).map(|i| if i % 2 == 0 { 16 } else { 2 }).collect();
        p.on_memory_full(&chain_with_counters(&counts));
        assert_eq!(p.class(), Some(HpeClass::Irregular2));
    }

    #[test]
    fn prefetch_pollution_forces_regular_class() {
        // Inefficiency 1: with whole-chunk prefetch, on_migrate bumps
        // every counter to 16 and an irregular app classifies regular.
        let mut p = HpePolicy::new();
        let mut ch = ChunkChain::new();
        for i in 0..10 {
            ch.insert_tail(ChunkId(i), 0);
            p.on_migrate(&mut ch, ChunkId(i), 16, 0);
        }
        p.on_memory_full(&ch);
        assert_eq!(p.class(), Some(HpeClass::Regular));
    }

    #[test]
    fn mru_c_prefers_qualified_chunks() {
        let mut p = HpePolicy::new();
        // Old partition MRU→LRU: 4 (counter 3), 3 (counter 16), ...
        let mut ch = ChunkChain::new();
        for i in 0..5 {
            ch.insert_tail(ChunkId(i), 0);
            let c = if i == 3 { 16 } else { 3 };
            // touch() moves to tail, so re-establish order by touching in
            // insertion order.
            ch.touch(ChunkId(i), 0, c);
        }
        p.on_memory_full(&ch);
        p.strategy = HpeStrategy::MruC;
        // MRU-most old chunk is 4 (counter 3, unqualified); first
        // qualified walking MRU→LRU is 3.
        assert_eq!(p.select_victim(&ch, 2, &PinSet::new()), Some(ChunkId(3)));
    }

    #[test]
    fn mru_c_falls_back_to_mru_when_none_qualified() {
        let mut p = HpePolicy::new();
        let ch = chain_with_counters(&[3; 5]);
        p.on_memory_full(&ch);
        p.strategy = HpeStrategy::MruC;
        assert_eq!(p.select_victim(&ch, 2, &PinSet::new()), Some(ChunkId(4)));
    }

    #[test]
    fn irregular2_switches_on_wrong_evictions() {
        let mut p = HpePolicy::new();
        let counts: Vec<u32> = (0..10).map(|i| if i % 2 == 0 { 16 } else { 2 }).collect();
        p.on_memory_full(&chain_with_counters(&counts));
        assert_eq!(p.strategy(), HpeStrategy::Lru);
        // Three wrong evictions in one interval.
        for i in 0..3u64 {
            p.on_evict(ChunkId(i), 0);
            p.on_fault(ChunkId(i).first_page());
        }
        p.on_interval(1);
        assert_eq!(p.strategy(), HpeStrategy::MruC, "switched after thrash");
        // And can switch back — HPE switching is bidirectional.
        for i in 3..6u64 {
            p.on_evict(ChunkId(i), 0);
            p.on_fault(ChunkId(i).first_page());
        }
        p.on_interval(2);
        assert_eq!(p.strategy(), HpeStrategy::Lru);
    }

    #[test]
    fn regular_adjusts_start_skip() {
        let mut p = HpePolicy::new();
        p.on_memory_full(&chain_with_counters(&[16; 10]));
        for i in 0..2u64 {
            p.on_evict(ChunkId(i), 0);
            p.on_fault(ChunkId(i).first_page());
        }
        p.on_interval(1);
        assert_eq!(p.start_skip, 2);
    }

    #[test]
    fn wrong_evictions_counted() {
        let mut p = HpePolicy::new();
        p.on_memory_full(&chain_with_counters(&[16; 4]));
        p.on_evict(ChunkId(0), 0);
        p.on_fault(ChunkId(0).first_page());
        assert_eq!(p.wrong_evictions(), 1);
    }
}
