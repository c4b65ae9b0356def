//! CLOCK (second-chance) eviction — an OS-classic baseline (extension;
//! not evaluated in the paper).
//!
//! Chunks sit on a circular list with a reference bit. The hand sweeps:
//! a set bit buys the chunk a second chance (bit cleared), a clear bit
//! makes it the victim. In this driver-side setting the reference bit is
//! set on (re-)migration and on demand faults that hit a resident
//! chunk's siblings — the driver-visible events, mirroring how the LRU
//! baseline only sees migrations.

use super::EvictPolicy;
use crate::chain::ChunkChain;
use crate::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage};

/// A chunk CLOCK has never tracked (or has forgotten on eviction): a
/// fault does not set its bit, and a sweep reads it as clear.
const UNTRACKED: u8 = 0;
/// Tracked, reference bit clear.
const CLEAR: u8 = 1;
/// Tracked, reference bit set.
const SET: u8 = 2;

/// CLOCK over resident chunks.
#[derive(Debug, Default)]
pub struct ClockPolicy {
    /// Reference state per chunk id: [`UNTRACKED`], [`CLEAR`] or [`SET`].
    /// Grown on demand; ids past the end are untracked.
    refs: Vec<u8>,
    /// Circular order (we reuse the chain's LRU→MRU order and keep our
    /// own hand position as an index into that order).
    hand: usize,
}

impl ClockPolicy {
    /// New CLOCK policy.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// `chunk`'s state, growing the table to cover it.
    fn state_mut(&mut self, chunk: ChunkId) -> &mut u8 {
        let i = chunk.0 as usize;
        if i >= self.refs.len() {
            self.refs.resize(i + 1, UNTRACKED);
        }
        &mut self.refs[i]
    }
}

impl EvictPolicy for ClockPolicy {
    fn name(&self) -> &'static str {
        "clock"
    }

    fn on_migrate(&mut self, _chain: &mut ChunkChain, chunk: ChunkId, _pages: u32, _interval: u64) {
        *self.state_mut(chunk) = SET;
    }

    fn on_fault(&mut self, page: VirtPage) {
        // A fault near a resident chunk re-references it (the chunk the
        // page belongs to may be partially resident).
        if let Some(state) = self.refs.get_mut(page.chunk().0 as usize) {
            if *state != UNTRACKED {
                *state = SET;
            }
        }
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        let order: Vec<ChunkId> = chain.iter_lru().collect();
        if order.is_empty() {
            return None;
        }
        // Sweep at most two full turns: the first clears bits, the
        // second is then guaranteed to find a clear-bit victim among
        // the non-excluded chunks (if any exist).
        let n = order.len();
        let mut swept = 0;
        while swept < 2 * n {
            let idx = self.hand % n;
            let chunk = order[idx];
            self.hand = (self.hand + 1) % n;
            swept += 1;
            if pins.contains(chunk) {
                continue;
            }
            // A set bit buys a second chance; an untracked chunk becomes
            // tracked, as its bit is read.
            let state = self.state_mut(chunk);
            let second_chance = *state == SET;
            *state = CLEAR;
            if !second_chance {
                return Some(chunk);
            }
        }
        order.into_iter().find(|&c| !pins.contains(c))
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        _interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        // The inspection window of the next sweep: chunks in circular
        // order starting at the hand. Read-only — the preview must not
        // advance the hand or clear reference bits.
        let order: Vec<ChunkId> = chain.iter_lru().collect();
        if order.is_empty() {
            return Vec::new();
        }
        let n = order.len();
        (0..n)
            .map(|i| order[(self.hand + i) % n])
            .filter(|&c| !pins.contains(c))
            .take(limit)
            .collect()
    }

    fn on_evict(&mut self, chunk: ChunkId, _untouch: u32) {
        if let Some(state) = self.refs.get_mut(chunk.0 as usize) {
            *state = UNTRACKED;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_of(n: u64) -> ChunkChain {
        let mut ch = ChunkChain::new();
        for i in 0..n {
            ch.insert_tail(ChunkId(i), 0);
        }
        ch
    }

    fn migrate_all(p: &mut ClockPolicy, ch: &mut ChunkChain, n: u64) {
        for i in 0..n {
            p.on_migrate(ch, ChunkId(i), 16, 0);
        }
    }

    #[test]
    fn first_sweep_clears_then_evicts_oldest() {
        let mut ch = chain_of(3);
        let mut p = ClockPolicy::new();
        migrate_all(&mut p, &mut ch, 3);
        // All bits set → first sweep clears 0,1,2 then returns 0.
        let v = p.select_victim(&ch, 0, &PinSet::new());
        assert_eq!(v, Some(ChunkId(0)));
    }

    #[test]
    fn referenced_chunk_gets_second_chance() {
        let mut ch = chain_of(3);
        let mut p = ClockPolicy::new();
        migrate_all(&mut p, &mut ch, 3);
        let _ = p.select_victim(&ch, 0, &PinSet::new()); // clears all, picks 0
                                                         // Re-reference chunk 1 via a fault on one of its pages.
        p.on_fault(ChunkId(1).first_page());
        let v = p.select_victim(&ch, 0, &PinSet::new());
        // Hand continues from position 1: chunk 1 has its bit set again
        // (second chance), chunk 2's bit is clear → victim 2.
        assert_eq!(v, Some(ChunkId(2)));
    }

    #[test]
    fn respects_exclusion() {
        let mut ch = chain_of(2);
        let mut p = ClockPolicy::new();
        migrate_all(&mut p, &mut ch, 2);
        let mut ex = PinSet::new();
        ex.insert(ChunkId(0));
        let v = p.select_victim(&ch, 0, &ex);
        assert_eq!(v, Some(ChunkId(1)));
    }

    #[test]
    fn empty_chain_gives_none() {
        let mut p = ClockPolicy::new();
        assert_eq!(p.select_victim(&ChunkChain::new(), 0, &PinSet::new()), None);
    }

    #[test]
    fn eviction_clears_state() {
        let mut ch = chain_of(2);
        let mut p = ClockPolicy::new();
        migrate_all(&mut p, &mut ch, 2);
        p.on_evict(ChunkId(0), 0);
        assert_eq!(p.refs[0], UNTRACKED);
        // An untracked chunk's bit stays clear on a fault.
        p.on_fault(ChunkId(0).first_page());
        assert_eq!(p.refs[0], UNTRACKED);
    }
}
