//! MHPE — Modified Hierarchical Page Eviction (paper §IV-B, Algorithm 1).
//!
//! MHPE makes HPE compatible with page prefetching by replacing the
//! (prefetch-polluted) touch counters with the **untouch level** of
//! evicted chunks, read from the page-table access bits at eviction.
//!
//! * Starts with the **MRU** strategy and an initial forward distance of
//!   `clamp(chain_len / 100, 2, 8)`.
//! * Switches permanently to **LRU** when the per-interval untouch level
//!   `U1 ≥ T1` (default 32), or — checked once, at the fourth interval —
//!   when the cumulative first-four-intervals level `U2 ≥ T2` (default 40).
//! * While on MRU, after each interval the forward distance grows by
//!   `max(bucket(U1), W)` where `W` is the interval's wrong-eviction
//!   count and `bucket` quantizes `U1 ∈ [0, T1)` into five values
//!   (§VI-A: `[0-3]→0, [4-10]→1, [11-17]→2, [18-24]→3, [25-31]→4`);
//!   growth stops once the distance exceeds `T3` (default 32).
//! * Wrongly evicted chunks (a fault hits the evicted-chunk buffer) are
//!   re-inserted at the **head** of the chain — the LRU position —
//!   keeping them out of the MRU victim window.

use super::{EvictPolicy, InsertAt, MhpeTrace};
use crate::chain::ChunkChain;
use crate::evicted_buffer::{mhpe_buffer_len, EvictedBuffer};
use crate::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage};
use sim_core::BitVec;

/// Eviction strategy MHPE is currently using.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Evict from the MRU end of the old partition (plus forward distance).
    Mru,
    /// Evict from the LRU end of the old partition. Terminal: MHPE never
    /// switches back (unlike HPE).
    Lru,
}

/// MHPE tuning knobs. Defaults are the values the paper selects in the
/// §VI-A sensitivity study.
#[derive(Debug, Clone, Copy)]
pub struct MhpeConfig {
    /// First switch threshold on per-interval untouch level (paper: 32).
    pub t1: u32,
    /// Second switch threshold on the first-four-intervals total (paper: 40).
    pub t2: u32,
    /// Forward-distance growth limit (paper: 32).
    pub t3: usize,
    /// Range the initial forward distance is clamped into (paper: 2..=8).
    pub initial_fd_range: (usize, usize),
    /// Chain-length divisor for the initial forward distance (paper: 100).
    pub initial_fd_divisor: usize,
    /// Override: pin the forward distance (sensitivity studies, §IV-B).
    pub fixed_fd: Option<usize>,
    /// Disable the MRU→LRU switch (used when collecting Tables III/IV,
    /// where every run must stay on MRU to measure untouch levels).
    pub disable_switch: bool,
}

impl Default for MhpeConfig {
    fn default() -> Self {
        MhpeConfig {
            t1: 32,
            t2: 40,
            t3: 32,
            initial_fd_range: (2, 8),
            initial_fd_divisor: 100,
            fixed_fd: None,
            disable_switch: false,
        }
    }
}

/// Quantize a per-interval untouch level `u1 < t1` into the 0..=4 scale
/// the forward-distance adjustment uses. The five ranges partition
/// `[0, t1)` the way §VI-A describes for `t1 = 32`.
#[must_use]
pub fn untouch_bucket(u1: u32, t1: u32) -> u32 {
    debug_assert!(u1 < t1);
    if t1 == 32 {
        // Exactly the paper's split (§VI-A): [0-3]→0, [4-10]→1,
        // [11-17]→2, [18-24]→3, [25-31]→4.
        return match u1 {
            0..=3 => 0,
            4..=10 => 1,
            11..=17 => 2,
            18..=24 => 3,
            _ => 4,
        };
    }
    // Generalized equal split for non-default T1 (sensitivity studies).
    if t1 < 5 {
        return u1.min(4);
    }
    let width = t1.div_ceil(5);
    (u1 / width).min(4)
}

/// The MHPE policy.
#[derive(Debug)]
pub struct MhpePolicy {
    cfg: MhpeConfig,
    strategy: Strategy,
    forward_distance: usize,
    memory_full: bool,
    /// Completed intervals since memory filled.
    intervals_done: u64,
    /// U1: untouch accumulated in the current interval.
    u1: u32,
    /// U2: untouch accumulated over the first four intervals.
    u2: u32,
    /// W: wrong evictions in the current interval.
    w: u32,
    buffer: Option<EvictedBuffer>,
    /// Chunks that must re-enter the chain at the head, one bit per
    /// chunk id.
    wrong_marks: BitVec,
    total_wrong: u64,
    /// Per-interval U1 history (drives Tables III and IV).
    pub interval_untouch: Vec<u32>,
    /// Forward-distance value at each interval boundary (diagnostics).
    pub fd_trace: Vec<usize>,
    /// Interval index (1-based, since full) at which MHPE switched to
    /// LRU, if it did.
    pub switched_at: Option<u64>,
}

impl MhpePolicy {
    /// MHPE with paper-default thresholds.
    #[must_use]
    pub fn new() -> Self {
        Self::with_config(MhpeConfig::default())
    }

    /// MHPE with explicit configuration.
    #[must_use]
    pub fn with_config(cfg: MhpeConfig) -> Self {
        MhpePolicy {
            cfg,
            strategy: Strategy::Mru,
            forward_distance: cfg.fixed_fd.unwrap_or(cfg.initial_fd_range.0),
            memory_full: false,
            intervals_done: 0,
            u1: 0,
            u2: 0,
            w: 0,
            buffer: None,
            wrong_marks: BitVec::default(),
            total_wrong: 0,
            interval_untouch: Vec::new(),
            fd_trace: Vec::new(),
            switched_at: None,
        }
    }

    /// Current strategy.
    #[must_use]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Current forward distance.
    #[must_use]
    pub fn forward_distance(&self) -> usize {
        self.forward_distance
    }

    fn initial_fd(&self, chain_len: usize) -> usize {
        if let Some(fd) = self.cfg.fixed_fd {
            return fd;
        }
        let (lo, hi) = self.cfg.initial_fd_range;
        (chain_len / self.cfg.initial_fd_divisor).clamp(lo, hi)
    }
}

impl Default for MhpePolicy {
    fn default() -> Self {
        Self::new()
    }
}

impl EvictPolicy for MhpePolicy {
    fn name(&self) -> &'static str {
        "mhpe"
    }

    fn on_memory_full(&mut self, chain: &ChunkChain) {
        if self.memory_full {
            return;
        }
        self.memory_full = true;
        // Algorithm 1, line 7: calculate the initial forward distance.
        self.forward_distance = self.initial_fd(chain.len());
        self.buffer = Some(EvictedBuffer::new(mhpe_buffer_len(chain.len())));
    }

    fn on_fault(&mut self, page: VirtPage) {
        let chunk = page.chunk();
        if let Some(buf) = &mut self.buffer {
            if buf.take(chunk) {
                self.w += 1;
                self.total_wrong += 1;
                self.wrong_marks.set(chunk.0 as usize, true);
            }
        }
    }

    fn insert_position(&mut self, chunk: ChunkId) -> InsertAt {
        if self.wrong_marks.take(chunk.0 as usize) {
            InsertAt::Head
        } else {
            InsertAt::Tail
        }
    }

    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId> {
        match self.strategy {
            Strategy::Mru => chain.select_mru_old(self.forward_distance, interval, pins),
            Strategy::Lru => chain.select_lru_old(interval, pins),
        }
    }

    fn candidate_set(
        &self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        // The old-partition window the active strategy draws from: MRU
        // order past the forward distance, or LRU order. Falls back to
        // the whole chain when the old partition is empty (mirroring
        // select_mru_old / select_lru_old). Read-only preview.
        let win: Vec<ChunkId> = match self.strategy {
            Strategy::Mru => chain
                .iter_mru_entries()
                .filter(|e| {
                    !pins.contains(e.chunk)
                        && crate::chain::partition_of(e.last_ref_interval, interval)
                            == crate::chain::Partition::Old
                })
                .skip(self.forward_distance)
                .map(|e| e.chunk)
                .take(limit)
                .collect(),
            Strategy::Lru => chain
                .iter_lru_entries()
                .filter(|e| {
                    !pins.contains(e.chunk)
                        && crate::chain::partition_of(e.last_ref_interval, interval)
                            == crate::chain::Partition::Old
                })
                .map(|e| e.chunk)
                .take(limit)
                .collect(),
        };
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

    fn on_evict(&mut self, chunk: ChunkId, untouch: u32) {
        self.u1 += untouch;
        if self.intervals_done < 4 {
            self.u2 += untouch;
        }
        if let Some(buf) = &mut self.buffer {
            buf.push(chunk);
        }
    }

    fn on_interval(&mut self, k: u64) {
        self.intervals_done = k;
        self.interval_untouch.push(self.u1);
        self.fd_trace.push(self.forward_distance);

        if self.strategy == Strategy::Mru && !self.cfg.disable_switch {
            // Algorithm 1, line 11: the two switch conditions. U2 is
            // compared to T2 only once, at the fourth interval.
            let cond1 = self.u1 >= self.cfg.t1;
            let cond2 = k == 4 && self.u2 >= self.cfg.t2;
            if cond1 || cond2 {
                self.strategy = Strategy::Lru;
                self.switched_at = Some(k);
            }
        }
        if self.strategy == Strategy::Mru && self.cfg.fixed_fd.is_none() {
            // Algorithm 1, lines 14-15: grow the forward distance by
            // max(bucket(U1), W), but only while fd <= T3.
            if self.forward_distance <= self.cfg.t3 {
                let adj = if self.u1 < self.cfg.t1 {
                    untouch_bucket(self.u1, self.cfg.t1).max(self.w)
                } else {
                    self.w
                };
                self.forward_distance += adj as usize;
            }
        }
        self.u1 = 0;
        self.w = 0;
    }

    fn wrong_evictions(&self) -> u64 {
        self.total_wrong
    }

    fn aux_buffer_max_len(&self) -> usize {
        self.buffer.as_ref().map_or(0, |b| b.max_len)
    }

    fn mhpe_trace(&self) -> Option<MhpeTrace> {
        Some(MhpeTrace {
            interval_untouch: self.interval_untouch.clone(),
            fd_trace: self.fd_trace.clone(),
            switched_at: self.switched_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_chain(n: u64, interval: u64) -> ChunkChain {
        let mut ch = ChunkChain::new();
        for i in 0..n {
            ch.insert_tail(ChunkId(i), interval);
        }
        ch
    }

    #[test]
    fn starts_with_mru() {
        let p = MhpePolicy::new();
        assert_eq!(p.strategy(), Strategy::Mru);
    }

    #[test]
    fn initial_fd_clamped_to_2_8() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(50, 0)); // 50/100 = 0 → clamp to 2
        assert_eq!(p.forward_distance(), 2);

        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(500, 0)); // 500/100 = 5
        assert_eq!(p.forward_distance(), 5);

        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(2000, 0)); // 2000/100 = 20 → clamp to 8
        assert_eq!(p.forward_distance(), 8);
    }

    #[test]
    fn memory_full_is_idempotent() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(500, 0));
        let fd = p.forward_distance();
        p.on_memory_full(&full_chain(2000, 0));
        assert_eq!(p.forward_distance(), fd);
    }

    #[test]
    fn mru_selects_forward_of_mru_old() {
        let mut p = MhpePolicy::new();
        // 300 chunks, all old (interval 0), current interval 2.
        let ch = full_chain(300, 0);
        p.on_memory_full(&ch); // fd = 3
        assert_eq!(p.forward_distance(), 3);
        // MRU-most old chunk is 299; skip 3 → 296.
        assert_eq!(p.select_victim(&ch, 2, &PinSet::new()), Some(ChunkId(296)));
    }

    #[test]
    fn switches_to_lru_when_u1_exceeds_t1() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        // Four evictions with untouch level 8 each → U1 = 32 = T1.
        for i in 0..4 {
            p.on_evict(ChunkId(i), 8);
        }
        p.on_interval(1);
        assert_eq!(p.strategy(), Strategy::Lru);
        assert_eq!(p.switched_at, Some(1));
    }

    #[test]
    fn switches_to_lru_via_t2_at_fourth_interval() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        // 10+10+10+10 = 40 = T2 over four intervals; each interval's
        // U1 = 10 stays below T1 = 32.
        for k in 1..=4 {
            p.on_evict(ChunkId(k), 10);
            p.on_interval(k);
        }
        assert_eq!(p.strategy(), Strategy::Lru);
        assert_eq!(p.switched_at, Some(4));
    }

    #[test]
    fn t2_not_checked_before_or_after_fourth_interval() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        // U2 = 39 < 40 by interval 4; then more untouch later must not
        // trigger the T2 condition.
        for k in 1..=3 {
            p.on_evict(ChunkId(k), 13);
            p.on_interval(k);
        }
        p.on_interval(4); // U2 = 39
        assert_eq!(p.strategy(), Strategy::Mru);
        p.on_evict(ChunkId(9), 31);
        p.on_interval(5); // U1 = 31 < T1; U2 no longer checked
        assert_eq!(p.strategy(), Strategy::Mru);
    }

    #[test]
    fn switch_is_permanent() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        for i in 0..4 {
            p.on_evict(ChunkId(i), 8);
        }
        p.on_interval(1);
        assert_eq!(p.strategy(), Strategy::Lru);
        // Quiet intervals follow; MHPE must not switch back (unlike HPE).
        for k in 2..10 {
            p.on_interval(k);
        }
        assert_eq!(p.strategy(), Strategy::Lru);
    }

    #[test]
    fn forward_distance_grows_by_bucket() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0)); // fd = 3
        p.on_evict(ChunkId(0), 12); // U1 = 12 → bucket [11-17] = 2
        p.on_interval(1);
        assert_eq!(p.forward_distance(), 5);
    }

    #[test]
    fn forward_distance_uses_max_of_untouch_and_wrong() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0)); // fd = 3
                                               // Wrong evictions: evict then fault on the same chunk, 3 times.
        for i in 0..3u64 {
            p.on_evict(ChunkId(i), 0);
            p.on_fault(ChunkId(i).first_page());
        }
        p.on_interval(1); // U1 bucket = 0, W = 3 → max = 3
        assert_eq!(p.forward_distance(), 6);
    }

    #[test]
    fn forward_distance_capped_by_t3() {
        let mut p = MhpePolicy::with_config(MhpeConfig {
            t3: 6,
            ..MhpeConfig::default()
        });
        p.on_memory_full(&full_chain(300, 0)); // fd = 3
        for k in 1..20 {
            p.on_evict(ChunkId(k), 25); // bucket 4, below T1? 25<32 yes
            p.on_interval(k);
        }
        // fd grows by 4 per interval while fd <= 6: 3 → 7, then frozen.
        assert_eq!(p.forward_distance(), 7);
    }

    #[test]
    fn fixed_fd_never_adjusts() {
        let mut p = MhpePolicy::with_config(MhpeConfig {
            fixed_fd: Some(5),
            ..MhpeConfig::default()
        });
        p.on_memory_full(&full_chain(300, 0));
        assert_eq!(p.forward_distance(), 5);
        p.on_evict(ChunkId(0), 20);
        p.on_interval(1);
        assert_eq!(p.forward_distance(), 5);
    }

    #[test]
    fn disable_switch_pins_mru() {
        let mut p = MhpePolicy::with_config(MhpeConfig {
            disable_switch: true,
            ..MhpeConfig::default()
        });
        p.on_memory_full(&full_chain(300, 0));
        for i in 0..4 {
            p.on_evict(ChunkId(i), 16);
        }
        p.on_interval(1);
        assert_eq!(p.strategy(), Strategy::Mru);
    }

    #[test]
    fn wrong_eviction_reinserts_at_head() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        p.on_evict(ChunkId(7), 0);
        // Fault on a page of the evicted chunk → wrong eviction.
        p.on_fault(ChunkId(7).page(3));
        assert_eq!(p.wrong_evictions(), 1);
        assert_eq!(p.insert_position(ChunkId(7)), InsertAt::Head);
        // Mark is consumed: the next migration of the same chunk is normal.
        assert_eq!(p.insert_position(ChunkId(7)), InsertAt::Tail);
        // Unrelated chunks go to the tail.
        assert_eq!(p.insert_position(ChunkId(8)), InsertAt::Tail);
    }

    #[test]
    fn wrong_eviction_counted_once_per_chunk_episode() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        p.on_evict(ChunkId(7), 0);
        p.on_fault(ChunkId(7).page(0));
        p.on_fault(ChunkId(7).page(1)); // same episode, already consumed
        assert_eq!(p.wrong_evictions(), 1);
    }

    #[test]
    fn lru_mode_selects_lru_old() {
        let mut p = MhpePolicy::new();
        let mut ch = ChunkChain::new();
        for i in 0..10 {
            ch.insert_tail(ChunkId(i), 0);
        }
        ch.insert_tail(ChunkId(100), 5);
        p.on_memory_full(&ch);
        for i in 0..4 {
            p.on_evict(ChunkId(i), 16);
        }
        p.on_interval(1); // switch to LRU
        assert_eq!(p.select_victim(&ch, 5, &PinSet::new()), Some(ChunkId(0)));
    }

    #[test]
    fn interval_untouch_trace_records_per_interval_sums() {
        let mut p = MhpePolicy::new();
        p.on_memory_full(&full_chain(300, 0));
        p.on_evict(ChunkId(0), 5);
        p.on_evict(ChunkId(1), 6);
        p.on_interval(1);
        p.on_evict(ChunkId(2), 1);
        p.on_interval(2);
        assert_eq!(p.interval_untouch, vec![11, 1]);
    }

    #[test]
    fn bucket_ranges_match_paper() {
        // §VI-A: [0-3]→0, [4-10]→1, [11-17]→2, [18-24]→3, [25-31]→4.
        assert_eq!(untouch_bucket(0, 32), 0);
        assert_eq!(untouch_bucket(3, 32), 0);
        assert_eq!(untouch_bucket(4, 32), 1);
        assert_eq!(untouch_bucket(10, 32), 1);
        assert_eq!(untouch_bucket(11, 32), 2);
        assert_eq!(untouch_bucket(17, 32), 2);
        assert_eq!(untouch_bucket(18, 32), 3);
        assert_eq!(untouch_bucket(24, 32), 3);
        assert_eq!(untouch_bucket(25, 32), 4);
        assert_eq!(untouch_bucket(31, 32), 4);
        // Generalized split stays within the 0..=4 scale.
        for u in 0..20 {
            assert!(untouch_bucket(u, 20) <= 4);
        }
    }
}
