//! The chunk chain (Fig. 2 of the paper).
//!
//! HPE/MHPE "dynamically maintain a chunk chain": a recency-ordered list
//! of resident chunks, logically split into three partitions by the
//! interval in which each chunk was last referenced:
//!
//! * **new** — referenced in the *current* interval,
//! * **middle** — referenced in the *last* interval,
//! * **old** — referenced earlier.
//!
//! The head of the list is the LRU end, the tail the MRU end. The chain
//! is implemented as a slab-backed intrusive doubly-linked list with an
//! O(1) chunk-id index, so every operation the policies perform —
//! insert, move-to-tail, remove, and bounded scans from either end of
//! the *old* partition — is cheap and allocation-free in steady state.
//!
//! Beside the list sits an *order index* that answers "the n-th chunk
//! from the LRU end" (Random and Reserved-LRU victims) without walking
//! the list. Every linked node holds a slot number `seq`; slots rise
//! from the LRU end to the MRU end, so comparing two `seq`s compares
//! chain positions. A bitmap marks the live slots: linking at the tail
//! takes the slot past the highest one handed out, linking at the head
//! the slot below the lowest, and unlinking clears a bit. When an end
//! runs out of slots the list is re-slotted densely into a fresh range
//! with room on both sides, so upkeep stays O(1) amortized. Finding the
//! n-th chunk is then a popcount scan over the bitmap.

use gmmu::types::ChunkId;
use sim_core::{FxHashMap, FxHashSet};
use std::cell::Cell;

const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Node {
    chunk: ChunkId,
    prev: u32,
    next: u32,
    /// Interval in which the chunk was last referenced (migration or,
    /// for HPE, demand fault).
    last_ref_interval: u64,
    /// HPE's per-chunk touch counter ("records the number of touches to
    /// the chunk"). MHPE ignores this field — that is the point of MHPE.
    counter: u32,
    /// Order-index slot while linked (fills the struct's padding).
    seq: u32,
}

const _: () = assert!(std::mem::size_of::<Node>() == 32);

/// How the order index did its work. No simulated result reads these.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexCounts {
    /// Re-slots forced by a tail link finding no slot left.
    pub tail_reslots: u64,
    /// Re-slots forced by a head link finding no slot left.
    pub head_reslots: u64,
    /// [`ChunkChain::nth_from_lru`] calls on a non-empty chain.
    pub selections: u64,
    /// Fixed-point rounds beyond each selection's first.
    pub extra_rounds: u64,
}

/// Which partition a chunk falls in, given the current interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Referenced in the current interval.
    New,
    /// Referenced in the previous interval.
    Middle,
    /// Referenced before the previous interval.
    Old,
}

/// Classify `last_ref` relative to `current` interval.
#[must_use]
pub fn partition_of(last_ref: u64, current: u64) -> Partition {
    if last_ref >= current {
        Partition::New
    } else if last_ref + 1 == current {
        Partition::Middle
    } else {
        Partition::Old
    }
}

/// Recency-ordered chunk chain with O(1) lookup.
///
/// Head = LRU end, tail = MRU end.
///
/// ```
/// use cppe::chain::ChunkChain;
/// use gmmu::types::ChunkId;
/// use sim_core::FxHashSet;
///
/// let mut chain = ChunkChain::new();
/// for i in 0..4 {
///     chain.insert_tail(ChunkId(i), 0); // interval 0
/// }
/// // At interval 2, everything is in the "old" partition: MRU selection
/// // with forward distance 1 skips chunk 3 and picks chunk 2.
/// let none = FxHashSet::default();
/// assert_eq!(chain.select_mru_old(1, 2, &none), Some(ChunkId(2)));
/// assert_eq!(chain.select_lru_old(2, &none), Some(ChunkId(0)));
/// ```
#[derive(Debug)]
pub struct ChunkChain {
    nodes: Vec<Node>,
    free: Vec<u32>,
    head: u32,
    tail: u32,
    index: FxHashMap<ChunkId, u32>,
    len: usize,
    /// Order index: the node in each slot (meaningful where `live` is set).
    slots: Vec<u32>,
    /// One bit per slot: is a linked node in it?
    live: Vec<u64>,
    /// Lowest slot handed out since the last re-slot; every linked
    /// node's `seq` lies in `lo..hi`.
    lo: u32,
    /// One past the highest slot handed out since the last re-slot.
    hi: u32,
    counts: Cell<IndexCounts>,
}

impl Default for ChunkChain {
    fn default() -> Self {
        Self::new()
    }
}

impl ChunkChain {
    /// Empty chain.
    #[must_use]
    pub fn new() -> Self {
        ChunkChain {
            nodes: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            index: FxHashMap::default(),
            len: 0,
            slots: Vec::new(),
            live: Vec::new(),
            lo: 0,
            hi: 0,
            counts: Cell::new(IndexCounts::default()),
        }
    }

    /// Number of chunks in the chain.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the chain holds no chunks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Is `chunk` present?
    #[must_use]
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.index.contains_key(&chunk)
    }

    fn alloc(&mut self, node: Node) -> u32 {
        if let Some(i) = self.free.pop() {
            self.nodes[i as usize] = node;
            i
        } else {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        }
    }

    fn unlink(&mut self, i: u32) {
        let (prev, next, seq) = {
            let n = &self.nodes[i as usize];
            (n.prev, n.next, n.seq)
        };
        self.live[seq as usize / 64] &= !(1 << (seq % 64));
        if prev == NIL {
            self.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
    }

    /// Put node `i` in slot `seq` of the order index.
    fn occupy(&mut self, i: u32, seq: u32) {
        self.nodes[i as usize].seq = seq;
        self.slots[seq as usize] = i;
        self.live[seq as usize / 64] |= 1 << (seq % 64);
    }

    /// Re-slot the linked nodes densely into
    /// `next_power_of_two(4 · (len + 2))` slots starting a quarter of the
    /// way in, leaving at least `len + 2` free slots at each end. Called
    /// when an end runs out, at most once per `len + 2` links: O(1)
    /// amortized.
    #[cold]
    fn reslot(&mut self) {
        let size = (4 * (self.len + 2)).next_power_of_two();
        self.slots.clear();
        self.slots.resize(size, NIL);
        self.live.clear();
        self.live.resize(size.div_ceil(64), 0);
        self.lo = (size / 4) as u32;
        self.hi = self.lo;
        let mut cur = self.head;
        while cur != NIL {
            self.occupy(cur, self.hi);
            self.hi += 1;
            cur = self.nodes[cur as usize].next;
        }
    }

    fn link_tail(&mut self, i: u32) {
        if self.hi as usize == self.slots.len() {
            self.reslot();
            self.counts.get_mut().tail_reslots += 1;
        }
        self.occupy(i, self.hi);
        self.hi += 1;
        self.nodes[i as usize].prev = self.tail;
        self.nodes[i as usize].next = NIL;
        if self.tail == NIL {
            self.head = i;
        } else {
            self.nodes[self.tail as usize].next = i;
        }
        self.tail = i;
    }

    /// Move linked node `i` to the tail. The tail stays where it is and
    /// keeps its slot, so HPE's touch right after a migration costs no
    /// slot.
    fn move_to_tail(&mut self, i: u32) {
        if i != self.tail {
            self.unlink(i);
            self.link_tail(i);
        }
    }

    fn link_head(&mut self, i: u32) {
        if self.lo == 0 {
            self.reslot();
            self.counts.get_mut().head_reslots += 1;
        }
        self.lo -= 1;
        self.occupy(i, self.lo);
        self.nodes[i as usize].next = self.head;
        self.nodes[i as usize].prev = NIL;
        if self.head == NIL {
            self.tail = i;
        } else {
            self.nodes[self.head as usize].prev = i;
        }
        self.head = i;
    }

    /// Insert `chunk` at the tail (MRU position). If already present,
    /// move it to the tail and refresh its interval instead.
    pub fn insert_tail(&mut self, chunk: ChunkId, interval: u64) {
        if let Some(&i) = self.index.get(&chunk) {
            self.nodes[i as usize].last_ref_interval = interval;
            self.move_to_tail(i);
            return;
        }
        let i = self.alloc(Node {
            chunk,
            prev: NIL,
            next: NIL,
            last_ref_interval: interval,
            counter: 0,
            seq: 0,
        });
        self.link_tail(i);
        self.index.insert(chunk, i);
        self.len += 1;
    }

    /// Insert `chunk` at the head (LRU position) — MHPE places wrongly
    /// evicted chunks here so they stay away from the MRU victim window.
    pub fn insert_head(&mut self, chunk: ChunkId, interval: u64) {
        if let Some(&i) = self.index.get(&chunk) {
            self.unlink(i);
            self.nodes[i as usize].last_ref_interval = interval;
            self.link_head(i);
            return;
        }
        let i = self.alloc(Node {
            chunk,
            prev: NIL,
            next: NIL,
            last_ref_interval: interval,
            counter: 0,
            seq: 0,
        });
        self.link_head(i);
        self.index.insert(chunk, i);
        self.len += 1;
    }

    /// Remove `chunk`. Returns true if it was present.
    pub fn remove(&mut self, chunk: ChunkId) -> bool {
        let Some(i) = self.index.remove(&chunk) else {
            return false;
        };
        self.unlink(i);
        self.free.push(i);
        self.len -= 1;
        true
    }

    /// HPE: record a touch — bump the counter and move to MRU.
    pub fn touch(&mut self, chunk: ChunkId, interval: u64, touches: u32) {
        if let Some(&i) = self.index.get(&chunk) {
            let n = &mut self.nodes[i as usize];
            n.last_ref_interval = interval;
            n.counter = n.counter.saturating_add(touches);
            self.move_to_tail(i);
        }
    }

    /// HPE counter of `chunk` (None if absent).
    #[must_use]
    pub fn counter(&self, chunk: ChunkId) -> Option<u32> {
        self.index
            .get(&chunk)
            .map(|&i| self.nodes[i as usize].counter)
    }

    /// Last-referenced interval of `chunk`.
    #[must_use]
    pub fn last_ref(&self, chunk: ChunkId) -> Option<u64> {
        self.index
            .get(&chunk)
            .map(|&i| self.nodes[i as usize].last_ref_interval)
    }

    /// Iterate chunks from the head (LRU end) towards the tail.
    pub fn iter_lru(&self) -> ChainIter<'_> {
        ChainIter {
            chain: self,
            cur: self.head,
            forward: true,
        }
    }

    /// Iterate chunks from the tail (MRU end) towards the head.
    pub fn iter_mru(&self) -> ChainIter<'_> {
        ChainIter {
            chain: self,
            cur: self.tail,
            forward: false,
        }
    }

    /// Victim search used by MRU-family strategies: walk from the MRU end
    /// considering only *old*-partition chunks that are not `exclude`d
    /// (the driver excludes chunks whose migration is in flight in the
    /// current fault batch — pinned pages are not eviction candidates),
    /// skip `forward_distance` of them, and return the next one. If the
    /// old partition is shorter than `forward_distance + 1`, returns its
    /// LRU-most member; if the old partition is empty, falls back to the
    /// global LRU head.
    #[must_use]
    pub fn select_mru_old(
        &self,
        forward_distance: usize,
        current_interval: u64,
        exclude: &FxHashSet<ChunkId>,
    ) -> Option<ChunkId> {
        let mut skipped = 0usize;
        let mut last_old = None;
        for (chunk, last_ref) in self.iter_mru_with_interval() {
            if exclude.contains(&chunk) {
                continue;
            }
            if partition_of(last_ref, current_interval) == Partition::Old {
                if skipped == forward_distance {
                    return Some(chunk);
                }
                skipped += 1;
                last_old = Some(chunk);
            }
        }
        last_old.or_else(|| self.iter_lru().find(|c| !exclude.contains(c)))
    }

    /// Victim search for LRU-family strategies: the LRU-most chunk of the
    /// old partition (skipping `exclude`d chunks), falling back to the
    /// global LRU head.
    #[must_use]
    pub fn select_lru_old(
        &self,
        current_interval: u64,
        exclude: &FxHashSet<ChunkId>,
    ) -> Option<ChunkId> {
        for (chunk, last_ref) in self.iter_lru_with_interval() {
            if exclude.contains(&chunk) {
                continue;
            }
            if partition_of(last_ref, current_interval) == Partition::Old {
                return Some(chunk);
            }
        }
        self.iter_lru().find(|c| !exclude.contains(c))
    }

    /// The `pos`-th non-excluded chunk from the head (LRU end); `pos = 0`
    /// is the first eligible chunk. Used by Reserved-LRU and Random.
    /// Saturates to the last eligible chunk.
    ///
    /// Answered from the order index, not by walking the list. With
    /// `rank` the 0-based position from the LRU end and `f(t) = pos +
    /// |{excluded chunks of rank ≤ t}|`, a rank `t` with `f(t) = t` has
    /// exactly `pos + 1` eligible chunks at or before it, so the least
    /// such `t` is the answer (were it excluded, `t − 1` would be a
    /// smaller fixed point). `f` is monotone and `f(t) ≥ pos`, so
    /// iterating `t ← f(t)` from `t = pos` climbs to that least fixed
    /// point, or past the MRU end when fewer than `pos + 1` chunks are
    /// eligible. Each round costs one popcount scan and one index
    /// lookup per excluded chunk; a round beyond the first needs an
    /// excluded chunk at or before the candidate.
    #[must_use]
    pub fn nth_from_lru(&self, pos: usize, exclude: &FxHashSet<ChunkId>) -> Option<ChunkId> {
        if self.len == 0 {
            return None;
        }
        let mut counts = self.counts.get();
        counts.selections += 1;
        let mut t = pos;
        let found = loop {
            if t >= self.len {
                break self.iter_mru().find(|c| !exclude.contains(c));
            }
            let s = self.select(t);
            let before = exclude
                .iter()
                .filter(|c| {
                    self.index
                        .get(c)
                        .is_some_and(|&i| self.nodes[i as usize].seq <= s)
                })
                .count();
            if pos + before == t {
                break Some(self.nodes[self.slots[s as usize] as usize].chunk);
            }
            t = pos + before;
            counts.extra_rounds += 1;
        };
        self.counts.set(counts);
        found
    }

    /// Slot of the chunk of rank `k` (0-based from the LRU end); needs
    /// `k < len`. The head holds the lowest live slot, so the scan
    /// starts at its word.
    fn select(&self, mut k: usize) -> u32 {
        let mut w = self.nodes[self.head as usize].seq as usize / 64;
        loop {
            let mut bits = self.live[w];
            let n = bits.count_ones() as usize;
            if k < n {
                for _ in 0..k {
                    bits &= bits - 1;
                }
                return (w * 64) as u32 + bits.trailing_zeros();
            }
            k -= n;
            w += 1;
        }
    }

    /// Does the order index agree with the list? Every linked node's
    /// slot names it and has its bit set, slots strictly rise from the
    /// LRU end to the MRU end within `lo..hi`, and exactly `len` bits
    /// are set.
    #[must_use]
    pub fn order_consistent(&self) -> bool {
        let mut prev_seq = None;
        let mut linked = 0;
        let mut cur = self.head;
        while cur != NIL {
            let seq = self.nodes[cur as usize].seq;
            if prev_seq.is_some_and(|p| p >= seq)
                || seq < self.lo
                || seq >= self.hi
                || self.slots[seq as usize] != cur
                || self.live[seq as usize / 64] & 1 << (seq % 64) == 0
            {
                return false;
            }
            prev_seq = Some(seq);
            linked += 1;
            cur = self.nodes[cur as usize].next;
        }
        let bits: u32 = self.live.iter().map(|w| w.count_ones()).sum();
        linked == self.len && bits as usize == self.len
    }

    /// How the order index did its work so far.
    #[must_use]
    pub fn index_counts(&self) -> IndexCounts {
        self.counts.get()
    }

    /// Iterate `(chunk, last_ref_interval)` LRU→MRU.
    pub fn iter_lru_with_interval(&self) -> impl Iterator<Item = (ChunkId, u64)> + '_ {
        IntervalIter {
            chain: self,
            cur: self.head,
            forward: true,
        }
    }

    /// Iterate `(chunk, last_ref_interval)` MRU→LRU.
    pub fn iter_mru_with_interval(&self) -> impl Iterator<Item = (ChunkId, u64)> + '_ {
        IntervalIter {
            chain: self,
            cur: self.tail,
            forward: false,
        }
    }

    /// Iterate full [`ChainEntry`] records MRU→LRU (HPE's MRU-C search
    /// needs the counters).
    pub fn iter_mru_entries(&self) -> impl Iterator<Item = ChainEntry> + '_ {
        EntryIter {
            chain: self,
            cur: self.tail,
            forward: false,
        }
    }

    /// Iterate full [`ChainEntry`] records LRU→MRU.
    pub fn iter_lru_entries(&self) -> impl Iterator<Item = ChainEntry> + '_ {
        EntryIter {
            chain: self,
            cur: self.head,
            forward: true,
        }
    }

    /// Count of old-partition chunks (diagnostics / tests).
    #[must_use]
    pub fn old_len(&self, current_interval: u64) -> usize {
        self.iter_lru_with_interval()
            .filter(|&(_, r)| partition_of(r, current_interval) == Partition::Old)
            .count()
    }
}

/// Iterator over chunk ids in chain order.
pub struct ChainIter<'a> {
    chain: &'a ChunkChain,
    cur: u32,
    forward: bool,
}

impl Iterator for ChainIter<'_> {
    type Item = ChunkId;

    fn next(&mut self) -> Option<ChunkId> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.chain.nodes[self.cur as usize];
        self.cur = if self.forward { n.next } else { n.prev };
        Some(n.chunk)
    }
}

/// A full view of one chain node (for policies that need the counter).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChainEntry {
    /// The chunk this entry tracks.
    pub chunk: ChunkId,
    /// Interval of last reference.
    pub last_ref_interval: u64,
    /// HPE touch counter.
    pub counter: u32,
}

struct EntryIter<'a> {
    chain: &'a ChunkChain,
    cur: u32,
    forward: bool,
}

impl Iterator for EntryIter<'_> {
    type Item = ChainEntry;

    fn next(&mut self) -> Option<ChainEntry> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.chain.nodes[self.cur as usize];
        self.cur = if self.forward { n.next } else { n.prev };
        Some(ChainEntry {
            chunk: n.chunk,
            last_ref_interval: n.last_ref_interval,
            counter: n.counter,
        })
    }
}

struct IntervalIter<'a> {
    chain: &'a ChunkChain,
    cur: u32,
    forward: bool,
}

impl Iterator for IntervalIter<'_> {
    type Item = (ChunkId, u64);

    fn next(&mut self) -> Option<(ChunkId, u64)> {
        if self.cur == NIL {
            return None;
        }
        let n = &self.chain.nodes[self.cur as usize];
        self.cur = if self.forward { n.next } else { n.prev };
        Some((n.chunk, n.last_ref_interval))
    }
}

#[cfg(test)]
impl ChunkChain {
    /// The list walk `nth_from_lru` replaced, kept as its oracle.
    fn nth_from_lru_walk(&self, pos: usize, exclude: &FxHashSet<ChunkId>) -> Option<ChunkId> {
        let mut last = None;
        for (i, chunk) in self.iter_lru().filter(|c| !exclude.contains(c)).enumerate() {
            last = Some(chunk);
            if i == pos {
                return last;
            }
        }
        last
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::Xoshiro256ss;

    fn ids(it: impl Iterator<Item = ChunkId>) -> Vec<u64> {
        it.map(|c| c.0).collect()
    }

    #[test]
    fn insert_tail_orders_lru_to_mru() {
        let mut ch = ChunkChain::new();
        for i in 0..4 {
            ch.insert_tail(ChunkId(i), 0);
        }
        assert_eq!(ids(ch.iter_lru()), vec![0, 1, 2, 3]);
        assert_eq!(ids(ch.iter_mru()), vec![3, 2, 1, 0]);
        assert_eq!(ch.len(), 4);
    }

    #[test]
    fn reinsert_moves_to_tail() {
        let mut ch = ChunkChain::new();
        for i in 0..3 {
            ch.insert_tail(ChunkId(i), 0);
        }
        ch.insert_tail(ChunkId(0), 1);
        assert_eq!(ids(ch.iter_lru()), vec![1, 2, 0]);
        assert_eq!(ch.last_ref(ChunkId(0)), Some(1));
        assert_eq!(ch.len(), 3);
    }

    #[test]
    fn insert_head_places_at_lru() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(1), 0);
        ch.insert_tail(ChunkId(2), 0);
        ch.insert_head(ChunkId(9), 0);
        assert_eq!(ids(ch.iter_lru()), vec![9, 1, 2]);
    }

    #[test]
    fn remove_relinks() {
        let mut ch = ChunkChain::new();
        for i in 0..5 {
            ch.insert_tail(ChunkId(i), 0);
        }
        assert!(ch.remove(ChunkId(2)));
        assert!(!ch.remove(ChunkId(2)));
        assert_eq!(ids(ch.iter_lru()), vec![0, 1, 3, 4]);
        // Removing ends works too.
        ch.remove(ChunkId(0));
        ch.remove(ChunkId(4));
        assert_eq!(ids(ch.iter_lru()), vec![1, 3]);
        assert_eq!(ch.len(), 2);
    }

    #[test]
    fn slab_reuses_freed_slots() {
        let mut ch = ChunkChain::new();
        for i in 0..100 {
            ch.insert_tail(ChunkId(i), 0);
        }
        for i in 0..100 {
            ch.remove(ChunkId(i));
        }
        for i in 100..200 {
            ch.insert_tail(ChunkId(i), 0);
        }
        assert_eq!(ch.nodes.len(), 100, "slab capacity must be reused");
        assert_eq!(ch.len(), 100);
    }

    #[test]
    fn touch_bumps_counter_and_moves() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(1), 0);
        ch.insert_tail(ChunkId(2), 0);
        ch.touch(ChunkId(1), 3, 2);
        assert_eq!(ch.counter(ChunkId(1)), Some(2));
        assert_eq!(ch.last_ref(ChunkId(1)), Some(3));
        assert_eq!(ids(ch.iter_mru()), vec![1, 2]);
        // Touching an absent chunk is a no-op.
        ch.touch(ChunkId(99), 3, 1);
        assert!(!ch.contains(ChunkId(99)));
    }

    #[test]
    fn partitions() {
        assert_eq!(partition_of(5, 5), Partition::New);
        assert_eq!(partition_of(4, 5), Partition::Middle);
        assert_eq!(partition_of(3, 5), Partition::Old);
        assert_eq!(partition_of(0, 5), Partition::Old);
        // Defensive: a "future" interval counts as new.
        assert_eq!(partition_of(6, 5), Partition::New);
    }

    #[test]
    fn select_mru_old_skips_forward_distance() {
        let none = FxHashSet::default();
        let mut ch = ChunkChain::new();
        // Old partition: chunks 0..6 (interval 0), current interval 2.
        for i in 0..6 {
            ch.insert_tail(ChunkId(i), 0);
        }
        // New chunks at MRU end must be skipped entirely.
        ch.insert_tail(ChunkId(10), 2);
        // fd = 0 → MRU-most old chunk = 5.
        assert_eq!(ch.select_mru_old(0, 2, &none), Some(ChunkId(5)));
        // fd = 2 → skip 5, 4 → pick 3 (paper Fig. 5: skipping two chunks
        // from the MRU position evicts C2 when C4 was the MRU-most).
        assert_eq!(ch.select_mru_old(2, 2, &none), Some(ChunkId(3)));
    }

    #[test]
    fn select_respects_exclusion() {
        let mut ch = ChunkChain::new();
        for i in 0..4 {
            ch.insert_tail(ChunkId(i), 0);
        }
        let mut ex = FxHashSet::default();
        ex.insert(ChunkId(3));
        ex.insert(ChunkId(0));
        assert_eq!(ch.select_mru_old(0, 2, &ex), Some(ChunkId(2)));
        assert_eq!(ch.select_lru_old(2, &ex), Some(ChunkId(1)));
        assert_eq!(ch.nth_from_lru(0, &ex), Some(ChunkId(1)));
        // Everything excluded → None.
        for i in 0..4 {
            ex.insert(ChunkId(i));
        }
        assert_eq!(ch.select_mru_old(0, 2, &ex), None);
        assert_eq!(ch.select_lru_old(2, &ex), None);
        assert_eq!(ch.nth_from_lru(0, &ex), None);
    }

    #[test]
    fn select_mru_old_saturates_to_oldest_old() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(0), 0);
        ch.insert_tail(ChunkId(1), 0);
        ch.insert_tail(ChunkId(9), 5); // new
                                       // fd larger than old partition → LRU-most old chunk.
        assert_eq!(
            ch.select_mru_old(10, 5, &FxHashSet::default()),
            Some(ChunkId(0))
        );
    }

    #[test]
    fn select_mru_old_falls_back_to_head_when_no_old() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(1), 5);
        ch.insert_tail(ChunkId(2), 5);
        assert_eq!(
            ch.select_mru_old(3, 5, &FxHashSet::default()),
            Some(ChunkId(1))
        );
    }

    #[test]
    fn select_lru_old_prefers_oldest() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(3), 0);
        ch.insert_tail(ChunkId(4), 1);
        ch.insert_tail(ChunkId(5), 5);
        assert_eq!(
            ch.select_lru_old(5, &FxHashSet::default()),
            Some(ChunkId(3))
        );
    }

    #[test]
    fn select_on_empty_chain_is_none() {
        let none = FxHashSet::default();
        let ch = ChunkChain::new();
        assert_eq!(ch.select_mru_old(2, 5, &none), None);
        assert_eq!(ch.select_lru_old(5, &none), None);
        assert_eq!(ch.nth_from_lru(0, &none), None);
    }

    #[test]
    fn nth_from_lru_positions() {
        let mut ch = ChunkChain::new();
        for i in 0..5 {
            ch.insert_tail(ChunkId(i), 0);
        }
        let none = FxHashSet::default();
        assert_eq!(ch.nth_from_lru(0, &none), Some(ChunkId(0)));
        assert_eq!(ch.nth_from_lru(3, &none), Some(ChunkId(3)));
        // Saturates at the MRU end.
        assert_eq!(ch.nth_from_lru(50, &none), Some(ChunkId(4)));
    }

    #[test]
    fn old_len_counts() {
        let mut ch = ChunkChain::new();
        ch.insert_tail(ChunkId(0), 0);
        ch.insert_tail(ChunkId(1), 4);
        ch.insert_tail(ChunkId(2), 5);
        assert_eq!(ch.old_len(5), 1);
    }

    #[test]
    fn nth_from_lru_matches_the_walk() {
        let mut rng = Xoshiro256ss::new(19);
        let mut ch = ChunkChain::new();
        for round in 0..4000u64 {
            let c = ChunkId(rng.gen_range(96));
            match rng.gen_range(8) {
                0..=2 => ch.insert_tail(c, round),
                3 => ch.insert_head(c, round),
                4 | 5 => {
                    ch.remove(c);
                }
                _ => ch.touch(c, round, 1),
            }
            assert!(ch.order_consistent(), "round {round}");
            let exclude: FxHashSet<ChunkId> = (0..rng.gen_range(12))
                .map(|_| ChunkId(rng.gen_range(100)))
                .collect();
            for _ in 0..4 {
                let pos = rng.gen_range(ch.len() as u64 + 4) as usize;
                assert_eq!(
                    ch.nth_from_lru(pos, &exclude),
                    ch.nth_from_lru_walk(pos, &exclude),
                    "round {round}, pos {pos}"
                );
            }
        }
        let counts = ch.index_counts();
        assert!(counts.tail_reslots > 0 && counts.head_reslots > 0);
        assert!(counts.extra_rounds > 0);
    }

    #[test]
    fn reslot_keeps_order_and_room() {
        let mut ch = ChunkChain::new();
        for i in 0..50 {
            ch.insert_head(ChunkId(i), 0);
        }
        for i in 50..100 {
            ch.insert_tail(ChunkId(i), 0);
        }
        assert!(ch.order_consistent());
        let expect: Vec<u64> = (0..50).rev().chain(50..100).collect();
        assert_eq!(ids(ch.iter_lru()), expect);
        for (k, &c) in expect.iter().enumerate() {
            assert_eq!(ch.nth_from_lru(k, &FxHashSet::default()), Some(ChunkId(c)));
        }
        // A re-slot leaves at least len + 2 free slots at each end.
        ch.reslot();
        assert!(ch.lo as usize >= ch.len() + 2);
        assert!(ch.slots.len() - ch.hi as usize >= ch.len() + 2);
        assert!(ch.order_consistent());
    }
}
