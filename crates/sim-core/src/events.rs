//! Deterministic discrete-event queue and the calendar ring bitmap.
//!
//! [`EventQueue`] is a general min-ordered event queue: any payload, any
//! number of events per cycle, FIFO among equal cycles. The bench
//! harness replays lane cadences through it and `tests/perf_identity.rs`
//! checks it against a binary heap. The whole-GPU loop in the `gpu`
//! crate does not use it: its three event kinds run on `gpu`'s own
//! lane-indexed wake calendar, which shares this module's [`RingBitmap`]
//! and [`RING`] window. Correct *determinism* matters more than raw
//! speed in both — the reproduction must be bit-stable across runs — so
//! same-cycle events fire in strict insertion (FIFO) order.
//!
//! # Calendar-queue tiering
//!
//! Almost every event is scheduled a *small* delta ahead of the current
//! time: TLB hits (1–10 cycles), page walks (hundreds), compute bursts
//! (low hundreds). Only fault-batch round trips (tens of thousands) and
//! long DMA tails look far into the future. The queue exploits that split
//! with two tiers:
//!
//! * a **near ring** of [`RING`] (2048) per-cycle buckets covering the
//!   window `[now, now + RING)`, indexed by `at & (RING - 1)`, whose
//!   [`RingBitmap`] finds the next occupied bucket in O(1) word scans,
//!   and
//! * a **far tier**: a [`VecDeque`] of events at `now + RING` or later,
//!   sorted by cycle and FIFO among equal cycles.
//!
//! Every time `now` advances (every pop), far events whose cycle has
//! entered the window migrate from the far tier's front into the ring.
//! This maintains two invariants that make ordering trivial:
//!
//! 1. the far tier never holds an event inside the window, so any ring
//!    event fires before any far event, and
//! 2. a bucket receives its window cycle's events in push order — far
//!    events (pushed before the window reached them) drain in first, then
//!    later same-cycle pushes append FIFO.
//!
//! Most far pushes arrive in cycle order and append at the back; an
//! earlier one is inserted after every entry at or before its cycle,
//! which is its FIFO place.
//!
//! Within the window each bucket maps to exactly one absolute cycle, so
//! buckets need no per-entry timestamps. Bucket entries live in one
//! shared slab threaded by intrusive FIFO lists (per-bucket head/tail
//! indices), so pushes and pops never allocate once the slab is warm —
//! the queue's steady state is allocation-free.

use crate::time::Cycle;
use std::collections::VecDeque;

/// Near-window size in cycles: the number of buckets in a calendar
/// ring. Sized to swallow TLB/walk/compute deltas; fault-batch service
/// (≥28k cycles) overflows to a far tier.
pub const RING: u64 = 2048;
const RING_MASK: u64 = RING - 1;
/// Occupancy bitmap words (64 buckets per word).
const WORDS: usize = (RING / 64) as usize;
// The word-summary bitmap is a u32 whose circular scan is a single
// rotate; both assume exactly 32 words.
const _: () = assert!(WORDS == 32, "summary bitmap sized for RING = 2048");
/// Null slab index for the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// Which buckets of a [`RING`]-bucket calendar ring hold events: one
/// bit per bucket, plus one summary bit per non-zero 64-bucket word.
/// Bucket `at & (RING - 1)` stands for the one cycle of the window
/// `[now, now + RING)` that maps there, so the first occupied bucket in
/// circular order from `now`'s is the ring's earliest cycle.
///
/// ```
/// use sim_core::events::{RingBitmap, RING};
/// use sim_core::Cycle;
/// let mut bits = RingBitmap::new();
/// bits.set(3); // cycle RING + 3 from now = RING - 10
/// bits.set((RING - 4) as usize);
/// assert_eq!(bits.first(Cycle(RING - 10)), Some(((RING - 4) as usize, Cycle(RING - 4))));
/// bits.clear((RING - 4) as usize);
/// assert_eq!(bits.first(Cycle(RING - 10)), Some((3, Cycle(RING + 3))));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RingBitmap {
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// One bit per `occupied` word: set iff that word is non-zero.
    /// Makes the worst-case next-bucket scan one rotate + one
    /// trailing_zeros instead of a 32-word walk. `WORDS` is 32, so the
    /// whole summary fits a `u32` and circular order is a rotate.
    summary: u32,
}

impl RingBitmap {
    /// An empty ring.
    #[must_use]
    pub const fn new() -> Self {
        RingBitmap {
            occupied: [0; WORDS],
            summary: 0,
        }
    }

    /// Mark bucket `idx` occupied.
    #[inline]
    pub fn set(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    /// Mark bucket `idx` empty.
    #[inline]
    pub fn clear(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        if self.occupied[idx / 64] == 0 {
            self.summary &= !(1 << (idx / 64));
        }
    }

    /// The first occupied bucket in circular window order from `now`'s
    /// bucket, and the absolute cycle it stands for: the unique cycle
    /// in `[now, now + RING)` congruent to it mod [`RING`].
    #[inline]
    #[must_use]
    pub fn first(&self, now: Cycle) -> Option<(usize, Cycle)> {
        let idx = self.first_from((now.0 & RING_MASK) as usize)?;
        let offset = (idx as u64).wrapping_sub(now.0) & RING_MASK;
        Some((idx, Cycle(now.0 + offset)))
    }

    /// First occupied bucket in circular order starting at `start`.
    ///
    /// Two-level scan: the partial first word (bits at or after `start`),
    /// then the word-summary bitmap rotated so its LSB is the *next*
    /// word — one `trailing_zeros` replaces an up-to-32-word walk.
    /// A summary hit on the start word itself is legitimate: reaching
    /// the summary scan means the word's at-or-after bits are clear, so
    /// any remaining bits are *before* `start` — wrapped buckets, which
    /// circular order does place last.
    #[inline]
    fn first_from(&self, start: usize) -> Option<usize> {
        let (word0, bit) = (start / 64, start % 64);
        let bits = self.occupied[word0] & (u64::MAX << bit);
        if bits != 0 {
            return Some(word0 * 64 + bits.trailing_zeros() as usize);
        }
        let rot = self.summary.rotate_right(((word0 + 1) % WORDS) as u32);
        if rot == 0 {
            return None;
        }
        let word = (word0 + 1 + rot.trailing_zeros() as usize) % WORDS;
        let bits = if word == word0 {
            // Wrapped back to the start word: only its pre-`start` bits
            // remain (the at-or-after half was checked above). `bit` is
            // non-zero here — were it zero, that check covered the whole
            // word and the summary bit could not still be set.
            self.occupied[word0] & !(u64::MAX << bit)
        } else {
            self.occupied[word]
        };
        debug_assert_ne!(bits, 0, "summary bit set on empty word");
        Some(word * 64 + bits.trailing_zeros() as usize)
    }
}

/// One slab cell: an event threaded into a bucket's FIFO list, or a
/// free-list link when vacant (`event == None`).
struct Node<E> {
    event: Option<E>,
    next: u32,
}

/// A min-ordered event queue keyed by [`Cycle`], FIFO among equal cycles.
///
/// ```
/// use sim_core::{EventQueue, Cycle};
/// let mut q = EventQueue::new();
/// q.push(Cycle(10), "b");
/// q.push(Cycle(5), "a");
/// q.push(Cycle(10), "c");
/// assert_eq!(q.pop(), Some((Cycle(5), "a")));
/// assert_eq!(q.pop(), Some((Cycle(10), "b")));
/// assert_eq!(q.pop(), Some((Cycle(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// Per-bucket FIFO list heads/tails into `slab`; bucket
    /// `at & RING_MASK` holds the events for the single window cycle
    /// that maps there.
    heads: Vec<u32>,
    tails: Vec<u32>,
    /// Shared cell storage for all buckets, plus a free list.
    slab: Vec<Node<E>>,
    free: u32,
    /// The non-empty buckets.
    occupied: RingBitmap,
    /// Events scheduled at `now + RING` or later, sorted by cycle and
    /// FIFO among equal cycles.
    far: VecDeque<(Cycle, E)>,
    now: Cycle,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at [`Cycle::ZERO`].
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heads: vec![NIL; RING as usize],
            tails: vec![NIL; RING as usize],
            slab: Vec::new(),
            free: NIL,
            occupied: RingBitmap::new(),
            far: VecDeque::new(),
            now: Cycle::ZERO,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past is always a simulator bug.
    pub fn push(&mut self, at: Cycle, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        if at.0 - self.now.0 < RING {
            self.bucket_push(at, event);
        } else {
            self.far_push(at, event);
        }
    }

    /// Pop the earliest event, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Same-cycle drain: while the clock stands still the bucket `now`
        // maps to can only hold events at exactly `now` (nothing earlier
        // can exist), no far event can have entered the window, and
        // FIFO is the bucket's list order. Dense same-cycle cohorts pop
        // with one load and no bitmap scan.
        let idx_now = (self.now.0 & RING_MASK) as usize;
        if self.heads[idx_now] != NIL {
            let event = self.bucket_pop(idx_now);
            return Some((self.now, event));
        }
        if let Some((idx, at)) = self.occupied.first(self.now) {
            let event = self.bucket_pop(idx);
            self.now = at;
            self.drain_far();
            return Some((at, event));
        }
        // Ring empty: the far front is the global minimum.
        let (at, event) = self.far.pop_front()?;
        debug_assert!(at >= self.now);
        self.now = at;
        self.drain_far();
        Some((at, event))
    }

    /// Take a slab cell for `event` from the free list (or grow the slab).
    #[inline]
    fn alloc_cell(&mut self, event: E) -> u32 {
        if self.free != NIL {
            let cell = self.free;
            let node = &mut self.slab[cell as usize];
            self.free = node.next;
            node.event = Some(event);
            node.next = NIL;
            cell
        } else {
            let cell = u32::try_from(self.slab.len()).expect("slab index fits u32");
            self.slab.push(Node {
                event: Some(event),
                next: NIL,
            });
            cell
        }
    }

    /// Add `event` at far cycle `at` to the far tier, after every entry
    /// at or before `at` (its FIFO place). Completions mostly arrive in
    /// cycle order, so the common case is a plain append.
    fn far_push(&mut self, at: Cycle, event: E) {
        if self.far.back().is_none_or(|&(last, _)| last <= at) {
            self.far.push_back((at, event));
        } else {
            let pos = self.far.partition_point(|&(t, _)| t <= at);
            self.far.insert(pos, (at, event));
        }
    }

    /// Append to the bucket for window cycle `at`, marking it occupied.
    fn bucket_push(&mut self, at: Cycle, event: E) {
        let idx = (at.0 & RING_MASK) as usize;
        let cell = self.alloc_cell(event);
        if self.heads[idx] == NIL {
            self.heads[idx] = cell;
            self.occupied.set(idx);
        } else {
            self.slab[self.tails[idx] as usize].next = cell;
        }
        self.tails[idx] = cell;
    }

    /// Pop the front of bucket `idx`, clearing its bit when it empties.
    fn bucket_pop(&mut self, idx: usize) -> E {
        let cell = self.heads[idx];
        debug_assert_ne!(cell, NIL, "pop from empty bucket");
        let node = &mut self.slab[cell as usize];
        let event = node.event.take().expect("occupied cell");
        self.heads[idx] = node.next;
        node.next = self.free;
        self.free = cell;
        if self.heads[idx] == NIL {
            self.tails[idx] = NIL;
            self.occupied.clear(idx);
        }
        event
    }

    /// Migrate far events whose cycle has entered the window. Called
    /// after every advance of `now`, *before* control returns to event
    /// handlers, so drained (earlier-pushed) events land ahead of any
    /// same-cycle pushes the handlers make — preserving global FIFO.
    fn drain_far(&mut self) {
        while let Some(&(at, _)) = self.far.front() {
            if at.0 - self.now.0 >= RING {
                break;
            }
            let (at, event) = self.far.pop_front().expect("front exists");
            self.bucket_push(at, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time_then_fifo() {
        let mut q = EventQueue::new();
        q.push(Cycle(3), 30);
        q.push(Cycle(1), 10);
        q.push(Cycle(3), 31);
        q.push(Cycle(2), 20);
        q.push(Cycle(3), 32);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Cycle(1), 10),
                (Cycle(2), 20),
                (Cycle(3), 30),
                (Cycle(3), 31),
                (Cycle(3), 32)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), ());
        q.pop();
        q.push(Cycle(9), ());
    }

    #[test]
    fn same_cycle_reschedule_allowed() {
        // An event handler may schedule follow-up work at the current cycle.
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1);
        q.pop();
        q.push(Cycle(10), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 2)));
    }

    #[test]
    fn far_events_cross_the_window_boundary() {
        // An event exactly at now + RING goes far, then drains into the
        // ring once the clock reaches its window; FIFO survives the move.
        let mut q = EventQueue::new();
        q.push(Cycle(RING), 1); // far tier (boundary)
        q.push(Cycle(RING - 1), 0); // ring tier
        q.push(Cycle(RING), 2); // far tier, pushed later
        assert_eq!(q.pop(), Some((Cycle(RING - 1), 0)));
        // Drained in push order ahead of any new same-cycle push.
        q.push(Cycle(RING), 3);
        assert_eq!(q.pop(), Some((Cycle(RING), 1)));
        assert_eq!(q.pop(), Some((Cycle(RING), 2)));
        assert_eq!(q.pop(), Some((Cycle(RING), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ring_wraparound_is_ordered() {
        // Pushes that wrap the ring index (at & MASK < now & MASK) must
        // still pop in time order.
        let mut q = EventQueue::new();
        q.push(Cycle(RING - 2), 0);
        q.pop();
        q.push(Cycle(RING + 5), 2); // wraps to low bucket index
        q.push(Cycle(RING - 1), 1); // high bucket index, earlier time
        assert_eq!(q.pop(), Some((Cycle(RING - 1), 1)));
        assert_eq!(q.pop(), Some((Cycle(RING + 5), 2)));
    }

    #[test]
    fn out_of_order_far_pushes_pop_in_cycle_then_push_order() {
        // Far pushes that land before the tier's back insert mid-deque,
        // behind every entry at or before their cycle; same-cycle far
        // ties keep push order.
        let far = |d: u64| Cycle(RING + d);
        let mut q = EventQueue::new();
        for (d, e) in [
            (50, 0),
            (90, 1),
            (20, 2),
            (50, 3),
            (50, 4),
            (90, 5),
            (70, 6),
            (20, 7),
        ] {
            q.push(far(d), e);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (far(20), 2),
                (far(20), 7),
                (far(50), 0),
                (far(50), 3),
                (far(50), 4),
                (far(70), 6),
                (far(90), 1),
                (far(90), 5)
            ]
        );
    }

    #[test]
    fn ring_bitmap_scans_the_window_in_cycle_order() {
        let mut bits = RingBitmap::new();
        assert_eq!(bits.first(Cycle(5)), None);
        // Buckets before `now`'s stand for the next lap of the window.
        for idx in [4, 700, 2047] {
            bits.set(idx);
        }
        let now = Cycle(3 * RING + 700);
        assert_eq!(bits.first(now), Some((700, now)));
        bits.clear(700);
        assert_eq!(bits.first(now), Some((2047, Cycle(4 * RING - 1))));
        bits.clear(2047);
        assert_eq!(bits.first(now), Some((4, Cycle(4 * RING + 4))));
        // The same word, wrapped: bit 4 sits before `now`'s bit 10.
        assert_eq!(bits.first(Cycle(10)), Some((4, Cycle(RING + 4))));
        bits.clear(4);
        assert_eq!(bits.first(now), None);
    }

    #[test]
    fn matches_reference_heap_under_random_schedules() {
        // Model-based check: the calendar queue must pop the exact
        // (cycle, payload) sequence a plain BinaryHeap reference does,
        // including FIFO tie-breaks, under an adversarial mix of
        // short/long deltas and same-cycle reschedules.
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut q = EventQueue::new();
        let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let schedule = |q: &mut EventQueue<u64>,
                        reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                        seq: &mut u64,
                        now: u64,
                        r: u64| {
            // Mix: mostly small deltas, some at the window edge, some far.
            let delta = match r % 10 {
                0..=5 => r % 16,
                6 | 7 => 150 + r % 600,
                8 => RING - 2 + r % 4,
                // Far, in a narrow band: frequent far ties and
                // mid-deque inserts behind later far entries.
                9 if (r >> 20).is_multiple_of(2) => 28_000 + r % 4,
                _ => 28_000 + r % 7_000,
            };
            q.push(Cycle(now + delta), *seq);
            reference.push(Reverse((now + delta, *seq)));
            *seq += 1;
        };
        for _ in 0..200 {
            schedule(&mut q, &mut reference, &mut seq, 0, step());
        }
        let mut popped = 0u64;
        while let Some((t, got)) = q.pop() {
            let Reverse((rt, rseq)) = reference.pop().expect("reference pending");
            assert_eq!((t.0, got), (rt, rseq), "divergence at pop {popped}");
            popped += 1;
            // Handlers reschedule: keep the queue busy for a while.
            if popped < 5_000 {
                for _ in 0..step() % 3 {
                    schedule(&mut q, &mut reference, &mut seq, t.0, step());
                }
            }
        }
        assert!(popped >= 200);
        assert!(reference.is_empty());
    }
}
