//! Deterministic discrete-event queue.
//!
//! The whole-GPU simulator in the `gpu` crate is a classic discrete-event
//! simulation: SM lane wakeups, page-table-walk completions, fault-batch
//! service completions and PCIe transfer completions are all events with a
//! firing timestamp. Correct *determinism* matters more than raw speed
//! here — the reproduction must be bit-stable across runs — so same-cycle
//! events fire in strict insertion (FIFO) order via a monotone sequence
//! number tie-break.
//!
//! # Calendar-queue tiering
//!
//! Almost every event is scheduled a *small* delta ahead of the current
//! time: TLB hits (1–10 cycles), page walks (hundreds), compute bursts
//! (low hundreds). Only fault-batch round trips (tens of thousands) and
//! long DMA tails look far into the future. The queue exploits that split
//! with two tiers:
//!
//! * a **near ring** of `RING` (2048) per-cycle buckets covering the window
//!   `[now, now + RING)`, indexed by `at & (RING - 1)` with a bitmap for
//!   O(words) next-bucket scans, and
//! * a **far heap** ([`BinaryHeap`]) for events at `now + RING` or later.
//!
//! Every time `now` advances (every pop), far events whose cycle has
//! entered the window migrate into the ring in `(at, seq)` heap order.
//! This maintains two invariants that make ordering trivial:
//!
//! 1. the far heap never holds an event inside the window, so any ring
//!    event fires before any far event, and
//! 2. a bucket receives its window cycle's events in seq order — far
//!    events (older seqs, pushed before the window reached them) drain in
//!    first, then later same-cycle pushes append FIFO.
//!
//! Within the window each bucket maps to exactly one absolute cycle, so
//! buckets need no per-entry timestamps. Bucket entries live in one
//! shared slab threaded by intrusive FIFO lists (per-bucket head/tail
//! indices), so pushes and pops never allocate once the slab is warm —
//! the queue's steady state is allocation-free.

use crate::time::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Near-window size in cycles. Must be a power of two. Sized to swallow
/// TLB/walk/compute deltas; fault-batch service (≥28k cycles) overflows
/// to the far heap, which is fine — there are only dozens of batches.
const RING: u64 = 2048;
const RING_MASK: u64 = RING - 1;
/// Occupancy bitmap words (64 buckets per word).
const WORDS: usize = (RING / 64) as usize;
// The word-summary bitmap is a u32 whose circular scan is a single
// rotate; both assume exactly 32 words.
const _: () = assert!(WORDS == 32, "summary bitmap sized for RING = 2048");
/// Null slab index for the intrusive bucket lists.
const NIL: u32 = u32::MAX;

/// One slab cell: an event threaded into a bucket's FIFO list, or a
/// free-list link when vacant (`event == None`).
struct Node<E> {
    event: Option<E>,
    next: u32,
}

struct Entry<E> {
    at: Cycle,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // cycle, the first-inserted) entry is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
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
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// One bit per `occupied` word: set iff that word is non-zero.
    /// Makes the worst-case next-bucket scan one rotate + one
    /// trailing_zeros instead of a 32-word walk. `WORDS` is 32, so the
    /// whole summary fits a `u32` and circular order is a rotate.
    summary: u32,
    /// Events scheduled at `now + RING` or later, plus their seqs.
    far: BinaryHeap<Entry<E>>,
    ring_len: usize,
    next_seq: u64,
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
            occupied: [0; WORDS],
            summary: 0,
            far: BinaryHeap::new(),
            ring_len: 0,
            next_seq: 0,
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
        let seq = self.next_seq;
        self.next_seq += 1;
        if at.0 - self.now.0 < RING {
            self.bucket_push(at, event);
        } else {
            self.far.push(Entry { at, seq, event });
        }
    }

    /// Schedule `event` to fire `delta` cycles from the current time.
    pub fn push_after(&mut self, delta: u64, event: E) {
        self.push(self.now.after(delta), event);
    }

    /// Schedule a batch of events all firing at `at`, in iterator order
    /// (FIFO-equivalent to pushing them one by one). The tier check,
    /// bucket index and occupancy-bit updates are paid once per batch
    /// instead of once per event — the bulk path for barrier releases
    /// and fault-completion lane wakes, which are always same-cycle.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the time of the last popped event.
    pub fn push_n<I: IntoIterator<Item = E>>(&mut self, at: Cycle, events: I) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        if at.0 - self.now.0 >= RING {
            for event in events {
                let seq = self.next_seq;
                self.next_seq += 1;
                self.far.push(Entry { at, seq, event });
            }
            return;
        }
        let idx = (at.0 & RING_MASK) as usize;
        let mut tail = self.tails[idx];
        let mut n = 0u64;
        for event in events {
            let cell = self.alloc_cell(event);
            if tail == NIL {
                self.heads[idx] = cell;
            } else {
                self.slab[tail as usize].next = cell;
            }
            tail = cell;
            n += 1;
        }
        if n == 0 {
            return;
        }
        self.tails[idx] = tail;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
        self.ring_len += n as usize;
        self.next_seq += n;
    }

    /// Pop the earliest event, advancing the queue's notion of "now".
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        // Same-cycle drain: while the clock stands still the bucket `now`
        // maps to can only hold events at exactly `now` (nothing earlier
        // can exist), the far heap cannot have entered the window, and
        // FIFO is the bucket's list order. Dense cohorts — barrier
        // releases, batch-completion wakes, same-cycle reschedules — pop
        // with one load and no bitmap scan.
        let idx_now = (self.now.0 & RING_MASK) as usize;
        if self.heads[idx_now] != NIL {
            let event = self.bucket_pop(idx_now);
            return Some((self.now, event));
        }
        if self.ring_len > 0 {
            let idx = self.next_bucket().expect("ring_len > 0 has a bucket");
            let at = self.bucket_cycle(idx);
            let event = self.bucket_pop(idx);
            debug_assert!(at >= self.now);
            self.now = at;
            self.drain_far();
            return Some((at, event));
        }
        // Ring empty: the far minimum is the global minimum (heap order
        // breaks same-cycle ties by seq).
        let entry = self.far.pop()?;
        debug_assert!(entry.at >= self.now);
        self.now = entry.at;
        self.drain_far();
        Some((entry.at, entry.event))
    }

    /// Timestamp of the next event without popping it.
    #[must_use]
    pub fn peek_time(&self) -> Option<Cycle> {
        // Mirror of `pop`'s same-cycle fast path.
        if self.heads[(self.now.0 & RING_MASK) as usize] != NIL {
            return Some(self.now);
        }
        if self.ring_len > 0 {
            // Ring events always precede far events (invariant: the far
            // heap holds nothing inside the window).
            return self.next_bucket().map(|idx| self.bucket_cycle(idx));
        }
        self.far.peek().map(|e| e.at)
    }

    /// Simulated time of the most recently popped event.
    #[must_use]
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ring_len + self.far.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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

    /// Append to the bucket for window cycle `at`, marking it occupied.
    fn bucket_push(&mut self, at: Cycle, event: E) {
        let idx = (at.0 & RING_MASK) as usize;
        let cell = self.alloc_cell(event);
        if self.heads[idx] == NIL {
            self.heads[idx] = cell;
        } else {
            self.slab[self.tails[idx] as usize].next = cell;
        }
        self.tails[idx] = cell;
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
        self.ring_len += 1;
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
            self.occupied[idx / 64] &= !(1 << (idx % 64));
            if self.occupied[idx / 64] == 0 {
                self.summary &= !(1 << (idx / 64));
            }
        }
        self.ring_len -= 1;
        event
    }

    /// Absolute cycle of occupied bucket `idx`: the unique cycle in
    /// `[now, now + RING)` congruent to `idx` mod `RING`.
    fn bucket_cycle(&self, idx: usize) -> Cycle {
        let offset = (idx as u64).wrapping_sub(self.now.0) & RING_MASK;
        Cycle(self.now.0 + offset)
    }

    /// First occupied bucket in circular window order starting at `start`.
    ///
    /// Two-level scan: the partial first word (bits at or after `start`),
    /// then the word-summary bitmap rotated so its LSB is the *next*
    /// word — one `trailing_zeros` replaces the old up-to-32-word walk.
    /// A summary hit on the start word itself is legitimate: reaching
    /// the summary scan means the word's at-or-after bits are clear, so
    /// any remaining bits are *before* `start` — wrapped buckets, which
    /// circular order does place last.
    fn next_occupied_from(&self, start: usize) -> Option<usize> {
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

    fn next_bucket(&self) -> Option<usize> {
        self.next_occupied_from((self.now.0 & RING_MASK) as usize)
    }

    /// Migrate far events whose cycle has entered the window. Called
    /// after every advance of `now`, *before* control returns to event
    /// handlers, so drained (older-seq) events land ahead of any
    /// same-cycle pushes the handlers make — preserving global FIFO.
    fn drain_far(&mut self) {
        while let Some(top) = self.far.peek() {
            if top.at.0 - self.now.0 >= RING {
                break;
            }
            let entry = self.far.pop().expect("peeked");
            self.bucket_push(entry.at, entry.event);
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
    fn now_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(Cycle(7), ());
        assert_eq!(q.now(), Cycle::ZERO);
        q.pop();
        assert_eq!(q.now(), Cycle(7));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 1);
        q.pop();
        q.push_after(5, 2);
        assert_eq!(q.pop(), Some((Cycle(15), 2)));
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
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Cycle(1), ());
        q.push(Cycle(2), ());
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.push(Cycle(4), ());
        assert_eq!(q.peek_time(), Some(Cycle(4)));
        assert_eq!(q.now(), Cycle::ZERO);
    }

    #[test]
    fn large_interleaved_workload_stays_sorted() {
        // Deterministic pseudo-random schedule; ensures queue discipline
        // under thousands of events spanning both tiers.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.push(Cycle(x % 10_000), i);
        }
        let mut last = Cycle::ZERO;
        let mut n = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last);
            last = t;
            n += 1;
        }
        assert_eq!(n, 5000);
    }

    #[test]
    fn far_events_cross_the_window_boundary() {
        // An event exactly at now + RING goes far, then drains into the
        // ring once the clock reaches its window; FIFO survives the move.
        let mut q = EventQueue::new();
        q.push(Cycle(RING), 1); // far tier (boundary)
        q.push(Cycle(RING - 1), 0); // ring tier
        q.push(Cycle(RING), 2); // far tier, later seq
        assert_eq!(q.pop(), Some((Cycle(RING - 1), 0)));
        // Drained in seq order ahead of any new same-cycle push.
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
    fn push_n_is_fifo_equivalent_to_serial_pushes() {
        // Near tier: a batch interleaved with singles pops in exactly
        // push order among equal cycles.
        let mut q = EventQueue::new();
        q.push(Cycle(5), 0);
        q.push_n(Cycle(5), [1, 2, 3]);
        q.push(Cycle(5), 4);
        q.push_n(Cycle(5), std::iter::empty::<i32>());
        q.push_n(Cycle(2), [10]);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Cycle(2), 10),
                (Cycle(5), 0),
                (Cycle(5), 1),
                (Cycle(5), 2),
                (Cycle(5), 3),
                (Cycle(5), 4)
            ]
        );
    }

    #[test]
    fn push_n_far_tier_keeps_order_across_the_window() {
        // Far tier: batch seqs stay monotone with surrounding singles, so
        // the drain into the ring preserves global FIFO.
        let mut q = EventQueue::new();
        q.push(Cycle(RING + 7), 0);
        q.push_n(Cycle(RING + 7), [1, 2]);
        q.push(Cycle(RING + 7), 3);
        q.push(Cycle(1), 100);
        assert_eq!(q.pop(), Some((Cycle(1), 100)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            vec![
                (Cycle(RING + 7), 0),
                (Cycle(RING + 7), 1),
                (Cycle(RING + 7), 2),
                (Cycle(RING + 7), 3)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn push_n_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), ());
        q.pop();
        q.push_n(Cycle(9), [()]);
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
        let mut pending = 0usize;
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
                _ => 28_000 + r % 7_000,
            };
            if (r >> 34).is_multiple_of(8) {
                // Bulk same-cycle push via push_n — must interleave with
                // singles exactly as serial pushes would.
                let n = 2 + (r >> 40) % 3;
                let base = *seq;
                q.push_n(Cycle(now + delta), (0..n).map(|i| base + i));
                for i in 0..n {
                    reference.push(Reverse((now + delta, base + i)));
                }
                *seq += n;
                return n as usize;
            }
            q.push(Cycle(now + delta), *seq);
            reference.push(Reverse((now + delta, *seq)));
            *seq += 1;
            1
        };
        for _ in 0..200 {
            pending += schedule(&mut q, &mut reference, &mut seq, 0, step());
        }
        let mut popped = 0u64;
        while pending > 0 {
            let (t, got) = q.pop().expect("pending events");
            let Reverse((rt, rseq)) = reference.pop().expect("reference pending");
            assert_eq!((t.0, got), (rt, rseq), "divergence at pop {popped}");
            pending -= 1;
            popped += 1;
            // Handlers reschedule: keep the queue busy for a while.
            if popped < 5_000 {
                let n = step() % 3;
                for _ in 0..n {
                    pending += schedule(&mut q, &mut reference, &mut seq, t.0, step());
                }
            }
        }
        assert!(popped >= 200);
        assert!(q.is_empty());
    }
}
