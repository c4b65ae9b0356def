//! Highly-threaded page-table walker.
//!
//! Table I: "supporting 64 concurrent walks, traversing 4-level page
//! table". The walker owns 64 walk slots; a walk issued while all slots
//! are busy queues behind the earliest-finishing slot (this is what makes
//! fault storms expensive even before the 20 µs far-fault cost).
//!
//! Walk latency model: one page-walk-cache pass
//! ([`WalkCache::walk`]), then one memory reference per level that the
//! PWC could not skip. A PWC hit on the level-*k* node skips the
//! references for levels > *k* and leaves *k − 1* references (down to
//! and including the leaf PTE), so a walk makes exactly one more memory
//! reference than it has PWC misses.
//!
//! Slot free times live in a `SlotRing`: a ring kept in ascending
//! order, so the earliest-free slot is the front and a completion time
//! is inserted by shifting from the back. Walks mostly complete in issue
//! order, so the insert is usually a single store.

use crate::page_table::{PageTable, Residency};
use crate::types::VirtPage;
use crate::walk_cache::WalkCache;
use sim_core::stats::Counter;
use sim_core::time::Cycle;

/// Walker timing/shape parameters.
#[derive(Debug, Clone, Copy)]
pub struct WalkerConfig {
    /// Concurrent walk slots (Table I: 64).
    pub concurrency: usize,
    /// Cycles per page-table memory reference (PWC miss path). Models an
    /// L2-cache/DRAM access for one node of the radix tree.
    pub memory_ref_latency: u64,
}

impl Default for WalkerConfig {
    fn default() -> Self {
        WalkerConfig {
            concurrency: 64,
            memory_ref_latency: 150,
        }
    }
}

/// Result of one walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkOutcome {
    /// Absolute time the walk left the slot queue and started
    /// traversing (`complete_at - started_at` is pure service time,
    /// `started_at - issue` is slot queueing).
    pub started_at: Cycle,
    /// Absolute time the walk finishes (slot queueing included).
    pub complete_at: Cycle,
    /// What the leaf PTE said.
    pub residency: Residency,
}

/// Free times of the walk slots, ascending from `head` around the ring.
///
/// Only the multiset of free times is observable — a walk starts at
/// `max(earliest, now)` and frees its slot at completion — so taking
/// the front and inserting the completion in order behaves exactly as
/// a min-heap of free times, for any sequence of issue times.
#[derive(Debug)]
struct SlotRing {
    free: Vec<Cycle>,
    head: usize,
}

impl SlotRing {
    fn new(slots: usize) -> Self {
        SlotRing {
            free: vec![Cycle::ZERO; slots],
            head: 0,
        }
    }

    /// Occupy the earliest-free slot for a walk issued at `now` that
    /// takes `service` cycles. Returns its start and completion times.
    #[inline]
    fn issue(&mut self, now: Cycle, service: u64) -> (Cycle, Cycle) {
        let n = self.free.len();
        let start = self.free[self.head].max(now);
        let done = start.after(service);
        // The front leaves; its word becomes the back. Shift later free
        // times back one word until `done` is in order.
        let mut back = self.head;
        self.head = if back + 1 == n { 0 } else { back + 1 };
        while back != self.head {
            let prev = if back == 0 { n - 1 } else { back - 1 };
            if self.free[prev] <= done {
                break;
            }
            self.free[back] = self.free[prev];
            back = prev;
        }
        self.free[back] = done;
        (start, done)
    }
}

/// The shared walker.
#[derive(Debug)]
pub struct Walker {
    memory_ref_latency: u64,
    slots: SlotRing,
    /// Total walks issued.
    pub walks: Counter,
    /// Walks that found the page non-resident (→ far fault).
    pub faulting_walks: Counter,
}

impl Walker {
    /// Build a walker.
    ///
    /// # Panics
    /// Panics if `concurrency` is zero.
    #[must_use]
    pub fn new(cfg: WalkerConfig) -> Self {
        assert!(cfg.concurrency > 0, "walker needs at least one slot");
        Walker {
            memory_ref_latency: cfg.memory_ref_latency,
            slots: SlotRing::new(cfg.concurrency),
            walks: Counter::default(),
            faulting_walks: Counter::default(),
        }
    }

    /// Issue a walk for `page` at time `now`.
    ///
    /// Makes one PWC pass (probe, then fill the walked path), reads
    /// residency from the page table, and accounts slot contention.
    pub fn walk(
        &mut self,
        page: VirtPage,
        now: Cycle,
        pwc: &mut WalkCache,
        pt: &PageTable,
    ) -> WalkOutcome {
        self.walks.inc();
        let refs = u64::from(pwc.walk(page) - 1);
        let service = pwc.hit_latency() + refs * self.memory_ref_latency;
        let (started_at, complete_at) = self.slots.issue(now, service);

        let residency = pt.residency(page);
        if residency == Residency::NotResident {
            self.faulting_walks.inc();
        }
        WalkOutcome {
            started_at,
            complete_at,
            residency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Frame;

    fn setup() -> (Walker, WalkCache, PageTable) {
        (
            Walker::new(WalkerConfig::default()),
            WalkCache::table1_default(),
            PageTable::new(),
        )
    }

    #[test]
    fn cold_walk_costs_four_refs() {
        let (mut w, mut pwc, pt) = setup();
        let out = w.walk(VirtPage(0), Cycle::ZERO, &mut pwc, &pt);
        // PWC probe (10) + 4 memory refs (4 * 150).
        assert_eq!(out.complete_at, Cycle(10 + 4 * 150));
        assert_eq!(out.residency, Residency::NotResident);
        assert_eq!(w.faulting_walks.get(), 1);
    }

    #[test]
    fn warm_walk_costs_one_ref() {
        let (mut w, mut pwc, pt) = setup();
        w.walk(VirtPage(0), Cycle::ZERO, &mut pwc, &pt);
        // Neighbouring page shares the level-2 node → 1 ref for the PTE.
        let out = w.walk(VirtPage(1), Cycle(1000), &mut pwc, &pt);
        assert_eq!(out.complete_at, Cycle(1000 + 10 + 150));
    }

    #[test]
    fn resident_page_reports_frame() {
        let (mut w, mut pwc, mut pt) = setup();
        pt.map(VirtPage(3), Frame(42), true);
        let out = w.walk(VirtPage(3), Cycle::ZERO, &mut pwc, &pt);
        assert_eq!(out.residency, Residency::Resident(Frame(42)));
        assert_eq!(w.faulting_walks.get(), 0);
    }

    #[test]
    fn slot_contention_queues_walks() {
        let mut w = Walker::new(WalkerConfig {
            concurrency: 1,
            memory_ref_latency: 100,
        });
        let mut pwc = WalkCache::table1_default();
        let pt = PageTable::new();
        let a = w.walk(VirtPage(0), Cycle::ZERO, &mut pwc, &pt);
        assert_eq!(a.started_at, Cycle::ZERO, "first walk starts at once");
        // Second walk issued at t=0 must wait for the single slot. It is
        // warm (shares the L2 node), so service = 10 + 100.
        let b = w.walk(VirtPage(1), Cycle::ZERO, &mut pwc, &pt);
        assert_eq!(b.started_at, a.complete_at, "queued behind the slot");
        assert_eq!(b.complete_at, a.complete_at.after(10 + 100));
    }

    #[test]
    fn many_slots_overlap() {
        let mut w = Walker::new(WalkerConfig {
            concurrency: 64,
            memory_ref_latency: 100,
        });
        let mut pwc = WalkCache::table1_default();
        let pt = PageTable::new();
        // 64 cold-ish walks at t=0 all start immediately.
        let outs: Vec<_> = (0..64)
            .map(|i| w.walk(VirtPage(i << 27), Cycle::ZERO, &mut pwc, &pt))
            .collect();
        let max = outs.iter().map(|o| o.complete_at).max().unwrap();
        // All independent: none should queue behind another, so the max
        // completion is a single walk's service time.
        assert_eq!(max, Cycle(10 + 4 * 100));
    }

    /// The ring must hand out the same start times as the min-heap of
    /// free times it replaced, for any issue order: issue times jump
    /// back and forth and walks take 1–4 references, so completions
    /// leave issue order and the insert shifts across the wrap.
    #[test]
    fn slot_ring_matches_heap_oracle() {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        for slots in [1, 2, 64] {
            let mut ring = SlotRing::new(slots);
            let mut heap: BinaryHeap<Reverse<Cycle>> =
                (0..slots).map(|_| Reverse(Cycle::ZERO)).collect();
            let (mut x, mut base) = (0xA076_1D64_78BD_642F_u64 ^ slots as u64, 0u64);
            for step in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // A drifting base with issue times up to 2000 cycles
                // either side of it.
                base += (x >> 54) % 64;
                let now = Cycle((base + (x >> 20) % 4000).saturating_sub(2000));
                let service = 10 + (1 + (x >> 8) % 4) * 150;
                let Reverse(free_at) = heap.pop().expect("heap has slots");
                let start = free_at.max(now);
                heap.push(Reverse(start.after(service)));
                assert_eq!(
                    ring.issue(now, service),
                    (start, start.after(service)),
                    "{slots} slots, step {step}"
                );
            }
            let mut want: Vec<Cycle> = heap.into_iter().map(|Reverse(c)| c).collect();
            want.sort_unstable();
            let got: Vec<Cycle> = (0..slots)
                .map(|i| ring.free[(ring.head + i) % slots])
                .collect();
            assert_eq!(got, want, "{slots} slots: final free times");
        }
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_panics() {
        let _ = Walker::new(WalkerConfig {
            concurrency: 0,
            memory_ref_latency: 1,
        });
    }
}
