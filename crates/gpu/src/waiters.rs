//! Per-page fault-waiter lists backed by one shared slab.
//!
//! While a far fault is in flight every warp lane stalled on the page
//! sits in that page's waiter list. Each list is an intrusive FIFO run
//! inside one slab of `(lane, next)` cells recycled through a free
//! list, so steady-state fault tracking performs no allocation once the
//! slab reaches its high-water mark.
//!
//! A run's head and tail sit in a `Vec` indexed by page number, the way
//! the page table keeps its flat array: a push or take is one
//! bounds-checked load, with no hashing. The vector grows on demand to
//! the highest page that ever waited, at 8 bytes per page, and never
//! past [`FLAT_LIMIT`]. A page at or beyond that limit — which the
//! driver refuses with a typed error, ending the run — keeps its run in
//! a short side list searched linearly, so such a page costs no memory
//! in proportion to its number.
//!
//! Wakeup order is observable (it is the order woken lanes replay and
//! enter the event queue), so runs are kept strictly FIFO: a page's
//! lanes wake in the order they arrived.

use gmmu::page_table::FLAT_LIMIT;
use gmmu::types::VirtPage;

const NIL: u32 = u32::MAX;

/// An empty run: no head, no tail.
const NO_RUN: (u32, u32) = (NIL, NIL);

/// Per-page FIFO waiter lists in a shared, free-listed slab.
#[derive(Debug, Default)]
pub struct WaiterTable {
    /// Page number → (head, tail) indices of its run in `slab`;
    /// [`NO_RUN`] for a page without waiters. Pages past the end have
    /// none.
    runs: Vec<(u32, u32)>,
    /// Runs of pages at or past [`FLAT_LIMIT`].
    far: Vec<(VirtPage, (u32, u32))>,
    /// `(lane, next)` cells; `next == NIL` terminates a run.
    slab: Vec<(u32, u32)>,
    /// Head of the free-cell list (`NIL` when empty).
    free: u32,
}

impl WaiterTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        WaiterTable {
            runs: Vec::new(),
            far: Vec::new(),
            slab: Vec::new(),
            free: NIL,
        }
    }

    fn alloc_cell(&mut self, lane: u32) -> u32 {
        if self.free != NIL {
            let idx = self.free;
            self.free = self.slab[idx as usize].1;
            self.slab[idx as usize] = (lane, NIL);
            idx
        } else {
            self.slab.push((lane, NIL));
            (self.slab.len() - 1) as u32
        }
    }

    /// The run slot of `page`, growing the table to hold it.
    #[inline]
    fn run_mut(&mut self, page: VirtPage) -> &mut (u32, u32) {
        let i = page.0 as usize;
        if i < self.runs.len() {
            return &mut self.runs[i];
        }
        self.grow(page)
    }

    #[cold]
    fn grow(&mut self, page: VirtPage) -> &mut (u32, u32) {
        if page.0 < FLAT_LIMIT {
            // Exactly to `page`, so memory is written only up to the
            // highest page that waited; the `Vec`'s amortized capacity
            // keeps re-allocations rare.
            self.runs.resize(page.0 as usize + 1, NO_RUN);
            return &mut self.runs[page.0 as usize];
        }
        let at = match self.far.iter().position(|&(p, _)| p == page) {
            Some(at) => at,
            None => {
                self.far.push((page, NO_RUN));
                self.far.len() - 1
            }
        };
        &mut self.far[at].1
    }

    /// `page`'s run, if it has waiters.
    fn run(&self, page: VirtPage) -> Option<(u32, u32)> {
        let run = match self.runs.get(page.0 as usize) {
            Some(&run) => run,
            None => self.far.iter().find(|&&(p, _)| p == page)?.1,
        };
        (run.0 != NIL).then_some(run)
    }

    /// Append `lane` to `page`'s waiter list.
    // Kept out of the event loop, as `take` is: inlined into it, both
    // measured slower on fault-storm and on the hit-only resident-112,
    // which barely calls them, so through the loop's code layout rather
    // than their own cost.
    #[inline(never)]
    pub fn push(&mut self, page: VirtPage, lane: u32) {
        let cell = self.alloc_cell(lane);
        let run = self.run_mut(page);
        if run.0 == NIL {
            *run = (cell, cell);
        } else {
            let tail = std::mem::replace(&mut run.1, cell);
            self.slab[tail as usize].1 = cell;
        }
    }

    /// Iterate `page`'s waiters in arrival order without removing them.
    pub fn lanes(&self, page: VirtPage) -> impl Iterator<Item = u32> + '_ {
        let head = self.run(page).map_or(NIL, |(h, _)| h);
        std::iter::successors((head != NIL).then_some(head), move |&c| {
            let next = self.slab[c as usize].1;
            (next != NIL).then_some(next)
        })
        .map(move |c| self.slab[c as usize].0)
    }

    /// Every page with at least one waiter, in no particular order.
    /// Scans the whole table: for observers, not the event loop.
    pub fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        let flat = (0u64..)
            .zip(&self.runs)
            .filter(|(_, run)| run.0 != NIL)
            .map(|(p, _)| VirtPage(p));
        // A far entry lives only while its page has waiters.
        flat.chain(self.far.iter().map(|&(p, _)| p))
    }

    /// Remove `page`'s waiter list, invoking `wake` on each lane in
    /// arrival order and returning the cells to the free list. Returns
    /// true if any lane was waiting.
    #[inline(never)]
    pub fn take(&mut self, page: VirtPage, mut wake: impl FnMut(u32)) -> bool {
        let (head, tail) = match self.runs.get_mut(page.0 as usize) {
            Some(slot) => std::mem::replace(slot, NO_RUN),
            None => match self.far.iter().position(|&(p, _)| p == page) {
                Some(at) => self.far.swap_remove(at).1,
                None => return false,
            },
        };
        if head == NIL {
            return false;
        }
        let mut cell = head;
        loop {
            let (lane, next) = self.slab[cell as usize];
            wake(lane);
            if cell == tail {
                break;
            }
            cell = next;
        }
        // Splice the whole run onto the free list in one link update.
        self.slab[tail as usize].1 = self.free;
        self.free = head;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::rng::Xoshiro256ss;
    use sim_core::FxHashMap;

    fn drain(t: &mut WaiterTable, page: VirtPage) -> Vec<u32> {
        let mut out = Vec::new();
        t.take(page, |l| out.push(l));
        out
    }

    #[test]
    fn fifo_per_page() {
        let mut t = WaiterTable::new();
        t.push(VirtPage(1), 10);
        t.push(VirtPage(2), 99);
        t.push(VirtPage(1), 11);
        t.push(VirtPage(1), 12);
        assert_eq!(drain(&mut t, VirtPage(1)), vec![10, 11, 12]);
        assert_eq!(drain(&mut t, VirtPage(2)), vec![99]);
        assert_eq!(drain(&mut t, VirtPage(1)), Vec::<u32>::new());
    }

    #[test]
    fn lanes_peeks_without_removing() {
        let mut t = WaiterTable::new();
        t.push(VirtPage(7), 1);
        t.push(VirtPage(7), 2);
        assert_eq!(t.lanes(VirtPage(7)).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(t.lanes(VirtPage(8)).count(), 0);
        assert_eq!(drain(&mut t, VirtPage(7)), vec![1, 2]);
    }

    #[test]
    fn cells_are_recycled() {
        let mut t = WaiterTable::new();
        for round in 0..100u32 {
            for lane in 0..8 {
                t.push(VirtPage(u64::from(round % 3)), round * 8 + lane);
            }
            let got = drain(&mut t, VirtPage(u64::from(round % 3)));
            assert_eq!(got.len(), 8);
            assert!(got.windows(2).all(|w| w[0] < w[1]), "FIFO broken: {got:?}");
        }
        // 8 concurrent waiters max → the slab never grows past one round.
        assert!(t.slab.len() <= 8, "slab grew to {}", t.slab.len());
    }

    #[test]
    fn interleaved_pages_keep_their_own_order() {
        let mut t = WaiterTable::new();
        for i in 0..50u32 {
            t.push(VirtPage(u64::from(i % 5)), i);
        }
        for p in 0..5u64 {
            let got = drain(&mut t, VirtPage(p));
            let want: Vec<u32> = (0..50).filter(|i| u64::from(i % 5) == p).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn far_pages_never_grow_the_table() {
        let mut t = WaiterTable::new();
        let far = [
            VirtPage(FLAT_LIMIT),
            VirtPage(1 << 40),
            VirtPage(u64::MAX - 1),
        ];
        t.push(VirtPage(FLAT_LIMIT - 1), 0);
        for (lane, &p) in (1..).zip(&far) {
            t.push(p, lane);
            t.push(p, lane + 10);
        }
        assert_eq!(t.runs.len(), FLAT_LIMIT as usize);
        let mut pages: Vec<_> = t.pages().collect();
        pages.sort_unstable();
        assert_eq!(pages[0], VirtPage(FLAT_LIMIT - 1));
        assert_eq!(pages[1..], far);
        assert_eq!(t.lanes(far[1]).collect::<Vec<_>>(), vec![2, 12]);
        assert_eq!(drain(&mut t, far[1]), vec![2, 12]);
        assert!(!t.take(far[1], |_| panic!("no waiters left")));
        assert_eq!(drain(&mut t, far[2]), vec![3, 13]);
        assert_eq!(drain(&mut t, far[0]), vec![1, 11]);
        assert!(t.far.is_empty());
        assert_eq!(t.runs.len(), FLAT_LIMIT as usize);
    }

    /// Random push/take streams against a hashed `Vec` per page: every
    /// wake order, `lanes` answer and `pages` set must agree. Pages
    /// rise through the run so the table re-sizes several times, and a
    /// few land past `FLAT_LIMIT`.
    #[test]
    fn matches_a_hashed_reference() {
        for seed in 0..8u64 {
            let mut rng = Xoshiro256ss::new(0x5EED_0000 + seed);
            let mut t = WaiterTable::new();
            let mut model: FxHashMap<VirtPage, Vec<u32>> = FxHashMap::default();
            let (mut lane, mut resizes, mut len) = (0u32, 0, 0);
            let (mut empty_takes, mut past_end_takes) = (0, 0);
            for op in 0..20_000u64 {
                let r = rng.next_u64();
                // The page range widens as the stream goes on.
                let span = 16 + op * 4;
                let page = match r % 64 {
                    0 => VirtPage(FLAT_LIMIT + (r >> 8) % 4 * (1 << 30)),
                    1 => VirtPage(u64::MAX - 1),
                    _ => VirtPage((r >> 8) % span),
                };
                if (r >> 40).is_multiple_of(3) {
                    let mut got = Vec::new();
                    if page.0 as usize >= t.runs.len() && page.0 < FLAT_LIMIT {
                        past_end_takes += 1;
                    }
                    let any = t.take(page, |l| got.push(l));
                    let want = model.remove(&page).unwrap_or_default();
                    empty_takes += u32::from(want.is_empty());
                    assert_eq!(any, !want.is_empty(), "seed {seed} op {op}");
                    assert_eq!(got, want, "seed {seed} op {op}: {page:?}");
                } else {
                    t.push(page, lane);
                    model.entry(page).or_default().push(lane);
                    lane += 1;
                }
                if t.runs.len() != len {
                    resizes += 1;
                    len = t.runs.len();
                }
                if op % 500 == 0 {
                    let mut got: Vec<_> = t.pages().collect();
                    let mut want: Vec<_> = model.keys().copied().collect();
                    got.sort_unstable();
                    want.sort_unstable();
                    assert_eq!(got, want, "seed {seed} op {op}: pages");
                    for (&p, lanes) in &model {
                        assert!(t.lanes(p).eq(lanes.iter().copied()), "{p:?}");
                    }
                }
            }
            assert!(resizes >= 4, "seed {seed}: {resizes} re-sizes");
            assert!(empty_takes > 100 && past_end_takes > 10, "seed {seed}");
            assert!(t.runs.len() <= FLAT_LIMIT as usize);
        }
    }
}
