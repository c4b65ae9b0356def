//! Per-page fault-waiter lists backed by one shared slab.
//!
//! While a far fault is in flight every warp lane stalled on the page
//! sits in a waiter list keyed by [`VirtPage`]. The obvious
//! `FxHashMap<VirtPage, Vec<u32>>` allocates a fresh `Vec` per faulted
//! page — millions of short-lived allocations over a run. Here each
//! page's waiters form an intrusive FIFO run inside one slab of
//! `(lane, next)` cells recycled through a free list, so steady-state
//! fault tracking performs no allocation at all once the slab and the
//! head/tail map reach their high-water marks.
//!
//! Wakeup order is observable (it fixes the order replay events enter
//! the event queue, and therefore their sequence numbers), so runs are
//! kept strictly FIFO — identical to the `Vec` push order they replace.

use gmmu::types::VirtPage;
use sim_core::FxHashMap;

const NIL: u32 = u32::MAX;

/// Per-page FIFO waiter lists in a shared, free-listed slab.
#[derive(Debug, Default)]
pub struct WaiterTable {
    /// Page → (head, tail) indices of its run in `slab`.
    runs: FxHashMap<VirtPage, (u32, u32)>,
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
            runs: FxHashMap::default(),
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

    /// Append `lane` to `page`'s waiter list.
    pub fn push(&mut self, page: VirtPage, lane: u32) {
        let cell = self.alloc_cell(lane);
        match self.runs.get_mut(&page) {
            Some((_, tail)) => {
                self.slab[*tail as usize].1 = cell;
                *tail = cell;
            }
            None => {
                self.runs.insert(page, (cell, cell));
            }
        }
    }

    /// Iterate `page`'s waiters in arrival order without removing them.
    pub fn lanes(&self, page: VirtPage) -> impl Iterator<Item = u32> + '_ {
        let head = self.runs.get(&page).map_or(NIL, |&(h, _)| h);
        std::iter::successors((head != NIL).then_some(head), move |&c| {
            let next = self.slab[c as usize].1;
            (next != NIL).then_some(next)
        })
        .map(move |c| self.slab[c as usize].0)
    }

    /// Every page with at least one waiter, in no particular order.
    pub fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.runs.keys().copied()
    }

    /// Remove `page`'s waiter list, invoking `wake` on each lane in
    /// arrival order and returning the cells to the free list. Returns
    /// true if any lane was waiting.
    pub fn take(&mut self, page: VirtPage, mut wake: impl FnMut(u32)) -> bool {
        let Some((head, tail)) = self.runs.remove(&page) else {
            return false;
        };
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
}
