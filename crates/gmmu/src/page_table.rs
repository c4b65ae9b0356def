//! The 4-level radix page table.
//!
//! The walker traverses four levels (Table I: "traversing 4-level page
//! table", x86-64-style 9-bit radix per level). The table serves two
//! roles in the simulator:
//!
//! 1. **Residency store** — the authoritative map from [`VirtPage`] to
//!    GPU [`Frame`] (or *not resident*, which triggers a far fault).
//! 2. **Walk topology** — which intermediate nodes exist, so the walker
//!    and the page-walk cache can be exercised with realistic locality
//!    (two pages sharing an L3 node share its cached entry).
//!
//! # Flat indexing
//!
//! Residency is probed on *every* simulated access (TLB fill checks,
//! prefetch planning, fault coalescing), so the store is a flat
//! direct-indexed array over the workload's page range rather than a
//! hash map: `slots[page]` packs frame + present + touched into one
//! `u64`, giving branch-light O(1) probes with no hashing. Workload
//! address spaces are dense and start at page 0, so the array tracks the
//! highest mapped page (geometric growth). Pathological sparse pages at
//! or beyond [`FLAT_LIMIT`] — synthetic far-apart addresses some tests
//! use — fall back to a spill hash map so the array can never balloon.
//!
//! Each resident page additionally carries a **TLB presence mask** (one
//! bit per TLB in the hierarchy, maintained by `TranslationPath`), so an
//! eviction's shootdown visits only the TLBs that actually hold the
//! page, and a translation scans only the TLBs whose bit is set,
//! instead of scanning every way of every SM's L1.

use crate::types::{Frame, VirtPage};
use sim_core::FxHashMap;

/// Levels of the radix tree (root = level 4, leaf PTE = level 1).
pub const LEVELS: u32 = 4;
/// Radix bits per level.
pub const BITS_PER_LEVEL: u32 = 9;

/// Pages at or above this index live in the spill map instead of the
/// flat array. 4 Mi pages = 16 GiB of 4 KB pages — beyond any modelled
/// device memory, so real workload pages never spill.
pub const FLAT_LIMIT: u64 = 1 << 22;

const PRESENT: u64 = 1 << 32;
const TOUCHED: u64 = 1 << 33;

/// Residency state of one virtual page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residency {
    /// Never migrated, or currently evicted to host memory.
    NotResident,
    /// Present in GPU memory at the given frame.
    Resident(Frame),
}

/// Identifier of an intermediate page-table node: `(level, index prefix)`.
///
/// The prefix is the VPN shifted so that two pages mapped by the same
/// node at that level produce the same `NodeId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId {
    /// 4 = root's children ... 2 = the node holding leaf PTE pointers.
    pub level: u32,
    /// VPN >> (9 * (level - 1)).
    pub prefix: u64,
}

/// Node id covering `page` at `level` (level in 2..=4; level 1 is the PTE
/// itself and is never cached by the page-walk cache).
#[must_use]
pub fn node_for(page: VirtPage, level: u32) -> NodeId {
    debug_assert!((2..=LEVELS).contains(&level));
    NodeId {
        level,
        prefix: page.0 >> (BITS_PER_LEVEL * (level - 1)),
    }
}

#[derive(Debug, Clone, Copy)]
struct SpillEntry {
    frame: Frame,
    touched: bool,
    tlb_mask: u64,
}

/// The page table: residency map plus touch bits.
///
/// Touch bits model the hardware *access* bits the driver reads from the
/// GPU page table when it processes an eviction — the mechanism MHPE
/// relies on to compute untouch levels without extra GPU→CPU interrupts
/// (see DESIGN.md substitution table).
#[derive(Debug, Default)]
pub struct PageTable {
    /// Packed per-page slots: bits 0..32 frame, bit 32 present, bit 33
    /// touched. Indexed directly by page number below [`FLAT_LIMIT`].
    slots: Vec<u64>,
    /// TLB presence masks, parallel to `slots` (see module docs).
    masks: Vec<u64>,
    /// Sparse pages at or beyond [`FLAT_LIMIT`].
    spill: FxHashMap<VirtPage, SpillEntry>,
    resident: usize,
}

impl PageTable {
    /// Empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slot(&self, page: VirtPage) -> u64 {
        *self.slots.get(page.0 as usize).unwrap_or(&0)
    }

    /// Residency of `page`.
    #[inline]
    #[must_use]
    pub fn residency(&self, page: VirtPage) -> Residency {
        if page.0 < FLAT_LIMIT {
            let s = self.slot(page);
            if s & PRESENT != 0 {
                Residency::Resident(Frame(s as u32))
            } else {
                Residency::NotResident
            }
        } else {
            match self.spill.get(&page) {
                Some(e) => Residency::Resident(e.frame),
                None => Residency::NotResident,
            }
        }
    }

    /// Frame of `page`, which a TLB holds and so is resident: the TLB
    /// hit path's frame read, without [`residency`](PageTable::residency)'s
    /// not-resident branch.
    #[inline]
    pub(crate) fn tlb_frame(&self, page: VirtPage) -> Frame {
        debug_assert!(self.is_resident(page), "TLB holds a non-resident page");
        if page.0 < FLAT_LIMIT {
            Frame(self.slots[page.0 as usize] as u32)
        } else {
            self.spill[&page].frame
        }
    }

    /// True if `page` is resident.
    #[inline]
    #[must_use]
    pub fn is_resident(&self, page: VirtPage) -> bool {
        if page.0 < FLAT_LIMIT {
            self.slot(page) & PRESENT != 0
        } else {
            self.spill.contains_key(&page)
        }
    }

    /// Map `page` to `frame`. `touched` distinguishes demand-faulted
    /// pages (true) from prefetched pages (false) — the faulted page of
    /// a chunk is touched by definition, its prefetched neighbours are
    /// not until an SM actually accesses them.
    ///
    /// # Panics
    /// Panics if `page` is already mapped: the driver must evict before
    /// re-mapping, and double-mapping is always a bug.
    pub fn map(&mut self, page: VirtPage, frame: Frame, touched: bool) {
        if page.0 < FLAT_LIMIT {
            let idx = page.0 as usize;
            if idx >= self.slots.len() {
                let new_len = (idx + 1).max(self.slots.len() * 2);
                self.slots.resize(new_len, 0);
                self.masks.resize(new_len, 0);
            }
            assert!(
                self.slots[idx] & PRESENT == 0,
                "page {page:?} double-mapped"
            );
            self.slots[idx] = u64::from(frame.0) | PRESENT | if touched { TOUCHED } else { 0 };
            self.masks[idx] = 0;
        } else {
            let prev = self.spill.insert(
                page,
                SpillEntry {
                    frame,
                    touched,
                    tlb_mask: 0,
                },
            );
            assert!(prev.is_none(), "page {page:?} double-mapped");
        }
        self.resident += 1;
    }

    /// Unmap `page`, returning its frame and touch bit.
    ///
    /// # Panics
    /// Panics if `page` was not mapped.
    pub fn unmap(&mut self, page: VirtPage) -> (Frame, bool) {
        let (frame, touched) = if page.0 < FLAT_LIMIT {
            let idx = page.0 as usize;
            let s = self.slot(page);
            assert!(s & PRESENT != 0, "page {page:?} unmapped but not mapped");
            self.slots[idx] = 0;
            self.masks[idx] = 0;
            (Frame(s as u32), s & TOUCHED != 0)
        } else {
            let e = self
                .spill
                .remove(&page)
                .unwrap_or_else(|| panic!("page {page:?} unmapped but not mapped"));
            (e.frame, e.touched)
        };
        self.resident -= 1;
        (frame, touched)
    }

    /// Set the access bit of a resident page (called on every SM access).
    /// No-op if the page is not resident (the access is about to fault).
    /// Early-exits without writing when the bit is already set — the
    /// warm-hit common case, which would otherwise dirty a packed-u64
    /// cache line on every access.
    #[inline]
    pub fn mark_touched(&mut self, page: VirtPage) {
        if page.0 < FLAT_LIMIT {
            if let Some(s) = self.slots.get_mut(page.0 as usize) {
                if *s & (PRESENT | TOUCHED) == PRESENT {
                    *s |= TOUCHED;
                }
            }
        } else if let Some(e) = self.spill.get_mut(&page) {
            if !e.touched {
                e.touched = true;
            }
        }
    }

    /// Read the access bit of a resident page.
    #[inline]
    #[must_use]
    pub fn is_touched(&self, page: VirtPage) -> bool {
        if page.0 < FLAT_LIMIT {
            self.slot(page) & TOUCHED != 0
        } else {
            self.spill.get(&page).is_some_and(|e| e.touched)
        }
    }

    /// Number of resident pages.
    #[inline]
    #[must_use]
    pub fn resident_count(&self) -> usize {
        self.resident
    }

    /// TLB presence mask of a resident page (0 if not resident). Bit
    /// assignment belongs to the translation layer that maintains it.
    #[inline]
    #[must_use]
    pub fn tlb_mask(&self, page: VirtPage) -> u64 {
        if page.0 < FLAT_LIMIT {
            *self.masks.get(page.0 as usize).unwrap_or(&0)
        } else {
            self.spill.get(&page).map_or(0, |e| e.tlb_mask)
        }
    }

    /// Every page with a nonzero TLB presence mask, with its mask.
    pub(crate) fn tlb_masks(&self) -> impl Iterator<Item = (VirtPage, u64)> + '_ {
        let flat = self
            .masks
            .iter()
            .enumerate()
            .map(|(i, &m)| (VirtPage(i as u64), m));
        let spill = self.spill.iter().map(|(&p, e)| (p, e.tlb_mask));
        flat.chain(spill).filter(|&(_, m)| m != 0)
    }

    /// Record that the TLB with bit index `bit` now holds `page`. No-op
    /// on non-resident pages (TLBs only ever cache resident mappings).
    #[inline]
    pub fn tlb_note_insert(&mut self, page: VirtPage, bit: u32) {
        debug_assert!(self.is_resident(page), "TLB caches a non-resident page");
        if page.0 < FLAT_LIMIT {
            if let Some(m) = self.masks.get_mut(page.0 as usize) {
                *m |= 1 << bit;
            }
        } else if let Some(e) = self.spill.get_mut(&page) {
            e.tlb_mask |= 1 << bit;
        }
    }

    /// Record that the TLB with bit index `bit` dropped `page` (capacity
    /// victim or shootdown). No-op on non-resident pages.
    #[inline]
    pub fn tlb_note_remove(&mut self, page: VirtPage, bit: u32) {
        if page.0 < FLAT_LIMIT {
            if let Some(m) = self.masks.get_mut(page.0 as usize) {
                *m &= !(1 << bit);
            }
        } else if let Some(e) = self.spill.get_mut(&page) {
            e.tlb_mask &= !(1 << bit);
        }
    }
}

/// The pre-overhaul `FxHashMap`-backed page table, kept as the
/// equivalence oracle for the flat table's model test.
pub mod legacy {
    use super::{Frame, FxHashMap, Residency, VirtPage};

    #[derive(Debug, Clone, Copy)]
    struct Entry {
        frame: Frame,
        touched: bool,
    }

    /// Hash-map residency store with the same observable behaviour as
    /// [`super::PageTable`] (minus the TLB-mask bookkeeping).
    #[derive(Debug, Default)]
    pub struct MapPageTable {
        entries: FxHashMap<VirtPage, Entry>,
    }

    impl MapPageTable {
        /// Empty table.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Residency of `page`.
        #[must_use]
        pub fn residency(&self, page: VirtPage) -> Residency {
            match self.entries.get(&page) {
                Some(e) => Residency::Resident(e.frame),
                None => Residency::NotResident,
            }
        }

        /// True if `page` is resident.
        #[must_use]
        pub fn is_resident(&self, page: VirtPage) -> bool {
            self.entries.contains_key(&page)
        }

        /// Map `page` to `frame`.
        pub fn map(&mut self, page: VirtPage, frame: Frame, touched: bool) {
            let prev = self.entries.insert(page, Entry { frame, touched });
            assert!(prev.is_none(), "page {page:?} double-mapped");
        }

        /// Unmap `page`, returning its frame and touch bit.
        pub fn unmap(&mut self, page: VirtPage) -> (Frame, bool) {
            let e = self
                .entries
                .remove(&page)
                .unwrap_or_else(|| panic!("page {page:?} unmapped but not mapped"));
            (e.frame, e.touched)
        }

        /// Set the access bit of a resident page.
        pub fn mark_touched(&mut self, page: VirtPage) {
            if let Some(e) = self.entries.get_mut(&page) {
                e.touched = true;
            }
        }

        /// Read the access bit of a resident page.
        #[must_use]
        pub fn is_touched(&self, page: VirtPage) -> bool {
            self.entries.get(&page).is_some_and(|e| e.touched)
        }

        /// Number of resident pages.
        #[must_use]
        pub fn resident_count(&self) -> usize {
            self.entries.len()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_unmap_roundtrip() {
        let mut pt = PageTable::new();
        assert_eq!(pt.residency(VirtPage(5)), Residency::NotResident);
        pt.map(VirtPage(5), Frame(2), true);
        assert_eq!(pt.residency(VirtPage(5)), Residency::Resident(Frame(2)));
        assert!(pt.is_resident(VirtPage(5)));
        let (f, touched) = pt.unmap(VirtPage(5));
        assert_eq!(f, Frame(2));
        assert!(touched);
        assert!(!pt.is_resident(VirtPage(5)));
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(1), Frame(0), false);
        pt.map(VirtPage(1), Frame(1), false);
    }

    #[test]
    #[should_panic(expected = "not mapped")]
    fn unmap_missing_panics() {
        PageTable::new().unmap(VirtPage(1));
    }

    #[test]
    fn touch_bits() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(1), Frame(0), false);
        assert!(!pt.is_touched(VirtPage(1)));
        pt.mark_touched(VirtPage(1));
        assert!(pt.is_touched(VirtPage(1)));
        // Touching a non-resident page is a harmless no-op.
        pt.mark_touched(VirtPage(99));
        assert!(!pt.is_touched(VirtPage(99)));
    }

    #[test]
    fn resident_count_tracks() {
        let mut pt = PageTable::new();
        for i in 0..10 {
            pt.map(VirtPage(i), Frame(i as u32), false);
        }
        assert_eq!(pt.resident_count(), 10);
        pt.unmap(VirtPage(3));
        assert_eq!(pt.resident_count(), 9);
    }

    #[test]
    fn sparse_pages_spill_and_roundtrip() {
        // Pages beyond the flat window must behave identically.
        let mut pt = PageTable::new();
        let far = VirtPage(FLAT_LIMIT + 12345);
        pt.map(far, Frame(7), false);
        assert_eq!(pt.residency(far), Residency::Resident(Frame(7)));
        assert!(!pt.is_touched(far));
        pt.mark_touched(far);
        assert!(pt.is_touched(far));
        assert_eq!(pt.resident_count(), 1);
        assert_eq!(pt.unmap(far), (Frame(7), true));
        assert_eq!(pt.resident_count(), 0);
        assert!(!pt.is_resident(far));
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn spilled_double_map_panics() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(FLAT_LIMIT), Frame(0), false);
        pt.map(VirtPage(FLAT_LIMIT), Frame(1), false);
    }

    #[test]
    fn remap_after_unmap_resets_state() {
        // Eviction then re-migration: the fresh mapping must not inherit
        // the old touch bit or TLB mask.
        let mut pt = PageTable::new();
        pt.map(VirtPage(4), Frame(1), true);
        pt.tlb_note_insert(VirtPage(4), 3);
        pt.unmap(VirtPage(4));
        pt.map(VirtPage(4), Frame(2), false);
        assert!(!pt.is_touched(VirtPage(4)));
        assert_eq!(pt.tlb_mask(VirtPage(4)), 0);
    }

    #[test]
    fn tlb_mask_bookkeeping() {
        let mut pt = PageTable::new();
        pt.map(VirtPage(9), Frame(0), false);
        assert_eq!(pt.tlb_mask(VirtPage(9)), 0);
        pt.tlb_note_insert(VirtPage(9), 0);
        pt.tlb_note_insert(VirtPage(9), 63);
        assert_eq!(pt.tlb_mask(VirtPage(9)), 1 | (1 << 63));
        pt.tlb_note_remove(VirtPage(9), 0);
        assert_eq!(pt.tlb_mask(VirtPage(9)), 1 << 63);
        // Masks of non-resident pages read as empty.
        assert_eq!(pt.tlb_mask(VirtPage(1000)), 0);
    }

    #[test]
    fn flat_and_legacy_tables_agree() {
        // Drive both stores through the same mixed script.
        let mut flat = PageTable::new();
        let mut map = legacy::MapPageTable::new();
        let mut x: u64 = 0x0123_4567_89AB_CDEF;
        let mut pages = Vec::new();
        for i in 0..2000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = VirtPage(x % 4096);
            match x % 5 {
                0 | 1 => {
                    if !flat.is_resident(page) {
                        flat.map(page, Frame(i as u32), x.is_multiple_of(2));
                        map.map(page, Frame(i as u32), x.is_multiple_of(2));
                        pages.push(page);
                    }
                }
                2 => {
                    if let Some(p) = pages.pop() {
                        assert_eq!(flat.unmap(p), map.unmap(p));
                    }
                }
                3 => {
                    flat.mark_touched(page);
                    map.mark_touched(page);
                }
                _ => {
                    assert_eq!(flat.residency(page), map.residency(page));
                    assert_eq!(flat.is_touched(page), map.is_touched(page));
                }
            }
        }
        assert_eq!(flat.resident_count(), map.resident_count());
        for p in pages {
            assert_eq!(flat.residency(p), map.residency(p));
        }
    }

    #[test]
    fn node_sharing_within_level() {
        // Pages 0 and 1 share every upper-level node.
        for level in 2..=LEVELS {
            assert_eq!(node_for(VirtPage(0), level), node_for(VirtPage(1), level));
        }
        // Pages 0 and 512 differ at level 2 (512 = 2^9) but share level 3+.
        assert_ne!(node_for(VirtPage(0), 2), node_for(VirtPage(512), 2));
        assert_eq!(node_for(VirtPage(0), 3), node_for(VirtPage(512), 3));
    }
}
