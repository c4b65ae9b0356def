//! End-to-end address-translation path (Fig. 1 of the paper).
//!
//! A memory request probes the issuing SM's private L1 TLB (❶), on a miss
//! the shared L2 TLB (❷), and on a second miss enters the page-table
//! walker (❸) which probes the shared page-walk cache (❹) and, if
//! necessary, memory (❺). A walk that finds no mapping raises a page
//! fault, which the `uvm` driver services off-chip.
//!
//! [`TranslationPath`] owns every structure in that pipeline plus the
//! page table itself, and exposes the two operations the rest of the
//! simulator needs: [`translate`](TranslationPath::translate) on the GPU
//! side and map/unmap/invalidate on the driver side.

use crate::page_table::{PageTable, Residency};
use crate::tlb::{Tlb, TlbConfig};
use crate::types::{Frame, SmId, VirtPage};
use crate::walk_cache::WalkCache;
use crate::walker::{Walker, WalkerConfig};
use sim_core::time::Cycle;

/// Shape of the whole translation hierarchy.
#[derive(Debug, Clone, Copy)]
pub struct TranslationConfig {
    /// Number of SMs, i.e. number of private L1 TLBs (Table I: 28).
    pub num_sms: usize,
    /// Per-SM L1 TLB geometry.
    pub l1: TlbConfig,
    /// Shared L2 TLB geometry.
    pub l2: TlbConfig,
    /// Walker shape.
    pub walker: WalkerConfig,
}

impl Default for TranslationConfig {
    fn default() -> Self {
        TranslationConfig {
            num_sms: 28,
            l1: TlbConfig::l1_default(),
            l2: TlbConfig::l2_default(),
            walker: WalkerConfig::default(),
        }
    }
}

/// What a translation request produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TranslationOutcome {
    /// Translation resolved; the access may proceed at `ready_at`.
    Hit {
        /// Physical frame.
        frame: Frame,
        /// Absolute completion time (TLB/walk latency included).
        ready_at: Cycle,
    },
    /// The page is not resident; a far fault was detected at `at`.
    Fault {
        /// Absolute time the walker discovered the missing mapping.
        at: Cycle,
    },
}

/// Per-stage timestamps of one translation, for latency attribution.
///
/// Stages that did not run collapse to the previous stage's timestamp
/// (an L1 hit leaves `l2_done == l1_done` and `walk_done == l2_done`),
/// so consecutive differences are always the true per-stage costs:
/// `l1_done - issue` (L1 probe), `l2_done - l1_done` (L2 probe),
/// `walk_started - l2_done` (walker slot queueing) and
/// `walk_done - walk_started` (the walk's service time).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TranslationTiming {
    /// When the L1 TLB probe completed.
    pub l1_done: Cycle,
    /// When the shared L2 TLB probe completed.
    pub l2_done: Cycle,
    /// When the page-table walk left the slot queue.
    pub walk_started: Cycle,
    /// When the walk completed.
    pub walk_done: Cycle,
}

/// TLB-presence-mask bit reserved for the shared L2 TLB; bits `0..63`
/// identify per-SM L1 TLBs. Hierarchies with more than 63 SMs fall back
/// to scanning every TLB on shootdown.
const L2_MASK_BIT: u32 = 63;

/// The full translation hierarchy.
#[derive(Debug)]
pub struct TranslationPath {
    l1: Vec<Tlb>,
    l2: Tlb,
    pwc: WalkCache,
    walker: Walker,
    page_table: PageTable,
    /// Whether per-page TLB presence masks are in use (num_sms ≤ 63).
    use_masks: bool,
}

impl TranslationPath {
    /// Build the hierarchy from `cfg`.
    #[must_use]
    pub fn new(cfg: &TranslationConfig) -> Self {
        TranslationPath {
            l1: (0..cfg.num_sms).map(|_| Tlb::new(cfg.l1)).collect(),
            l2: Tlb::new(cfg.l2),
            pwc: WalkCache::table1_default(),
            walker: Walker::new(cfg.walker),
            page_table: PageTable::new(),
            use_masks: cfg.num_sms as u32 <= L2_MASK_BIT,
        }
    }

    /// Install `page` in SM `sm`'s L1 TLB, keeping presence masks in sync
    /// for both the installed page and any capacity victim.
    #[inline]
    fn l1_fill(&mut self, sm: SmId, page: VirtPage, frame: Frame) {
        let victim = self.l1[sm.idx()].insert(page, frame);
        if self.use_masks {
            self.page_table.tlb_note_insert(page, sm.idx() as u32);
            if let Some((vp, _)) = victim {
                self.page_table.tlb_note_remove(vp, sm.idx() as u32);
            }
        }
    }

    /// Install `page` in the shared L2 TLB, keeping presence masks in
    /// sync for both the installed page and any capacity victim.
    #[inline]
    fn l2_fill(&mut self, page: VirtPage, frame: Frame) {
        let victim = self.l2.insert(page, frame);
        if self.use_masks {
            self.page_table.tlb_note_insert(page, L2_MASK_BIT);
            if let Some((vp, _)) = victim {
                self.page_table.tlb_note_remove(vp, L2_MASK_BIT);
            }
        }
    }

    /// Translate `page` for SM `sm` at time `now`.
    ///
    /// On TLB hits the result is immediate (plus hit latency). On a full
    /// miss the walker is engaged; a resident PTE refills both TLB levels,
    /// a missing PTE reports a fault. Touch bits are the *caller's*
    /// responsibility (`mark_touched`), because a faulting access touches
    /// the page only once it has been migrated.
    ///
    /// # Panics
    /// Panics if `sm` is out of range.
    pub fn translate(&mut self, sm: SmId, page: VirtPage, now: Cycle) -> TranslationOutcome {
        self.translate_timed(sm, page, now).0
    }

    /// [`translate`](TranslationPath::translate), additionally reporting
    /// when each stage of the pipeline completed. The timing is derived
    /// from the same arithmetic that produces the outcome — requesting
    /// it cannot change a run.
    ///
    /// # Panics
    /// Panics if `sm` is out of range.
    pub fn translate_timed(
        &mut self,
        sm: SmId,
        page: VirtPage,
        now: Cycle,
    ) -> (TranslationOutcome, TranslationTiming) {
        let l1 = &mut self.l1[sm.idx()];
        let l1_latency = l1.hit_latency();
        let after_l1 = now.after(l1_latency);
        if let Some(frame) = l1.lookup(page) {
            return (
                TranslationOutcome::Hit {
                    frame,
                    ready_at: after_l1,
                },
                TranslationTiming {
                    l1_done: after_l1,
                    l2_done: after_l1,
                    walk_started: after_l1,
                    walk_done: after_l1,
                },
            );
        }
        let l2_latency = self.l2.hit_latency();
        let after_l2 = after_l1.after(l2_latency);
        if let Some(frame) = self.l2.lookup(page) {
            self.l1_fill(sm, page, frame);
            return (
                TranslationOutcome::Hit {
                    frame,
                    ready_at: after_l2,
                },
                TranslationTiming {
                    l1_done: after_l1,
                    l2_done: after_l2,
                    walk_started: after_l2,
                    walk_done: after_l2,
                },
            );
        }
        let out = self
            .walker
            .walk(page, after_l2, &mut self.pwc, &self.page_table);
        let timing = TranslationTiming {
            l1_done: after_l1,
            l2_done: after_l2,
            walk_started: out.started_at,
            walk_done: out.complete_at,
        };
        let outcome = match out.residency {
            Residency::Resident(frame) => {
                self.l2_fill(page, frame);
                self.l1_fill(sm, page, frame);
                TranslationOutcome::Hit {
                    frame,
                    ready_at: out.complete_at,
                }
            }
            Residency::NotResident => TranslationOutcome::Fault {
                at: out.complete_at,
            },
        };
        (outcome, timing)
    }

    /// Driver side: map `page` into GPU memory.
    pub fn map(&mut self, page: VirtPage, frame: Frame, touched: bool) {
        self.page_table.map(page, frame, touched);
    }

    /// Driver side: unmap `page` and shoot down every TLB. Returns the
    /// freed frame and the hardware access bit (touched).
    ///
    /// The page's presence mask names exactly the TLBs holding it, so
    /// the shootdown visits only those (usually zero — most evicted
    /// pages are cold) instead of scanning every way of every L1.
    pub fn unmap_and_invalidate(&mut self, page: VirtPage) -> (Frame, bool) {
        if self.use_masks {
            let mut mask = self.page_table.tlb_mask(page);
            while mask != 0 {
                let bit = mask.trailing_zeros();
                mask &= mask - 1;
                let hit = if bit == L2_MASK_BIT {
                    self.l2.invalidate(page)
                } else {
                    self.l1[bit as usize].invalidate(page)
                };
                debug_assert!(hit, "presence mask bit {bit} set but page not in TLB");
            }
        } else {
            for l1 in &mut self.l1 {
                l1.invalidate(page);
            }
            self.l2.invalidate(page);
        }
        self.page_table.unmap(page)
    }

    /// Record an SM access to a resident page (sets the PTE access bit).
    pub fn mark_touched(&mut self, page: VirtPage) {
        self.page_table.mark_touched(page);
    }

    /// Does `page`'s TLB bookkeeping match the TLBs themselves? A
    /// non-resident page must be cached nowhere; a resident page's
    /// presence mask must name exactly the TLBs holding it. Probes
    /// every TLB without touching replacement state — a checking aid,
    /// not a hot-path call.
    #[must_use]
    pub fn tlb_consistent(&self, page: VirtPage) -> bool {
        if !self.page_table.is_resident(page) {
            return self.l2.probe(page).is_none()
                && self.l1.iter().all(|t| t.probe(page).is_none());
        }
        if !self.use_masks {
            return true;
        }
        let mut held = u64::from(self.l2.probe(page).is_some()) << L2_MASK_BIT;
        for (sm, l1) in self.l1.iter().enumerate() {
            held |= u64::from(l1.probe(page).is_some()) << sm;
        }
        held == self.page_table.tlb_mask(page)
    }

    /// Immutable view of the page table.
    #[must_use]
    pub fn page_table(&self) -> &PageTable {
        &self.page_table
    }

    /// Aggregate TLB/walker statistics for reporting.
    #[must_use]
    pub fn stats(&self) -> TranslationStats {
        TranslationStats {
            l1_hits: self.l1.iter().map(|t| t.hits.get()).sum(),
            l1_misses: self.l1.iter().map(|t| t.misses.get()).sum(),
            l2_hits: self.l2.hits.get(),
            l2_misses: self.l2.misses.get(),
            pwc_hits: self.pwc.hits.get(),
            pwc_misses: self.pwc.misses.get(),
            walks: self.walker.walks.get(),
            faulting_walks: self.walker.faulting_walks.get(),
        }
    }
}

/// Snapshot of hierarchy counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TranslationStats {
    /// Total L1 TLB hits across SMs.
    pub l1_hits: u64,
    /// Total L1 TLB misses across SMs.
    pub l1_misses: u64,
    /// Shared L2 TLB hits.
    pub l2_hits: u64,
    /// Shared L2 TLB misses.
    pub l2_misses: u64,
    /// Page-walk cache hits.
    pub pwc_hits: u64,
    /// Page-walk cache misses.
    pub pwc_misses: u64,
    /// Walks issued.
    pub walks: u64,
    /// Walks that raised a far fault.
    pub faulting_walks: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path() -> TranslationPath {
        TranslationPath::new(&TranslationConfig::default())
    }

    #[test]
    fn unmapped_page_faults() {
        let mut p = path();
        let out = p.translate(SmId(0), VirtPage(0), Cycle::ZERO);
        assert!(matches!(out, TranslationOutcome::Fault { .. }));
        assert_eq!(p.stats().faulting_walks, 1);
    }

    #[test]
    fn mapped_page_walks_then_hits_in_tlbs() {
        let mut p = path();
        p.map(VirtPage(0), Frame(1), true);
        // First access: L1 miss, L2 miss, walk resolves.
        let first = p.translate(SmId(0), VirtPage(0), Cycle::ZERO);
        let TranslationOutcome::Hit { frame, ready_at } = first else {
            panic!("expected hit");
        };
        assert_eq!(frame, Frame(1));
        // 1 (L1) + 10 (L2) + 10 (PWC probe) + 4*150 (cold walk).
        assert_eq!(ready_at, Cycle(1 + 10 + 10 + 600));

        // Second access from the same SM: L1 hit, 1 cycle.
        let second = p.translate(SmId(0), VirtPage(0), Cycle(10_000));
        assert_eq!(
            second,
            TranslationOutcome::Hit {
                frame: Frame(1),
                ready_at: Cycle(10_001)
            }
        );
    }

    #[test]
    fn l2_serves_other_sms() {
        let mut p = path();
        p.map(VirtPage(0), Frame(1), true);
        p.translate(SmId(0), VirtPage(0), Cycle::ZERO); // fills L2
        let out = p.translate(SmId(5), VirtPage(0), Cycle(10_000));
        let TranslationOutcome::Hit { ready_at, .. } = out else {
            panic!("expected hit");
        };
        // L1 miss (1) + L2 hit (10).
        assert_eq!(ready_at, Cycle(10_000 + 1 + 10));
        assert_eq!(p.stats().l2_hits, 1);
    }

    #[test]
    fn unmap_invalidates_all_tlbs() {
        let mut p = path();
        p.map(VirtPage(7), Frame(3), false);
        p.translate(SmId(0), VirtPage(7), Cycle::ZERO);
        p.translate(SmId(1), VirtPage(7), Cycle(5000));
        let (frame, touched) = p.unmap_and_invalidate(VirtPage(7));
        assert_eq!(frame, Frame(3));
        assert!(!touched);
        // Both SMs must now fault.
        let a = p.translate(SmId(0), VirtPage(7), Cycle(20_000));
        let b = p.translate(SmId(1), VirtPage(7), Cycle(30_000));
        assert!(matches!(a, TranslationOutcome::Fault { .. }));
        assert!(matches!(b, TranslationOutcome::Fault { .. }));
    }

    #[test]
    fn touch_bit_flow() {
        let mut p = path();
        p.map(VirtPage(1), Frame(0), false);
        assert!(!p.page_table().is_touched(VirtPage(1)));
        p.mark_touched(VirtPage(1));
        assert!(p.page_table().is_touched(VirtPage(1)));
    }

    #[test]
    fn walker_contention_under_fault_storm() {
        // More concurrent cold walks than slots: completion times spread.
        let mut p = TranslationPath::new(&TranslationConfig {
            walker: crate::walker::WalkerConfig {
                concurrency: 2,
                memory_ref_latency: 100,
            },
            ..TranslationConfig::default()
        });
        let outs: Vec<Cycle> = (0..6)
            .map(|i| {
                // Far-apart pages: all cold walks.
                match p.translate(SmId(i), VirtPage(u64::from(i) << 30), Cycle::ZERO) {
                    TranslationOutcome::Fault { at } => at,
                    TranslationOutcome::Hit { .. } => panic!("unmapped page hit"),
                }
            })
            .collect();
        // With 2 slots and 6 walks, the last finishes ~3x after the first.
        let first = outs.iter().min().unwrap();
        let last = outs.iter().max().unwrap();
        assert!(
            last.0 >= first.0 + 2 * 410,
            "no queueing observed: {outs:?}"
        );
    }

    #[test]
    fn l1_fill_after_l2_hit() {
        let mut p = path();
        p.map(VirtPage(0), Frame(1), true);
        p.translate(SmId(0), VirtPage(0), Cycle::ZERO); // walk, fills L2+L1(0)
        p.translate(SmId(1), VirtPage(0), Cycle(10_000)); // L2 hit, fills L1(1)
        let out = p.translate(SmId(1), VirtPage(0), Cycle(20_000));
        let TranslationOutcome::Hit { ready_at, .. } = out else {
            panic!("expected hit");
        };
        assert_eq!(ready_at, Cycle(20_001), "third access must be an L1 hit");
    }

    #[test]
    fn faulting_page_keeps_tlbs_clean() {
        let mut p = path();
        let _ = p.translate(SmId(0), VirtPage(9), Cycle::ZERO);
        // After mapping, the earlier fault must not have cached anything.
        p.map(VirtPage(9), Frame(4), true);
        let out = p.translate(SmId(0), VirtPage(9), Cycle(10_000));
        let TranslationOutcome::Hit { ready_at, .. } = out else {
            panic!("expected hit");
        };
        // Full path again (L1 miss + L2 miss + warm walk of 1 ref).
        assert!(ready_at.0 > 10_000 + 100, "fault must not fill TLBs");
    }

    #[test]
    fn timed_translate_reports_stage_breakdown() {
        let mut p = path();
        // Cold fault: every stage runs.
        let (out, t) = p.translate_timed(SmId(0), VirtPage(0), Cycle::ZERO);
        assert!(matches!(out, TranslationOutcome::Fault { .. }));
        assert_eq!(t.l1_done, Cycle(1));
        assert_eq!(t.l2_done, Cycle(11));
        assert_eq!(t.walk_started, Cycle(11), "no slot contention at t=0");
        assert_eq!(t.walk_done, Cycle(11 + 10 + 600));
        let TranslationOutcome::Fault { at } = out else {
            unreachable!()
        };
        assert_eq!(t.walk_done, at, "timing agrees with the outcome");

        // L1 hit: later stages collapse onto the L1 timestamp.
        p.map(VirtPage(5), Frame(2), true);
        p.translate(SmId(0), VirtPage(5), Cycle(10_000));
        let (out, t) = p.translate_timed(SmId(0), VirtPage(5), Cycle(20_000));
        let TranslationOutcome::Hit { ready_at, .. } = out else {
            panic!("expected hit");
        };
        assert_eq!(t.l1_done, ready_at);
        assert_eq!(t.l2_done, t.l1_done);
        assert_eq!(t.walk_done, t.l1_done);
    }

    #[test]
    fn timed_and_plain_translate_agree() {
        let mut a = path();
        let mut b = path();
        a.map(VirtPage(1), Frame(0), true);
        b.map(VirtPage(1), Frame(0), true);
        for (i, page) in [0u64, 1, 1, 9, 0, 1].into_iter().enumerate() {
            let now = Cycle(i as u64 * 5_000);
            let plain = a.translate(SmId(0), VirtPage(page), now);
            let (timed, _) = b.translate_timed(SmId(0), VirtPage(page), now);
            assert_eq!(plain, timed, "step {i}");
        }
    }

    #[test]
    fn presence_masks_track_tlb_contents_exactly() {
        // Random translate/map/unmap churn with capacity pressure in
        // every TLB: afterwards, each resident page's mask must name
        // exactly the TLBs that hold it, and shootdowns driven by the
        // mask must leave no stale translation behind.
        let mut p = TranslationPath::new(&TranslationConfig {
            num_sms: 4,
            l1: TlbConfig {
                entries: 8,
                associativity: 8,
                hit_latency: 1,
            },
            l2: TlbConfig {
                entries: 16,
                associativity: 4,
                hit_latency: 10,
            },
            ..TranslationConfig::default()
        });
        let mut x: u64 = 0xABCD_EF01_2345_6789;
        let mut resident: Vec<VirtPage> = Vec::new();
        let mut next_frame = 0u32;
        let mut now = 0u64;
        for _ in 0..3000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            now += 1_000;
            let page = VirtPage(x % 64);
            match x % 4 {
                0 if !p.page_table.is_resident(page) => {
                    p.map(page, Frame(next_frame), false);
                    next_frame += 1;
                    resident.push(page);
                }
                1 if !resident.is_empty() => {
                    let victim = resident.swap_remove((x / 7) as usize % resident.len());
                    p.unmap_and_invalidate(victim);
                    assert!(p.tlb_consistent(victim), "stale entry for {victim:?}");
                }
                _ => {
                    let sm = SmId((x / 13) as u16 % 4);
                    let _ = p.translate(sm, page, Cycle(now));
                }
            }
        }
        for &page in &resident {
            assert!(p.tlb_consistent(page), "mask drift for {page:?}");
        }
    }

    #[test]
    fn tlb_consistency_catches_drift() {
        let mut p = path();
        p.map(VirtPage(3), Frame(0), true);
        let _ = p.translate(SmId(1), VirtPage(3), Cycle::ZERO);
        assert!(p.tlb_consistent(VirtPage(3)));
        // A mask bit with no TLB behind it is drift.
        p.page_table.tlb_note_insert(VirtPage(3), 5);
        assert!(!p.tlb_consistent(VirtPage(3)));
        // So is a translation cached for a page no longer mapped.
        p.page_table.unmap(VirtPage(3));
        assert!(!p.tlb_consistent(VirtPage(3)));
    }

    #[test]
    fn stats_accumulate() {
        let mut p = path();
        p.map(VirtPage(0), Frame(0), true);
        p.translate(SmId(0), VirtPage(0), Cycle::ZERO);
        p.translate(SmId(0), VirtPage(0), Cycle(1_000));
        let s = p.stats();
        assert_eq!(s.l1_hits, 1);
        assert_eq!(s.l1_misses, 1);
        assert_eq!(s.walks, 1);
    }
}
