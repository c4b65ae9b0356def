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
//!
//! Each resident page carries a TLB presence mask naming exactly the
//! TLBs that hold it (bit *i* = SM *i*'s L1, bit 63 = the L2), so a
//! hierarchy has at most [`MAX_SMS`] SMs. The mask answers both
//! directions: a shootdown visits only the holders, and a translation
//! scans a TLB's row only when the page's bit for it is set — a clear
//! bit is a miss without a probe.
//!
//! TLB rows hold pages, not frames. A TLB hit reads its frame from the
//! page table, which is exact: TLBs only ever hold resident pages, a
//! resident page's frame is fixed from map to unmap, and an unmap shoots
//! the page down from every TLB before its frame can be reused. So the
//! table's frame is always the one a frame-caching TLB would return
//! (`translation_path_matches_scan_oracle_path` checks this against the
//! frame-caching `legacy::ScanTlb`).
//!
//! Evictions are chunk-granular, so the driver shoots a whole chunk down
//! at once ([`unmap_chunk`](TranslationPath::unmap_chunk)): an L1 that
//! holds several of the chunk's pages drops them all in one pass over
//! its row, and every other holder drops its one page as before.

use crate::page_table::{PageTable, Residency};
use crate::tlb::{Tlb, TlbConfig};
use crate::types::{ChunkId, Frame, SmId, VirtPage};
use crate::walk_cache::WalkCache;
use crate::walker::{Walker, WalkerConfig};
use sim_core::error::ConfigError;
use sim_core::time::Cycle;
use sim_core::FxHashMap;

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

impl TranslationConfig {
    /// Check everything [`TranslationPath::new`] would panic on: at most
    /// [`MAX_SMS`] L1 TLBs, a geometry each TLB can be built with (see
    /// [`TlbConfig`]) and at least one walk slot.
    ///
    /// # Errors
    /// Returns the first [`ConfigError`] found.
    pub fn validate(&self) -> Result<(), ConfigError> {
        sim_core::error::require_in_range(
            "translation.num_sms",
            self.num_sms as f64,
            1.0,
            MAX_SMS as f64,
        )?;
        self.l1.validate([
            "translation.l1.entries",
            "translation.l1.associativity",
            "translation.l1 set count",
        ])?;
        self.l2.validate([
            "translation.l2.entries",
            "translation.l2.associativity",
            "translation.l2 set count",
        ])?;
        if self.walker.concurrency == 0 {
            return Err(ConfigError::Zero {
                field: "translation.walker.concurrency",
            });
        }
        Ok(())
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
/// identify per-SM L1 TLBs.
const L2_MASK_BIT: u32 = 63;

/// Most SMs a hierarchy may have: one presence-mask bit per L1 TLB,
/// with the top bit kept for the L2.
pub const MAX_SMS: usize = L2_MASK_BIT as usize;

/// How TLB shootdowns did their work. Checking aid only: no result or
/// fingerprint depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShootdownCounts {
    /// Pages unmapped.
    pub pages: u64,
    /// Single-page TLB removes (one row scan each).
    pub page_removes: u64,
    /// Chunk passes: one L1 row pass dropping several pages of a chunk.
    pub chunk_passes: u64,
    /// Translations the chunk passes dropped — the single-page removes
    /// they replaced.
    pub chunk_pass_removes: u64,
}

/// The full translation hierarchy.
#[derive(Debug)]
pub struct TranslationPath {
    l1: Vec<Tlb>,
    l2: Tlb,
    pwc: WalkCache,
    walker: Walker,
    page_table: PageTable,
    shootdowns: ShootdownCounts,
}

impl TranslationPath {
    /// Build the hierarchy from `cfg`.
    ///
    /// # Panics
    /// Panics on a configuration [`TranslationConfig::validate`] rejects,
    /// such as more than [`MAX_SMS`] SMs.
    #[must_use]
    pub fn new(cfg: &TranslationConfig) -> Self {
        assert!(
            cfg.num_sms <= MAX_SMS,
            "{} SMs: presence masks cover at most {MAX_SMS}",
            cfg.num_sms
        );
        TranslationPath {
            l1: (0..cfg.num_sms).map(|_| Tlb::new(cfg.l1)).collect(),
            l2: Tlb::new(cfg.l2),
            pwc: WalkCache::table1_default(),
            walker: Walker::new(cfg.walker),
            page_table: PageTable::new(),
            shootdowns: ShootdownCounts::default(),
        }
    }

    /// Install `page`, whose probe just missed, in SM `sm`'s L1 TLB,
    /// keeping presence masks in sync for both the installed page and
    /// any capacity victim.
    #[inline]
    fn l1_fill(&mut self, sm: SmId, page: VirtPage) {
        let victim = self.l1[sm.idx()].fill(page);
        self.page_table.tlb_note_insert(page, sm.idx() as u32);
        if let Some(vp) = victim {
            self.page_table.tlb_note_remove(vp, sm.idx() as u32);
        }
    }

    /// Install `page`, whose probe just missed, in the shared L2 TLB,
    /// keeping presence masks in sync for both the installed page and
    /// any capacity victim.
    #[inline]
    fn l2_fill(&mut self, page: VirtPage) {
        let victim = self.l2.fill(page);
        self.page_table.tlb_note_insert(page, L2_MASK_BIT);
        if let Some(vp) = victim {
            self.page_table.tlb_note_remove(vp, L2_MASK_BIT);
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
    /// A TLB hit's frame is read from the page table (the module docs
    /// say why that is exact).
    ///
    /// # Panics
    /// Panics if `sm` is out of range.
    #[inline]
    pub fn translate_timed(
        &mut self,
        sm: SmId,
        page: VirtPage,
        now: Cycle,
    ) -> (TranslationOutcome, TranslationTiming) {
        // A clear mask bit is a known miss.
        let mask = self.page_table.tlb_mask(page);
        let (in_l1, in_l2) = ((mask >> sm.idx()) & 1 != 0, (mask >> L2_MASK_BIT) & 1 != 0);
        let l1 = &mut self.l1[sm.idx()];
        let l1_latency = l1.hit_latency();
        let after_l1 = now.after(l1_latency);
        if l1.lookup_if(in_l1, page) {
            return (
                TranslationOutcome::Hit {
                    frame: self.page_table.tlb_frame(page),
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
        if self.l2.lookup_if(in_l2, page) {
            self.l1_fill(sm, page);
            return (
                TranslationOutcome::Hit {
                    frame: self.page_table.tlb_frame(page),
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
                self.l2_fill(page);
                self.l1_fill(sm, page);
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
    /// the shootdown visits only those instead of scanning every way of
    /// every L1. The driver evicts whole chunks through
    /// [`unmap_chunk`](TranslationPath::unmap_chunk); this single-page
    /// form stays for callers that unmap one page.
    ///
    /// # Panics
    /// Panics if `page` is not mapped.
    pub fn unmap_and_invalidate(&mut self, page: VirtPage) -> (Frame, bool) {
        self.shoot_down(page, self.page_table.tlb_mask(page));
        self.shootdowns.pages += 1;
        self.page_table.unmap(page)
    }

    /// Drop `page` from each TLB named by `mask`, one row scan each.
    #[inline]
    fn shoot_down(&mut self, page: VirtPage, mut mask: u64) {
        self.shootdowns.page_removes += u64::from(mask.count_ones());
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
    }

    /// Driver side: unmap every resident page of `chunk` and shoot each
    /// down from every TLB, calling `each(page, frame, touched)` per
    /// unmapped page in address order. Leaves every TLB, mask and page
    /// entry exactly as [`unmap_and_invalidate`] of each resident page
    /// would.
    ///
    /// The chunk's presence masks name the L1 TLBs holding two or more
    /// of its pages; each of those drops them all in one pass over its
    /// row ([`Tlb::invalidate_chunk`]). The L2 and an L1 holding a
    /// single page keep the per-page remove, so a chunk shootdown never
    /// scans more rows than the per-page one.
    ///
    /// [`unmap_and_invalidate`]: TranslationPath::unmap_and_invalidate
    pub fn unmap_chunk(&mut self, chunk: ChunkId, mut each: impl FnMut(VirtPage, Frame, bool)) {
        // L1 bits seen on one page, and on two or more.
        let (mut once, mut multi) = (0u64, 0u64);
        for page in chunk.pages() {
            let l1s = self.page_table.tlb_mask(page) & !(1 << L2_MASK_BIT);
            multi |= once & l1s;
            once |= l1s;
        }
        let mut passes = multi;
        while passes != 0 {
            let bit = passes.trailing_zeros();
            passes &= passes - 1;
            let dropped = self.l1[bit as usize].invalidate_chunk(chunk);
            debug_assert!(dropped >= 2, "L1 {bit} held {dropped} of {chunk:?}");
            self.shootdowns.chunk_passes += 1;
            self.shootdowns.chunk_pass_removes += dropped as u64;
        }
        for page in chunk.pages() {
            if !self.page_table.is_resident(page) {
                continue;
            }
            self.shoot_down(page, self.page_table.tlb_mask(page) & !multi);
            self.shootdowns.pages += 1;
            let (frame, touched) = self.page_table.unmap(page);
            each(page, frame, touched);
        }
    }

    /// How the shootdowns so far did their work.
    #[must_use]
    pub fn shootdown_counts(&self) -> ShootdownCounts {
        self.shootdowns
    }

    /// Record an SM access to a resident page (sets the PTE access bit).
    pub fn mark_touched(&mut self, page: VirtPage) {
        self.page_table.mark_touched(page);
    }

    /// Do the presence masks match the TLBs, in full? Every cached
    /// translation must be of a resident page and each mask bit must
    /// match exactly one TLB entry — so a missing bit, a stray bit and a
    /// TLB holding a page twice all fail. (TLB rows hold no frames: a
    /// hit reads its frame from the page table.) Costs
    /// O(TLB entries + mapped pages): a checking aid for batch
    /// boundaries, not a hot-path call.
    #[must_use]
    pub fn masks_consistent(&self) -> bool {
        let pt = &self.page_table;
        // Bits not yet matched to a TLB entry, per page.
        let mut unmatched: FxHashMap<VirtPage, u64> = pt.tlb_masks().collect();
        let l1s = self.l1.iter().enumerate().map(|(sm, t)| (sm as u32, t));
        for (bit, tlb) in l1s.chain([(L2_MASK_BIT, &self.l2)]) {
            for page in tlb.pages() {
                if !pt.is_resident(page) {
                    return false;
                }
                match unmatched.get_mut(&page) {
                    Some(m) if (*m >> bit) & 1 != 0 => *m &= !(1 << bit),
                    _ => return false,
                }
            }
        }
        unmatched.values().all(|&m| m == 0)
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
    use crate::page_table::legacy::MapPageTable;
    use crate::tlb::legacy::ScanTlb;
    use crate::walk_cache::legacy::ScanWalkCache;
    use std::cmp::Reverse;

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

    /// A walk makes one memory reference per PWC miss plus one: a hit
    /// at level k misses k − 2 levels and leaves k − 1 references, and a
    /// full miss misses 3 and makes 4. So the stats alone give the
    /// memory references — the sum of every walk's service time, less
    /// its PWC probe, over the reference latency.
    #[test]
    fn walk_memory_refs_are_pwc_misses_plus_walks() {
        let mut p = path();
        let (mut x, mut refs) = (0x2F0A_96C1_3B5D_E847_u64, 0);
        for step in 0..20_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = VirtPage((x >> 8) % (1 << 24));
            if x % 4 == 0 && !p.page_table().is_resident(page) {
                p.map(page, Frame(step as u32), true);
            }
            let walks = p.stats().walks;
            let (_, t) = p.translate_timed(SmId((x >> 40) as u16 % 28), page, Cycle(step * 50));
            if p.stats().walks > walks {
                refs += (t.walk_done.0 - t.walk_started.0 - 10) / 150;
            }
        }
        let s = p.stats();
        assert_eq!(refs, s.pwc_misses + s.walks, "{s:?}");
        assert!(s.pwc_hits > 1000 && s.pwc_misses > 1000, "{s:?}");
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
    fn masks_consistency_catches_drift() {
        let mut p = path();
        p.map(VirtPage(3), Frame(0), true);
        p.map(VirtPage(4), Frame(1), true);
        let _ = p.translate(SmId(1), VirtPage(3), Cycle::ZERO);
        assert!(p.masks_consistent());
        // A stray bit: no TLB entry behind it.
        p.page_table.tlb_note_insert(VirtPage(4), 2);
        assert!(!p.masks_consistent());
        p.page_table.tlb_note_remove(VirtPage(4), 2);
        assert!(p.masks_consistent());
        // A missing bit: SM 1's L1 holds page 3 but the mask forgot it.
        p.page_table.tlb_note_remove(VirtPage(3), 1);
        assert!(!p.masks_consistent());
        p.page_table.tlb_note_insert(VirtPage(3), 1);
        assert!(p.masks_consistent());
        // A translation cached for a page no longer mapped.
        p.page_table.unmap(VirtPage(3));
        assert!(!p.masks_consistent());
    }

    /// The seed's translation path, assembled from the scan oracles:
    /// scan L1s, a scan L2, the scan PWC, the hash-map page table and
    /// the walker's slot-heap latency arithmetic. Every probe scans.
    struct ScanPath {
        cfg: TranslationConfig,
        l1: Vec<ScanTlb>,
        l2: ScanTlb,
        pwc: ScanWalkCache,
        pt: MapPageTable,
        slots: std::collections::BinaryHeap<Reverse<Cycle>>,
        walks: u64,
        faulting_walks: u64,
    }

    impl ScanPath {
        fn new(cfg: &TranslationConfig) -> Self {
            ScanPath {
                cfg: *cfg,
                l1: (0..cfg.num_sms).map(|_| ScanTlb::new(cfg.l1)).collect(),
                l2: ScanTlb::new(cfg.l2),
                pwc: ScanWalkCache::new(1024, 16, 10),
                pt: MapPageTable::new(),
                slots: (0..cfg.walker.concurrency)
                    .map(|_| Reverse(Cycle::ZERO))
                    .collect(),
                walks: 0,
                faulting_walks: 0,
            }
        }

        fn translate(
            &mut self,
            sm: SmId,
            page: VirtPage,
            now: Cycle,
        ) -> (TranslationOutcome, TranslationTiming) {
            use crate::page_table::{node_for, LEVELS};
            let l1_done = now.after(self.cfg.l1.hit_latency);
            let l2_done = l1_done.after(self.cfg.l2.hit_latency);
            let hit = |frame, ready_at: Cycle| {
                let timing = TranslationTiming {
                    l1_done,
                    l2_done: ready_at,
                    walk_started: ready_at,
                    walk_done: ready_at,
                };
                (TranslationOutcome::Hit { frame, ready_at }, timing)
            };
            if let Some(frame) = self.l1[sm.idx()].lookup(page) {
                return hit(frame, l1_done);
            }
            if let Some(frame) = self.l2.lookup(page) {
                self.l1[sm.idx()].insert(page, frame);
                return hit(frame, l2_done);
            }
            self.walks += 1;
            let cached = (2..=LEVELS).find(|&level| self.pwc.lookup(node_for(page, level)));
            let refs = cached.map_or(u64::from(LEVELS), |level| u64::from(level) - 1);
            for level in 2..=LEVELS {
                self.pwc.insert(node_for(page, level));
            }
            let Reverse(free_at) = self.slots.pop().expect("walker has slots");
            let walk_started = free_at.max(l2_done);
            let service = self.pwc.hit_latency() + refs * self.cfg.walker.memory_ref_latency;
            let walk_done = walk_started.after(service);
            self.slots.push(Reverse(walk_done));
            let timing = TranslationTiming {
                l1_done,
                l2_done,
                walk_started,
                walk_done,
            };
            let Residency::Resident(frame) = self.pt.residency(page) else {
                self.faulting_walks += 1;
                return (TranslationOutcome::Fault { at: walk_done }, timing);
            };
            self.l2.insert(page, frame);
            self.l1[sm.idx()].insert(page, frame);
            let ready_at = walk_done;
            (TranslationOutcome::Hit { frame, ready_at }, timing)
        }

        fn unmap_and_invalidate(&mut self, page: VirtPage) -> (Frame, bool) {
            for l1 in &mut self.l1 {
                l1.invalidate(page);
            }
            self.l2.invalidate(page);
            self.pt.unmap(page)
        }

        fn stats(&self) -> TranslationStats {
            TranslationStats {
                l1_hits: self.l1.iter().map(|t| t.hits.get()).sum(),
                l1_misses: self.l1.iter().map(|t| t.misses.get()).sum(),
                l2_hits: self.l2.hits.get(),
                l2_misses: self.l2.misses.get(),
                pwc_hits: self.pwc.hits.get(),
                pwc_misses: self.pwc.misses.get(),
                walks: self.walks,
                faulting_walks: self.faulting_walks,
            }
        }
    }

    /// Model-based equivalence of the whole path with the scan oracle:
    /// random translate / map / touch / unmap streams with capacity
    /// pressure in every TLB and the PWC, at 4 SMs and at 63 SMs — the
    /// largest hierarchy, whose last L1 owns presence-mask bit 62.
    /// Every outcome, stage timing and counter must agree. The oracle's
    /// TLBs cache frames and return them on a hit, so equal outcomes
    /// mean the path's hit frame, read from the page table, is the one
    /// a frame-caching TLB returns — also for pages unmapped and
    /// re-mapped at a new frame, which the stream does thousands of
    /// times.
    #[test]
    fn translation_path_matches_scan_oracle_path() {
        use crate::page_table::FLAT_LIMIT;
        for num_sms in [4, MAX_SMS] {
            let cfg = TranslationConfig {
                num_sms,
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
                walker: WalkerConfig {
                    concurrency: 4,
                    memory_ref_latency: 150,
                },
            };
            let mut fast = TranslationPath::new(&cfg);
            let mut slow = ScanPath::new(&cfg);
            let mut resident: Vec<VirtPage> = Vec::new();
            let mut unmapped = sim_core::FxHashSet::default();
            let mut remapped = 0;
            let (mut x, mut now, mut next_frame) = (0x5DEE_CE66_D1CE_4E5B ^ num_sms as u64, 0, 0);
            for step in 0..60_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                now += (x >> 50) % 400;
                let r = x >> 24;
                // Mostly a small hot range (L1/L2 hits and victims),
                // sometimes pages past the flat page-table window, and
                // for walks alone far pages that fault and churn the PWC.
                let page = match r % 8 {
                    0 => VirtPage(FLAT_LIMIT + (r >> 3) % 8 * 4096),
                    1..=3 => VirtPage((r >> 3) % 12),
                    _ => VirtPage((r >> 3) % 96),
                };
                match x % 16 {
                    0 | 1 if !slow.pt.is_resident(page) => {
                        remapped += u64::from(unmapped.contains(&page));
                        fast.map(page, Frame(next_frame), x & 32 != 0);
                        slow.pt.map(page, Frame(next_frame), x & 32 != 0);
                        next_frame += 1;
                        resident.push(page);
                    }
                    2 if !resident.is_empty() => {
                        let victim = resident.swap_remove(r as usize % resident.len());
                        unmapped.insert(victim);
                        assert_eq!(
                            fast.unmap_and_invalidate(victim),
                            slow.unmap_and_invalidate(victim),
                            "unmap({victim:?}) at step {step}"
                        );
                        // The mask-driven shootdown left nothing stale.
                        assert!(fast.masks_consistent(), "unmap at step {step}");
                    }
                    3 => {
                        fast.mark_touched(page);
                        slow.pt.mark_touched(page);
                    }
                    op => {
                        let page = if op == 4 {
                            VirtPage(4096 + (r >> 3) % (1 << 21))
                        } else {
                            page
                        };
                        // Half the accesses come from two SMs, so L1s
                        // hit even with 63 of them.
                        let sm =
                            SmId(((x >> 40) % if x & 64 != 0 { 2 } else { num_sms as u64 }) as u16);
                        assert_eq!(
                            fast.translate_timed(sm, page, Cycle(now)),
                            slow.translate(sm, page, Cycle(now)),
                            "translate({sm:?}, {page:?}) at step {step}"
                        );
                    }
                }
                assert_eq!(fast.stats(), slow.stats(), "stats at step {step}");
            }
            let s = fast.stats();
            assert!(remapped > 1000, "{num_sms} SMs: {remapped} re-mapped pages");
            let counts = [s.l1_hits, s.l2_hits, s.pwc_hits, s.faulting_walks];
            assert!(counts.iter().all(|&n| n > 1000), "{num_sms} SMs: {s:?}");
            let last = &fast.l1[num_sms - 1];
            assert!(last.hits.get() > 0, "L1 {} never hit", num_sms - 1);
            assert!(fast.masks_consistent());
        }
    }

    #[test]
    #[should_panic(expected = "presence masks cover at most 63")]
    fn more_sms_than_mask_bits_panics() {
        let _ = TranslationPath::new(&TranslationConfig {
            num_sms: MAX_SMS + 1,
            ..TranslationConfig::default()
        });
    }

    /// A chunk shootdown must be indistinguishable from unmapping the
    /// chunk's resident pages one by one: twin paths run the same random
    /// translate / map / touch stream, and at each chunk eviction one
    /// calls `unmap_chunk` and the other `unmap_and_invalidate` per
    /// resident page. Every callback, later outcome and stage timing,
    /// the stats and the presence masks must agree, with chunks held
    /// several times over by the same L1s so the row passes fire.
    #[test]
    fn unmap_chunk_matches_per_page_unmap() {
        for num_sms in [4, 28] {
            let cfg = TranslationConfig {
                num_sms,
                l1: TlbConfig {
                    entries: 32,
                    associativity: 32,
                    hit_latency: 1,
                },
                l2: TlbConfig {
                    entries: 64,
                    associativity: 4,
                    hit_latency: 10,
                },
                ..TranslationConfig::default()
            };
            let mut bulk = TranslationPath::new(&cfg);
            let mut single = TranslationPath::new(&cfg);
            let (mut x, mut now, mut next_frame) = (0x9E6C_63D0_676A_9A99 ^ num_sms as u64, 0, 0);
            for step in 0..40_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                now += (x >> 50) % 300;
                let r = x >> 24;
                // Eight chunks: dense enough that an L1 holds several
                // pages of one chunk, sparse enough to keep faulting.
                let page = VirtPage((r >> 3) % 128);
                match x % 32 {
                    0..=5 if !single.page_table().is_resident(page) => {
                        bulk.map(page, Frame(next_frame), x & 32 != 0);
                        single.map(page, Frame(next_frame), x & 32 != 0);
                        next_frame += 1;
                    }
                    6 => {
                        let chunk = page.chunk();
                        let mut got = Vec::new();
                        bulk.unmap_chunk(chunk, |p, f, t| got.push((p, f, t)));
                        let mut want = Vec::new();
                        for p in chunk.pages() {
                            if single.page_table().is_resident(p) {
                                let (f, t) = single.unmap_and_invalidate(p);
                                want.push((p, f, t));
                            }
                        }
                        assert_eq!(got, want, "unmap_chunk({chunk:?}) at step {step}");
                        assert!(bulk.masks_consistent(), "step {step}");
                    }
                    7 => {
                        bulk.mark_touched(page);
                        single.mark_touched(page);
                    }
                    _ => {
                        let sm =
                            SmId(((x >> 40) % if x & 64 != 0 { 2 } else { num_sms as u64 }) as u16);
                        assert_eq!(
                            bulk.translate_timed(sm, page, Cycle(now)),
                            single.translate_timed(sm, page, Cycle(now)),
                            "translate({sm:?}, {page:?}) at step {step}"
                        );
                    }
                }
                assert_eq!(bulk.stats(), single.stats(), "stats at step {step}");
            }
            assert!(bulk.masks_consistent() && single.masks_consistent());
            let (b, s) = (bulk.shootdown_counts(), single.shootdown_counts());
            assert_eq!(b.pages, s.pages);
            assert_eq!(b.page_removes + b.chunk_pass_removes, s.page_removes);
            assert!(
                b.chunk_passes > 100,
                "{num_sms} SMs: row passes never fired: {b:?}"
            );
            assert!(b.chunk_pass_removes >= 2 * b.chunk_passes);
            assert!(bulk.stats().l1_hits > 1000, "{num_sms} SMs never hit an L1");
        }
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
