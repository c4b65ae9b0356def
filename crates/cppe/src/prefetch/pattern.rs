//! CPPE's access pattern-aware prefetcher (paper §IV-C).
//!
//! A **pattern buffer** records the touch pattern (16-bit vector) of
//! evicted chunks whose untouch level is ≥ 8 (half a chunk). On a fault:
//!
//! * buffer **miss** → prefetch the whole chunk (the locality default);
//! * buffer **hit** and the faulted page *matches* the pattern →
//!   prefetch only the pattern's touched pages (skipping the stride-
//!   mismatched pages that would thrash, e.g. NW's stride-2 and MVT's
//!   stride-4 rows);
//! * buffer **hit** and the faulted page does *not* match → prefetch the
//!   whole chunk and delete the pattern according to the deletion scheme:
//!   **Scheme-1** deletes on any mismatch, **Scheme-2** deletes only if
//!   the mismatch happens on the *first* lookup after recording (Fig. 6;
//!   Scheme-2 wins on average and is CPPE's default, §VI-B).

use super::{non_resident_pages_into, PrefetchCtx, Prefetcher};
use gmmu::page_table::PageTable;
use gmmu::types::{ChunkId, VirtPage};
use sim_core::TouchVec;

/// Pattern deletion schemes (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeletionScheme {
    /// Delete a pattern whenever a faulted page mismatches it.
    Scheme1,
    /// Delete only if the mismatch is the first lookup after recording.
    Scheme2,
}

#[derive(Debug, Clone, Copy)]
struct PatternEntry {
    pattern: TouchVec,
    /// Has this entry been looked up since it was recorded?
    probed: bool,
}

/// The pattern buffer: chunk-id tagged touch patterns.
///
/// Every demand fault probes it, so entries sit in a table indexed by
/// chunk id (ids are dense, below footprint ÷ 16), grown on demand, and
/// a counter of live entries stands in for a map's length.
///
/// ```
/// use cppe::prefetch::pattern::{DeletionScheme, PatternBuffer, ProbeResult};
/// use gmmu::types::ChunkId;
/// use sim_core::TouchVec;
///
/// let mut buf = PatternBuffer::new();
/// // An evicted chunk with a stride-2 touch pattern (untouch level 8).
/// buf.record(ChunkId(0), TouchVec::from_bits(0x5555));
/// // A fault on an even page matches; odd pages mismatch.
/// assert!(matches!(
///     buf.probe(ChunkId(0).page(4), DeletionScheme::Scheme2),
///     ProbeResult::Match(_)
/// ));
/// assert!(matches!(
///     buf.probe(ChunkId(0).page(5), DeletionScheme::Scheme2),
///     ProbeResult::Mismatch { deleted: false } // matched once: kept
/// ));
/// ```
#[derive(Debug, Default)]
pub struct PatternBuffer {
    /// Entry per chunk id; `None` where no pattern is recorded.
    entries: Vec<Option<PatternEntry>>,
    /// `Some` entries in `entries`.
    live: usize,
    /// High-water mark (overhead analysis, §VI-C).
    pub max_len: usize,
    /// Patterns recorded.
    pub recorded: u64,
    /// Patterns deleted on mismatch.
    pub deleted: u64,
}

/// Minimum untouch level for a pattern to be worth recording
/// (§IV-C: "only chunks that have an untouch level larger than or equal
/// to 8 (i.e., a half of a chunk) are recorded").
pub const RECORD_THRESHOLD: u32 = 8;

/// Outcome of a fault-time probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeResult {
    /// No pattern recorded for this chunk.
    Miss,
    /// Pattern hit and the faulted page matches: prefetch `pattern` pages.
    Match(TouchVec),
    /// Pattern hit but the faulted page mismatches: whole-chunk prefetch.
    /// `deleted` reports whether the scheme removed the pattern.
    Mismatch {
        /// True if the entry was deleted by the active scheme.
        deleted: bool,
    },
}

impl PatternBuffer {
    /// Empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Record the touch pattern of an evicted chunk (only if its untouch
    /// level reaches [`RECORD_THRESHOLD`]). Re-recording overwrites and
    /// rearms the first-search state. An eviction whose touch vector is
    /// dense (untouch < 8) *removes* any stale pattern: "chunks without
    /// a fixed pattern are removed from the buffer" (§IV-C) — keeping a
    /// stale sparse pattern across a densely-touched episode would make
    /// the prefetcher under-fetch dense phases forever.
    pub fn record(&mut self, chunk: ChunkId, touch: TouchVec) {
        if touch.untouch_level() < RECORD_THRESHOLD {
            self.remove(chunk);
            return;
        }
        let i = chunk.0 as usize;
        if i >= self.entries.len() {
            self.entries.resize(i + 1, None);
        }
        let entry = PatternEntry {
            pattern: touch,
            probed: false,
        };
        if self.entries[i].replace(entry).is_none() {
            self.live += 1;
        }
        self.recorded += 1;
        self.max_len = self.max_len.max(self.live);
    }

    fn remove(&mut self, chunk: ChunkId) {
        if let Some(slot) = self.entries.get_mut(chunk.0 as usize) {
            if slot.take().is_some() {
                self.live -= 1;
            }
        }
    }

    /// Fault-time probe for `fault`'s chunk under `scheme`.
    pub fn probe(&mut self, fault: VirtPage, scheme: DeletionScheme) -> ProbeResult {
        let chunk = fault.chunk();
        let Some(entry) = self
            .entries
            .get_mut(chunk.0 as usize)
            .and_then(Option::as_mut)
        else {
            return ProbeResult::Miss;
        };
        let first = !entry.probed;
        entry.probed = true;
        if entry.pattern.get(fault.index_in_chunk()) {
            ProbeResult::Match(entry.pattern)
        } else {
            let delete = match scheme {
                DeletionScheme::Scheme1 => true,
                DeletionScheme::Scheme2 => first,
            };
            if delete {
                self.remove(chunk);
                self.deleted += 1;
            }
            ProbeResult::Mismatch { deleted: delete }
        }
    }

    /// Current number of recorded patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no patterns are recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Does the buffer hold a pattern for `chunk`?
    #[must_use]
    pub fn contains(&self, chunk: ChunkId) -> bool {
        self.entries
            .get(chunk.0 as usize)
            .is_some_and(Option::is_some)
    }
}

/// The pattern-aware prefetcher: sequential-local behaviour plus the
/// pattern buffer.
#[derive(Debug)]
pub struct PatternAwarePrefetcher {
    buffer: PatternBuffer,
    scheme: DeletionScheme,
    last_origin: &'static str,
}

impl PatternAwarePrefetcher {
    /// CPPE default: Scheme-2.
    #[must_use]
    pub fn new() -> Self {
        Self::with_scheme(DeletionScheme::Scheme2)
    }

    /// Explicit deletion scheme (the Fig. 7 comparison).
    #[must_use]
    pub fn with_scheme(scheme: DeletionScheme) -> Self {
        PatternAwarePrefetcher {
            buffer: PatternBuffer::new(),
            scheme,
            last_origin: "whole-chunk-miss",
        }
    }

    /// Access to the underlying buffer (overhead analysis and tests).
    #[must_use]
    pub fn buffer(&self) -> &PatternBuffer {
        &self.buffer
    }

    fn pattern_pages_into(
        chunk: ChunkId,
        pattern: TouchVec,
        pt: &PageTable,
        out: &mut Vec<VirtPage>,
    ) {
        out.extend(
            pattern
                .touched()
                .map(|i| chunk.page(i))
                .filter(|&p| !pt.is_resident(p)),
        );
    }
}

impl Default for PatternAwarePrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for PatternAwarePrefetcher {
    fn name(&self) -> &'static str {
        match self.scheme {
            DeletionScheme::Scheme1 => "pattern-aware-s1",
            DeletionScheme::Scheme2 => "pattern-aware-s2",
        }
    }

    fn plan_into(&mut self, fault: VirtPage, ctx: &PrefetchCtx<'_>, out: &mut Vec<VirtPage>) {
        let chunk = fault.chunk();
        match self.buffer.probe(fault, self.scheme) {
            ProbeResult::Match(pattern) => {
                self.last_origin = "pattern-hit";
                Self::pattern_pages_into(chunk, pattern, ctx.page_table, out);
                // The faulted page always migrates; it matches the
                // pattern here, so it is already in `out` unless it
                // somehow became resident (it cannot — it just faulted),
                // but be defensive.
                if !out.contains(&fault) {
                    out.push(fault);
                    out.sort_unstable_by_key(|p| p.0);
                }
            }
            ProbeResult::Miss => {
                self.last_origin = "whole-chunk-miss";
                non_resident_pages_into(chunk, ctx.page_table, out);
            }
            ProbeResult::Mismatch { .. } => {
                self.last_origin = "whole-chunk-mismatch";
                non_resident_pages_into(chunk, ctx.page_table, out);
            }
        }
    }

    fn plan_origin(&self) -> &'static str {
        self.last_origin
    }

    fn on_evict(&mut self, chunk: ChunkId, touch: TouchVec) {
        self.buffer.record(chunk, touch);
    }

    fn pattern_buffer_len(&self) -> usize {
        self.buffer.len()
    }

    fn pattern_buffer_max_len(&self) -> usize {
        self.buffer.max_len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmmu::types::Frame;

    fn stride2_pattern() -> TouchVec {
        // Pages 0,2,4,...,14 touched — NW-style stride 2.
        let mut t = TouchVec::empty();
        for i in (0..16).step_by(2) {
            t.set(i);
        }
        t
    }

    fn ctx(pt: &PageTable) -> PrefetchCtx<'_> {
        PrefetchCtx {
            page_table: pt,
            memory_full: true,
        }
    }

    #[test]
    fn records_only_high_untouch_patterns() {
        let mut b = PatternBuffer::new();
        b.record(ChunkId(1), stride2_pattern()); // untouch = 8 → recorded
        assert!(b.contains(ChunkId(1)));
        let mut nearly_full = TouchVec::empty();
        for i in 0..9 {
            nearly_full.set(i);
        }
        // untouch = 7 < 8 → not recorded
        b.record(ChunkId(2), nearly_full);
        assert!(!b.contains(ChunkId(2)));
    }

    #[test]
    fn dense_re_eviction_removes_stale_pattern() {
        // §IV-C: "chunks without a fixed pattern are removed from the
        // buffer" — a densely-touched eviction episode proves the old
        // sparse pattern no longer holds.
        let mut b = PatternBuffer::new();
        b.record(ChunkId(1), stride2_pattern());
        b.record(ChunkId(1), TouchVec::full());
        assert!(!b.contains(ChunkId(1)));
    }

    #[test]
    fn match_prefetches_only_pattern_pages() {
        let mut p = PatternAwarePrefetcher::new();
        p.on_evict(ChunkId(0), stride2_pattern());
        let pt = PageTable::new();
        // Page 4 matches the stride-2 pattern.
        let plan = p.plan(VirtPage(4), &ctx(&pt));
        assert_eq!(plan.len(), 8);
        assert!(plan.iter().all(|pg| pg.0 % 2 == 0));
        assert!(plan.contains(&VirtPage(4)));
    }

    #[test]
    fn mismatch_prefetches_whole_chunk() {
        let mut p = PatternAwarePrefetcher::new();
        p.on_evict(ChunkId(0), stride2_pattern());
        let pt = PageTable::new();
        // Page 5 mismatches (odd).
        let plan = p.plan(VirtPage(5), &ctx(&pt));
        assert_eq!(plan.len(), 16);
    }

    #[test]
    fn scheme1_deletes_on_any_mismatch() {
        let mut p = PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme1);
        p.on_evict(ChunkId(0), stride2_pattern());
        let mut pt = PageTable::new();
        // First probe matches → pattern kept.
        let plan = p.plan(VirtPage(2), &ctx(&pt));
        for &pg in &plan {
            pt.map(pg, Frame(pg.0 as u32), false);
        }
        assert!(p.buffer().contains(ChunkId(0)));
        // Later mismatch deletes under Scheme-1.
        p.plan(VirtPage(5), &ctx(&pt));
        assert!(!p.buffer().contains(ChunkId(0)));
    }

    #[test]
    fn scheme2_keeps_pattern_after_first_match() {
        // Paper Fig. 6, access stream (2): 80001 (match), 80002 (mismatch).
        let mut p = PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme2);
        p.on_evict(ChunkId(0), stride2_pattern());
        let mut pt = PageTable::new();
        let plan = p.plan(VirtPage(2), &ctx(&pt)); // match on first search
        for &pg in &plan {
            pt.map(pg, Frame(pg.0 as u32), false);
        }
        let plan2 = p.plan(VirtPage(5), &ctx(&pt)); // mismatch, not first
        assert!(p.buffer().contains(ChunkId(0)), "Scheme-2 keeps pattern");
        // Whole chunk except already-resident pattern pages.
        assert_eq!(plan2.len(), 8);
        assert!(plan2.iter().all(|pg| pg.0 % 2 == 1));
    }

    #[test]
    fn scheme2_deletes_on_first_search_mismatch() {
        // Paper Fig. 6, access stream (1): 80002 mismatches immediately.
        let mut p = PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme2);
        p.on_evict(ChunkId(0), stride2_pattern());
        let pt = PageTable::new();
        p.plan(VirtPage(5), &ctx(&pt));
        assert!(!p.buffer().contains(ChunkId(0)));
    }

    #[test]
    fn miss_defaults_to_whole_chunk() {
        let mut p = PatternAwarePrefetcher::new();
        let pt = PageTable::new();
        assert_eq!(p.plan(VirtPage(100), &ctx(&pt)).len(), 16);
    }

    #[test]
    fn buffer_counters_track() {
        let mut p = PatternAwarePrefetcher::with_scheme(DeletionScheme::Scheme1);
        p.on_evict(ChunkId(0), stride2_pattern());
        p.on_evict(ChunkId(1), stride2_pattern());
        assert_eq!(p.pattern_buffer_len(), 2);
        assert_eq!(p.pattern_buffer_max_len(), 2);
        let pt = PageTable::new();
        p.plan(ChunkId(0).page(5), &ctx(&pt)); // mismatch → delete
        assert_eq!(p.pattern_buffer_len(), 1);
        assert_eq!(p.pattern_buffer_max_len(), 2);
        assert_eq!(p.buffer().deleted, 1);
        assert_eq!(p.buffer().recorded, 2);
    }

    #[test]
    fn re_recording_and_removal_keep_the_count_exact() {
        // Only new entries count, so `len` and the high-water mark (the
        // §VI-C overhead) match a map's.
        let mut b = PatternBuffer::new();
        b.record(ChunkId(3), stride2_pattern());
        b.record(ChunkId(3), stride2_pattern());
        assert_eq!((b.len(), b.max_len, b.recorded), (1, 1, 2));
        b.record(ChunkId(900), stride2_pattern()); // far past the table
        assert_eq!((b.len(), b.max_len), (2, 2));
        b.record(ChunkId(3), TouchVec::full()); // dense: removes
        b.record(ChunkId(4), TouchVec::full()); // dense, absent: no-op
        assert_eq!((b.len(), b.max_len), (1, 2));
        assert!(!b.contains(ChunkId(3)) && b.contains(ChunkId(900)));
        assert_eq!(
            b.probe(ChunkId(5000).page(0), DeletionScheme::Scheme1),
            ProbeResult::Miss
        );
    }

    #[test]
    fn probe_miss_on_unrecorded_chunk() {
        let mut b = PatternBuffer::new();
        assert_eq!(
            b.probe(VirtPage(3), DeletionScheme::Scheme2),
            ProbeResult::Miss
        );
    }
}
