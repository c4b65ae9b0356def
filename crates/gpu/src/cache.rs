//! GPU data-cache latency model.
//!
//! The simulator issues page-granular accesses, so the data caches are
//! modelled as *page-presence* caches that determine the latency of the
//! data access that follows a successful translation:
//!
//! * per-SM L1 (Table I: 48 KB → 12 pages, 2 sets × 6 ways) — hit: 4
//!   cycles,
//! * shared L2 (Table I: 3 MB → 768 pages, 48 sets × 16 ways) — hit:
//!   30 more cycles,
//! * GDDR5 on an L2 miss — [`Dram`]: 124 cycles on a row hit, 224 on a
//!   row miss, plus any channel queueing.
//!
//! This is intentionally coarse (the policies under study never see
//! cache state), but it makes compute-side latency locality-dependent
//! instead of constant, and evicted pages are invalidated so stale
//! residency never shortens a post-eviction re-access.
//!
//! Both levels sit on the hit path of *every* access, and every evicted
//! page is invalidated in all of them, so their layouts follow their
//! geometry:
//!
//! * the per-SM L1s are one flat `L1Bank`: a single `Vec<u64>` of
//!   page numbers laid out set-major, so an SM's 6-way set row is 48
//!   contiguous bytes and the same set of *every* SM is one contiguous
//!   `sms × 6`-word span. Rows are kept MRU-first (a hit moves its way
//!   to the front, a miss drops the LRU or an empty tail way and stores
//!   the page at the front, the ways between shifting back one word),
//!   which is exactly the seed's min-stamp true LRU;
//! * the L2 is a [`PageCache`] on the flat MRU-first rows shared with
//!   the TLBs ([`gmmu::assoc::LruRows`]): a hit scans one 16-way row of
//!   128 contiguous bytes, and the victim is the row's last way. Its
//!   48 × 16 geometry is a pair of const parameters, so the set index is
//!   a remainder by a constant (a multiply, not a `div`), and the hit
//!   latencies are constants too.
//!
//! The L1 bank counts its cached pages per chunk id (`ChunkCounts`, one
//! `u16` per chunk, summed across every SM). A fill adds one for the
//! page's chunk and takes one from the way it drops; a removal takes
//! one. Invalidation reads the counts to skip work on chunks no L1
//! holds, which is most of them: a victim chunk has usually not been
//! touched for longer than a cache keeps a page.
//!
//! The L2 keeps one presence bit per page instead ([`PageCache`]): set
//! on a fill, cleared on the fill's victim and on invalidation, so the
//! bit is set exactly when a row holds the page. A page-granular stream
//! rarely reuses the L2 (about 2 % of probes hit on the Fig. 9 sweep),
//! so most probes are misses that the bit answers without a row scan,
//! and an invalidation is one bit test.
//!
//! The driver evicts whole chunks, so a fault batch's evicted pages are
//! invalidated together ([`DataHierarchy::invalidate_evicted`]). Only
//! the batch's chunks that some L1 holds are marked, in a bitmap indexed
//! by chunk id, and one pass over each L1-bank set span that holds an
//! evicted page of a marked chunk — at most two — drops every page of a
//! marked chunk from every SM's row, keeping the survivors' order, at
//! one bit test per way. When no evicted chunk is held by an L1, which
//! is most batches, no span is swept at all (the chunk gate;
//! [`InvalidationCounts::spans_skipped`] counts the spans it saved).
//! That is exact because the caches only hold resident pages and an
//! eviction unmaps every resident page of its chunk, so a cached page of
//! an evicted chunk is always one of the batch's evicted pages, and a
//! chunk with no L1-held page has nothing to drop (`gpu::Invariants`
//! checks the first half, and that the counts and the L2's presence
//! bits match the rows, at every batch). The L2 stays per page, since
//! each page of a chunk sits in its own 16-way row, but it probes a row
//! only for a page whose presence bit is set.
//!
//! The seed's scan implementation is preserved as
//! [`legacy::ScanPageCache`] (the reference simulator's data caches,
//! [`crate::reference`]), and model-based tests drive both layouts
//! against it through random op streams — hit/miss results, victim
//! choices and counters must agree exactly (the golden fingerprints
//! depend on every latency this model returns).

use crate::dram::Dram;
use gmmu::assoc::LruRows;
use gmmu::page_table::FLAT_LIMIT;
use gmmu::types::{VirtPage, PAGES_PER_CHUNK};
use sim_core::stats::Counter;
use sim_core::time::Cycle;
use sim_core::BitVec;

/// Set-associative presence cache over pages with LRU replacement:
/// `SETS` rows of `WAYS` ways. The geometry is a type parameter, so the
/// set index of Table I's 48-set L2 is a remainder by a constant.
///
/// Beside the rows it keeps one bit per page, set exactly when a row
/// holds the page. A clear bit is a miss, which fills without a row
/// scan; only a hit scans its row, and an invalidation of an uncached
/// page is one bit test. Like the page table and the waiter table, the
/// bitmap covers pages below [`FLAT_LIMIT`]: a page at or past it has
/// no bit and always probes its row, so no page number sizes the
/// bitmap past `FLAT_LIMIT / 8` bytes.
#[derive(Debug)]
pub struct PageCache<const SETS: usize, const WAYS: usize> {
    sets: LruRows,
    /// Bit `p` set ⇔ a row holds page `p`, for `p < FLAT_LIMIT`.
    present: BitVec,
    /// Probes that scanned a row: the hits, and every probe of a page
    /// past the bitmap.
    row_scans: u64,
    /// Hits.
    pub hits: Counter,
    /// Misses (which allocate).
    pub misses: Counter,
}

/// How the L2's probes were answered. Checking aid only: no result or
/// fingerprint depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeCounts {
    /// Accesses probed.
    pub probes: u64,
    /// Probes a clear presence bit answered as a miss without a row
    /// scan.
    pub bitmap_misses: u64,
}

impl<const SETS: usize, const WAYS: usize> Default for PageCache<SETS, WAYS> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const SETS: usize, const WAYS: usize> PageCache<SETS, WAYS> {
    /// `SETS × WAYS` empty page slots.
    ///
    /// # Panics
    /// Panics on zero sets or zero ways.
    #[must_use]
    pub fn new() -> Self {
        PageCache {
            sets: LruRows::new(SETS, WAYS),
            present: BitVec::default(),
            row_scans: 0,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    #[inline]
    fn set_index(page: VirtPage) -> usize {
        (page.0 % SETS as u64) as usize
    }

    /// Access `page`: returns true on a hit; a miss allocates.
    #[inline]
    pub fn access(&mut self, page: VirtPage) -> bool {
        let set = Self::set_index(page);
        if page.0 < FLAT_LIMIT && !self.present.get(page.0 as usize) {
            self.misses.inc();
            self.fill(set, page);
            return false;
        }
        self.row_scans += 1;
        if self.sets.get(set, page.0) {
            self.hits.inc();
            return true;
        }
        debug_assert!(page.0 >= FLAT_LIMIT, "presence bit of uncached {page:?}");
        self.misses.inc();
        self.fill(set, page);
        false
    }

    /// Store `page`, which no row holds, in its row, moving the presence
    /// bit from the dropped way to `page`.
    #[inline]
    fn fill(&mut self, set: usize, page: VirtPage) {
        if page.0 < FLAT_LIMIT {
            self.present.set(page.0 as usize, true);
        }
        if let Some(victim) = self.sets.fill(set, page.0) {
            // Clearing a bit past the end never grows the vector.
            self.present.set(victim as usize, false);
        }
    }

    /// Drop `page` (device-memory eviction invalidates cached data).
    /// Probes the row only when `page` is cached or past the bitmap.
    #[inline]
    pub fn invalidate(&mut self, page: VirtPage) {
        if page.0 >= FLAT_LIMIT {
            self.sets.remove(Self::set_index(page), page.0);
        } else if self.present.take(page.0 as usize) {
            let held = self.sets.remove(Self::set_index(page), page.0);
            debug_assert!(held, "presence bit of uncached {page:?}");
        }
    }

    /// Whether `page` is cached (no LRU update).
    #[must_use]
    pub fn contains(&self, page: VirtPage) -> bool {
        self.sets.peek(Self::set_index(page), page.0)
    }

    /// Every cached page (no LRU update).
    pub fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.sets.iter().map(VirtPage)
    }

    /// How the probes so far were answered.
    #[must_use]
    pub fn probe_counts(&self) -> ProbeCounts {
        let probes = self.hits.get() + self.misses.get();
        ProbeCounts {
            probes,
            bitmap_misses: probes - self.row_scans,
        }
    }

    /// Whether the presence bits are exactly the cached pages below
    /// [`FLAT_LIMIT`]: every such page's bit is set and no other bit is.
    #[must_use]
    pub fn presence_consistent(&self) -> bool {
        let mut near = 0;
        for p in self.pages().filter(|p| p.0 < FLAT_LIMIT) {
            if !self.present.get(p.0 as usize) {
                return false;
            }
            near += 1;
        }
        near == self.present.count_ones()
    }
}

/// Cached pages per chunk id, kept beside the L1 bank's rows so that
/// invalidation can skip a chunk no L1 holds. Ids past the end have
/// none. A `u16` holds the most the bank holds of one chunk: 12 pages
/// per SM (756 at the 63-SM limit of `GpuConfig::validate`).
#[derive(Debug, Default)]
struct ChunkCounts(Vec<u16>);

impl ChunkCounts {
    /// One more cached page of `page`'s chunk.
    #[inline]
    fn add(&mut self, page: u64) {
        let chunk = (page / PAGES_PER_CHUNK) as usize;
        if chunk >= self.0.len() {
            self.grow(chunk);
        }
        self.0[chunk] += 1;
    }

    #[cold]
    fn grow(&mut self, chunk: usize) {
        self.0.resize(chunk + 1, 0);
    }

    /// One fewer cached page of `page`'s chunk, which holds one.
    #[inline]
    fn remove(&mut self, page: u64) {
        self.0[(page / PAGES_PER_CHUNK) as usize] -= 1;
    }

    /// Whether any page of `page`'s chunk is cached.
    #[inline]
    fn any(&self, page: u64) -> bool {
        self.0
            .get((page / PAGES_PER_CHUNK) as usize)
            .is_some_and(|&n| n > 0)
    }

    /// Whether the counts are exactly those of `pages`, the cache's
    /// contents, one entry per cached copy.
    fn matches(&self, pages: impl Iterator<Item = VirtPage>) -> bool {
        let mut want = vec![0u16; self.0.len()];
        for p in pages {
            match want.get_mut(p.chunk().0 as usize) {
                Some(n) => *n += 1,
                None => return false,
            }
        }
        want == self.0
    }
}

/// Table I's per-SM L1: 48 KB = 12 pages, as this many sets…
pub(crate) const L1_SETS: usize = 2;
/// …of this many ways.
pub(crate) const L1_WAYS: usize = 6;
/// Table I's shared L2: 3 MB = 768 pages, 16-way set-associative, so
/// this many sets…
pub(crate) const L2_SETS: usize = 768 / L2_WAYS;
/// …of this many ways.
pub(crate) const L2_WAYS: usize = 16;
/// L1 hit latency, cycles.
pub(crate) const L1_HIT: u64 = 4;
/// Extra latency of an L2 hit after the L1 miss, cycles.
pub(crate) const L2_HIT: u64 = 30;
/// Marks an empty L1 way; empty ways always sit at a row's tail.
const EMPTY: u64 = u64::MAX;

/// Every SM's L1 presence cache in one flat, set-major array of page
/// numbers: SM `sm`'s row for set `s` is
/// `ways[(s * sms + sm) * L1_WAYS..][..L1_WAYS]`, most recently used
/// first. A row's order is its LRU order, so the seed's min-stamp
/// victim is always the last way.
#[derive(Debug)]
struct L1Bank {
    sms: usize,
    ways: Vec<u64>,
    /// Pages held per chunk, summed over every SM's rows.
    chunk_pages: ChunkCounts,
}

impl L1Bank {
    fn new(sms: usize) -> Self {
        L1Bank {
            sms,
            ways: vec![EMPTY; L1_SETS * sms * L1_WAYS],
            chunk_pages: ChunkCounts::default(),
        }
    }

    /// Words holding set `page mod L1_SETS` for every SM.
    #[inline]
    fn set_span(&self, page: VirtPage) -> std::ops::Range<usize> {
        let row = self.sms * L1_WAYS;
        let start = (page.0 % L1_SETS as u64) as usize * row;
        start..start + row
    }

    /// Access `page` from SM `sm`: returns true on a hit; a miss
    /// allocates, displacing the LRU way when the row is full.
    #[inline]
    fn access(&mut self, sm: usize, page: VirtPage) -> bool {
        debug_assert!(sm < self.sms && page.0 != EMPTY);
        let start = self.set_span(page).start + sm * L1_WAYS;
        let row = &mut self.ways[start..start + L1_WAYS];
        // A hit moves its way to the front; a miss moves the last (LRU
        // or empty) way there. Either way the ways before it shift back.
        let hit = row.iter().position(|&p| p == page.0);
        if hit.is_none() {
            let dropped = row[L1_WAYS - 1];
            if dropped != EMPTY {
                self.chunk_pages.remove(dropped);
            }
            self.chunk_pages.add(page.0);
        }
        row.copy_within(..hit.unwrap_or(L1_WAYS - 1), 1);
        row[0] = page.0;
        hit.is_some()
    }

    /// Drop every page of the chunks marked in `gone` from each SM's
    /// row of set `set` in one pass over its span, keeping the
    /// survivors' order.
    fn invalidate_chunks(&mut self, set: usize, gone: &BitVec) {
        // An empty way's chunk lies past any marked one, so it reads as
        // kept.
        let gone = |p: u64| gone.get((p / PAGES_PER_CHUNK) as usize);
        let span = self.sms * L1_WAYS;
        for row in self.ways[set * span..][..span].chunks_exact_mut(L1_WAYS) {
            // Empty ways sit at the tail, so whether one is kept or
            // dropped, the row ends in the same empties.
            let mut kept = 0;
            for i in 0..L1_WAYS {
                let p = row[i];
                if gone(p) {
                    self.chunk_pages.remove(p);
                } else {
                    row[kept] = p;
                    kept += 1;
                }
            }
            row[kept..].fill(EMPTY);
        }
    }

    /// Drop `page` from every SM's row, keeping the survivors' order.
    /// Returns false, without a pass over the span, when no SM holds a
    /// page of `page`'s chunk.
    #[inline]
    fn invalidate(&mut self, page: VirtPage) -> bool {
        if !self.chunk_pages.any(page.0) {
            return false;
        }
        let span = self.set_span(page);
        for row in self.ways[span].chunks_exact_mut(L1_WAYS) {
            if let Some(i) = row.iter().position(|&p| p == page.0) {
                row.copy_within(i + 1.., i);
                row[L1_WAYS - 1] = EMPTY;
                self.chunk_pages.remove(page.0);
            }
        }
        true
    }

    /// Whether any SM holds `page` (no LRU update).
    fn holds(&self, page: VirtPage) -> bool {
        self.ways[self.set_span(page)].contains(&page.0)
    }

    /// Every page some SM holds, once per holder (no LRU update).
    fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.ways
            .iter()
            .filter(|&&p| p != EMPTY)
            .map(|&p| VirtPage(p))
    }
}

/// How data-cache invalidation did its work. Checking aid only: no
/// result or fingerprint depends on it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InvalidationCounts {
    /// Evicted pages invalidated.
    pub pages: u64,
    /// Passes over an L1-bank set span (`sms × 6` words): one per page
    /// on the per-page path, at most two per batch on the chunk path.
    pub span_passes: u64,
    /// Span passes the chunk gate skipped because no L1 held a page of
    /// the evicted chunk: a per-page invalidation skipped whole, or a
    /// batch's sweep skipped or narrowed. With `span_passes` it adds up
    /// to one per per-page invalidation plus, per batch, the distinct
    /// set spans of its evicted pages.
    pub spans_skipped: u64,
}

/// The two-level data-cache hierarchy backed by the GDDR5 channel
/// model ([`Dram`]).
#[derive(Debug)]
pub struct DataHierarchy {
    l1: L1Bank,
    l2: PageCache<L2_SETS, L2_WAYS>,
    dram: Dram,
    /// Scratch: one bit per chunk id, set for the chunks of the batch
    /// being invalidated and cleared again after it.
    gone: BitVec,
    invalidations: InvalidationCounts,
}

impl DataHierarchy {
    /// Table I-ish defaults for `sms` SMs.
    #[must_use]
    pub fn new(sms: usize) -> Self {
        DataHierarchy {
            l1: L1Bank::new(sms),
            l2: PageCache::new(),
            dram: Dram::new(),
            gone: BitVec::default(),
            invalidations: InvalidationCounts::default(),
        }
    }

    /// Latency of a data access from SM `sm` to `page` at time `now`.
    #[inline]
    pub fn access(&mut self, sm: usize, page: VirtPage, now: Cycle) -> u64 {
        if self.l1.access(sm, page) {
            L1_HIT
        } else if self.l2.access(page) {
            L1_HIT + L2_HIT
        } else {
            L1_HIT + L2_HIT + self.dram.access(page, now)
        }
    }

    /// DRAM row-buffer statistics.
    #[must_use]
    pub fn dram_stats(&self) -> (u64, u64) {
        (self.dram.row_hits.get(), self.dram.row_misses.get())
    }

    /// Invalidate an evicted page everywhere.
    pub fn invalidate(&mut self, page: VirtPage) {
        if self.l1.invalidate(page) {
            self.invalidations.span_passes += 1;
        } else {
            self.invalidations.spans_skipped += 1;
        }
        self.l2.invalidate(page);
        self.invalidations.pages += 1;
    }

    /// Invalidate a fault batch's evicted pages everywhere. Leaves every
    /// cache exactly as [`invalidate`](DataHierarchy::invalidate) of each
    /// page would, provided the caches hold only resident pages and
    /// `pages` lists every page the batch unmapped, as the driver's
    /// whole-chunk evictions do: each L1-bank set span holding an evicted
    /// page of a chunk some L1 holds is then swept once for every page of
    /// those chunks, and no span is swept when no L1 holds one.
    pub fn invalidate_evicted(&mut self, pages: &[VirtPage]) {
        let [first, rest @ ..] = pages else {
            return;
        };
        if rest.is_empty() {
            self.invalidate(*first);
            return;
        }
        // Set spans the batch names, and those holding a page of an
        // L1-held chunk: only the latter need a sweep.
        let (mut named, mut sets) = (0u32, 0u32);
        for p in pages {
            let set = 1 << (p.0 % L1_SETS as u64);
            named |= set;
            if self.l1.chunk_pages.any(p.0) {
                self.gone.set(p.chunk().0 as usize, true);
                sets |= set;
            }
        }
        for set in 0..L1_SETS {
            if sets & 1 << set != 0 {
                self.l1.invalidate_chunks(set, &self.gone);
            }
        }
        self.invalidations.span_passes += u64::from(sets.count_ones());
        self.invalidations.spans_skipped += u64::from((named & !sets).count_ones());
        for &page in pages {
            self.gone.set(page.chunk().0 as usize, false);
            self.l2.invalidate(page);
        }
        self.invalidations.pages += pages.len() as u64;
    }

    /// How invalidation so far did its work.
    #[must_use]
    pub fn invalidation_counts(&self) -> InvalidationCounts {
        self.invalidations
    }

    /// Every page an L1 or the L2 holds; a page several SMs hold comes
    /// once per holder. Read-only: no LRU state or counter changes.
    pub fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.l1.pages().chain(self.l2.pages())
    }

    /// Whether the state that lets a probe or invalidation skip a row
    /// matches the rows: the L1 bank's per-chunk page counts, and the
    /// L2's presence bits ([`PageCache::presence_consistent`]).
    #[must_use]
    pub fn gates_consistent(&self) -> bool {
        self.l1.chunk_pages.matches(self.l1.pages()) && self.l2.presence_consistent()
    }

    /// How the L2's probes so far were answered.
    #[must_use]
    pub fn l2_probe_counts(&self) -> ProbeCounts {
        self.l2.probe_counts()
    }

    /// Whether any L1 or the L2 holds `page`. Read-only: no LRU state
    /// or counter changes.
    #[must_use]
    pub fn holds(&self, page: VirtPage) -> bool {
        self.l1.holds(page) || self.l2.contains(page)
    }
}

/// The seed's scan-based presence cache, kept verbatim as the
/// equivalence oracle for the row implementations and the data caches
/// of the reference simulator.
pub mod legacy {
    use super::{Counter, VirtPage};

    /// Way-scanning presence cache with min-stamp LRU replacement.
    #[derive(Debug)]
    pub struct ScanPageCache {
        sets: Vec<Vec<(VirtPage, u64)>>,
        n_sets: usize,
        assoc: usize,
        tick: u64,
        /// Hits.
        pub hits: Counter,
        /// Misses (which allocate).
        pub misses: Counter,
    }

    impl ScanPageCache {
        /// `entries` total page slots, `assoc` ways.
        ///
        /// # Panics
        /// Panics on degenerate geometry.
        #[must_use]
        pub fn new(entries: usize, assoc: usize) -> Self {
            assert!(entries > 0 && assoc > 0 && entries.is_multiple_of(assoc));
            let n_sets = entries / assoc;
            ScanPageCache {
                sets: (0..n_sets).map(|_| Vec::with_capacity(assoc)).collect(),
                n_sets,
                assoc,
                tick: 0,
                hits: Counter::default(),
                misses: Counter::default(),
            }
        }

        /// Access `page`: returns true on a hit; a miss allocates.
        pub fn access(&mut self, page: VirtPage) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let set = (page.0 % self.n_sets as u64) as usize;
            let ways = &mut self.sets[set];
            if let Some(w) = ways.iter_mut().find(|(p, _)| *p == page) {
                w.1 = tick;
                self.hits.inc();
                return true;
            }
            self.misses.inc();
            if ways.len() == self.assoc {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(i, _)| i)
                    .expect("full set");
                ways.swap_remove(lru);
            }
            ways.push((page, tick));
            false
        }

        /// Drop `page`.
        pub fn invalidate(&mut self, page: VirtPage) {
            let set = (page.0 % self.n_sets as u64) as usize;
            self.sets[set].retain(|(p, _)| *p != page);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = PageCache::<2, 2>::new();
        assert!(!c.access(VirtPage(0)));
        assert!(c.access(VirtPage(0)));
        assert_eq!(c.hits.get(), 1);
        assert_eq!(c.misses.get(), 1);
    }

    #[test]
    fn lru_within_set() {
        let mut c = PageCache::<1, 2>::new();
        c.access(VirtPage(0));
        c.access(VirtPage(1));
        c.access(VirtPage(0)); // 1 is LRU
        c.access(VirtPage(2)); // evicts 1
        assert!(c.access(VirtPage(0)));
        assert!(!c.access(VirtPage(1)));
    }

    #[test]
    fn invalidate_forces_miss() {
        let mut c = PageCache::<2, 2>::new();
        c.access(VirtPage(3));
        c.invalidate(VirtPage(3));
        assert!(!c.access(VirtPage(3)));
    }

    #[test]
    fn hierarchy_latencies_order() {
        let mut h = DataHierarchy::new(2);
        let cold = h.access(0, VirtPage(0), Cycle::ZERO); // L1+L2 miss → DRAM row miss
        let warm = h.access(0, VirtPage(0), Cycle(10_000)); // L1 hit
        assert_eq!(cold, 4 + 30 + 160 + 64);
        assert_eq!(warm, 4);
        // Other SM: L1 miss, L2 hit.
        let shared = h.access(1, VirtPage(0), Cycle(20_000));
        assert_eq!(shared, 4 + 30);
    }

    #[test]
    fn hierarchy_invalidation_is_global() {
        let mut h = DataHierarchy::new(2);
        h.access(0, VirtPage(7), Cycle::ZERO);
        h.access(1, VirtPage(7), Cycle(10_000));
        h.invalidate(VirtPage(7));
        // Re-access goes to DRAM again (row now open → row hit).
        assert_eq!(h.access(0, VirtPage(7), Cycle(20_000)), 4 + 30 + 60 + 64);
    }

    /// Model-based equivalence: both implementations must agree on
    /// every hit/miss result and on the counters — the victim choice is
    /// observable through later hits/misses, so a long random stream
    /// over a page range larger than capacity exercises it.
    fn matches_scan_cache<const SETS: usize, const WAYS: usize>() {
        let mut step = xorshift(0x1234_5678_9ABC_DEF0);
        let entries = SETS * WAYS;
        let mut fast = PageCache::<SETS, WAYS>::new();
        let mut slow = legacy::ScanPageCache::new(entries, WAYS);
        for op in 0..200_000u64 {
            let r = step();
            let page = VirtPage(r % (entries as u64 * 3));
            if r.is_multiple_of(13) {
                fast.invalidate(page);
                slow.invalidate(page);
            } else {
                let (f, s) = (fast.access(page), slow.access(page));
                assert_eq!(f, s, "op {op}: {SETS}x{WAYS} diverged on {page:?}");
            }
            if op % 1000 == 0 {
                assert!(fast.presence_consistent(), "op {op}: {SETS}x{WAYS} bitmap");
            }
        }
        assert_eq!(fast.hits.get(), slow.hits.get());
        assert_eq!(fast.misses.get(), slow.misses.get());
        assert!(fast.presence_consistent());
        let counts = fast.probe_counts();
        assert_eq!(counts.probes, fast.hits.get() + fast.misses.get());
        assert_eq!(
            counts.bitmap_misses,
            fast.misses.get(),
            "every miss skips the scan"
        );
    }

    #[test]
    fn indexed_cache_matches_scan_cache_on_random_ops() {
        matches_scan_cache::<2, 6>();
        matches_scan_cache::<L2_SETS, L2_WAYS>();
        matches_scan_cache::<1, 4>();
    }

    /// Pages at or past `FLAT_LIMIT` have no presence bit: they probe
    /// their row, evict and are evicted by pages below it, and never
    /// size the bitmap. Mixed with pages below the limit in one small
    /// cache, every result matches the scan cache and the bits stay
    /// exact.
    #[test]
    fn pages_past_the_bitmap_probe_their_row() {
        let mut c = PageCache::<2, 2>::new();
        let far = VirtPage(u64::MAX - 1);
        assert!(!c.access(far) && c.access(far));
        c.invalidate(far);
        assert!(!c.contains(far) && !c.access(far));
        assert_eq!(c.present.len(), 0, "no bit for a far page");
        assert_eq!(c.probe_counts().bitmap_misses, 0);

        let mut step = xorshift(0x3C6E_F372_FE94_F82B);
        let mut fast = PageCache::<2, 3>::new();
        let mut slow = legacy::ScanPageCache::new(6, 3);
        let (mut near_victims, mut far_victims) = (0, 0);
        for op in 0..100_000u64 {
            let r = step();
            let base = if r.is_multiple_of(2) { 0 } else { FLAT_LIMIT };
            let page = VirtPage(base + (r >> 8) % 12);
            if (r >> 4).is_multiple_of(9) {
                fast.invalidate(page);
                slow.invalidate(page);
            } else {
                let held: Vec<_> = fast.pages().collect();
                let (f, s) = (fast.access(page), slow.access(page));
                assert_eq!(f, s, "op {op}: diverged on {page:?}");
                if let Some(gone) = held.iter().find(|&&p| !fast.contains(p)) {
                    let (victim_far, page_far) = (gone.0 >= FLAT_LIMIT, page.0 >= FLAT_LIMIT);
                    near_victims += u64::from(page_far && !victim_far);
                    far_victims += u64::from(!page_far && victim_far);
                }
            }
            assert!(fast.presence_consistent(), "op {op}");
        }
        assert!(
            near_victims > 1000 && far_victims > 1000,
            "{near_victims} {far_victims}"
        );
        assert!(fast.present.len() <= 12, "{} bits", fast.present.len());
    }

    /// xorshift64 stream for the model-based tests.
    fn xorshift(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    #[test]
    fn l1_bank_matches_per_sm_scan_caches() {
        // The bank must behave exactly like `sms` independent seed
        // caches: same hit/miss on every access, and invalidation must
        // reach every SM without disturbing the survivors' LRU order.
        for sms in [1, 4, 28] {
            let mut step = xorshift(0x9E37_79B9_7F4A_7C15 ^ sms as u64);
            let mut bank = L1Bank::new(sms);
            let mut oracle: Vec<_> = (0..sms)
                .map(|_| legacy::ScanPageCache::new(L1_SETS * L1_WAYS, L1_WAYS))
                .collect();
            let pages = (L1_SETS * L1_WAYS * 3) as u64;
            for op in 0..300_000u64 {
                let r = step();
                let page = VirtPage((r >> 8) % pages);
                if r.is_multiple_of(11) {
                    bank.invalidate(page);
                    for o in &mut oracle {
                        o.invalidate(page);
                    }
                } else {
                    let sm = (r >> 40) as usize % sms;
                    let (f, s) = (bank.access(sm, page), oracle[sm].access(page));
                    assert_eq!(f, s, "op {op}: {sms} SMs diverged on SM {sm} {page:?}");
                }
                if op % 1000 == 0 {
                    assert!(bank.chunk_pages.matches(bank.pages()), "op {op}: counts");
                }
            }
        }
    }

    #[test]
    fn hierarchy_matches_scan_oracle_hierarchy() {
        // Latencies of the whole hierarchy against the seed's layout: one
        // scan cache per SM, a scan L2 and the nested-`Vec` DRAM model.
        for sms in [1, 4, 28] {
            let mut step = xorshift(0xC0FF_EE00_D15E_A5E5 ^ sms as u64);
            let mut h = DataHierarchy::new(sms);
            let mut l1: Vec<_> = (0..sms)
                .map(|_| legacy::ScanPageCache::new(L1_SETS * L1_WAYS, L1_WAYS))
                .collect();
            let mut l2 = legacy::ScanPageCache::new(L2_SETS * L2_WAYS, L2_WAYS);
            let mut dram = crate::dram::legacy::VecDram::default();
            let pages = (L2_SETS * L2_WAYS * 2) as u64;
            let mut now = 0u64;
            for op in 0..200_000u64 {
                let r = step();
                // Skewed pages so the L1s and L2 see reuse as well as churn.
                let page = VirtPage((r >> 8) % if r.is_multiple_of(3) { pages } else { 40 });
                if r.is_multiple_of(17) {
                    h.invalidate(page);
                    for c in &mut l1 {
                        c.invalidate(page);
                    }
                    l2.invalidate(page);
                    assert!(!h.holds(page));
                    continue;
                }
                now += (r >> 48) % 64;
                let sm = (r >> 32) as usize % sms;
                let want = if l1[sm].access(page) {
                    4
                } else if l2.access(page) {
                    4 + 30
                } else {
                    4 + 30 + dram.access(page, Cycle(now))
                };
                assert_eq!(h.access(sm, page, Cycle(now)), want, "op {op}: {sms} SMs");
                assert!(h.holds(page));
            }
            assert_eq!(h.dram_stats(), (dram.row_hits.get(), dram.row_misses.get()));
        }
    }

    /// Chunk-granular invalidation against per-page invalidation on twin
    /// hierarchies. Pages become resident on first access (the fault
    /// migrates them) and a batch evicts every resident page of one to
    /// three chunks — sometimes re-mapping half of a chunk it just
    /// evicted and evicting that chunk again, and sometimes a chunk of a
    /// sparse region holding a single page. Rows, every later latency
    /// and the DRAM statistics must agree.
    #[test]
    fn invalidate_evicted_matches_per_page_invalidate() {
        /// Unmap every resident page of `chunk`, listing it in `batch`.
        fn evict(resident: &mut [bool], chunk: u64, batch: &mut Vec<VirtPage>) {
            for p in chunk * PAGES_PER_CHUNK..(chunk + 1) * PAGES_PER_CHUNK {
                if std::mem::take(&mut resident[p as usize]) {
                    batch.push(VirtPage(p));
                }
            }
        }
        const CHUNKS: u64 = 96;
        /// Chunks from here on are sparse: only their first page is used.
        const SPARSE: u64 = 64;
        for sms in [1, 4, 28] {
            let mut step = xorshift(0xD1B5_4A32_D192_ED03 ^ sms as u64);
            let mut bulk = DataHierarchy::new(sms);
            let mut single = DataHierarchy::new(sms);
            let mut resident = vec![false; (CHUNKS * PAGES_PER_CHUNK) as usize];
            let mut batch = Vec::new();
            let (mut now, mut one_page, mut multi_chunk, mut remapped) = (0, 0, 0, 0);
            for op in 0..150_000u64 {
                let r = step();
                if r.is_multiple_of(24) {
                    batch.clear();
                    let n = 1 + (r >> 8) % 3;
                    for k in 0..n {
                        let chunk = (r >> (12 + 10 * k)) % CHUNKS;
                        evict(&mut resident, chunk, &mut batch);
                        if (r >> 50).is_multiple_of(4) {
                            remapped += 1;
                            let first = chunk * PAGES_PER_CHUNK;
                            for p in (first..first + PAGES_PER_CHUNK).step_by(2) {
                                resident[p as usize] = true;
                            }
                            if (r >> 56).is_multiple_of(2) {
                                evict(&mut resident, chunk, &mut batch);
                            }
                        }
                    }
                    bulk.invalidate_evicted(&batch);
                    for &p in &batch {
                        single.invalidate(p);
                    }
                    one_page += u64::from(batch.len() == 1);
                    let first = batch.first().map(|p| p.chunk());
                    multi_chunk += u64::from(batch.iter().any(|p| Some(p.chunk()) != first));
                    assert!(bulk.pages().eq(single.pages()), "op {op}: rows differ");
                    assert!(bulk.gates_consistent() && single.gates_consistent());
                    assert!(bulk.pages().all(|p| resident[p.0 as usize]));
                    continue;
                }
                let chunk = (r >> 8) % CHUNKS;
                let offset = if chunk < SPARSE {
                    (r >> 16) % PAGES_PER_CHUNK
                } else {
                    0
                };
                let page = VirtPage(chunk * PAGES_PER_CHUNK + offset);
                resident[page.0 as usize] = true;
                now += (r >> 48) % 64;
                let sm = (r >> 32) as usize % sms;
                assert_eq!(
                    bulk.access(sm, page, Cycle(now)),
                    single.access(sm, page, Cycle(now)),
                    "op {op}: {sms} SMs, {page:?}"
                );
            }
            assert_eq!(bulk.dram_stats(), single.dram_stats());
            let (b, s) = (bulk.invalidation_counts(), single.invalidation_counts());
            assert_eq!(b.pages, s.pages);
            // Passes before the chunk gate: one per page on the per-page
            // path, at most two per batch on the chunk path.
            let ungated = |c: InvalidationCounts| c.span_passes + c.spans_skipped;
            assert_eq!(ungated(s), s.pages);
            assert!(ungated(b) < ungated(s) / 4, "{b:?} vs {s:?}");
            assert!(b.span_passes > 0 && b.spans_skipped > 0, "{b:?}");
            for (what, n) in [("one-page", one_page), ("multi-chunk", multi_chunk)] {
                assert!(n > 100, "{sms} SMs: {n} {what} batches");
            }
            assert!(remapped > 100, "{sms} SMs: {remapped} re-mapped chunks");
        }
    }

    #[test]
    fn empty_batch_does_nothing() {
        let mut h = DataHierarchy::new(2);
        h.access(0, VirtPage(3), Cycle::ZERO);
        h.invalidate_evicted(&[]);
        assert_eq!(h.invalidation_counts(), InvalidationCounts::default());
        assert!(h.holds(VirtPage(3)));
    }

    #[test]
    fn holds_is_read_only() {
        let mut h = DataHierarchy::new(2);
        // Fill SM 0's set-0 row: pages 0, 2, …, 10 (page 0 is LRU).
        for p in (0..12).step_by(2) {
            h.access(0, VirtPage(p), Cycle::ZERO);
        }
        assert!(h.holds(VirtPage(0)));
        assert!(!h.holds(VirtPage(1)));
        // Had `holds` refreshed page 0, page 2 would be the victim here.
        h.access(0, VirtPage(12), Cycle::ZERO);
        assert!(h.holds(VirtPage(2)));
        assert_eq!(h.access(0, VirtPage(2), Cycle(10_000)), 4);
        assert_eq!(h.access(0, VirtPage(0), Cycle(20_000)), 4 + 30);
    }
}
