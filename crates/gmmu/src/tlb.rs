//! Set-associative, LRU-replacement TLB.
//!
//! One structure serves both levels of the paper's hierarchy:
//! * per-SM private L1 TLB — 128 entries, 1-cycle hit latency,
//! * shared L2 TLB — 512 entries, 16-way, 10-cycle hit latency.
//!
//! A TLB row records which [`VirtPage`]s it holds, not their frames: a
//! lookup answers hit or miss, and a capacity victim comes back as a
//! page. `TranslationPath` reads a hit's frame from the page table,
//! which is exact because a resident page's frame never changes and
//! unmapping a page shoots it down from every TLB first. Evicting a page
//! from GPU memory goes through [`Tlb::invalidate`] or
//! [`Tlb::invalidate_chunk`].
//!
//! Ways live in [`LruRows`]: each set is one contiguous row of page
//! numbers kept most-recently-used first, so a probe is one row scan and
//! the replacement victim is the row's last way. That order is exactly
//! the seed's min-stamp true LRU — `legacy::ScanTlb` keeps the
//! frame-caching scan implementation alive and a model test drives both
//! through random op streams to prove every hit, miss and victim choice
//! identical, and every frame the scan TLB returns equal to the one a
//! page table would give. The 128-way L1 is scanned only when the page's
//! TLB presence mask says the L1 may hold it; `TranslationPath` counts
//! every other probe as a miss without touching the row.

use crate::assoc::LruRows;
use crate::types::{ChunkId, VirtPage, PAGES_PER_CHUNK};
use sim_core::error::ConfigError;
use sim_core::stats::Counter;

/// TLB geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Total entries.
    pub entries: usize,
    /// Ways per set (`entries` for fully associative).
    pub associativity: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
}

impl TlbConfig {
    /// Table I per-SM L1 TLB: 128 entries, single port, 1-cycle, LRU.
    /// Associativity is unspecified in the paper; we model it fully
    /// associative, which is common for small first-level TLBs.
    #[must_use]
    pub fn l1_default() -> Self {
        TlbConfig {
            entries: 128,
            associativity: 128,
            hit_latency: 1,
        }
    }

    /// Table I shared L2 TLB: 512 entries, 16-way, 10-cycle, LRU.
    #[must_use]
    pub fn l2_default() -> Self {
        TlbConfig {
            entries: 512,
            associativity: 16,
            hit_latency: 10,
        }
    }

    /// Check the geometry [`Tlb::new`] needs: nonzero entries and ways,
    /// entries a multiple of ways, and a power-of-two set count. Errors
    /// name the fields `names = [entries, associativity, set count]`.
    pub(crate) fn validate(&self, names: [&'static str; 3]) -> Result<(), ConfigError> {
        let [entries, associativity, sets] = names;
        if self.entries == 0 {
            return Err(ConfigError::Zero { field: entries });
        }
        if self.associativity == 0 {
            return Err(ConfigError::Zero {
                field: associativity,
            });
        }
        if !self.entries.is_multiple_of(self.associativity) {
            return Err(ConfigError::NotMultiple {
                field: entries,
                value: self.entries,
                of: self.associativity,
            });
        }
        let n_sets = self.entries / self.associativity;
        if !n_sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: sets,
                value: n_sets,
            });
        }
        Ok(())
    }
}

/// A set-associative presence TLB with true-LRU replacement.
#[derive(Debug)]
pub struct Tlb {
    cfg: TlbConfig,
    sets: LruRows,
    /// Set count − 1 (the set count is a power of two).
    set_mask: u64,
    /// Lookup hits.
    pub hits: Counter,
    /// Lookup misses.
    pub misses: Counter,
}

impl Tlb {
    /// Build a TLB from `cfg`.
    ///
    /// # Panics
    /// Panics if the geometry is degenerate (zero entries, entries not
    /// divisible by associativity, or a set count that is not a power of
    /// two); `GpuConfig::validate` rejects such a geometry with a typed
    /// error first.
    #[must_use]
    pub fn new(cfg: TlbConfig) -> Self {
        assert!(cfg.entries > 0 && cfg.associativity > 0);
        assert!(
            cfg.entries.is_multiple_of(cfg.associativity),
            "entries {} not divisible by associativity {}",
            cfg.entries,
            cfg.associativity
        );
        let n_sets = cfg.entries / cfg.associativity;
        assert!(n_sets.is_power_of_two(), "{n_sets} TLB sets");
        Tlb {
            cfg,
            sets: LruRows::new(n_sets, cfg.associativity),
            set_mask: n_sets as u64 - 1,
            hits: Counter::default(),
            misses: Counter::default(),
        }
    }

    #[inline]
    fn set_index(&self, page: VirtPage) -> usize {
        (page.0 & self.set_mask) as usize
    }

    /// Look up `page`, updating LRU state and hit/miss counters.
    /// Returns whether the TLB holds it.
    #[inline]
    pub fn lookup(&mut self, page: VirtPage) -> bool {
        let hit = self.sets.get(self.set_index(page), page.0);
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
        hit
    }

    /// [`lookup`](Tlb::lookup) for a caller that knows whether `page`
    /// may be present: `false` counts the miss without scanning.
    #[inline]
    pub(crate) fn lookup_if(&mut self, may_hold: bool, page: VirtPage) -> bool {
        if may_hold {
            self.lookup(page)
        } else {
            self.misses.inc();
            false
        }
    }

    /// Whether the TLB holds `page`, without touching LRU state or
    /// counters (used by tests and coherence checks).
    #[must_use]
    pub fn probe(&self, page: VirtPage) -> bool {
        self.sets.peek(self.set_index(page), page.0)
    }

    /// Install (or refresh) `page`, evicting the set's LRU way if the
    /// set is full. Returns the victim page, if any.
    #[inline]
    pub fn insert(&mut self, page: VirtPage) -> Option<VirtPage> {
        self.sets.insert(self.set_index(page), page.0).map(VirtPage)
    }

    /// [`insert`](Tlb::insert) of a page the caller knows is absent (its
    /// lookup just missed): skips the existence scan.
    #[inline]
    pub(crate) fn fill(&mut self, page: VirtPage) -> Option<VirtPage> {
        self.sets.fill(self.set_index(page), page.0).map(VirtPage)
    }

    /// Shoot down the translation for `page`. Returns true if present.
    pub fn invalidate(&mut self, page: VirtPage) -> bool {
        self.sets.remove(self.set_index(page), page.0)
    }

    /// Shoot down every translation of `chunk`'s pages in one pass per
    /// distinct set — a single row for a fully associative TLB — keeping
    /// the survivors' LRU order. Leaves the same TLB as
    /// [`invalidate`](Tlb::invalidate) of each page. Returns how many
    /// translations were dropped.
    pub fn invalidate_chunk(&mut self, chunk: ChunkId) -> usize {
        let first = self.set_index(chunk.first_page());
        let n_sets = self.set_mask as usize + 1;
        (0..n_sets.min(PAGES_PER_CHUNK as usize))
            .map(|i| {
                let set = (first + i) & self.set_mask as usize;
                self.sets
                    .remove_where(set, |p| p / PAGES_PER_CHUNK == chunk.0)
            })
            .sum()
    }

    /// Drop every translation.
    pub fn flush(&mut self) {
        self.sets.clear();
    }

    /// Every cached page (no LRU update).
    pub(crate) fn pages(&self) -> impl Iterator<Item = VirtPage> + '_ {
        self.sets.iter().map(VirtPage)
    }

    /// Hit latency from the config.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.cfg.hit_latency
    }

    /// Number of currently valid entries.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.sets.occupancy()
    }
}

/// The seed's scan-based TLB, kept as the equivalence oracle for the
/// model test below. Same observable semantics as [`Tlb`]: true LRU by
/// monotone use stamp.
#[cfg(test)]
pub mod legacy {
    use super::TlbConfig;
    use crate::types::{Frame, VirtPage};
    use sim_core::stats::Counter;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        page: VirtPage,
        frame: Frame,
        /// Monotone use stamp for LRU (larger = more recent).
        stamp: u64,
    }

    const EMPTY_WAY: Way = Way {
        page: VirtPage(u64::MAX),
        frame: Frame(0),
        stamp: 0,
    };

    /// Scan-probed set-associative TLB (the pre-fast-lane structure).
    #[derive(Debug)]
    pub struct ScanTlb {
        cfg: TlbConfig,
        /// Flat way storage: set `s` occupies
        /// `ways[s*assoc .. s*assoc+lens[s]]`.
        ways: Vec<Way>,
        /// Filled ways per set.
        lens: Vec<u32>,
        n_sets: usize,
        tick: u64,
        /// Lookup hits.
        pub hits: Counter,
        /// Lookup misses.
        pub misses: Counter,
    }

    impl ScanTlb {
        /// Build a TLB from `cfg`.
        ///
        /// # Panics
        /// Panics on degenerate geometry.
        #[must_use]
        pub fn new(cfg: TlbConfig) -> Self {
            assert!(cfg.entries > 0 && cfg.associativity > 0);
            assert!(cfg.entries.is_multiple_of(cfg.associativity));
            let n_sets = cfg.entries / cfg.associativity;
            ScanTlb {
                cfg,
                ways: vec![EMPTY_WAY; cfg.entries],
                lens: vec![0; n_sets],
                n_sets,
                tick: 0,
                hits: Counter::default(),
                misses: Counter::default(),
            }
        }

        #[inline]
        fn set_index(&self, page: VirtPage) -> usize {
            (page.0 % self.n_sets as u64) as usize
        }

        /// Look up `page`, updating LRU state and counters.
        pub fn lookup(&mut self, page: VirtPage) -> Option<Frame> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            let filled = &mut self.ways[base..base + self.lens[set] as usize];
            if let Some(way) = filled.iter_mut().find(|w| w.page == page) {
                way.stamp = tick;
                self.hits.inc();
                Some(way.frame)
            } else {
                self.misses.inc();
                None
            }
        }

        /// Peek without touching LRU state or counters.
        #[must_use]
        pub fn probe(&self, page: VirtPage) -> Option<Frame> {
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            self.ways[base..base + self.lens[set] as usize]
                .iter()
                .find(|w| w.page == page)
                .map(|w| w.frame)
        }

        /// Install or refresh, evicting the min-stamp way of a full set.
        pub fn insert(&mut self, page: VirtPage, frame: Frame) -> Option<(VirtPage, Frame)> {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(page);
            let assoc = self.cfg.associativity;
            let base = set * assoc;
            let len = self.lens[set] as usize;
            let filled = &mut self.ways[base..base + len];
            if let Some(way) = filled.iter_mut().find(|w| w.page == page) {
                way.frame = frame;
                way.stamp = tick;
                return None;
            }
            let mut victim = None;
            let mut slot = len;
            if len == assoc {
                let lru = filled
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, w)| w.stamp)
                    .map(|(i, _)| i)
                    .expect("full set has ways");
                let w = filled[lru];
                victim = Some((w.page, w.frame));
                slot = lru;
            } else {
                self.lens[set] += 1;
            }
            self.ways[base + slot] = Way {
                page,
                frame,
                stamp: tick,
            };
            victim
        }

        /// Shoot down `page`'s translation. Returns true if present.
        pub fn invalidate(&mut self, page: VirtPage) -> bool {
            let set = self.set_index(page);
            let base = set * self.cfg.associativity;
            let len = self.lens[set] as usize;
            let filled = &mut self.ways[base..base + len];
            if let Some(pos) = filled.iter().position(|w| w.page == page) {
                filled[pos] = filled[len - 1];
                self.ways[base + len - 1] = EMPTY_WAY;
                self.lens[set] -= 1;
                true
            } else {
                false
            }
        }

        /// Drop every translation.
        pub fn flush(&mut self) {
            self.ways.fill(EMPTY_WAY);
            self.lens.fill(0);
        }

        /// Number of currently valid entries.
        #[must_use]
        pub fn occupancy(&self) -> usize {
            self.lens.iter().map(|&l| l as usize).sum()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Frame;

    fn tiny() -> Tlb {
        // 4 entries, 2-way → 2 sets.
        Tlb::new(TlbConfig {
            entries: 4,
            associativity: 2,
            hit_latency: 1,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut t = tiny();
        assert!(!t.lookup(VirtPage(0)));
        t.insert(VirtPage(0));
        assert!(t.lookup(VirtPage(0)));
        assert_eq!(t.hits.get(), 1);
        assert_eq!(t.misses.get(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = tiny();
        // Pages 0, 2, 4 all map to set 0 (page % 2 == 0).
        t.insert(VirtPage(0));
        t.insert(VirtPage(2));
        t.lookup(VirtPage(0)); // make page 2 the LRU way
        assert_eq!(t.insert(VirtPage(4)), Some(VirtPage(2)));
        assert!(t.probe(VirtPage(0)));
        assert!(!t.probe(VirtPage(2)));
        assert!(t.probe(VirtPage(4)));
    }

    #[test]
    fn insert_refresh_does_not_evict() {
        let mut t = tiny();
        t.insert(VirtPage(0));
        t.insert(VirtPage(2));
        assert_eq!(t.insert(VirtPage(0)), None);
        assert!(t.probe(VirtPage(0)));
        assert_eq!(t.occupancy(), 2);
        // The refresh made page 0 the MRU way.
        assert_eq!(t.insert(VirtPage(4)), Some(VirtPage(2)));
    }

    #[test]
    fn invalidate_removes() {
        let mut t = tiny();
        t.insert(VirtPage(5));
        assert!(t.invalidate(VirtPage(5)));
        assert!(!t.invalidate(VirtPage(5)));
        assert!(!t.lookup(VirtPage(5)));
    }

    /// A chunk shootdown leaves the TLB exactly as shooting down each of
    /// its pages would, in fully and set-associative geometries: same
    /// dropped count, and the same hits and victims afterwards.
    #[test]
    fn invalidate_chunk_matches_per_page_invalidate() {
        for (entries, associativity) in [(16, 16), (32, 4), (64, 2)] {
            let cfg = TlbConfig {
                entries,
                associativity,
                hit_latency: 1,
            };
            let (mut bulk, mut single) = (Tlb::new(cfg), Tlb::new(cfg));
            let mut x: u64 = 0xA076_1D64_78BD_642F ^ entries as u64;
            for step in 0..100_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = VirtPage(x % 96);
                if (x >> 8).is_multiple_of(8) {
                    let chunk = page.chunk();
                    let dropped = chunk.pages().filter(|&p| single.invalidate(p)).count();
                    assert_eq!(bulk.invalidate_chunk(chunk), dropped, "step {step}");
                } else if (x >> 8).is_multiple_of(2) {
                    assert_eq!(bulk.lookup(page), single.lookup(page), "step {step}");
                } else {
                    assert_eq!(bulk.insert(page), single.insert(page), "step {step}");
                }
                assert_eq!(bulk.occupancy(), single.occupancy(), "step {step}");
            }
            assert!(
                bulk.hits.get() > 1000,
                "{entries}/{associativity} never hit"
            );
        }
    }

    #[test]
    fn flush_clears_everything() {
        let mut t = tiny();
        for i in 0..4 {
            t.insert(VirtPage(i));
        }
        assert_eq!(t.occupancy(), 4);
        t.flush();
        assert_eq!(t.occupancy(), 0);
        for i in 0..4 {
            assert!(!t.probe(VirtPage(i)));
        }
    }

    #[test]
    fn sets_are_independent() {
        let mut t = tiny();
        // Fill set 0 beyond capacity; set 1 entries must survive.
        t.insert(VirtPage(1)); // set 1
        for i in 0..10u64 {
            t.insert(VirtPage(i * 2)); // set 0
        }
        assert!(t.probe(VirtPage(1)));
    }

    #[test]
    fn probe_does_not_count() {
        let mut t = tiny();
        t.insert(VirtPage(0));
        let _ = t.probe(VirtPage(0));
        let _ = t.probe(VirtPage(1));
        assert_eq!(t.hits.get(), 0);
        assert_eq!(t.misses.get(), 0);
    }

    #[test]
    fn default_geometries_construct() {
        let l1 = Tlb::new(TlbConfig::l1_default());
        let l2 = Tlb::new(TlbConfig::l2_default());
        assert_eq!(l1.hit_latency(), 1);
        assert_eq!(l2.hit_latency(), 10);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn bad_geometry_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 10,
            associativity: 3,
            hit_latency: 1,
        });
    }

    #[test]
    #[should_panic(expected = "3 TLB sets")]
    fn non_power_of_two_set_count_panics() {
        let _ = Tlb::new(TlbConfig {
            entries: 48,
            associativity: 16,
            hit_latency: 1,
        });
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut t = tiny();
        for i in 0..100u64 {
            t.insert(VirtPage(i));
        }
        assert!(t.occupancy() <= 4);
    }

    /// Model-based equivalence with the seed's frame-caching scan
    /// implementation: random lookup/insert/invalidate/flush ops over
    /// both the fully-associative L1 geometry and the 16-way L2
    /// geometry must agree on every hit, victim page and counter.
    ///
    /// A page-table model gives each page its current frame and moves a
    /// page to a new frame only after shooting it down, as unmap and
    /// re-map do. Every frame the scan TLB returns on a hit, and every
    /// victim frame it returns, must be the model's current frame: the
    /// page table answers exactly what a frame-caching TLB would, so a
    /// presence-only row loses nothing. This is the local half of the
    /// bit-identity contract (the golden fingerprints in
    /// `tests/perf_identity.rs` are the end-to-end half).
    #[test]
    fn indexed_tlb_matches_scan_tlb_on_random_ops() {
        for cfg in [
            TlbConfig {
                entries: 16,
                associativity: 16,
                hit_latency: 1,
            },
            TlbConfig {
                entries: 32,
                associativity: 4,
                hit_latency: 10,
            },
        ] {
            let mut new = Tlb::new(cfg);
            let mut old = legacy::ScanTlb::new(cfg);
            // ~3× capacity → constant churn.
            let mut frames: Vec<Frame> = (0..48).map(Frame).collect();
            let mut next_frame = 48;
            let mut x: u64 = 0x1357_9BDF_2468_ACE0 ^ cfg.associativity as u64;
            for step in 0..200_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let page = VirtPage(x % 48);
                let frame = frames[page.0 as usize];
                match (x >> 8) % 16 {
                    0..=5 => {
                        let got = old.lookup(page);
                        assert_eq!(
                            new.lookup(page),
                            got.is_some(),
                            "lookup({page:?}) at step {step}"
                        );
                        assert!(got.is_none_or(|f| f == frame), "stale frame at {step}");
                    }
                    6..=11 => {
                        let victim = old.insert(page, frame);
                        assert_eq!(
                            new.insert(page),
                            victim.map(|(p, _)| p),
                            "insert({page:?}) victim at step {step}"
                        );
                        if let Some((p, f)) = victim {
                            assert_eq!(f, frames[p.0 as usize], "victim frame at {step}");
                        }
                    }
                    12 | 13 => {
                        assert_eq!(
                            new.invalidate(page),
                            old.invalidate(page),
                            "invalidate({page:?}) at step {step}"
                        );
                        // Shot down everywhere, so the page may move.
                        frames[page.0 as usize] = Frame(next_frame);
                        next_frame += 1;
                    }
                    14 => {
                        assert_eq!(new.probe(page), old.probe(page).is_some());
                    }
                    _ => {
                        if (x >> 24).is_multiple_of(64) {
                            new.flush();
                            old.flush();
                        }
                    }
                }
                assert_eq!(new.occupancy(), old.occupancy(), "occupancy at {step}");
            }
            assert_eq!(new.hits.get(), old.hits.get());
            assert_eq!(new.misses.get(), old.misses.get());
            assert!(new.hits.get() > 1000, "model test never hit");
        }
    }
}
