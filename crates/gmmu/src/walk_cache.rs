//! Shared page-walk cache (PWC).
//!
//! Table I: "16-way 8KB, 10-cycle latency". The PWC caches intermediate
//! page-table nodes (levels 2–4); a hit at level *k* lets the walker skip
//! the memory references for levels ≥ *k*. With 8-byte entries, 8 KB
//! gives 1024 entries in 64 sets of 16 ways.
//!
//! Like [`crate::tlb::Tlb`], the ways live in [`LruRows`]: each set is
//! one 16-word row of packed node ids kept most-recently-used first, so
//! a probe scans 128 contiguous bytes and the victim is the row's last
//! way. Replacement stays exact true LRU (bit-identical to the seed's
//! min-stamp scan; see the equivalence test against
//! `legacy::ScanWalkCache`).
//!
//! A walk touches the cache once, through [`WalkCache::walk`]: it probes
//! levels 2, 3, 4 up to the first hit and then fills the walked path,
//! making the same LRU and counter changes as a [`lookup`] per probed
//! level followed by an [`insert`] per level, with fewer row scans.
//!
//! Below 2^18 pages — every workload here — levels 3 and 4 share set 0,
//! and the walk before left that row starting with `[L4, L3]`. Then
//! re-inserting L3 and L4 changes nothing, so a walk that finds its
//! upper levels there returns after two word compares instead of two
//! row scans and shifts ([`WalkCache::reinserts_skipped`] counts them).
//!
//! [`lookup`]: WalkCache::lookup
//! [`insert`]: WalkCache::insert

use crate::assoc::LruRows;
use crate::page_table::{node_for, NodeId, LEVELS};
use crate::types::VirtPage;
use sim_core::stats::Counter;

/// Row key of `node`: the level above the prefix bits. A prefix is a
/// VPN shifted right by at least 9 bits, so it stays below bit 56 and
/// the packing is injective.
#[inline]
fn key(node: NodeId) -> u64 {
    debug_assert!(node.prefix < 1 << 56);
    (u64::from(node.level) << 56) | node.prefix
}

/// Set-associative cache over [`NodeId`]s with true-LRU replacement.
#[derive(Debug)]
pub struct WalkCache {
    sets: LruRows,
    /// Set count − 1 (the set count is a power of two).
    set_mask: u64,
    hit_latency: u64,
    /// Probe hits.
    pub hits: Counter,
    /// Probe misses.
    pub misses: Counter,
    /// Walks whose level-3 and level-4 re-inserts were skipped because
    /// they would have changed nothing. Checking aid only: no result or
    /// fingerprint depends on it.
    pub reinserts_skipped: Counter,
}

impl WalkCache {
    /// Table I geometry: 8 KB / 8 B = 1024 entries, 16-way, 10-cycle.
    #[must_use]
    pub fn table1_default() -> Self {
        Self::new(1024, 16, 10)
    }

    /// Build a PWC with `entries` total entries and `assoc` ways.
    ///
    /// # Panics
    /// Panics on degenerate geometry, or if the set count is not a power
    /// of two.
    #[must_use]
    pub fn new(entries: usize, assoc: usize, hit_latency: u64) -> Self {
        assert!(entries > 0 && assoc > 0 && entries.is_multiple_of(assoc));
        let n_sets = entries / assoc;
        assert!(n_sets.is_power_of_two(), "{n_sets} PWC sets");
        WalkCache {
            sets: LruRows::new(n_sets, assoc),
            set_mask: n_sets as u64 - 1,
            hit_latency,
            hits: Counter::default(),
            misses: Counter::default(),
            reinserts_skipped: Counter::default(),
        }
    }

    /// The set is the low bits of the node's prefix, whatever its level
    /// (the seed's `(prefix ^ level << 61) % sets` for any power-of-two
    /// set count up to 2^61). So levels collide systematically: below
    /// 2^18 pages the level-3 and level-4 nodes have prefix 0 and share
    /// set 0 with level-2 node 0 (`pwc_set_mapping_is_pinned`). Changing
    /// the mapping would change every fingerprint.
    #[inline]
    fn set_index(&self, node: NodeId) -> usize {
        (node.prefix & self.set_mask) as usize
    }

    /// One page walk's pass: probe the nodes on `page`'s path from level
    /// 2 up to the first hit, then bring every level into the cache.
    /// Returns the hit level, or `LEVELS + 1` on a full miss, so the
    /// walk leaves `level - 1` memory references either way.
    ///
    /// Same rows and counters as `lookup` per probed level then `insert`
    /// for levels 2..=4, because:
    /// * a level that missed is still absent (only other keys were
    ///   filled since its probe), so it is `fill`ed without a scan;
    /// * the hit node is still at the front of its row unless a lower
    ///   level's fill landed in its set, so only then is it re-inserted;
    /// * levels above the hit were never probed and take a full insert,
    ///   except when levels 3 and 4 share a set whose row already starts
    ///   with `[L4, L3]`: inserting L3 then L4 would move L3 to the front
    ///   and L4 back in front of it (or, with only L4 to insert, leave
    ///   it in front), and `insert` counts nothing, so the walk returns
    ///   with the row as it is.
    #[inline]
    pub fn walk(&mut self, page: VirtPage) -> u32 {
        let mut hit = LEVELS + 1;
        for level in 2..=LEVELS {
            let node = node_for(page, level);
            if self.sets.get(self.set_index(node), key(node)) {
                self.hits.inc();
                hit = level;
                break;
            }
            self.misses.inc();
        }
        let hit_set = (hit <= LEVELS).then(|| self.set_index(node_for(page, hit)));
        let mut hit_moved = false;
        for level in 2..hit {
            let node = node_for(page, level);
            let set = self.set_index(node);
            hit_moved |= Some(set) == hit_set;
            self.sets.fill(set, key(node));
        }
        let first_insert = if hit_moved { hit } else { hit + 1 };
        if first_insert <= LEVELS && self.upper_levels_in_front(page) {
            debug_assert!(first_insert >= LEVELS - 1);
            self.reinserts_skipped.inc();
            return hit;
        }
        for level in first_insert..=LEVELS {
            self.insert(node_for(page, level));
        }
        hit
    }

    /// Whether `page`'s level-3 and level-4 nodes share a set whose row
    /// starts with `[L4, L3]`.
    #[inline]
    fn upper_levels_in_front(&self, page: VirtPage) -> bool {
        let (l3, l4) = (node_for(page, LEVELS - 1), node_for(page, LEVELS));
        let set = self.set_index(l4);
        set == self.set_index(l3) && self.sets.front_is(set, key(l4), key(l3))
    }

    /// Probe for `node`, updating LRU and counters.
    #[inline]
    pub fn lookup(&mut self, node: NodeId) -> bool {
        if self.sets.get(self.set_index(node), key(node)) {
            self.hits.inc();
            true
        } else {
            self.misses.inc();
            false
        }
    }

    /// Fill `node` after a walk fetched it from memory.
    #[inline]
    pub fn insert(&mut self, node: NodeId) {
        self.sets.insert(self.set_index(node), key(node));
    }

    /// Hit latency in cycles.
    #[must_use]
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }
}

/// The seed's scan-based PWC, kept as the equivalence oracle for the
/// model test below and for `legacy::ScanPath` in
/// [`translation`](crate::translation).
pub mod legacy {
    use crate::page_table::NodeId;
    use sim_core::stats::Counter;

    /// Scan-probed set-associative node cache (pre-fast-lane structure).
    #[derive(Debug)]
    pub struct ScanWalkCache {
        sets: Vec<Vec<(NodeId, u64)>>,
        n_sets: usize,
        assoc: usize,
        hit_latency: u64,
        tick: u64,
        /// Probe hits.
        pub hits: Counter,
        /// Probe misses.
        pub misses: Counter,
    }

    impl ScanWalkCache {
        /// Build a PWC with `entries` total entries and `assoc` ways.
        ///
        /// # Panics
        /// Panics on degenerate geometry.
        #[must_use]
        pub fn new(entries: usize, assoc: usize, hit_latency: u64) -> Self {
            assert!(entries > 0 && assoc > 0 && entries.is_multiple_of(assoc));
            let n_sets = entries / assoc;
            ScanWalkCache {
                sets: (0..n_sets).map(|_| Vec::with_capacity(assoc)).collect(),
                n_sets,
                assoc,
                hit_latency,
                tick: 0,
                hits: Counter::default(),
                misses: Counter::default(),
            }
        }

        #[inline]
        fn set_index(&self, node: NodeId) -> usize {
            ((node.prefix ^ (u64::from(node.level) << 61)) % self.n_sets as u64) as usize
        }

        /// Probe for `node`, updating LRU and counters.
        pub fn lookup(&mut self, node: NodeId) -> bool {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(node);
            if let Some(way) = self.sets[set].iter_mut().find(|(n, _)| *n == node) {
                way.1 = tick;
                self.hits.inc();
                true
            } else {
                self.misses.inc();
                false
            }
        }

        /// Fill `node` after a walk fetched it from memory.
        pub fn insert(&mut self, node: NodeId) {
            self.tick += 1;
            let tick = self.tick;
            let set = self.set_index(node);
            let assoc = self.assoc;
            let ways = &mut self.sets[set];
            if let Some(way) = ways.iter_mut().find(|(n, _)| *n == node) {
                way.1 = tick;
                return;
            }
            if ways.len() == assoc {
                let lru = ways
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (_, s))| *s)
                    .map(|(i, _)| i)
                    .expect("full set");
                ways.swap_remove(lru);
            }
            ways.push((node, tick));
        }

        /// Hit latency in cycles.
        #[must_use]
        pub fn hit_latency(&self) -> u64 {
            self.hit_latency
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page_table::node_for;
    use crate::types::VirtPage;

    #[test]
    fn miss_insert_hit() {
        let mut pwc = WalkCache::new(8, 2, 10);
        let n = node_for(VirtPage(0), 2);
        assert!(!pwc.lookup(n));
        pwc.insert(n);
        assert!(pwc.lookup(n));
        assert_eq!(pwc.hits.get(), 1);
        assert_eq!(pwc.misses.get(), 1);
    }

    #[test]
    fn lru_within_set() {
        let mut pwc = WalkCache::new(2, 2, 10); // single set, 2 ways
        let a = node_for(VirtPage(0), 2);
        let b = node_for(VirtPage(512), 2);
        let c = node_for(VirtPage(1024), 2);
        pwc.insert(a);
        pwc.insert(b);
        pwc.lookup(a); // b becomes LRU
        pwc.insert(c); // evicts b
        assert!(pwc.lookup(a));
        assert!(!pwc.lookup(b));
        assert!(pwc.lookup(c));
    }

    #[test]
    fn reinsert_refreshes_not_duplicates() {
        let mut pwc = WalkCache::new(2, 2, 10);
        let a = node_for(VirtPage(0), 2);
        pwc.insert(a);
        pwc.insert(a);
        let b = node_for(VirtPage(512), 2);
        let c = node_for(VirtPage(1024), 2);
        pwc.insert(b);
        pwc.insert(c); // must evict exactly one of a/b, not find a dup
        let present = [a, b, c].iter().filter(|&&n| pwc.lookup(n)).count();
        assert_eq!(present, 2);
    }

    #[test]
    fn default_geometry() {
        let pwc = WalkCache::table1_default();
        assert_eq!(pwc.hit_latency(), 10);
    }

    #[test]
    fn levels_do_not_alias() {
        let mut pwc = WalkCache::new(1024, 16, 10);
        let l2 = node_for(VirtPage(0), 2);
        let l3 = node_for(VirtPage(0), 3);
        pwc.insert(l2);
        assert!(!pwc.lookup(l3), "level-3 node must not hit on level-2 fill");
    }

    /// Pin the set mapping: the level never reaches the index, so on
    /// the 64-set default the upper levels of every page below 2^18
    /// share set 0 with level-2 node 0.
    #[test]
    fn pwc_set_mapping_is_pinned() {
        let pwc = WalkCache::table1_default();
        let set = |page, level| pwc.set_index(node_for(VirtPage(page), level));
        for page in [0, 1, 511, 4096, (1 << 18) - 1] {
            assert_eq!(set(page, 3), set(0, 2), "page {page} level 3");
            assert_eq!(set(page, 4), set(0, 2), "page {page} level 4");
        }
        assert_eq!(set(0, 2), 0);
        assert_eq!(set(512, 2), 1);
        assert_eq!(set(63 << 9, 2), 63);
        assert_eq!(set(64 << 9, 2), 0, "level-2 prefixes wrap at 64 sets");
        assert_eq!(set(1 << 18, 3), 1, "level 3 leaves set 0 at 2^18 pages");
        assert_eq!(set(1 << 27, 4), 1, "level 4 leaves set 0 at 2^27 pages");
        let seed = |node: NodeId| ((node.prefix ^ (u64::from(node.level) << 61)) % 64) as usize;
        for page in (0..1u64 << 30).step_by(7919 << 5) {
            for level in 2..=LEVELS {
                let node = node_for(VirtPage(page), level);
                assert_eq!(pwc.set_index(node), seed(node), "{node:?}");
            }
        }
    }

    /// Keys of every row, MRU first, empties included.
    fn rows(pwc: &WalkCache) -> Vec<&[u64]> {
        (0..=pwc.set_mask as usize)
            .map(|set| pwc.sets.row_keys(set))
            .collect()
    }

    /// `walk` must leave every row, in MRU order, and both counters as
    /// the probe loop plus three inserts it replaced. Small geometries
    /// make a path's levels share sets and evict each other: one set of
    /// 2 ways (a hit node is always pushed back by the lower fills),
    /// 4 sets of 3 ways and 4 sets of 16.
    #[test]
    fn walk_matches_lookup_then_insert() {
        // Walks that hit at each level, and hits a lower fill pushed back.
        let (mut at_level, mut shared) = ([0u64; LEVELS as usize + 2], 0);
        for (entries, ways) in [(2, 2), (12, 3), (64, 16)] {
            let mut one = WalkCache::new(entries, ways, 10);
            let mut twin = WalkCache::new(entries, ways, 10);
            let (mut x, mut page) = (0x94D0_49BB_1331_11EB ^ entries as u64, VirtPage(0));
            for step in 0..50_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                // Half the walks stay under the last level-2 node; the
                // rest pick one of 256 level-2 nodes under 4 level-3
                // nodes under 2 level-4 nodes.
                page = if x & 1 == 0 {
                    VirtPage((page.0 & !511) | ((x >> 1) % 512))
                } else {
                    VirtPage(((x >> 40) % 2) << 27 | ((x >> 30) % 2) << 18 | ((x >> 20) % 64) << 9)
                };
                let cached = (2..=LEVELS).find(|&l| twin.lookup(node_for(page, l)));
                for level in 2..=LEVELS {
                    twin.insert(node_for(page, level));
                }
                let hit = one.walk(page);
                assert_eq!(hit, cached.unwrap_or(LEVELS + 1), "step {step}");
                assert_eq!(rows(&one), rows(&twin), "{entries}/{ways} step {step}");
                assert_eq!(
                    (one.hits.get(), one.misses.get()),
                    (twin.hits.get(), twin.misses.get()),
                    "step {step}"
                );
                at_level[hit as usize] += 1;
                let set = |level| one.set_index(node_for(page, level));
                shared += u64::from(hit <= LEVELS && (2..hit).any(|l| set(l) == set(hit)));
            }
        }
        assert!(at_level[2..].iter().all(|&n| n > 1000), "{at_level:?}");
        assert!(shared > 1000, "{shared} hits pushed back by a lower fill");
    }

    /// `walk` against the seed's scan PWC driven as a lookup per level up
    /// to the first hit, then an insert per level, on Table I's geometry.
    /// The stream mixes walks under level-2 nodes 1–63 (one per set
    /// other than 0: the early return's case), pages 0–511 (level-2
    /// node 0 shares set 0 with L3 and L4, so the row never starts with
    /// `[L4, L3]` after its probe), 32 level-2 nodes of set 0 (more than
    /// its 16 ways, so the row's order decides later victims) and pages
    /// at or past 2^18, whose L3 and L4 nodes sit in different sets.
    #[test]
    fn walk_matches_scan_pwc() {
        let mut fast = WalkCache::table1_default();
        let mut scan = legacy::ScanWalkCache::new(1024, 16, 10);
        let mut x = 0x5851_F42D_4C95_7F2Du64;
        // Walks, and walks that skipped their re-inserts, per stream.
        let (mut walks, mut skips) = ([0u64; 4], [0u64; 4]);
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let stream = (x % 4) as usize;
            let low = (x >> 20) % 512;
            let page = VirtPage(match stream {
                0 => (1 + (x >> 8) % 63) << 9 | low,
                1 => low,
                2 => ((x >> 8) % 32 * 64) << 9 | low,
                _ => (1 + (x >> 8) % 3) << (18 + 9 * ((x >> 12) % 2)) | ((x >> 30) % 64) << 9,
            });
            let before = fast.reinserts_skipped.get();
            let hit = fast.walk(page);
            let want = (2..=LEVELS).find(|&l| scan.lookup(node_for(page, l)));
            for level in 2..=LEVELS {
                scan.insert(node_for(page, level));
            }
            assert_eq!(hit, want.unwrap_or(LEVELS + 1), "step {step}: {page:?}");
            assert_eq!(
                (fast.hits.get(), fast.misses.get()),
                (scan.hits.get(), scan.misses.get()),
                "step {step}"
            );
            walks[stream] += 1;
            skips[stream] += fast.reinserts_skipped.get() - before;
        }
        assert!(walks.iter().all(|&n| n > 10_000), "{walks:?}");
        assert!(skips[0] > 10_000, "the early return fired {skips:?}");
        assert_eq!((skips[1], skips[3]), (0, 0), "{skips:?}");
        assert!(fast.misses.get() > 10_000, "set 0 never churned");
    }

    /// Random walk-shaped op streams through both implementations must
    /// agree on every probe result and counter — the PWC half of the
    /// bit-identity contract.
    #[test]
    fn indexed_pwc_matches_scan_pwc_on_random_ops() {
        let mut new = WalkCache::new(64, 16, 10); // 4 sets → heavy churn
        let mut old = legacy::ScanWalkCache::new(64, 16, 10);
        let mut x: u64 = 0xD1B5_4A32_D192_ED03;
        for step in 0..200_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let node = node_for(VirtPage((x % 4096) << 9), 2 + (x >> 32) as u32 % 3);
            if (x >> 8).is_multiple_of(2) {
                assert_eq!(
                    new.lookup(node),
                    old.lookup(node),
                    "lookup({node:?}) at step {step}"
                );
            } else {
                new.insert(node);
                old.insert(node);
            }
        }
        assert_eq!(new.hits.get(), old.hits.get());
        assert_eq!(new.misses.get(), old.misses.get());
        assert!(new.hits.get() > 1000, "model test never hit");
    }
}
