//! Flat true-LRU rows — the set-associative store behind the TLBs, the
//! page-walk cache and the GPU data-cache L2.
//!
//! [`LruRows`] is a presence store: one array of keys and no values.
//! Every user only asks whether a key is present (a TLB hit's frame is
//! read from the page table, see `translation.rs`), so a probe touches
//! key words alone. Each set owns two row widths of words; its row is
//! the `ways` words from the set's head, most recently used first. A
//! hit shifts the ways in front of it back one word and stores itself
//! at the front, and a remove shifts the ways behind it forward one
//! word, keeping the survivors' order (each is one `copy_within`);
//! `remove_where` drops any number of keys in one pass over the row
//! with the same result. A fill steps the head back one word, so the
//! last way (the LRU victim, or an empty way) drops off the end and no
//! other way moves; once the head reaches
//! the start of the set's words, the row is copied to the back half,
//! one copy per `ways` fills. Empty ways hold [`EMPTY`] and always sit
//! at a row's tail, so a probe is one scan of one contiguous row.
//!
//! The seed's structures stamped an entry with a strictly increasing
//! tick on every hit and insert and evicted the minimum-stamp way.
//! Sorting a set by stamp gives exactly the move-to-front order kept
//! here, and the minimum-stamp way is the last filled way, so hits,
//! misses and victims all agree. `tlb.rs`, `walk_cache.rs` and
//! `gpu::cache` lock this with model tests against their `legacy::*`
//! scan oracles.

/// Key of an empty way. Never a valid key: pages and packed node ids
/// stay below it.
pub const EMPTY: u64 = u64::MAX;

/// `n_sets` rows of `ways` keys, each row MRU-first.
#[derive(Clone)]
pub struct LruRows {
    ways: usize,
    /// Two row widths per set; words outside the live rows are empty.
    keys: Vec<u64>,
    /// Index of each set's front (most recently used) way.
    heads: Vec<usize>,
}

impl LruRows {
    /// Build `n_sets × ways` empty ways.
    ///
    /// # Panics
    /// Panics on zero sets or zero ways.
    #[must_use]
    pub fn new(n_sets: usize, ways: usize) -> Self {
        assert!(n_sets > 0 && ways > 0, "degenerate geometry");
        LruRows {
            ways,
            keys: vec![EMPTY; n_sets * 2 * ways],
            heads: (0..n_sets).map(|s| (2 * s + 1) * ways).collect(),
        }
    }

    /// Word range of set `set`'s row.
    #[inline]
    fn row(&self, set: usize) -> std::ops::Range<usize> {
        let start = self.heads[set];
        start..start + self.ways
    }

    /// Position of `key` within its row, if present.
    #[inline]
    fn find(&self, set: usize, key: u64) -> Option<usize> {
        debug_assert!(key != EMPTY, "the empty sentinel is not a key");
        self.keys[self.row(set)].iter().position(|&k| k == key)
    }

    /// Move way `i` of `set`'s row to the front; the ways before it
    /// shift back one word.
    #[inline]
    fn promote(&mut self, set: usize, i: usize) {
        if i == 0 {
            return;
        }
        let h = self.heads[set];
        let key = self.keys[h + i];
        self.keys.copy_within(h..h + i, h + 1);
        self.keys[h] = key;
    }

    /// Look up `key` in `set`, moving it to the front on a hit. Returns
    /// whether it was present.
    #[inline]
    pub fn get(&mut self, set: usize, key: u64) -> bool {
        let Some(i) = self.find(set, key) else {
            return false;
        };
        self.promote(set, i);
        true
    }

    /// Whether `key` is in `set`, without touching LRU order.
    #[inline]
    #[must_use]
    pub fn peek(&self, set: usize, key: u64) -> bool {
        self.find(set, key).is_some()
    }

    /// Insert (or refresh) `key` in `set`. A refresh moves the way to
    /// the front; a full row evicts its LRU key and returns it.
    #[inline]
    pub fn insert(&mut self, set: usize, key: u64) -> Option<u64> {
        if let Some(i) = self.find(set, key) {
            self.promote(set, i);
            return None;
        }
        self.fill(set, key)
    }

    /// Insert `key`, which the caller knows is not in `set`, skipping
    /// the existence scan. Returns the evicted LRU key of a full row.
    #[inline]
    pub fn fill(&mut self, set: usize, key: u64) -> Option<u64> {
        debug_assert!(self.find(set, key).is_none(), "fill of a present key");
        let (w, base) = (self.ways, 2 * set * self.ways);
        if self.heads[set] == base {
            // No word left before the row: move it to the back half.
            self.keys.copy_within(base..base + w, base + w);
            self.keys[base..base + w].fill(EMPTY);
            self.heads[set] = base + w;
        }
        self.heads[set] -= 1;
        let h = self.heads[set];
        let victim = std::mem::replace(&mut self.keys[h + w], EMPTY);
        self.keys[h] = key;
        (victim != EMPTY).then_some(victim)
    }

    /// Remove `key` from `set`, keeping the survivors' order. Returns
    /// true if it was present.
    #[inline]
    pub fn remove(&mut self, set: usize, key: u64) -> bool {
        let Some(i) = self.find(set, key) else {
            return false;
        };
        let row = self.row(set);
        let at = row.start + i;
        self.keys.copy_within(at + 1..row.end, at);
        self.keys[row.end - 1] = EMPTY;
        true
    }

    /// Remove every key of `set` that `pred` selects in one pass over
    /// the row: survivors move up in order and the freed ways become
    /// empty tail ways — exactly the row that [`remove`](LruRows::remove)
    /// of each selected key would leave. Returns how many were removed.
    pub fn remove_where(&mut self, set: usize, mut pred: impl FnMut(u64) -> bool) -> usize {
        let row = self.row(set);
        let mut kept = row.start;
        let mut live = row.start;
        while live < row.end && self.keys[live] != EMPTY {
            if !pred(self.keys[live]) {
                self.keys[kept] = self.keys[live];
                kept += 1;
            }
            live += 1;
        }
        self.keys[kept..live].fill(EMPTY);
        live - kept
    }

    /// Keys of `set`'s row, MRU first, empty ways included.
    #[cfg(test)]
    pub(crate) fn row_keys(&self, set: usize) -> &[u64] {
        &self.keys[self.row(set)]
    }

    /// Empty every row.
    pub fn clear(&mut self) {
        self.keys.fill(EMPTY);
    }

    /// Live entries across all rows.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.keys.iter().filter(|&&k| k != EMPTY).count()
    }

    /// Every live key, row by row, MRU first.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys.iter().copied().filter(|&k| k != EMPTY)
    }
}

impl std::fmt::Debug for LruRows {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LruRows")
            .field("sets", &self.heads.len())
            .field("ways", &self.ways)
            .field("occupancy", &self.occupancy())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> LruRows {
        LruRows::new(2, 2)
    }

    #[test]
    fn insert_get_peek() {
        let mut s = rows();
        assert_eq!(s.insert(0, 10), None);
        assert!(s.get(0, 10));
        assert!(s.peek(0, 10));
        assert!(!s.get(0, 11));
        assert!(!s.peek(1, 10), "rows are independent");
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn refresh_promotes_without_evicting() {
        let mut s = rows();
        s.insert(0, 10);
        s.insert(0, 12);
        assert_eq!(s.insert(0, 10), None);
        assert_eq!(s.occupancy(), 2);
        // The refresh made 10 the MRU way, so 12 is the victim.
        assert_eq!(s.fill(0, 14), Some(12));
    }

    #[test]
    fn full_row_evicts_lru_way() {
        let mut s = rows();
        s.insert(0, 10);
        s.insert(0, 12);
        s.get(0, 10); // 12 becomes LRU
        assert_eq!(s.insert(0, 14), Some(12));
        assert!(s.peek(0, 10));
        assert!(!s.peek(0, 12));
        assert!(s.peek(0, 14));
    }

    #[test]
    fn remove_keeps_order_with_empties_at_the_tail() {
        let mut s = LruRows::new(1, 4);
        for k in [10, 11, 12, 13] {
            s.fill(0, k);
        }
        // MRU-first row: 13 12 11 10.
        assert!(s.remove(0, 12));
        assert!(!s.remove(0, 12));
        assert_eq!(s.row_keys(0), [13, 11, 10, EMPTY], "hole at the tail");
        assert_eq!(s.occupancy(), 3);
        // The empty tail way is reused before any live way is evicted,
        // and the survivors' LRU order decides the next victim.
        assert_eq!(s.fill(0, 14), None);
        assert_eq!(s.fill(0, 15), Some(10));
        assert!(s.peek(0, 11));
    }

    /// `remove_where` must leave every row exactly as removing each
    /// selected key with `remove` would: same survivors, same order,
    /// empties at the tail, and so the same later victims.
    #[test]
    fn remove_where_matches_repeated_remove() {
        let mut x: u64 = 0x2545_F491_4F6C_DD1D;
        let mut step = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for (n_sets, ways) in [(1, 8), (3, 4), (2, 1)] {
            let mut bulk = LruRows::new(n_sets, ways);
            let mut single = bulk.clone();
            for op in 0..100_000u32 {
                let r = step();
                let set = (r >> 40) as usize % n_sets;
                let key = (r >> 8) % 24;
                if r.is_multiple_of(8) {
                    // Drop every key of one 4-key group from the row.
                    let group = key / 4;
                    let want: Vec<u64> = single.keys[single.row(set)]
                        .iter()
                        .copied()
                        .filter(|&k| k != EMPTY && k / 4 == group)
                        .collect();
                    for &k in &want {
                        assert!(single.remove(set, k));
                    }
                    let got = bulk.remove_where(set, |k| k / 4 == group);
                    assert_eq!(got, want.len(), "op {op}: removed count");
                } else {
                    assert_eq!(
                        bulk.insert(set, key),
                        single.insert(set, key),
                        "op {op}: victim"
                    );
                }
                assert_eq!(bulk.keys[bulk.row(set)], single.keys[single.row(set)]);
            }
            assert_eq!(bulk.occupancy(), single.occupancy());
        }
    }

    #[test]
    fn clear_empties_every_row() {
        let mut s = rows();
        s.insert(0, 10);
        s.insert(1, 11);
        s.clear();
        assert_eq!(s.occupancy(), 0);
        assert!(!s.peek(0, 10));
        assert!(!s.peek(1, 11));
        assert_eq!(s.insert(0, 10), None);
        assert!(s.get(0, 10));
    }
}
