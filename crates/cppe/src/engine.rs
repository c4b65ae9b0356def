//! The policy engine — the driver-side coordination layer.
//!
//! [`PolicyEngine`] owns the chunk chain and one prefetcher + one
//! eviction policy, and is driven by the `uvm` fault handler. This is
//! where CPPE's *fine-grained coordination* lives:
//!
//! * the eviction policy selects chunks that were brought in by the
//!   prefetcher (prefetch-semantics awareness), and
//! * at eviction the chunk's touch vector — assembled from the page
//!   table's access bits — is handed to the prefetcher, which records it
//!   in its pattern buffer and uses it to plan future prefetches.
//!
//! The engine also maintains the *interval* clock: one interval = 64
//! migrated pages (§IV-B; four 16-page chunk migrations per interval),
//! and interval accounting for MHPE starts once memory first fills.

use crate::chain::ChunkChain;
use crate::evict::{EvictPolicy, InsertAt};
use crate::pins::PinSet;
use crate::prefetch::{PrefetchCtx, Prefetcher};
use gmmu::page_table::PageTable;
use gmmu::types::{ChunkId, VirtPage};
use sim_core::{FxHashSet, TouchVec};

/// Pages per interval (§IV-B: "the interval length is 64").
pub const INTERVAL_PAGES: u64 = 64;

/// Aggregate counters the engine maintains for the evaluation.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// Demand faults observed.
    pub faults: u64,
    /// Pages migrated host→GPU (faulted + prefetched).
    pub pages_migrated: u64,
    /// Pages migrated beyond the faulted page.
    pub pages_prefetched: u64,
    /// Chunk evictions performed.
    pub chunk_evictions: u64,
    /// Pages evicted GPU→host.
    pub pages_evicted: u64,
    /// Sum of untouch levels over all evictions.
    pub total_untouch: u64,
    /// Chain length high-water mark.
    pub chain_max_len: usize,
}

impl EngineStats {
    /// Counters under their stable telemetry names, in schema order.
    #[must_use]
    pub fn metrics(&self) -> [(&'static str, u64); 6] {
        [
            ("cppe.faults", self.faults),
            ("cppe.pages_migrated", self.pages_migrated),
            ("cppe.pages_prefetched", self.pages_prefetched),
            ("cppe.chunk_evictions", self.chunk_evictions),
            ("cppe.pages_evicted", self.pages_evicted),
            ("cppe.total_untouch", self.total_untouch),
        ]
    }
}

/// Policy pair parked by [`PolicyEngine::fallback_to_baseline`] so the
/// recovery rung can re-arm it.
struct SuspendedPolicies {
    evict: Box<dyn EvictPolicy>,
    prefetch: Box<dyn Prefetcher>,
    /// Had the suspended eviction policy seen `on_memory_full`?
    saw_full: bool,
}

/// The engine.
pub struct PolicyEngine {
    chain: ChunkChain,
    evict: Box<dyn EvictPolicy>,
    prefetch: Box<dyn Prefetcher>,
    interval: u64,
    pages_into_interval: u64,
    memory_full: bool,
    intervals_since_full: u64,
    /// Prefetch plans are cut to `1/throttle` of their size (degradation
    /// ladder, shed 1). 1 = no throttling.
    throttle: u32,
    /// Has the engine fallen back to the baseline policy pair?
    fell_back: bool,
    /// The original policy pair, parked across a fallback so recovery
    /// can re-arm it.
    suspended: Option<SuspendedPolicies>,
    /// Wrong-eviction count carried across a policy fallback.
    wrong_evictions_carry: u64,
    /// Aux-buffer high-water marks carried across a policy fallback.
    evicted_buffer_carry: usize,
    pattern_buffer_carry: usize,
    /// Reused by [`PolicyEngine::select_victim`] to hold a hashed pin
    /// set's chunks.
    loaded_pins: PinSet,
    /// Chain length when memory first filled (overhead analysis).
    pub chain_len_at_full: usize,
    /// Aggregate counters.
    pub stats: EngineStats,
}

impl PolicyEngine {
    /// Combine an eviction policy and a prefetcher.
    #[must_use]
    pub fn new(evict: Box<dyn EvictPolicy>, prefetch: Box<dyn Prefetcher>) -> Self {
        PolicyEngine {
            chain: ChunkChain::new(),
            evict,
            prefetch,
            interval: 0,
            pages_into_interval: 0,
            memory_full: false,
            intervals_since_full: 0,
            throttle: 1,
            fell_back: false,
            suspended: None,
            wrong_evictions_carry: 0,
            evicted_buffer_carry: 0,
            pattern_buffer_carry: 0,
            loaded_pins: PinSet::new(),
            chain_len_at_full: 0,
            stats: EngineStats::default(),
        }
    }

    /// `"<evict>+<prefetch>"`, e.g. `"mhpe+pattern-aware-s2"`.
    #[must_use]
    pub fn name(&self) -> String {
        format!("{}+{}", self.evict.name(), self.prefetch.name())
    }

    /// The chunk chain (read-only).
    #[must_use]
    pub fn chain(&self) -> &ChunkChain {
        &self.chain
    }

    /// Has memory filled at least once?
    #[must_use]
    pub fn memory_full(&self) -> bool {
        self.memory_full
    }

    /// Current interval number (from program start).
    #[must_use]
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The `uvm` driver reports that GPU memory is at capacity. Policies
    /// size their auxiliary structures on the first call.
    pub fn note_memory_full(&mut self) {
        if !self.memory_full {
            self.memory_full = true;
            self.chain_len_at_full = self.chain.len();
            self.evict.on_memory_full(&self.chain);
        }
    }

    /// A demand fault on `page` was observed (pre-migration bookkeeping:
    /// wrong-eviction buffers).
    pub fn note_fault(&mut self, page: VirtPage) {
        self.stats.faults += 1;
        self.evict.on_fault(page);
    }

    /// Plan the pages to migrate for a fault on `page`, writing them
    /// into `plan` (cleared first). The caller reuses one buffer across
    /// faults so steady-state planning allocates nothing.
    pub fn plan_prefetch_into(&mut self, page: VirtPage, pt: &PageTable, plan: &mut Vec<VirtPage>) {
        plan.clear();
        let ctx = PrefetchCtx {
            page_table: pt,
            memory_full: self.memory_full,
        };
        self.prefetch.plan_into(page, &ctx, plan);
        debug_assert!(plan.contains(&page), "plan must include the faulted page");
        debug_assert!(
            plan.iter().all(|&p| !pt.is_resident(p)),
            "plan must only contain non-resident pages"
        );
        if self.throttle > 1 && plan.len() > 1 {
            // Degraded mode (ladder shed 1): keep the faulted page plus
            // the first 1/throttle of the planned pages, shrinking the
            // migration traffic the thrash detector flagged as wasteful.
            let keep = (plan.len() / self.throttle as usize).max(1);
            plan.retain(|&p| p != page);
            plan.truncate(keep.saturating_sub(1));
            plan.push(page);
            plan.sort_unstable_by_key(|p| p.0);
        }
    }

    /// Allocating convenience wrapper over
    /// [`PolicyEngine::plan_prefetch_into`].
    pub fn plan_prefetch(&mut self, page: VirtPage, pt: &PageTable) -> Vec<VirtPage> {
        let mut plan = Vec::new();
        self.plan_prefetch_into(page, pt, &mut plan);
        plan
    }

    /// Select a victim chunk (memory must be full). `pins` holds the
    /// chunks pinned by the in-flight fault batch; if the pins make
    /// selection impossible they are ignored (better a pinned victim
    /// than an unservable fault).
    pub fn select_victim_pinned(&mut self, pins: &PinSet) -> Option<ChunkId> {
        self.evict
            .select_victim(&self.chain, self.interval, pins)
            .or_else(|| {
                self.evict
                    .select_victim(&self.chain, self.interval, &PinSet::new())
            })
    }

    /// [`PolicyEngine::select_victim_pinned`] for pins kept in a hash
    /// set: loads them into a reused [`PinSet`] first, so a call also
    /// pays that conversion. The driver calls the [`PinSet`] form; this
    /// one serves callers that keep a hashed pin set, such as the
    /// host-speed benchmark's policy replay.
    pub fn select_victim(&mut self, pinned: &FxHashSet<ChunkId>) -> Option<ChunkId> {
        let mut pins = std::mem::take(&mut self.loaded_pins);
        pins.load(pinned.iter().copied());
        let victim = self.select_victim_pinned(&pins);
        self.loaded_pins = pins;
        victim
    }

    /// Stable name of the active eviction policy (decision provenance).
    #[must_use]
    pub fn evict_name(&self) -> &'static str {
        self.evict.name()
    }

    /// Stable name of the active prefetcher (decision provenance).
    #[must_use]
    pub fn prefetch_name(&self) -> &'static str {
        self.prefetch.name()
    }

    /// Which strategy branch produced the most recent prefetch plan
    /// (decision provenance; see [`Prefetcher::plan_origin`]).
    #[must_use]
    pub fn plan_origin(&self) -> &'static str {
        self.prefetch.plan_origin()
    }

    /// Non-mutating preview of the eviction policy's candidate window —
    /// the chunks the next [`PolicyEngine::select_victim`] call will
    /// consider, capped at `limit`. Mirrors `select_victim_pinned`'s
    /// relaxation: if the pins empty the window, they are ignored.
    /// Recorded by the decision audit layer; never called on the hot
    /// path when auditing is off.
    #[must_use]
    pub fn victim_candidates(&self, pins: &PinSet, limit: usize) -> Vec<ChunkId> {
        let cands = self
            .evict
            .candidate_set(&self.chain, self.interval, pins, limit);
        if cands.is_empty() && !pins.is_empty() {
            return self
                .evict
                .candidate_set(&self.chain, self.interval, &PinSet::new(), limit);
        }
        cands
    }

    /// `chunk` was evicted; `touch` is its touch vector with bits set
    /// only for pages that were resident *and* touched (read from the
    /// page-table access bits), and `resident` the number of pages that
    /// were actually resident (= transferred back to the host).
    pub fn note_evicted(&mut self, chunk: ChunkId, touch: TouchVec, resident: u32) {
        let untouch = resident.saturating_sub(touch.count_touched());
        self.stats.chunk_evictions += 1;
        self.stats.pages_evicted += u64::from(resident);
        self.stats.total_untouch += u64::from(untouch);
        self.chain.remove(chunk);
        self.evict.on_evict(chunk, untouch);
        self.prefetch.on_evict(chunk, touch);
    }

    /// `pages` pages of `chunk` were migrated in (one of them the
    /// demand-faulted page when `demand` is true). Advances the interval
    /// clock and fires `on_interval` at boundaries.
    pub fn note_migrated(&mut self, chunk: ChunkId, pages: u32, demand: bool) {
        let pos = self.evict.insert_position(chunk);
        match pos {
            InsertAt::Tail => self.chain.insert_tail(chunk, self.interval),
            InsertAt::Head => self.chain.insert_head(chunk, self.interval),
        }
        self.evict
            .on_migrate(&mut self.chain, chunk, pages, self.interval);
        self.stats.pages_migrated += u64::from(pages);
        if demand {
            self.stats.pages_prefetched += u64::from(pages.saturating_sub(1));
        } else {
            self.stats.pages_prefetched += u64::from(pages);
        }
        self.stats.chain_max_len = self.stats.chain_max_len.max(self.chain.len());

        self.pages_into_interval += u64::from(pages);
        while self.pages_into_interval >= INTERVAL_PAGES {
            self.pages_into_interval -= INTERVAL_PAGES;
            self.interval += 1;
            if self.memory_full {
                self.intervals_since_full += 1;
                self.evict.on_interval(self.intervals_since_full);
            }
        }
    }

    /// Halve prefetch aggressiveness (degradation ladder, shed 1).
    /// Each call doubles the throttle divisor, capped at 16.
    pub fn shed_prefetch(&mut self) {
        self.throttle = (self.throttle * 2).min(16);
    }

    /// Replace the policy pair with the conservative fallback — plain
    /// LRU eviction plus a sequential-local prefetcher that stops
    /// prefetching once memory is full (degradation ladder, shed 2).
    ///
    /// The chunk chain and all aggregate stats survive the swap; the
    /// outgoing policies' wrong-eviction count and buffer high-water
    /// marks are carried so [`PolicyEngine::wrong_evictions`] and
    /// [`PolicyEngine::overhead`] stay monotone across the fallback.
    pub fn fallback_to_baseline(&mut self) {
        use crate::evict::lru::LruPolicy;
        use crate::prefetch::sequential::SequentialLocalPrefetcher;
        self.wrong_evictions_carry += self.evict.wrong_evictions();
        self.evicted_buffer_carry = self
            .evicted_buffer_carry
            .max(self.evict.aux_buffer_max_len());
        self.pattern_buffer_carry = self
            .pattern_buffer_carry
            .max(self.prefetch.pattern_buffer_max_len());
        let evict = std::mem::replace(&mut self.evict, Box::new(LruPolicy::new()));
        let prefetch = std::mem::replace(
            &mut self.prefetch,
            Box::new(SequentialLocalPrefetcher::disable_on_full()),
        );
        self.suspended = Some(SuspendedPolicies {
            evict,
            prefetch,
            saw_full: self.memory_full,
        });
        if self.memory_full {
            self.evict.on_memory_full(&self.chain);
        }
        self.throttle = 1;
        self.fell_back = true;
    }

    /// Re-arm the policy pair parked by
    /// [`PolicyEngine::fallback_to_baseline`] (recovery rung: the thrash
    /// detector has been quiet long enough). Returns `false` when there
    /// is nothing to restore.
    ///
    /// Counter continuity: the fallback pair's wrong evictions and
    /// buffer high-water marks are retired into the carries; the
    /// suspended pair's wrong-eviction count was added to the carry at
    /// fallback time and is deducted again now that the pair reports it
    /// directly (it cannot have changed while parked), so
    /// [`PolicyEngine::wrong_evictions`] stays continuous in both
    /// directions.
    pub fn restore_policies(&mut self) -> bool {
        let Some(parked) = self.suspended.take() else {
            return false;
        };
        self.wrong_evictions_carry += self.evict.wrong_evictions();
        self.wrong_evictions_carry -= parked.evict.wrong_evictions();
        self.evicted_buffer_carry = self
            .evicted_buffer_carry
            .max(self.evict.aux_buffer_max_len());
        self.pattern_buffer_carry = self
            .pattern_buffer_carry
            .max(self.prefetch.pattern_buffer_max_len());
        self.evict = parked.evict;
        self.prefetch = parked.prefetch;
        if self.memory_full && !parked.saw_full {
            self.evict.on_memory_full(&self.chain);
        }
        self.fell_back = false;
        true
    }

    /// Step the prefetch throttle back toward full aggressiveness — the
    /// inverse of one [`PolicyEngine::shed_prefetch`] (recovery rung).
    pub fn restore_prefetch(&mut self) {
        self.throttle = (self.throttle / 2).max(1);
    }

    /// Has [`PolicyEngine::fallback_to_baseline`] run without a
    /// [`PolicyEngine::restore_policies`] since?
    #[must_use]
    pub fn fell_back(&self) -> bool {
        self.fell_back
    }

    /// Current prefetch throttle divisor (1 = full aggressiveness).
    #[must_use]
    pub fn prefetch_throttle(&self) -> u32 {
        self.throttle
    }

    /// Wrong evictions recorded by the policy (summed across a
    /// degradation fallback, if one happened).
    #[must_use]
    pub fn wrong_evictions(&self) -> u64 {
        self.wrong_evictions_carry + self.evict.wrong_evictions()
    }

    /// Overhead-analysis snapshot (§VI-C): chain length at full, the
    /// eviction policy's buffer high-water mark, and the prefetcher's
    /// pattern-buffer high-water mark.
    #[must_use]
    pub fn overhead(&self) -> OverheadSnapshot {
        OverheadSnapshot {
            chain_len_at_full: self.chain_len_at_full,
            chain_max_len: self.stats.chain_max_len,
            evicted_buffer_max: self
                .evicted_buffer_carry
                .max(self.evict.aux_buffer_max_len()),
            pattern_buffer_max: self
                .pattern_buffer_carry
                .max(self.prefetch.pattern_buffer_max_len()),
        }
    }

    /// Mutable access to the eviction policy (downcasting in the
    /// harness for MHPE-specific traces).
    pub fn evict_policy_mut(&mut self) -> &mut dyn EvictPolicy {
        self.evict.as_mut()
    }
}

/// Structure sizes for the §VI-C overhead analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverheadSnapshot {
    /// Chain length when memory first filled.
    pub chain_len_at_full: usize,
    /// Chain length high-water mark.
    pub chain_max_len: usize,
    /// Wrong-eviction buffer high-water mark.
    pub evicted_buffer_max: usize,
    /// Pattern buffer high-water mark.
    pub pattern_buffer_max: usize,
}

impl OverheadSnapshot {
    /// Total entries across the three structures (paper counts one
    /// 12-byte entry per chunk in each structure).
    #[must_use]
    pub fn total_entries(&self) -> usize {
        self.chain_max_len + self.evicted_buffer_max + self.pattern_buffer_max
    }

    /// Storage bytes at 12 B/entry (§VI-C: 8 B tag + 4 B bit set).
    #[must_use]
    pub fn storage_bytes(&self) -> usize {
        self.total_entries() * 12
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evict::lru::LruPolicy;
    use crate::evict::mhpe::MhpePolicy;
    use crate::prefetch::sequential::SequentialLocalPrefetcher;

    fn baseline() -> PolicyEngine {
        PolicyEngine::new(
            Box::new(LruPolicy::new()),
            Box::new(SequentialLocalPrefetcher::naive()),
        )
    }

    #[test]
    fn name_combines_policy_and_prefetcher() {
        assert_eq!(baseline().name(), "lru+seq-local");
    }

    #[test]
    fn plan_includes_fault_and_filters_resident() {
        let mut e = baseline();
        let mut pt = PageTable::new();
        pt.map(VirtPage(1), gmmu::types::Frame(0), false);
        let plan = e.plan_prefetch(VirtPage(3), &pt);
        assert!(plan.contains(&VirtPage(3)));
        assert!(!plan.contains(&VirtPage(1)));
        assert_eq!(plan.len(), 15);
    }

    #[test]
    fn interval_advances_every_64_pages() {
        let mut e = baseline();
        assert_eq!(e.interval(), 0);
        for i in 0..3 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        assert_eq!(e.interval(), 0);
        e.note_migrated(ChunkId(3), 16, true);
        assert_eq!(e.interval(), 1);
        for i in 4..8 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        assert_eq!(e.interval(), 2);
    }

    #[test]
    fn policy_interval_hook_fires_only_after_full() {
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(SequentialLocalPrefetcher::naive()),
        );
        // 8 chunk migrations = 2 intervals, memory not yet full.
        for i in 0..8 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        // MHPE's trace must be empty: no intervals counted pre-full.
        for i in 8..12 {
            e.note_evicted(ChunkId(i - 8), TouchVec::full(), 16);
            e.note_migrated(ChunkId(i), 16, true);
        }
        // One interval since full.
        let st = e.stats;
        assert_eq!(st.chunk_evictions, 4);
        assert_eq!(e.interval(), 3);
    }

    #[test]
    fn eviction_stats_and_chain_update() {
        let mut e = baseline();
        e.note_migrated(ChunkId(0), 16, true);
        e.note_migrated(ChunkId(1), 16, true);
        assert_eq!(e.chain().len(), 2);
        let mut touch = TouchVec::empty();
        touch.set(0);
        touch.set(1);
        e.note_evicted(ChunkId(0), touch, 16);
        assert_eq!(e.chain().len(), 1);
        assert_eq!(e.stats.pages_evicted, 16);
        assert_eq!(e.stats.total_untouch, 14);
    }

    #[test]
    fn untouch_respects_partial_residency() {
        let mut e = baseline();
        e.note_migrated(ChunkId(0), 8, true);
        let mut touch = TouchVec::empty();
        touch.set(0);
        // Only 8 pages were resident; 1 touched → untouch = 7.
        e.note_evicted(ChunkId(0), touch, 8);
        assert_eq!(e.stats.total_untouch, 7);
    }

    #[test]
    fn prefetched_page_accounting() {
        let mut e = baseline();
        e.note_migrated(ChunkId(0), 16, true); // 1 faulted + 15 prefetched
        e.note_migrated(ChunkId(1), 4, false); // all 4 prefetched
        assert_eq!(e.stats.pages_migrated, 20);
        assert_eq!(e.stats.pages_prefetched, 19);
    }

    #[test]
    fn victim_selection_roundtrip() {
        let mut e = baseline();
        for i in 0..4 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        assert_eq!(e.select_victim_pinned(&PinSet::new()), Some(ChunkId(0)));
        e.note_evicted(ChunkId(0), TouchVec::full(), 16);
        assert_eq!(e.select_victim_pinned(&PinSet::new()), Some(ChunkId(1)));
    }

    #[test]
    fn memory_full_latches_chain_len() {
        let mut e = baseline();
        for i in 0..5 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        assert_eq!(e.chain_len_at_full, 5);
        e.note_migrated(ChunkId(9), 16, true);
        e.note_memory_full(); // second call must not overwrite
        assert_eq!(e.chain_len_at_full, 5);
    }

    #[test]
    fn overhead_snapshot_math() {
        let s = OverheadSnapshot {
            chain_len_at_full: 100,
            chain_max_len: 120,
            evicted_buffer_max: 16,
            pattern_buffer_max: 10,
        };
        assert_eq!(s.total_entries(), 146);
        assert_eq!(s.storage_bytes(), 146 * 12);
    }

    #[test]
    fn wrong_eviction_reinserts_at_chain_head() {
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(SequentialLocalPrefetcher::naive()),
        );
        for i in 0..6 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        e.note_evicted(ChunkId(2), TouchVec::full(), 16);
        // Fault on the just-evicted chunk: wrong eviction detected.
        e.note_fault(ChunkId(2).page(0));
        assert_eq!(e.wrong_evictions(), 1);
        e.note_migrated(ChunkId(2), 16, true);
        // The chunk must sit at the LRU end (head) of the chain.
        assert_eq!(e.chain().iter_lru().next(), Some(ChunkId(2)));
    }

    #[test]
    fn shed_prefetch_throttles_plans() {
        let mut e = baseline();
        let pt = PageTable::new();
        assert_eq!(e.plan_prefetch(VirtPage(3), &pt).len(), 16);
        e.shed_prefetch();
        assert_eq!(e.prefetch_throttle(), 2);
        let plan = e.plan_prefetch(VirtPage(3), &pt);
        assert_eq!(plan.len(), 8, "half the chunk under throttle 2");
        assert!(plan.contains(&VirtPage(3)));
        // Repeated sheds double the divisor, capped at 16.
        for _ in 0..10 {
            e.shed_prefetch();
        }
        assert_eq!(e.prefetch_throttle(), 16);
        assert_eq!(e.plan_prefetch(VirtPage(3), &pt).len(), 1);
    }

    #[test]
    fn fallback_preserves_counters_and_keeps_chain() {
        use crate::prefetch::pattern::PatternAwarePrefetcher;
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(PatternAwarePrefetcher::new()),
        );
        for i in 0..6 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        e.note_evicted(ChunkId(2), TouchVec::full(), 16);
        e.note_fault(ChunkId(2).page(0)); // wrong eviction
        assert_eq!(e.wrong_evictions(), 1);
        let pre = e.overhead();
        assert!(!e.fell_back());
        e.fallback_to_baseline();
        assert!(e.fell_back());
        assert_eq!(
            e.name(),
            "lru+seq-local-nopf-on-full",
            "baseline fallback pair"
        );
        assert_eq!(e.wrong_evictions(), 1, "carried across the swap");
        let post = e.overhead();
        assert!(post.evicted_buffer_max >= pre.evicted_buffer_max);
        assert!(post.pattern_buffer_max >= pre.pattern_buffer_max);
        // Chain survives the swap: LRU can still pick a victim.
        assert!(e.select_victim_pinned(&PinSet::new()).is_some());
        // Memory-full latched → the fallback prefetcher plans only the
        // faulted page, killing the wasteful traffic.
        let pt = PageTable::new();
        assert_eq!(e.plan_prefetch(VirtPage(100), &pt), vec![VirtPage(100)]);
    }

    #[test]
    fn restore_rearms_suspended_policies_with_continuous_counters() {
        use crate::prefetch::pattern::PatternAwarePrefetcher;
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(PatternAwarePrefetcher::new()),
        );
        for i in 0..6 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        e.note_evicted(ChunkId(2), TouchVec::full(), 16);
        e.note_fault(ChunkId(2).page(0)); // wrong eviction on the originals
        assert_eq!(e.wrong_evictions(), 1);
        e.fallback_to_baseline();
        assert_eq!(e.wrong_evictions(), 1, "monotone through fallback");
        assert!(e.restore_policies(), "a parked pair was re-armed");
        assert!(!e.fell_back());
        assert_eq!(e.name(), "mhpe+pattern-aware-s2", "originals are back");
        assert_eq!(e.wrong_evictions(), 1, "continuous through restore");
        assert!(!e.restore_policies(), "nothing left to restore");
        // The re-armed policies still work against the surviving chain.
        assert!(e.select_victim_pinned(&PinSet::new()).is_some());
    }

    #[test]
    fn victim_candidates_preview_is_non_mutating_and_covers_victim() {
        // The audit preview must not perturb selection: previewing the
        // candidate window and then selecting must give the same victim
        // as selecting cold, and the victim must be in the window.
        use crate::evict::clock::ClockPolicy;
        use crate::evict::random::RandomPolicy;
        use crate::evict::rrip::SrripPolicy;
        let make: Vec<Box<dyn Fn() -> Box<dyn EvictPolicy>>> = vec![
            Box::new(|| Box::new(LruPolicy::new())),
            Box::new(|| Box::new(RandomPolicy::new(42))),
            Box::new(|| Box::new(ClockPolicy::new())),
            Box::new(|| Box::new(SrripPolicy::new())),
            Box::new(|| Box::new(MhpePolicy::new())),
            Box::new(|| Box::new(crate::evict::hpe::HpePolicy::new())),
            Box::new(|| Box::new(crate::evict::reserved_lru::ReservedLruPolicy::new(20))),
        ];
        for mk in &make {
            let drive = |preview: bool| {
                let mut e = PolicyEngine::new(mk(), Box::new(SequentialLocalPrefetcher::naive()));
                for i in 0..12 {
                    e.note_migrated(ChunkId(i), 16, true);
                }
                e.note_memory_full();
                let cands = preview.then(|| e.victim_candidates(&PinSet::new(), 8));
                let v = e.select_victim_pinned(&PinSet::new());
                (cands, v)
            };
            let (_, cold) = drive(false);
            let (cands, previewed) = drive(true);
            let name = mk().name();
            assert_eq!(previewed, cold, "{name}: preview changed selection");
            let cands = cands.unwrap();
            assert!(!cands.is_empty(), "{name}: empty candidate window");
            assert!(cands.len() <= 8, "{name}: window over limit");
            assert!(
                cands.contains(&cold.unwrap()),
                "{name}: victim {cold:?} outside window {cands:?}"
            );
        }
    }

    #[test]
    fn victim_candidates_relax_pinned_set_like_selection() {
        let mut e = baseline();
        for i in 0..3 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        let mut pin = PinSet::new();
        for i in 0..3 {
            pin.insert(ChunkId(i));
        }
        // Everything pinned: selection falls back to ignoring the pinned
        // set, and the preview must report the same relaxed window.
        let cands = e.victim_candidates(&pin, 8);
        assert_eq!(cands.len(), 3);
        assert_eq!(e.select_victim_pinned(&pin), Some(ChunkId(0)));
        assert!(cands.contains(&ChunkId(0)));
        // The hashed-set adapter selects the same victim.
        let hashed: FxHashSet<ChunkId> = pin.iter().collect();
        assert_eq!(e.select_victim(&hashed), Some(ChunkId(0)));
    }

    #[test]
    fn counters_stay_continuous_across_repeated_fallback_cycles() {
        // The single-transition carry is covered above; thrash storms
        // drive the ladder through fallback→recovery repeatedly, and the
        // wrong-eviction count must stay monotone and exact throughout.
        use crate::prefetch::pattern::PatternAwarePrefetcher;
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(PatternAwarePrefetcher::new()),
        );
        for i in 0..6 {
            e.note_migrated(ChunkId(i), 16, true);
        }
        e.note_memory_full();
        let mut expected = 0u64;
        // Fresh chunk ids (100..) churned in per episode.
        for (next, cycle) in (100u64..).zip(0..4) {
            // One wrong eviction on whichever pair is active.
            let victim = e.select_victim_pinned(&PinSet::new()).unwrap();
            e.note_evicted(victim, TouchVec::full(), 16);
            e.note_fault(victim.first_page());
            e.note_migrated(victim, 16, true);
            expected += 1;
            assert_eq!(e.wrong_evictions(), expected, "cycle {cycle}: pre-fallback");

            e.fallback_to_baseline();
            assert_eq!(
                e.wrong_evictions(),
                expected,
                "cycle {cycle}: post-fallback"
            );

            // An evict/refault episode while degraded: the plain-LRU
            // fallback keeps no wrong-eviction buffer, so the count must
            // hold steady — neither lost nor double-counted later.
            let victim = e.select_victim_pinned(&PinSet::new()).unwrap();
            e.note_evicted(victim, TouchVec::full(), 16);
            e.note_fault(victim.first_page());
            e.note_migrated(victim, 16, true);
            assert_eq!(e.wrong_evictions(), expected, "cycle {cycle}: degraded");

            assert!(e.restore_policies(), "cycle {cycle}: restore");
            assert_eq!(e.wrong_evictions(), expected, "cycle {cycle}: post-restore");
            assert_eq!(
                e.name(),
                "mhpe+pattern-aware-s2",
                "cycle {cycle}: originals"
            );

            // Churn between cycles so state keeps evolving.
            e.note_migrated(ChunkId(next), 16, true);
        }
        // Buffer high-water marks stay monotone through every swap.
        let oh = e.overhead();
        assert!(oh.evicted_buffer_max > 0);
    }

    #[test]
    fn restore_prefetch_steps_throttle_back_down() {
        let mut e = baseline();
        e.shed_prefetch();
        e.shed_prefetch();
        assert_eq!(e.prefetch_throttle(), 4);
        e.restore_prefetch();
        assert_eq!(e.prefetch_throttle(), 2);
        e.restore_prefetch();
        assert_eq!(e.prefetch_throttle(), 1);
        e.restore_prefetch();
        assert_eq!(e.prefetch_throttle(), 1, "floored at full aggressiveness");
    }

    #[test]
    fn stats_metrics_use_stable_dotted_names() {
        let mut e = baseline();
        e.note_migrated(ChunkId(0), 16, true);
        let m = e.stats.metrics();
        assert_eq!(m[0].0, "cppe.faults");
        assert!(m.iter().all(|(n, _)| n.starts_with("cppe.")));
        assert_eq!(
            m.iter()
                .find(|(n, _)| *n == "cppe.pages_migrated")
                .unwrap()
                .1,
            16
        );
    }

    #[test]
    fn coordination_pattern_flows_to_prefetcher() {
        // The CPPE loop: evict with a stride pattern → prefetcher records
        // it → next fault on a matching page prefetches only the pattern.
        use crate::prefetch::pattern::PatternAwarePrefetcher;
        let mut e = PolicyEngine::new(
            Box::new(MhpePolicy::new()),
            Box::new(PatternAwarePrefetcher::new()),
        );
        let mut touch = TouchVec::empty();
        for i in (0..16).step_by(2) {
            touch.set(i);
        }
        e.note_migrated(ChunkId(0), 16, true);
        e.note_memory_full();
        e.note_evicted(ChunkId(0), touch, 16);
        let pt = PageTable::new();
        let plan = e.plan_prefetch(ChunkId(0).page(2), &pt);
        assert_eq!(plan.len(), 8, "only the stride-2 pattern pages");
    }
}
