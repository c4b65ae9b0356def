//! Hook points of the simulator's event loop.
//!
//! [`simulate_with`](crate::simulate_with) is generic over an
//! [`Observer`]: the loop calls one method per natural simulation event
//! — an access hit, a far fault raised, a fault batch dispatched, a page
//! landing — and knows nothing about what the observer does with it.
//! An [`Observer`] is also a [`DriverObserver`]: the loop hands it to
//! [`UvmDriver::service_batch_with`], so one observer sees both the
//! loop and the driver's batch service. Every method defaults to a
//! no-op, so [`NoObserver`] monomorphizes to a loop with no hook code
//! at all.
//!
//! Observers watch; they never steer. A hook sees the simulator through
//! a read-only [`Ctx`] (a driver hook sees the driver read-only), so any
//! observer combination leaves every simulated quantity bit-identical
//! (`tests/observers.rs` checks this). Telemetry recording is one such
//! observer, kept outside the simulator crates (`harness::Tracing`).
//!
//! Observers here:
//! * [`Timeline`] — one [`TimelinePoint`] per dispatched batch;
//! * [`Invariants`] — cross-structure consistency checks at every batch
//!   boundary;
//! * [`FireCounts`] — the wake calendar's traffic per event kind, and
//!   how often the inline wake fires;
//! * [`EvictionPasses`] — how often chunk-granular eviction replaced
//!   per-page TLB removes and data-cache scans, how the chunk chain's
//!   order index answered positional victim selections, and how the
//!   driver's dense pin set and the chain's dense chunk-id index did
//!   their work.
//!
//! A pair `(A, B)` of observers is itself an observer that calls `A`
//! then `B`.

use crate::cache::{DataHierarchy, InvalidationCounts};
use crate::calendar::QueueCounts;
use crate::waiters::WaiterTable;
use cppe::chain::IndexCounts;
use cppe::pins::PinCounts;
use gmmu::translation::{ShootdownCounts, TranslationPath, TranslationTiming};
use gmmu::types::VirtPage;
use sim_core::time::Cycle;
use sim_core::{FxHashMap, FxHashSet};
use uvm::driver::{BatchResult, UvmDriver};
pub use uvm::observe::{DriverObserver, NoObserver};

/// What a hook may see of the simulator at the moment it fires.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub(crate) driver: &'a UvmDriver,
    pub(crate) xlat: &'a TranslationPath,
    pub(crate) caches: &'a DataHierarchy,
    pub(crate) waiting: &'a WaiterTable,
    pub(crate) pending: &'a [VirtPage],
}

impl<'a> Ctx<'a> {
    /// The UVM driver: policy engine, counters, frame pool.
    #[must_use]
    pub fn driver(&self) -> &'a UvmDriver {
        self.driver
    }

    /// The translation path: TLBs, walker and page table.
    #[must_use]
    pub fn xlat(&self) -> &'a TranslationPath {
        self.xlat
    }

    /// The L1/L2 data caches.
    #[must_use]
    pub fn caches(&self) -> &'a DataHierarchy {
        self.caches
    }

    /// Lanes blocked on in-flight far faults, per page.
    #[must_use]
    pub fn waiting(&self) -> &'a WaiterTable {
        self.waiting
    }

    /// Faults raised but not yet dispatched to the driver.
    #[must_use]
    pub fn pending(&self) -> &'a [VirtPage] {
        self.pending
    }
}

/// Callbacks at the event loop's hook points, on top of the driver's.
/// All default to no-ops.
#[allow(unused_variables)]
pub trait Observer: DriverObserver {
    /// Lane `lane`'s translation of `page` hit; the access proceeds at
    /// `ready_at`.
    #[inline]
    fn access_hit(&mut self, ctx: Ctx<'_>, lane: u32, page: VirtPage, ready_at: Cycle) {}

    /// Lane `lane`, issuing at `now`, missed every TLB and the walk
    /// found `page` not resident at `at`; `timing` stamps each stage.
    /// The lane blocks until the page's migration completes.
    #[inline]
    fn fault_raised(
        &mut self,
        ctx: Ctx<'_>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
    }

    /// The driver serviced the fault batch dispatched at `dispatch`:
    /// `batch` lists its completions, migrations, evictions and
    /// deferred faults. Completion events are queued and deferred
    /// faults are back in the pending list. Not called for a batch that
    /// ended the run.
    #[inline]
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {}

    /// A migration completion for `page` fired at `now`; `lanes` (in
    /// wake order, possibly none) replay their access.
    #[inline]
    fn page_ready(&mut self, ctx: Ctx<'_>, page: VirtPage, now: Cycle, lanes: &[u32]) {}

    /// Lane `lane`, the first of a [`page_ready`](Observer::page_ready)
    /// call's lanes, replays at `now` without a queue round trip: no
    /// other event was queued at `now`, so its wake would have been the
    /// next pop anyway.
    #[inline]
    fn inline_wake(&mut self, ctx: Ctx<'_>, lane: u32, now: Cycle) {}

    /// The run ended, however it ended; `queue` is its traffic through
    /// the wake calendar.
    #[inline]
    fn queue_traffic(&mut self, queue: &QueueCounts) {}
}

impl Observer for NoObserver {}

impl<A: Observer, B: Observer> Observer for (A, B) {
    #[inline]
    fn access_hit(&mut self, ctx: Ctx<'_>, lane: u32, page: VirtPage, ready_at: Cycle) {
        self.0.access_hit(ctx, lane, page, ready_at);
        self.1.access_hit(ctx, lane, page, ready_at);
    }

    #[inline]
    fn fault_raised(
        &mut self,
        ctx: Ctx<'_>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        self.0.fault_raised(ctx, lane, page, now, timing, at);
        self.1.fault_raised(ctx, lane, page, now, timing, at);
    }

    #[inline]
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        self.0.batch_dispatched(ctx, dispatch, batch);
        self.1.batch_dispatched(ctx, dispatch, batch);
    }

    #[inline]
    fn page_ready(&mut self, ctx: Ctx<'_>, page: VirtPage, now: Cycle, lanes: &[u32]) {
        self.0.page_ready(ctx, page, now, lanes);
        self.1.page_ready(ctx, page, now, lanes);
    }

    #[inline]
    fn inline_wake(&mut self, ctx: Ctx<'_>, lane: u32, now: Cycle) {
        self.0.inline_wake(ctx, lane, now);
        self.1.inline_wake(ctx, lane, now);
    }

    #[inline]
    fn queue_traffic(&mut self, queue: &QueueCounts) {
        self.0.queue_traffic(queue);
        self.1.queue_traffic(queue);
    }
}

impl<O: Observer + ?Sized> Observer for &mut O {
    #[inline]
    fn access_hit(&mut self, ctx: Ctx<'_>, lane: u32, page: VirtPage, ready_at: Cycle) {
        (**self).access_hit(ctx, lane, page, ready_at);
    }

    #[inline]
    fn fault_raised(
        &mut self,
        ctx: Ctx<'_>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        (**self).fault_raised(ctx, lane, page, now, timing, at);
    }

    #[inline]
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        (**self).batch_dispatched(ctx, dispatch, batch);
    }

    #[inline]
    fn page_ready(&mut self, ctx: Ctx<'_>, page: VirtPage, now: Cycle, lanes: &[u32]) {
        (**self).page_ready(ctx, page, now, lanes);
    }

    #[inline]
    fn inline_wake(&mut self, ctx: Ctx<'_>, lane: u32, now: Cycle) {
        (**self).inline_wake(ctx, lane, now);
    }

    #[inline]
    fn queue_traffic(&mut self, queue: &QueueCounts) {
        (**self).queue_traffic(queue);
    }
}

/// One timeline sample, taken at a fault-batch dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimelinePoint {
    /// Simulated cycle of the dispatch.
    pub cycle: u64,
    /// Cumulative demand faults.
    pub faults: u64,
    /// Cumulative pages migrated in.
    pub pages_migrated: u64,
    /// Cumulative pages evicted.
    pub pages_evicted: u64,
    /// Resident pages at the sample.
    pub resident_pages: u64,
}

/// Samples the policy engine's cumulative counters at every batch.
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    /// One point per dispatched batch, in dispatch order.
    pub points: Vec<TimelinePoint>,
}

impl DriverObserver for Timeline {}

impl Observer for Timeline {
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, _batch: &BatchResult) {
        let st = ctx.driver().engine().stats;
        self.points.push(TimelinePoint {
            cycle: dispatch.0,
            faults: st.faults,
            pages_migrated: st.pages_migrated,
            pages_evicted: st.pages_evicted,
            resident_pages: ctx.xlat().page_table().resident_count() as u64,
        });
    }
}

/// What the event loop's own machinery did during a run — work
/// `RunResult`'s counters cannot show: the wake calendar's counted
/// traffic and the inline wakes that bypassed it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FireCounts {
    /// Pushes and pops per event kind, and cross-kind stamp compares.
    pub queue: QueueCounts,
    /// Woken lanes that replayed their faulted access without a queue
    /// round trip.
    pub inline_wakes: u64,
}

impl DriverObserver for FireCounts {}

impl Observer for FireCounts {
    #[inline]
    fn inline_wake(&mut self, _: Ctx<'_>, _: u32, _: Cycle) {
        self.inline_wakes += 1;
    }

    fn queue_traffic(&mut self, queue: &QueueCounts) {
        self.queue = *queue;
    }
}

/// How eviction did its work: the translation path's shootdown counts,
/// the data caches' invalidation counts, the chunk chain's index counts
/// and the driver's pin-set counts, as of the last dispatched batch
/// (the only place any of them changes). Like [`FireCounts`], no result
/// or fingerprint sees them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvictionPasses {
    /// TLB chunk row passes against single-page removes.
    pub shootdown: ShootdownCounts,
    /// L1-bank span passes, and those the chunk gate skipped, against
    /// evicted pages.
    pub invalidation: InvalidationCounts,
    /// Positional victim selections, re-slots of the chain's order
    /// index and the length its dense chunk-id index grew to.
    pub victim_index: IndexCounts,
    /// Pins, pin-set clears and epoch wraps, and the length the pin
    /// stamps grew to.
    pub pins: PinCounts,
}

impl DriverObserver for EvictionPasses {}

impl Observer for EvictionPasses {
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, _: Cycle, _: &BatchResult) {
        self.shootdown = ctx.xlat().shootdown_counts();
        self.invalidation = ctx.caches().invalidation_counts();
        self.victim_index = ctx.driver().engine().chain().index_counts();
        self.pins = ctx.driver().pin_counts();
    }
}

/// Cross-structure consistency checks at every batch boundary:
///
/// * the frame pool and the page table agree (capacity − free frames =
///   resident pages);
/// * every TLB presence mask matches the TLBs, in full
///   ([`TranslationPath::masks_consistent`]): every cached translation
///   is of a resident page at its frame, and each mask bit names
///   exactly one TLB entry. The masks decide TLB probe results, so a
///   missing bit would silently duplicate an entry;
/// * the eviction policy's chunk chain is exactly the set of chunks
///   holding a resident page: each chain chunk holds one, and their
///   resident pages add up to the page table's resident count; and its
///   order index and dense chunk-id index agree with its list — every
///   non-`NIL` index entry names the linked node of that chunk, and
///   there are exactly as many entries as chain chunks
///   ([`ChunkChain::indexes_consistent`](cppe::ChunkChain::indexes_consistent));
/// * no page this batch evicted is still held by a data cache, and
///   every page an L1 or the L2 holds is resident — the fact that makes
///   the data caches' chunk-granular invalidation exact — and both
///   levels' per-chunk page counts, which gate that invalidation, match
///   their rows
///   ([`DataHierarchy::chunk_counts_consistent`]);
/// * no lane waits on two pages at once, and every page with waiters
///   is either pending dispatch or has a completion queued;
/// * batches dispatch in non-decreasing time.
///
/// The first violation is kept with its cycle; later batches still
/// count as checked.
#[derive(Debug, Clone, Default)]
pub struct Invariants {
    /// Batch boundaries checked.
    pub checks: u64,
    /// The first violation seen, if any.
    pub violation: Option<String>,
    /// Queued-but-unfired completions per page (a page may have
    /// several: a coalesced duplicate and its original).
    in_flight: FxHashMap<VirtPage, u32>,
    last_dispatch: u64,
}

impl Invariants {
    /// Panic with the first violation, if any.
    ///
    /// # Panics
    /// Panics when a check failed.
    pub fn assert_clean(&self) {
        if let Some(v) = &self.violation {
            panic!("invariant violated: {v}");
        }
    }

    fn check(&self, ctx: &Ctx<'_>, dispatch: Cycle, batch: &BatchResult) -> Result<(), String> {
        let pt = ctx.xlat().page_table();
        let held = ctx.driver().capacity_frames() - ctx.driver().free_frames();
        if u64::from(held) != pt.resident_count() as u64 {
            return Err(format!(
                "{held} frames allocated but {} pages resident",
                pt.resident_count()
            ));
        }
        let chain = ctx.driver().engine().chain();
        let mut chained = 0;
        for chunk in chain.iter_lru() {
            let held = chunk.pages().filter(|&p| pt.is_resident(p)).count();
            if held == 0 {
                return Err(format!(
                    "{chunk:?} is in the chain but holds no resident page"
                ));
            }
            chained += held;
        }
        if chained != pt.resident_count() {
            return Err(format!(
                "chain chunks hold {chained} resident pages but {} are resident",
                pt.resident_count()
            ));
        }
        if !chain.indexes_consistent() {
            return Err("the chunk chain's order or chunk-id index disagrees with its list".into());
        }
        if !ctx.xlat().masks_consistent() {
            return Err("TLB presence masks disagree with the TLBs".into());
        }
        if let Some(page) = batch.evicted.iter().find(|&&p| ctx.caches().holds(p)) {
            return Err(format!("evicted {page:?} is still in a data cache"));
        }
        if let Some(page) = ctx.caches().pages().find(|&p| !pt.is_resident(p)) {
            return Err(format!("{page:?} is in a data cache but not resident"));
        }
        if !ctx.caches().chunk_counts_consistent() {
            return Err("a data cache's per-chunk page counts disagree with its rows".into());
        }
        if dispatch.0 < self.last_dispatch {
            return Err(format!(
                "batch dispatched at {} after one at {}",
                dispatch.0, self.last_dispatch
            ));
        }
        let pending: FxHashSet<VirtPage> = ctx.pending().iter().copied().collect();
        let waiting = ctx.waiting();
        let mut seen = FxHashSet::default();
        for page in waiting.pages() {
            for lane in waiting.lanes(page) {
                if !seen.insert(lane) {
                    return Err(format!("lane {lane} waits on two pages"));
                }
            }
            if !pending.contains(&page) && !self.in_flight.contains_key(&page) {
                return Err(format!(
                    "{page:?} has waiters but no pending fault or queued completion"
                ));
            }
        }
        Ok(())
    }
}

impl DriverObserver for Invariants {}

impl Observer for Invariants {
    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        for &(page, _) in &batch.completions {
            *self.in_flight.entry(page).or_insert(0) += 1;
        }
        if let Err(e) = self.check(&ctx, dispatch, batch) {
            self.violation
                .get_or_insert_with(|| format!("batch at cycle {}: {e}", dispatch.0));
        }
        self.last_dispatch = dispatch.0;
        self.checks += 1;
    }

    fn page_ready(&mut self, _: Ctx<'_>, page: VirtPage, _: Cycle, _: &[u32]) {
        if let Some(n) = self.in_flight.get_mut(&page) {
            *n -= 1;
            if *n == 0 {
                self.in_flight.remove(&page);
            }
        }
    }
}
