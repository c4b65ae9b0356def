//! The reference simulator: a second, deliberately slow event loop
//! built only from the slow parts, kept as the differential oracle for
//! [`simulate`](crate::simulate).
//!
//! It models the same machine with the same [`UvmDriver`] and
//! [`PolicyEngine`], barrier rule, compute-jitter draws, timeout rule
//! and crash and error handling, and none of the production loop's
//! speed mechanisms:
//!
//! * one event per access on a [`BinaryHeap`] keyed by (cycle, push
//!   sequence), so events at one cycle pop in push order: no wake
//!   calendar, and one queued `LaneReady` per woken lane (no inline
//!   wake);
//! * a hashed map of FIFO waiter queues, with no page-indexed runs;
//! * `gmmu::translation::legacy::ScanPath`: scan TLBs that cache
//!   frames, with no presence masks, and per-page shootdowns;
//! * one `cache::legacy::ScanPageCache` L1 per SM, a scan L2 and
//!   `dram::legacy::VecDram`, with every evicted page invalidated in
//!   every cache and no chunk gate.
//!
//! It shares no code with the production loop. [`check`] runs both on
//! the same streams and compares their [`Fingerprint`]s; the production
//! side's batch record comes from the [`BatchLog`] observer. Both loops
//! attach a [`HookLog`] to the driver, so the fingerprints also hold
//! every driver hook call in order — each cycle stamp, plan, candidate
//! window and the counters behind each serviced batch: everything a
//! tracing observer could record from the driver.

use crate::cache::legacy::ScanPageCache;
use crate::cache::{L1_HIT, L1_SETS, L1_WAYS, L2_HIT, L2_SETS, L2_WAYS};
use crate::config::GpuConfig;
use crate::dram::legacy::VecDram;
use crate::observe::{Ctx, Observer};
use crate::sim::{Outcome, RunResult};
use cppe::engine::PolicyEngine;
use gmmu::translation::legacy::ScanPath;
use gmmu::translation::{Mmu, TranslationOutcome, TranslationTiming};
use gmmu::types::{SmId, VirtPage};
use sim_core::fault::FaultInjector;
use sim_core::rng::Xoshiro256ss;
use sim_core::time::Cycle;
use sim_core::FxHashMap;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use uvm::driver::{BatchResult, UvmConfig, UvmDriver};
use uvm::observe::{DriverObserver, Hook, HookLog};
use workloads::LaneItem;

/// One serviced fault batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch {
    /// Dispatch cycle.
    pub at: Cycle,
    /// The faults handed to the driver, in order.
    pub faults: Vec<VirtPage>,
    /// Pages the batch evicted, in eviction order.
    pub evicted: Vec<VirtPage>,
    /// Each fault's completion, in service order.
    pub completions: Vec<(VirtPage, Cycle)>,
    /// When the host finished the batch.
    pub host_done: Cycle,
}

impl Batch {
    fn new(at: Cycle, faults: Vec<VirtPage>, r: &BatchResult) -> Self {
        Batch {
            at,
            faults,
            evicted: r.evicted.clone(),
            completions: r.completions.clone(),
            host_done: r.host_done,
        }
    }
}

/// Records a production run's [`Batch`]es. A batch that ends the run
/// is not recorded, by either loop.
#[derive(Debug, Default)]
pub struct BatchLog {
    /// Batches in dispatch order.
    pub batches: Vec<Batch>,
    /// Faults raised since the last dispatch, behind its deferred tail.
    queued: Vec<VirtPage>,
}

impl DriverObserver for BatchLog {}

impl Observer for BatchLog {
    fn fault_raised(
        &mut self,
        _: Ctx<'_>,
        _: u32,
        page: VirtPage,
        _: Cycle,
        _: &TranslationTiming,
        _: Cycle,
    ) {
        self.queued.push(page);
    }

    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        // The deferred tail is all that is pending right after dispatch.
        let faults = std::mem::replace(&mut self.queued, ctx.pending().to_vec());
        self.batches.push(Batch::new(dispatch, faults, batch));
    }
}

impl Observer for HookLog {}

/// Everything both loops observably compute, as comparable values.
#[derive(Debug, PartialEq, Eq)]
pub struct Fingerprint {
    /// Outcome, error, cycles, accesses, every counter block, byte
    /// totals, frames, resident pages, the MHPE trace and the
    /// pattern-buffer length.
    pub head: String,
    /// The batch timeline.
    pub batches: Vec<Batch>,
    /// Every driver hook call, in order.
    pub hooks: Vec<Hook>,
}

impl Fingerprint {
    /// Fingerprint run `r` with its batch timeline and driver hooks.
    #[must_use]
    pub fn new(r: &RunResult, batches: Vec<Batch>, hooks: Vec<Hook>) -> Self {
        let head = format!(
            "{:?} error={:?} cycles={} accesses={}\nengine={:?}\ndriver={:?}\n\
             translation={:?}\ninjection={:?}\noverhead={:?}\nh2d={} d2h={} wrong={} \
             pbuf={} frames={}/{} resident={}\nmhpe={:?}",
            r.outcome,
            r.error,
            r.cycles,
            r.accesses,
            r.engine,
            r.driver,
            r.translation,
            r.injection,
            r.overhead,
            r.bytes_h2d,
            r.bytes_d2h,
            r.wrong_evictions,
            r.pattern_buffer_len,
            r.frames_free,
            r.frames_capacity,
            r.resident_pages,
            r.mhpe,
        );
        Fingerprint {
            head,
            batches,
            hooks,
        }
    }

    /// The first difference from `other`, or `None` when they agree.
    #[must_use]
    pub fn diff(&self, other: &Fingerprint) -> Option<String> {
        fn first<T: PartialEq + std::fmt::Debug>(what: &str, a: &[T], b: &[T]) -> Option<String> {
            match a.iter().zip(b).position(|(x, y)| x != y) {
                Some(i) => Some(format!("{what} {i}:\n  {:?}\nvs\n  {:?}", a[i], b[i])),
                None => (a.len() != b.len())
                    .then(|| format!("{what} count: {} vs {}", a.len(), b.len())),
            }
        }
        if self.head != other.head {
            return Some(format!("{}\nvs\n{}", self.head, other.head));
        }
        first("batch", &self.batches, &other.batches)
            .or_else(|| first("driver hook", &self.hooks, &other.hooks))
    }
}

/// Run `streams` through the production loop, with `obs` attached, and
/// through the reference loop, each with a fresh `engine()`. Returns
/// the production result, or the first difference between the two
/// runs' [`Fingerprint`]s.
///
/// # Errors
/// Returns a description of the first difference.
///
/// # Panics
/// As [`simulate`](crate::simulate).
pub fn check<O: Observer>(
    cfg: &GpuConfig,
    engine: &dyn Fn() -> PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity_pages: u32,
    footprint_pages: u64,
    obs: O,
) -> Result<RunResult, String> {
    let mut log = BatchLog::default();
    let mut hooks = HookLog::default();
    let r = crate::simulate_with(
        cfg,
        engine(),
        streams,
        capacity_pages,
        footprint_pages,
        ((&mut log, &mut hooks), obs),
    );
    let (slow, batches, slow_hooks) =
        simulate(cfg, engine(), streams, capacity_pages, footprint_pages);
    let fast = Fingerprint::new(&r, log.batches, hooks.calls);
    match fast.diff(&Fingerprint::new(&slow, batches, slow_hooks)) {
        Some(d) => Err(format!("production vs reference: {d}")),
        None => Ok(r),
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    LaneReady(u32),
    PageReady(VirtPage),
    DriverFree,
}

/// Why the loop stopped early.
enum Stop {
    Timeout,
    Crashed(Cycle),
    Error(String),
}

/// The scan data caches: one L1 per SM, the shared L2 and DRAM.
struct Caches {
    l1: Vec<ScanPageCache>,
    l2: ScanPageCache,
    dram: VecDram,
}

impl Caches {
    fn access(&mut self, sm: usize, page: VirtPage, now: Cycle) -> u64 {
        if self.l1[sm].access(page) {
            L1_HIT
        } else if self.l2.access(page) {
            L1_HIT + L2_HIT
        } else {
            L1_HIT + L2_HIT + self.dram.access(page, now)
        }
    }

    fn invalidate(&mut self, page: VirtPage) {
        for l1 in &mut self.l1 {
            l1.invalidate(page);
        }
        self.l2.invalidate(page);
    }
}

/// The machine the reference loop drives.
struct Machine {
    xlat: ScanPath,
    driver: UvmDriver,
    caches: Caches,
    queue: BinaryHeap<Reverse<(Cycle, u64, Event)>>,
    pushes: u64,
    waiting: FxHashMap<VirtPage, VecDeque<u32>>,
    pending: Vec<VirtPage>,
    driver_busy: bool,
    batches: Vec<Batch>,
    hooks: HookLog,
}

impl Machine {
    fn push(&mut self, at: Cycle, event: Event) {
        self.queue.push(Reverse((at, self.pushes, event)));
        self.pushes += 1;
    }

    fn dispatch(&mut self, at: Cycle) -> Result<(), Stop> {
        self.driver_busy = true;
        let faults = std::mem::take(&mut self.pending);
        let r = self
            .driver
            .service_batch_with(&faults, at, &mut self.xlat, &mut self.hooks)
            .map_err(|e| Stop::Error(e.to_string()))?;
        if r.crashed {
            return Err(Stop::Crashed(r.done_at));
        }
        self.pending.extend_from_slice(&r.deferred);
        for &page in &r.evicted {
            self.caches.invalidate(page);
        }
        for &(page, t) in &r.completions {
            self.push(t, Event::PageReady(page));
        }
        self.push(r.host_done, Event::DriverFree);
        self.batches.push(Batch::new(at, faults, &r));
        Ok(())
    }
}

/// Run `streams` through the reference loop: the same arguments and
/// [`RunResult`] as [`simulate`](crate::simulate), plus the batch
/// timeline and the driver's hook calls.
///
/// # Panics
/// As [`simulate`](crate::simulate).
#[must_use]
pub fn simulate(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity_pages: u32,
    footprint_pages: u64,
) -> (RunResult, Vec<Batch>, Vec<Hook>) {
    assert!(streams.len() <= cfg.lanes(), "more streams than lanes");
    let driver = UvmDriver::with_injection(
        UvmConfig {
            capacity_pages,
            fault_base_cycles: cfg.fault_base_cycles,
            per_fault_cycles: cfg.per_fault_cycles,
            pcie_gb_per_s: cfg.pcie_gb_per_s,
            crash_untouch_fraction: cfg.crash_untouch_fraction,
            crash_min_evicted_factor: cfg.crash_min_evicted_factor,
            footprint_pages,
        },
        engine,
        FaultInjector::new(cfg.injection),
        cfg.resilience,
    )
    .expect("invalid GPU/UVM configuration");
    let mut m = Machine {
        xlat: ScanPath::new(&cfg.translation),
        driver,
        caches: Caches {
            l1: (0..cfg.sms)
                .map(|_| ScanPageCache::new(L1_SETS * L1_WAYS, L1_WAYS))
                .collect(),
            l2: ScanPageCache::new(L2_SETS * L2_WAYS, L2_WAYS),
            dram: VecDram::default(),
        },
        queue: BinaryHeap::new(),
        pushes: 0,
        waiting: FxHashMap::default(),
        pending: Vec::new(),
        driver_busy: false,
        batches: Vec::new(),
        hooks: HookLog::default(),
    };
    // Barrier `b` releases once every lane with more than `b` barriers
    // has arrived at it.
    let barriers: Vec<usize> = streams
        .iter()
        .map(|s| s.iter().filter(|i| matches!(i, LaneItem::Barrier)).count())
        .collect();
    let mut parked: Vec<Vec<u32>> = vec![Vec::new(); barriers.iter().copied().max().unwrap_or(0)];
    let mut reached = vec![0usize; streams.len()];
    let mut jitter: Vec<Xoshiro256ss> = (0..streams.len())
        .map(|l| Xoshiro256ss::new(cfg.jitter_seed ^ (l as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut idx = vec![0usize; streams.len()];
    let mut accesses = 0u64;
    let mut end = Cycle::ZERO;
    for (lane, s) in streams.iter().enumerate() {
        if !s.is_empty() {
            m.push(Cycle::ZERO, Event::LaneReady(lane as u32));
        }
    }

    let stop = loop {
        let Some(Reverse((now, _, event))) = m.queue.pop() else {
            break None;
        };
        end = now;
        if now.0 > cfg.max_cycles {
            break Some(Stop::Timeout);
        }
        match event {
            Event::LaneReady(lane) => {
                let l = lane as usize;
                match streams[l].get(idx[l]) {
                    None => {}
                    Some(LaneItem::Barrier) => {
                        idx[l] += 1;
                        let b = reached[l];
                        reached[l] += 1;
                        parked[b].push(lane);
                        let arrived = parked[b].len();
                        if arrived == barriers.iter().filter(|&&n| n > b).count() {
                            let resume = now.after(cfg.launch_overhead_cycles);
                            for lane in std::mem::take(&mut parked[b]) {
                                m.push(resume, Event::LaneReady(lane));
                            }
                        }
                    }
                    Some(&LaneItem::Access(step)) => {
                        let sm = SmId((l / cfg.warps_per_sm) as u16);
                        match m.xlat.translate_timed(sm, step.page, now).0 {
                            TranslationOutcome::Hit { ready_at, .. } => {
                                m.xlat.mark_touched(step.page);
                                let data = m.caches.access(sm.idx(), step.page, now);
                                idx[l] += 1;
                                accesses += 1;
                                let compute = if cfg.compute_jitter > 0.0 {
                                    let j = cfg.compute_jitter;
                                    let f = 1.0 - j + 2.0 * j * jitter[l].gen_f64();
                                    (f64::from(step.compute) * f) as u64
                                } else {
                                    u64::from(step.compute)
                                };
                                m.push(ready_at.after(data + compute), Event::LaneReady(lane));
                            }
                            TranslationOutcome::Fault { at } => {
                                m.pending.push(step.page);
                                m.waiting.entry(step.page).or_default().push_back(lane);
                                if !m.driver_busy {
                                    if let Err(s) = m.dispatch(at) {
                                        break Some(s);
                                    }
                                }
                            }
                        }
                    }
                }
            }
            Event::PageReady(page) => {
                for lane in m.waiting.remove(&page).unwrap_or_default() {
                    m.push(now, Event::LaneReady(lane));
                }
            }
            Event::DriverFree => {
                m.driver_busy = false;
                if !m.pending.is_empty() {
                    if let Err(s) = m.dispatch(now) {
                        break Some(s);
                    }
                }
            }
        }
    };

    let (outcome, error) = match stop {
        None if m.driver.degraded() => (Outcome::Degraded, None),
        None => (Outcome::Completed, None),
        Some(Stop::Timeout) => (Outcome::Timeout, None),
        Some(Stop::Crashed(done)) => {
            end = done;
            (Outcome::Crashed, None)
        }
        Some(Stop::Error(e)) => (Outcome::Crashed, Some(e)),
    };
    let mhpe = m.driver.engine_mut().evict_policy_mut().mhpe_trace();
    let engine = m.driver.engine();
    let r = RunResult {
        outcome,
        cycles: end.0,
        accesses,
        engine: engine.stats,
        driver: m.driver.stats,
        translation: m.xlat.stats(),
        bytes_h2d: m.driver.pcie().bytes_h2d,
        bytes_d2h: m.driver.pcie().bytes_d2h,
        wrong_evictions: engine.wrong_evictions(),
        overhead: engine.overhead(),
        mhpe,
        pattern_buffer_len: engine.overhead().pattern_buffer_max,
        frames_capacity: capacity_pages,
        frames_free: m.driver.free_frames(),
        resident_pages: m.xlat.page_table().resident_count() as u64,
        injection: m.driver.injector_stats(),
        error,
    };
    (r, m.batches, m.hooks.calls)
}
