//! The event-driven whole-GPU simulator.
//!
//! [`simulate`] replays per-lane access streams against the full stack:
//! translation (L1 TLB → L2 TLB → walker), data caches, and the UVM
//! driver with its prefetch/eviction policies. Lanes are independent
//! warp slots; a lane that takes a far fault blocks until the batch
//! containing its fault completes (replayable far faults — the other
//! lanes keep running), then *replays* the access.
//!
//! Faults arriving while the driver is busy accumulate and are serviced
//! as one batch when the driver frees up — the natural batching that
//! amortizes the 20 µs host round-trip and that prefetching multiplies.
//!
//! Events run on the lane-indexed wake calendar (`crate::calendar`):
//! one access per lane wake, except that a lane woken by a page
//! completion with nothing else due that cycle replays inline.
//!
//! [`simulate_with`] runs the same loop with an [`Observer`] attached at
//! its hook points (see [`crate::observe`]).

use crate::cache::DataHierarchy;
use crate::calendar::{Event, WakeCalendar};
use crate::config::GpuConfig;
use crate::observe::{Ctx, NoObserver, Observer};
use crate::waiters::WaiterTable;
use cppe::engine::{EngineStats, OverheadSnapshot, PolicyEngine};
use cppe::evict::MhpeTrace;
use gmmu::translation::{TranslationOutcome, TranslationPath, TranslationStats};
use gmmu::types::{SmId, VirtPage};
use sim_core::fault::{FaultInjector, InjectionStats};
use sim_core::rng::Xoshiro256ss;
use sim_core::time::Cycle;
use uvm::driver::{DriverStats, UvmConfig, UvmDriver};
use workloads::{AccessStep, LaneItem};

/// How a run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Every lane drained its stream.
    Completed,
    /// Every lane drained its stream, but only after the driver's
    /// degradation ladder shed prefetch aggressiveness (and possibly
    /// fell back to the baseline policy pair) to escape thrash.
    Degraded,
    /// Thrash-death (Fig. 4's MVT/BIC behaviour).
    Crashed,
    /// Hit the `max_cycles` safety stop.
    Timeout,
}

/// Everything a run produces.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: Outcome,
    /// Total execution time in GPU cycles (the paper's performance
    /// metric; speedup = baseline cycles / policy cycles).
    pub cycles: u64,
    /// Accesses completed.
    pub accesses: u64,
    /// Policy-engine counters (faults, migrations, evictions, untouch).
    pub engine: EngineStats,
    /// Driver counters (batches, serviced/coalesced faults).
    pub driver: DriverStats,
    /// TLB/walker counters.
    pub translation: TranslationStats,
    /// Host→device bytes.
    pub bytes_h2d: u64,
    /// Device→host bytes.
    pub bytes_d2h: u64,
    /// Wrong evictions (policies with buffers).
    pub wrong_evictions: u64,
    /// §VI-C structure sizes.
    pub overhead: OverheadSnapshot,
    /// MHPE's per-interval untouch trace etc., when MHPE was the policy.
    pub mhpe: Option<MhpeTrace>,
    /// Pattern-buffer length at end of run (0 for bufferless).
    pub pattern_buffer_len: usize,
    /// GPU memory capacity the run was given, in frames.
    pub frames_capacity: u32,
    /// Free frames at end of run (leak check: capacity − free must
    /// equal `resident_pages`).
    pub frames_free: u32,
    /// Resident pages at end of run.
    pub resident_pages: u64,
    /// What the fault injector actually fired during the run.
    pub injection: InjectionStats,
    /// Service-path error that ended the run, if any (the run is
    /// reported as crashed rather than panicking the process).
    pub error: Option<String>,
}

impl RunResult {
    /// True when the run finished normally.
    #[must_use]
    pub fn completed(&self) -> bool {
        self.outcome == Outcome::Completed
    }

    /// True when every lane drained its stream, degraded or not.
    #[must_use]
    pub fn survived(&self) -> bool {
        matches!(self.outcome, Outcome::Completed | Outcome::Degraded)
    }

    /// A synthetic result for a cell whose run panicked — the harness's
    /// plan runner catches the panic per cell — as opposed to a
    /// simulation that ran and thrashed to death. All counters are
    /// zero; `outcome` is [`Outcome::Crashed`] and `error` carries the
    /// failure, so the cell shows up as an 'X' in reports instead of
    /// silently vanishing from the result map.
    #[must_use]
    pub fn failed(error: impl Into<String>) -> RunResult {
        RunResult {
            outcome: Outcome::Crashed,
            cycles: 0,
            accesses: 0,
            engine: EngineStats::default(),
            driver: DriverStats::default(),
            translation: TranslationStats::default(),
            bytes_h2d: 0,
            bytes_d2h: 0,
            wrong_evictions: 0,
            overhead: OverheadSnapshot::default(),
            mhpe: None,
            pattern_buffer_len: 0,
            frames_capacity: 0,
            frames_free: 0,
            resident_pages: 0,
            injection: InjectionStats::default(),
            error: Some(error.into()),
        }
    }
}

/// Why the event loop stopped early.
enum Stop {
    /// Past `max_cycles`.
    Timeout,
    /// Thrash-death: the run ends at the carried cycle.
    Crashed(Cycle),
    /// Service-path error: the run ends as crashed with this message.
    Error(String),
}

/// The simulated machine the event loop drives.
struct Machine {
    xlat: TranslationPath,
    driver: UvmDriver,
    caches: DataHierarchy,
    q: WakeCalendar,
    /// Lanes blocked on each in-flight faulted page.
    waiting: WaiterTable,
    /// Faults raised since the last dispatch.
    pending: Vec<VirtPage>,
    /// Double buffer for dispatch: `pending` swaps into here, so
    /// dispatching never re-allocates.
    batch_buf: Vec<VirtPage>,
    driver_busy: bool,
}

impl Machine {
    #[inline]
    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            driver: &self.driver,
            xlat: &self.xlat,
            caches: &self.caches,
            waiting: &self.waiting,
            pending: &self.pending,
        }
    }

    /// Dispatch the pending faults to the host driver as one batch,
    /// with `obs` watching the driver, and queue its completions.
    fn dispatch<O: Observer>(&mut self, at: Cycle, obs: &mut O) -> Result<(), Stop> {
        self.driver_busy = true;
        std::mem::swap(&mut self.pending, &mut self.batch_buf);
        let r = self
            .driver
            .service_batch_with(&self.batch_buf, at, &mut self.xlat, &mut *obs)
            .map_err(|e| Stop::Error(e.to_string()))?;
        self.batch_buf.clear();
        if r.crashed {
            return Err(Stop::Crashed(r.done_at));
        }
        // Overflow tail (injected queue-depth limit): re-queue for the
        // next batch.
        self.pending.extend_from_slice(&r.deferred);
        self.caches.invalidate_evicted(&r.evicted);
        for &(page, t) in &r.completions {
            self.q.push_page(t, page);
        }
        self.q.push_driver(r.host_done);
        obs.batch_dispatched(self.ctx(), at, &r);
        self.driver.recycle(r);
        Ok(())
    }
}

/// Kernel-launch barriers: barrier `b` releases when every lane that
/// ever reaches a `b`-th barrier has arrived.
struct Barriers {
    participants: Vec<usize>,
    arrivals: Vec<usize>,
    /// Lanes parked at each barrier, in arrival order.
    parked: Vec<Vec<u32>>,
    /// Per lane: index of its next barrier.
    next: Vec<usize>,
}

impl Barriers {
    fn new(streams: &[Vec<LaneItem>]) -> Self {
        let mut participants: Vec<usize> = Vec::new();
        for s in streams {
            let n = s.iter().filter(|i| matches!(i, LaneItem::Barrier)).count();
            if participants.len() < n {
                participants.resize(n, 0);
            }
            for p in participants.iter_mut().take(n) {
                *p += 1;
            }
        }
        Barriers {
            arrivals: vec![0; participants.len()],
            parked: vec![Vec::new(); participants.len()],
            participants,
            next: vec![0; streams.len()],
        }
    }

    /// `lane` arrives at its next barrier. On the last arrival, returns
    /// every parked lane followed by `lane`, to be drained.
    fn arrive(&mut self, lane: u32) -> Option<&mut Vec<u32>> {
        let b = self.next[lane as usize];
        self.next[lane as usize] += 1;
        self.arrivals[b] += 1;
        self.parked[b].push(lane);
        (self.arrivals[b] == self.participants[b]).then(|| &mut self.parked[b])
    }
}

/// Run plain access streams (no barriers) — convenience wrapper around
/// [`simulate`].
#[must_use]
pub fn simulate_accesses(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<AccessStep>],
    capacity_pages: u32,
    footprint_pages: u64,
) -> RunResult {
    let items: Vec<Vec<LaneItem>> = streams
        .iter()
        .map(|s| s.iter().map(|&a| LaneItem::Access(a)).collect())
        .collect();
    simulate(cfg, engine, &items, capacity_pages, footprint_pages)
}

/// Run `streams` (one per lane, with optional kernel-launch barriers)
/// through the simulator.
///
/// `capacity_pages` sizes GPU memory (the oversubscription knob);
/// `footprint_pages` calibrates crash detection.
///
/// Lanes may carry different numbers of barriers: barrier `b` waits
/// only for the lanes that reach a `b`-th barrier, so a lane that ends
/// early holds no one up.
///
/// # Panics
/// Panics if `streams` is longer than `cfg.lanes()` or if the
/// configuration is invalid (pre-check with `GpuConfig::validate`).
/// Service-path errors never panic: they end the run with
/// `RunResult::error` set.
#[must_use]
pub fn simulate(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity_pages: u32,
    footprint_pages: u64,
) -> RunResult {
    simulate_with(
        cfg,
        engine,
        streams,
        capacity_pages,
        footprint_pages,
        NoObserver,
    )
}

/// [`simulate`] with `obs` attached to the event loop's and the
/// driver's hook points. Pass `&mut obs` to read the observer back
/// afterwards.
///
/// # Panics
/// As [`simulate`].
#[must_use]
pub fn simulate_with<O: Observer>(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity_pages: u32,
    footprint_pages: u64,
    mut obs: O,
) -> RunResult {
    assert!(
        streams.len() <= cfg.lanes(),
        "{} streams for {} lanes",
        streams.len(),
        cfg.lanes()
    );
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
    .expect("invalid GPU/UVM configuration — pre-check with GpuConfig::validate");
    let mut m = Machine {
        xlat: TranslationPath::new(&cfg.translation),
        driver,
        caches: DataHierarchy::new(cfg.sms),
        q: WakeCalendar::new(streams.len()),
        waiting: WaiterTable::new(),
        pending: Vec::new(),
        batch_buf: Vec::new(),
        driver_busy: false,
    };
    let mut barriers = Barriers::new(streams);
    let mut jitter: Vec<Xoshiro256ss> = (0..streams.len())
        .map(|l| Xoshiro256ss::new(cfg.jitter_seed ^ (l as u64).wrapping_mul(0x9E37_79B9)))
        .collect();
    let mut idx = vec![0usize; streams.len()];
    let mut accesses = 0u64;
    let mut end = Cycle::ZERO;
    // Reused scratch for the lanes a `PageReady` wakes.
    let mut wake_buf: Vec<u32> = Vec::new();
    // A woken lane whose `LaneReady` runs next without a queue round
    // trip (the inline wake, see `Event::PageReady`).
    let mut woken: Option<u32> = None;

    for (lane, s) in streams.iter().enumerate() {
        if !s.is_empty() {
            m.q.push_lane(Cycle::ZERO, lane as u32);
        }
    }

    let stop = loop {
        let (now, ev) = match woken.take() {
            Some(lane) => (m.q.now(), Event::LaneReady(lane)),
            None => match m.q.pop() {
                Some(next) => next,
                None => break None,
            },
        };
        end = now;
        if now.0 > cfg.max_cycles {
            break Some(Stop::Timeout);
        }
        match ev {
            Event::LaneReady(lane) => {
                let l = lane as usize;
                let step = match streams[l].get(idx[l]) {
                    None => continue, // lane drained; no further events
                    Some(LaneItem::Barrier) => {
                        idx[l] += 1;
                        if let Some(lanes) = barriers.arrive(lane) {
                            // Kernel relaunch: everyone proceeds after the
                            // launch overhead, all at the same cycle.
                            let resume = now.after(cfg.launch_overhead_cycles);
                            for lane in lanes.drain(..) {
                                m.q.push_lane(resume, lane);
                            }
                        }
                        continue;
                    }
                    Some(&LaneItem::Access(step)) => step,
                };
                let sm = SmId((l / cfg.warps_per_sm) as u16);
                let (out, timing) = m.xlat.translate_timed(sm, step.page, now);
                let ready_at = match out {
                    TranslationOutcome::Hit { ready_at, .. } => ready_at,
                    TranslationOutcome::Fault { at } => {
                        obs.fault_raised(m.ctx(), lane, step.page, now, &timing, at);
                        m.pending.push(step.page);
                        m.waiting.push(step.page, lane);
                        if !m.driver_busy {
                            if let Err(s) = m.dispatch(at, &mut obs) {
                                break Some(s);
                            }
                        }
                        continue;
                    }
                };
                obs.access_hit(m.ctx(), lane, step.page, ready_at);
                m.xlat.mark_touched(step.page);
                let dlat = m.caches.access(sm.idx(), step.page, now);
                idx[l] += 1;
                accesses += 1;
                let wake = ready_at.after(dlat + compute_cycles(cfg, step, &mut jitter[l]));
                m.q.push_lane(wake, lane);
            }
            Event::PageReady(page) => {
                // Lanes that faulted on this page replay now; lanes that
                // faulted on sibling pages of the same chunk were given
                // their own completions by the driver.
                wake_buf.clear();
                m.waiting.take(page, |lane| wake_buf.push(lane));
                obs.page_ready(m.ctx(), page, now, &wake_buf);
                // Inline wake: with nothing else queued at `now`, the
                // first woken lane's `LaneReady` would be the next pop.
                // Queue the others behind it and run it straight away.
                let inline = !wake_buf.is_empty() && !m.q.pending_now();
                for &lane in &wake_buf[usize::from(inline)..] {
                    m.q.push_lane(now, lane);
                }
                if inline {
                    obs.inline_wake(m.ctx(), wake_buf[0], now);
                    woken = Some(wake_buf[0]);
                }
            }
            Event::DriverFree => {
                m.driver_busy = false;
                // Faults queued while the host was busy form the next
                // batch immediately — the natural batching that
                // amortizes the far-fault round trip.
                if !m.pending.is_empty() {
                    if let Err(s) = m.dispatch(now, &mut obs) {
                        break Some(s);
                    }
                }
            }
        }
    };

    obs.queue_traffic(&m.q.counts());
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
    let Machine {
        xlat, mut driver, ..
    } = m;
    let mhpe = driver.engine_mut().evict_policy_mut().mhpe_trace();
    let engine = driver.engine();
    RunResult {
        outcome,
        cycles: end.0,
        accesses,
        engine: engine.stats,
        driver: driver.stats,
        translation: xlat.stats(),
        bytes_h2d: driver.pcie().bytes_h2d,
        bytes_d2h: driver.pcie().bytes_d2h,
        wrong_evictions: engine.wrong_evictions(),
        overhead: engine.overhead(),
        mhpe,
        pattern_buffer_len: engine.overhead().pattern_buffer_max,
        frames_capacity: capacity_pages,
        frames_free: driver.free_frames(),
        resident_pages: xlat.page_table().resident_count() as u64,
        injection: driver.injector_stats(),
        error,
    }
}

/// An access's compute delay, with the configured relative jitter.
#[inline]
fn compute_cycles(cfg: &GpuConfig, step: AccessStep, rng: &mut Xoshiro256ss) -> u64 {
    if cfg.compute_jitter > 0.0 {
        let f = 1.0 - cfg.compute_jitter + 2.0 * cfg.compute_jitter * rng.gen_f64();
        (f64::from(step.compute) * f) as u64
    } else {
        u64::from(step.compute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::{DriverObserver, EvictionPasses, FireCounts, Invariants, Timeline};
    use cppe::presets::PolicyPreset;
    use uvm::driver::BatchResult;

    fn seq_stream(pages: u64, passes: u32, compute: u32) -> Vec<AccessStep> {
        let mut s = Vec::new();
        for _ in 0..passes {
            for p in 0..pages {
                s.push(AccessStep {
                    page: VirtPage(p),
                    compute,
                });
            }
        }
        s
    }

    fn items(streams: &[Vec<AccessStep>]) -> Vec<Vec<LaneItem>> {
        streams
            .iter()
            .map(|s| s.iter().map(|&a| LaneItem::Access(a)).collect())
            .collect()
    }

    fn tiny_cfg() -> GpuConfig {
        GpuConfig {
            sms: 2,
            warps_per_sm: 2,
            ..GpuConfig::default()
        }
    }

    #[test]
    fn streaming_run_completes_without_evictions() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 1, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 64);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 64);
        assert_eq!(r.engine.chunk_evictions, 0);
        // 64 pages = 4 chunks = 4 faults with whole-chunk prefetch.
        assert_eq!(r.driver.faults_serviced, 4);
        assert!(r.cycles > 0);
    }

    #[test]
    fn prefetch_reduces_faults() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 1, 100)];
        let with_pf = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 64);
        let no_pf = simulate_accesses(&cfg, PolicyPreset::LruNoPf.build(0), &streams, 128, 64);
        assert_eq!(with_pf.driver.faults_serviced, 4);
        assert_eq!(no_pf.driver.faults_serviced, 64);
        assert!(
            with_pf.cycles < no_pf.cycles,
            "prefetching must speed up streaming: {} vs {}",
            with_pf.cycles,
            no_pf.cycles
        );
    }

    #[test]
    fn oversubscription_causes_evictions() {
        let cfg = tiny_cfg();
        // 128-page working set, 64-page memory, two passes.
        let streams = vec![seq_stream(128, 2, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 128);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.engine.chunk_evictions > 0);
        assert!(r.bytes_d2h > 0);
    }

    #[test]
    fn cyclic_thrash_mru_beats_lru() {
        // The core claim of the paper, in miniature: cyclic sweeps over
        // an oversubscribed range favour MRU-family eviction (CPPE).
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(512, 6, 100)];
        let lru = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 512);
        let cppe = simulate_accesses(&cfg, PolicyPreset::Cppe.build(0), &streams, 256, 512);
        assert_eq!(lru.outcome, Outcome::Completed);
        assert_eq!(cppe.outcome, Outcome::Completed);
        assert!(
            cppe.cycles < lru.cycles,
            "CPPE {} should beat LRU {} on thrash",
            cppe.cycles,
            lru.cycles
        );
        assert!(cppe.engine.chunk_evictions < lru.engine.chunk_evictions);
    }

    #[test]
    fn multiple_lanes_share_the_gpu() {
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|l| {
                (0..32u64)
                    .map(|p| AccessStep {
                        page: VirtPage(l * 32 + p),
                        compute: 100,
                    })
                    .collect::<Vec<_>>()
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 128);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 128);
    }

    #[test]
    fn fault_batching_amortizes() {
        // 4 lanes faulting on 4 different chunks at t=0: the first fault
        // dispatches alone, the rest batch.
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|l| {
                vec![AccessStep {
                    page: VirtPage(l * 16),
                    compute: 0,
                }]
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 256, 64);
        assert_eq!(r.outcome, Outcome::Completed);
        assert!(r.driver.batches <= 2, "got {} batches", r.driver.batches);
        assert_eq!(r.driver.faults_serviced, 4);
    }

    #[test]
    fn mhpe_trace_surfaces_for_cppe() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(256, 3, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Cppe.build(0), &streams, 128, 256);
        assert!(r.mhpe.is_some());
        let baseline = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 128, 256);
        assert!(baseline.mhpe.is_none());
    }

    #[test]
    fn timeout_guard_fires() {
        let cfg = GpuConfig {
            max_cycles: 50_000,
            ..tiny_cfg()
        };
        let streams = vec![seq_stream(512, 10, 100)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 512);
        assert_eq!(r.outcome, Outcome::Timeout);
    }

    #[test]
    fn empty_streams_complete_instantly() {
        let cfg = tiny_cfg();
        let r = simulate_accesses(
            &cfg,
            PolicyPreset::Baseline.build(0),
            &[vec![], vec![]],
            64,
            64,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 0);
        assert_eq!(r.cycles, 0);
    }

    #[test]
    fn multiple_lanes_waiting_on_one_page_all_wake() {
        // Four lanes fault on the same page at t=0; a single batch
        // services it and every lane proceeds.
        let cfg = tiny_cfg();
        let streams: Vec<_> = (0..4)
            .map(|_| {
                vec![AccessStep {
                    page: VirtPage(3),
                    compute: 10,
                }]
            })
            .collect();
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 16);
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 4);
        // One distinct fault serviced; the rest coalesced or replayed as hits.
        assert_eq!(r.driver.faults_serviced, 1);
    }

    #[test]
    fn timeline_observer_samples_every_batch() {
        let streams = items(&[seq_stream(128, 2, 100)]);
        let mut tl = Timeline::default();
        let engine = PolicyPreset::Baseline.build(0);
        let r = simulate_with(&tiny_cfg(), engine, &streams, 64, 128, &mut tl);
        assert_eq!(tl.points.len() as u64, r.driver.batches);
        // Monotone cumulative counters and bounded residency.
        for w in tl.points.windows(2) {
            assert!(w[0].cycle <= w[1].cycle);
            assert!(w[0].faults <= w[1].faults);
            assert!(w[0].pages_migrated <= w[1].pages_migrated);
        }
        assert!(tl.points.iter().all(|p| p.resident_pages <= 64));
        let last = tl.points.last().expect("the run faulted");
        assert_eq!(last.faults, r.engine.faults);
    }

    /// Run `streams` on `tiny_cfg` through this loop, with `obs`
    /// attached, and through the reference loop; panic on a difference.
    fn check_reference<O: Observer>(
        engine: &dyn Fn() -> PolicyEngine,
        streams: &[Vec<LaneItem>],
        capacity: u32,
        footprint: u64,
        obs: O,
    ) -> RunResult {
        crate::reference::check(&tiny_cfg(), engine, streams, capacity, footprint, obs)
            .unwrap_or_else(|d| panic!("{d}"))
    }

    #[test]
    fn fire_counts_count_the_queue_traffic() {
        /// Page completions the driver handed back.
        #[derive(Default)]
        struct Completions(u64);
        impl DriverObserver for Completions {}
        impl Observer for Completions {
            fn batch_dispatched(&mut self, _: Ctx<'_>, _: Cycle, batch: &BatchResult) {
                self.0 += batch.completions.len() as u64;
            }
        }
        // Two thrashing lanes, one with computes past the ring window:
        // near and far lane wakes, page completions and driver frees.
        let streams = items(&[seq_stream(256, 2, 50), seq_stream(256, 2, 3_000)]);
        let mut obs = (FireCounts::default(), Completions::default());
        let engine = || PolicyPreset::Cppe.build(3);
        let r = check_reference(&engine, &streams, 128, 512, &mut obs);
        assert_eq!(r.outcome, Outcome::Completed);
        let q = obs.0.queue;
        // A completed run fires every event it scheduled: one
        // `PageReady` per completion and one `DriverFree` per batch.
        assert_eq!(q.pops, q.pushes);
        assert_eq!(q.pushes.page, obs.1 .0);
        assert_eq!(q.pushes.driver, r.driver.batches);
        assert!(q.pushes.near_lane > 0 && q.pushes.far_lane > 0, "{q:?}");
        // A page completion shares its batch's host-done cycle.
        assert!(q.stamp_compares > 0, "{q:?}");
    }

    #[test]
    fn fire_counts_see_inline_wakes() {
        // Four lanes thrash on disjoint pages, so a batch carries the
        // faults of the three lanes that faulted while the last one was
        // serviced. All but a batch's last completion land on a cycle
        // nothing else holds: those wakes replay inline, and the run
        // equals the reference loop's.
        let streams: Vec<Vec<LaneItem>> = (0..4u64)
            .map(|l| {
                seq_stream(256, 2, 50 + 10 * l as u32)
                    .into_iter()
                    .map(|a| {
                        LaneItem::Access(AccessStep {
                            page: VirtPage(a.page.0 + 256 * l),
                            ..a
                        })
                    })
                    .collect()
            })
            .collect();
        let mut fc = FireCounts::default();
        let engine = || PolicyPreset::Cppe.build(3);
        let r = check_reference(&engine, &streams, 128, 1024, &mut fc);
        assert!(fc.inline_wakes > 0, "no inline wake fired");
        assert!(fc.inline_wakes <= r.engine.faults);
    }

    #[test]
    fn uneven_barrier_counts_complete() {
        // Barrier `b` waits only for the lanes that reach a `b`-th
        // barrier: lanes with 2, 1 and 0 barriers all finish.
        let access = |p: u64| {
            LaneItem::Access(AccessStep {
                page: VirtPage(p),
                compute: 20,
            })
        };
        let streams = vec![
            vec![
                access(0),
                LaneItem::Barrier,
                access(1),
                LaneItem::Barrier,
                access(2),
            ],
            vec![access(16), LaneItem::Barrier, access(17)],
            vec![access(32), access(33)],
        ];
        let r = simulate(
            &tiny_cfg(),
            PolicyPreset::Baseline.build(0),
            &streams,
            64,
            48,
        );
        assert_eq!(r.outcome, Outcome::Completed);
        assert_eq!(r.accesses, 7);
    }

    #[test]
    fn eviction_passes_count_chunk_work() {
        /// L1-bank set spans each batch's evicted pages name: the passes
        /// an ungated sweep makes.
        #[derive(Default)]
        struct NamedSpans(u64);
        impl DriverObserver for NamedSpans {}
        impl Observer for NamedSpans {
            fn batch_dispatched(&mut self, _: Ctx<'_>, _: Cycle, batch: &BatchResult) {
                let sets = batch
                    .evicted
                    .iter()
                    .fold(0u32, |s, p| s | 1 << (p.0 % crate::cache::L1_SETS as u64));
                self.0 += u64::from(sets.count_ones());
            }
        }
        // Two lanes sweeping apart on one SM: the L1 holds only their
        // last few pages. CPPE evicts chunks the lanes left long ago, so
        // its gate skips every sweep; Random also evicts chunks the
        // lanes still hold, so some sweeps go through.
        let streams = items(&[seq_stream(512, 3, 50), seq_stream(512, 3, 70)]);
        for (preset, sweeps) in [(PolicyPreset::Cppe, false), (PolicyPreset::Random, true)] {
            let mut obs = (EvictionPasses::default(), NamedSpans::default());
            let engine = preset.build(3);
            let r = simulate_with(&tiny_cfg(), engine, &streams, 128, 512, &mut obs);
            let (sd, inv) = (obs.0.shootdown, obs.0.invalidation);
            assert_eq!(sd.pages, r.engine.pages_evicted);
            assert_eq!(inv.pages, r.engine.pages_evicted);
            // Every span a batch names is either swept or skipped.
            assert_eq!(inv.span_passes + inv.spans_skipped, obs.1 .0, "{inv:?}");
            assert!(obs.1 .0 < inv.pages && inv.spans_skipped > 0, "{inv:?}");
            assert!(sd.chunk_passes > 0 && sd.chunk_pass_removes >= 2 * sd.chunk_passes);
            assert_eq!(inv.span_passes > 0, sweeps, "{preset:?}: {inv:?}");
        }
    }

    #[test]
    fn invariants_hold_under_thrash() {
        let streams = items(&[seq_stream(512, 3, 50), seq_stream(512, 3, 70)]);
        let mut inv = Invariants::default();
        let engine = PolicyPreset::Cppe.build(3);
        let r = simulate_with(&tiny_cfg(), engine, &streams, 128, 512, &mut inv);
        inv.assert_clean();
        assert_eq!(inv.checks, r.driver.batches);
    }

    #[test]
    fn zero_compute_streams_terminate() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(64, 2, 0)];
        let r = simulate_accesses(&cfg, PolicyPreset::Baseline.build(0), &streams, 32, 64);
        assert_eq!(r.outcome, Outcome::Completed);
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = tiny_cfg();
        let streams = vec![seq_stream(256, 3, 100)];
        let a = simulate_accesses(&cfg, PolicyPreset::Cppe.build(7), &streams, 128, 256);
        let b = simulate_accesses(&cfg, PolicyPreset::Cppe.build(7), &streams, 128, 256);
        assert_eq!(a.cycles, b.cycles);
        assert_eq!(a.engine.chunk_evictions, b.engine.chunk_evictions);
    }
}
