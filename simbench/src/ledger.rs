//! The layer cost ledger of a traced run.
//!
//! Each layer gets a *unit cost*, measured by timing that layer's public
//! functions in batches of calls on replays built from the cell's own
//! interleaved lane streams, and a *count* per run, read from the
//! deterministic `RunResult` counters. `cost × count` summed over the
//! layers an access touches is compared with the measured wall time of
//! `gpu::simulate`; whatever is left is the event loop's own residual.
//!
//! The replays:
//!
//! * **translate** — `TranslationPath::translate_timed` + `mark_touched`
//!   over the interleaved stream with the whole footprint pre-mapped, so
//!   TLB and page-walk-cache behaviour follows the app's locality;
//! * **shootdown** — `unmap_and_invalidate` of every page afterwards,
//!   with the TLBs still warm;
//! * **cache** — `DataHierarchy::access` over the same stream, then
//!   `invalidate` of every page;
//! * **events** — an `EventQueue` driven at lane cadence: each lane
//!   re-arms after its access's translate + cache latency plus compute;
//! * **uvm** — `UvmDriver::service_batch` on the faults the stream
//!   raises, batched at the cell's observed faults per batch, with no
//!   event timing (a faulting access proceeds once its batch is done);
//! * **waiters** — `WaiterTable::push`/`take` on that fault log;
//! * **cppe** — `PolicyEngine::plan_prefetch_into` and `select_victim`
//!   called directly in `service_batch`'s order on a private page table.
//!
//! The uvm share already contains shootdowns and policy calls, so
//! `gmmu.shootdown`, `cppe.select_victim` and `cppe.plan_prefetch` are
//! reported as a breakdown of it and not added twice.

use crate::check::cell_key;
use crate::record::Spans;
use crate::workload::{capacity_pages, App, Cell, Setup, Workload};
use cppe::engine::PolicyEngine;
use gmmu::page_table::PageTable;
use gmmu::translation::{TranslationOutcome, TranslationPath};
use gmmu::types::{ChunkId, Frame, SmId, VirtPage, PAGES_PER_CHUNK};
use gpu::cache::DataHierarchy;
use gpu::waiters::WaiterTable;
use gpu::RunResult;
use sim_core::fault::FaultInjector;
use sim_core::time::Cycle;
use sim_core::{EventQueue, FxHashSet, TouchVec};
use std::hint::black_box;
use std::time::Instant;
use uvm::driver::{UvmConfig, UvmDriver};
use workloads::LaneItem;

/// Calls per timed batch: long enough that the two clock reads around a
/// batch cost well under 1 % of it.
const BATCH: usize = 1024;

/// Measured time over a number of calls.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cost {
    /// Total ns.
    pub ns: f64,
    /// Calls timed.
    pub calls: u64,
}

impl Cost {
    /// The faster of two passes over the same calls.
    fn fastest(self, other: Cost) -> Cost {
        if other.ns < self.ns {
            other
        } else {
            self
        }
    }

    /// ns per call (0 when nothing was timed).
    #[must_use]
    pub fn unit(&self) -> f64 {
        ratio(self.ns, self.calls as f64)
    }
}

/// `a / b`, 0 when `b` is 0.
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One access of the interleaved replay stream.
#[derive(Debug, Clone, Copy)]
struct Access {
    lane: u32,
    page: u64,
    compute: u32,
}

/// Round-robin interleaving of the lanes' accesses (barriers dropped):
/// the order the event loop would see if every lane ran at one pace.
fn interleave(streams: &[Vec<LaneItem>]) -> Vec<Access> {
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::new();
    loop {
        let before = out.len();
        for (lane, s) in streams.iter().enumerate() {
            while let Some(item) = s.get(cursors[lane]) {
                cursors[lane] += 1;
                if let LaneItem::Access(a) = item {
                    out.push(Access {
                        lane: lane as u32,
                        page: a.page.0,
                        compute: a.compute,
                    });
                    break;
                }
            }
        }
        if out.len() == before {
            return out;
        }
    }
}

/// Replays that depend only on the app's streams, shared by its cells.
#[derive(Debug, Clone, Copy)]
struct AppCosts {
    translate: Cost,
    shootdown: Cost,
    cache: Cost,
    cache_invalidate: Cost,
    events: Cost,
    barriers: u64,
}

fn time_batches<T>(items: &[T], cost: &mut Cost, mut f: impl FnMut(usize, &T)) {
    for (b, chunk) in items.chunks(BATCH).enumerate() {
        let t = Instant::now();
        for (i, x) in chunk.iter().enumerate() {
            f(b * BATCH + i, x);
        }
        cost.ns += t.elapsed().as_nanos() as f64;
        cost.calls += chunk.len() as u64;
    }
}

fn app_costs(
    setup: &Setup,
    app: &App,
    acc: &[Access],
    spans: &mut Spans,
    parent: usize,
) -> AppCosts {
    let gpu = &setup.gpu;
    let wps = gpu.warps_per_sm as u32;
    let lanes = gpu.lanes() as u64;
    let sm = |a: &Access| SmId((a.lane / wps) as u16);
    let step = |a: &Access| (u64::from(a.compute) / lanes).max(1);
    let all_pages: Vec<u64> = (0..app.pages).collect();
    // Per-access latency the event replay re-arms lanes with.
    let mut latency = vec![0u64; acc.len()];

    let id = spans.open("replay.translate", Some(parent));
    let mut xlat = TranslationPath::new(&gpu.translation);
    for &p in &all_pages {
        xlat.map(VirtPage(p), Frame(p as u32), false);
    }
    let mut translate = Cost::default();
    let mut now = 0u64;
    time_batches(acc, &mut translate, |i, a| {
        let (out, _) = xlat.translate_timed(sm(a), VirtPage(a.page), Cycle(now));
        xlat.mark_touched(VirtPage(a.page));
        if let TranslationOutcome::Hit { ready_at, .. } = black_box(out) {
            latency[i] = ready_at.0 - now;
        }
        now += step(a);
    });
    spans.close(id, translate.calls);

    let id = spans.open("replay.shootdown", Some(parent));
    let mut shootdown = Cost::default();
    time_batches(&all_pages, &mut shootdown, |_, &p| {
        black_box(xlat.unmap_and_invalidate(VirtPage(p)));
    });
    spans.close(id, shootdown.calls);

    let id = spans.open("replay.cache", Some(parent));
    let mut caches = DataHierarchy::new(gpu.sms);
    let mut cache = Cost::default();
    let mut now = 0u64;
    time_batches(acc, &mut cache, |i, a| {
        latency[i] += black_box(caches.access(sm(a).idx(), VirtPage(a.page), Cycle(now)));
        now += step(a);
    });
    spans.close(id, cache.calls);

    let id = spans.open("replay.cache_invalidate", Some(parent));
    let mut cache_invalidate = Cost::default();
    time_batches(&all_pages, &mut cache_invalidate, |_, &p| {
        caches.invalidate(VirtPage(p));
    });
    spans.close(id, cache_invalidate.calls);

    // Lane cadence: lane l's k-th access re-arms it after that access's
    // latency plus its compute delay (jitter omitted).
    let mut delays: Vec<Vec<u64>> = vec![Vec::new(); app.streams.len()];
    for (a, &lat) in acc.iter().zip(&latency) {
        delays[a.lane as usize].push(lat + u64::from(a.compute));
    }
    let id = spans.open("replay.events", Some(parent));
    // Same 16-byte payload as the simulator's event enum.
    let mut q: EventQueue<[u64; 2]> = EventQueue::new();
    let mut next = vec![0usize; delays.len()];
    let t = Instant::now();
    for lane in 0..delays.len() {
        q.push(Cycle::ZERO, [lane as u64, 0]);
    }
    let mut pairs = 0u64;
    while let Some((at, [lane, _])) = q.pop() {
        let l = lane as usize;
        if let Some(&d) = delays[l].get(next[l]) {
            next[l] += 1;
            q.push(at.after(d), [lane, 0]);
            pairs += 1;
        }
    }
    let events = Cost {
        ns: t.elapsed().as_nanos() as f64,
        calls: pairs,
    };
    spans.close(id, pairs);

    let barriers = app
        .streams
        .iter()
        .map(|s| s.iter().filter(|i| matches!(i, LaneItem::Barrier)).count() as u64)
        .sum();
    AppCosts {
        translate,
        shootdown,
        cache,
        cache_invalidate,
        events,
        barriers,
    }
}

impl AppCosts {
    fn fastest(self, o: AppCosts) -> AppCosts {
        AppCosts {
            translate: self.translate.fastest(o.translate),
            shootdown: self.shootdown.fastest(o.shootdown),
            cache: self.cache.fastest(o.cache),
            cache_invalidate: self.cache_invalidate.fastest(o.cache_invalidate),
            events: self.events.fastest(o.events),
            barriers: self.barriers,
        }
    }
}

/// Per-cell replays.
#[derive(Debug, Clone, Copy)]
struct CellCosts {
    service: Cost,
    waiters: Cost,
    select_victim: Cost,
    plan_prefetch: Cost,
}

impl CellCosts {
    fn fastest(self, o: CellCosts) -> CellCosts {
        CellCosts {
            service: self.service.fastest(o.service),
            waiters: self.waiters.fastest(o.waiters),
            select_victim: self.select_victim.fastest(o.select_victim),
            plan_prefetch: self.plan_prefetch.fastest(o.plan_prefetch),
        }
    }
}

/// Faults of one replayed batch: `(page, lane)`.
type FaultLog = Vec<Vec<(u64, u32)>>;

fn replay_uvm(
    setup: &Setup,
    app: &App,
    cell: &Cell,
    acc: &[Access],
    batch: usize,
) -> (Cost, FaultLog) {
    let gpu = &setup.gpu;
    let mut xlat = TranslationPath::new(&gpu.translation);
    let mut driver = UvmDriver::with_injection(
        UvmConfig {
            capacity_pages: capacity_pages(app.pages, cell.rate),
            fault_base_cycles: gpu.fault_base_cycles,
            per_fault_cycles: gpu.per_fault_cycles,
            pcie_gb_per_s: gpu.pcie_gb_per_s,
            crash_untouch_fraction: gpu.crash_untouch_fraction,
            crash_min_evicted_factor: gpu.crash_min_evicted_factor,
            footprint_pages: app.pages,
        },
        cell.preset.build(setup.policy_seed(&app.spec)),
        FaultInjector::new(gpu.injection),
        gpu.resilience,
    )
    .expect("cell configurations are valid: round 0 ran them");
    let mut cost = Cost::default();
    let mut log: FaultLog = vec![Vec::new()];
    let mut pending: Vec<VirtPage> = Vec::new();
    let mut now = Cycle::ZERO;
    for (i, a) in acc.iter().enumerate() {
        let page = VirtPage(a.page);
        if xlat.page_table().is_resident(page) {
            xlat.mark_touched(page);
        } else {
            pending.push(page);
            log.last_mut()
                .expect("log is never empty")
                .push((a.page, a.lane));
        }
        if pending.len() < batch && (i + 1 < acc.len() || pending.is_empty()) {
            continue;
        }
        let before = driver.stats.faults_serviced;
        let t = Instant::now();
        let r = driver.service_batch(&pending, now, &mut xlat);
        cost.ns += t.elapsed().as_nanos() as f64;
        cost.calls += driver.stats.faults_serviced - before;
        pending.clear();
        log.push(Vec::new());
        // Like the simulator, stop at a thrash crash or a service error.
        match r {
            Ok(r) if !r.crashed => {
                now = r.host_done;
                driver.recycle(r);
            }
            _ => break,
        }
    }
    (cost, log)
}

fn replay_waiters(log: &FaultLog) -> Cost {
    let mut w = WaiterTable::new();
    let t = Instant::now();
    let mut calls = 0u64;
    for batch in log {
        for &(page, lane) in batch {
            w.push(VirtPage(page), lane);
        }
        for &(page, _) in batch {
            w.take(VirtPage(page), |lane| {
                black_box(lane);
            });
        }
        calls += batch.len() as u64;
    }
    Cost {
        ns: t.elapsed().as_nanos() as f64,
        calls,
    }
}

/// Cost of an empty `Instant::now()` / `elapsed()` pair, subtracted from
/// the individually timed policy calls.
fn clock_overhead_ns() -> f64 {
    const N: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..N {
        black_box(Instant::now().elapsed());
    }
    t.elapsed().as_nanos() as f64 / f64::from(N)
}

/// The policy-engine calls `service_batch` makes, in its order, on a
/// private page table: per distinct fault `note_fault`, then
/// `plan_prefetch_into` (timed), then `select_victim` (timed) until the
/// plan fits, then the mapping notifications. The calls interleave with
/// state changes, so each is timed on its own and the clock's own cost
/// is subtracted.
struct PolicyReplay {
    engine: PolicyEngine,
    pt: PageTable,
    capacity: usize,
    free: usize,
    next_frame: u32,
    plan: Vec<VirtPage>,
    pinned: FxHashSet<ChunkId>,
    clock_ns: f64,
    select: Cost,
    plan_cost: Cost,
}

impl PolicyReplay {
    fn timed<T>(clock_ns: f64, cost: &mut Cost, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        cost.ns += (t.elapsed().as_nanos() as f64 - clock_ns).max(0.0);
        cost.calls += 1;
        out
    }

    /// Keep the faulted page and at most `room - 1` others.
    fn shrink_plan(&mut self, fault: VirtPage, room: usize) {
        self.plan.retain(|&p| p != fault);
        self.plan.truncate(room.saturating_sub(1));
        self.plan.push(fault);
        self.plan.sort_unstable_by_key(|p| p.0);
    }

    fn service(&mut self, faults: &[VirtPage]) {
        self.pinned.clear();
        for &fault in faults {
            if self.pt.is_resident(fault) {
                continue;
            }
            if self.free < PAGES_PER_CHUNK as usize {
                self.engine.note_memory_full();
            }
            self.engine.note_fault(fault);
            let (engine, pt, plan) = (&mut self.engine, &self.pt, &mut self.plan);
            Self::timed(self.clock_ns, &mut self.plan_cost, || {
                engine.plan_prefetch_into(fault, pt, plan);
            });
            if self.plan.len() > self.capacity {
                self.shrink_plan(fault, self.capacity);
            }
            self.pinned.extend(self.plan.iter().map(|p| p.chunk()));
            while self.free < self.plan.len() {
                self.engine.note_memory_full();
                let (engine, pinned) = (&mut self.engine, &self.pinned);
                let victim = Self::timed(self.clock_ns, &mut self.select, || {
                    engine.select_victim(pinned)
                });
                let Some(victim) = victim else {
                    self.shrink_plan(fault, self.free);
                    break;
                };
                let mut touch = TouchVec::empty();
                let mut resident = 0u32;
                for page in victim.pages() {
                    if self.pt.is_resident(page) {
                        if self.pt.unmap(page).1 {
                            touch.set(page.index_in_chunk());
                        }
                        self.free += 1;
                        resident += 1;
                    }
                }
                self.engine.note_evicted(victim, touch, resident);
            }
            let mut i = 0;
            while i < self.plan.len() {
                let chunk = self.plan[i].chunk();
                let mut n = 0u32;
                let mut demand = false;
                while i < self.plan.len() && self.plan[i].chunk() == chunk {
                    let is_fault = self.plan[i] == fault;
                    self.pt.map(self.plan[i], Frame(self.next_frame), is_fault);
                    self.next_frame = self.next_frame.wrapping_add(1);
                    self.free -= 1;
                    demand |= is_fault;
                    n += 1;
                    i += 1;
                }
                self.engine.note_migrated(chunk, n, demand);
            }
        }
    }
}

/// Drive [`PolicyReplay`] with the stream's faults, batched like the uvm
/// replay; resident accesses set touch bits. Returns the select-victim
/// and plan-prefetch costs.
fn replay_cppe(
    app: &App,
    cell: &Cell,
    seed: u64,
    acc: &[Access],
    batch: usize,
    clock_ns: f64,
) -> (Cost, Cost) {
    let capacity = capacity_pages(app.pages, cell.rate) as usize;
    let mut r = PolicyReplay {
        engine: cell.preset.build(seed),
        pt: PageTable::new(),
        capacity,
        free: capacity,
        next_frame: 0,
        plan: Vec::new(),
        pinned: FxHashSet::default(),
        clock_ns,
        select: Cost::default(),
        plan_cost: Cost::default(),
    };
    let mut pending: Vec<VirtPage> = Vec::new();
    for a in acc {
        let page = VirtPage(a.page);
        if r.pt.is_resident(page) {
            r.pt.mark_touched(page);
            continue;
        }
        pending.push(page);
        if pending.len() >= batch {
            r.service(&pending);
            pending.clear();
        }
    }
    r.service(&pending);
    // A cell that never evicts still gets a measured unit cost:
    // `select_victim` on the replay's final chain, nothing evicted.
    if r.select.calls == 0 {
        r.pinned.clear();
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(r.engine.select_victim(&r.pinned));
        }
        r.select.ns += t.elapsed().as_nanos() as f64;
        r.select.calls += BATCH as u64;
    }
    (r.select, r.plan_cost)
}

/// Per-cell replays, with faults batched `batch` at a time (the cell's
/// observed faults per batch).
fn cell_costs(
    setup: &Setup,
    app: &App,
    cell: &Cell,
    acc: &[Access],
    batch: usize,
    clock_ns: f64,
    (spans, parent): (&mut Spans, usize),
) -> CellCosts {
    let id = spans.open("replay.uvm", Some(parent));
    let (service, log) = replay_uvm(setup, app, cell, acc, batch);
    spans.close(id, service.calls);

    let id = spans.open("replay.waiters", Some(parent));
    let waiters = replay_waiters(&log);
    spans.close(id, waiters.calls);

    let id = spans.open("replay.cppe", Some(parent));
    let (select_victim, plan_prefetch) = replay_cppe(
        app,
        cell,
        setup.policy_seed(&app.spec),
        acc,
        batch,
        clock_ns,
    );
    spans.close(id, select_victim.calls + plan_prefetch.calls);
    CellCosts {
        service,
        waiters,
        select_victim,
        plan_prefetch,
    }
}

/// Layers in the ledger: the metric naming the layer's share, and
/// whether it is part of the explained sum (false = a breakdown of
/// another layer's share).
pub const LAYERS: [(&str, bool); 9] = [
    ("share.gmmu.translate", true),
    ("share.gpu.cache", true),
    ("share.gpu.cache.invalidate", true),
    ("share.events", true),
    ("share.waiters", true),
    ("share.uvm.service", true),
    ("share.gmmu.shootdown", false),
    ("share.cppe.select_victim", false),
    ("share.cppe.plan_prefetch", false),
];

/// Ledger totals over a workload's cells.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Per layer (in [`LAYERS`] order): Σ unit cost × count, in ns.
    pub layer_ns: [f64; 9],
    /// Per layer: Σ count.
    pub layer_count: [f64; 9],
    /// Per layer: pooled replay cost (for layers with no calls).
    pub replay: [Cost; 9],
    /// Σ per-cell median `simulate` wall, ns.
    pub wall_ns: f64,
    /// Σ accesses.
    pub accesses: f64,
}

impl Ledger {
    /// Unit cost of layer `i`: count-weighted over cells, or the pooled
    /// replay cost when the workload never calls the layer.
    #[must_use]
    pub fn unit(&self, i: usize) -> f64 {
        if self.layer_count[i] > 0.0 {
            self.layer_ns[i] / self.layer_count[i]
        } else {
            self.replay[i].unit()
        }
    }

    /// Share of the measured wall explained by layer `i`.
    #[must_use]
    pub fn share(&self, i: usize) -> f64 {
        ratio(self.layer_ns[i], self.wall_ns)
    }

    /// Σ cost × count over the layers that add up.
    #[must_use]
    pub fn explained_ns(&self) -> f64 {
        LAYERS
            .iter()
            .zip(&self.layer_ns)
            .filter(|((_, adds), _)| *adds)
            .map(|(_, ns)| ns)
            .sum()
    }
}

/// The fastest replay costs seen so far for each app and cell. A traced
/// run makes one [`Replays::pass`] after every timed round, so the
/// replays sample the same stretch of host time as the `simulate` walls
/// they are set against, and both keep their fastest observation.
pub struct Replays {
    /// Interleaved access stream per app.
    acc: Vec<Vec<Access>>,
    /// Observed faults per batch per cell (the uvm replay's batch size).
    batch: Vec<usize>,
    clock_ns: f64,
    app: Vec<Option<AppCosts>>,
    cell: Vec<Option<CellCosts>>,
}

impl Replays {
    /// Prepare replays for `apps`; `runs[c]` is cell `c`'s round-0 result.
    #[must_use]
    pub fn new(apps: &[App], runs: &[RunResult]) -> Replays {
        let batch = runs
            .iter()
            .map(|r| {
                let arrived = r.driver.faults_serviced + r.driver.coalesced_faults;
                ratio(arrived as f64, r.driver.batches as f64)
                    .round()
                    .max(1.0) as usize
            })
            .collect();
        Replays {
            acc: apps.iter().map(|a| interleave(&a.streams)).collect(),
            batch,
            clock_ns: clock_overhead_ns(),
            app: vec![None; apps.len()],
            cell: vec![None; runs.len()],
        }
    }

    /// Replay every app and cell of `w` once, keeping the faster costs.
    pub fn pass(
        &mut self,
        setup: &Setup,
        w: &Workload,
        apps: &[App],
        cells: &[Cell],
        spans: &mut Spans,
    ) {
        let root = spans.open("ledger.pass", None);
        for (a, app) in apps.iter().enumerate() {
            let app_span = spans.open(&format!("app:{}", w.apps[a]), Some(root));
            let acc = &self.acc[a];
            let ac = app_costs(setup, app, acc, spans, app_span);
            self.app[a] = Some(self.app[a].take().map_or(ac, |best| best.fastest(ac)));
            for (c, cell) in cells.iter().enumerate().filter(|(_, c)| c.app == a) {
                let cell_span = spans.open(&format!("cell:{}", cell_key(w, cell)), Some(app_span));
                let cc = cell_costs(
                    setup,
                    app,
                    cell,
                    acc,
                    self.batch[c],
                    self.clock_ns,
                    (spans, cell_span),
                );
                spans.close(cell_span, 0);
                self.cell[c] = Some(self.cell[c].take().map_or(cc, |best| best.fastest(cc)));
            }
            spans.close(app_span, acc.len() as u64);
        }
        spans.close(root, cells.len() as u64);
    }

    /// The ledger: unit costs from the fastest passes, counts from
    /// `runs`, set against `wall_ns[c]`, cell `c`'s measured
    /// `simulate` wall.
    ///
    /// # Panics
    /// Panics before the first [`Replays::pass`].
    #[must_use]
    pub fn ledger(&self, cells: &[Cell], runs: &[RunResult], wall_ns: &[f64]) -> Ledger {
        let mut ledger = Ledger::default();
        for (c, cell) in cells.iter().enumerate() {
            let ac = self.app[cell.app].expect("a replay pass ran");
            let cc = self.cell[c].expect("a replay pass ran");
            let r = &runs[c];
            let d = &r.driver;
            let t = &r.translation;
            let translate_calls = t.l1_hits + t.l1_misses;
            let event_pairs =
                translate_calls + ac.barriers + d.faults_serviced + d.coalesced_faults + d.batches;
            let evicted = r.engine.pages_evicted;
            let per_layer: [(Cost, u64); 9] = [
                (ac.translate, translate_calls),
                (ac.cache, r.accesses),
                (ac.cache_invalidate, evicted),
                (ac.events, event_pairs),
                (cc.waiters, t.faulting_walks),
                (cc.service, d.faults_serviced),
                (ac.shootdown, evicted),
                (cc.select_victim, r.engine.chunk_evictions),
                (cc.plan_prefetch, r.engine.faults),
            ];
            for (i, (cost, count)) in per_layer.into_iter().enumerate() {
                ledger.layer_ns[i] += cost.unit() * count as f64;
                ledger.layer_count[i] += count as f64;
                ledger.replay[i].ns += cost.ns;
                ledger.replay[i].calls += cost.calls;
            }
            ledger.wall_ns += wall_ns[c];
            ledger.accesses += r.accesses as f64;
        }
        ledger
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;

    #[test]
    fn interleave_round_robins_lanes_and_drops_barriers() {
        use workloads::AccessStep;
        let acc = |p: u64| {
            LaneItem::Access(AccessStep {
                page: VirtPage(p),
                compute: 1,
            })
        };
        let streams = vec![
            vec![acc(0), LaneItem::Barrier, acc(1), acc(2)],
            vec![LaneItem::Barrier, acc(10)],
        ];
        let pages: Vec<u64> = interleave(&streams).iter().map(|a| a.page).collect();
        assert_eq!(pages, [0, 10, 1, 2]);
    }

    #[test]
    fn ledger_counts_come_from_the_run() {
        let w = Workload {
            scale: 0.25,
            apps: &["STN"],
            ..WORKLOADS[1]
        };
        let setup = Setup::new(&w, 0);
        let apps = vec![setup.app("STN")];
        let cells = Setup::cells(&w);
        let runs: Vec<RunResult> = cells.iter().map(|c| setup.run(&apps[0], c).0).collect();
        let wall = vec![1e6; cells.len()];
        let mut spans = Spans::new();
        let mut replays = Replays::new(&apps, &runs);
        replays.pass(&setup, &w, &apps, &cells, &mut spans);
        replays.pass(&setup, &w, &apps, &cells, &mut spans);
        let l = replays.ledger(&cells, &runs, &wall);
        let translate: u64 = runs
            .iter()
            .map(|r| r.translation.l1_hits + r.translation.l1_misses)
            .sum();
        assert_eq!(l.layer_count[0], translate as f64);
        assert_eq!(l.wall_ns, 2e6);
        assert!(l.replay.iter().take(6).all(|c| c.calls > 0));
        assert!(l.unit(0) > 0.0 && l.explained_ns() > 0.0);
        // The policy replay made the calls the real run made.
        let faults: u64 = runs.iter().map(|r| r.engine.faults).sum();
        assert!(l.replay[8].calls > 0 && l.layer_count[8] == faults as f64);
    }
}
