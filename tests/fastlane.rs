//! Production loop ⇄ reference simulator equivalence suite.
//!
//! `gpu::simulate` runs every access through its speed mechanisms: the
//! lane-indexed wake calendar (a ring of lane-threaded buckets, one
//! cycle-sorted far run and a driver slot, ordered across kinds by a
//! global push stamp), the inline wake (a lane woken by a page
//! completion replays without a queue round trip when nothing else is
//! queued at that cycle), page-indexed waiter runs, TLB presence masks
//! and chunk-gated cache invalidation. `gpu::reference::simulate` is a
//! separate, deliberately slow loop with none of them: one event per
//! access on a binary heap, a hashed waiter map, scan TLBs and scan data
//! caches, per-page shootdown and invalidation. The golden fingerprints
//! in `tests/perf_identity.rs` lock six paper cells, but the mechanisms
//! take decisions on *arbitrary* streams — a lane wake tying a page
//! completion or a driver free on one cycle, in either push order, a
//! wake past the ring window, a barrier relaunch — so this suite runs
//! each case through both loops and asserts their
//! `gpu::reference::Fingerprint`s agree: outcome, every counter block,
//! byte totals, the batch timeline, and every driver hook call in order
//! (the stream a tracing observer records from).
//!
//! The tests below use fixed xorshift streams, paper cells (one at 112
//! lanes), fixed fault schedules that drive the inline wake's two
//! branches and land lane wakes on a `PageReady` or `DriverFree` cycle,
//! far lane wakes, and the paths the loop takes off the happy path
//! (injected faults, the degradation ladder, the timeout and the
//! far-page range error); `arbitrary_streams_agree` adds seeded random
//! stream shapes on top. All are std-only, so they run in the default
//! test suite.

use cppe::presets::PolicyPreset;
use gmmu::page_table::FLAT_LIMIT;
use gmmu::types::VirtPage;
use gpu::observe::Ctx;
use gpu::{DriverObserver, FireCounts, GpuConfig, NoObserver, Observer, Outcome, RunResult};
use harness::telemetry::TraceConfig;
use harness::{capacity_pages, ExpConfig, Tracing};
use sim_core::fault::InjectionConfig;
use sim_core::rng::Xoshiro256ss;
use sim_core::time::Cycle;
use uvm::driver::{BatchResult, ResilienceConfig};
use workloads::registry;
use workloads::types::{AccessStep, LaneItem};

/// Run `streams` through both loops and panic with the first difference.
fn agree<O: Observer>(
    what: &str,
    cfg: &GpuConfig,
    engine: &dyn Fn() -> cppe::engine::PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity: u32,
    footprint: u64,
    obs: O,
) -> RunResult {
    gpu::reference::check(cfg, engine, streams, capacity, footprint, obs)
        .unwrap_or_else(|d| panic!("{what}: {d}"))
}

/// Run one paper cell at 50 % capacity through both loops.
fn paper_cell(
    abbr: &str,
    preset: PolicyPreset,
    scale: f64,
    mutate: &dyn Fn(&mut GpuConfig),
) -> RunResult {
    paper_cell_with(abbr, preset, scale, mutate, NoObserver)
}

/// [`paper_cell`] with `obs` attached to the production loop.
fn paper_cell_with<O: Observer>(
    abbr: &str,
    preset: PolicyPreset,
    scale: f64,
    mutate: &dyn Fn(&mut GpuConfig),
    obs: O,
) -> RunResult {
    let spec = registry::by_abbr(abbr).expect("known app");
    let mut cfg = ExpConfig::default().gpu;
    mutate(&mut cfg);
    let lanes = cfg.lanes();
    let streams: Vec<_> = (0..lanes)
        .map(|l| spec.lane_items(l, lanes, scale))
        .collect();
    let seed = ExpConfig::default().seed ^ spec.seed;
    agree(
        &format!("{abbr}/{}", preset.label()),
        &cfg,
        &|| preset.build(seed),
        &streams,
        capacity_pages(&spec, 0.5, scale),
        spec.pages(scale),
        obs,
    )
}

/// Deterministic xorshift64 stream.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Synthesize `lanes` random streams: `rounds` barrier-delimited rounds
/// of `per_round` accesses each over `footprint` pages, with compute
/// deltas from zero through stalls far past the ring window.
/// Every lane carries the same barrier count.
fn random_streams(
    seed: u64,
    lanes: usize,
    rounds: usize,
    per_round: usize,
    footprint: u64,
) -> Vec<Vec<LaneItem>> {
    let mut rng = seed;
    (0..lanes)
        .map(|_| {
            let mut items = Vec::new();
            for _ in 0..rounds {
                for _ in 0..per_round {
                    let r = xorshift(&mut rng);
                    let page = VirtPage(r % footprint);
                    // Mostly tight cadences (ring wakes a few cycles
                    // out), with occasional long compute gaps that land
                    // in the far run.
                    let compute = match r % 11 {
                        0..=6 => (r >> 32) % 24,
                        7..=9 => 100 + (r >> 32) % 400,
                        _ => 5_000 + (r >> 32) % 20_000,
                    } as u32;
                    items.push(LaneItem::Access(AccessStep { page, compute }));
                }
                items.push(LaneItem::Barrier);
            }
            items
        })
        .collect()
}

/// Run a synthetic stream set through both loops.
#[allow(clippy::too_many_arguments)]
fn synthetic_cell(
    seed: u64,
    preset: PolicyPreset,
    lanes: usize,
    rounds: usize,
    per_round: usize,
    footprint: u64,
    capacity: u32,
    mutate: &dyn Fn(&mut GpuConfig),
) -> RunResult {
    let streams = random_streams(seed, lanes, rounds, per_round, footprint);
    let mut cfg = ExpConfig::default().gpu;
    mutate(&mut cfg);
    agree(
        &format!("seed {seed:#x}/{}", preset.label()),
        &cfg,
        &|| preset.build(seed ^ 0xD1B5_4A32_D192_ED03),
        &streams,
        capacity,
        footprint,
        NoObserver,
    )
}

/// The six golden cells, at reduced scale (the release-mode identity
/// lock already covers 0.25).
#[test]
fn paper_cells_agree() {
    for (abbr, scale) in [("STN", 0.25), ("KMN", 0.125), ("SRD", 0.125)] {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
            paper_cell(abbr, preset, scale, &|_| {});
        }
    }
}

/// Each of the seven presets the reference tables name, on one
/// reduced-scale paper cell.
#[test]
fn table_presets_agree() {
    for preset in [
        PolicyPreset::Baseline,
        PolicyPreset::Random,
        PolicyPreset::ReservedLru10,
        PolicyPreset::ReservedLru20,
        PolicyPreset::Cppe,
        PolicyPreset::HpeNoPf,
        PolicyPreset::DisablePfOnFull,
    ] {
        let r = paper_cell("SRD", preset, 0.0625, &|_| {});
        assert!(r.engine.chunk_evictions > 0, "{}", preset.label());
    }
}

/// Random oversubscribed streams — faults, evictions and shootdowns
/// landing between a lane's back-to-back hits.
#[test]
fn random_streams_agree() {
    for (i, &seed) in [
        0x1234_5678_9ABC_DEF0u64,
        0xDEAD_BEEF_CAFE_F00D,
        0x0BAD_5EED_0BAD_5EED,
        0xA5A5_A5A5_5A5A_5A5A,
    ]
    .iter()
    .enumerate()
    {
        let preset = if i % 2 == 0 {
            PolicyPreset::Cppe
        } else {
            PolicyPreset::Baseline
        };
        // Capacity at ~40% of footprint: every round thrashes.
        synthetic_cell(seed, preset, 6, 3, 160, 640, 256, &|_| {});
    }
}

/// A capacity so tight the whole footprint cycles through eviction —
/// a lane keeps losing residency to the pages it just touched.
#[test]
fn thrashing_capacity_agrees() {
    for (seed, preset) in [
        (0x7777_1111_3333_9999, PolicyPreset::Cppe),
        (0x2222_8888_4444_6666, PolicyPreset::Baseline),
    ] {
        synthetic_cell(seed, preset, 4, 4, 120, 512, 32, &|_| {});
    }
}

/// A single lane with zero-compute cadence: each wake lands a few
/// cycles out, so one lane re-threads nearby ring buckets thousands of
/// times.
#[test]
fn single_lane_long_streaks_agree() {
    let streams = vec![(0..2_000u64)
        .map(|i| {
            LaneItem::Access(AccessStep {
                page: VirtPage(i % 48),
                compute: 0,
            })
        })
        .collect::<Vec<_>>()];
    let cfg = ExpConfig::default().gpu;
    let engine = || PolicyPreset::Cppe.build(7);
    agree("long streaks", &cfg, &engine, &streams, 64, 48, NoObserver);
}

/// With the tracing observer attached (decision auditing on), the run
/// still equals the reference loop's, driver hook stream included: the
/// observer records its events, spans, epochs and decisions without
/// steering the production loop.
#[test]
fn traced_runs_agree() {
    let cfg = ExpConfig::default().gpu;
    let mut tracing = Tracing::new(TraceConfig::audited(), cfg.warps_per_sm);
    paper_cell_with("STN", PolicyPreset::Cppe, 0.25, &|_| {}, &mut tracing);
    let t = tracing.finish();
    assert!(!t.events.is_empty() && !t.decisions.is_empty());
    assert!(!t.spans.is_empty());
    assert_eq!(t.dropped_spans, 0, "span drops would skew the series");
    let streams = random_streams(0x5151_6262_7373_8484, 6, 3, 160, 640);
    let preset = PolicyPreset::Cppe;
    let mut tracing = Tracing::new(TraceConfig::audited(), cfg.warps_per_sm);
    agree(
        "traced synthetic",
        &cfg,
        &|| preset.build(0x5151_6262_7373_8484 ^ 0xD1B5_4A32_D192_ED03),
        &streams,
        256,
        640,
        &mut tracing,
    );
    assert!(!tracing.finish().decisions.is_empty());
}

/// Seeded random stream shapes on top of the fixed-seed cases above:
/// arbitrary lane counts, round shapes, footprints, capacities and
/// presets. A failure names the case's seed and what it drew.
#[test]
fn arbitrary_streams_agree() {
    for seed in 0..24u64 {
        let mut rng = Xoshiro256ss::new(seed);
        let stream_seed = rng.next_u64();
        let lanes = 1 + rng.gen_range(5) as usize;
        let rounds = 1 + rng.gen_range(3) as usize;
        let per_round = 1 + rng.gen_range(119) as usize;
        let footprint = 16 + rng.gen_range(496);
        let cap_chunks = 2 + rng.gen_range(10);
        let preset = if rng.gen_bool(0.5) {
            PolicyPreset::Cppe
        } else {
            PolicyPreset::Baseline
        };
        let capacity = (cap_chunks * gmmu::types::PAGES_PER_CHUNK) as u32;
        let streams = random_streams(stream_seed | 1, lanes, rounds, per_round, footprint);
        agree(
            &format!(
                "seed {seed}: {lanes} lanes, {rounds}x{per_round}, footprint {footprint}, \
                 {cap_chunks} chunks, {}",
                preset.label()
            ),
            &ExpConfig::default().gpu,
            &|| preset.build(stream_seed ^ 0x9E37_79B9_7F4A_7C15),
            &streams,
            capacity,
            footprint,
            NoObserver,
        );
    }
}

/// Injected DMA failures (with retries and, on a budget of one retry,
/// aborted migrations) and far-fault latency spikes, on a paper cell
/// and a thrashing stream.
#[test]
fn injected_chaos_agrees() {
    let chaos = |cfg: &mut GpuConfig| {
        cfg.injection = InjectionConfig {
            transfer_failure_prob: 0.2,
            ..InjectionConfig::latency_spikes(0x5EED)
        };
        cfg.resilience.max_transfer_retries = 1;
    };
    let r = paper_cell("KMN", PolicyPreset::Cppe, 0.125, &chaos);
    assert!(r.driver.retries > 0 && r.driver.latency_spike_batches > 0);
    let r = synthetic_cell(
        0x3C3C_A5A5,
        PolicyPreset::Baseline,
        4,
        3,
        120,
        512,
        64,
        &chaos,
    );
    assert!(r.driver.migrations_aborted > 0, "{:?}", r.driver);
}

/// The degradation ladder on Fig. 4's thrash-death cell: the baseline
/// would crash MVT; degraded mode sheds prefetch instead.
#[test]
fn degraded_ladder_agrees() {
    let r = paper_cell("MVT", PolicyPreset::Baseline, 0.25, &|cfg| {
        cfg.warps_per_sm = 1;
        cfg.resilience = ResilienceConfig::degraded();
    });
    assert_eq!(r.outcome, Outcome::Degraded);
    assert!(r.driver.throttle_sheds >= 1, "{:?}", r.driver);
}

/// The `max_cycles` stop, mid-run.
#[test]
fn timeout_agrees() {
    let r = synthetic_cell(
        0x00DD_BA11,
        PolicyPreset::Cppe,
        4,
        3,
        120,
        512,
        64,
        &|cfg| cfg.max_cycles = 400_000,
    );
    assert_eq!(r.outcome, Outcome::Timeout);
}

/// A fault past the flat page range ends both runs with the driver's
/// typed range error, at the same cycle and with the same text (the
/// case of `tests/driver_semantics.rs`).
#[test]
fn far_page_range_error_agrees() {
    let cfg = GpuConfig {
        sms: 2,
        warps_per_sm: 2,
        ..GpuConfig::default()
    };
    let streams = |far| vec![accesses(&[(5, 10), (far, 10)]); 3];
    for far in [FLAT_LIMIT, 1 << 40, u64::MAX - 1] {
        let engine = || PolicyPreset::Baseline.build(0);
        let r = agree("far page", &cfg, &engine, &streams(far), 64, 16, NoObserver);
        let want = format!("fault on page {far} past the {FLAT_LIMIT}-page range");
        assert!(r.error.is_some_and(|e| e.contains(&want)), "page {far}");
    }
}

/// What the wake path did: each page completion's cycle and woken
/// lanes, each inline wake, each fault's issue cycle, each hit's ready
/// cycle, and each batch's dispatch cycle and host-done cycle.
#[derive(Debug, Default)]
struct Wakes {
    ready: Vec<(u64, Vec<u32>)>,
    inline: Vec<(u64, u32)>,
    faults: Vec<(u64, u32)>,
    hits: Vec<(u64, u32)>,
    batches: Vec<(u64, u64)>,
}

impl DriverObserver for Wakes {}

impl Observer for Wakes {
    fn access_hit(&mut self, _: Ctx<'_>, lane: u32, _: VirtPage, ready_at: Cycle) {
        self.hits.push((ready_at.0, lane));
    }

    fn batch_dispatched(&mut self, _: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        self.batches.push((dispatch.0, batch.host_done.0));
    }

    fn fault_raised(
        &mut self,
        _: Ctx<'_>,
        lane: u32,
        _: VirtPage,
        now: Cycle,
        _: &gmmu::translation::TranslationTiming,
        _: Cycle,
    ) {
        self.faults.push((now.0, lane));
    }

    fn page_ready(&mut self, _: Ctx<'_>, _: VirtPage, now: Cycle, lanes: &[u32]) {
        if !lanes.is_empty() {
            self.ready.push((now.0, lanes.to_vec()));
        }
    }

    fn inline_wake(&mut self, _: Ctx<'_>, lane: u32, now: Cycle) {
        self.inline.push((now.0, lane));
    }
}

/// One access per `(page, compute)` pair, in order.
fn accesses(pages: &[(u64, u32)]) -> Vec<LaneItem> {
    pages
        .iter()
        .map(|&(p, compute)| {
            LaneItem::Access(AccessStep {
                page: VirtPage(p),
                compute,
            })
        })
        .collect()
}

/// Run `streams` through both loops (no compute jitter, ample memory)
/// and return the production loop's wakes.
fn wake_case(streams: &[Vec<LaneItem>]) -> Wakes {
    let cfg = GpuConfig {
        compute_jitter: 0.0,
        ..ExpConfig::default().gpu
    };
    let mut wakes = Wakes::default();
    let engine = || PolicyPreset::Baseline.build(11);
    agree("wake case", &cfg, &engine, streams, 1024, 1024, &mut wakes);
    wakes
}

/// Lane 0's fault keeps the driver busy while lanes 1, 3, 4 and 5 fault
/// on page 3 and lane 2 on page 200, so the next batch is
/// `[3, 200, 3, 3, 3]`. Page 3's first completion lands a fault's
/// service time ahead of the rest, alone in its cycle: lane 1 replays
/// inline and lanes 3, 4 and 5 are queued behind it.
#[test]
fn four_waiters_on_one_page_wake_one_inline() {
    let streams: Vec<_> = [100, 3, 200, 3, 3, 3]
        .iter()
        .map(|&p| accesses(&[(p, 10)]))
        .collect();
    let w = wake_case(&streams);
    let (at, lanes) = w
        .ready
        .iter()
        .find(|(_, lanes)| lanes.len() == 4)
        .expect("page 3 woke its four waiters at once");
    assert_eq!(lanes, &[1, 3, 4, 5]);
    assert!(w.inline.contains(&(*at, 1)), "{w:?}");
}

/// Lanes 1, 2 and 3 fault on pages 3, 200 and 300 in one batch, so
/// page 200 completes a fault's service time after page 3. Lane 1,
/// woken by page 3, replays it and then spends exactly the compute that
/// puts its next `LaneReady` on page 200's completion cycle: that
/// completion must fall back to queueing its waiter, and lane 1's fault
/// on page 400 issues at that cycle.
#[test]
fn page_ready_behind_a_same_cycle_lane_ready_falls_back() {
    let streams = |compute: u32| {
        vec![
            accesses(&[(100, 10)]),
            accesses(&[(3, compute), (400, 10)]),
            accesses(&[(200, 10)]),
            accesses(&[(300, 10)]),
        ]
    };
    // Calibrate with zero compute: lane 1's second fault issues `gap`
    // cycles before page 200 completes.
    let probe = wake_case(&streams(0));
    let ready_200 = |w: &Wakes| {
        w.ready
            .iter()
            .find(|(_, lanes)| lanes == &[2])
            .expect("page 200 woke lane 2")
            .0
    };
    let second_fault = |w: &Wakes| {
        w.faults
            .iter()
            .filter(|&&(_, lane)| lane == 1)
            .nth(1)
            .expect("lane 1 faulted on page 400")
            .0
    };
    let gap = ready_200(&probe) - second_fault(&probe);
    let w = wake_case(&streams(u32::try_from(gap).expect("gap fits u32")));
    let at = ready_200(&w);
    assert_eq!(
        second_fault(&w),
        at,
        "lane 1 was not queued on page 200's cycle"
    );
    assert!(
        !w.inline.iter().any(|&(t, _)| t == at),
        "page 200's wake ran inline past a same-cycle LaneReady: {w:?}"
    );
    assert!(
        w.inline.iter().any(|&(_, lane)| lane == 1),
        "lane 1's wake on page 3 did not run inline: {w:?}"
    );
}

/// The cycle of `lane`'s last fault.
fn last_fault(w: &Wakes, lane: u32) -> u64 {
    w.faults
        .iter()
        .rev()
        .find(|&&(_, l)| l == lane)
        .expect("the lane faulted")
        .0
}

/// The ready cycle of `lane`'s hit before its last fault: the access
/// whose compute the fault's wake ended.
fn hit_before_last_fault(w: &Wakes, lane: u32) -> u64 {
    let fault = last_fault(w, lane);
    w.hits
        .iter()
        .rev()
        .find(|&&(t, l)| l == lane && t < fault)
        .expect("the lane hit")
        .0
}

/// The cycle page completion `lanes` woke its waiters at.
fn ready_at(w: &Wakes, lanes: &[u32]) -> u64 {
    w.ready
        .iter()
        .find(|(_, l)| l == lanes)
        .unwrap_or_else(|| panic!("no completion woke {lanes:?}: {w:?}"))
        .0
}

/// Land `lane`'s last wake on the cycle `target` names. `streams(c)`
/// ends `lane` with an access of compute `c` and then a fault, and `c`
/// must move nothing before that fault. A probe with so long a compute
/// that the fault comes after the target gives the offset.
fn land_on(
    streams: &dyn Fn(u32) -> Vec<Vec<LaneItem>>,
    lane: u32,
    target: &dyn Fn(&Wakes) -> u64,
) -> (u64, u32, Wakes) {
    const PROBE: u64 = 1_000_000;
    let probe = wake_case(&streams(PROBE as u32));
    let at = target(&probe);
    let compute = PROBE - (last_fault(&probe, lane) - at);
    let compute = u32::try_from(compute).expect("compute fits u32");
    let w = wake_case(&streams(compute));
    assert_eq!(target(&w), at, "the compute moved the target");
    assert_eq!(last_fault(&w, lane), at, "lane {lane} missed the target");
    (at, compute, w)
}

/// Lane 0's fault dispatches page 100 alone; lanes 1, 2 and 3 fault on
/// pages 3, 200 and 300 meanwhile and form the second batch. Lane
/// `extra` (4) hits page 101, which the first batch mapped with its
/// chunk, before the second batch is dispatched. `lane1` and `lane4`
/// are those lanes' streams.
fn two_batches(lane1: Vec<LaneItem>, lane4: Vec<LaneItem>) -> Vec<Vec<LaneItem>> {
    vec![
        accesses(&[(100, 10)]),
        lane1,
        accesses(&[(200, 10)]),
        accesses(&[(300, 10)]),
        lane4,
    ]
}

/// The second batch: its dispatch and host-done cycles.
fn second_batch(w: &Wakes) -> (u64, u64) {
    w.batches[1]
}

/// A lane wake on the exact cycle of a `PageReady`, in both push
/// orders. Page first: lane 1, woken by page 3, spends a compute short
/// of the ring window that lands its wake on page 200's completion, so
/// a ring wake ties a far completion pushed long before. Lane first:
/// lane 4's hit, before the second batch exists, pushes a far wake onto
/// page 200's completion cycle.
#[test]
fn lane_wake_on_a_page_ready_cycle_in_both_push_orders() {
    let c200 = |w: &Wakes| ready_at(w, &[2]);
    // Page first. Wait on page 3 until 1,500 cycles short of page 200.
    let probe = wake_case(&two_batches(accesses(&[(3, 0), (3, 0), (400, 10)]), vec![]));
    let wait = u32::try_from(c200(&probe) - ready_at(&probe, &[1]) - 1_500).expect("fits");
    let lane1 = |c| two_batches(accesses(&[(3, wait), (3, c), (400, 10)]), vec![]);
    let (at, compute, w) = land_on(&lane1, 1, &c200);
    assert!(u64::from(compute) < 2_048, "a ring wake: {compute}");
    assert!(
        hit_before_last_fault(&w, 1) > second_batch(&w).0,
        "page 200 was pushed first"
    );
    assert!(!w.inline.iter().any(|&(t, _)| t == at), "{w:?}");

    // Lane first.
    let lane4 = |c| two_batches(accesses(&[(3, 10)]), accesses(&[(101, c), (700, 10)]));
    let (_, compute, w) = land_on(&lane4, 4, &c200);
    assert!(u64::from(compute) >= 2_048, "a far wake: {compute}");
    assert!(
        hit_before_last_fault(&w, 4) < second_batch(&w).0,
        "lane 4 was pushed first"
    );
}

/// A lane wake on the exact cycle of a `DriverFree`, in both push
/// orders: the second batch's host-done cycle, which its last
/// completion (page 300) shares. Driver first: lane 1's ring wake,
/// pushed after the batch. Lane first: lane 4's far wake, pushed before
/// it.
#[test]
fn lane_wake_on_a_driver_free_cycle_in_both_push_orders() {
    let host_done = |w: &Wakes| second_batch(w).1;
    // Driver first.
    let probe = wake_case(&two_batches(accesses(&[(3, 0), (3, 0), (400, 10)]), vec![]));
    let wait = u32::try_from(host_done(&probe) - ready_at(&probe, &[1]) - 1_500).expect("fits");
    let lane1 = |c| two_batches(accesses(&[(3, wait), (3, c), (400, 10)]), vec![]);
    let (_, compute, w) = land_on(&lane1, 1, &host_done);
    assert!(u64::from(compute) < 2_048, "a ring wake: {compute}");
    assert!(
        hit_before_last_fault(&w, 1) > second_batch(&w).0,
        "the driver was pushed first"
    );

    // Lane first.
    let lane4 = |c| two_batches(accesses(&[(3, 10)]), accesses(&[(101, c), (700, 10)]));
    let (_, compute, w) = land_on(&lane4, 4, &host_done);
    assert!(u64::from(compute) >= 2_048, "a far wake: {compute}");
    assert!(
        hit_before_last_fault(&w, 4) < second_batch(&w).0,
        "lane 4 was pushed first"
    );
}

/// Lane wakes 2,048 or more cycles ahead wait in the far run beside the
/// page completions: from long computes, and from barrier relaunches
/// (`launch_overhead_cycles`, 7,000, out).
#[test]
fn far_lane_wakes_agree() {
    // Six lanes sweep their own 64 pages twice, drawing each compute
    // from `computes`, with a barrier every `round` accesses.
    let sweeps = |computes: &[u32], round: u64| -> Vec<Vec<LaneItem>> {
        let mut rng = Xoshiro256ss::new(3);
        (0..6u64)
            .map(|lane| {
                let mut items = Vec::new();
                for i in 0..128 {
                    let compute = computes[rng.gen_range(computes.len() as u64) as usize];
                    let page = VirtPage(lane * 64 + i % 64);
                    items.push(LaneItem::Access(AccessStep { page, compute }));
                    if (i + 1) % round == 0 {
                        items.push(LaneItem::Barrier);
                    }
                }
                items
            })
            .collect()
    };
    let long = sweeps(&[0, 10, 2_047, 2_048, 2_049, 6_000, 40_000], u64::MAX);
    let relaunches = sweeps(&[0, 10, 500], 32);
    for (what, streams, far) in [("long computes", long, 6), ("relaunches", relaunches, 24)] {
        let mut fc = FireCounts::default();
        let engine = || PolicyPreset::Cppe.build(5);
        let cfg = ExpConfig::default().gpu;
        let r = agree(what, &cfg, &engine, &streams, 256, 384, &mut fc);
        assert!(r.completed(), "{what}: {:?}", r.outcome);
        let q = fc.queue;
        assert!(q.pushes.far_lane >= far, "{what}: {q:?}");
        assert_eq!(q.pops, q.pushes, "{what}: {q:?}");
    }
}

/// 112 lanes (`warps_per_sm: 4`), the lane count of the `resident-112`
/// benchmark, on a reduced-scale paper cell.
#[test]
fn lanes_112_agree() {
    for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
        let r = paper_cell("STN", preset, 0.125, &|cfg| cfg.warps_per_sm = 4);
        assert!(r.accesses > 0);
    }
}
