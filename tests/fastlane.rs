//! Production loop ⇄ reference simulator equivalence suite.
//!
//! `gpu::simulate` runs every access through its speed mechanisms: lane
//! run-ahead (a bounded streak of provable hits executed inline), the
//! inline wake (a lane woken by a page completion replays without a
//! queue round trip when nothing else is queued at that cycle), the
//! calendar queue's bulk pushes, page-indexed waiter runs, TLB presence
//! masks and chunk-gated cache invalidation. `gpu::reference::simulate`
//! is a separate, deliberately slow loop with none of them: one event
//! per access on a binary heap, a hashed waiter map, scan TLBs and scan
//! data caches, per-page shootdown and invalidation. The golden
//! fingerprints in `tests/perf_identity.rs` lock six paper cells, but
//! the mechanisms take decisions on *arbitrary* streams — a shootdown
//! landing mid-streak, a same-cycle wake racing the streak head, a
//! barrier right behind a provable hit — so this suite runs each case
//! through both loops and asserts their `gpu::reference::Fingerprint`s
//! agree: outcome, every counter block, byte totals, the batch
//! timeline, and — for traced runs — the driver's event, epoch and
//! decision streams.
//!
//! The tests below use fixed xorshift streams, paper cells, two fixed
//! fault schedules that drive the inline wake's two branches, and the
//! paths the loop takes off the happy path (injected faults, the
//! degradation ladder, the timeout and the far-page range error);
//! `arbitrary_streams_agree` adds seeded random stream shapes on top.
//! All are std-only, so they run in the default test suite.

use cppe::presets::PolicyPreset;
use gmmu::page_table::FLAT_LIMIT;
use gmmu::types::VirtPage;
use gpu::observe::Ctx;
use gpu::{GpuConfig, NoObserver, Observer, Outcome, RunResult};
use harness::{capacity_pages, ExpConfig};
use sim_core::fault::InjectionConfig;
use sim_core::rng::Xoshiro256ss;
use sim_core::time::Cycle;
use telemetry::TraceConfig;
use uvm::driver::ResilienceConfig;
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
        NoObserver,
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
/// deltas spanning the streak-provable range (0) through long stalls.
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
                    // Mostly tight cadences (run-ahead's home turf),
                    // with occasional long compute gaps that force the
                    // streak to yield to queued wakes.
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
/// landing mid-streak.
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
/// the streak head keeps losing residency to the pages it just proved.
#[test]
fn thrashing_capacity_agrees() {
    for (seed, preset) in [
        (0x7777_1111_3333_9999, PolicyPreset::Cppe),
        (0x2222_8888_4444_6666, PolicyPreset::Baseline),
    ] {
        synthetic_cell(seed, preset, 4, 4, 120, 512, 32, &|_| {});
    }
}

/// A single lane with zero-compute cadence maximizes streak length —
/// the run-ahead bound (and its exit bookkeeping) must not drift.
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

/// With tracing and decision auditing on, the driver's typed event,
/// epoch and decision streams (not just the counters) are identical:
/// the production loop must drive the driver to emit every record the
/// reference loop does, in the same order, at the same cycles.
#[test]
fn traced_runs_agree() {
    let audited = |cfg: &mut GpuConfig| cfg.trace = TraceConfig::audited();
    let r = paper_cell("STN", PolicyPreset::Cppe, 0.25, &audited);
    let t = r.telemetry.expect("tracing was on");
    assert!(!t.events.is_empty() && !t.decisions.is_empty());
    assert_eq!(t.dropped_spans, 0, "span drops would skew the series");
    synthetic_cell(
        0x5151_6262_7373_8484,
        PolicyPreset::Cppe,
        6,
        3,
        160,
        640,
        256,
        &audited,
    );
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
/// lanes, each inline wake, and each fault's issue cycle.
#[derive(Debug, Default)]
struct Wakes {
    ready: Vec<(u64, Vec<u32>)>,
    inline: Vec<(u64, u32)>,
    faults: Vec<(u64, u32)>,
}

impl Observer for Wakes {
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
