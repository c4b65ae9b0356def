//! Fast-lane ⇄ legacy-path equivalence suite.
//!
//! `GpuConfig::fast_lane` gates the PR 10 hit-path fast lane (indexed
//! TLB/PWC/data-cache probes feeding a bounded lane run-ahead streak
//! with bulk event-queue pushes). The golden fingerprints in
//! `tests/perf_identity.rs` lock the six paper cells, but the fast lane
//! takes decisions on *arbitrary* streams — a hazard the paper
//! workloads never produce (a shootdown landing mid-streak, a
//! same-cycle wake racing the streak head, a barrier right behind a
//! provable hit) must also leave every observable bit unchanged. This
//! suite drives the same simulations through both paths (`fast_lane:
//! true` vs `false`) and asserts the *full* result fingerprint agrees:
//! outcome, every counter block, byte totals, the per-batch timeline,
//! and — for traced runs — the typed event/span/decision streams.
//!
//! The tests below use fixed xorshift streams, and
//! `arbitrary_streams_agree` adds seeded random stream shapes on top.
//! All are std-only, so they run in the default test suite.

use cppe::engine::PolicyEngine;
use cppe::presets::PolicyPreset;
use gmmu::types::VirtPage;
use gpu::{GpuConfig, RunResult, Timeline};
use harness::{capacity_pages, ExpConfig};
use sim_core::rng::Xoshiro256ss;
use telemetry::TraceConfig;
use workloads::registry;
use workloads::types::{AccessStep, LaneItem};

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

fn fnv_str(h: &mut u64, s: &str) {
    for b in s.as_bytes() {
        fnv(h, u64::from(*b));
    }
}

/// Everything a run observably computes, as comparable text. Compound
/// stat blocks go in via their `Debug` form so a divergence prints the
/// exact field; the timeline and telemetry streams (which can run to
/// thousands of records) are FNV-folded after their lengths.
#[derive(Debug, PartialEq, Eq)]
struct Fp {
    head: String,
    timeline_len: usize,
    timeline_hash: u64,
    telemetry: Option<(usize, usize, usize, u64)>,
}

/// Simulate with a batch timeline attached and fingerprint the run.
fn run(
    cfg: &GpuConfig,
    engine: PolicyEngine,
    streams: &[Vec<LaneItem>],
    capacity: u32,
    footprint: u64,
) -> Fp {
    let mut timeline = Timeline::default();
    let r = gpu::simulate_with(cfg, engine, streams, capacity, footprint, &mut timeline);
    fp(&r, &timeline)
}

fn fp(r: &RunResult, timeline: &Timeline) -> Fp {
    let head = format!(
        "{:?} err={:?} cycles={} accesses={} {:?} {:?} {:?} h2d={} d2h={} wrong={} \
         pbuf={} cap={} free={} resident={} {:?} mhpe={}",
        r.outcome,
        r.error,
        r.cycles,
        r.accesses,
        r.engine,
        r.driver,
        r.translation,
        r.bytes_h2d,
        r.bytes_d2h,
        r.wrong_evictions,
        r.pattern_buffer_len,
        r.frames_capacity,
        r.frames_free,
        r.resident_pages,
        r.injection,
        r.mhpe.is_some(),
    );
    let mut th: u64 = 0xCBF2_9CE4_8422_2325;
    for p in &timeline.points {
        fnv(&mut th, p.cycle);
        fnv(&mut th, p.faults);
        fnv(&mut th, p.pages_migrated);
        fnv(&mut th, p.pages_evicted);
        fnv(&mut th, p.resident_pages);
    }
    let telemetry = r.telemetry.as_ref().map(|t| {
        let mut eh: u64 = 0xCBF2_9CE4_8422_2325;
        for e in &t.events {
            fnv_str(&mut eh, &format!("{e:?}"));
        }
        for s in &t.spans {
            fnv_str(&mut eh, &format!("{s:?}"));
        }
        for d in &t.decisions {
            fnv_str(&mut eh, &format!("{d:?}"));
        }
        fnv_str(&mut eh, &format!("{:?}", t.series));
        fnv_str(&mut eh, &format!("{:?}", t.hists));
        fnv(&mut eh, t.dropped_events);
        fnv(&mut eh, t.dropped_spans);
        fnv(&mut eh, t.unclosed_spans);
        fnv(&mut eh, t.dropped_decisions);
        (t.events.len(), t.spans.len(), t.decisions.len(), eh)
    });
    Fp {
        head,
        timeline_len: timeline.points.len(),
        timeline_hash: th,
        telemetry,
    }
}

fn gpu_cfg(fast_lane: bool) -> GpuConfig {
    GpuConfig {
        fast_lane,
        ..ExpConfig::default().gpu
    }
}

/// Run one paper cell with the fast lane toggled.
fn paper_cell(abbr: &str, preset: PolicyPreset, scale: f64, mutate: &dyn Fn(&mut GpuConfig)) {
    let spec = registry::by_abbr(abbr).expect("known app");
    let capacity = capacity_pages(&spec, 0.5, scale);
    let mut results = Vec::new();
    for fast_lane in [true, false] {
        let mut cfg = gpu_cfg(fast_lane);
        mutate(&mut cfg);
        let lanes = cfg.lanes();
        let streams: Vec<_> = (0..lanes)
            .map(|l| spec.lane_items(l, lanes, scale))
            .collect();
        let seed = ExpConfig::default().seed ^ spec.seed;
        let engine = preset.build(seed);
        results.push(run(&cfg, engine, &streams, capacity, spec.pages(scale)));
    }
    assert_eq!(
        results[0],
        results[1],
        "{abbr}/{} diverged between fast-lane and legacy paths",
        preset.label()
    );
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
/// Every lane carries the same barrier count, as the engine requires.
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
                    // Mostly tight cadences (the fast lane's home turf),
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

/// Run a synthetic stream set through both paths and compare.
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
) {
    let streams = random_streams(seed, lanes, rounds, per_round, footprint);
    let mut results = Vec::new();
    for fast_lane in [true, false] {
        let mut cfg = gpu_cfg(fast_lane);
        mutate(&mut cfg);
        let engine = preset.build(seed ^ 0xD1B5_4A32_D192_ED03);
        results.push(run(&cfg, engine, &streams, capacity, footprint));
    }
    assert_eq!(
        results[0],
        results[1],
        "seed {seed:#x}/{} diverged between fast-lane and legacy paths",
        preset.label()
    );
}

/// The six golden cells (at reduced scale — the release-mode identity
/// lock already covers 0.25) agree between the two paths.
#[test]
fn paper_cells_agree() {
    for (abbr, scale) in [("STN", 0.25), ("KMN", 0.125), ("SRD", 0.125)] {
        for preset in [PolicyPreset::Baseline, PolicyPreset::Cppe] {
            paper_cell(abbr, preset, scale, &|_| {});
        }
    }
}

/// Random oversubscribed streams — faults, evictions and shootdowns
/// landing mid-streak — leave both paths bit-identical.
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
    synthetic_cell(
        0x7777_1111_3333_9999,
        PolicyPreset::Cppe,
        4,
        4,
        120,
        512,
        32,
        &|_| {},
    );
    synthetic_cell(
        0x2222_8888_4444_6666,
        PolicyPreset::Baseline,
        4,
        4,
        120,
        512,
        32,
        &|_| {},
    );
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
    let mut results = Vec::new();
    for fast_lane in [true, false] {
        let cfg = gpu_cfg(fast_lane);
        let engine = PolicyPreset::Cppe.build(7);
        results.push(run(&cfg, engine, &streams, 64, 48));
    }
    assert_eq!(results[0], results[1]);
}

/// With tracing + decision auditing on, the typed event, span and
/// decision streams (not just the counters) are identical — the fast
/// lane must emit every record the round-trip path would, in the same
/// order, at the same cycles.
#[test]
fn traced_runs_agree() {
    let audited = |cfg: &mut GpuConfig| cfg.trace = TraceConfig::audited();
    paper_cell("STN", PolicyPreset::Cppe, 0.25, &audited);
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
/// presets — the two paths never diverge. A failure names the case's
/// seed and what it drew.
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
        let mut results = Vec::new();
        for fast_lane in [true, false] {
            let cfg = gpu_cfg(fast_lane);
            let engine = preset.build(stream_seed ^ 0x9E37_79B9_7F4A_7C15);
            results.push(run(&cfg, engine, &streams, capacity, footprint));
        }
        assert_eq!(
            results[0],
            results[1],
            "seed {seed}: {lanes} lanes, {rounds}x{per_round}, footprint {footprint}, \
             {cap_chunks} chunks, {}",
            preset.label()
        );
    }
}
