//! Bit-identity lock for the hot-loop overhaul.
//!
//! The calendar event queue, flat page table, TLB presence masks and
//! zero-allocation fault batching are pure *speed* changes: every
//! simulated quantity must be bit-identical to the pre-overhaul
//! implementations. These golden fingerprints were captured from the
//! `BinaryHeap`/`FxHashMap` code immediately before the overhaul
//! (workloads STN/KMN/SRD × baseline/CPPE at scale 0.25, rate 0.5,
//! default seed) and lock every observable counter plus an FNV-1a hash
//! of the full per-batch timeline. Any future "optimisation" that
//! shifts one cycle or reorders one batch fails here, not in a paper
//! figure.

use cppe::presets::PolicyPreset;
use gpu::cache::ProbeCounts;
use gpu::{FireCounts, KindCounts, QueueCounts, Timeline};
use harness::{capacity_pages, ExpConfig};
use workloads::registry;

/// Fingerprint of everything a run observably computes.
#[derive(Debug, PartialEq, Eq)]
struct Fp {
    outcome: &'static str,
    cycles: u64,
    accesses: u64,
    faults: u64,
    pages_migrated: u64,
    pages_prefetched: u64,
    chunk_evictions: u64,
    pages_evicted: u64,
    total_untouch: u64,
    batches: u64,
    faults_serviced: u64,
    coalesced_faults: u64,
    l1_hits: u64,
    l1_misses: u64,
    l2_hits: u64,
    l2_misses: u64,
    pwc_hits: u64,
    pwc_misses: u64,
    walks: u64,
    faulting_walks: u64,
    bytes_h2d: u64,
    bytes_d2h: u64,
    wrong_evictions: u64,
    frames_free: u32,
    resident_pages: u64,
    timeline_len: usize,
    timeline_hash: u64,
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01B3);
}

/// Run one golden cell: its fingerprint and its fast-path fire counts.
fn run(abbr: &str, preset: PolicyPreset) -> (Fp, FireCounts) {
    let cfg = ExpConfig {
        scale: 0.25,
        ..ExpConfig::default()
    };
    let spec = registry::by_abbr(abbr).expect("known app");
    let lanes = cfg.gpu.lanes();
    let streams: Vec<_> = (0..lanes)
        .map(|l| spec.lane_items(l, lanes, cfg.scale))
        .collect();
    let capacity = capacity_pages(&spec, 0.5, cfg.scale);
    let engine = preset.build(cfg.seed ^ spec.seed);
    let mut timeline = Timeline::default();
    let mut fired = FireCounts::default();
    let r = gpu::simulate_with(
        &cfg.gpu,
        engine,
        &streams,
        capacity,
        spec.pages(cfg.scale),
        (&mut timeline, &mut fired),
    );
    let mut th: u64 = 0xCBF2_9CE4_8422_2325;
    for p in &timeline.points {
        fnv(&mut th, p.cycle);
        fnv(&mut th, p.faults);
        fnv(&mut th, p.pages_migrated);
        fnv(&mut th, p.pages_evicted);
        fnv(&mut th, p.resident_pages);
    }
    let fp = Fp {
        outcome: match r.outcome {
            gpu::Outcome::Completed => "Completed",
            gpu::Outcome::Crashed => "Crashed",
            gpu::Outcome::Degraded => "Degraded",
            gpu::Outcome::Timeout => "Timeout",
        },
        cycles: r.cycles,
        accesses: r.accesses,
        faults: r.engine.faults,
        pages_migrated: r.engine.pages_migrated,
        pages_prefetched: r.engine.pages_prefetched,
        chunk_evictions: r.engine.chunk_evictions,
        pages_evicted: r.engine.pages_evicted,
        total_untouch: r.engine.total_untouch,
        batches: r.driver.batches,
        faults_serviced: r.driver.faults_serviced,
        coalesced_faults: r.driver.coalesced_faults,
        l1_hits: r.translation.l1_hits,
        l1_misses: r.translation.l1_misses,
        l2_hits: r.translation.l2_hits,
        l2_misses: r.translation.l2_misses,
        pwc_hits: r.translation.pwc_hits,
        pwc_misses: r.translation.pwc_misses,
        walks: r.translation.walks,
        faulting_walks: r.translation.faulting_walks,
        bytes_h2d: r.bytes_h2d,
        bytes_d2h: r.bytes_d2h,
        wrong_evictions: r.wrong_evictions,
        frames_free: r.frames_free,
        resident_pages: r.resident_pages,
        timeline_len: timeline.points.len(),
        timeline_hash: th,
    };
    (fp, fired)
}

/// Golden fingerprints captured from the pre-overhaul implementation.
#[rustfmt::skip]
fn golden() -> Vec<(&'static str, PolicyPreset, Fp)> {
    vec![
        ("STN", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 1_644_517, accesses: 2560, faults: 116, pages_migrated: 1856, pages_prefetched: 1740, chunk_evictions: 108, pages_evicted: 1728, total_untouch: 276, batches: 31, faults_serviced: 116, coalesced_faults: 0, l1_hits: 0, l1_misses: 2676, l2_hits: 998, l2_misses: 1678, pwc_hits: 1677, pwc_misses: 3, walks: 1678, faulting_walks: 116, bytes_h2d: 7_602_176, bytes_d2h: 7_077_888, wrong_evictions: 0, frames_free: 0, resident_pages: 128, timeline_len: 31, timeline_hash: 0xEA8C_EBE5_B3D7_3134 }),
        ("STN", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 1_995_500, accesses: 2560, faults: 132, pages_migrated: 1828, pages_prefetched: 1696, chunk_evictions: 110, pages_evicted: 1700, total_untouch: 255, batches: 42, faults_serviced: 132, coalesced_faults: 0, l1_hits: 0, l1_misses: 2692, l2_hits: 1005, l2_misses: 1687, pwc_hits: 1686, pwc_misses: 3, walks: 1687, faulting_walks: 132, bytes_h2d: 7_487_488, bytes_d2h: 6_963_200, wrong_evictions: 102, frames_free: 0, resident_pages: 128, timeline_len: 42, timeline_hash: 0xB582_DDCE_B398_35BE }),
        ("KMN", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 13_467_250, accesses: 14_560, faults: 1690, pages_migrated: 27_040, pages_prefetched: 25_350, chunk_evictions: 1430, pages_evicted: 22_880, total_untouch: 11_440, batches: 75, faults_serviced: 1690, coalesced_faults: 0, l1_hits: 0, l1_misses: 16_250, l2_hits: 0, l2_misses: 16_250, pwc_hits: 16_249, pwc_misses: 19, walks: 16_250, faulting_walks: 1690, bytes_h2d: 110_755_840, bytes_d2h: 93_716_480, wrong_evictions: 0, frames_free: 0, resident_pages: 4160, timeline_len: 75, timeline_hash: 0x3C11_137D_63AB_6163 }),
        ("KMN", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 10_008_513, accesses: 14_560, faults: 1219, pages_migrated: 14_080, pages_prefetched: 12_861, chunk_evictions: 699, pages_evicted: 9920, total_untouch: 4330, batches: 62, faults_serviced: 1219, coalesced_faults: 0, l1_hits: 0, l1_misses: 15_779, l2_hits: 0, l2_misses: 15_779, pwc_hits: 15_778, pwc_misses: 19, walks: 15_779, faulting_walks: 1219, bytes_h2d: 57_671_680, bytes_d2h: 40_632_320, wrong_evictions: 124, frames_free: 0, resident_pages: 4160, timeline_len: 62, timeline_hash: 0x9C4E_6A7B_ED20_1100 }),
        ("SRD", PolicyPreset::Baseline, Fp { outcome: "Completed", cycles: 12_238_983, accesses: 24_576, faults: 1536, pages_migrated: 24_576, pages_prefetched: 23_040, chunk_evictions: 1344, pages_evicted: 21_504, total_untouch: 0, batches: 67, faults_serviced: 1536, coalesced_faults: 0, l1_hits: 0, l1_misses: 26_112, l2_hits: 0, l2_misses: 26_112, pwc_hits: 26_111, pwc_misses: 14, walks: 26_112, faulting_walks: 1536, bytes_h2d: 100_663_296, bytes_d2h: 88_080_384, wrong_evictions: 0, frames_free: 0, resident_pages: 3072, timeline_len: 67, timeline_hash: 0xAFE6_738E_BD71_5C9B }),
        ("SRD", PolicyPreset::Cppe, Fp { outcome: "Completed", cycles: 8_551_454, accesses: 24_576, faults: 1043, pages_migrated: 16_688, pages_prefetched: 15_645, chunk_evictions: 851, pages_evicted: 13_616, total_untouch: 0, batches: 46, faults_serviced: 1043, coalesced_faults: 0, l1_hits: 0, l1_misses: 25_619, l2_hits: 0, l2_misses: 25_619, pwc_hits: 25_618, pwc_misses: 14, walks: 25_619, faulting_walks: 1043, bytes_h2d: 68_354_048, bytes_d2h: 55_771_136, wrong_evictions: 0, frames_free: 0, resident_pages: 3072, timeline_len: 46, timeline_hash: 0xD8AE_A366_77F5_DAA9 }),
    ]
}

#[test]
fn runs_are_bit_identical_to_pre_overhaul_golden() {
    for (abbr, preset, want) in golden() {
        let (got, _) = run(abbr, preset);
        assert_eq!(
            got,
            want,
            "{abbr}/{} diverged from the pre-overhaul fingerprint",
            preset.label()
        );
    }
}

/// Per-kind counts: near lane, far lane, page, driver.
fn kinds([near_lane, far_lane, page, driver]: [u64; 4]) -> KindCounts {
    KindCounts {
        near_lane,
        far_lane,
        page,
        driver,
    }
}

/// The golden cells' `FireCounts`: how often each fast path fired.
/// No fingerprint sees these, so a speed change that keeps every result
/// but moves the event traffic (an extra push, a lost inline wake, a
/// stamp compare more or less) fails here. `fc` takes the fields in
/// declaration order.
#[rustfmt::skip]
fn golden_fire_counts() -> Vec<(&'static str, PolicyPreset, FireCounts)> {
    let fc = |pushes, pops, stamp_compares, direct_wakes, inline_wakes, [probes, bitmap_misses]: [u64; 2], walk_reinserts_skipped| FireCounts {
        queue: QueueCounts { pushes: kinds(pushes), pops: kinds(pops), stamp_compares, direct_wakes },
        inline_wakes,
        l2_probes: ProbeCounts { probes, bitmap_misses },
        walk_reinserts_skipped,
    };
    vec![
        ("STN", PolicyPreset::Baseline, fc([2619, 280, 116, 31], [2619, 280, 116, 31], 62, 561, 85, [2560, 1562], 0)),
        ("STN", PolicyPreset::Cppe, fc([2630, 280, 132, 42], [2630, 280, 132, 42], 84, 569, 90, [2560, 1555], 0)),
        ("KMN", PolicyPreset::Baseline, fc([14_663, 112, 1690, 75], [14_663, 112, 1690, 75], 150, 12_780, 1615, [14_560, 14_560], 14_826)),
        ("KMN", PolicyPreset::Cppe, fc([14_650, 112, 1219, 62], [14_650, 112, 1219, 62], 124, 8757, 1157, [14_560, 14_560], 14_387)),
        ("SRD", PolicyPreset::Baseline, fc([24_673, 112, 1536, 67], [24_673, 112, 1536, 67], 136, 2425, 1467, [24_576, 24_576], 23_925)),
        ("SRD", PolicyPreset::Cppe, fc([24_651, 112, 1043, 46], [24_651, 112, 1043, 46], 93, 1631, 996, [24_576, 24_576], 23_528)),
    ]
}

#[test]
fn fire_counts_match_the_golden_cells() {
    for (abbr, preset, want) in golden_fire_counts() {
        let (_, got) = run(abbr, preset);
        assert_eq!(got, want, "{abbr}/{} fire counts moved", preset.label());
    }
}

/// The calendar queue must pop in exactly the `(cycle, insertion
/// sequence)` order the old `BinaryHeap` produced. Model-based check
/// against `std::collections::BinaryHeap` under a delta distribution
/// matching the simulator's (tight lane cadences, window-straddling
/// reschedules, far driver round-trips) — independent of the unit test
/// inside `sim-core`, which uses its own schedule generator.
#[test]
fn calendar_queue_matches_reference_heap() {
    use sim_core::time::Cycle;
    use sim_core::EventQueue;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let mut q: EventQueue<u64> = EventQueue::new();
    let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut rng = 0x1234_5678_9ABC_DEF0u64;
    let mut draw = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };

    let mut now = 0u64;
    let schedule = |q: &mut EventQueue<u64>,
                    reference: &mut BinaryHeap<Reverse<(u64, u64)>>,
                    now: u64,
                    delta: u64,
                    seq: &mut u64| {
        q.push(Cycle(now + delta), *seq);
        reference.push(Reverse((now + delta, *seq)));
        *seq += 1;
    };

    for _ in 0..300 {
        let r = draw();
        let delta = match r % 8 {
            0..=4 => r % 32,         // lane cadence
            5 => 2040 + r % 16,      // straddles the 2048-cycle ring
            6 => 150 + r % 700,      // mid-range
            _ => 28_000 + r % 7_000, // driver round-trip
        };
        schedule(&mut q, &mut reference, now, delta, &mut seq);
    }
    for _ in 0..20_000 {
        let Some((t, event)) = q.pop() else { break };
        let Reverse((rt, rseq)) = reference.pop().expect("reference agrees on length");
        assert_eq!((t.0, event), (rt, rseq), "pop order diverged from heap");
        now = t.0;
        // Reschedule most pops, sometimes twice — keeps both queues hot.
        let r = draw();
        if r % 16 != 0 {
            let delta = match r % 8 {
                0..=4 => r % 32,
                5 => 2040 + r % 16,
                6 => 150 + r % 700,
                _ => 28_000 + r % 7_000,
            };
            schedule(&mut q, &mut reference, now, delta, &mut seq);
        }
        if r % 8 == 3 {
            schedule(&mut q, &mut reference, now, (r >> 8) % 5000, &mut seq);
        }
    }
    // Drain whatever is still queued (the reschedule rate keeps the
    // queues populated through the churn phase) with no new pushes —
    // the tails must agree element for element too.
    while let Some((t, event)) = q.pop() {
        let Reverse((rt, rseq)) = reference.pop().expect("reference agrees on length");
        assert_eq!((t.0, event), (rt, rseq), "drain order diverged from heap");
    }
    assert!(reference.pop().is_none());
}
