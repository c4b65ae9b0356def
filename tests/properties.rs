//! Seeded property tests on the core data structures and the workload
//! generators — cross-crate invariants that unit tests cannot pin down
//! exhaustively. The chunk-chain properties live in
//! `tests/chain_model.rs`.
//!
//! Each property draws its cases from `sim_core`'s xoshiro RNG, one
//! seed per case, and a failure names the seed and the step, which is
//! the shortest failing prefix of that case's stream. Std-only, so the
//! properties run in the default test suite.

use cppe::evicted_buffer::EvictedBuffer;
use cppe::prefetch::pattern::{DeletionScheme, PatternBuffer, ProbeResult};
use gmmu::tlb::{Tlb, TlbConfig};
use gmmu::types::{ChunkId, VirtPage};
use sim_core::rng::Xoshiro256ss;
use sim_core::{FxHashSet, TouchVec};
use workloads::registry;

/// Cases per property.
const SEEDS: u64 = 256;

/// A TLB never exceeds capacity, holds a page from its insert until the
/// page is evicted or invalidated, and names as a capacity victim only a
/// page it held, which it then no longer holds.
#[test]
fn tlb_capacity_and_membership() {
    for seed in 0..SEEDS {
        let mut rng = Xoshiro256ss::new(seed);
        let mut tlb = Tlb::new(TlbConfig {
            entries: 16,
            associativity: 4,
            hit_latency: 1,
        });
        let mut held = FxHashSet::default();
        let pages: Vec<u64> = (0..1 + rng.gen_range(299))
            .map(|_| rng.gen_range(1024))
            .collect();
        for (step, &p) in pages.iter().enumerate() {
            let at = format!("seed {seed}, step {step} (insert {p})");
            if let Some(victim) = tlb.insert(VirtPage(p)) {
                assert!(held.remove(&victim.0), "{at}: victim {victim:?} not held");
                assert!(!tlb.probe(victim), "{at}: victim {victim:?} still held");
            }
            held.insert(p);
            assert!(tlb.occupancy() <= 16, "{at}: over capacity");
            assert_eq!(tlb.occupancy(), held.len(), "{at}: occupancy");
            assert!(tlb.probe(VirtPage(p)), "{at}: inserted page missing");
        }
        for (step, &p) in pages.iter().enumerate() {
            assert_eq!(
                tlb.invalidate(VirtPage(p)),
                held.remove(&p),
                "seed {seed}, step {step} (invalidate {p})"
            );
            assert!(!tlb.probe(VirtPage(p)), "seed {seed}, step {step}");
        }
        assert_eq!(tlb.occupancy(), 0, "seed {seed}");
    }
}

/// The evicted-chunk buffer never grows beyond its capacity, and `take`
/// agrees with membership.
#[test]
fn evicted_buffer_bounded() {
    for seed in 0..SEEDS {
        let mut rng = Xoshiro256ss::new(seed);
        let mut buf = EvictedBuffer::new(8);
        for step in 0..1 + rng.gen_range(199) {
            let (c, take) = (ChunkId(rng.gen_range(32)), rng.gen_bool(0.5));
            let at = format!("seed {seed}, step {step}");
            if take {
                let had = buf.contains(c);
                assert_eq!(buf.take(c), had, "{at}: take({c:?})");
                assert!(!buf.contains(c), "{at}: {c:?} survived take");
            } else {
                buf.push(c);
                assert!(buf.contains(c), "{at}: pushed {c:?} missing");
            }
            assert!(buf.len() <= 8, "{at}: {} entries", buf.len());
        }
    }
}

/// Pattern buffer: a recorded sparse pattern always matches faults on
/// its touched pages, and a Scheme-1 mismatch always deletes.
#[test]
fn pattern_buffer_probe_semantics() {
    let mut rng = Xoshiro256ss::new(0);
    // The empty and the fullest pattern, then random ones.
    let cases = [0, u16::MAX - 1]
        .into_iter()
        .chain((0..4 * SEEDS).map(|_| rng.gen_range(u64::from(u16::MAX)) as u16));
    for (case, bits) in cases.enumerate() {
        for page_idx in 0..16 {
            let at = format!("case {case} (bits {bits:#06x}, page {page_idx})");
            let touch = TouchVec::from_bits(bits);
            let mut buf = PatternBuffer::new();
            buf.record(ChunkId(3), touch);
            let recorded = touch.untouch_level() >= 8;
            assert_eq!(buf.contains(ChunkId(3)), recorded, "{at}");
            match buf.probe(ChunkId(3).page(page_idx), DeletionScheme::Scheme1) {
                ProbeResult::Miss => assert!(!recorded, "{at}: recorded but missed"),
                ProbeResult::Match(p) => {
                    assert!(recorded, "{at}: matched an unrecorded chunk");
                    assert!(p.get(page_idx), "{at}: matched an untouched page");
                    assert!(buf.contains(ChunkId(3)), "{at}: match deleted");
                }
                ProbeResult::Mismatch { deleted } => {
                    assert!(recorded, "{at}: mismatched an unrecorded chunk");
                    assert!(!touch.get(page_idx), "{at}: touched page mismatched");
                    assert!(deleted, "{at}: Scheme-1 mismatch kept the pattern");
                    assert!(!buf.contains(ChunkId(3)), "{at}: pattern survived");
                }
            }
        }
    }
}

/// Every workload's lane streams stay inside the footprint and cover a
/// substantial part of it, with the same barrier count on every lane,
/// at random lane counts and both reduced scales.
#[test]
fn workload_streams_in_bounds() {
    let specs = registry::all();
    for seed in 0..2 * specs.len() as u64 {
        let mut rng = Xoshiro256ss::new(seed);
        let spec = &specs[seed as usize % specs.len()];
        let lanes = 1 + rng.gen_range(39) as usize;
        let scale = if rng.gen_bool(0.5) { 0.25 } else { 0.5 };
        let at = format!("seed {seed} ({}, {lanes} lanes, scale {scale})", spec.abbr);
        let pages = spec.pages(scale);
        let mut seen = FxHashSet::default();
        let mut barriers_per_lane = Vec::new();
        for lane in 0..lanes {
            let mut barriers = 0usize;
            for item in spec.lane_items(lane, lanes, scale) {
                match item {
                    workloads::LaneItem::Access(a) => {
                        assert!(a.page.0 < pages, "{at}: page {} outside {pages}", a.page.0);
                        seen.insert(a.page.0);
                    }
                    workloads::LaneItem::Barrier => barriers += 1,
                }
            }
            barriers_per_lane.push(barriers);
        }
        // Uniform barrier structure (no deadlock).
        assert!(
            barriers_per_lane.windows(2).all(|w| w[0] == w[1]),
            "{at}: barriers per lane {barriers_per_lane:?}"
        );
        assert!(
            seen.len() as u64 >= pages / 4,
            "{at}: only {} of {pages} pages touched",
            seen.len()
        );
    }
}
