//! Property-based tests (proptest) on the core data structures and the
//! workload generators — cross-crate invariants that unit tests cannot
//! pin down exhaustively. The chunk-chain properties run std-only in
//! `tests/chain_model.rs`.
//!
//! Gated behind the non-default `ext-tests` feature: proptest must come
//! from crates.io, and the default test suite has to pass with no
//! registry access. Enabling the feature also requires restoring the
//! proptest dev-dependency (see the root Cargo.toml).
#![cfg(feature = "ext-tests")]

use cppe::evicted_buffer::EvictedBuffer;
use cppe::prefetch::pattern::{DeletionScheme, PatternBuffer, ProbeResult};
use gmmu::tlb::{Tlb, TlbConfig};
use gmmu::types::{ChunkId, Frame, VirtPage};
use proptest::prelude::*;
use sim_core::{FxHashSet, TouchVec};
use workloads::registry;

proptest! {
    /// A TLB never exceeds capacity, and a probe after insert hits until
    /// the entry is invalidated.
    #[test]
    fn tlb_capacity_and_membership(pages in proptest::collection::vec(0u64..1024, 1..300)) {
        let mut tlb = Tlb::new(TlbConfig { entries: 16, associativity: 4, hit_latency: 1 });
        for &p in &pages {
            tlb.insert(VirtPage(p), Frame(p as u32));
            prop_assert!(tlb.occupancy() <= 16);
            prop_assert_eq!(tlb.probe(VirtPage(p)), Some(Frame(p as u32)));
        }
        for &p in &pages {
            tlb.invalidate(VirtPage(p));
            prop_assert!(tlb.probe(VirtPage(p)).is_none());
        }
        prop_assert_eq!(tlb.occupancy(), 0);
    }

    /// The evicted-chunk buffer never grows beyond its capacity and
    /// take() is linear-time consistent with membership.
    #[test]
    fn evicted_buffer_bounded(ops in proptest::collection::vec((0u64..32, any::<bool>()), 1..200)) {
        let mut buf = EvictedBuffer::new(8);
        for (c, take) in ops {
            if take {
                let had = buf.contains(ChunkId(c));
                prop_assert_eq!(buf.take(ChunkId(c)), had);
                prop_assert!(!buf.contains(ChunkId(c)));
            } else {
                buf.push(ChunkId(c));
                prop_assert!(buf.contains(ChunkId(c)));
            }
            prop_assert!(buf.len() <= 8);
        }
    }

    /// Pattern buffer: a recorded sparse pattern always matches faults
    /// on its touched pages, and a Scheme-1 mismatch always deletes.
    #[test]
    fn pattern_buffer_probe_semantics(bits in 0u16..u16::MAX, page_idx in 0usize..16) {
        let touch = TouchVec::from_bits(bits);
        let mut buf = PatternBuffer::new();
        buf.record(ChunkId(3), touch);
        let recorded = touch.untouch_level() >= 8;
        prop_assert_eq!(buf.contains(ChunkId(3)), recorded);
        let result = buf.probe(ChunkId(3).page(page_idx), DeletionScheme::Scheme1);
        match result {
            ProbeResult::Miss => prop_assert!(!recorded),
            ProbeResult::Match(p) => {
                prop_assert!(recorded);
                prop_assert!(p.get(page_idx));
                prop_assert!(buf.contains(ChunkId(3)));
            }
            ProbeResult::Mismatch { deleted } => {
                prop_assert!(recorded);
                prop_assert!(!touch.get(page_idx));
                prop_assert!(deleted);
                prop_assert!(!buf.contains(ChunkId(3)));
            }
        }
    }

    /// Every workload's lane streams stay inside the footprint and
    /// cover it (union of pages touched across lanes is non-trivial),
    /// at any lane count and scale.
    #[test]
    fn workload_streams_in_bounds(
        idx in 0usize..23,
        lanes in 1usize..40,
        scale in prop_oneof![Just(0.25), Just(0.5)],
    ) {
        let spec = &registry::all()[idx];
        let pages = spec.pages(scale);
        let mut seen = FxHashSet::default();
        let mut barriers_per_lane = Vec::new();
        for lane in 0..lanes {
            let mut barriers = 0usize;
            for item in spec.lane_items(lane, lanes, scale) {
                match item {
                    workloads::LaneItem::Access(a) => {
                        prop_assert!(a.page.0 < pages,
                            "{}: page {} outside footprint {}", spec.abbr, a.page.0, pages);
                        seen.insert(a.page.0);
                    }
                    workloads::LaneItem::Barrier => barriers += 1,
                }
            }
            barriers_per_lane.push(barriers);
        }
        // Uniform barrier structure (no deadlock).
        prop_assert!(barriers_per_lane.windows(2).all(|w| w[0] == w[1]));
        // The generators cover a substantial part of the footprint.
        prop_assert!(seen.len() as u64 >= pages / 4,
            "{}: only {} of {} pages touched", spec.abbr, seen.len(), pages);
    }
}
