//! Seeded fuzzing of the full simulator: random small workloads built
//! from random phases, run under random policies, lane counts and
//! capacities. The simulator must never panic, always terminate, keep
//! its accounting identities and pass every `gpu::Invariants` check —
//! TLB presence masks against the TLBs, residency against the frame
//! pool and the chunk chain, the data caches against residency, and
//! waiters against pending faults — at every fault batch. Every case
//! also runs through the reference simulator (`gpu::reference`), whose
//! fingerprint must equal the production loop's bit for bit.
//!
//! Each case draws its workload from `sim_core`'s xoshiro RNG; a failure
//! names the case's seed and what it drew. Std-only, so the fuzzing runs
//! in the default test suite. `tests/chaos.rs` runs the same checker
//! under fault injection on paper workloads.

use cppe::presets::PolicyPreset;
use gmmu::types::{VirtPage, PAGES_PER_CHUNK};
use gpu::{GpuConfig, Invariants, Outcome, RunResult};
use sim_core::rng::Xoshiro256ss;
use workloads::{AccessStep, LaneItem, Phase};

/// Every preset without a parameter, plus the three parameterised MHPE
/// variants at one setting each.
const PRESETS: [PolicyPreset; 19] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru10,
    PolicyPreset::ReservedLru20,
    PolicyPreset::DisablePfOnFull,
    PolicyPreset::Cppe,
    PolicyPreset::CppeScheme1,
    PolicyPreset::MhpeOnly,
    PolicyPreset::HpeNaive,
    PolicyPreset::HpeNoPf,
    PolicyPreset::LruNoPf,
    PolicyPreset::LruTree,
    PolicyPreset::LruPattern,
    PolicyPreset::MhpeFixedFd(2),
    PolicyPreset::MhpeT1(8),
    PolicyPreset::MhpeT3(4),
    PolicyPreset::MhpeNoSwitch,
    PolicyPreset::Clock,
    PolicyPreset::Srrip,
];

/// `lo + [0, n)`.
fn draw(rng: &mut Xoshiro256ss, lo: u64, n: u64) -> u64 {
    lo + rng.gen_range(n)
}

/// A random phase over `[0, len)` with `len < max_pages`.
fn draw_phase(rng: &mut Xoshiro256ss, max_pages: u64) -> Phase {
    let len = draw(rng, 1, max_pages - 1);
    let compute = draw(rng, 50, 450) as u32;
    match rng.gen_range(6) {
        0 => Phase::Seq {
            start: 0,
            len,
            passes: draw(rng, 1, 3) as u32,
            compute,
        },
        1 => Phase::Strided {
            start: 0,
            len,
            stride: draw(rng, 2, 4),
            passes: draw(rng, 1, 2) as u32,
            compute,
        },
        2 => Phase::Random {
            start: 0,
            len,
            count: draw(rng, 1, 199),
            compute,
        },
        3 => Phase::Zipf {
            start: 0,
            len,
            count: draw(rng, 1, 199),
            alpha_milli: draw(rng, 1000, 1000) as u32,
            compute,
        },
        4 => Phase::MovingWindow {
            start: 0,
            len,
            window: draw(rng, 1, 63),
            step: draw(rng, 1, 63),
            reps: draw(rng, 1, 2) as u32,
            stride: draw(rng, 1, 3),
            compute,
        },
        _ => {
            let cols = draw(rng, 1, 15);
            Phase::Transposed {
                start: 0,
                rows: (len / cols).max(1),
                cols,
                passes: draw(rng, 1, 2) as u32,
                compute,
            }
        }
    }
}

/// Expand `phases` into `lanes` lane-item streams, a barrier after each
/// phase segment (phases are data here, so they are expanded directly
/// rather than through a `WorkloadSpec`).
fn streams_from_phases(phases: &[Phase], lanes: usize) -> Vec<Vec<LaneItem>> {
    (0..lanes)
        .map(|lane| {
            let mut items = Vec::new();
            for (i, phase) in phases.iter().enumerate() {
                let compute = phase.compute();
                for seg in phase.lane_segments(lane, lanes, 77 + i as u64) {
                    items.extend(seg.into_iter().map(|p| {
                        LaneItem::Access(AccessStep {
                            page: VirtPage(p),
                            compute,
                        })
                    }));
                    items.push(LaneItem::Barrier);
                }
            }
            items
        })
        .collect()
}

/// One fuzz case: what it drew, for the failure message.
#[derive(Debug)]
struct Case {
    phases: Vec<Phase>,
    preset: PolicyPreset,
    lanes: usize,
    capacity_chunks: u64,
}

impl Case {
    fn draw(seed: u64, max_pages: u64, max_phases: u64, max_lanes: u64) -> Self {
        let mut rng = Xoshiro256ss::new(seed);
        Case {
            phases: (0..draw(&mut rng, 1, max_phases))
                .map(|_| draw_phase(&mut rng, max_pages))
                .collect(),
            preset: PRESETS[rng.gen_range(PRESETS.len() as u64) as usize],
            lanes: draw(&mut rng, 1, max_lanes) as usize,
            capacity_chunks: draw(&mut rng, 2, 22),
        }
    }

    /// Simulate with the invariant checker attached, and through the
    /// reference loop; panics naming `seed` on a violation or on any
    /// difference between the two runs.
    fn run(&self, seed: u64, streams: &[Vec<LaneItem>], footprint: u64) -> RunResult {
        let cfg = GpuConfig {
            sms: self.lanes,
            warps_per_sm: 1,
            ..GpuConfig::default()
        };
        let mut invariants = Invariants::default();
        let r = gpu::reference::check(
            &cfg,
            &|| self.preset.build(5),
            streams,
            (self.capacity_chunks * PAGES_PER_CHUNK) as u32,
            footprint,
            &mut invariants,
        )
        .unwrap_or_else(|d| panic!("seed {seed} ({self:?}): {d}"));
        if let Some(v) = &invariants.violation {
            panic!("seed {seed} ({self:?}): invariant violated: {v}");
        }
        assert!(
            invariants.checks > 0 || r.engine.faults == 0,
            "seed {seed}: faults but no batch checked"
        );
        r
    }
}

#[test]
fn simulator_never_panics_and_accounts_correctly() {
    let (mut checked, mut evicting) = (0, 0);
    for seed in 0..128 {
        let case = Case::draw(seed, 512, 3, 5);
        let streams = streams_from_phases(&case.phases, case.lanes);
        let accesses = streams
            .iter()
            .flatten()
            .filter(|i| matches!(i, LaneItem::Access(_)))
            .count() as u64;
        if accesses == 0 {
            continue;
        }
        let r = case.run(seed, &streams, 512);
        let at = format!("seed {seed} ({case:?})");
        // Termination: either completed or legitimately crashed — never
        // a timeout on these tiny workloads.
        assert_ne!(r.outcome, Outcome::Timeout, "{at}");
        // Accounting identities.
        assert!(r.engine.pages_evicted <= r.engine.pages_migrated, "{at}");
        assert!(r.engine.total_untouch <= r.engine.pages_evicted, "{at}");
        assert_eq!(r.bytes_h2d, r.engine.pages_migrated * 4096, "{at}");
        assert_eq!(r.bytes_d2h, r.engine.pages_evicted * 4096, "{at}");
        assert!(r.driver.faults_serviced <= r.engine.faults, "{at}");
        if r.outcome == Outcome::Completed {
            assert_eq!(r.accesses, accesses, "{at}");
        }
        checked += 1;
        evicting += u32::from(r.engine.pages_evicted > 0);
    }
    assert!(checked >= 100, "only {checked} cases had accesses");
    assert!(
        evicting >= checked / 2,
        "only {evicting} of {checked} cases evicted"
    );
}

#[test]
fn simulator_is_deterministic_under_fuzzing() {
    for seed in 1000..1024 {
        let mut case = Case::draw(seed, 256, 2, 1);
        case.preset = PolicyPreset::Cppe;
        case.lanes = 3;
        let streams = streams_from_phases(&case.phases, case.lanes);
        let a = case.run(seed, &streams, 256);
        let b = case.run(seed, &streams, 256);
        let at = format!("seed {seed} ({case:?})");
        assert_eq!(a.cycles, b.cycles, "{at}");
        assert_eq!(a.engine.pages_migrated, b.engine.pages_migrated, "{at}");
        assert_eq!(a.wrong_evictions, b.wrong_evictions, "{at}");
    }
}
