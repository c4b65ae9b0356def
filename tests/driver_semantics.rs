//! Integration tests for the UVM driver's pipelined batch semantics and
//! its interaction with the policy engine.

use cppe::presets::PolicyPreset;
use gmmu::translation::{TranslationConfig, TranslationPath};
use gmmu::types::{VirtPage, PAGES_PER_CHUNK};
use sim_core::time::Cycle;
use uvm::driver::{UvmConfig, UvmDriver};

fn setup(capacity: u32, preset: PolicyPreset) -> (UvmDriver, TranslationPath) {
    let cfg = UvmConfig::table1(capacity, 4096);
    (
        UvmDriver::new(cfg, preset.build(9)),
        TranslationPath::new(&TranslationConfig::default()),
    )
}

#[test]
fn completions_cover_every_distinct_fault() {
    let (mut d, mut xlat) = setup(1024, PolicyPreset::Baseline);
    let faults: Vec<VirtPage> = vec![
        VirtPage(0),
        VirtPage(100),
        VirtPage(200),
        VirtPage(0), // duplicate
    ];
    let r = d.service_batch(&faults, Cycle::ZERO, &mut xlat).unwrap();
    // One completion per input fault (the duplicate resolves to the
    // host-cursor time of its coalescing).
    assert_eq!(r.completions.len(), 4);
    for &(page, t) in &r.completions {
        assert!(faults.contains(&page));
        assert!(t >= Cycle(28_000), "completion before the fault base");
        assert!(t <= r.done_at);
    }
}

#[test]
fn completions_are_pipelined_not_batched() {
    let (mut d, mut xlat) = setup(4096, PolicyPreset::Baseline);
    let faults: Vec<VirtPage> = (0..8).map(|i| VirtPage(i * 16)).collect();
    let r = d.service_batch(&faults, Cycle::ZERO, &mut xlat).unwrap();
    let mut times: Vec<u64> = r.completions.iter().map(|&(_, t)| t.0).collect();
    times.sort_unstable();
    // Later faults complete strictly later (host serialization), and the
    // first completes long before the last.
    assert!(times.windows(2).all(|w| w[0] <= w[1]));
    assert!(
        times[7] > times[0] + 5 * 7_000,
        "per-fault pipelining missing: {times:?}"
    );
    // host_done reflects the host cursor, not the transfers.
    assert_eq!(r.host_done, Cycle(28_000 + 7 * 7_000));
}

#[test]
fn evictions_prefer_unpinned_chunks() {
    // Capacity 3 chunks; chunks A,B resident; a batch faulting chunk C
    // must evict A or B, never C itself (pinned).
    let (mut d, mut xlat) = setup(48, PolicyPreset::Baseline);
    d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
        .unwrap();
    d.service_batch(&[VirtPage(16)], Cycle(200_000), &mut xlat)
        .unwrap();
    d.service_batch(&[VirtPage(32)], Cycle(400_000), &mut xlat)
        .unwrap();
    assert_eq!(d.free_frames(), 0);
    let r = d
        .service_batch(&[VirtPage(48)], Cycle(600_000), &mut xlat)
        .unwrap();
    assert!(!r.crashed);
    for p in &r.evicted {
        assert!(p.chunk() != VirtPage(48).chunk(), "evicted its own plan");
    }
    assert!(xlat.page_table().is_resident(VirtPage(48)));
}

#[test]
fn pinned_fallback_when_everything_is_in_flight() {
    // Capacity 2 chunks but a single batch wants 3 chunks: the pinned
    // set covers the whole chain, so the fallback must still find room
    // (by evicting a pinned-but-already-migrated chunk of this batch).
    let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
    let r = d
        .service_batch(
            &[VirtPage(0), VirtPage(16), VirtPage(32)],
            Cycle::ZERO,
            &mut xlat,
        )
        .unwrap();
    assert!(!r.crashed);
    // All three faulted pages must be resident afterwards... the last
    // migration may have evicted an earlier one, but the *faulted* page
    // of each plan is mapped at its migration time; at most one of the
    // earlier chunks has been re-evicted.
    let resident = [0u64, 16, 32]
        .iter()
        .filter(|&&p| xlat.page_table().is_resident(VirtPage(p)))
        .count();
    assert!(resident >= 2, "only {resident} of 3 faulted pages resident");
    assert_eq!(d.free_frames(), 0);
}

#[test]
fn touch_bits_feed_untouch_accounting() {
    let (mut d, mut xlat) = setup(32, PolicyPreset::Baseline);
    let r = d
        .service_batch(&[VirtPage(5)], Cycle::ZERO, &mut xlat)
        .unwrap();
    assert_eq!(r.migrated.len(), 16);
    // Touch 3 extra pages beyond the faulted one.
    for p in [0u64, 1, 2] {
        xlat.mark_touched(VirtPage(p));
    }
    d.service_batch(&[VirtPage(16)], Cycle(200_000), &mut xlat)
        .unwrap();
    // Fault a third chunk → evicts chunk 0 with 4 touched of 16.
    d.service_batch(&[VirtPage(32)], Cycle(400_000), &mut xlat)
        .unwrap();
    assert_eq!(d.engine().stats.chunk_evictions, 1);
    assert_eq!(d.engine().stats.total_untouch, 12);
}

#[test]
fn free_frames_never_leak_across_heavy_churn() {
    let (mut d, mut xlat) = setup(64, PolicyPreset::Random);
    let mut t = 0u64;
    for round in 0..200u64 {
        let page = VirtPage((round * 37) % 512);
        if xlat.page_table().is_resident(page) {
            continue;
        }
        let r = d.service_batch(&[page], Cycle(t), &mut xlat).unwrap();
        t = r.done_at.0 + 1;
        let resident = xlat.page_table().resident_count() as u32;
        assert_eq!(
            resident + d.free_frames(),
            64,
            "frame accounting broke at round {round}"
        );
    }
}

#[test]
fn chunk_granular_eviction_keeps_whole_chunks_together() {
    let (mut d, mut xlat) = setup(PAGES_PER_CHUNK as u32 * 2, PolicyPreset::Baseline);
    d.service_batch(&[VirtPage(0)], Cycle::ZERO, &mut xlat)
        .unwrap();
    d.service_batch(&[VirtPage(16)], Cycle(200_000), &mut xlat)
        .unwrap();
    let r = d
        .service_batch(&[VirtPage(32)], Cycle(400_000), &mut xlat)
        .unwrap();
    // The evicted pages form exactly one whole chunk.
    assert_eq!(r.evicted.len(), 16);
    let chunk = r.evicted[0].chunk();
    assert!(r.evicted.iter().all(|p| p.chunk() == chunk));
}

/// A fault on a page at or past `FLAT_LIMIT` ends the whole simulation
/// with the driver's typed range error, after the faulting lanes parked
/// on the page. Every lane touches page 5 first: lane 0's fault
/// dispatches at once and maps it, so the other lanes hit it and then
/// fault on the far page while the driver is busy. Their far faults wait,
/// in the pending list and on one waiter run, for the next batch, which
/// the driver refuses. The run's per-page state must not size itself by
/// the far page's number.
#[test]
fn far_page_fault_ends_the_run_with_a_range_error() {
    use gmmu::page_table::FLAT_LIMIT;
    use gpu::{simulate, GpuConfig, Outcome};
    use workloads::{AccessStep, LaneItem};

    let cfg = GpuConfig {
        sms: 2,
        warps_per_sm: 2,
        ..GpuConfig::default()
    };
    let access = |page| {
        LaneItem::Access(AccessStep {
            page: VirtPage(page),
            compute: 10,
        })
    };
    for far in [FLAT_LIMIT, 1 << 40, u64::MAX - 1] {
        let streams = vec![vec![access(5), access(far)]; 3];
        let r = simulate(&cfg, PolicyPreset::Baseline.build(0), &streams, 64, 16);
        assert_eq!(r.outcome, Outcome::Crashed, "page {far}");
        let e = r.error.expect("a range error ends the run");
        let want = format!("fault on page {far} past the {FLAT_LIMIT}-page range");
        assert!(e.contains(&want), "page {far}: {e}");
        // It stops at the refused dispatch, the first batch's host
        // completion, with lanes 1 and 2's hits on page 5 done.
        assert_eq!((r.cycles, r.accesses), (28_621, 2), "page {far}");
    }
}
