//! Observers watch, never steer.
//!
//! `gpu::simulate_with` runs the event loop with an `Observer` attached.
//! Every combination of the stock observers — batch timeline, invariant
//! checker, fire counters — without and beside the audited tracing
//! observer (`harness::Tracing`) must leave every simulated quantity,
//! and every recorded telemetry stream, bit-identical to a bare run
//! with the same tracing; the timeline an observer records must not
//! depend on tracing either; and the invariant checker must stay clean
//! on the paper cells.

use cppe::presets::PolicyPreset;
use gpu::{FireCounts, Invariants, NoObserver, Observer, RunResult, Timeline};
use harness::telemetry::{RunTelemetry, TraceConfig};
use harness::{capacity_pages, ExpConfig, Tracing};
use workloads::registry;

/// Everything a run computes, as comparable text (telemetry streams
/// included through their `Debug` form).
fn fingerprint((r, t): &(RunResult, Option<RunTelemetry>)) -> String {
    format!("{r:?}\n{t:?}")
}

/// Run `abbr` with `obs` attached, behind the tracing observer when
/// `trace` asks for one.
fn run<O: Observer>(
    abbr: &str,
    preset: PolicyPreset,
    trace: Option<TraceConfig>,
    obs: O,
) -> (RunResult, Option<RunTelemetry>) {
    let scale = 0.125;
    let cfg = ExpConfig::default().gpu;
    let spec = registry::by_abbr(abbr).expect("known app");
    let lanes = cfg.lanes();
    let streams: Vec<_> = (0..lanes)
        .map(|l| spec.lane_items(l, lanes, scale))
        .collect();
    let capacity = capacity_pages(&spec, 0.5, scale);
    let engine = preset.build(ExpConfig::default().seed ^ spec.seed);
    let footprint = spec.pages(scale);
    match trace {
        None => {
            let r = gpu::simulate_with(&cfg, engine, &streams, capacity, footprint, obs);
            (r, None)
        }
        Some(trace) => {
            let mut tracing = Tracing::new(trace, cfg.warps_per_sm);
            let r = gpu::simulate_with(
                &cfg,
                engine,
                &streams,
                capacity,
                footprint,
                (&mut tracing, obs),
            );
            (r, Some(tracing.finish()))
        }
    }
}

#[test]
fn every_observer_combination_is_bit_identical() {
    for (abbr, preset) in [("STN", PolicyPreset::Cppe), ("KMN", PolicyPreset::Baseline)] {
        let mut timelines = Vec::new();
        for trace in [None, Some(TraceConfig::audited())] {
            let bare = fingerprint(&run(abbr, preset, trace, NoObserver));
            let mut timeline = Timeline::default();
            let mut invariants = Invariants::default();
            let mut counts = FireCounts::default();
            let mut all = (
                Timeline::default(),
                (Invariants::default(), FireCounts::default()),
            );
            let runs = [
                run(abbr, preset, trace, &mut timeline),
                run(abbr, preset, trace, &mut invariants),
                run(abbr, preset, trace, &mut counts),
                run(abbr, preset, trace, &mut all),
            ];
            for (i, r) in runs.iter().enumerate() {
                assert_eq!(
                    fingerprint(r),
                    bare,
                    "{abbr}/{} observer set {i} (traced: {}) perturbed the run",
                    preset.label(),
                    trace.is_some()
                );
            }
            let r = &runs[0].0;
            // The composed observers saw exactly what the solo ones did.
            assert_eq!(all.0.points, timeline.points);
            assert_eq!(all.1 .1, counts);
            assert_eq!(
                (all.1 .0.checks, &all.1 .0.violation),
                (invariants.checks, &None)
            );
            assert_eq!(timeline.points.len() as u64, r.driver.batches);
            assert_eq!(invariants.checks, r.driver.batches);
            assert_eq!(counts.queue.pops, counts.queue.pushes);
            // Every hit schedules its lane's next wake.
            let lane_pushes = counts.queue.pushes.near_lane + counts.queue.pushes.far_lane;
            assert!(lane_pushes >= r.accesses);
            assert!(counts.inline_wakes > 0 && counts.inline_wakes <= r.engine.faults);
            timelines.push(timeline.points);
        }
        assert_eq!(
            timelines[0], timelines[1],
            "{abbr}: tracing moved the timeline"
        );
    }
}
