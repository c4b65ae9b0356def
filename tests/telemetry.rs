//! Telemetry integration suite: the observability layer must be free
//! when off, truthful when on.
//!
//! * Bit-identity: attaching the tracing observer changes nothing about
//!   the run itself — cycles, stats and transfer volumes match exactly.
//! * Counter parity: per-epoch deltas in the sampled series sum back to
//!   the end-of-run totals the simulator reports.
//! * Golden schema: the timeline CSV header, the run record and the
//!   Chrome trace shape are frozen; exporters must not drift silently.
//! * Bounded ring: overflowing the event ring drops the oldest records
//!   and keeps the newest, without panicking.

use cppe::presets::PolicyPreset;
use gpu::RunResult;
use harness::record::{self, RunRecord};
use harness::telemetry::{csv, json, RunTelemetry, TraceConfig};
use harness::{Cell, ExpConfig};
use workloads::registry;

/// The frozen timeline CSV header: `epoch,cycle` then every metric in
/// registration order. Changing the schema is allowed — but it must be
/// deliberate, so update this constant (and EXPERIMENTS.md) with it.
const GOLDEN_HEADER: &str = "epoch,cycle,\
cppe.faults,cppe.pages_migrated,cppe.pages_prefetched,cppe.chunk_evictions,\
cppe.pages_evicted,cppe.total_untouch,cppe.wrong_evictions,\
driver.batches,driver.faults_serviced,driver.coalesced_faults,\
driver.retries,driver.retry_backoff_cycles,driver.injected_transfer_faults,\
driver.migrations_aborted,driver.latency_spike_batches,driver.batch_splits,\
driver.deferred_faults,driver.throttle_sheds,driver.policy_fallbacks,\
driver.rung_recoveries,\
inject.transfer_failures,inject.latency_spikes,inject.degraded_queries,\
pcie.bytes_h2d,pcie.bytes_d2h,\
mem.resident_pages,mem.free_frames,cppe.chain_len,cppe.prefetch_throttle,\
driver.rung,\
telemetry.ring.dropped,telemetry.spans.dropped";

/// STN under CPPE at 50 %, quarter scale, traced with `trace`.
fn cell_with(trace: Option<TraceConfig>) -> Cell {
    let cfg = ExpConfig {
        scale: 0.25,
        trace,
        ..ExpConfig::default()
    };
    let w = registry::by_abbr("STN").expect("known app");
    Cell::new(&w, PolicyPreset::Cppe, 0.5, &cfg)
}

fn run_with(trace: Option<TraceConfig>) -> (RunResult, Option<RunTelemetry>) {
    cell_with(trace).run()
}

/// A traced run and its telemetry.
fn traced(trace: TraceConfig) -> (RunResult, RunTelemetry) {
    let (r, t) = run_with(Some(trace));
    (r, t.expect("traced"))
}

#[test]
fn tracing_is_bit_identical_to_untraced_run() {
    let (off, none) = run_with(None);
    let (on, some) = run_with(Some(TraceConfig::default()));
    assert!(none.is_none());
    assert!(some.is_some());
    assert_eq!(off.outcome, on.outcome);
    assert_eq!(off.cycles, on.cycles, "tracing must not cost cycles");
    assert_eq!(off.accesses, on.accesses);
    assert_eq!(off.engine.faults, on.engine.faults);
    assert_eq!(off.engine.pages_migrated, on.engine.pages_migrated);
    assert_eq!(off.engine.pages_evicted, on.engine.pages_evicted);
    assert_eq!(off.driver.batches, on.driver.batches);
    assert_eq!(off.bytes_h2d, on.bytes_h2d);
    assert_eq!(off.bytes_d2h, on.bytes_d2h);
}

#[test]
fn epoch_deltas_reconcile_with_run_totals() {
    let (r, t) = traced(TraceConfig::default());
    t.series.parity().expect("delta sums match final totals");
    // One epoch per serviced fault batch.
    assert_eq!(t.series.rows.len() as u64, r.driver.batches);
    // The sampled final totals are the run's own numbers.
    assert_eq!(t.series.final_total("cppe.faults"), r.engine.faults);
    assert_eq!(
        t.series.final_total("cppe.pages_evicted"),
        r.engine.pages_evicted
    );
    assert_eq!(t.series.final_total("driver.batches"), r.driver.batches);
    assert_eq!(t.series.final_total("pcie.bytes_h2d"), r.bytes_h2d);
    assert_eq!(t.series.final_total("pcie.bytes_d2h"), r.bytes_d2h);
    // Residency gauge closes against the allocator.
    assert_eq!(
        t.series.final_total("mem.resident_pages") + t.series.final_total("mem.free_frames"),
        u64::from(r.frames_capacity)
    );
}

#[test]
fn golden_csv_and_chrome_trace_schema() {
    let cell = cell_with(Some(TraceConfig::default()));
    let (r, t) = cell.run();
    let t = t.as_ref().unwrap();

    let timeline = harness::telemetry::export::timeline_csv(&t.series);
    let header = csv::validate(&timeline).expect("well-formed CSV");
    assert_eq!(header.join(","), GOLDEN_HEADER, "timeline schema drifted");
    assert_eq!(
        timeline.lines().count() as u64,
        1 + r.driver.batches,
        "one row per fault batch"
    );

    let doc = record::document(&[RunRecord::new("STN", &cell, &r, Some(t))]);
    record::validate(&doc).expect("valid run record");
    assert!(doc.starts_with("{\"schema\":\"cppe-run-v1\",\"runs\":[{\"name\":\"STN\""));
    assert!(doc.contains("\"outcome\":\"completed\""));
    assert!(doc.contains("\"metrics\":{\"cppe.faults\":{\"kind\":\"counter\""));

    let trace = harness::telemetry::export::chrome_trace_json(t);
    json::validate(&trace).expect("well-formed Chrome trace JSON");
    assert!(trace.starts_with("{\"traceEvents\":["));
    assert!(trace.contains("\"ph\":\"M\""), "track metadata missing");
    assert!(trace.contains("\"ph\":\"X\""), "batch/DMA spans missing");
    assert!(
        trace.contains("\"name\":\"batch\""),
        "batch lifecycle missing"
    );
}

#[test]
fn event_ring_overflow_keeps_newest_without_panicking() {
    let full_events = traced(TraceConfig::default()).1.events;
    assert!(
        full_events.len() > 8,
        "run too small to exercise the ring bound"
    );

    let (_, t) = traced(TraceConfig {
        ring_capacity: 8,
        ..TraceConfig::default()
    });
    assert_eq!(t.events.len(), 8);
    assert_eq!(t.dropped_events as usize, full_events.len() - 8);
    // Drop-oldest: what survives is exactly the tail of the full run.
    assert_eq!(t.events, full_events[full_events.len() - 8..]);
}
