//! Pins the whole recorded telemetry of three traced cells.
//!
//! Each cell's `RunTelemetry` — events, epoch series, spans, decisions,
//! latency histograms and every ring's drop count — is rendered with
//! `Debug` and hashed. Any change to what a traced run records, or to
//! the order it records it in, changes a hash. The three cells:
//!
//! * the `audit` experiment's audited CPPE cell with rings small enough
//!   that the event, span and decision rings all overflow;
//! * an audited MVT baseline cell under every injected fault with the
//!   degradation ladder and its recovery rung armed, so queue overflow,
//!   latency spikes, DMA retries and aborts and rung changes in both
//!   directions all appear;
//! * a plain traced (unaudited) baseline cell.
//!
//! A second hash per cell covers what the exports make of the
//! telemetry: the Chrome trace, the timeline CSV, the cell's run record,
//! the page-lifetime CSV and one `cycle name args` line per recorded
//! event. It pins the exported bytes apart from how the events are
//! represented in memory.

use cppe::presets::PolicyPreset;
use gmmu::types::PAGES_PER_CHUNK;
use gpu::RunResult;
use harness::experiments::audit;
use harness::plan::run_cells_with;
use harness::record::{self, RunRecord};
use harness::telemetry::export::{chrome_trace_json, timeline_csv};
use harness::telemetry::{show, PageLedger, RunTelemetry, TraceConfig};
use harness::{Cell, ExpConfig};
use sim_core::fault::InjectionConfig;
use std::fmt::Write as _;
use uvm::driver::ResilienceConfig;
use uvm::observe::DriverEvent;

/// FNV-1a over `text`.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn cells() -> [Cell; 3] {
    let cfg = ExpConfig {
        scale: 0.25,
        ..ExpConfig::quick()
    };
    let rings = audit::audited(&cfg, "STN").traced(TraceConfig {
        ring_capacity: 512,
        span_capacity: 512,
        decision_capacity: 64,
        ..TraceConfig::audited()
    });
    let mut chaos =
        Cell::app("MVT", PolicyPreset::Baseline, 0.5, &cfg).traced(TraceConfig::audited());
    // A fault queue shallower than the 28 lanes, so batches overflow.
    chaos.gpu.injection = InjectionConfig {
        fault_queue_depth: 8,
        ..InjectionConfig::combined(7)
    };
    // One retry per migration: with a 5 % failure rate some migrations
    // fail twice running and abort.
    chaos.gpu.resilience = ResilienceConfig {
        max_transfer_retries: 1,
        ..ResilienceConfig::degraded_with_recovery(64)
    };
    let plain = Cell::app("STN", PolicyPreset::Baseline, 0.5, &cfg).traced(TraceConfig::default());
    [rings, chaos, plain]
}

/// Every export of one traced cell, concatenated.
fn exports(cell: &Cell, r: &RunResult, t: &RunTelemetry) -> String {
    let mut s = chrome_trace_json(t);
    s.push_str(&timeline_csv(&t.series));
    s.push_str(&record::document(&[RunRecord::new(
        "pinned",
        cell,
        r,
        Some(t),
    )]));
    s.push_str(&PageLedger::from_telemetry(t, PAGES_PER_CHUNK).lifetime_csv());
    for e in t.events.iter().map(show) {
        let _ = writeln!(s, "{} {} {}", e.cycle, e.name, e.args);
    }
    s
}

fn count(t: &RunTelemetry, pred: impl Fn(&DriverEvent) -> bool) -> usize {
    t.events.iter().filter(|e| pred(e)).count()
}

#[test]
fn traced_cells_record_exactly_the_pinned_telemetry() {
    let cells = cells();
    let results = run_cells_with(cells.to_vec(), 3, Cell::run);
    let t: Vec<&RunTelemetry> = cells
        .iter()
        .map(|c| results.telemetry(c).expect("the cell is traced"))
        .collect();

    let rings = t[0];
    assert!(rings.dropped_events > 0, "event ring did not overflow");
    assert!(rings.dropped_spans > 0, "span ring did not overflow");
    assert!(
        rings.dropped_decisions > 0,
        "decision ring did not overflow"
    );

    let chaos = t[1];
    assert!(!chaos.lossy(), "the chaos cell must record every event");
    assert!(count(chaos, |e| matches!(e, DriverEvent::QueueOverflow { .. })) > 0);
    assert!(count(chaos, |e| matches!(e, DriverEvent::LatencySpike { .. })) > 0);
    assert!(count(chaos, |e| matches!(e, DriverEvent::TransferFailure { .. })) > 0);
    assert!(count(chaos, |e| matches!(e, DriverEvent::DmaRetry { .. })) > 0);
    assert!(count(chaos, |e| matches!(e, DriverEvent::DmaAbort { .. })) > 0);
    let down = count(
        chaos,
        |e| matches!(e, DriverEvent::RungChanged { from, to, .. } if to > from),
    );
    let up = count(
        chaos,
        |e| matches!(e, DriverEvent::RungChanged { from, to, .. } if to < from),
    );
    assert!(down > 0 && up > 0, "rung changes: {down} down, {up} up");
    assert!(!chaos.decisions.is_empty());

    let plain = t[2];
    assert!(plain.decisions.is_empty(), "the plain cell is not audited");
    assert!(!plain.spans.is_empty());

    let hashes: Vec<u64> = t.iter().map(|t| fnv1a(&format!("{t:?}"))).collect();
    assert_eq!(
        hashes,
        [
            14818499834705136399,
            10918926652437344409,
            1244399778301661652
        ],
        "recorded telemetry changed"
    );

    let exported: Vec<u64> = cells
        .iter()
        .zip(&t)
        .map(|(c, t)| fnv1a(&exports(c, results.get(c), t)))
        .collect();
    assert_eq!(
        exported,
        [
            5957512070957050107,
            9314340046343413998,
            15844349239863261113
        ],
        "exported telemetry changed"
    );
}
