//! Exporters: timeline CSV and Chrome trace-event JSON.
//!
//! Two views of one run's telemetry (the end-of-run JSON record is
//! `harness::record`):
//!
//! * [`timeline_csv`] — one wide row per epoch (fault batch) with every
//!   sampled metric: counters as per-epoch deltas, gauges as levels.
//! * [`chrome_trace_json`] — the event ring in Chrome trace-event
//!   format; load it at `ui.perfetto.dev` or `chrome://tracing` to see
//!   fault batches, DMA spans, evictions and ladder transitions on a
//!   shared timeline.

use crate::telemetry::csv::CsvWriter;
use crate::telemetry::event::show;
use crate::telemetry::json;
use crate::telemetry::metrics::EpochSeries;
use crate::telemetry::span::{SpanRecord, SpanStage};
use crate::telemetry::tracer::RunTelemetry;
use sim_core::time::GPU_CLOCK_GHZ;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which exports a harness run should write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceFormat {
    /// Per-epoch timeline CSV (the default for `--trace`).
    #[default]
    Csv,
    /// JSON run record.
    Json,
    /// Chrome trace-event JSON.
    Chrome,
    /// All of the above.
    All,
}

impl TraceFormat {
    /// Parse a `--trace-format` argument.
    ///
    /// # Errors
    /// Returns the unrecognised value.
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "csv" => Ok(TraceFormat::Csv),
            "json" => Ok(TraceFormat::Json),
            "chrome" => Ok(TraceFormat::Chrome),
            "all" => Ok(TraceFormat::All),
            other => Err(format!(
                "unknown trace format {other:?} (expected csv|json|chrome|all)"
            )),
        }
    }

    /// Should the timeline CSV be written?
    #[must_use]
    pub fn wants_csv(self) -> bool {
        matches!(self, TraceFormat::Csv | TraceFormat::All)
    }

    /// Should the JSON run record be written?
    #[must_use]
    pub fn wants_json(self) -> bool {
        matches!(self, TraceFormat::Json | TraceFormat::All)
    }

    /// Should the Chrome trace be written?
    #[must_use]
    pub fn wants_chrome(self) -> bool {
        matches!(self, TraceFormat::Chrome | TraceFormat::All)
    }
}

/// Render the epoch series as a wide CSV: `epoch,cycle` then every
/// metric in schema order (counters as per-epoch deltas,
/// gauges as sampled levels).
#[must_use]
pub fn timeline_csv(series: &EpochSeries) -> String {
    let mut header = vec!["epoch".to_string(), "cycle".to_string()];
    header.extend(series.schema.iter().map(|(n, _)| n.clone()));
    let mut w = CsvWriter::new(&header);
    for (i, row) in series.rows.iter().enumerate() {
        let mut cells = vec![row.epoch.to_string(), row.cycle.to_string()];
        cells.extend(series.epoch_values(i).iter().map(u64::to_string));
        w.row(&cells);
    }
    w.finish()
}

/// Cycle timestamp in Chrome-trace microseconds (the GPU clock defines
/// the conversion).
fn ts_us(cycle: u64) -> String {
    // Keep nanosecond precision: 1 cycle @ 1.4 GHz is ~0.714 ns.
    #[allow(clippy::cast_precision_loss)]
    let us = cycle as f64 / (GPU_CLOCK_GHZ * 1000.0);
    format!("{us:.3}")
}

/// Render the event ring and span trees as Chrome trace-event JSON (the
/// `{"traceEvents":[...]}` wrapper format Perfetto loads directly).
///
/// Batch service and migration DMA *events* become duration (`ph:"X"`)
/// spans on their tracks and the remaining events thread-scoped instants
/// (`ph:"i"`), exactly as before. Recorded *spans* add the flame view:
/// each lane's fault trees render as nested `ph:"B"`/`ph:"E"` pairs on a
/// per-lane track (tid `1000 + lane`), and driver-side spans (batch /
/// host service / retry backoff / PCIe and eviction DMAs) render as `X`
/// slices on per-stage tracks — driver batches overlap in time (the host
/// frees up before the last transfer lands), which `B`/`E` nesting
/// cannot express.
#[must_use]
pub fn chrome_trace_json(telemetry: &RunTelemetry) -> String {
    // Stable tid per event track, in lifecycle order; driver-side span
    // stages follow, lane span tracks start at LANE_TID_BASE.
    const TRACKS: [&str; 6] = ["driver", "fault", "dma", "evict", "ladder", "inject"];
    const SPAN_TRACKS: [(SpanStage, usize); 5] = [
        (SpanStage::DriverBatch, 6),
        (SpanStage::HostService, 7),
        (SpanStage::RetryBackoff, 8),
        (SpanStage::PcieTransfer, 9),
        (SpanStage::EvictionDma, 10),
    ];
    const LANE_TID_BASE: u64 = 1000;
    let tid = |track: &str| TRACKS.iter().position(|t| *t == track).unwrap_or(0);

    let mut s = String::from("{\"traceEvents\":[");
    let mut first = true;
    let mut push = |s: &mut String, item: &str| {
        if !std::mem::take(&mut first) {
            s.push(',');
        }
        s.push_str(item);
    };

    for (i, track) in TRACKS.iter().enumerate() {
        push(
            &mut s,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{i},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":{}}}}}",
                json::string(track)
            ),
        );
    }

    for event in &telemetry.events {
        let e = show(event);
        let common = format!(
            "\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{}",
            e.name,
            e.track,
            tid(e.track),
            ts_us(e.cycle),
            e.args
        );
        let item = match e.end {
            Some(end) => {
                let dur = ts_us(end.saturating_sub(e.cycle));
                format!("{{\"ph\":\"X\",{common},\"dur\":{dur}}}")
            }
            None => format!("{{\"ph\":\"i\",\"s\":\"t\",{common}}}"),
        };
        push(&mut s, &item);
    }

    // Driver-side spans: X slices on per-stage tracks.
    for &(stage, stage_tid) in &SPAN_TRACKS {
        if telemetry.spans.iter().any(|sp| sp.stage == stage) {
            push(
                &mut s,
                &format!(
                    "{{\"ph\":\"M\",\"pid\":1,\"tid\":{stage_tid},\"name\":\"thread_name\",\
                     \"args\":{{\"name\":{}}}}}",
                    json::string(&format!("span.{}", stage.name()))
                ),
            );
        }
    }
    for sp in &telemetry.spans {
        let Some(&(_, stage_tid)) = SPAN_TRACKS.iter().find(|&&(st, _)| st == sp.stage) else {
            continue;
        };
        push(
            &mut s,
            &format!(
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"span\",\"pid\":1,\"tid\":{stage_tid},\
                 \"ts\":{},\"dur\":{},\"args\":{{\"page\":{}}}}}",
                sp.stage.name(),
                ts_us(sp.start),
                ts_us(sp.duration()),
                sp.page
            ),
        );
    }

    // Lane-side fault trees: nested B/E pairs, one track per lane. The
    // tree recursion guarantees every B gets its E and that children
    // emit inside their parent, regardless of timestamp ties.
    let mut by_lane: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
    for sp in &telemetry.spans {
        if sp.stage.lane_scoped() {
            by_lane.entry(sp.lane).or_default().push(sp);
        }
    }
    for (lane, spans) in by_lane {
        let lane_tid = LANE_TID_BASE + u64::from(lane);
        push(
            &mut s,
            &format!(
                "{{\"ph\":\"M\",\"pid\":1,\"tid\":{lane_tid},\"name\":\"thread_name\",\
                 \"args\":{{\"name\":\"lane{lane}\"}}}}",
            ),
        );
        let ids: std::collections::BTreeSet<u64> = spans.iter().map(|sp| sp.id).collect();
        let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
        let mut roots: Vec<&SpanRecord> = Vec::new();
        for sp in &spans {
            if sp.parent != 0 && ids.contains(&sp.parent) {
                children.entry(sp.parent).or_default().push(sp);
            } else {
                roots.push(sp);
            }
        }
        for list in children.values_mut() {
            list.sort_by_key(|sp| (sp.start, sp.id));
        }
        roots.sort_by_key(|sp| (sp.start, sp.id));
        // Lane trees are two levels deep (fault root → stage children),
        // so an explicit stack is overkill — recurse.
        fn emit_tree(
            s: &mut String,
            push: &mut impl FnMut(&mut String, &str),
            children: &BTreeMap<u64, Vec<&SpanRecord>>,
            sp: &SpanRecord,
            lane_tid: u64,
        ) {
            push(
                s,
                &format!(
                    "{{\"ph\":\"B\",\"name\":\"{}\",\"cat\":\"span\",\"pid\":1,\
                     \"tid\":{lane_tid},\"ts\":{},\"args\":{{\"page\":{},\"sm\":{}}}}}",
                    sp.stage.name(),
                    ts_us(sp.start),
                    sp.page,
                    sp.sm
                ),
            );
            for child in children.get(&sp.id).into_iter().flatten() {
                emit_tree(s, push, children, child, lane_tid);
            }
            push(
                s,
                &format!(
                    "{{\"ph\":\"E\",\"name\":\"{}\",\"cat\":\"span\",\"pid\":1,\
                     \"tid\":{lane_tid},\"ts\":{}}}",
                    sp.stage.name(),
                    ts_us(sp.end),
                ),
            );
        }
        for root in roots {
            emit_tree(&mut s, &mut push, &children, root, lane_tid);
        }
    }

    s.push_str("]}");
    s
}

/// Count `ph:"B"` and `ph:"E"` events in a Chrome trace and check they
/// balance. Returns the pair count.
///
/// # Errors
/// Returns a description of the imbalance.
pub fn span_balance(trace_json: &str) -> Result<usize, String> {
    let begins = trace_json.matches("\"ph\":\"B\"").count();
    let ends = trace_json.matches("\"ph\":\"E\"").count();
    if begins == ends {
        Ok(begins)
    } else {
        Err(format!("unbalanced span events: {begins} B vs {ends} E"))
    }
}

/// One-line warning when the bounded rings overflowed and telemetry is
/// therefore incomplete (`None` when nothing was lost). Reports print
/// this so a truncated trace never masquerades as a complete one.
#[must_use]
pub fn loss_banner(telemetry: &RunTelemetry) -> Option<String> {
    if !telemetry.lossy() {
        return None;
    }
    let mut banner = format!(
        "WARNING: telemetry rings overflowed — {} events and {} spans \
         dropped (oldest first); raise TraceConfig::ring_capacity / \
         span_capacity for full history",
        telemetry.dropped_events, telemetry.dropped_spans
    );
    if telemetry.dropped_decisions > 0 {
        let _ = write!(
            banner,
            " ({} audited decisions also dropped; raise decision_capacity)",
            telemetry.dropped_decisions
        );
    }
    Some(banner)
}

/// Write `contents` to `path` crash-safely: the bytes land in a
/// sibling `<name>.tmp` file first, are flushed to disk, and only then
/// renamed over the destination. A reader (a CI diff of the committed
/// `results/` files) therefore sees either the previous complete
/// artifact or the new complete artifact — never a truncated hybrid
/// from a run that was killed mid-write.
///
/// # Errors
/// Propagates the underlying I/O error; on failure the destination is
/// untouched (a stale `.tmp` may remain and is overwritten next time).
pub fn write_atomic(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = std::path::PathBuf::from(tmp);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::metrics::{EpochSeries, MetricKind};
    use gmmu::types::VirtPage;
    use sim_core::time::Cycle;
    use uvm::observe::DriverEvent;

    fn sample_telemetry() -> RunTelemetry {
        let mut series = EpochSeries::default();
        for (cycle, batches, resident) in [(28_000, 1, 16), (70_000, 2, 32)] {
            series.push(
                cycle,
                [
                    ("driver.batches", MetricKind::Counter, batches),
                    ("mem.resident_pages", MetricKind::Gauge, resident),
                ],
            );
        }
        RunTelemetry {
            events: vec![
                DriverEvent::BatchServiced {
                    now: Cycle(0),
                    batch: 0,
                    arrived: 4,
                    distinct: 4,
                    coalesced: 0,
                    host_done: Cycle(28_000),
                    done_at: Cycle(30_000),
                },
                DriverEvent::FarFault {
                    at: Cycle(100),
                    page: VirtPage(9),
                },
                DriverEvent::MigrationDma {
                    at: Cycle(200),
                    page: VirtPage(9),
                    pages: 16,
                    h2d: (Cycle(200), Cycle(5_000)),
                },
            ],
            dropped_events: 0,
            series,
            ..RunTelemetry::default()
        }
    }

    fn telemetry_with_spans() -> RunTelemetry {
        use crate::telemetry::span::{SpanId, SpanRecorder};
        let mut rec = SpanRecorder::new(64);
        let root = rec.open(SpanStage::FaultTotal, 1_400, SpanId::NONE, 0, 3, 42);
        rec.complete(SpanStage::TlbL1, 1_400, 1_401, root, 0, 3, 42);
        rec.complete(SpanStage::PageWalk, 1_411, 2_011, root, 0, 3, 42);
        rec.close(root, 30_000);
        rec.complete(
            SpanStage::DriverBatch,
            2_011,
            30_000,
            SpanId::NONE,
            u16::MAX,
            u32::MAX,
            0,
        );
        let (spans, dropped_spans, _) = rec.finish();
        RunTelemetry {
            spans,
            dropped_spans,
            ..sample_telemetry()
        }
    }

    #[test]
    fn timeline_csv_is_wide_and_delta_based() {
        let t = sample_telemetry();
        let csv = timeline_csv(&t.series);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "epoch,cycle,driver.batches,mem.resident_pages"
        );
        assert_eq!(lines.next().unwrap(), "0,28000,1,16");
        assert_eq!(lines.next().unwrap(), "1,70000,1,32", "counter is a delta");
        crate::telemetry::csv::validate(&csv).unwrap();
    }

    #[test]
    fn chrome_trace_is_valid_and_has_spans() {
        let t = sample_telemetry();
        let j = chrome_trace_json(&t);
        json::validate(&j).unwrap();
        assert!(j.starts_with("{\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"M\""), "thread metadata present");
        assert!(j.contains("\"ph\":\"X\""), "duration spans present");
        assert!(j.contains("\"ph\":\"i\""), "instants present");
        // 28_000 cycles @ 1.4 GHz = 20 µs.
        assert!(j.contains("\"dur\":20.000"));
    }

    #[test]
    fn chrome_trace_renders_span_trees_as_balanced_b_e() {
        let t = telemetry_with_spans();
        let j = chrome_trace_json(&t);
        json::validate(&j).unwrap();
        let pairs = span_balance(&j).expect("balanced");
        assert_eq!(pairs, 3, "fault_total + tlb_l1 + page_walk");
        assert!(j.contains("\"name\":\"lane3\""), "per-lane track named");
        assert!(j.contains("\"name\":\"span.driver_batch\""));
        // Children render between the root's B and E.
        let root_b = j.find("\"ph\":\"B\",\"name\":\"fault_total\"").unwrap();
        let child_b = j.find("\"ph\":\"B\",\"name\":\"page_walk\"").unwrap();
        let root_e = j.find("\"ph\":\"E\",\"name\":\"fault_total\"").unwrap();
        assert!(
            root_b < child_b && child_b < root_e,
            "children nest inside parent"
        );
    }

    #[test]
    fn span_balance_detects_imbalance() {
        assert_eq!(span_balance("{\"traceEvents\":[]}").unwrap(), 0);
        assert!(span_balance("\"ph\":\"B\" \"ph\":\"B\" \"ph\":\"E\"").is_err());
    }

    #[test]
    fn loss_banner_only_when_lossy() {
        let clean = sample_telemetry();
        assert!(loss_banner(&clean).is_none());
        let lossy = RunTelemetry {
            dropped_spans: 7,
            ..sample_telemetry()
        };
        let banner = loss_banner(&lossy).expect("lossy run warns");
        assert!(banner.contains("7 spans"));
        assert!(banner.contains("WARNING"));
    }

    #[test]
    fn loss_banner_names_dropped_decisions() {
        let audited = RunTelemetry {
            decisions: vec![crate::telemetry::decision::DecisionRecord {
                cycle: 9,
                event: crate::telemetry::decision::DecisionEvent {
                    kind: crate::telemetry::decision::DecisionKind::Prefetch,
                    policy: "seq-local",
                    origin: "whole-chunk",
                    rung: 0,
                    chosen: 3,
                    pages: vec![0, 1],
                },
            }],
            dropped_decisions: 2,
            ..sample_telemetry()
        };
        let banner = loss_banner(&audited).expect("dropped decisions are loss");
        assert!(banner.contains("2 audited decisions"));
    }

    #[test]
    fn write_atomic_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("cppe-atomic-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("artifact.json");
        write_atomic(&path, "{\"v\":1}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":1}");
        write_atomic(&path, "{\"v\":2}").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "{\"v\":2}");
        assert!(!dir.join("artifact.json.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trace_format_parses_and_selects() {
        assert_eq!(TraceFormat::parse("csv").unwrap(), TraceFormat::Csv);
        assert_eq!(TraceFormat::parse("all").unwrap(), TraceFormat::All);
        assert!(TraceFormat::parse("yaml").is_err());
        assert!(TraceFormat::All.wants_csv());
        assert!(TraceFormat::All.wants_chrome());
        assert!(!TraceFormat::Csv.wants_json());
        assert!(TraceFormat::Json.wants_json());
    }
}
