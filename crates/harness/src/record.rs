//! The run record: the one JSON export every harness run writes
//! (schema [`SCHEMA`]), produced by [`document`] and checked by
//! [`validate`].
//!
//! A record document is `{"schema":"cppe-run-v1","runs":[…]}`. Each run
//! always carries its name, outcome, simulated cycles and accesses, the
//! epoch count, the event/span/decision accounting (recorded and
//! dropped) and the final total of every sampled metric. Two sections
//! are optional:
//!
//! * `stages` — per-stage span latency summaries, queueing-vs-service
//!   splits, fault time per SM and the hottest page regions; present
//!   only when spans were recorded;
//! * `audit` — decision provenance, the page-lifetime ledger and the
//!   regret against the offline Belady oracle ([`crate::oracle`]);
//!   present only when decisions were recorded.
//!
//! Every number is simulated (host speed is `simbench`'s job), so a
//! record is byte-reproducible for a given config and can be committed
//! and diffed like any report.

use crate::oracle::OracleReport;
use crate::runner::Cell;
use crate::telemetry::json::{self, Value};
use crate::telemetry::{DecisionRecord, LatencyAttribution, MetricKind, PageLedger, RunTelemetry};
use gmmu::types::PAGES_PER_CHUNK;
use gpu::RunResult;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Schema marker of every record document.
pub const SCHEMA: &str = "cppe-run-v1";

/// Page regions kept in `stages.top_regions` (largest fault time
/// first); `stages.region_count` gives the full count.
const TOP_REGIONS: usize = 16;

/// One run of a record: the result plus the sections folded from its
/// telemetry.
#[derive(Debug)]
pub struct RunRecord<'a> {
    /// Run name (the workload, or workload and policy).
    pub name: String,
    /// The simulation result.
    pub result: &'a RunResult,
    /// The recorded telemetry; `None` for an untraced run.
    pub telemetry: Option<&'a RunTelemetry>,
    /// Span attribution; `Some` when spans were recorded.
    pub stages: Option<LatencyAttribution>,
    /// Ledger and oracle; `Some` when decisions were recorded.
    pub audit: Option<Audit>,
}

/// The audit section: recorded decisions replayed into the page
/// ledger and scored against the Belady oracle.
#[derive(Debug)]
pub struct Audit {
    /// Per-page lifetimes replayed from the recorded streams.
    pub ledger: PageLedger,
    /// Regret against the offline Belady oracle.
    pub oracle: OracleReport,
}

impl<'a> RunRecord<'a> {
    /// Fold `cell`'s `result` and `telemetry` into a record run: spans
    /// into stage attribution, decisions into ledger and oracle (the
    /// oracle replays `cell`'s streams at its capacity).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        cell: &Cell,
        result: &'a RunResult,
        telemetry: Option<&'a RunTelemetry>,
    ) -> Self {
        let stages = telemetry
            .filter(|t| !t.spans.is_empty())
            .map(|t| LatencyAttribution::from_spans(&t.spans));
        let audit = telemetry.filter(|t| !t.decisions.is_empty()).map(|t| {
            let ledger = PageLedger::from_telemetry(t, PAGES_PER_CHUNK);
            let accesses = crate::opt::linearize(&cell.streams());
            let capacity_chunks = (u64::from(cell.capacity()) / PAGES_PER_CHUNK) as usize;
            let oracle = OracleReport::compare(t, &ledger, &accesses, capacity_chunks);
            Audit { ledger, oracle }
        });
        RunRecord {
            name: name.into(),
            result,
            telemetry,
            stages,
            audit,
        }
    }
}

/// Decision counts grouped by `(kind, policy, origin)`, in stable
/// (sorted) order: the provenance summary of one audited run.
#[must_use]
pub fn provenance_counts(
    decisions: &[DecisionRecord],
) -> BTreeMap<(&'static str, &'static str, &'static str), u64> {
    let mut counts = BTreeMap::new();
    for rec in decisions {
        *counts
            .entry((rec.event.kind.name(), rec.event.policy, rec.event.origin))
            .or_insert(0) += 1;
    }
    counts
}

/// `v` with `digits` decimals, or `0` when not finite.
fn fixed(v: f64, digits: usize) -> String {
    if v.is_finite() {
        format!("{v:.digits$}")
    } else {
        "0".to_string()
    }
}

/// `items` rendered by `item` as a JSON array.
fn array<T>(items: &[T], mut item: impl FnMut(&mut String, &T)) -> String {
    let mut s = String::from("[");
    for (i, x) in items.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        item(&mut s, x);
    }
    s.push(']');
    s
}

/// Render `runs` as one record document (schema [`SCHEMA`]).
#[must_use]
pub fn document(runs: &[RunRecord]) -> String {
    let body = array(runs, write_run);
    format!("{{\"schema\":\"{SCHEMA}\",\"runs\":{body}}}")
}

fn write_run(s: &mut String, run: &RunRecord) {
    let r = run.result;
    let untraced = RunTelemetry::default();
    let t = run.telemetry.unwrap_or(&untraced);
    let outcome = format!("{:?}", r.outcome).to_lowercase();
    let _ = write!(
        s,
        "{{\"name\":{},\"outcome\":{},\"cycles\":{},\"accesses\":{},\"epochs\":{},\
         \"events\":{{\"recorded\":{},\"dropped\":{}}},\
         \"spans\":{{\"recorded\":{},\"dropped\":{},\"unclosed\":{}}},\
         \"decisions\":{{\"recorded\":{},\"dropped\":{}}},\"metrics\":{{",
        json::string(&run.name),
        json::string(&outcome),
        r.cycles,
        r.accesses,
        t.series.rows.len(),
        t.events.len(),
        t.dropped_events,
        t.spans.len(),
        t.dropped_spans,
        t.unclosed_spans,
        t.decisions.len(),
        t.dropped_decisions,
    );
    for (i, (name, kind)) in t.series.schema.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let kind = match kind {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        };
        let _ = write!(
            s,
            "{}:{{\"kind\":\"{kind}\",\"value\":{}}}",
            json::string(name),
            t.series.final_total(name)
        );
    }
    s.push('}');
    if let Some(attr) = &run.stages {
        write_stages(s, attr);
    }
    if let Some(audit) = &run.audit {
        write_audit(s, &t.decisions, audit);
    }
    s.push('}');
}

fn write_stages(s: &mut String, attr: &LatencyAttribution) {
    let summaries = array(&attr.stages, |s, st| {
        let _ = write!(
            s,
            "{{\"stage\":{},\"count\":{},\"total_cycles\":{},\"mean\":{},\
             \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
            json::string(st.stage.name()),
            st.count,
            st.total_cycles,
            fixed(st.mean, 3),
            st.p50,
            st.p95,
            st.p99,
            st.max,
        );
    });
    let splits = array(&attr.splits, |s, sp| {
        let _ = write!(
            s,
            "{{\"queue\":{},\"service\":{},\"queue_cycles\":{},\
             \"service_cycles\":{},\"queue_fraction\":{}}}",
            json::string(sp.queue.name()),
            json::string(sp.service.name()),
            sp.queue_cycles,
            sp.service_cycles,
            fixed(sp.queue_fraction(), 3),
        );
    });
    let per_sm = array(&attr.per_sm, |s, a| {
        let _ = write!(
            s,
            "{{\"sm\":{},\"faults\":{},\"total_cycles\":{}}}",
            a.key, a.faults, a.total_cycles
        );
    });
    let mut regions = attr.per_region.clone();
    regions.sort_by(|a, b| b.total_cycles.cmp(&a.total_cycles).then(a.key.cmp(&b.key)));
    regions.truncate(TOP_REGIONS);
    let top_regions = array(&regions, |s, a| {
        let _ = write!(
            s,
            "{{\"region\":{},\"faults\":{},\"total_cycles\":{}}}",
            a.key, a.faults, a.total_cycles
        );
    });
    let _ = write!(
        s,
        ",\"stages\":{{\"summaries\":{summaries},\"splits\":{splits},\"per_sm\":{per_sm},\
         \"region_count\":{},\"top_regions\":{top_regions}}}",
        attr.per_region.len()
    );
}

fn write_audit(s: &mut String, decisions: &[DecisionRecord], audit: &Audit) {
    let counts: Vec<_> = provenance_counts(decisions).into_iter().collect();
    let provenance = array(&counts, |s, ((kind, policy, origin), count)| {
        let _ = write!(
            s,
            "{{\"kind\":{},\"policy\":{},\"origin\":{},\"count\":{count}}}",
            json::string(kind),
            json::string(policy),
            json::string(origin),
        );
    });
    let l = &audit.ledger;
    let o = &audit.oracle;
    let p = &o.prefetch;
    let _ = write!(
        s,
        ",\"audit\":{{\"provenance\":{provenance},\
         \"ledger\":{{\"pages\":{},\"chunk_migrations\":{},\
         \"faults\":{},\"refaults\":{},\"unmatched_evictions\":{},\
         \"max_thrash\":{},\
         \"residency_p50\":{},\"residency_p95\":{},\
         \"refault_distance_p50\":{},\"refault_distance_p95\":{}}},\
         \"oracle\":{{\"capacity_chunks\":{},\
         \"actual_chunk_migrations\":{},\"oracle_chunk_faults\":{},\
         \"avoidable_chunk_migrations\":{},\
         \"prefetch\":{{\"pages_migrated\":{},\"used\":{},\"wasted\":{},\
         \"resident_end\":{},\"wasted_bytes\":{},\
         \"used_fraction\":{},\"wasted_fraction\":{},\
         \"resident_end_fraction\":{}}},\
         \"regret\":{{\"decisions\":{},\"zero_regret\":{},\"mean\":{},\
         \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}}}}}",
        l.page_count(),
        l.chunk_migrations,
        l.total_faults,
        l.total_refaults,
        l.unmatched_evictions,
        l.max_thrash().map_or(0, |(_, n)| u64::from(n)),
        l.residency.p50(),
        l.residency.p95(),
        l.refault_distance.p50(),
        l.refault_distance.p95(),
        o.capacity_chunks,
        o.actual_chunk_migrations,
        o.oracle_chunk_faults,
        o.avoidable_chunk_migrations(),
        p.pages_migrated,
        p.used,
        p.wasted,
        p.resident_end,
        p.wasted_bytes(),
        fixed(p.used_fraction(), 6),
        fixed(p.wasted_fraction(), 6),
        fixed(p.resident_end_fraction(), 6),
        o.eviction_decisions,
        o.regret.zero_regret(),
        fixed(o.regret.mean(), 6),
        o.regret.quantile(0.5),
        o.regret.quantile(0.95),
        o.regret.quantile(0.99),
        o.regret.max(),
    );
}

/// Check a record document: the schema marker, at least one run, every
/// run's required fields, and accounting that adds up. A section is
/// present exactly when its stream recorded something, its counts sum
/// to the recorded total, and no ring loss sampled into the metrics
/// exceeds the run's final drop count. Returns a one-line summary.
///
/// # Errors
/// Describes the first violation.
pub fn validate(doc: &str) -> Result<String, String> {
    let v = json::parse(doc)?;
    match v.get("schema").and_then(Value::as_str) {
        Some(SCHEMA) => {}
        Some(other) => return Err(format!("foreign schema {other:?} (expected {SCHEMA:?})")),
        None => return Err(format!("missing schema marker {SCHEMA:?}")),
    }
    let runs = v
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("missing runs array")?;
    if runs.is_empty() {
        return Err("no runs".into());
    }
    for (i, run) in runs.iter().enumerate() {
        check_run(run).map_err(|e| format!("run {i}: {e}"))?;
    }
    Ok(format!("{SCHEMA}, {} runs", runs.len()))
}

fn num(v: &Value, path: &[&str]) -> Result<u64, String> {
    path.iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing {}", path.join(".")))
}

/// Sum of `field` over the objects of the array at `path`.
fn sum(v: &Value, path: &[&str], field: &str) -> Result<u64, String> {
    let items = path
        .iter()
        .try_fold(v, |v, key| v.get(key))
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing {}", path.join(".")))?;
    items.iter().map(|item| num(item, &[field])).sum()
}

fn check_run(run: &Value) -> Result<(), String> {
    let name = run
        .get("name")
        .and_then(Value::as_str)
        .ok_or("missing name")?;
    let check = || -> Result<(), String> {
        run.get("outcome")
            .and_then(Value::as_str)
            .ok_or("missing outcome")?;
        for key in ["cycles", "accesses", "epochs"] {
            num(run, &[key])?;
        }
        let metrics = match run.get("metrics") {
            Some(m @ Value::Obj(_)) => m,
            _ => return Err("missing metrics".into()),
        };
        for (stream, metric) in [
            ("events", "telemetry.ring.dropped"),
            ("spans", "telemetry.spans.dropped"),
            ("decisions", "telemetry.decisions.dropped"),
        ] {
            num(run, &[stream, "recorded"])?;
            let dropped = num(run, &[stream, "dropped"])?;
            if let Ok(sampled) = num(metrics, &[metric, "value"]) {
                if sampled > dropped {
                    return Err(format!(
                        "{metric} is {sampled} but {stream}.dropped is {dropped}"
                    ));
                }
            }
        }
        num(run, &["spans", "unclosed"])?;
        for (section, stream, path, field) in [
            ("stages", "spans", ["stages", "summaries"], "count"),
            ("audit", "decisions", ["audit", "provenance"], "count"),
        ] {
            let recorded = num(run, &[stream, "recorded"])?;
            match (run.get(section).is_some(), recorded) {
                (false, 0) => {}
                (false, _) => return Err(format!("{recorded} {stream} recorded but no {section}")),
                (true, 0) => return Err(format!("{section} present but no {stream} recorded")),
                (true, _) => {
                    let total = sum(run, &path, field)?;
                    if total != recorded {
                        return Err(format!(
                            "{} sums to {total} but {stream}.recorded is {recorded}",
                            path.join(".")
                        ));
                    }
                }
            }
        }
        Ok(())
    };
    check().map_err(|e| format!("{name}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExpConfig;
    use crate::telemetry::TraceConfig;
    use cppe::presets::PolicyPreset;

    /// STN under CPPE at 50 %, quarter scale, traced with `trace`.
    fn run(trace: Option<TraceConfig>) -> (Cell, RunResult, Option<RunTelemetry>) {
        let cfg = ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        };
        let mut cell = Cell::app("STN", PolicyPreset::Cppe, 0.5, &cfg);
        cell.trace = trace;
        let (r, t) = cell.run();
        (cell, r, t)
    }

    fn doc(trace: Option<TraceConfig>) -> String {
        let (cell, r, t) = run(trace);
        document(&[RunRecord::new("STN", &cell, &r, t.as_ref())])
    }

    #[test]
    fn sections_appear_only_with_their_streams() {
        let untraced = doc(None);
        let no_spans = doc(Some(TraceConfig {
            span_capacity: 0,
            ..TraceConfig::default()
        }));
        let traced = doc(Some(TraceConfig::default()));
        let audited = doc(Some(TraceConfig::audited()));
        for d in [&untraced, &no_spans, &traced, &audited] {
            validate(d).unwrap_or_else(|e| panic!("{e}\n{d}"));
            assert!(d.starts_with("{\"schema\":\"cppe-run-v1\",\"runs\":[{\"name\":\"STN\""));
            assert!(d.contains("\"decisions\":{\"recorded\":"));
        }
        assert!(untraced.contains("\"metrics\":{}"));
        for d in [&untraced, &no_spans] {
            assert!(!d.contains("\"stages\":{"), "stages need recorded spans");
        }
        for d in [&traced, &audited] {
            assert!(d.contains("\"stages\":{\"summaries\":[{\"stage\""));
            assert!(d.contains("\"stage\":\"fault_total\""));
        }
        for d in [&untraced, &no_spans, &traced] {
            assert!(!d.contains("\"audit\":{"), "audit needs recorded decisions");
        }
        assert!(audited.contains("\"audit\":{\"provenance\":[{\"kind\""));
        assert!(audited.contains("\"regret\":{"));
        assert!(!audited.contains("wall"), "records carry no host time");
    }

    #[test]
    fn records_are_deterministic() {
        let audited = Some(TraceConfig::audited());
        assert_eq!(doc(audited), doc(audited));
    }

    #[test]
    fn validate_rejects_bad_schema_runs_and_accounting() {
        let good = doc(Some(TraceConfig::audited()));
        validate(&good).expect("a fresh record validates");
        let bad = |from: &str, to: &str| {
            assert!(good.contains(from), "fixture lacks {from}");
            validate(&good.replacen(from, to, 1)).unwrap_err()
        };
        assert!(validate("{\"runs\":[]}")
            .unwrap_err()
            .contains("missing schema"));
        assert!(bad("cppe-run-v1", "cppe-audit-v1").contains("foreign schema"));
        assert!(bad("\"outcome\":", "\"result\":").contains("missing outcome"));
        let e = validate(&format!("{{\"schema\":\"{SCHEMA}\",\"runs\":[]}}")).unwrap_err();
        assert!(e.contains("no runs"));

        // A recorded count that its section does not add up to.
        let (_, _, t) = run(Some(TraceConfig::audited()));
        let t = t.unwrap();
        let decisions = format!("\"decisions\":{{\"recorded\":{}", t.decisions.len());
        let more = format!("\"decisions\":{{\"recorded\":{}", t.decisions.len() + 1);
        assert!(bad(&decisions, &more).contains("audit.provenance sums to"));
        let spans = format!("\"spans\":{{\"recorded\":{}", t.spans.len());
        assert!(bad(&spans, "\"spans\":{\"recorded\":0").contains("stages present"));
        // A sampled ring loss above the final drop count.
        let sampled = "\"telemetry.spans.dropped\":{\"kind\":\"counter\",\"value\":0}";
        let e = bad(
            sampled,
            "\"telemetry.spans.dropped\":{\"kind\":\"counter\",\"value\":5}",
        );
        assert!(e.contains("spans.dropped is 0"), "{e}");
        // A section whose stream recorded nothing.
        let with_audit = doc(Some(TraceConfig::default())).replacen(
            "\"metrics\":{",
            "\"audit\":{},\"metrics\":{",
            1,
        );
        assert!(validate(&with_audit).unwrap_err().contains("audit present"));
    }
}
