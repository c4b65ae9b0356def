//! Extension: fault-lifecycle span profiler.
//!
//! Runs a pattern-diverse workload subset under CPPE at 50 %
//! oversubscription with span recording on, folds the span trees into
//! per-stage latency distributions ([`telemetry::LatencyAttribution`]),
//! and exports `BENCH_profile.json` — a machine-readable regression
//! baseline with per-workload simulated cycles and per-stage
//! p50/p95/p99. Every number in it is simulated, so the export is
//! deterministic (host speed is `simbench`'s job). The text report shows the same numbers as a
//! stage-latency table plus the queueing-vs-service decomposition of
//! each contended resource (walker slots, driver fault queue, PCIe
//! retry path).

use crate::plan::{Experiment, Results};
use crate::report::{save, Table};
use crate::runner::{Cell, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::fmt::Write as _;
use telemetry::{json, LatencyAttribution};

/// Pattern-diverse subset (regular / irregular / mixed), matching the
/// chaos suite so the two baselines are comparable.
pub const APPS: [&str; 3] = ["STN", "KMN", "SRD"];

/// Schema marker checked by `validate-trace` and external tooling.
pub const SCHEMA: &str = "cppe-profile-v1";

/// Page regions kept in the JSON export (largest fault time first);
/// the full distribution stays available via `region_count`.
const TOP_REGIONS: usize = 16;

/// Profile as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("profile", cells, render);

/// One profiled workload: the traced run and its folded span
/// attribution.
#[derive(Debug)]
pub struct ProfiledRun<'a> {
    /// Workload abbreviation.
    pub app: &'static str,
    /// The traced simulation result.
    pub result: &'a RunResult,
    /// Per-stage / per-resource / per-SM / per-region attribution.
    pub attribution: LatencyAttribution,
}

/// One workload under CPPE at 50 % oversubscription with span
/// recording on (a span ring large enough that quick/default scales
/// profile losslessly).
#[must_use]
pub fn profiled(cfg: &ExpConfig, abbr: &str) -> Cell {
    let mut cell = Cell::app(abbr, PolicyPreset::Cppe, 0.5, cfg);
    cell.gpu.trace = telemetry::TraceConfig {
        span_capacity: 1 << 20,
        ..telemetry::TraceConfig::on()
    };
    cell
}

/// Fold a profiled run's spans.
///
/// # Panics
/// Panics when the run was not traced.
#[must_use]
pub fn fold<'a>(app: &'static str, result: &'a RunResult) -> ProfiledRun<'a> {
    let t = result.telemetry.as_ref().expect("profile runs are traced");
    ProfiledRun {
        app,
        result,
        attribution: LatencyAttribution::from_spans(&t.spans),
    }
}

/// Every [`APPS`] workload, profiled.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    APPS.iter().map(|a| profiled(cfg, a)).collect()
}

/// Per-stage latency table (cycles): count, mean and the tail quantiles.
#[must_use]
pub fn stage_table(attr: &LatencyAttribution) -> Table {
    let mut t = Table::new(&["stage", "count", "mean", "p50", "p95", "p99", "max"]);
    for s in &attr.stages {
        t.row(vec![
            s.stage.name().to_string(),
            s.count.to_string(),
            format!("{:.1}", s.mean),
            s.p50.to_string(),
            s.p95.to_string(),
            s.p99.to_string(),
            s.max.to_string(),
        ]);
    }
    t
}

fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

/// Render the profiled runs as the `BENCH_profile.json` document
/// (schema [`SCHEMA`]): per workload — outcome, simulated cycles,
/// accesses, span accounting, per-stage latency summaries, queueing-vs-service splits and the
/// hottest page regions.
///
/// # Panics
/// Panics when a run was not traced.
#[must_use]
pub fn profile_json(runs: &[ProfiledRun]) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\"schema\":\"{SCHEMA}\",\"workloads\":[");
    for (i, p) in runs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let r = p.result;
        let t = r.telemetry.as_ref().expect("profile runs are traced");
        let outcome = format!("{:?}", r.outcome).to_lowercase();
        let _ = write!(
            s,
            "{{\"app\":{},\"outcome\":{},\"cycles\":{},\"accesses\":{},\
             \"spans\":{{\"recorded\":{},\"dropped\":{},\"unclosed\":{}}},",
            json::string(p.app),
            json::string(&outcome),
            r.cycles,
            r.accesses,
            t.spans.len(),
            t.dropped_spans,
            t.unclosed_spans,
        );
        s.push_str("\"stages\":[");
        for (j, st) in p.attribution.stages.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"stage\":{},\"count\":{},\"total_cycles\":{},\"mean\":{},\
                 \"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json::string(st.stage.name()),
                st.count,
                st.total_cycles,
                fmt_f64(st.mean),
                st.p50,
                st.p95,
                st.p99,
                st.max,
            );
        }
        s.push_str("],\"splits\":[");
        for (j, sp) in p.attribution.splits.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"queue\":{},\"service\":{},\"queue_cycles\":{},\
                 \"service_cycles\":{},\"queue_fraction\":{}}}",
                json::string(sp.queue.name()),
                json::string(sp.service.name()),
                sp.queue_cycles,
                sp.service_cycles,
                fmt_f64(sp.queue_fraction()),
            );
        }
        s.push_str("],\"per_sm\":[");
        for (j, a) in p.attribution.per_sm.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"sm\":{},\"faults\":{},\"total_cycles\":{}}}",
                a.key, a.faults, a.total_cycles
            );
        }
        let mut regions: Vec<_> = p.attribution.per_region.clone();
        regions.sort_by(|a, b| b.total_cycles.cmp(&a.total_cycles).then(a.key.cmp(&b.key)));
        regions.truncate(TOP_REGIONS);
        let _ = write!(
            s,
            "],\"region_count\":{},\"top_regions\":[",
            p.attribution.per_region.len()
        );
        for (j, a) in regions.iter().enumerate() {
            if j > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"region\":{},\"faults\":{},\"total_cycles\":{}}}",
                a.key, a.faults, a.total_cycles
            );
        }
        s.push_str("]}");
    }
    s.push_str("]}");
    s
}

/// Render the report. Saves `BENCH_profile.json` under `results/` and
/// mirrors it at the repo root for perf-regression diffing in CI.
fn render(cfg: &ExpConfig, results: &Results) -> String {
    let runs: Vec<ProfiledRun> = APPS
        .iter()
        .map(|a| fold(a, results.get(&profiled(cfg, a))))
        .collect();
    let doc = profile_json(&runs);
    let _ = save("BENCH_profile.json", &doc);
    let _ = telemetry::export::write_atomic(std::path::Path::new("BENCH_profile.json"), &doc);

    let mut out = format!(
        "Profile (extension) — fault-lifecycle latency attribution under\n\
         CPPE at 50% oversubscription, scale={} (machine-readable export\n\
         in results/BENCH_profile.json, schema {SCHEMA})\n",
        cfg.scale
    );
    for p in &runs {
        let r = p.result;
        let t = r.telemetry.as_ref().expect("profile runs are traced");
        let _ = write!(
            out,
            "\n{} — {:?}, {} cycles, {} spans ({} unclosed)\n\n",
            p.app,
            r.outcome,
            r.cycles,
            t.spans.len(),
            t.unclosed_spans,
        );
        let loss = crate::report::loss_section(t);
        if !loss.is_empty() {
            let _ = writeln!(out, "{loss}");
        }
        out.push_str(&stage_table(&p.attribution).render());
        for sp in &p.attribution.splits {
            let _ = writeln!(
                out,
                "{} vs {}: {:.1}% queueing ({} / {} cycles)",
                sp.queue.name(),
                sp.service.name(),
                sp.queue_fraction() * 100.0,
                sp.queue_cycles,
                sp.service_cycles,
            );
        }
    }
    out.push_str(
        "\nReading: fault_total is the end-to-end far-fault lifecycle; its\n\
         children (tlb_l1 … replay) are contiguous, so their sums bound it.\n\
         High queue fractions mark the contended resource (walker slots,\n\
         driver fault queue, or the PCIe retry path) on the critical path.\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        }
    }

    #[test]
    fn profiled_run_records_complete_span_trees() {
        let r = profiled(&quick_cfg(), "STN").run();
        let p = fold("STN", &r);
        let t = p.result.telemetry.as_ref().unwrap();
        assert!(!t.spans.is_empty(), "span recording was on");
        assert_eq!(t.dropped_spans, 0, "profile ring sized for losslessness");
        let total = p
            .attribution
            .stage(telemetry::SpanStage::FaultTotal)
            .expect("fault lifecycles recorded");
        assert!(total.count > 0);
        assert!(total.p50 <= total.p95 && total.p95 <= total.p99);
    }

    #[test]
    fn profile_json_has_schema_and_stage_quantiles() {
        let r = profiled(&quick_cfg(), "STN").run();
        let runs = vec![fold("STN", &r)];
        let doc = profile_json(&runs);
        json::validate(&doc).expect("well-formed JSON");
        assert!(doc.starts_with("{\"schema\":\"cppe-profile-v1\""));
        assert!(doc.contains("\"app\":\"STN\""));
        assert!(doc.contains("\"stage\":\"fault_total\""));
        assert!(doc.contains("\"p99\":"));
        assert!(!doc.contains("wall_ms"), "export must be deterministic");
        assert!(doc.contains("\"queue_fraction\":"));
    }

    #[test]
    fn stage_table_lists_lifecycle_stages() {
        let r = profiled(&quick_cfg(), "STN").run();
        let p = fold("STN", &r);
        let rendered = stage_table(&p.attribution).render();
        assert!(rendered.contains("fault_total"));
        assert!(rendered.contains("batch_service"));
        assert!(rendered.contains("p99"));
    }
}
