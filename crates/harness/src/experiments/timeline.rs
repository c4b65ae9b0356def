//! Extension: thrash dynamics over time.
//!
//! Runs one workload under the baseline and under CPPE with the
//! telemetry tracer on (decision auditing included), then exports the
//! per-epoch metric series — the time-resolved view of what Fig. 8
//! summarizes in one number. The report shows a decile summary, the
//! driver resilience counters, the stage-latency tables and the CPPE
//! run's decision provenance with its Belady-oracle regret; the full
//! wide per-batch series is saved as CSV under `results/` (plus the
//! run record / Chrome traces when `--trace-format` asks).

use crate::experiments::audit::{provenance_table, stage_table};
use crate::plan::{Experiment, Results};
use crate::record::{document, RunRecord};
use crate::report::{loss_section, Report, Table};
use crate::runner::{Cell, ExpConfig};
use crate::telemetry::{export, RunTelemetry};
use cppe::presets::PolicyPreset;
use gpu::RunResult;
use std::fmt::Write as _;

/// Default workload for the timeline (a Type IV thrasher).
pub const DEFAULT_APP: &str = "HSD";

/// Timeline as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("timeline", cells, render);

/// One telemetry-instrumented cell at 50 % (tracer forced on, with
/// decision auditing so the provenance/regret section has a stream to
/// replay).
#[must_use]
pub fn instrumented(cfg: &ExpConfig, abbr: &str, preset: PolicyPreset) -> Cell {
    Cell::app(abbr, preset, 0.5, cfg).traced(crate::telemetry::TraceConfig::audited())
}

/// The baseline and CPPE, instrumented, on [`DEFAULT_APP`].
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    [PolicyPreset::Baseline, PolicyPreset::Cppe]
        .map(|p| instrumented(cfg, DEFAULT_APP, p))
        .to_vec()
}

/// A timeline run's telemetry: its cells are always traced.
fn traced<'a>(run: &RunRecord<'a>) -> &'a RunTelemetry {
    run.telemetry.expect("timeline runs are traced")
}

/// Render the report with the per-run exports as side files.
fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let app = DEFAULT_APP;
    let runs = [PolicyPreset::Baseline, PolicyPreset::Cppe].map(|preset| {
        let cell = instrumented(cfg, app, preset);
        RunRecord::new(
            format!("{app} {}", preset.label()),
            &cell,
            results.get(&cell),
            results.telemetry(&cell),
        )
    });
    let [base, cppe] = [runs[0].result, runs[1].result];
    let [base_t, cppe_t] = [traced(&runs[0]), traced(&runs[1])];

    let mut files = Vec::new();
    for (label, t) in [("baseline", base_t), ("cppe", cppe_t)] {
        if cfg.trace_format.wants_csv() {
            files.push((
                format!("timeline_{app}_{label}.csv"),
                export::timeline_csv(&t.series),
            ));
        }
        if cfg.trace_format.wants_chrome() {
            files.push((
                format!("timeline_{app}_{label}_trace.json"),
                export::chrome_trace_json(t),
            ));
        }
    }
    if cfg.trace_format.wants_json() {
        files.push(("timeline.json".to_string(), document(&runs)));
    }

    // Decile summary: cumulative evictions at each tenth of the run,
    // read back from the sampled epoch series.
    let mut table = Table::new(&["% of run", "baseline evictions", "cppe evictions"]);
    let at = |r: &RunResult, t: &RunTelemetry, frac: f64| -> u64 {
        let target = (r.cycles as f64 * frac) as u64;
        t.series.total_at("cppe.pages_evicted", target)
    };
    for decile in 1..=10 {
        let frac = f64::from(decile) / 10.0;
        table.row(vec![
            format!("{}0%", decile),
            at(base, base_t, frac).to_string(),
            at(cppe, cppe_t, frac).to_string(),
        ]);
    }

    // Driver resilience counters (retry/backoff/degradation ladder) —
    // zero in a clean run, but surfaced here so chaos-flavoured configs
    // show up side by side with the eviction dynamics.
    let mut drv = Table::new(&["driver counter", "baseline", "cppe"]);
    for ((name, b), (_, c)) in base.driver.metrics().iter().zip(cppe.driver.metrics()) {
        drv.row(vec![(*name).to_string(), b.to_string(), c.to_string()]);
    }

    // Where the fault time went, per policy: the span trees folded into
    // per-stage latency distributions. A lossy ring gets a warning so a
    // truncated distribution never reads as a complete one.
    let mut stages = String::new();
    for (label, run) in [("baseline", &runs[0]), ("cppe", &runs[1])] {
        let t = traced(run);
        stages.push_str(&loss_section(t));
        let attr = run.stages.as_ref().expect("timeline runs record spans");
        stages.push_str(&format!("{label}:\n"));
        stages.push_str(&stage_table(attr).render());
        stages.push('\n');
    }

    // Decision provenance for the CPPE run, and its eviction regret
    // against the Belady oracle over the linearized access stream —
    // the audit layer's time-resolved counterpart to the `audit`
    // experiment's committed baseline.
    let mut audit_sec = String::new();
    {
        let t = cppe_t;
        audit_sec.push_str(&loss_section(t));
        audit_sec.push_str(&provenance_table(&t.decisions));
        let oracle = &runs[1]
            .audit
            .as_ref()
            .expect("timeline runs record decisions")
            .oracle;
        let _ = write!(
            audit_sec,
            "\nOracle regret (cppe): {} of {} chunk migrations avoidable;\n\
             eviction regret p50/p95/max = {}/{}/{} linearized accesses\n\
             ({} of {} decisions matched Belady); {:.1}% of migrated pages\n\
             evicted untouched ({} wasted bytes)\n",
            oracle.avoidable_chunk_migrations(),
            oracle.actual_chunk_migrations,
            oracle.regret.quantile(0.5),
            oracle.regret.quantile(0.95),
            oracle.regret.max(),
            oracle.regret.zero_regret(),
            oracle.regret.count(),
            oracle.prefetch.wasted_fraction() * 100.0,
            oracle.prefetch.wasted_bytes(),
        );
    }

    let text = format!(
        "Timeline (extension) — cumulative evicted pages over run time for\n\
         {app} at 50% oversubscription, scale={} (full per-batch series in\n\
         results/timeline_{app}_*.csv)\n\n{}\n\
         Expected: the baseline accumulates eviction traffic at a steady\n\
         thrash rate; CPPE's curve flattens once the chain classification\n\
         settles (MRU retention) and the pattern buffer warms up.\n\n\
         Driver resilience totals (end of run):\n\n{}\n\
         Fault-lifecycle stage latencies (cycles):\n\n{}\n\
         Decision provenance (cppe run):\n\n{}",
        cfg.scale,
        table.render(),
        drv.render(),
        stages,
        audit_sec
    );
    Report { text, files }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeline_csv_has_one_row_per_batch() {
        let cfg = ExpConfig::quick();
        let (r, t) = instrumented(&cfg, "STN", PolicyPreset::Baseline).run();
        let csv = export::timeline_csv(&t.expect("traced").series);
        assert_eq!(csv.lines().count() as u64, 1 + r.driver.batches);
        assert!(csv.starts_with("epoch,cycle,cppe.faults"));
        crate::telemetry::csv::validate(&csv).expect("well-formed CSV");
    }

    #[test]
    fn report_contains_decile_and_driver_rows() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        assert!(report.contains("100%"));
        assert!(report.contains("baseline evictions"));
        assert!(report.contains("driver.retries"));
        assert!(report.contains("driver.rung_recoveries"));
        assert!(report.contains("Fault-lifecycle stage latencies"));
        assert!(report.contains("fault_total"));
        assert!(report.contains("Decision provenance"));
        assert!(report.contains("Oracle regret"));
        assert!(report.contains("avoidable"));
    }

    #[test]
    fn json_format_adds_a_valid_two_run_record() {
        let cfg = ExpConfig {
            scale: 0.25,
            trace_format: crate::telemetry::TraceFormat::All,
            ..ExpConfig::quick()
        };
        let report = EXPERIMENT.run(&cfg, 0);
        let names: Vec<&str> = report.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "timeline_HSD_baseline.csv",
                "timeline_HSD_baseline_trace.json",
                "timeline_HSD_cppe.csv",
                "timeline_HSD_cppe_trace.json",
                "timeline.json"
            ]
        );
        let record = &report.files[4].1;
        let verdict = crate::record::validate(record).expect("valid run record");
        assert!(verdict.contains("2 runs"), "{verdict}");
        assert!(record.contains("\"name\":\"HSD baseline\""));
    }

    #[test]
    fn instrumented_runs_record_decisions() {
        let cfg = ExpConfig::quick();
        let (_, t) = instrumented(&cfg, "STN", PolicyPreset::Cppe).run();
        let t = t.expect("traced");
        assert!(!t.decisions.is_empty(), "auditing is on for timelines");
    }
}
