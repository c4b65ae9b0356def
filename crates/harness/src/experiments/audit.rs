//! Extension: fault-lifecycle stage latencies and policy-decision
//! audit — ledger, provenance and oracle.
//!
//! Runs the pattern-diverse subset under CPPE at 50 % oversubscription
//! with span recording and decision auditing on
//! ([`crate::telemetry::TraceConfig::audited`]), folds the span trees into
//! per-stage latency distributions ([`crate::telemetry::LatencyAttribution`]),
//! replays the recorded decisions into the page-lifetime ledger
//! ([`crate::telemetry::PageLedger`]) and scores every audited decision
//! against the offline Belady oracle ([`crate::oracle`]). Exports:
//!
//! * `results/audit.json` — the three runs as one run record
//!   ([`crate::record`]): stage latencies, queueing-vs-service splits,
//!   decision provenance, ledger aggregates, avoidable migrations,
//!   prefetch usefulness and the eviction-regret CDF. It carries no
//!   wall times, so it is committed with `results/audit.txt` and a
//!   re-run at the same scale reproduces both byte for byte;
//! * `results/audit_<app>_lifetime.csv` — the per-page lifetime table.

use crate::plan::{Experiment, Results};
use crate::record::{document, provenance_counts, RunRecord};
use crate::report::{loss_section, Report, Table};
use crate::runner::{Cell, ExpConfig};
use crate::telemetry::LatencyAttribution;
use cppe::presets::PolicyPreset;
use std::fmt::Write as _;

/// Pattern-diverse subset (regular / irregular / mixed), matching the
/// chaos suite so the baselines are comparable.
pub const APPS: [&str; 3] = ["STN", "KMN", "SRD"];

/// Event, span and decision ring capacity for audited runs: large
/// enough that the quick/default scales record losslessly (the ledger,
/// oracle and stage quantiles are exact only for a lossless stream).
const AUDIT_RING: usize = 1 << 20;

/// Audit as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("audit", cells, render);

/// One workload under CPPE at 50 % oversubscription with span
/// recording and decision auditing on.
///
/// # Panics
/// Panics on an unknown app abbreviation.
#[must_use]
pub fn audited(cfg: &ExpConfig, abbr: &str) -> Cell {
    Cell::app(abbr, PolicyPreset::Cppe, 0.5, cfg).traced(crate::telemetry::TraceConfig {
        ring_capacity: AUDIT_RING,
        span_capacity: AUDIT_RING,
        decision_capacity: AUDIT_RING,
        ..crate::telemetry::TraceConfig::audited()
    })
}

/// Every [`APPS`] workload, audited.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    APPS.iter().map(|a| audited(cfg, a)).collect()
}

/// [`provenance_counts`] rendered as a `kind/policy/origin/count` table.
#[must_use]
pub fn provenance_table(decisions: &[crate::telemetry::DecisionRecord]) -> String {
    let mut prov = Table::new(&["kind", "policy", "origin", "count"]);
    for ((kind, policy, origin), count) in provenance_counts(decisions) {
        prov.row(vec![
            kind.to_string(),
            policy.to_string(),
            origin.to_string(),
            count.to_string(),
        ]);
    }
    prov.render()
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

/// Render the report with its side files: the `audit.json` run record
/// and the per-app lifetime CSVs.
fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let runs: Vec<RunRecord> = cells(cfg)
        .iter()
        .zip(APPS)
        .map(|(c, app)| RunRecord::new(app, c, results.get(c), results.telemetry(c)))
        .collect();
    let mut files = vec![("audit.json".to_string(), document(&runs))];

    let mut out = format!(
        "Audit (extension) — fault-lifecycle stage latencies, decision\n\
         provenance, page-lifetime ledger and Belady-oracle regret under\n\
         CPPE at 50% oversubscription, scale={} (run record\n\
         results/audit.json, schema {}; lifetime CSVs under results/)\n",
        cfg.scale,
        crate::record::SCHEMA,
    );

    let mut summary = Table::new(&[
        "app",
        "decisions",
        "chunk migr",
        "oracle",
        "avoidable",
        "used%",
        "wasted%",
        "regret p95",
        "zero-regret%",
    ]);
    for run in &runs {
        let t = run.telemetry.expect("audit runs are traced");
        let o = &run
            .audit
            .as_ref()
            .expect("audit runs record decisions")
            .oracle;
        #[allow(clippy::cast_precision_loss)]
        let zero_pct = if o.regret.count() == 0 {
            0.0
        } else {
            o.regret.zero_regret() as f64 / o.regret.count() as f64 * 100.0
        };
        summary.row(vec![
            run.name.clone(),
            t.decisions.len().to_string(),
            o.actual_chunk_migrations.to_string(),
            o.oracle_chunk_faults.to_string(),
            o.avoidable_chunk_migrations().to_string(),
            format!("{:.1}", o.prefetch.used_fraction() * 100.0),
            format!("{:.1}", o.prefetch.wasted_fraction() * 100.0),
            o.regret.quantile(0.95).to_string(),
            format!("{zero_pct:.1}"),
        ]);
    }
    out.push('\n');
    out.push_str(&summary.render());

    for run in &runs {
        let r = run.result;
        let t = run.telemetry.expect("audit runs are traced");
        let ledger = &run
            .audit
            .as_ref()
            .expect("audit runs record decisions")
            .ledger;
        files.push((
            format!("audit_{}_lifetime.csv", run.name),
            ledger.lifetime_csv(),
        ));
        let _ = write!(
            out,
            "\n{} — {:?}, {} cycles, {} spans ({} unclosed), {} pages\n\
             tracked, {} refaults, max thrash {}\n\n",
            run.name,
            r.outcome,
            r.cycles,
            t.spans.len(),
            t.unclosed_spans,
            ledger.page_count(),
            ledger.total_refaults,
            ledger.max_thrash().map_or(0, |(_, n)| n),
        );
        out.push_str(&loss_section(t));
        out.push_str(&provenance_table(&t.decisions));
        out.push('\n');
        let attr = run.stages.as_ref().expect("audit runs record spans");
        out.push_str(&stage_table(attr).render());
        for sp in &attr.splits {
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
         driver fault queue, or the PCIe retry path) on the critical path.\n\
         'avoidable' is the gap between the chunk fetches the run paid and\n\
         Belady's minimum over the linearized access order — the fetches a\n\
         clairvoyant eviction policy would have saved. Regret is per\n\
         eviction decision, in linearized accesses: how much sooner the\n\
         chosen victim is needed again versus the best chunk in the policy's\n\
         own candidate window (0 = the policy matched the oracle).\n",
    );
    Report { text: out, files }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::registry;

    fn quick_cfg() -> ExpConfig {
        ExpConfig {
            scale: 0.25,
            ..ExpConfig::quick()
        }
    }

    /// An audited quick-scale cell, its run and its telemetry.
    fn run_audited(app: &str) -> (Cell, gpu::RunResult, crate::telemetry::RunTelemetry) {
        let cell = audited(&quick_cfg(), app);
        let (r, t) = cell.run();
        (cell, r, t.expect("audit cells are traced"))
    }

    #[test]
    fn audited_run_is_bit_identical_to_untraced_run() {
        // The audit layer must be observational: the simulated outcome
        // of an audited run locks to the plain run, bit for bit.
        let (_, a, _) = run_audited("STN");
        let spec = registry::by_abbr("STN").unwrap();
        let plain = Cell::new(&spec, PolicyPreset::Cppe, 0.5, &quick_cfg());
        let (plain, untraced) = plain.run();
        assert!(untraced.is_none(), "reference run is untraced");
        assert_eq!(a.outcome, plain.outcome);
        assert_eq!(a.cycles, plain.cycles);
        assert_eq!(a.accesses, plain.accesses);
        assert_eq!(a.engine.faults, plain.engine.faults);
        assert_eq!(a.engine.pages_migrated, plain.engine.pages_migrated);
        assert_eq!(a.engine.pages_evicted, plain.engine.pages_evicted);
        assert_eq!(a.bytes_h2d, plain.bytes_h2d);
        assert_eq!(a.bytes_d2h, plain.bytes_d2h);
    }

    #[test]
    fn audit_invariants_hold_on_real_runs() {
        for app in APPS {
            let (cell, r, t) = run_audited(app);
            let run = RunRecord::new(app, &cell, &r, Some(&t));
            assert_eq!(t.dropped_decisions, 0, "{app}: ring sized losslessly");
            assert_eq!(t.dropped_spans, 0, "{app}: span ring sized losslessly");
            assert!(!t.decisions.is_empty(), "{app}: decisions recorded");
            // Complete span trees fold into ordered stage quantiles.
            let total = run
                .stages
                .as_ref()
                .and_then(|a| a.stage(crate::telemetry::SpanStage::FaultTotal))
                .expect("fault lifecycles recorded");
            assert!(total.count > 0);
            assert!(total.p50 <= total.p95 && total.p95 <= total.p99);
            // Regret ≥ 0 by construction; the quantiles are ordered.
            let o = &run.audit.as_ref().expect("decisions recorded").oracle;
            let r = &o.regret;
            assert!(r.quantile(0.5) <= r.quantile(0.95));
            assert!(r.quantile(0.95) <= r.max());
            assert!(r.mean() >= 0.0);
            // The oracle never charges more than what actually happened.
            assert!(
                o.avoidable_chunk_migrations() <= o.actual_chunk_migrations,
                "{app}: avoidable bounded by actual"
            );
            // Usefulness fractions partition 1 whenever pages moved.
            let p = &o.prefetch;
            assert!(p.pages_migrated > 0, "{app}: pages migrated");
            let sum = p.used_fraction() + p.wasted_fraction() + p.resident_end_fraction();
            assert!((sum - 1.0).abs() < 1e-9, "{app}: fractions sum to {sum}");
        }
    }

    #[test]
    fn lifetime_csv_round_trips_the_shared_parser() {
        let (cell, r, t) = run_audited("STN");
        let run = RunRecord::new("STN", &cell, &r, Some(&t));
        let csv = run.audit.expect("decisions recorded").ledger.lifetime_csv();
        crate::telemetry::csv::validate(&csv).expect("well-formed CSV");
        assert!(csv.starts_with("page,chunk,first_seen_cycle"));
        assert!(csv.lines().count() > 1, "pages recorded");
    }

    #[test]
    fn report_has_stages_provenance_regret_and_a_valid_record() {
        let report = EXPERIMENT.run(&quick_cfg(), 0);
        for needle in [
            "cppe-run-v1",
            "regret p95",
            "eviction",
            "prefetch",
            "avoidable",
            "fault_total",
            "batch_service",
            "p99",
            "% queueing",
        ] {
            assert!(report.text.contains(needle), "report lacks {needle:?}");
        }
        let names: Vec<&str> = report.files.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "audit.json",
                "audit_STN_lifetime.csv",
                "audit_KMN_lifetime.csv",
                "audit_SRD_lifetime.csv"
            ]
        );
        let record = &report.files[0].1;
        let verdict = crate::record::validate(record).expect("valid run record");
        assert!(verdict.contains("3 runs"), "{verdict}");
        assert!(record.contains("\"stages\":{") && record.contains("\"audit\":{"));
    }
}
