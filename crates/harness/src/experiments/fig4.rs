//! Fig. 4 — "Sensitivity to prefetching once memory is full."
//!
//! Motivation experiment (§III, Inefficiency 3): number of page
//! evictions when prefetching continues for the entire execution
//! (baseline) vs when prefetching is turned off once GPU memory fills
//! (disable-on-full), normalized to the latter. The paper reports only
//! apps whose ratio exceeds 1.2, notes *SAD* and *NW* near an order of
//! magnitude, and marks *MVT*/*BIC* as crashed.

use crate::plan::{cross, Experiment, Results};
use crate::report::{Report, Table};
use crate::runner::{Cell, ExpConfig};
use cppe::presets::PolicyPreset;
use gpu::Outcome;
use workloads::registry;

/// Ratio above which an app appears in the figure.
pub const REPORT_THRESHOLD: f64 = 1.2;

/// Fig. 4 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig4", cells, render);

/// Every app, prefetch-always vs prefetch-off-when-full, at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let presets = [PolicyPreset::Baseline, PolicyPreset::DisablePfOnFull];
    cross(&registry::all(), &presets, &[0.5], cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let specs = registry::all();

    let mut table = Table::new(&["app", "evictions(pf-always)", "evictions(pf-off)", "ratio"]);
    let mut shown = 0;
    for spec in &specs {
        let base = results.cell(spec.abbr, PolicyPreset::Baseline, 0.5, cfg);
        let off = results.cell(spec.abbr, PolicyPreset::DisablePfOnFull, 0.5, cfg);
        if base.outcome == Outcome::Crashed {
            table.row(vec![
                spec.abbr.to_string(),
                "X (crashed)".into(),
                off.engine.pages_evicted.to_string(),
                "X".into(),
            ]);
            shown += 1;
            continue;
        }
        let ratio = base.engine.pages_evicted as f64 / off.engine.pages_evicted.max(1) as f64;
        if ratio > REPORT_THRESHOLD {
            table.row(vec![
                spec.abbr.to_string(),
                base.engine.pages_evicted.to_string(),
                off.engine.pages_evicted.to_string(),
                format!("{ratio:.2}"),
            ]);
            shown += 1;
        }
    }

    format!(
        "Fig. 4 — page evictions with prefetch-always, normalized to\n\
         prefetch-off-when-full, 50% oversubscription, scale={} \n\
         (only apps with ratio > {REPORT_THRESHOLD} shown; {shown} apps qualified)\n\n{}\n\
         Paper shape: SAD and NW show ~an order of magnitude more evictions;\n\
         MVT and BIC crash outright from thrash.\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mvt_and_bic_crash_in_baseline() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        // The crash rows must appear.
        assert!(report.contains("MVT"));
        assert!(report.contains("BIC"));
        assert!(report.contains("X (crashed)"));
    }
}
