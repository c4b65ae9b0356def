//! Fig. 8 — "Performance of CPPE normalized to baseline."
//!
//! The headline result: CPPE (MHPE + pattern-aware prefetcher,
//! Scheme-2) vs the state-of-the-art baseline (LRU pre-eviction +
//! naïve sequential-local prefetcher) across all 23 apps at 75 % and
//! 50 % oversubscription. MVT and BIC crash in the baseline and are
//! omitted from the average, exactly as in the paper ("MVT and BIC are
//! omitted because they crashed in the baseline"); with CPPE they run
//! to completion.

use crate::plan::{cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig, RATES};
use cppe::presets::PolicyPreset;
use workloads::registry;

/// Per-app speedups: `(app, type, s@75, s@50)`; `None` = baseline crashed.
#[must_use]
pub fn collect(
    cfg: &ExpConfig,
    results: &Results,
) -> Vec<(String, &'static str, Option<f64>, Option<f64>)> {
    registry::all()
        .iter()
        .map(|spec| {
            let [s75, s50] = RATES.map(|rate| {
                let base = results.cell(spec.abbr, PolicyPreset::Baseline, rate, cfg);
                speedup(base, results.cell(spec.abbr, PolicyPreset::Cppe, rate, cfg))
            });
            (spec.abbr.to_string(), spec.pattern.roman(), s75, s50)
        })
        .collect()
}

/// Fig. 8 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig8", cells, render);

/// Every app, baseline vs CPPE, at both rates.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let presets = [PolicyPreset::Baseline, PolicyPreset::Cppe];
    cross(&registry::all(), &presets, &RATES, cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let rows = collect(cfg, results);
    let mut table = Table::new(&["app", "type", "75%", "50%"]);
    let mut col75 = Vec::new();
    let mut col50 = Vec::new();
    let mut max_speedup: f64 = 0.0;
    for (app, ty, s75, s50) in &rows {
        table.row(vec![
            app.clone(),
            (*ty).to_string(),
            fmt_speedup(*s75),
            fmt_speedup(*s50),
        ]);
        col75.push(*s75);
        col50.push(*s50);
        for s in [s75, s50].into_iter().flatten() {
            max_speedup = max_speedup.max(*s);
        }
    }
    table.row(vec![
        "geomean".into(),
        "-".into(),
        fmt_speedup(geomean(&col75)),
        fmt_speedup(geomean(&col50)),
    ]);

    format!(
        "Fig. 8 — CPPE speedup over the baseline (LRU + naive seq-local\n\
         prefetcher), scale={} ('X' = baseline crashed; excluded from the\n\
         geomean, as in the paper)\n\n{}\n\
         Max speedup observed: {max_speedup:.2}x\n\
         Paper shape: ~parity on Type I/VI, large wins on Type IV and the\n\
         strided Type III apps; average 1.56x/1.64x, up to 10.97x;\n\
         MVT and BIC crash in the baseline but complete under CPPE.\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    fn rows() -> Vec<(String, &'static str, Option<f64>, Option<f64>)> {
        let cfg = ExpConfig::quick();
        collect(&cfg, &run_plan(&[EXPERIMENT], &cfg, 0))
    }

    #[test]
    fn cppe_wins_on_average_and_never_tanks() {
        let rows = rows();
        let all: Vec<Option<f64>> = rows.iter().flat_map(|(_, _, a, b)| [*a, *b]).collect();
        let avg = geomean(&all).expect("some completed runs");
        assert!(avg > 1.05, "CPPE average speedup {avg:.3} should exceed 1");
        for (app, _, s75, s50) in &rows {
            for s in [s75, s50].into_iter().flatten() {
                assert!(
                    *s > 0.5,
                    "{app}: CPPE must never halve performance ({s:.2})"
                );
            }
        }
    }

    #[test]
    fn mvt_bic_crash_in_baseline_complete_with_cppe() {
        let rows = rows();
        for target in ["MVT", "BIC"] {
            let (_, _, s75, s50) = rows.iter().find(|r| r.0 == target).unwrap();
            assert!(
                s75.is_none() && s50.is_none(),
                "{target} baseline must crash"
            );
        }
    }

    #[test]
    fn type4_shows_large_wins() {
        let rows = rows();
        let srd = rows.iter().find(|r| r.0 == "SRD").unwrap();
        assert!(srd.2.unwrap_or(0.0) > 1.3, "SRD @75% should win big");
        assert!(srd.3.unwrap_or(0.0) > 1.2, "SRD @50% should win");
    }
}
