//! Fig. 7 — "Comparison of pattern deletion scheme."
//!
//! §VI-B: CPPE with deletion Scheme-1 vs Scheme-2 on the apps whose
//! pattern buffer is actually exercised. Expected shape: similar for
//! MVT/SPV/B+T/BIC/SAD; Scheme-2 wins for stable-stride apps (NW, HIS);
//! Scheme-1 wins for slowly-populating apps (BFS, HWL); Scheme-2 ahead
//! on average (~3 % / ~7 % in the paper), making it CPPE's default.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig, RATES};
use cppe::presets::PolicyPreset;

/// Apps shown in Fig. 7.
pub const APPS: [&str; 9] = ["MVT", "SPV", "B+T", "BIC", "SAD", "BFS", "NW", "HWL", "HIS"];

/// Fig. 7 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig7", cells, render);

/// Each app under both deletion schemes at both rates.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let presets = [PolicyPreset::CppeScheme1, PolicyPreset::Cppe];
    cross(&apps(&APPS), &presets, &RATES, cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut table = Table::new(&["app", "s2/s1 @75%", "s2/s1 @50%"]);
    let mut col75 = Vec::new();
    let mut col50 = Vec::new();
    for app in APPS {
        let mut row = vec![app.to_string()];
        for (rate, col) in [(RATES[0], &mut col75), (RATES[1], &mut col50)] {
            let s1 = results.cell(app, PolicyPreset::CppeScheme1, rate, cfg);
            let s2 = results.cell(app, PolicyPreset::Cppe, rate, cfg);
            let s = speedup(s1, s2);
            col.push(s);
            row.push(fmt_speedup(s));
        }
        table.row(row);
    }
    table.row(vec![
        "geomean".into(),
        fmt_speedup(geomean(&col75)),
        fmt_speedup(geomean(&col50)),
    ]);

    format!(
        "Fig. 7 — Scheme-2 speedup over Scheme-1 (pattern deletion policies),\n\
         scale={}\n\n{}\n\
         Paper shape: parity for MVT/SPV/B+T/BIC/SAD; Scheme-2 ahead for\n\
         stable-stride NW/HIS; Scheme-1 ahead for slow-populating BFS/HWL;\n\
         Scheme-2 ~3%/7% ahead on average (it is CPPE's default).\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_covers_fig7_apps() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        for app in APPS {
            assert!(report.contains(app));
        }
    }
}
