//! Fig. 3 — "Comparison of LRU with Random and reserved LRU."
//!
//! Motivation experiment (§III, Inefficiency 2): Random and reserved
//! LRU (10 %/20 %) against plain LRU, all with the naïve sequential-
//! local prefetcher, at 50 % oversubscription, on the four thrashing
//! apps (SRD, HSD, MRQ, STN) plus the two region-moving apps (B+T,
//! HYB). Expected shape: reserved LRU gains are limited on thrashers
//! (≤ ~11 % in the paper, sometimes below Random) and it *hurts*
//! B+T/HYB.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// Apps shown in Fig. 3.
pub const APPS: [&str; 6] = ["SRD", "HSD", "MRQ", "STN", "B+T", "HYB"];

/// Policies compared (all + naïve prefetcher); LRU is the normalizer.
pub const POLICIES: [PolicyPreset; 4] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru10,
    PolicyPreset::ReservedLru20,
];

/// Fig. 3 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig3", cells, render);

/// Every app under every policy at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    cross(&apps(&APPS), &POLICIES, &[0.5], cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut table = Table::new(&["app", "random", "lru-10%", "lru-20%"]);
    let mut cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); 3];
    for app in APPS {
        let base = results.cell(app, PolicyPreset::Baseline, 0.5, cfg);
        let mut row = vec![app.to_string()];
        for (i, &preset) in POLICIES[1..].iter().enumerate() {
            let s = speedup(base, results.cell(app, preset, 0.5, cfg));
            cols[i].push(s);
            row.push(fmt_speedup(s));
        }
        table.row(row);
    }
    let mut avg_row = vec!["geomean".to_string()];
    for col in &cols {
        avg_row.push(fmt_speedup(geomean(col)));
    }
    table.row(avg_row);

    format!(
        "Fig. 3 — speedup over LRU (all policies + naive seq-local prefetcher),\n\
         50% oversubscription, scale={}\n\n{}\n\
         Paper shape: reserved LRU gains on thrashers are limited (<= ~11%),\n\
         sometimes below Random; B+T/HYB lose under reservation (up to -53%).\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_contains_all_apps_and_average() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        for app in APPS {
            assert!(report.contains(app), "missing {app}");
        }
        assert!(report.contains("geomean"));
    }
}
