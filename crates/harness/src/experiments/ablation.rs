//! Ablation study (extension beyond the paper's figures): which half of
//! CPPE does the work — the MHPE eviction policy or the pattern-aware
//! prefetcher — and how does the tree-neighbourhood prefetcher
//! (Ganguly et al.'s CUDA-driver model, which the paper discusses but
//! does not evaluate) compare?
//!
//! Grid: {LRU, MHPE} eviction × {naive seq-local, pattern-aware}
//! prefetch, plus LRU+tree, on one app per pattern type, 50 %
//! oversubscription, all normalized to the baseline (LRU+naive).

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// One representative app per pattern type.
pub const APPS: [&str; 6] = ["2DC", "KMN", "NW", "SRD", "HIS", "B+T"];

/// The report's columns, in order, each normalized to the baseline.
pub const POLICIES: [PolicyPreset; 6] = [
    PolicyPreset::MhpeOnly,
    PolicyPreset::LruPattern,
    PolicyPreset::Cppe,
    PolicyPreset::LruTree,
    PolicyPreset::Clock,
    PolicyPreset::Srrip,
];

/// The ablation as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("ablation", cells, render);

/// Each app under the baseline and every column's policy at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let mut all = vec![PolicyPreset::Baseline];
    all.extend_from_slice(&POLICIES);
    cross(&apps(&APPS), &all, &[0.5], cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut table = Table::new(&[
        "app",
        "mhpe+naive",
        "lru+pattern",
        "cppe",
        "lru+tree",
        "clock",
        "srrip",
    ]);
    let mut cols: Vec<Vec<Option<f64>>> = vec![Vec::new(); 6];
    for app in APPS {
        let base = results.cell(app, PolicyPreset::Baseline, 0.5, cfg);
        let mut row = vec![app.to_string()];
        for (i, &preset) in POLICIES.iter().enumerate() {
            let s = speedup(base, results.cell(app, preset, 0.5, cfg));
            cols[i].push(s);
            row.push(fmt_speedup(s));
        }
        table.row(row);
    }
    let mut avg = vec!["geomean".to_string()];
    for col in &cols {
        avg.push(fmt_speedup(geomean(col)));
    }
    table.row(avg);

    format!(
        "Ablation (extension) — which half of CPPE does the work?\n\
         Speedup over the baseline (LRU+naive), 50% oversubscription, scale={}\n\n{}\n\
         Expected: MHPE alone carries the thrashing apps (SRD), the pattern\n\
         prefetcher alone carries the strided apps (NW, HIS), CPPE combines\n\
         both; the tree prefetcher behaves like a more aggressive naive\n\
         prefetcher; CLOCK/SRRIP (classic CPU/OS anti-thrash policies at\n\
         chunk granularity) land between LRU and MHPE on the thrashers.\n",
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_separates_the_mechanisms() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        for app in APPS {
            assert!(report.contains(app));
        }
        assert!(report.contains("geomean"));
    }
}
