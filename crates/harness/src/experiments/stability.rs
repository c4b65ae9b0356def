//! Extension: robustness of the headline result to SM timing jitter.
//!
//! The simulator's only stochastic element (given a policy seed) is the
//! per-access compute jitter that models SM timing skew. This
//! experiment re-runs the Fig. 8 headline subset under several jitter
//! seeds and reports the spread of CPPE's speedup — if the reproduction
//! only held for one lucky seed it would show here.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{Report, Table};
use crate::runner::{speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// Headline subset: one app per pattern type.
pub const APPS: [&str; 6] = ["2DC", "KMN", "NW", "SRD", "HIS", "B+T"];

/// Jitter seeds exercised.
pub const SEEDS: [u64; 5] = [1, 2, 3, 5, 8];

/// Stability as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("stability", cells, render);

/// `cfg` with SM-timing jitter seed `seed`.
fn with_jitter(cfg: &ExpConfig, seed: u64) -> ExpConfig {
    let mut cfg = *cfg;
    cfg.gpu.jitter_seed = seed;
    cfg
}

/// Baseline and CPPE at 50 % under every jitter seed.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let presets = [PolicyPreset::Baseline, PolicyPreset::Cppe];
    SEEDS
        .iter()
        .flat_map(|&seed| cross(&apps(&APPS), &presets, &[0.5], &with_jitter(cfg, seed)))
        .collect()
}

/// Per-app speedups across seeds.
#[must_use]
pub fn collect(cfg: &ExpConfig, results: &Results) -> Vec<(String, Vec<Option<f64>>)> {
    APPS.iter()
        .map(|app| {
            let speeds = SEEDS
                .iter()
                .map(|&seed| {
                    let cfg = with_jitter(cfg, seed);
                    let base = results.cell(app, PolicyPreset::Baseline, 0.5, &cfg);
                    speedup(base, results.cell(app, PolicyPreset::Cppe, 0.5, &cfg))
                })
                .collect();
            (app.to_string(), speeds)
        })
        .collect()
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let rows = collect(cfg, results);
    let mut table = Table::new(&["app", "min", "mean", "max", "spread%"]);
    for (app, speeds) in &rows {
        let vals: Vec<f64> = speeds.iter().flatten().copied().collect();
        if vals.is_empty() {
            table.row(vec![
                app.clone(),
                "X".into(),
                "X".into(),
                "X".into(),
                "-".into(),
            ]);
            continue;
        }
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0f64, f64::max);
        let mean = vals.iter().sum::<f64>() / vals.len() as f64;
        table.row(vec![
            app.clone(),
            format!("{min:.2}"),
            format!("{mean:.2}"),
            format!("{max:.2}"),
            format!("{:.1}", 100.0 * (max - min) / mean),
        ]);
    }
    format!(
        "Stability (extension) — CPPE speedup over the baseline across\n\
         {} SM-timing jitter seeds, 50% oversubscription, scale={}\n\n{}\n\
         Expected: per-app spreads of a few percent; no app flips between\n\
         winning and losing across seeds.\n",
        SEEDS.len(),
        cfg.scale,
        table.render()
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    #[test]
    fn speedups_do_not_flip_sign_across_seeds() {
        let cfg = ExpConfig::quick();
        for (app, speeds) in collect(&cfg, &run_plan(&[EXPERIMENT], &cfg, 0)) {
            let vals: Vec<f64> = speeds.iter().flatten().copied().collect();
            assert!(!vals.is_empty(), "{app} produced no completed runs");
            let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = vals.iter().cloned().fold(0.0f64, f64::max);
            // A seed must never turn a solid win into a solid loss.
            assert!(
                !(min < 0.9 && max > 1.1),
                "{app}: speedup flips across seeds ({min:.2}..{max:.2})"
            );
        }
    }
}
