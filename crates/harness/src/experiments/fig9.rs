//! Fig. 9 — "Comparison of other prior work to CPPE."
//!
//! Random, reserved LRU (10 %/20 %) — each with the naïve prefetcher —
//! and CPPE, all normalized to the baseline, grouped by access-pattern
//! type. Expected shape: reserved LRU helps thrashing types a little
//! (but below CPPE, and below Random on some apps), *hurts* Type VI
//! under 50 % oversubscription (paper: −27 % average for LRU-10 %), and
//! CPPE is better than or similar to everything across all types.

use crate::plan::{cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig, RATES};
use cppe::presets::PolicyPreset;
use workloads::{registry, PatternType};

/// Policies compared against the baseline.
pub const POLICIES: [PolicyPreset; 4] = [
    PolicyPreset::Random,
    PolicyPreset::ReservedLru10,
    PolicyPreset::ReservedLru20,
    PolicyPreset::Cppe,
];

/// Fig. 9 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig9", cells, render);

/// Every app under the baseline and each compared policy, at both rates.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let mut all = vec![PolicyPreset::Baseline];
    all.extend_from_slice(&POLICIES);
    cross(&registry::all(), &all, &RATES, cfg)
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 9 — speedup over the baseline, grouped by access-pattern type\n\
         (geomean within each type), scale={}\n\n",
        cfg.scale
    ));
    for rate in RATES {
        let mut table = Table::new(&["type", "random", "lru-10%", "lru-20%", "cppe"]);
        for ty in PatternType::all() {
            let members = registry::by_type(ty);
            let mut row = vec![format!("{} ({})", ty.roman(), members.len())];
            for preset in POLICIES {
                let speeds: Vec<Option<f64>> = members
                    .iter()
                    .map(|w| {
                        let base = results.cell(w.abbr, PolicyPreset::Baseline, rate, cfg);
                        speedup(base, results.cell(w.abbr, preset, rate, cfg))
                    })
                    .collect();
                row.push(fmt_speedup(geomean(&speeds)));
            }
            table.row(row);
        }
        out.push_str(&format!("-- {}% oversubscription --\n", rate * 100.0));
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str(
        "Paper shape: reserved LRU helps Type IV/V modestly but trails CPPE\n\
         (and Random on some apps); LRU-10% hurts Type VI at 50% (-27% avg);\n\
         CPPE is better than or similar to every policy on every type.\n",
    );
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_both_rates_and_all_types() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        assert!(report.contains("75% oversubscription"));
        assert!(report.contains("50% oversubscription"));
        for ty in PatternType::all() {
            assert!(report.contains(&format!("{} (", ty.roman())));
        }
    }
}
