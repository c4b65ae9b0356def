//! Table III — "Maximum untouch level in first four intervals."
//!
//! §VI-A: with MHPE pinned to MRU (switching disabled, as in the
//! sensitivity study that derived T1), record the per-interval total
//! untouch level over the first four intervals after memory fills, and
//! report the maximum — at 75 % and 50 % oversubscription, sorted
//! descending by the 75 % value as in the paper.

use crate::plan::{cross, Experiment, Results};
use crate::report::{Report, Table};
use crate::runner::{Cell, ExpConfig, RATES};
use cppe::evict::MhpeTrace;
use cppe::presets::PolicyPreset;
use workloads::registry;

/// Table III as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("table3", cells, render);

/// Every app under pinned-MRU MHPE at both rates (Table IV reads the
/// same cells).
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    cross(&registry::all(), &[PolicyPreset::MhpeNoSwitch], &RATES, cfg)
}

/// `(app, stat@75, stat@50)` for every app, sorted descending by the
/// larger of the two.
#[must_use]
pub fn collect(
    cfg: &ExpConfig,
    results: &Results,
    stat: fn(&MhpeTrace) -> u32,
) -> Vec<(String, u32, u32)> {
    let mut rows: Vec<_> = registry::all()
        .iter()
        .map(|spec| {
            let get = |rate| {
                let r = results.cell(spec.abbr, PolicyPreset::MhpeNoSwitch, rate, cfg);
                r.mhpe.as_ref().map_or(0, stat)
            };
            (spec.abbr.to_string(), get(RATES[0]), get(RATES[1]))
        })
        .collect();
    rows.sort_by_key(|r| std::cmp::Reverse(r.1.max(r.2)));
    rows
}

/// The table body: one row per app, skipping apps at 0 at both rates
/// (the paper omits them).
#[must_use]
pub fn table(rows: &[(String, u32, u32)]) -> String {
    let mut table = Table::new(&["app", "75%", "50%"]);
    for (app, hi, lo) in rows {
        if *hi != 0 || *lo != 0 {
            table.row(vec![app.clone(), hi.to_string(), lo.to_string()]);
        }
    }
    table.render()
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let rows = collect(cfg, results, MhpeTrace::max_untouch_first4);
    format!(
        "Table III — maximum per-interval untouch level in the first four\n\
         intervals (MHPE pinned to MRU), scale={}\n\
         (apps with level 0 at both rates omitted, as in the paper)\n\n{}\n\
         Paper shape: wide range (0..60); B+T/HIS/BFS/HYB/MVT/NW high;\n\
         SRD/HSD/LEU low (these favour MRU and must stay below T1=32).\n",
        cfg.scale,
        table(&rows)
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    fn rows() -> Vec<(String, u32, u32)> {
        let cfg = ExpConfig::quick();
        let results = run_plan(&[EXPERIMENT], &cfg, 0);
        collect(&cfg, &results, MhpeTrace::max_untouch_first4)
    }

    #[test]
    fn type4_thrashers_stay_below_t1() {
        let rows = rows();
        for (app, hi, lo) in &rows {
            if app == "SRD" || app == "HSD" {
                assert!(
                    *hi < 32 && *lo < 32,
                    "{app} untouch ({hi},{lo}) must stay below T1=32 so MHPE keeps MRU"
                );
            }
        }
    }

    #[test]
    fn sparse_apps_exceed_t1() {
        let rows = rows();
        let find = |a: &str| rows.iter().find(|r| r.0 == a).map(|r| (r.1, r.2)).unwrap();
        let (bt75, bt50) = find("B+T");
        assert!(
            bt75 >= 32 || bt50 >= 32,
            "B+T untouch ({bt75},{bt50}) must cross T1 so MHPE switches to LRU"
        );
        let (mvt75, mvt50) = find("MVT");
        assert!(mvt75 >= 32 || mvt50 >= 32, "MVT ({mvt75},{mvt50})");
    }
}
