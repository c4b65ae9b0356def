//! Table IV — "Total untouch level in the first four intervals."
//!
//! §VI-A: the T2 threshold derivation. Apps whose Table III maximum
//! exceeds T1 (32) are removed (they already switch via T1); for the
//! rest, report the *total* untouch level over the first four
//! intervals at both rates. It reads Table III's cells.

use crate::experiments::table3::{self, collect, table};
use crate::plan::{Experiment, Results};
use crate::report::Report;
use crate::runner::ExpConfig;
use cppe::evict::MhpeTrace;

/// Table IV as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("table4", table3::EXPERIMENT.cells, render);

/// `(app, total@75, total@50)` for apps whose Table III maximum stays
/// below T1 at both rates.
#[must_use]
pub fn totals(cfg: &ExpConfig, results: &Results) -> Vec<(String, u32, u32)> {
    let t1 = 32;
    let maxes = collect(cfg, results, MhpeTrace::max_untouch_first4);
    let mut rows = collect(cfg, results, MhpeTrace::total_untouch_first4);
    rows.retain(|(app, _, _)| {
        maxes
            .iter()
            .any(|(a, hi, lo)| a == app && *hi < t1 && *lo < t1)
    });
    rows
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    format!(
        "Table IV — total untouch level over the first four intervals\n\
         (apps whose Table III maximum exceeded T1=32 removed), scale={}\n\n{}\n\
         Paper shape: same ordering trend as Table III; T2=40 separates\n\
         the medium-untouch apps (switch to LRU at interval 4) from the\n\
         MRU-favouring apps (HSD, LEU, SRD).\n",
        cfg.scale,
        table(&totals(cfg, results))
    )
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    #[test]
    fn mru_favouring_apps_stay_below_t2() {
        let cfg = ExpConfig::quick();
        let rows = totals(&cfg, &run_plan(&[EXPERIMENT], &cfg, 0));
        for (app, hi, lo) in &rows {
            if app == "SRD" {
                assert!(
                    *hi < 40 && *lo < 40,
                    "SRD totals ({hi},{lo}) must stay below T2=40"
                );
            }
        }
    }
}
