//! Fig. 10 — "Performance of disabling prefetch when memory full."
//!
//! §VI-B: disable-on-full and CPPE against the baseline on the apps
//! that thrash in the baseline. Where the baseline crashed (MVT, BIC),
//! performance is normalized to disable-on-full instead, exactly as the
//! paper does ("we normalized CPPE's performance to this method").
//! Expected shape: disabling prefetch costs a lot for the less-thrashy
//! apps, wins for the severe thrashers, and CPPE beats disabling for
//! everything except SAD.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{speedup, Cell, ExpConfig, RATES};
use cppe::presets::PolicyPreset;
use gpu::Outcome;

/// The thrash-prone set shown in the figure (Fig. 4 qualifiers plus the
/// streaming contrast apps the paper discusses in §VI-B).
pub const APPS: [&str; 8] = ["SAD", "NW", "MVT", "BIC", "SRD", "HSD", "HYB", "2DC"];

/// Fig. 10 as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("fig10", cells, render);

/// Each app under the baseline, disable-on-full and CPPE, at both rates.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    cross(
        &apps(&APPS),
        &[
            PolicyPreset::Baseline,
            PolicyPreset::DisablePfOnFull,
            PolicyPreset::Cppe,
        ],
        &RATES,
        cfg,
    )
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Fig. 10 — disabling prefetch when memory fills vs baseline vs CPPE,\n\
         scale={} ('X' = baseline crashed; those rows are normalized to\n\
         disable-on-full instead, as in the paper)\n\n",
        cfg.scale
    ));
    for rate in RATES {
        let mut table = Table::new(&["app", "nopf-on-full", "cppe", "normalizer"]);
        for app in APPS {
            let base = results.cell(app, PolicyPreset::Baseline, rate, cfg);
            let nopf = results.cell(app, PolicyPreset::DisablePfOnFull, rate, cfg);
            let cppe = results.cell(app, PolicyPreset::Cppe, rate, cfg);
            if base.outcome == Outcome::Crashed {
                table.row(vec![
                    app.to_string(),
                    "1.00".into(),
                    fmt_speedup(speedup(nopf, cppe)),
                    "X → nopf-on-full".into(),
                ]);
            } else {
                table.row(vec![
                    app.to_string(),
                    fmt_speedup(speedup(base, nopf)),
                    fmt_speedup(speedup(base, cppe)),
                    "baseline".into(),
                ]);
            }
        }
        out.push_str(&format!("-- {}% oversubscription --\n", rate * 100.0));
        out.push_str(&table.render());
        out.push('\n');
    }
    out.push_str(
        "Paper shape: disabling prefetch slows the regular apps severely\n\
         (up to ~85%), wins only for severe thrashers (SAD@50%, NW, MVT,\n\
         BIC); CPPE beats disabling everywhere except SAD.\n",
    );
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabling_prefetch_hurts_streaming() {
        let cfg = ExpConfig::quick();
        let report = EXPERIMENT.run(&cfg, 0).text;
        assert!(report.contains("2DC"));
        // 2DC's nopf-on-full speedup must be well below 1.
        let line = report
            .lines()
            .find(|l| l.starts_with("2DC"))
            .expect("2DC row");
        let first_num: f64 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .expect("numeric cell");
        assert!(
            first_num < 0.9,
            "2DC nopf speedup {first_num} should be << 1"
        );
    }
}
