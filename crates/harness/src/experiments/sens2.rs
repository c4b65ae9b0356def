//! Extended sensitivity studies (beyond §VI-A): the switch thresholds
//! T1/T2 and the far-fault service cost.
//!
//! * **T1/T2** — the paper fixes T1 = 32, T2 = 40 from Tables III/IV.
//!   Here we sweep T1 with T2 disabled (the cumulative T2 check
//!   otherwise compensates for a mis-set T1) and measure the geomean
//!   CPPE speedup across one app per pattern type: too high a threshold
//!   leaves the sparse apps thrashing on MRU.
//! * **Fault cost** — the 20 µs far-fault latency is "optimistic" (§V);
//!   real systems see up to ~45 µs. Sweeping it shows CPPE's advantage
//!   grows with fault cost (fewer faults matter more), a robustness
//!   check on the headline result.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// One representative app per pattern type.
pub const APPS: [&str; 6] = ["2DC", "KMN", "NW", "SRD", "HIS", "B+T"];

/// T1 values swept (T2 disabled, isolating the first threshold).
pub const T1_VALUES: [u32; 5] = [16, 24, 32, 40, 48];

/// Far-fault base latencies swept, in µs (paper: 20).
pub const FAULT_US: [u64; 4] = [10, 20, 30, 45];

/// Extended sensitivity as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("sens2", cells, render);

/// `cfg` with a far-fault base latency of `us` microseconds.
fn at_fault_cost(cfg: &ExpConfig, us: u64) -> ExpConfig {
    let mut cfg = *cfg;
    cfg.gpu.fault_base_cycles = us * 1400;
    cfg
}

/// Geomean speedup of `preset` over the baseline across [`APPS`] at
/// 50 %.
fn over_baseline(cfg: &ExpConfig, results: &Results, preset: PolicyPreset) -> Option<f64> {
    let speeds: Vec<_> = APPS
        .iter()
        .map(|app| {
            let base = results.cell(app, PolicyPreset::Baseline, 0.5, cfg);
            speedup(base, results.cell(app, preset, 0.5, cfg))
        })
        .collect();
    geomean(&speeds)
}

/// The T1 sweep and the disable-on-full reference, then CPPE at each
/// fault cost; every policy with its baseline, at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let specs = apps(&APPS);
    let mut presets = vec![PolicyPreset::Baseline, PolicyPreset::DisablePfOnFull];
    presets.extend(T1_VALUES.map(PolicyPreset::MhpeT1));
    let mut cells = cross(&specs, &presets, &[0.5], cfg);
    for us in FAULT_US {
        let presets = [PolicyPreset::Baseline, PolicyPreset::Cppe];
        cells.extend(cross(&specs, &presets, &[0.5], &at_fault_cost(cfg, us)));
    }
    cells
}

/// T1/T2 sweep rows: `(t1, geomean speedup over baseline)`.
#[must_use]
pub fn t1_sweep(cfg: &ExpConfig, results: &Results) -> Vec<(u32, Option<f64>)> {
    T1_VALUES
        .iter()
        .map(|&t1| (t1, over_baseline(cfg, results, PolicyPreset::MhpeT1(t1))))
        .collect()
}

/// Fault-cost sweep rows: `(µs, geomean CPPE speedup over baseline)`.
#[must_use]
pub fn fault_cost_sweep(cfg: &ExpConfig, results: &Results) -> Vec<(u64, Option<f64>)> {
    FAULT_US
        .iter()
        .map(|&us| {
            let cfg = at_fault_cost(cfg, us);
            (us, over_baseline(&cfg, results, PolicyPreset::Cppe))
        })
        .collect()
}

fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Extended sensitivity (beyond §VI-A), 50% oversubscription, scale={}\n\n\
         -- T1 sweep (T2 disabled): geomean CPPE speedup over baseline --\n",
        cfg.scale
    ));
    let mut table = Table::new(&["t1", "speedup"]);
    for (t1, s) in t1_sweep(cfg, results) {
        let marker = if t1 == 32 { " (paper)" } else { "" };
        table.row(vec![format!("{t1}{marker}"), fmt_speedup(s)]);
    }
    out.push_str(&table.render());

    out.push_str("\n-- Far-fault base latency sweep: geomean CPPE speedup --\n");
    let mut table = Table::new(&["fault-us", "speedup"]);
    for (us, s) in fault_cost_sweep(cfg, results) {
        let marker = if us == 20 { " (paper)" } else { "" };
        table.row(vec![format!("{us}{marker}"), fmt_speedup(s)]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\n(disable-on-full reference at 20us: {})\n\
         Expected: the paper's T1=32 sits at or near the sweep optimum, and\n\
         CPPE's advantage is robust (or grows) as faults get more expensive.\n",
        fmt_speedup(over_baseline(cfg, results, PolicyPreset::DisablePfOnFull))
    ));
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    #[test]
    fn sweeps_cover_declared_ranges() {
        let cfg = ExpConfig::quick();
        let results = run_plan(&[EXPERIMENT], &cfg, 0);
        let t1s: Vec<u32> = t1_sweep(&cfg, &results).iter().map(|(t, _)| *t).collect();
        assert_eq!(t1s, T1_VALUES.to_vec());
        let uss: Vec<u64> = fault_cost_sweep(&cfg, &results)
            .iter()
            .map(|(u, _)| *u)
            .collect();
        assert_eq!(uss, FAULT_US.to_vec());
    }
}
