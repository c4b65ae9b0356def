//! Sensitivity studies (§IV-B forward distance, §VI-A T3 limit).
//!
//! * **Forward distance** — MHPE with a pinned distance 1..=10, MRU
//!   pinned: per-app untouch levels. The paper's finding: regular apps'
//!   untouch drops sharply once the distance reaches ~2, irregular apps
//!   hold high levels until ~8 — hence the 2..=8 initial-distance range.
//! * **T3** — CPPE with T3 ∈ {16, 20, ..., 40} on the continuously
//!   adjusting apps (SRD, HSD, MRQ): average speedup over the baseline.
//!   The paper selects T3 = 32.

use crate::plan::{apps, cross, Experiment, Results};
use crate::report::{fmt_speedup, Report, Table};
use crate::runner::{geomean, speedup, Cell, ExpConfig};
use cppe::presets::PolicyPreset;

/// Apps used for the forward-distance sweep: two MRU-favouring regular
/// apps and two high-untouch irregular apps.
pub const FD_APPS: [&str; 4] = ["SRD", "HSD", "B+T", "NW"];

/// Apps used for the T3 sweep (paper: SRD, HSD, MRQ — the apps that
/// keep adjusting at runtime).
pub const T3_APPS: [&str; 3] = ["SRD", "HSD", "MRQ"];

/// Forward distances swept.
pub const FDS: std::ops::RangeInclusive<usize> = 1..=10;

/// T3 limits swept.
pub const T3S: [usize; 7] = [16, 20, 24, 28, 32, 36, 40];

/// Sensitivity studies as a plan entry.
pub const EXPERIMENT: Experiment = Experiment::new("sens", cells, render);

/// The pinned-MRU forward-distance cells, then the T3 sweep's cells
/// with their baselines, all at 50 %.
fn cells(cfg: &ExpConfig) -> Vec<Cell> {
    let fds: Vec<_> = FDS.map(PolicyPreset::MhpeFixedFd).collect();
    let mut t3s = vec![PolicyPreset::Baseline];
    t3s.extend(T3S.map(PolicyPreset::MhpeT3));
    let mut cells = cross(&apps(&FD_APPS), &fds, &[0.5], cfg);
    cells.extend(cross(&apps(&T3_APPS), &t3s, &[0.5], cfg));
    cells
}

/// Forward-distance sweep: rows `(fd, per-app (mean per-interval
/// untouch level, wrong evictions per 100 chunk evictions))`, apps in
/// [`FD_APPS`] order.
#[must_use]
pub fn fd_sweep(cfg: &ExpConfig, results: &Results) -> Vec<(usize, Vec<(f64, f64)>)> {
    let mut rows = Vec::new();
    for fd in FDS {
        let mut cells = Vec::new();
        for app in FD_APPS {
            let r = results.cell(app, PolicyPreset::MhpeFixedFd(fd), 0.5, cfg);
            let untouch = r.mhpe.as_ref().map_or(0.0, |t| {
                if t.interval_untouch.is_empty() {
                    0.0
                } else {
                    f64::from(t.interval_untouch.iter().sum::<u32>())
                        / t.interval_untouch.len() as f64
                }
            });
            let wrong_per_100 =
                100.0 * r.wrong_evictions as f64 / r.engine.chunk_evictions.max(1) as f64;
            cells.push((untouch, wrong_per_100));
        }
        rows.push((fd, cells));
    }
    rows
}

/// T3 sweep: `(t3, geomean speedup over baseline across T3_APPS)`.
#[must_use]
pub fn t3_sweep(cfg: &ExpConfig, results: &Results) -> Vec<(usize, Option<f64>)> {
    T3S.iter()
        .map(|&t3| {
            let speeds: Vec<_> = T3_APPS
                .iter()
                .map(|app| {
                    let base = results.cell(app, PolicyPreset::Baseline, 0.5, cfg);
                    speedup(base, results.cell(app, PolicyPreset::MhpeT3(t3), 0.5, cfg))
                })
                .collect();
            (t3, geomean(&speeds))
        })
        .collect()
}

/// The T3 values whose speedup shows as the sweep's best, as report
/// text: one value, every tied value, or the range of a flat sweep.
#[must_use]
pub fn best_t3(sweep: &[(usize, Option<f64>)]) -> String {
    let Some(best) = sweep.iter().filter_map(|s| s.1).reduce(f64::max) else {
        return "none (no T3 cell completed)".into();
    };
    // Ties at the precision the table prints.
    let shown = fmt_speedup(Some(best));
    let tied: Vec<String> = sweep
        .iter()
        .filter(|s| fmt_speedup(s.1) == shown)
        .map(|s| s.0.to_string())
        .collect();
    match tied.len() {
        1 => format!("{} at {shown}x", tied[0]),
        n if n == sweep.len() => {
            format!(
                "{}–{}, tied at {shown}x (the sweep is flat)",
                tied[0],
                tied[n - 1]
            )
        }
        _ => format!("{}, tied at {shown}x", tied.join(", ")),
    }
}

/// Render both sweeps.
fn render(cfg: &ExpConfig, results: &Results) -> Report {
    let mut out = String::new();
    out.push_str(&format!(
        "Sensitivity studies (§IV-B / §VI-A), 50% oversubscription, scale={}\n\n\
         -- Forward distance 1..=10 (MHPE pinned MRU): mean per-interval untouch --\n",
        cfg.scale
    ));
    let mut header: Vec<String> = vec!["fd".into()];
    for app in FD_APPS {
        header.push(format!("{app}:untouch"));
        header.push(format!("{app}:wrong%"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    let mut table = Table::new(&header_refs);
    for (fd, cells) in fd_sweep(cfg, results) {
        let mut row = vec![fd.to_string()];
        for (untouch, wrong_per_100) in cells {
            row.push(format!("{untouch:.1}"));
            row.push(format!("{wrong_per_100:.1}"));
        }
        table.row(row);
    }
    out.push_str(&table.render());

    out.push_str("\n-- T3 limit sweep (CPPE, geomean speedup over baseline on SRD/HSD/MRQ) --\n");
    let mut table = Table::new(&["t3", "speedup"]);
    let sweep = t3_sweep(cfg, results);
    for (t3, s) in &sweep {
        table.row(vec![t3.to_string(), fmt_speedup(*s)]);
    }
    out.push_str(&table.render());
    out.push_str(&format!(
        "\nBest T3 in this run: {}; the paper selects 32.\n\
         Paper shape: regular apps' untouch level drops sharply by fd=2;\n\
         irregular apps stay high until ~8 — motivating the 2..=8 range.\n",
        best_t3(&sweep)
    ));
    out.into()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::run_plan;

    #[test]
    fn fd_sweep_produces_ten_rows() {
        let cfg = ExpConfig::quick();
        let rows = fd_sweep(&cfg, &run_plan(&[EXPERIMENT], &cfg, 0));
        assert_eq!(rows.len(), 10);
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[9].0, 10);
        assert!(rows.iter().all(|(_, cells)| cells.len() == FD_APPS.len()));
    }

    #[test]
    fn best_t3_names_one_value_or_every_tie() {
        let sweep = |s: &[f64]| -> Vec<(usize, Option<f64>)> {
            T3S.iter().zip(s).map(|(&t, &s)| (t, Some(s))).collect()
        };
        let one = sweep(&[1.1, 1.2, 1.3, 1.25, 1.2, 1.1, 1.0]);
        assert_eq!(best_t3(&one), "24 at 1.30x");
        let flat = sweep(&[1.262, 1.258, 1.26, 1.26, 1.26, 1.26, 1.256]);
        assert_eq!(best_t3(&flat), "16–40, tied at 1.26x (the sweep is flat)");
        let run = sweep(&[1.0, 1.3, 1.3, 1.3, 1.2, 1.1, 1.0]);
        assert_eq!(best_t3(&run), "20, 24, 28, tied at 1.30x");
        let apart = sweep(&[1.3, 1.2, 1.3, 1.1, 1.1, 1.1, 1.3]);
        assert_eq!(best_t3(&apart), "16, 24, 40, tied at 1.30x");
        let mut crashed = sweep(&[1.0; 7]);
        crashed.iter_mut().for_each(|c| c.1 = None);
        assert_eq!(best_t3(&crashed), "none (no T3 cell completed)");
        crashed[3].1 = Some(0.9);
        assert_eq!(best_t3(&crashed), "28 at 0.90x");
    }

    #[test]
    fn t3_sweep_covers_paper_range() {
        let cfg = ExpConfig::quick();
        let rows = t3_sweep(&cfg, &run_plan(&[EXPERIMENT], &cfg, 0));
        let t3s: Vec<usize> = rows.iter().map(|(t, _)| *t).collect();
        assert_eq!(t3s, vec![16, 20, 24, 28, 32, 36, 40]);
    }
}
