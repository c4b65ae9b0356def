//! Output checks: per-cell fingerprints and the seed-0 reference table.
//!
//! A fingerprint is every counter a run reports: outcome, cycles,
//! accesses, each `EngineStats`, `DriverStats` and `TranslationStats`
//! counter, PCIe bytes, free frames and resident pages. The simulator is
//! deterministic, so a cell's fingerprint must equal the committed
//! reference at seed 0 and its own round-0 fingerprint in every later
//! round.

use crate::workload::{Cell, Setup, Workload};
use gpu::{Outcome, RunResult};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Columns that identify a cell in the reference table.
const KEY_COLUMNS: [&str; 5] = ["app", "preset", "rate", "scale", "lanes"];

/// Everything a run observably computed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// `Completed`, `Degraded`, `Crashed` or `Timeout`.
    pub outcome: &'static str,
    /// Named counters in table-column order.
    pub counters: Vec<(&'static str, u64)>,
}

impl Fingerprint {
    /// Fingerprint of a finished run.
    #[must_use]
    pub fn of(r: &RunResult) -> Fingerprint {
        let t = &r.translation;
        let mut counters = vec![("cycles", r.cycles), ("accesses", r.accesses)];
        counters.extend(r.engine.metrics());
        counters.push(("cppe.chain_max_len", r.engine.chain_max_len as u64));
        counters.extend(r.driver.metrics());
        counters.extend([
            ("xlat.l1_hits", t.l1_hits),
            ("xlat.l1_misses", t.l1_misses),
            ("xlat.l2_hits", t.l2_hits),
            ("xlat.l2_misses", t.l2_misses),
            ("xlat.pwc_hits", t.pwc_hits),
            ("xlat.pwc_misses", t.pwc_misses),
            ("xlat.walks", t.walks),
            ("xlat.faulting_walks", t.faulting_walks),
            ("bytes_h2d", r.bytes_h2d),
            ("bytes_d2h", r.bytes_d2h),
            ("frames_free", u64::from(r.frames_free)),
            ("resident_pages", r.resident_pages),
        ]);
        Fingerprint {
            outcome: outcome_name(r.outcome),
            counters,
        }
    }

    /// Field-by-field differences against `want`, one line per field.
    #[must_use]
    pub fn diff(&self, want: &Fingerprint) -> Vec<String> {
        let mut out = Vec::new();
        if self.outcome != want.outcome {
            out.push(format!(
                "outcome: want {} got {}",
                want.outcome, self.outcome
            ));
        }
        for (&(name, got), &(_, wanted)) in self.counters.iter().zip(&want.counters) {
            if got != wanted {
                out.push(format!("{name}: want {wanted} got {got}"));
            }
        }
        out
    }
}

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "Completed",
        Outcome::Degraded => "Degraded",
        Outcome::Crashed => "Crashed",
        Outcome::Timeout => "Timeout",
    }
}

/// Problems with one cell run: a service-path error, leaked frames, or
/// a fingerprint that differs from `want`. Empty means the run passed.
/// A `Crashed` outcome is not itself a problem: MVT/BIC thrash to death
/// under the baseline, and the reference records that.
#[must_use]
pub fn problems(r: &RunResult, fp: &Fingerprint, want: Option<&Fingerprint>) -> Vec<String> {
    let mut out = Vec::new();
    if let Some(e) = &r.error {
        out.push(format!("service-path error: {e}"));
    }
    let in_use = u64::from(r.frames_capacity.saturating_sub(r.frames_free));
    if in_use != r.resident_pages {
        out.push(format!(
            "frames in use {in_use} != resident pages {}",
            r.resident_pages
        ));
    }
    if let Some(want) = want {
        out.extend(fp.diff(want));
    }
    out
}

/// Reference-table key of a cell: `app/preset/rate`.
#[must_use]
pub fn cell_key(w: &Workload, cell: &Cell) -> String {
    format!("{}/{}/{}", w.apps[cell.app], cell.preset.label(), cell.rate)
}

/// Path of a workload's committed reference table.
#[must_use]
pub fn reference_path(w: &Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{}.tsv", w.name))
}

/// Render the reference table for `rows` (cells in run order).
#[must_use]
pub fn render_reference(w: &Workload, rows: &[(Cell, Fingerprint)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} at seed 0; regenerate with `run --workload {} --bless`",
        w.name, w.name
    );
    let mut header: Vec<&str> = KEY_COLUMNS.to_vec();
    header.push("outcome");
    if let Some((_, fp)) = rows.first() {
        header.extend(fp.counters.iter().map(|&(k, _)| k));
    }
    out.push_str(&header.join("\t"));
    out.push('\n');
    for (cell, fp) in rows {
        let mut fields = vec![
            w.apps[cell.app].to_string(),
            cell.preset.label(),
            cell.rate.to_string(),
            w.scale.to_string(),
            Setup::new(w, 0).gpu.lanes().to_string(),
            fp.outcome.to_string(),
        ];
        fields.extend(fp.counters.iter().map(|&(_, v)| v.to_string()));
        out.push_str(&fields.join("\t"));
        out.push('\n');
    }
    out
}

/// Parse a reference table into `cell key → fingerprint`.
///
/// # Errors
/// Returns a message for a header whose counter columns differ from
/// today's fingerprint (re-bless), a short row, an unknown outcome or a
/// non-numeric counter.
pub fn parse_reference(text: &str) -> Result<BTreeMap<String, Fingerprint>, String> {
    let columns: Vec<&'static str> = Fingerprint::of(&RunResult::failed(""))
        .counters
        .iter()
        .map(|&(k, _)| k)
        .collect();
    let mut lines = text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.is_empty());
    let header: Vec<&str> = lines
        .next()
        .ok_or("empty reference table")?
        .split('\t')
        .collect();
    if header.get(KEY_COLUMNS.len() + 1..) != Some(&columns[..]) {
        return Err("reference columns differ from the fingerprint; re-bless".into());
    }
    let mut out = BTreeMap::new();
    for (n, line) in lines.enumerate() {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != header.len() {
            return Err(format!("reference row {} has {} fields", n + 1, f.len()));
        }
        let outcome = match f[KEY_COLUMNS.len()] {
            "Completed" => "Completed",
            "Degraded" => "Degraded",
            "Crashed" => "Crashed",
            "Timeout" => "Timeout",
            other => return Err(format!("reference row {}: outcome {other:?}", n + 1)),
        };
        let mut counters = Vec::with_capacity(columns.len());
        for (&name, v) in columns.iter().zip(&f[KEY_COLUMNS.len() + 1..]) {
            let v: u64 = v
                .parse()
                .map_err(|_| format!("reference row {}: {name} = {v:?}", n + 1))?;
            counters.push((name, v));
        }
        out.insert(
            format!("{}/{}/{}", f[0], f[1], f[2]),
            Fingerprint { outcome, counters },
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::WORKLOADS;
    use cppe::presets::PolicyPreset;

    #[test]
    fn reference_round_trips_and_diffs_name_fields() {
        let w = Workload {
            scale: 0.25,
            ..WORKLOADS[1]
        };
        let setup = Setup::new(&w, 0);
        let app = setup.app(w.apps[0]);
        let cell = Cell {
            app: 0,
            preset: PolicyPreset::HpeNoPf,
            rate: 0.5,
        };
        let (r, _) = setup.run(&app, &cell);
        let fp = Fingerprint::of(&r);
        assert!(problems(&r, &fp, Some(&fp)).is_empty());

        let text = render_reference(&w, &[(cell, fp.clone())]);
        let table = parse_reference(&text).expect("parses");
        assert_eq!(table[&cell_key(&w, &cell)], fp);

        let mut off = fp.clone();
        off.counters[0].1 += 1;
        let d = off.diff(&fp);
        assert_eq!(d.len(), 1);
        assert!(d[0].starts_with("cycles: want"), "{d:?}");
    }

    #[test]
    fn committed_references_cover_every_cell() {
        for w in &WORKLOADS {
            let text = std::fs::read_to_string(reference_path(w)).expect("reference exists");
            let table = parse_reference(&text).expect("parses");
            let cells = Setup::cells(w);
            assert_eq!(table.len(), cells.len(), "{}", w.name);
            for cell in &cells {
                assert!(
                    table.contains_key(&cell_key(w, cell)),
                    "{}",
                    cell_key(w, cell)
                );
            }
        }
    }
}
