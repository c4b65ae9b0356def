//! Every pinned simulated result, replayed in the default test suite.
//!
//! `simbench/reference/*.tsv` holds one row per host-speed benchmark
//! cell at seed 0: all 23 apps × 5 presets × 2 rates of `paper-fig9`,
//! plus `fault-storm`, `resident-112` and `footprint-x4`. A row names
//! its cell by app, preset label, oversubscription rate, footprint
//! scale and lane count, then lists the outcome and every counter a run
//! reports. This test rebuilds each cell through `harness::run_cell`
//! and diffs every column, so a change that moves any pinned counter
//! fails here, with the cell and the column named. It only reads the
//! tables; `simbench run --workload W --bless` writes them.

use cppe::presets::PolicyPreset;
use gpu::{GpuConfig, Outcome, RunResult};
use harness::{run_cell, ExpConfig};
use std::fmt::Write as _;
use std::path::Path;
use workloads::registry;

/// The tables, one per benchmark workload.
const TABLES: [&str; 4] = ["paper-fig9", "fault-storm", "resident-112", "footprint-x4"];

/// Presets a table may name, found by their labels.
const PRESETS: [PolicyPreset; 15] = [
    PolicyPreset::Baseline,
    PolicyPreset::Random,
    PolicyPreset::ReservedLru10,
    PolicyPreset::ReservedLru20,
    PolicyPreset::DisablePfOnFull,
    PolicyPreset::Cppe,
    PolicyPreset::CppeScheme1,
    PolicyPreset::MhpeOnly,
    PolicyPreset::HpeNaive,
    PolicyPreset::HpeNoPf,
    PolicyPreset::LruNoPf,
    PolicyPreset::LruTree,
    PolicyPreset::MhpeNoSwitch,
    PolicyPreset::Clock,
    PolicyPreset::Srrip,
];

/// One table row: the cell's key and the pinned values by column.
struct Row {
    table: &'static str,
    app: String,
    preset: PolicyPreset,
    rate: f64,
    scale: f64,
    lanes: usize,
    outcome: String,
    counters: Vec<(String, u64)>,
}

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Completed => "Completed",
        Outcome::Degraded => "Degraded",
        Outcome::Crashed => "Crashed",
        Outcome::Timeout => "Timeout",
    }
}

/// Every counter of a run under its table column name.
fn columns(r: &RunResult) -> Vec<(&'static str, u64)> {
    let t = &r.translation;
    let mut out = vec![("cycles", r.cycles), ("accesses", r.accesses)];
    out.extend(r.engine.metrics());
    out.push(("cppe.chain_max_len", r.engine.chain_max_len as u64));
    out.extend(r.driver.metrics());
    out.extend([
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
    out
}

fn parse_table(table: &'static str) -> Vec<Row> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("simbench/reference")
        .join(format!("{table}.tsv"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading {}: {e}", path.display()));
    let mut lines = text.lines().filter(|l| !l.starts_with('#'));
    let header: Vec<&str> = lines.next().expect("header line").split('\t').collect();
    assert_eq!(
        header[..6],
        ["app", "preset", "rate", "scale", "lanes", "outcome"],
        "{table}: key columns"
    );
    lines
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), header.len(), "{table}: {line}");
            let num = |i: usize| -> f64 {
                f[i].parse()
                    .unwrap_or_else(|_| panic!("{table}: bad {} {:?}", header[i], f[i]))
            };
            let preset = *PRESETS
                .iter()
                .find(|p| p.label() == f[1])
                .unwrap_or_else(|| panic!("{table}: unknown preset {:?}", f[1]));
            Row {
                table,
                app: f[0].to_string(),
                preset,
                rate: num(2),
                scale: num(3),
                lanes: num(4) as usize,
                outcome: f[5].to_string(),
                counters: header[6..]
                    .iter()
                    .zip(&f[6..])
                    .map(|(&k, v)| {
                        let v = v
                            .parse()
                            .unwrap_or_else(|_| panic!("{table}: bad {k} {v:?}"));
                        (k.to_string(), v)
                    })
                    .collect(),
            }
        })
        .collect()
}

/// Differences between a row and its replay, one line per column.
fn replay(row: &Row) -> Vec<String> {
    let spec = registry::by_abbr(&row.app)
        .unwrap_or_else(|| panic!("{}: unknown app {}", row.table, row.app));
    let defaults = ExpConfig::default();
    assert_eq!(row.lanes % defaults.gpu.sms, 0, "{}: lanes", row.table);
    let cfg = ExpConfig {
        scale: row.scale,
        gpu: GpuConfig {
            warps_per_sm: row.lanes / defaults.gpu.sms,
            ..defaults.gpu
        },
        ..defaults
    };
    let r = run_cell(&spec, row.preset, row.rate, &cfg);
    let got = columns(&r);
    let mut diffs = Vec::new();
    if outcome_name(r.outcome) != row.outcome {
        diffs.push(format!(
            "outcome: want {} got {}",
            row.outcome,
            outcome_name(r.outcome)
        ));
    }
    for (name, want) in &row.counters {
        match got.iter().find(|(k, _)| k == name) {
            Some(&(_, v)) if v == *want => {}
            Some(&(_, v)) => diffs.push(format!("{name}: want {want} got {v}")),
            None => diffs.push(format!("{name}: no such counter")),
        }
    }
    if got.len() != row.counters.len() {
        diffs.push(format!(
            "{} counters reported, {} pinned",
            got.len(),
            row.counters.len()
        ));
    }
    diffs
}

/// Every row of every reference table replays to the same outcome and
/// counters through `harness::run_cell`.
#[test]
fn every_reference_row_replays_exactly() {
    let rows: Vec<Row> = TABLES.iter().flat_map(|&t| parse_table(t)).collect();
    assert_eq!(rows.len(), 230 + 16 + 23 + 8, "rows in the four tables");
    // Two workers: the 277 full-scale cells take about 1 s in a release
    // build and 2 s in a test build on a 2-vCPU machine.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let failures: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        let Some(row) = rows.get(i) else {
                            return out;
                        };
                        for d in replay(row) {
                            out.push(format!(
                                "{}: {}/{}/{}: {d}",
                                row.table,
                                row.app,
                                row.preset.label(),
                                row.rate
                            ));
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("replay worker"))
            .collect()
    });
    if !failures.is_empty() {
        let mut msg = format!("{} differences from the pinned tables:\n", failures.len());
        for f in failures.iter().take(40) {
            let _ = writeln!(msg, "  {f}");
        }
        panic!("{msg}");
    }
}
