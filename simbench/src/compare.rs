//! `compare --base DIR --head DIR`: the A/B rule for a change.
//!
//! Each side is a directory of untraced run records (`out/records` of a
//! checkout). For every workload × end-to-end metric it prints each
//! side's median and quartiles, the share of seed-matched pairs the head
//! won, and a verdict:
//!
//! * `unresolved` — a side's spread (IQR / median) exceeds the metric's
//!   bound, unless every head run beats every base run;
//! * `gain` — the head won at least 9/10 of the pairs and the medians
//!   differ by more than the base's own IQR;
//! * `regression` — the head median is worse than the base median by
//!   more than the bound;
//! * `within bound` — otherwise.
//!
//! Records from different machines never mix: both sides must carry one
//! machine key.

use crate::json::Json;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::record::Machine;
use crate::stats::{median, quartiles};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The parts of a run record `compare` reads.
#[derive(Debug, Clone)]
struct Record {
    workload: String,
    seed: u64,
    machine: String,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

fn parse_record(text: &str) -> Result<Option<Record>, String> {
    let j = Json::parse(text)?;
    if j.get("schema").and_then(Json::as_str) != Some("simbench-record-v1") {
        return Err("not a simbench record".into());
    }
    if j.get("trace") == Some(&Json::Bool(true)) {
        return Ok(None);
    }
    let num = |k: &str| j.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let metrics = j
        .get("metrics")
        .map(Json::members)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Some(Record {
        workload: j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("record without workload")?
            .to_string(),
        seed: num("seed") as u64,
        machine: Machine::from_json(j.get("machine").unwrap_or(&Json::Null)).key(),
        failed: num("failed") as u64,
        metrics,
    }))
}

fn load(dir: &Path) -> Result<Vec<Record>, String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().is_some_and(|x| x == "json") {
            let text =
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
            if let Some(r) = parse_record(&text).map_err(|e| format!("{}: {e}", path.display()))? {
                out.push(r);
            }
        }
    }
    if out.is_empty() {
        return Err(format!("{}: no untraced run records", dir.display()));
    }
    Ok(out)
}

/// One workload × metric comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub base: [f64; 3],
    pub head: [f64; 3],
    pub pairs: usize,
    pub won: usize,
    pub verdict: &'static str,
}

/// Median and quartiles as `[q1, median, q3]`.
fn summary(xs: &[f64]) -> [f64; 3] {
    let (q1, q3) = quartiles(xs);
    [q1, median(xs), q3]
}

/// Apply the A/B rule to one metric. `pairs` are `(base, head)` values
/// of runs with the same seed.
#[must_use]
pub fn judge(m: &EndToEnd, base: &[f64], head: &[f64], pairs: &[(f64, f64)]) -> Row {
    let better = |a: f64, b: f64| if m.higher_is_better { a > b } else { a < b };
    let (b, h) = (summary(base), summary(head));
    let won = pairs.iter().filter(|&&(x, y)| better(y, x)).count();
    let spread = |s: [f64; 3]| {
        if s[1] == 0.0 {
            0.0
        } else {
            (s[2] - s[0]) / s[1].abs()
        }
    };
    let every_run_better = head.iter().all(|&y| base.iter().all(|&x| better(y, x)));
    let worse_by = if m.higher_is_better {
        (b[1] - h[1]) / b[1].abs()
    } else {
        (h[1] - b[1]) / b[1].abs()
    };
    let verdict = if (spread(b) > m.bound || spread(h) > m.bound) && !every_run_better {
        "unresolved"
    } else if !pairs.is_empty()
        && won * 10 >= pairs.len() * 9
        && better(h[1], b[1])
        && (h[1] - b[1]).abs() > b[2] - b[0]
    {
        "gain"
    } else if worse_by > m.bound {
        "regression"
    } else {
        "within bound"
    };
    Row {
        base: b,
        head: h,
        pairs: pairs.len(),
        won,
        verdict,
    }
}

/// Compare two record directories and print the table.
///
/// # Errors
/// Returns a message when a directory holds no readable records or the
/// records come from more than one machine.
pub fn compare(base_dir: &Path, head_dir: &Path) -> Result<(), String> {
    let base = load(base_dir)?;
    let head = load(head_dir)?;
    let machines: BTreeSet<&str> = base
        .iter()
        .chain(&head)
        .map(|r| r.machine.as_str())
        .collect();
    if machines.len() != 1 {
        return Err(format!(
            "records come from {} machines and cannot be compared:\n  {}",
            machines.len(),
            machines.into_iter().collect::<Vec<_>>().join("\n  ")
        ));
    }
    println!(
        "machine: {}",
        machines.into_iter().next().unwrap_or_default()
    );
    let workloads: BTreeSet<&str> = base.iter().map(|r| r.workload.as_str()).collect();
    println!(
        "{:<13} {:<18} {:>30} {:>30} {:>9}  verdict (bound)",
        "workload", "metric", "base q1 / median / q3", "head q1 / median / q3", "won"
    );
    for w in workloads {
        let b: Vec<&Record> = base.iter().filter(|r| r.workload == w).collect();
        let h: Vec<&Record> = head.iter().filter(|r| r.workload == w).collect();
        if h.is_empty() {
            println!("{w:<13} (no head records)");
            continue;
        }
        for m in &END_TO_END {
            let vals = |rs: &[&Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect()
            };
            let pairs: Vec<(f64, f64)> = b
                .iter()
                .filter_map(|x| {
                    let y = h.iter().find(|y| y.seed == x.seed)?;
                    Some((*x.metrics.get(m.name)?, *y.metrics.get(m.name)?))
                })
                .collect();
            let row = judge(m, &vals(&b), &vals(&h), &pairs);
            let fmt = |s: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", s[0], s[1], s[2]);
            println!(
                "{w:<13} {:<18} {:>30} {:>30} {:>4}/{:<4}  {} ({:.0} %)",
                m.name,
                fmt(row.base),
                fmt(row.head),
                row.won,
                row.pairs,
                row.verdict,
                m.bound * 100.0
            );
        }
        let failed = |rs: &[&Record]| rs.iter().map(|r| r.failed).sum::<u64>();
        println!(
            "{w:<13} runs: base {} head {}; failed cell runs: base {} head {}",
            b.len(),
            h.len(),
            failed(&b),
            failed(&h)
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const RATE: EndToEnd = END_TO_END[0]; // higher is better, 10 %

    #[test]
    fn clear_win_is_a_gain() {
        let base = [
            100.0, 101.0, 99.0, 100.5, 100.2, 99.8, 100.1, 100.3, 99.9, 100.0,
        ];
        let head: Vec<f64> = base.iter().map(|x| x * 1.05).collect();
        let pairs: Vec<(f64, f64)> = base.iter().copied().zip(head.iter().copied()).collect();
        let row = judge(&RATE, &base, &head, &pairs);
        assert_eq!(row.verdict, "gain");
        assert_eq!((row.won, row.pairs), (10, 10));
    }

    #[test]
    fn small_drop_is_within_bound_and_big_drop_regresses() {
        let base = [100.0, 101.0, 99.0, 100.5, 100.2];
        let slight: Vec<f64> = base.iter().map(|x| x * 0.97).collect();
        assert_eq!(judge(&RATE, &base, &slight, &[]).verdict, "within bound");
        let big: Vec<f64> = base.iter().map(|x| x * 0.7).collect();
        assert_eq!(judge(&RATE, &base, &big, &[]).verdict, "regression");
    }

    #[test]
    fn wide_spread_is_unresolved() {
        let base = [50.0, 150.0, 100.0, 70.0, 130.0];
        let head = [60.0, 140.0, 95.0, 75.0, 120.0];
        assert_eq!(judge(&RATE, &base, &head, &[]).verdict, "unresolved");
    }

    #[test]
    fn records_parse_and_traced_ones_are_skipped() {
        let rec = |trace: bool| {
            Json::obj()
                .with("schema", "simbench-record-v1")
                .with("workload", "fault-storm")
                .with("seed", 3u64)
                .with("trace", trace)
                .with("failed", 0u64)
                .with("machine", Json::obj().with("cpu", "x").with("nproc", 2u64))
                .with(
                    "metrics",
                    Json::obj().with("setup_s", Json::obj().with("value", 0.5).with("unit", "s")),
                )
                .render()
        };
        let r = parse_record(&rec(false))
            .expect("parses")
            .expect("untraced");
        assert_eq!((r.workload.as_str(), r.seed), ("fault-storm", 3));
        assert_eq!(r.metrics["setup_s"], 0.5);
        assert!(parse_record(&rec(true)).expect("parses").is_none());
        assert!(parse_record("{}").is_err());
    }
}
