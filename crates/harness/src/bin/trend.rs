//! Cross-run bench trend tool. Appends bench artifacts to the
//! JSONL ledger and renders per-cell deltas with a
//! robust (median/MAD) significance bar plus an HTML dashboard.
//!
//! ```text
//! cargo run --release -p harness --bin trend -- \
//!     record --file results/BENCH_profile.json --label my-run [--history PATH]
//! cargo run --release -p harness --bin trend -- \
//!     report [--history PATH] [--out results/trend.html]
//! ```
//!
//! `record` accepts the repo's simulated-metric exports
//! (`cppe-profile-v1`, `cppe-audit-v1`) and dispatches on the schema
//! marker. The default ledger is `bench-history/history.jsonl`
//! (append-only). Host speed is not tracked here; `simbench` measures
//! it and keys its records by machine. `report` prints the text table and
//! writes the self-contained dashboard (inline SVG sparklines, no
//! scripts) — exit 1 when the ledger is missing or empty.

use harness::history;
use std::path::PathBuf;

const DEFAULT_HISTORY: &str = "bench-history/history.jsonl";

fn take<'a>(args: &'a [String], i: &mut usize, what: &str) -> &'a str {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .unwrap_or_else(|| panic!("{what} needs a value"))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("usage: trend record --file F --label L | trend report [--out PATH]");
        std::process::exit(2);
    };
    let mut history = PathBuf::from(DEFAULT_HISTORY);
    let mut file = None;
    let mut label = None;
    let mut out = PathBuf::from("results").join("trend.html");
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--history" => history = PathBuf::from(take(&args, &mut i, "--history")),
            "--file" => file = Some(PathBuf::from(take(&args, &mut i, "--file"))),
            "--label" => label = Some(take(&args, &mut i, "--label").to_string()),
            "--out" => out = PathBuf::from(take(&args, &mut i, "--out")),
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }

    match cmd {
        "record" => {
            let file = file.unwrap_or_else(|| panic!("record needs --file"));
            let label = label.unwrap_or_else(|| panic!("record needs --label"));
            let doc = std::fs::read_to_string(&file).unwrap_or_else(|e| {
                eprintln!("[trend] cannot read {}: {e}", file.display());
                std::process::exit(2);
            });
            let (source, samples) = history::extract(&doc).unwrap_or_else(|e| {
                eprintln!("[trend] {}: {e}", file.display());
                std::process::exit(2);
            });
            let entry = history::HistoryEntry {
                label,
                source,
                samples,
            };
            if let Err(e) = history::append(&history, &entry) {
                eprintln!("[trend] cannot append to {}: {e}", history.display());
                std::process::exit(2);
            }
            eprintln!(
                "[trend] recorded {} {} samples from {} into {}",
                entry.samples.len(),
                entry.source,
                file.display(),
                history.display()
            );
        }
        "report" => {
            let (entries, skipped) = history::load(&history).unwrap_or_else(|e| {
                eprintln!("[trend] cannot read {}: {e}", history.display());
                std::process::exit(1);
            });
            if entries.is_empty() {
                eprintln!("[trend] {} holds no entries", history.display());
                std::process::exit(1);
            }
            let report = history::render_report(&entries, skipped);
            println!("{report}");
            let html = history::render_html(&entries, skipped);
            if let Some(parent) = out.parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match telemetry::export::write_atomic(&out, &html) {
                Ok(()) => eprintln!("[trend] dashboard written to {}", out.display()),
                Err(e) => {
                    eprintln!("[trend] cannot write {}: {e}", out.display());
                    std::process::exit(1);
                }
            }
        }
        other => {
            eprintln!("unknown command {other:?}; use record or report");
            std::process::exit(2);
        }
    }
}
