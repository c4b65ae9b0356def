//! Quick smoke run: one workload, baseline vs CPPE, timing info.
//!
//! Usage: `smoke [WORKLOAD] [SCALE] [--trace] [--trace-format F]`.
//! With tracing on, the CPPE run at 50% oversubscription additionally
//! exports `results/smoke_timeline.csv`, the `results/smoke.json` run
//! record and `results/smoke_trace.json` according to the format
//! selection. Exits non-zero if an export fails to save.

use cppe::presets::PolicyPreset;
use harness::record::{document, RunRecord};
use harness::report::{save, RESULTS_DIR};
use harness::telemetry::{export, TraceConfig, TraceFormat};
use harness::{Cell, ExpConfig};
use std::path::Path;
use std::process::ExitCode;
use workloads::registry;

fn main() -> ExitCode {
    let mut which = "STN".to_string();
    let mut scale = 0.5f64;
    let mut positional = 0;
    let mut trace = false;
    let mut format = TraceFormat::Csv;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--trace" => trace = true,
            "--trace-format" => {
                i += 1;
                format = args
                    .get(i)
                    .map(|s| TraceFormat::parse(s).expect("bad --trace-format"))
                    .expect("--trace-format needs csv|json|chrome|all");
                trace = true;
            }
            other => {
                match positional {
                    0 => which = other.to_string(),
                    1 => scale = other.parse().expect("SCALE must be a number"),
                    _ => panic!("unexpected argument: {other}"),
                }
                positional += 1;
            }
        }
        i += 1;
    }

    let mut cfg = ExpConfig {
        scale,
        ..ExpConfig::default()
    };
    cfg.trace = trace.then(TraceConfig::default);
    cfg.trace_format = format;

    let w = registry::by_abbr(&which).expect("unknown workload");
    let mut files = Vec::new();
    for preset in [
        PolicyPreset::Baseline,
        PolicyPreset::Cppe,
        PolicyPreset::DisablePfOnFull,
    ] {
        for rate in [0.75, 0.5] {
            let t0 = std::time::Instant::now();
            let cell = Cell::new(&w, preset, rate, &cfg);
            let (r, telemetry) = cell.run();
            let frac = r.engine.total_untouch as f64 / r.engine.pages_evicted.max(1) as f64;
            let vol = r.engine.pages_evicted as f64 / w.pages(cfg.scale) as f64;
            println!(
                "{:8} {:16} rate={:.2} outcome={:?} cycles={:>12} faults={:>8} evict={:>8} ufrac={:.2} vol={:.1} wall={:?}",
                w.abbr, preset.label(), rate, r.outcome, r.cycles,
                r.driver.faults_serviced, r.engine.chunk_evictions, frac, vol, t0.elapsed()
            );
            if trace && preset == PolicyPreset::Cppe && rate == 0.5 {
                let t = telemetry.as_ref().expect("traced run has telemetry");
                if format.wants_csv() {
                    files.push(("smoke_timeline.csv", export::timeline_csv(&t.series)));
                }
                if format.wants_json() {
                    let name = format!("{} {}", w.abbr, preset.label());
                    let record = document(&[RunRecord::new(name, &cell, &r, Some(t))]);
                    files.push(("smoke.json", record));
                }
                if format.wants_chrome() {
                    files.push(("smoke_trace.json", export::chrome_trace_json(t)));
                }
            }
        }
    }

    let mut failed = false;
    for (name, content) in files {
        match save(Path::new(RESULTS_DIR), name, &content) {
            Ok(path) => eprintln!("[smoke] saved {}", path.display()),
            Err(e) => {
                eprintln!("[smoke] ERROR: could not save {name}: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
