//! One module per paper artifact.
//!
//! Every module exposes an [`Experiment`] (`EXPERIMENT`): its `cells`
//! declare every simulator run the report reads, and its `render` turns
//! the plan's results into a self-contained text report with the same
//! rows/series as the paper's table or figure, plus any side files it
//! exports; [`Experiment::run`] is the one-experiment plan. The
//! `src/bin/*` binaries are thin wrappers around [`plan_main`], which
//! prints each report and saves it and its side files under
//! `results/`; `all` runs the union of [`ALL`]'s cells, each distinct
//! cell once.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig3`] | Fig. 3 — LRU vs Random vs reserved LRU (50 % oversub) |
//! | [`fig4`] | Fig. 4 — eviction blow-up from prefetching when full |
//! | [`table3`] | Table III — max untouch level, first four intervals |
//! | [`table4`] | Table IV — total untouch level, first four intervals |
//! | [`sens`] | §IV-B/§VI-A — forward-distance and T3 sensitivity |
//! | [`fig7`] | Fig. 7 — pattern deletion Scheme-1 vs Scheme-2 |
//! | [`fig8`] | Fig. 8 — CPPE vs the baseline |
//! | [`fig9`] | Fig. 9 — Random / reserved LRU / CPPE by pattern type |
//! | [`fig10`] | Fig. 10 — disabling prefetch when memory fills |
//! | [`overhead`] | §VI-C — structure sizes |
//! | [`motivation`] | §III — HPE counter pollution (Inefficiency 1) |
//! | [`ablation`] | extension: MHPE vs pattern prefetcher in isolation |
//! | [`sens2`] | extension: T1/T2 and fault-latency sensitivity |
//! | [`bound`] | extension: policies vs the offline Belady bound |
//! | [`timeline`] | extension: thrash dynamics over run time (CSV) |
//! | [`stability`] | extension: jitter-seed robustness of Fig. 8 |
//! | [`chaos`] | extension: slowdown under deterministic fault injection |
//! | [`audit`] | extension: stage latencies, decision provenance, page-lifetime ledger and Belady regret (run record `audit.json`) |

pub mod ablation;
pub mod audit;
pub mod bound;
pub mod chaos;
pub mod fig10;
pub mod fig3;
pub mod fig4;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod motivation;
pub mod overhead;
pub mod sens;
pub mod sens2;
pub mod stability;
pub mod table3;
pub mod table4;
pub mod timeline;

use crate::plan::{run_plan, Experiment};
use crate::report::{save_report, RESULTS_DIR};
use crate::runner::ExpConfig;
use crate::telemetry::TraceConfig;
use std::process::ExitCode;

/// The reports `all` regenerates, in output order.
pub const ALL: [Experiment; 16] = [
    fig3::EXPERIMENT,
    fig4::EXPERIMENT,
    table3::EXPERIMENT,
    table4::EXPERIMENT,
    sens::EXPERIMENT,
    fig7::EXPERIMENT,
    fig8::EXPERIMENT,
    fig9::EXPERIMENT,
    fig10::EXPERIMENT,
    overhead::EXPERIMENT,
    motivation::EXPERIMENT,
    ablation::EXPERIMENT,
    sens2::EXPERIMENT,
    bound::EXPERIMENT,
    timeline::EXPERIMENT,
    stability::EXPERIMENT,
];

/// Parse the common binary CLI:
/// `[--quick] [--scale X] [--threads N] [--trace] [--trace-format F]`.
/// Returns the config and thread count. `--trace-format` implies
/// `--trace`; `F` is one of `csv`, `json`, `chrome`, `all`.
///
/// # Panics
/// Panics on unknown or malformed arguments.
#[must_use]
pub fn cli_config(args: &[String]) -> (ExpConfig, usize) {
    let mut cfg = ExpConfig::default();
    let mut threads = 0usize;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => cfg = ExpConfig::quick(),
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--scale needs a number");
            }
            "--threads" => {
                i += 1;
                threads = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .expect("--threads needs a number");
            }
            "--trace" => {
                cfg.trace.get_or_insert_with(TraceConfig::default);
            }
            "--trace-format" => {
                i += 1;
                cfg.trace_format = args
                    .get(i)
                    .and_then(|s| crate::telemetry::TraceFormat::parse(s).ok())
                    .expect("--trace-format needs csv|json|chrome|all");
                cfg.trace.get_or_insert_with(TraceConfig::default);
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }
    (cfg, threads)
}

/// Run the plan of `experiments` from the command line: run the union
/// of their cells once, then print each report (separated by a rule
/// when there are several) and save it as `results/<name>.txt` beside
/// its side files. Progress goes to stderr as `[plan]`/`[name]` lines.
/// Fails when any file failed to save, so a stale committed copy under
/// `results/` cannot pass for a fresh one.
#[must_use]
pub fn plan_main(experiments: &[Experiment]) -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, threads) = cli_config(&args);
    let t0 = std::time::Instant::now();
    let results = run_plan(experiments, &cfg, threads);
    eprintln!(
        "[plan] {} cells declared, {} run in {:.1?}",
        results.declared(),
        results.runs(),
        t0.elapsed()
    );
    let mut failed = 0;
    for exp in experiments {
        let report = (exp.render)(&cfg, &results);
        println!("{}", report.text);
        if experiments.len() > 1 {
            println!("{}", "=".repeat(72));
        }
        failed += save_report(std::path::Path::new(RESULTS_DIR), exp.name, &report);
    }
    if failed > 0 {
        eprintln!("[plan] {failed} file(s) failed to save");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cli_defaults() {
        let (cfg, threads) = cli_config(&[]);
        assert_eq!(cfg.scale, ExpConfig::default().scale);
        assert_eq!(threads, 0);
    }

    #[test]
    fn cli_quick_and_overrides() {
        let args: Vec<String> = ["--quick", "--scale", "0.125", "--threads", "3"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let (cfg, threads) = cli_config(&args);
        assert_eq!(cfg.scale, 0.125);
        assert_eq!(threads, 3);
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn cli_rejects_unknown() {
        let _ = cli_config(&["--bogus".to_string()]);
    }

    #[test]
    fn cli_trace_flags() {
        let (cfg, _) = cli_config(&[]);
        assert_eq!(cfg.trace, None);

        let (cfg, _) = cli_config(&["--trace".to_string()]);
        assert_eq!(cfg.trace, Some(TraceConfig::default()));
        assert_eq!(cfg.trace_format, crate::telemetry::TraceFormat::Csv);

        let args: Vec<String> = ["--trace-format", "all"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let (cfg, _) = cli_config(&args);
        assert!(cfg.trace.is_some(), "--trace-format implies --trace");
        assert_eq!(cfg.trace_format, crate::telemetry::TraceFormat::All);
    }

    #[test]
    #[should_panic(expected = "--trace-format needs")]
    fn cli_rejects_bad_trace_format() {
        let args: Vec<String> = ["--trace-format", "yaml"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let _ = cli_config(&args);
    }
}
