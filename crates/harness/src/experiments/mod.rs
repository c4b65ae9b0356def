//! One module per paper artifact.
//!
//! Every module exposes an [`Experiment`] (`EXPERIMENT`): its `cells`
//! declare every simulator run the report reads, and its `render` turns
//! the plan's results into a self-contained text report with the same
//! rows/series as the paper's table or figure; [`Experiment::run`] is
//! the one-experiment plan. The `src/bin/*` binaries are thin wrappers
//! that print the report and save it under `results/`; `all` runs the
//! union of [`ALL`]'s cells, each distinct cell once.
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
//! | [`profile`] | extension: fault-lifecycle latency profile (BENCH_profile.json) |
//! | [`audit`] | extension: decision provenance, page-lifetime ledger and Belady regret (BENCH_audit.json) |

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
pub mod profile;
pub mod sens;
pub mod sens2;
pub mod stability;
pub mod table3;
pub mod table4;
pub mod timeline;

use crate::plan::{run_plan, Experiment};
use crate::runner::ExpConfig;

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
/// `[--quick] [--scale X] [--threads N] [--trace] [--trace-format F]
/// [--monitor]`.
/// Returns the config and thread count. `--trace-format` implies
/// `--trace`; `F` is one of `csv`, `json`, `chrome`, `all`.
/// `--monitor` implies `--trace` and arms the periodic snapshot
/// sampler (experiments that export artifacts then also write a
/// `*_monitor.json` time-series).
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
            "--trace" => cfg.gpu.trace.enabled = true,
            "--monitor" => {
                cfg.gpu.trace.enabled = true;
                cfg.gpu.trace.monitor = true;
            }
            "--trace-format" => {
                i += 1;
                cfg.trace_format = args
                    .get(i)
                    .and_then(|s| telemetry::TraceFormat::parse(s).ok())
                    .expect("--trace-format needs csv|json|chrome|all");
                cfg.gpu.trace.enabled = true;
            }
            other => panic!("unknown argument: {other}"),
        }
        i += 1;
    }
    (cfg, threads)
}

/// Run the plan of `experiments` from the command line: run the union
/// of their cells once, then print each report (separated by a rule
/// when there are several) and save it as `results/<name>.txt`.
/// Progress goes to stderr as `[plan]`/`[name]` lines. Returns the
/// number of reports that failed to save.
#[must_use]
pub fn plan_main(experiments: &[Experiment]) -> usize {
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
    let mut failed_saves = 0;
    for exp in experiments {
        let name = exp.name;
        let report = (exp.render)(&cfg, &results);
        println!("{report}");
        if experiments.len() > 1 {
            println!("{}", "=".repeat(72));
        }
        match crate::report::save(&format!("{name}.txt"), &report) {
            Ok(path) => eprintln!("[{name}] saved to {}", path.display()),
            Err(e) => {
                eprintln!("[{name}] ERROR: saving {name}.txt failed: {e}");
                failed_saves += 1;
            }
        }
    }
    failed_saves
}

/// Standard binary main body: run one experiment, print, save.
pub fn binary_main(experiment: Experiment) {
    let _ = plan_main(&[experiment]);
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
        assert!(!cfg.gpu.trace.enabled);

        let (cfg, _) = cli_config(&["--trace".to_string()]);
        assert!(cfg.gpu.trace.enabled);
        assert_eq!(cfg.trace_format, telemetry::TraceFormat::Csv);

        let args: Vec<String> = ["--trace-format", "all"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        let (cfg, _) = cli_config(&args);
        assert!(cfg.gpu.trace.enabled, "--trace-format implies --trace");
        assert_eq!(cfg.trace_format, telemetry::TraceFormat::All);
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
