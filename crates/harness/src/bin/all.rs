//! Regenerates every table and figure in one go. Usage:
//! `cargo run --release -p harness --bin all [--quick] [--scale X] [--threads N]`
//!
//! Exits non-zero if any report failed to save, so a stale committed
//! copy under `results/` cannot pass for a fresh one.
use std::process::ExitCode;

type Runner = fn(&harness::ExpConfig, usize) -> String;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cfg, threads) = harness::experiments::cli_config(&args);
    let experiments: Vec<(&str, Runner)> = vec![
        ("fig3", harness::experiments::fig3::run),
        ("fig4", harness::experiments::fig4::run),
        ("table3", harness::experiments::table3::run),
        ("table4", harness::experiments::table4::run),
        ("sens", harness::experiments::sens::run),
        ("fig7", harness::experiments::fig7::run),
        ("fig8", harness::experiments::fig8::run),
        ("fig9", harness::experiments::fig9::run),
        ("fig10", harness::experiments::fig10::run),
        ("overhead", harness::experiments::overhead::run),
        ("motivation", harness::experiments::motivation::run),
        ("ablation", harness::experiments::ablation::run),
        ("sens2", harness::experiments::sens2::run),
        ("bound", harness::experiments::bound::run),
        ("timeline", harness::experiments::timeline::run),
        ("stability", harness::experiments::stability::run),
    ];
    let mut failed_saves = 0;
    for (name, run) in experiments {
        let t0 = std::time::Instant::now();
        let report = run(&cfg, threads);
        println!("{report}");
        println!("{}", "=".repeat(72));
        eprintln!("[{name}] {:.1?}", t0.elapsed());
        match harness::report::save(&format!("{name}.txt"), &report) {
            Ok(path) => eprintln!("[{name}] saved to {}", path.display()),
            Err(e) => {
                eprintln!("[{name}] ERROR: saving {name}.txt failed: {e}");
                failed_saves += 1;
            }
        }
    }
    if failed_saves > 0 {
        eprintln!("[all] {failed_saves} report(s) failed to save");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
