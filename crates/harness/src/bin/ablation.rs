//! Extension: CPPE component ablation. Usage:
//! `cargo run --release -p harness --bin ablation [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::ablation::EXPERIMENT])
}
