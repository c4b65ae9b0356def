//! Regenerates the paper's fig7 artifact. Usage:
//! `cargo run --release -p harness --bin fig7 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig7::EXPERIMENT])
}
