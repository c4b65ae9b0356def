//! Regenerates the paper's fig3 artifact. Usage:
//! `cargo run --release -p harness --bin fig3 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig3::EXPERIMENT])
}
