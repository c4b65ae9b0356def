//! Regenerates the paper's fig10 artifact. Usage:
//! `cargo run --release -p harness --bin fig10 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig10::EXPERIMENT])
}
