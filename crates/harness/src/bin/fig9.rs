//! Regenerates the paper's fig9 artifact. Usage:
//! `cargo run --release -p harness --bin fig9 [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::fig9::EXPERIMENT])
}
