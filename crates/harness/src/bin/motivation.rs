//! Regenerates the paper's motivation artifact. Usage:
//! `cargo run --release -p harness --bin motivation [--quick] [--scale X] [--threads N]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::motivation::EXPERIMENT])
}
