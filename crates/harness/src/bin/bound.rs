//! Extension: policies vs the offline Belady bound. Usage:
//! `cargo run --release -p harness --bin bound [--quick] [--scale X]`
fn main() -> std::process::ExitCode {
    harness::experiments::plan_main(&[harness::experiments::bound::EXPERIMENT])
}
