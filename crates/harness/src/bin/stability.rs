//! Extension: jitter-seed robustness. Usage:
//! `cargo run --release -p harness --bin stability [--quick] [--scale X]`
fn main() {
    harness::experiments::binary_main(harness::experiments::stability::EXPERIMENT);
}
