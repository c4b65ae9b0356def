//! Extension: resilience under deterministic fault injection. Usage:
//! `cargo run --release -p harness --bin chaos [--quick] [--scale X]`
fn main() {
    harness::experiments::binary_main(harness::experiments::chaos::EXPERIMENT);
}
