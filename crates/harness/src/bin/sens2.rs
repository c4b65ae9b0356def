//! Extension: T1/T2 and fault-cost sensitivity. Usage:
//! `cargo run --release -p harness --bin sens2 [--quick] [--scale X]`
fn main() {
    harness::experiments::binary_main(harness::experiments::sens2::EXPERIMENT);
}
