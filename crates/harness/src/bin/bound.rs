//! Extension: policies vs the offline Belady bound. Usage:
//! `cargo run --release -p harness --bin bound [--quick] [--scale X]`
fn main() {
    harness::experiments::binary_main(harness::experiments::bound::EXPERIMENT);
}
