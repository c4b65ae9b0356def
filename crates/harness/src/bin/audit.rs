//! Extension: policy-decision audit. Usage:
//! `cargo run --release -p harness --bin audit [--quick] [--scale X]`
//! (always runs with decision auditing on; writes the per-page lifetime
//! CSVs and the `BENCH_audit.json` oracle-regret baseline).
fn main() {
    harness::experiments::binary_main(harness::experiments::audit::EXPERIMENT);
}
