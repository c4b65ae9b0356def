//! Forward-distance probe: SRD at 50 % under pinned-MRU MHPE with
//! forward distance 1 and 8, full scale, one summary line each. Usage:
//! `cargo run --release -p harness --bin probe`
use cppe::presets::PolicyPreset;
use harness::{Cell, ExpConfig};

fn main() {
    let cfg = ExpConfig::default();
    for fd in [1usize, 8] {
        let (r, _) = Cell::app("SRD", PolicyPreset::MhpeFixedFd(fd), 0.5, &cfg).run();
        println!("fd={fd} outcome={:?} cycles={} faults={} evict={} wrong={} total_untouch={} batches={} coalesced={}",
            r.outcome, r.cycles, r.engine.faults, r.engine.chunk_evictions, r.wrong_evictions,
            r.engine.total_untouch, r.driver.batches, r.driver.coalesced_faults);
    }
}
