//! GDDR5 device-memory model (Table I: "GDDR5, 12-channel, FR-FCFS
//! scheduler, 528GB/s aggregate").
//!
//! Accesses that miss the L2 data cache go to DRAM. The model captures
//! the three first-order effects of a GDDR channel without simulating
//! command buses:
//!
//! * **channel parallelism** — pages interleave across 12 channels,
//! * **row-buffer locality** — per-bank open rows; a hit saves the
//!   activate+precharge latency (FR-FCFS prioritizes row hits, which at
//!   page granularity we approximate by giving row hits the short
//!   latency unconditionally),
//! * **bandwidth occupancy** — each page-granular access occupies its
//!   channel for the burst time of the data moved, so channel queueing
//!   appears under load.
//!
//! The geometry and timings are Table I constants, not configuration:
//! 12 channels × 4 banks, 2 pages per row, 60/160-cycle row hit/miss
//! and a 64-cycle burst, which keeps the aggregate bandwidth at
//! Table I's 528 GB/s (44 GB/s per channel). With constant divisors a
//! channel and bank index compile to multiplies, and the open rows and
//! channel busy times sit in two flat arrays. `legacy::VecDram` keeps
//! the earlier nested-`Vec` model with runtime geometry, and a model
//! test holds the two to equal latencies and row-buffer counters.

use gmmu::types::VirtPage;
use sim_core::stats::Counter;
use sim_core::time::Cycle;

/// Memory channels (Table I: 12).
const CHANNELS: usize = 12;
/// Banks per channel, each with its own open row.
const BANKS_PER_CHANNEL: usize = 4;
/// Pages per row buffer (GDDR5 rows are 1-2 KB per device; across a
/// x32 channel a "row" serves a few KB — we use 2 pages).
const PAGES_PER_ROW: u64 = 2;
/// Latency of an access that hits the open row (CAS), cycles.
const ROW_HIT_LATENCY: u64 = 60;
/// Latency of an access that must activate a new row
/// (precharge + activate + CAS), cycles.
const ROW_MISS_LATENCY: u64 = 160;
/// Channel occupancy per access, cycles. At page granularity one access
/// stands for the line fills of one page visit; 64 cycles ≈ 1.4 GHz /
/// 44 GB/s for a 2 KB half-page burst.
const BURST_CYCLES: u64 = 64;

/// Marks a bank with no open row. Never a row number: rows are pages
/// over [`PAGES_PER_ROW`].
const NO_ROW: u64 = u64::MAX;

/// The device-memory model: Table I's fixed geometry in two flat
/// arrays, so an access is a constant-divisor index and two loads.
#[derive(Debug)]
pub struct Dram {
    /// Open row of bank `bank` of channel `ch` at `ch * BANKS_PER_CHANNEL
    /// + bank`; [`NO_ROW`] when the bank has none open.
    open_rows: [u64; CHANNELS * BANKS_PER_CHANNEL],
    /// When each channel's last burst ends.
    busy_until: [Cycle; CHANNELS],
    /// Row-buffer hits.
    pub row_hits: Counter,
    /// Row-buffer misses (activations).
    pub row_misses: Counter,
}

impl Default for Dram {
    fn default() -> Self {
        Self::new()
    }
}

impl Dram {
    /// Every bank closed, every channel idle.
    #[must_use]
    pub fn new() -> Self {
        Dram {
            open_rows: [NO_ROW; CHANNELS * BANKS_PER_CHANNEL],
            busy_until: [Cycle::ZERO; CHANNELS],
            row_hits: Counter::default(),
            row_misses: Counter::default(),
        }
    }

    /// Access `page` at time `now`; returns the access latency in
    /// cycles (queueing + row-buffer + burst).
    #[inline]
    pub fn access(&mut self, page: VirtPage, now: Cycle) -> u64 {
        let row = page.0 / PAGES_PER_ROW;
        let ch = (row % CHANNELS as u64) as usize;
        let bank = ((row / CHANNELS as u64) % BANKS_PER_CHANNEL as u64) as usize;
        let open = &mut self.open_rows[ch * BANKS_PER_CHANNEL + bank];
        let service = if *open == row {
            self.row_hits.inc();
            ROW_HIT_LATENCY
        } else {
            self.row_misses.inc();
            *open = row;
            ROW_MISS_LATENCY
        };
        let busy = &mut self.busy_until[ch];
        let start = (*busy).max(now);
        // The channel is occupied for the burst; the latency the SM sees
        // includes any queueing behind earlier bursts.
        *busy = start.after(BURST_CYCLES);
        start.after(service + BURST_CYCLES).since(now)
    }
}

/// The nested-`Vec` channel model with runtime geometry that [`Dram`]
/// replaced, kept as the equivalence oracle for its model test and the
/// reference simulator's DRAM.
pub mod legacy {
    use super::{
        Counter, Cycle, VirtPage, BANKS_PER_CHANNEL, BURST_CYCLES, CHANNELS, PAGES_PER_ROW,
        ROW_HIT_LATENCY, ROW_MISS_LATENCY,
    };

    #[derive(Debug, Clone, Copy)]
    struct Bank {
        open_row: Option<u64>,
    }

    #[derive(Debug)]
    struct Channel {
        banks: Vec<Bank>,
        busy_until: Cycle,
    }

    /// Per-channel bank vectors, geometry read at every access.
    #[derive(Debug)]
    pub struct VecDram {
        channels: Vec<Channel>,
        banks_per_channel: usize,
        pages_per_row: u64,
        /// Row-buffer hits.
        pub row_hits: Counter,
        /// Row-buffer misses (activations).
        pub row_misses: Counter,
    }

    impl Default for VecDram {
        /// Table I's geometry and timing.
        fn default() -> Self {
            VecDram {
                channels: (0..CHANNELS)
                    .map(|_| Channel {
                        banks: vec![Bank { open_row: None }; BANKS_PER_CHANNEL],
                        busy_until: Cycle::ZERO,
                    })
                    .collect(),
                banks_per_channel: BANKS_PER_CHANNEL,
                pages_per_row: PAGES_PER_ROW,
                row_hits: Counter::default(),
                row_misses: Counter::default(),
            }
        }
    }

    impl VecDram {
        /// Access `page` at time `now`; returns the access latency.
        pub fn access(&mut self, page: VirtPage, now: Cycle) -> u64 {
            let row = page.0 / self.pages_per_row;
            let ch_idx = (row % self.channels.len() as u64) as usize;
            let bank_idx =
                ((row / self.channels.len() as u64) % self.banks_per_channel as u64) as usize;
            let ch = &mut self.channels[ch_idx];
            let bank = &mut ch.banks[bank_idx];
            let service = if bank.open_row == Some(row) {
                self.row_hits.inc();
                ROW_HIT_LATENCY
            } else {
                self.row_misses.inc();
                bank.open_row = Some(row);
                ROW_MISS_LATENCY
            };
            let start = ch.busy_until.max(now);
            let done = start.after(service + BURST_CYCLES);
            ch.busy_until = start.after(BURST_CYCLES);
            done.since(now)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dram() -> Dram {
        Dram::new()
    }

    #[test]
    fn first_access_is_a_row_miss() {
        let mut d = dram();
        let lat = d.access(VirtPage(0), Cycle::ZERO);
        assert_eq!(lat, 160 + 64);
        assert_eq!(d.row_misses.get(), 1);
    }

    #[test]
    fn same_row_hits() {
        let mut d = dram();
        d.access(VirtPage(0), Cycle::ZERO);
        // Page 1 shares the 2-page row with page 0.
        let lat = d.access(VirtPage(1), Cycle(10_000));
        assert_eq!(lat, 60 + 64);
        assert_eq!(d.row_hits.get(), 1);
    }

    #[test]
    fn different_row_same_bank_misses() {
        let mut d = dram();
        d.access(VirtPage(0), Cycle::ZERO);
        // Next row on the same bank: row jumps by channels*banks.
        let stride = PAGES_PER_ROW * (CHANNELS * BANKS_PER_CHANNEL) as u64;
        let lat = d.access(VirtPage(stride), Cycle(10_000));
        assert_eq!(lat, 160 + 64);
        assert_eq!(d.row_misses.get(), 2);
    }

    #[test]
    fn channels_are_independent() {
        let mut d = dram();
        // Rows 0 and 1 land on different channels; concurrent accesses
        // do not queue behind each other.
        let a = d.access(VirtPage(0), Cycle::ZERO);
        let b = d.access(VirtPage(2), Cycle::ZERO);
        assert_eq!(a, b);
    }

    #[test]
    fn same_channel_queues() {
        let mut d = dram();
        let stride = PAGES_PER_ROW * CHANNELS as u64; // same channel, next bank
        let a = d.access(VirtPage(0), Cycle::ZERO);
        let b = d.access(VirtPage(stride), Cycle::ZERO);
        assert!(
            b > a,
            "second access queues behind the first burst: {b} vs {a}"
        );
        assert_eq!(b - a, BURST_CYCLES);
    }

    #[test]
    fn queueing_drains_when_idle() {
        let mut d = dram();
        d.access(VirtPage(0), Cycle::ZERO);
        // Long after the burst, the channel is idle again.
        let lat = d.access(VirtPage(0), Cycle(1_000_000));
        assert_eq!(lat, 60 + 64);
    }

    #[test]
    fn streaming_is_mostly_row_hits() {
        let mut d = dram();
        let mut t = 0u64;
        for p in 0..256u64 {
            d.access(VirtPage(p), Cycle(t));
            t += 500;
        }
        // 2 pages per row → every other access hits.
        assert_eq!(d.row_hits.get(), 128);
        assert_eq!(d.row_misses.get(), 128);
    }

    /// The constant-geometry model against the nested-`Vec` one: random
    /// pages at non-decreasing times, skewed so rows both stay open and
    /// get displaced and channels both idle and queue. Every latency and
    /// both row-buffer counters must agree.
    #[test]
    fn flat_dram_matches_vec_dram() {
        let mut x: u64 = 0x8C2F_61D4_3E95_B07A;
        let (mut flat, mut nested) = (Dram::new(), legacy::VecDram::default());
        let mut now = 0u64;
        for step in 0..300_000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let page = VirtPage(match x % 4 {
                0 => (x >> 8) % 16,
                1 | 2 => (x >> 8) % 400,
                _ => (x >> 8) % (1 << 30),
            });
            now += match (x >> 40) % 8 {
                0..=4 => 0,
                5 | 6 => (x >> 48) % 64,
                _ => (x >> 48) % 4096,
            };
            assert_eq!(
                flat.access(page, Cycle(now)),
                nested.access(page, Cycle(now)),
                "step {step}: {page:?} at {now}"
            );
        }
        assert_eq!(flat.row_hits.get(), nested.row_hits.get());
        assert_eq!(flat.row_misses.get(), nested.row_misses.get());
        assert!(flat.row_hits.get() > 10_000 && flat.row_misses.get() > 10_000);
    }
}
