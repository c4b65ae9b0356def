//! # gpu — the whole-system simulator
//!
//! Binds the substrates together into the event-driven GPU model the
//! evaluation runs on: SM lanes replaying workload access streams, the
//! `gmmu` translation hierarchy, page-presence data caches, and the
//! `uvm` driver running `cppe` policies.
//!
//! * [`config`] — [`GpuConfig`] (Table I defaults),
//! * [`cache`] — the L1/L2 data-cache latency model,
//! * [`dram`] — the GDDR5 12-channel row-buffer model,
//! * [`sim`] — [`simulate`], [`simulate_with`], [`RunResult`] and
//!   [`Outcome`], on the event loop's lane-indexed wake calendar
//!   (its counted traffic is [`QueueCounts`]),
//! * [`observe`] — the event loop's [`Observer`] hooks and the stock
//!   observers ([`Timeline`], [`Invariants`], [`FireCounts`],
//!   [`EvictionPasses`]),
//! * [`reference`](mod@reference) — the slow reference loop that [`simulate`] is
//!   checked against, bit for bit.

pub mod cache;
mod calendar;
pub mod config;
pub mod dram;
pub mod observe;
pub mod reference;
pub mod sim;
mod spans;
pub mod waiters;

pub use calendar::{KindCounts, QueueCounts};
pub use config::GpuConfig;
pub use observe::{
    EvictionPasses, FireCounts, Invariants, NoObserver, Observer, Timeline, TimelinePoint,
};
pub use sim::{simulate, simulate_accesses, simulate_with, Outcome, RunResult};
