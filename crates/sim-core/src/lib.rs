//! # sim-core
//!
//! Discrete-event simulation substrate shared by every crate in the CPPE
//! reproduction workspace.
//!
//! The crate is deliberately dependency-free: it provides
//!
//! * [`time`] — the [`Cycle`] clock domain (1.4 GHz GPU core
//!   clock per Table I of the paper) and ns↔cycle conversion helpers,
//! * [`events`] — a deterministic [`EventQueue`] with
//!   stable FIFO ordering among same-cycle events, and the calendar
//!   ring's occupancy bitmap ([`events::RingBitmap`]) that the `gpu`
//!   event loop's wake calendar shares with it,
//! * [`stats`] — counters and histograms used for the paper's metrics
//!   (page faults, evictions, untouch levels, ...),
//! * [`rng`] — a small, seedable, reproducible PRNG
//!   ([`SplitMix64`] / [`Xoshiro256ss`])
//!   so simulation results are bit-stable across runs and platforms,
//! * [`hash`] — an FxHash-style fast hasher plus `FxHashMap`/`FxHashSet`
//!   aliases (integer-keyed maps are on the simulator's hot path),
//! * [`bitvec`] — the 16-bit per-chunk touch vector
//!   ([`TouchVec`]) and a growable bit vector,
//! * [`fault`] — the deterministic, seed-driven [`FaultInjector`] used
//!   by the chaos/robustness experiments (link degradation, transient
//!   DMA failures, latency spikes, fault-queue overflow),
//! * [`error`] — typed configuration/substrate errors ([`ConfigError`],
//!   [`SimError`]) backing the fallible `try_new` constructors.

pub mod bitvec;
pub mod error;
pub mod events;
pub mod fault;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;

pub use bitvec::{BitVec, TouchVec};
pub use error::{ConfigError, SimError};
pub use events::EventQueue;
pub use fault::{FaultInjector, InjectionConfig, InjectionStats};
pub use hash::{FxHashMap, FxHashSet};
pub use rng::{SplitMix64, Xoshiro256ss};
pub use stats::{Counter, Histogram};
pub use time::{Cycle, GPU_CLOCK_GHZ};
