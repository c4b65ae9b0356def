//! # uvm — unified-memory runtime substrate
//!
//! The software side of GPU unified memory: physical frame management,
//! the CPU↔GPU interconnect, and the host driver that services far-fault
//! batches by invoking the `cppe` policy engine.
//!
//! * [`frames`] — the device-memory frame allocator (capacity set per
//!   run to 75 % / 50 % of the workload footprint, §VI),
//! * [`pcie`] — the 16 GB/s full-duplex link model,
//! * [`driver`] — [`UvmDriver`], the fault-batch service loop with the
//!   20 µs far-fault cost, eviction, touch-bit harvesting and crash
//!   (thrash-death) detection,
//! * [`observe`] — [`DriverObserver`], the hook points of the batch
//!   service, and [`HookLog`], which records every hook call,
//! * [`error`] — [`UvmError`], the typed errors of the fallible service
//!   path (no injection scenario may panic the simulator).
//!
//! The driver optionally carries a `sim_core` fault injector plus a
//! [`ResilienceConfig`]: DMA retries with bounded exponential backoff,
//! batch splitting under fault-queue overflow, and a thrash degradation
//! ladder (throttle prefetch → baseline policy fallback → crash).

pub mod driver;
pub mod error;
pub mod frames;
pub mod observe;
pub mod pcie;

pub use driver::{BatchResult, DriverStats, ResilienceConfig, UvmConfig, UvmDriver};
pub use error::UvmError;
pub use frames::FrameAllocator;
pub use observe::{DriverEvent, DriverObserver, Hook, HookLog, NoObserver};
pub use pcie::PcieLink;
