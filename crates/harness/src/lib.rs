//! # harness — experiment harness for the CPPE reproduction
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! `src/bin/*` binary reproduces one artifact (see DESIGN.md's
//! experiment index); the library provides the shared machinery:
//!
//! * [`runner`] — one (workload × policy × rate) cell,
//! * [`sweep`] — the parallel sweep executor (an atomic job cursor
//!   with per-cell panic containment),
//! * [`report`] — text/CSV table rendering,
//! * [`history`] — the cross-run bench-history ledger behind `trend`,
//! * [`opt`] — the offline Belady chunk-fault bound,
//! * [`oracle`] — the decision-audit comparator against that bound,
//! * [`experiments`] — one module per paper artifact.

pub mod experiments;
pub mod history;
pub mod opt;
pub mod oracle;
pub mod report;
pub mod runner;
pub mod sweep;

pub use runner::{capacity_pages, geomean, run_cell, speedup, ExpConfig, RATES};
pub use sweep::{cross, run_sweep, Job};
