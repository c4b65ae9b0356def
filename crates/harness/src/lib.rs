//! # harness — experiment harness for the CPPE reproduction
//!
//! Regenerates every table and figure of the paper's evaluation. Each
//! `src/bin/*` binary reproduces one artifact (see DESIGN.md's
//! experiment index); the library provides the shared machinery:
//!
//! * [`runner`] — one (workload × policy × rate) cell as data,
//! * [`plan`] — experiments as declared cells, run once each on an
//!   atomic job cursor with per-cell panic containment,
//! * [`report`] — text table rendering and the report saver,
//! * [`record`] — the one JSON run record every export writes,
//! * [`telemetry`] — what a traced run records (driver events, epoch
//!   metrics, spans, audited decisions) and its exports: timeline CSV,
//!   Chrome trace, page-lifetime ledger,
//! * [`tracing`] — [`Tracing`], the observer that records a traced
//!   cell's telemetry,
//! * [`opt`] — the offline Belady chunk-fault bound,
//! * [`oracle`] — the decision-audit comparator against that bound,
//! * [`experiments`] — one module per paper artifact.

pub mod experiments;
pub mod opt;
pub mod oracle;
pub mod plan;
pub mod record;
pub mod report;
pub mod runner;
pub mod telemetry;
pub mod tracing;

pub use plan::{cross, run_plan, Experiment, Results};
pub use runner::{capacity_pages, geomean, run_cell, speedup, Cell, CellKey, ExpConfig, RATES};
pub use tracing::Tracing;
