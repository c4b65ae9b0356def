//! # telemetry — what a traced run records, and its exports
//!
//! * [`event`] — [`show`], how the exports render a recorded
//!   [`uvm::observe::DriverEvent`] (far-fault lifecycle, migration DMA
//!   start/retry/abort, evictions, prefetch decisions, thrash-ladder
//!   rung transitions, injected faults),
//! * [`ring`] — [`BoundedRing`], the drop-oldest buffer behind the
//!   event, decision and span rings (never panics, counts drops),
//! * [`metrics`] — [`EpochSeries`]: counter and gauge totals under
//!   stable dotted names, one row per fault batch,
//! * [`tracer`] — [`Tracer`], the recording handle of one traced run;
//!   the [`Tracing`](crate::Tracing) observer owns it and attaches to
//!   the `gpu` event loop's and the `uvm` driver's hook points, so
//!   neither simulator crate knows it exists,
//! * [`span`] — [`SpanRecorder`]: cycle-stamped span trees over the
//!   fault lifecycle (TLB probes → walker → fault-queue wait → batch
//!   service → replay) and the driver batch pipeline, with the same
//!   bounded-ring guarantee as the event ring,
//! * [`attr`] — [`LatencyAttribution`]: spans folded into per-stage
//!   latency quantiles, queueing-vs-service splits, and per-SM /
//!   per-page-region fault-time totals,
//! * [`csv`] — the one escaped, schema-checked CSV writer every
//!   emitter routes through,
//! * [`json`] — dependency-free JSON emission helpers and a validating
//!   parser (used by the golden-schema tests and the CI artifact
//!   check),
//! * [`export`] — the exporters: wide per-epoch timeline CSV, Chrome
//!   trace-event JSON loadable in Perfetto, and the crash-safe
//!   [`export::write_atomic`] file writer (the JSON run record, which
//!   needs the harness's oracle, lives in `harness::record`).
//!
//! ## Overhead guarantee
//!
//! An untraced run has no tracer at all: the simulator crates do not
//! depend on the harness, and the hook points a tracer attaches to
//! compile to nothing when no observer is attached. Every hook sees the
//! simulator read-only, so attaching a tracer cannot change a run's
//! timing or results either — only record them.

pub mod attr;
pub mod csv;
pub mod decision;
pub mod event;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod ring;
pub mod span;
pub mod tracer;

pub use attr::{AttributedTotal, LatencyAttribution, QueueServiceSplit, StageSummary};
pub use csv::CsvWriter;
pub use decision::{DecisionEvent, DecisionKind, DecisionRecord};
pub use event::{show, Shown};
pub use export::TraceFormat;
pub use ledger::{PageLedger, PageLife};
pub use metrics::{EpochRow, EpochSeries, MetricKind};
pub use ring::BoundedRing;
pub use span::{SpanId, SpanRecord, SpanRecorder, SpanStage};
pub use tracer::{RunTelemetry, TraceConfig, Tracer};
