//! # telemetry — unified observability for the simulator stack
//!
//! Before this crate, observability was scattered across four
//! disconnected carriers: `sim_core::stats::StatSet`, the bespoke
//! per-run timeline in `gpu::sim`, `uvm::DriverStats`, and per-binary
//! CSV glue in the harness. This crate unifies them:
//!
//! * [`event`] — the typed [`TraceEvent`] taxonomy (far-fault
//!   lifecycle, migration DMA start/retry/abort, evictions, prefetch
//!   decisions, thrash-ladder rung transitions, injected faults),
//! * [`ring`] — the bounded [`TraceRing`] event buffer (drop-oldest,
//!   never panics, counts drops),
//! * [`metrics`] — [`MetricsRegistry`]: counters/gauges/histograms
//!   under stable dotted names, absorbing [`sim_core::StatSet`], with
//!   an epoch sampler that snapshots totals at fault-batch granularity
//!   ([`EpochSeries`]),
//! * [`tracer`] — [`Tracer`], the cheap handle the `uvm` driver and
//!   `gpu` simulator carry; a disabled tracer is a no-op that allocates
//!   nothing and draws no state, so runs with telemetry off are
//!   bit-identical to runs that never heard of this crate,
//! * [`span`] — [`SpanRecorder`]: cycle-stamped span trees over the
//!   fault lifecycle (TLB probes → walker → fault-queue wait → batch
//!   service → replay) and the driver batch pipeline, with the same
//!   bounded-ring and zero-cost-when-disabled guarantees as the event
//!   ring,
//! * [`attr`] — [`LatencyAttribution`]: spans folded into per-stage
//!   latency quantiles, queueing-vs-service splits, and per-SM /
//!   per-page-region fault-time totals,
//! * [`csv`] — the one escaped, schema-checked CSV writer every
//!   emitter routes through,
//! * [`json`] — dependency-free JSON emission helpers and a validating
//!   parser (used by the golden-schema tests and the CI artifact
//!   check),
//! * [`export`] — the exporters: wide per-epoch timeline CSV, JSON run
//!   summary, Chrome trace-event JSON loadable in Perfetto, and the
//!   crash-safe [`export::write_atomic`] file writer,
//! * [`monitor`] — [`Monitor`]: the periodic in-run snapshot sampler
//!   walking the registry on cycle/wall cadence into a bounded ring of
//!   [`MonitorSnapshot`]s (the `--monitor` series).
//!
//! ## Overhead guarantee
//!
//! Every entry point checks [`Tracer::enabled`] first (one branch on a
//! niche-optimized `Option`); event payloads are built inside closures
//! that are never invoked when tracing is off. Telemetry observes
//! simulation state and never mutates it, so enabling it cannot change
//! a run's timing or results either — only record them.

pub mod attr;
pub mod csv;
pub mod decision;
pub mod event;
pub mod export;
pub mod json;
pub mod ledger;
pub mod metrics;
pub mod monitor;
pub mod ring;
pub mod span;
pub mod tracer;

pub use attr::{AttributedTotal, LatencyAttribution, QueueServiceSplit, StageSummary};
pub use csv::CsvWriter;
pub use decision::{DecisionEvent, DecisionKind, DecisionRecord, DecisionRing};
pub use event::{EventRecord, InjectedFaultKind, TraceEvent};
pub use export::TraceFormat;
pub use ledger::{PageLedger, PageLife};
pub use metrics::{EpochRow, EpochSeries, MetricKind, MetricsRegistry};
pub use monitor::{Monitor, MonitorSeries, MonitorSnapshot};
pub use ring::TraceRing;
pub use span::{SpanId, SpanRecord, SpanRecorder, SpanStage};
pub use tracer::{RunTelemetry, TraceConfig, Tracer};
