//! The recording handle.
//!
//! A [`Tracer`] records one run: driver events, decision provenance,
//! epoch metrics and the span trees of [`crate::telemetry::span`], each in its own
//! bounded ring. The simulator crates do not know it exists: the
//! harness's tracing observer, attached to the `gpu` event loop's and
//! the `uvm` driver's hook points, owns the run's tracer and turns it
//! into the run's [`RunTelemetry`] with [`Tracer::finish`]. A run that
//! is not traced has no tracer at all.
//!
//! `span_open`/`span_close` bracket a stage whose end is not yet known,
//! `span` records one whose endpoints are.

use crate::telemetry::decision::{DecisionEvent, DecisionRecord};
use crate::telemetry::metrics::{EpochSeries, MetricKind};
use crate::telemetry::ring::BoundedRing;
use crate::telemetry::span::{SpanId, SpanRecord, SpanRecorder, SpanStage};
use uvm::observe::DriverEvent;

/// A tracing request: ring capacities and whether to audit decisions.
/// `Copy`, so configs stay plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Event ring capacity (newest events win on overflow).
    pub ring_capacity: usize,
    /// Span ring capacity (newest closed spans win on overflow).
    pub span_capacity: usize,
    /// Record policy-decision provenance ([`DecisionEvent`]s). Off by
    /// default — decisions carry owned candidate/plan sets, so auditing
    /// is opt-in and leaves every other export bit-identical when off.
    pub audit: bool,
    /// Decision ring capacity (newest decisions win on overflow).
    pub decision_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            ring_capacity: 65_536,
            span_capacity: 65_536,
            audit: false,
            decision_capacity: 65_536,
        }
    }
}

impl TraceConfig {
    /// Decision auditing on with the default capacities.
    #[must_use]
    pub fn audited() -> Self {
        TraceConfig {
            audit: true,
            ..TraceConfig::default()
        }
    }
}

/// The recording handle of one traced run.
#[derive(Debug)]
pub struct Tracer {
    ring: BoundedRing<DriverEvent>,
    series: EpochSeries,
    spans: SpanRecorder,
    /// Present only when `TraceConfig::audit` was set.
    decisions: Option<BoundedRing<DecisionRecord>>,
}

impl Tracer {
    /// A tracer with `cfg`'s ring capacities.
    #[must_use]
    pub fn new(cfg: TraceConfig) -> Self {
        Tracer {
            ring: BoundedRing::new(cfg.ring_capacity),
            series: EpochSeries::default(),
            spans: SpanRecorder::new(cfg.span_capacity),
            decisions: cfg.audit.then(|| BoundedRing::new(cfg.decision_capacity)),
        }
    }

    /// Is decision auditing recording?
    #[inline]
    #[must_use]
    pub fn audit_enabled(&self) -> bool {
        self.decisions.is_some()
    }

    /// Record a driver event (it carries its own cycle).
    #[inline]
    pub fn emit(&mut self, event: DriverEvent) {
        self.ring.push(event);
    }

    /// Record a policy decision at `cycle`; a no-op unless auditing is
    /// on. Callers gate on [`Tracer::audit_enabled`] before building
    /// the decision's candidate or plan set.
    #[inline]
    pub fn decision(&mut self, cycle: u64, event: DecisionEvent) {
        if let Some(ring) = self.decisions.as_mut() {
            ring.push(DecisionRecord { cycle, event });
        }
    }

    /// Open a span at `start` under `parent` (pass [`SpanId::NONE`] for
    /// a root).
    #[inline]
    pub fn span_open(
        &mut self,
        stage: SpanStage,
        start: u64,
        parent: SpanId,
        sm: u16,
        lane: u32,
        page: u64,
    ) -> SpanId {
        self.spans.open(stage, start, parent, sm, lane, page)
    }

    /// Close span `id` at `end`. Returns whether a span was actually
    /// closed (false when already closed, or `NONE`).
    #[inline]
    pub fn span_close(&mut self, id: SpanId, end: u64) -> bool {
        self.spans.close(id, end)
    }

    /// Record a complete span (both endpoints known).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn span(
        &mut self,
        stage: SpanStage,
        start: u64,
        end: u64,
        parent: SpanId,
        sm: u16,
        lane: u32,
        page: u64,
    ) -> SpanId {
        self.spans
            .complete(stage, start, end, parent, sm, lane, page)
    }

    /// Sample one epoch of `(name, kind, total)` at `cycle` (see
    /// [`EpochSeries::push`]: every epoch names the same metrics in the
    /// same order). The tracer appends its own loss accounting —
    /// `telemetry.ring.dropped` and `telemetry.spans.dropped` — so ring
    /// overflow is visible in the exported timeline, not just at end of
    /// run.
    pub fn sample_epoch<'a>(
        &mut self,
        cycle: u64,
        metrics: impl IntoIterator<Item = (&'a str, MetricKind, u64)>,
    ) {
        // Only audited runs grow the schema — timeline CSVs of
        // non-audited runs keep their exact column set.
        let loss = [
            Some(("telemetry.ring.dropped", self.ring.dropped())),
            Some(("telemetry.spans.dropped", self.spans.dropped())),
            (self.decisions.as_ref()).map(|d| ("telemetry.decisions.dropped", d.dropped())),
        ];
        let loss = loss.into_iter().flatten();
        let metrics = metrics
            .into_iter()
            .chain(loss.map(|(name, n)| (name, MetricKind::Counter, n)));
        self.series.push(cycle, metrics);
    }

    /// Consume the tracer into the run's telemetry. Spans still open
    /// are discarded and counted so the exported set is always
    /// balanced.
    #[must_use]
    pub fn finish(self) -> RunTelemetry {
        let Tracer {
            ring,
            series,
            spans,
            decisions,
        } = self;
        let dropped = ring.dropped();
        let (spans, dropped_spans, unclosed_spans) = spans.finish();
        let (decisions, dropped_decisions) = match decisions {
            Some(ring) => {
                let dropped = ring.dropped();
                (ring.into_vec(), dropped)
            }
            None => (Vec::new(), 0),
        };
        RunTelemetry {
            events: ring.into_vec(),
            dropped_events: dropped,
            series,
            spans,
            dropped_spans,
            unclosed_spans,
            decisions,
            dropped_decisions,
        }
    }
}

/// Everything one run recorded.
#[derive(Debug, Clone, Default)]
pub struct RunTelemetry {
    /// Driver events, oldest first (ring-bounded): every kind but the
    /// span-only `BatchOpened` and `RetryBackoff`.
    pub events: Vec<DriverEvent>,
    /// Events dropped by the ring.
    pub dropped_events: u64,
    /// The per-epoch metric series.
    pub series: EpochSeries,
    /// Closed spans, in close order (ring-bounded).
    pub spans: Vec<SpanRecord>,
    /// Closed spans dropped by the span ring.
    pub dropped_spans: u64,
    /// Spans still open at run end, discarded to keep the set balanced.
    pub unclosed_spans: u64,
    /// Audited policy decisions, oldest first (ring-bounded; empty when
    /// auditing was off).
    pub decisions: Vec<DecisionRecord>,
    /// Decisions dropped by the decision ring.
    pub dropped_decisions: u64,
}

impl RunTelemetry {
    /// Were any events, spans or decisions lost to ring overflow?
    #[must_use]
    pub fn lossy(&self) -> bool {
        self.dropped_events > 0 || self.dropped_spans > 0 || self.dropped_decisions > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::attr::LatencyAttribution;

    #[test]
    fn tracer_records_events_and_epochs() {
        let mut t = Tracer::new(TraceConfig::default());
        t.emit(DriverEvent::FarFault {
            at: sim_core::time::Cycle(10),
            page: gmmu::types::VirtPage(3),
        });
        t.sample_epoch(
            10,
            [
                ("d.batches", MetricKind::Counter, 1),
                ("m.resident", MetricKind::Gauge, 16),
            ],
        );
        t.sample_epoch(
            20,
            [
                ("d.batches", MetricKind::Counter, 2),
                ("m.resident", MetricKind::Gauge, 32),
            ],
        );
        let r = t.finish();
        assert_eq!(r.events.len(), 1);
        assert_eq!(r.series.rows.len(), 2);
        assert_eq!(r.series.final_total("d.batches"), 2);
        assert_eq!(r.series.final_total("telemetry.ring.dropped"), 0);
        assert_eq!(r.series.final_total("telemetry.spans.dropped"), 0);
        r.series.parity().unwrap();
    }

    #[test]
    fn finish_discards_open_spans() {
        let mut t = Tracer::new(TraceConfig::default());
        let root = t.span_open(SpanStage::FaultTotal, 100, SpanId::NONE, 2, 9, 7);
        t.span(SpanStage::PageWalk, 100, 700, root, 2, 9, 7);
        assert!(t.span_close(root, 1100));
        let leak = t.span_open(SpanStage::Replay, 1100, root, 2, 9, 7);
        assert!(!leak.is_none());
        let r = t.finish();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.unclosed_spans, 1, "open replay span discarded");
        assert!(!r.lossy());
        // The closed spans' latencies, as the run record folds them.
        let stages = LatencyAttribution::from_spans(&r.spans).stages;
        let stage = |s| stages.iter().find(|x| x.stage == s).unwrap();
        assert_eq!(stage(SpanStage::FaultTotal).count, 1);
        assert_eq!(stage(SpanStage::FaultTotal).max, 1000);
        assert_eq!(stage(SpanStage::PageWalk).p50, 600);
    }

    #[test]
    fn span_ring_overflow_is_counted_and_sampled() {
        let mut t = Tracer::new(TraceConfig {
            ring_capacity: 4,
            span_capacity: 2,
            ..TraceConfig::default()
        });
        for i in 0..5u64 {
            t.span(SpanStage::TlbL1, i, i + 1, SpanId::NONE, 0, 0, i);
        }
        t.sample_epoch(100, []);
        let r = t.finish();
        assert_eq!(r.spans.len(), 2);
        assert_eq!(r.dropped_spans, 3);
        assert!(r.lossy());
        assert_eq!(r.series.final_total("telemetry.spans.dropped"), 3);
    }

    fn sample_decision(chosen: u64) -> crate::telemetry::decision::DecisionEvent {
        crate::telemetry::decision::DecisionEvent {
            kind: crate::telemetry::decision::DecisionKind::Eviction,
            policy: "lru",
            origin: "capacity",
            rung: 0,
            chosen,
            pages: vec![chosen, chosen + 1],
        }
    }

    #[test]
    fn tracing_without_audit_records_no_decisions() {
        let mut t = Tracer::new(TraceConfig::default());
        assert!(!t.audit_enabled());
        t.decision(5, sample_decision(1));
        t.sample_epoch(10, []);
        let r = t.finish();
        assert!(r.decisions.is_empty());
        assert_eq!(r.dropped_decisions, 0);
        assert!(
            !r.series
                .schema
                .iter()
                .any(|(n, _)| n == "telemetry.decisions.dropped"),
            "non-audited schema must not grow"
        );
    }

    #[test]
    fn audited_tracer_records_decisions_and_loss() {
        let mut t = Tracer::new(TraceConfig {
            decision_capacity: 2,
            ..TraceConfig::audited()
        });
        assert!(t.audit_enabled());
        for i in 0..5u64 {
            t.decision(i, sample_decision(i));
        }
        t.sample_epoch(100, []);
        let r = t.finish();
        assert_eq!(r.decisions.len(), 2);
        assert_eq!(r.dropped_decisions, 3);
        assert!(r.lossy());
        assert_eq!(r.series.final_total("telemetry.decisions.dropped"), 3);
        assert_eq!(r.decisions[0].event.pages, vec![3, 4], "newest survive");
    }
}
