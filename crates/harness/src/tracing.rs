//! Telemetry recording as an observer.
//!
//! [`Tracing`] owns one run's [`Tracer`] and attaches to the `gpu`
//! event loop's hook points ([`Observer`]) and, through them, to the
//! `uvm` driver's ([`DriverObserver`]); neither simulator crate knows it
//! exists. [`Cell::run`](crate::Cell::run) attaches it to a cell that
//! asks for tracing and hands back the run's [`RunTelemetry`]. It
//! records:
//!
//! * the driver's events, one metrics epoch per serviced batch,
//!   and a `driver_batch` span per batch with `retry_backoff`,
//!   `eviction_dma`, `pcie_transfer` and `host_service` children;
//! * with auditing on, one decision per eviction, with the candidate
//!   window the policy faced, and one per final prefetch plan;
//! * per far fault, a lane-side span tree: a `fault_total` root with
//!   contiguous children `tlb_l1` → `tlb_l2` → `walker_queue` →
//!   `page_walk` (closed at the fault) → `fault_queue_wait` →
//!   `batch_service` → `replay` (closed on the lane's next
//!   translation).
//!
//! Driver and lane spans share one recorder, so one run yields one
//! span set.

use crate::telemetry::{
    DecisionEvent, DecisionKind, MetricKind, RunTelemetry, SpanId, SpanStage, TraceConfig, Tracer,
};
use cppe::pins::PinSet;
use gmmu::translation::TranslationTiming;
use gmmu::types::{ChunkId, VirtPage};
use gpu::observe::{Ctx, Observer};
use sim_core::time::Cycle;
use sim_core::FxHashMap;
use std::collections::BTreeMap;
use uvm::driver::{BatchResult, UvmDriver};
use uvm::observe::{DriverEvent, DriverObserver};

/// Candidate-window size recorded per audited eviction decision. Large
/// enough to show what the policy weighed, small enough to keep the
/// decision ring cheap.
const AUDIT_CANDIDATES: usize = 8;

/// Records one traced run.
#[derive(Debug)]
pub struct Tracing {
    tracer: Tracer,
    lanes: LaneSpans,
    /// Span of the batch being serviced ([`SpanId::NONE`] between
    /// batches).
    batch_span: SpanId,
    /// Latest DMA completion the batch being serviced charged (eviction
    /// write-backs can land after the last migration).
    batch_dma_end: Cycle,
    /// The candidate window previewed before the pending victim
    /// selection (audited runs only).
    candidates: Option<Vec<ChunkId>>,
}

impl Tracing {
    /// A recorder with `trace`'s ring capacities and audit setting, for
    /// a GPU with `warps_per_sm` lanes per SM.
    #[must_use]
    pub fn new(trace: TraceConfig, warps_per_sm: usize) -> Self {
        Tracing {
            tracer: Tracer::new(trace),
            lanes: LaneSpans::new(warps_per_sm),
            batch_span: SpanId::NONE,
            batch_dma_end: Cycle::ZERO,
            candidates: None,
        }
    }

    /// The recorded telemetry (see [`Tracer::finish`]).
    #[must_use]
    pub fn finish(self) -> RunTelemetry {
        self.tracer.finish()
    }

    /// A driver-track span under the current batch.
    fn driver_span(&mut self, stage: SpanStage, start: Cycle, end: Cycle, page: u64) {
        let batch = self.batch_span;
        self.tracer
            .span(stage, start.0, end.0, batch, u16::MAX, u32::MAX, page);
    }
}

/// Every metric one epoch samples, in schema order.
fn epoch_metrics(d: &UvmDriver) -> Vec<(&'static str, MetricKind, u64)> {
    let e = d.engine();
    let mut m: Vec<(&'static str, MetricKind, u64)> = Vec::with_capacity(30);
    for (n, v) in e.stats.metrics() {
        m.push((n, MetricKind::Counter, v));
    }
    m.push((
        "cppe.wrong_evictions",
        MetricKind::Counter,
        e.wrong_evictions(),
    ));
    for (n, v) in d.stats.metrics() {
        m.push((n, MetricKind::Counter, v));
    }
    for (n, v) in d.injector_stats().metrics() {
        m.push((n, MetricKind::Counter, v));
    }
    m.push(("pcie.bytes_h2d", MetricKind::Counter, d.pcie().bytes_h2d));
    m.push(("pcie.bytes_d2h", MetricKind::Counter, d.pcie().bytes_d2h));
    let free = u64::from(d.free_frames());
    let resident = u64::from(d.capacity_frames()) - free;
    m.push(("mem.resident_pages", MetricKind::Gauge, resident));
    m.push(("mem.free_frames", MetricKind::Gauge, free));
    m.push(("cppe.chain_len", MetricKind::Gauge, e.chain().len() as u64));
    m.push((
        "cppe.prefetch_throttle",
        MetricKind::Gauge,
        u64::from(e.prefetch_throttle()),
    ));
    m.push(("driver.rung", MetricKind::Gauge, u64::from(d.sheds())));
    m
}

impl DriverObserver for Tracing {
    fn driver_event(&mut self, d: &UvmDriver, ev: DriverEvent) {
        let span_only = matches!(
            ev,
            DriverEvent::BatchOpened { .. } | DriverEvent::RetryBackoff { .. }
        );
        if !span_only {
            self.tracer.emit(ev);
        }
        match ev {
            DriverEvent::BatchOpened { now, batch } => {
                self.batch_dma_end = now;
                self.batch_span = self.tracer.span_open(
                    SpanStage::DriverBatch,
                    now.0,
                    SpanId::NONE,
                    u16::MAX,
                    u32::MAX,
                    batch,
                );
            }
            DriverEvent::RetryBackoff { page, start, end } => {
                self.driver_span(SpanStage::RetryBackoff, start, end, page.0);
            }
            DriverEvent::ChunkEvicted {
                at,
                chunk,
                resident,
                d2h: (start, done),
                ..
            } => {
                if let Some(cands) = self.candidates.take() {
                    let decision = DecisionEvent {
                        kind: DecisionKind::Eviction,
                        policy: d.engine().evict_name(),
                        origin: "capacity",
                        rung: d.sheds(),
                        chosen: chunk.0,
                        pages: cands.into_iter().map(|c| c.0).collect(),
                    };
                    self.tracer.decision(at.0, decision);
                }
                if resident > 0 {
                    self.driver_span(SpanStage::EvictionDma, start, done, chunk.0);
                    self.batch_dma_end = self.batch_dma_end.max(done);
                }
            }
            DriverEvent::MigrationDma {
                page,
                h2d: (start, done),
                ..
            } => {
                self.driver_span(SpanStage::PcieTransfer, start, done, page.0);
                self.batch_dma_end = self.batch_dma_end.max(done);
            }
            DriverEvent::BatchServiced {
                now,
                batch,
                host_done,
                done_at,
                ..
            } => {
                self.driver_span(SpanStage::HostService, now, host_done, batch);
                let batch_end = done_at.max(self.batch_dma_end);
                self.tracer.span_close(self.batch_span, batch_end.0);
                self.batch_span = SpanId::NONE;
                self.tracer.sample_epoch(now.0, epoch_metrics(d));
            }
            _ => {}
        }
    }

    fn selecting_victim(&mut self, d: &UvmDriver, pins: &PinSet) {
        if self.tracer.audit_enabled() {
            self.candidates = Some(d.engine().victim_candidates(pins, AUDIT_CANDIDATES));
        }
    }

    fn plan_final(&mut self, d: &UvmDriver, at: Cycle, fault: VirtPage, plan: &[VirtPage]) {
        if self.tracer.audit_enabled() {
            let decision = DecisionEvent {
                kind: DecisionKind::Prefetch,
                policy: d.engine().prefetch_name(),
                origin: d.engine().plan_origin(),
                rung: d.sheds(),
                chosen: fault.0,
                pages: plan.iter().map(|p| p.0).collect(),
            };
            self.tracer.decision(at.0, decision);
        }
    }
}

impl Observer for Tracing {
    fn access_hit(&mut self, _: Ctx<'_>, lane: u32, _: VirtPage, ready_at: Cycle) {
        self.lanes.close_replay(&mut self.tracer, lane, ready_at);
    }

    fn fault_raised(
        &mut self,
        _: Ctx<'_>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        self.lanes
            .fault_raised(&mut self.tracer, lane, page, now, timing, at);
    }

    fn batch_dispatched(&mut self, ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
        self.lanes
            .batch_dispatched(&mut self.tracer, ctx, dispatch, batch);
    }

    fn page_ready(&mut self, _: Ctx<'_>, page: VirtPage, now: Cycle, lanes: &[u32]) {
        self.lanes.page_ready(&mut self.tracer, page, now, lanes);
    }
}

/// Open fault lifecycles and replays, keyed so the next hook for the
/// same lane finds them.
#[derive(Debug)]
struct LaneSpans {
    warps_per_sm: usize,
    /// `(page, lane)` → the `fault_total` root, its still-open
    /// `fault_queue_wait` child, and the cycle the fault was raised. A
    /// lane blocks while faulting, so it has at most one entry.
    faults: FxHashMap<(u64, u32), (SpanId, SpanId, u64)>,
    /// Replaying lane → (root, open `replay` span), closed by the lane's
    /// next translation outcome.
    replays: FxHashMap<u32, (SpanId, SpanId)>,
}

impl LaneSpans {
    fn new(warps_per_sm: usize) -> Self {
        LaneSpans {
            warps_per_sm,
            faults: FxHashMap::default(),
            replays: FxHashMap::default(),
        }
    }

    fn sm(&self, lane: u32) -> u16 {
        (lane as usize / self.warps_per_sm) as u16
    }

    /// End `lane`'s replay, and with it the whole lifecycle, at `at`.
    fn close_replay(&mut self, tr: &mut Tracer, lane: u32, at: Cycle) {
        if let Some((root, replay)) = self.replays.remove(&lane) {
            tr.span_close(replay, at.0);
            tr.span_close(root, at.0);
        }
    }

    fn fault_raised(
        &mut self,
        tr: &mut Tracer,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        // A replaying lane that faults again (page evicted or its
        // migration aborted) ends the old lifecycle at the re-issue and
        // opens a fresh one.
        self.close_replay(tr, lane, now);
        let sm = self.sm(lane);
        let root = tr.span_open(SpanStage::FaultTotal, now.0, SpanId::NONE, sm, lane, page.0);
        for (stage, start, end) in [
            (SpanStage::TlbL1, now, timing.l1_done),
            (SpanStage::TlbL2, timing.l1_done, timing.l2_done),
            (SpanStage::WalkerQueue, timing.l2_done, timing.walk_started),
            (SpanStage::PageWalk, timing.walk_started, at),
        ] {
            tr.span(stage, start.0, end.0, root, sm, lane, page.0);
        }
        let queue_wait = tr.span_open(SpanStage::FaultQueueWait, at.0, root, sm, lane, page.0);
        self.faults.insert((page.0, lane), (root, queue_wait, at.0));
    }

    /// Close the fault-queue-wait span of every lane whose fault this
    /// batch completed, and hang its batch-service span off the fault
    /// root. A page may appear in `completions` more than once (a
    /// coalesced duplicate and its serviced original carry different
    /// times); the waiters wake at the *earliest* completion, so that is
    /// the service end — keeping replay contiguous with batch service
    /// and one service span per lifecycle.
    fn batch_dispatched(
        &mut self,
        tr: &mut Tracer,
        ctx: Ctx<'_>,
        dispatch: Cycle,
        batch: &BatchResult,
    ) {
        let mut ready: BTreeMap<VirtPage, Cycle> = BTreeMap::new();
        for &(page, t_done) in &batch.completions {
            ready
                .entry(page)
                .and_modify(|t| *t = (*t).min(t_done))
                .or_insert(t_done);
        }
        let waiting = ctx.waiting();
        for (page, t_done) in ready {
            for lane in waiting.lanes(page) {
                let Some(&(root, queue_wait, fault_at)) = self.faults.get(&(page.0, lane)) else {
                    continue;
                };
                // A queued fault can be dispatched before its own walk
                // resolves (the queue admits it at issue, not at walk
                // completion); service begins no earlier than the fault
                // itself, keeping the stage segments contiguous.
                let service_start = dispatch.0.max(fault_at);
                if tr.span_close(queue_wait, service_start) {
                    let sm = self.sm(lane);
                    tr.span(
                        SpanStage::BatchService,
                        service_start,
                        t_done.0,
                        root,
                        sm,
                        lane,
                        page.0,
                    );
                }
            }
        }
    }

    fn page_ready(&mut self, tr: &mut Tracer, page: VirtPage, now: Cycle, lanes: &[u32]) {
        for &lane in lanes {
            if let Some((root, queue_wait, _)) = self.faults.remove(&(page.0, lane)) {
                let sm = self.sm(lane);
                // A lane whose own fault never made a batch (another
                // lane's did) waits until the shared page lands.
                tr.span_close(queue_wait, now.0);
                let replay = tr.span_open(SpanStage::Replay, now.0, root, sm, lane, page.0);
                self.replays.insert(lane, (root, replay));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cppe::presets::PolicyPreset;
    use gmmu::translation::{TranslationConfig, TranslationPath};
    use gpu::GpuConfig;
    use uvm::driver::UvmConfig;
    use workloads::{AccessStep, LaneItem};

    /// Three batches against a two-chunk memory, recorded with `trace`:
    /// two fills, then a fault that evicts chunk 0 (LRU).
    fn evicting_batches(trace: TraceConfig) -> RunTelemetry {
        let mut d = UvmDriver::new(UvmConfig::table1(32, 1024), PolicyPreset::Baseline.build(7));
        let mut xlat = TranslationPath::new(&TranslationConfig::default());
        let mut tracing = Tracing::new(trace, 1);
        for (page, t) in [(0, 0), (16, 100_000), (32, 200_000)] {
            d.service_batch_with(&[VirtPage(page)], Cycle(t), &mut xlat, &mut tracing)
                .unwrap();
        }
        tracing.finish()
    }

    #[test]
    fn driver_batches_record_events_and_epochs() {
        let t = evicting_batches(TraceConfig::default());
        assert_eq!(t.series.rows.len(), 3, "one epoch per batch");
        t.series.parity().expect("counter deltas reconcile");
        assert_eq!(t.series.final_total("driver.batches"), 3);
        assert_eq!(t.series.final_total("cppe.pages_evicted"), 16);
        assert_eq!(
            t.series.final_total("mem.resident_pages"),
            32,
            "memory full after the eviction round-trip"
        );
        let has = |pred: &dyn Fn(&DriverEvent) -> bool| t.events.iter().any(pred);
        assert!(has(&|e| matches!(e, DriverEvent::FarFault { .. })));
        assert!(has(&|e| matches!(e, DriverEvent::PrefetchPlanned { .. })));
        assert!(has(&|e| matches!(e, DriverEvent::MigrationDma { .. })));
        assert!(has(&|e| matches!(e, DriverEvent::ChunkEvicted { .. })));
        assert!(has(&|e| matches!(e, DriverEvent::BatchServiced { .. })));
        assert!(
            !has(&|e| matches!(
                e,
                DriverEvent::BatchOpened { .. } | DriverEvent::RetryBackoff { .. }
            )),
            "span-only events stay out of the ring"
        );
        let batches = t
            .spans
            .iter()
            .filter(|s| s.stage == SpanStage::DriverBatch)
            .count();
        assert_eq!(batches, 3, "every driver_batch span closes");
    }

    #[test]
    fn audited_driver_records_decision_provenance() {
        // The third batch evicts chunk 0 (LRU) and migrates chunk 2: one
        // eviction decision plus three prefetch decisions.
        let t = evicting_batches(TraceConfig::audited());
        let of = |kind| t.decisions.iter().filter(move |r| r.event.kind == kind);
        let evs: Vec<_> = of(DecisionKind::Eviction).collect();
        let pfs: Vec<_> = of(DecisionKind::Prefetch).collect();
        assert_eq!(evs.len(), 1);
        assert_eq!(pfs.len(), 3, "one per serviced fault");
        let ev = &evs[0].event;
        assert_eq!(ev.policy, "lru");
        assert_eq!(ev.origin, "capacity");
        assert_eq!(ev.rung, 0);
        assert_eq!(ev.chosen, 0, "LRU victim is chunk 0");
        assert!(
            ev.pages.contains(&ev.chosen),
            "victim inside the candidate window"
        );
        assert!(ev.pages.len() <= AUDIT_CANDIDATES);
        let pf = &pfs[2].event;
        assert_eq!(pf.policy, "seq-local");
        assert_eq!(pf.origin, "whole-chunk");
        assert_eq!(pf.chosen, 32);
        assert_eq!(pf.pages.len(), 16, "the exact mapped plan");
        assert!(pf.pages.contains(&32));
        assert_eq!(t.dropped_decisions, 0);
    }

    #[test]
    fn tracing_without_audit_records_no_decisions() {
        let t = evicting_batches(TraceConfig::default());
        assert!(t.decisions.is_empty());
        assert_eq!(t.dropped_decisions, 0);
        assert!(
            !t.series.schema.iter().any(|(n, _)| n.contains("decisions")),
            "audit-off schema must not grow"
        );
    }

    #[test]
    fn traced_run_has_one_epoch_per_batch_and_lane_spans() {
        let cfg = GpuConfig {
            sms: 2,
            warps_per_sm: 2,
            ..GpuConfig::default()
        };
        let stream: Vec<LaneItem> = (0..2)
            .flat_map(|_| (0..128).map(VirtPage))
            .map(|page| LaneItem::Access(AccessStep { page, compute: 100 }))
            .collect();
        let streams = vec![stream];
        let engine = || PolicyPreset::Baseline.build(0);
        let mut tracing = Tracing::new(TraceConfig::default(), cfg.warps_per_sm);
        let r = gpu::simulate_with(&cfg, engine(), &streams, 64, 128, &mut tracing);
        let t = tracing.finish();
        assert_eq!(t.series.rows.len() as u64, r.driver.batches);
        t.series.parity().expect("counter deltas reconcile");
        assert_eq!(t.series.final_total("driver.batches"), r.driver.batches);
        assert_eq!(
            t.series.final_total("cppe.pages_migrated"),
            r.engine.pages_migrated
        );
        assert!(!t.events.is_empty());
        assert!(
            t.spans.iter().any(|s| s.stage == SpanStage::FaultTotal),
            "lane span trees ride along"
        );
        let plain = gpu::simulate(&cfg, engine(), &streams, 64, 128);
        assert_eq!(
            format!("{plain:?}"),
            format!("{r:?}"),
            "tracing never steers"
        );
    }
}
