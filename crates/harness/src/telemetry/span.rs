//! Cycle-stamped span trees for the fault lifecycle.
//!
//! Where a recorded [`uvm::observe::DriverEvent`] says *that* something happened,
//! a span records *how long a stage took* and *which stages it contains*:
//! every far fault owns a span tree — TLB probes → walker queue/walk →
//! fault-queue wait → driver batch service → replay — and every driver
//! batch owns one for its host-side pipeline (host service, retry
//! backoff, PCIe transfer, eviction DMA). The latency attribution engine
//! ([`crate::telemetry::attr`]) and the Chrome flame view are built on these
//! records.
//!
//! Same guarantees as the event ring: recording is bounded (drop-oldest,
//! counted) and never panics. Spans left open when a run ends (lanes
//! still waiting on a migration at timeout/crash) are discarded and
//! counted, so the exported set is always balanced: every recorded span
//! has both endpoints.

use crate::telemetry::ring::BoundedRing;
use sim_core::FxHashMap;

/// Opaque span handle. `SpanId::NONE` (0) means "no span" — the parent
/// of a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The null span: no parent.
    pub const NONE: SpanId = SpanId(0);

    /// Is this the null span?
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == 0
    }
}

/// Which pipeline stage a span measures.
///
/// Lane-scoped stages decompose one far fault as seen by the faulting
/// lane; driver-scoped stages decompose one batch as seen by the host.
/// The two trees overlap in simulated time (batch service *is* part of
/// the fault-queue/service window) but are recorded separately so each
/// side reconciles internally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanStage {
    /// Whole fault lifecycle: access issue → replayed access completes.
    FaultTotal,
    /// Per-SM L1 TLB probe (the miss that starts the lifecycle).
    TlbL1,
    /// Shared L2 TLB probe.
    TlbL2,
    /// Waiting for a free walker slot.
    WalkerQueue,
    /// The page-table walk itself (PWC probe + memory references).
    PageWalk,
    /// Fault raised → batch containing it dispatched to the driver.
    FaultQueueWait,
    /// Batch dispatch → this fault's migration complete (host processing
    /// plus its share of the PCIe queue).
    BatchService,
    /// Migration complete → replayed access resolves in the TLBs.
    Replay,
    /// Whole driver batch: dispatch → last transfer (eviction DMAs
    /// included) lands.
    DriverBatch,
    /// Host CPU processing: 20 µs base plus per-fault handling.
    HostService,
    /// Injected-failure retry backoff charged to the host cursor.
    RetryBackoff,
    /// One migration's host→device DMA occupying the link.
    PcieTransfer,
    /// One eviction's device→host DMA occupying the link.
    EvictionDma,
}

impl SpanStage {
    /// Every stage, lane tree first, in pipeline order.
    pub const ALL: [SpanStage; 13] = [
        SpanStage::FaultTotal,
        SpanStage::TlbL1,
        SpanStage::TlbL2,
        SpanStage::WalkerQueue,
        SpanStage::PageWalk,
        SpanStage::FaultQueueWait,
        SpanStage::BatchService,
        SpanStage::Replay,
        SpanStage::DriverBatch,
        SpanStage::HostService,
        SpanStage::RetryBackoff,
        SpanStage::PcieTransfer,
        SpanStage::EvictionDma,
    ];

    /// Stable stage name (Chrome-trace `name`, report rows, JSON keys).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanStage::FaultTotal => "fault_total",
            SpanStage::TlbL1 => "tlb_l1",
            SpanStage::TlbL2 => "tlb_l2",
            SpanStage::WalkerQueue => "walker_queue",
            SpanStage::PageWalk => "page_walk",
            SpanStage::FaultQueueWait => "fault_queue_wait",
            SpanStage::BatchService => "batch_service",
            SpanStage::Replay => "replay",
            SpanStage::DriverBatch => "driver_batch",
            SpanStage::HostService => "host_service",
            SpanStage::RetryBackoff => "retry_backoff",
            SpanStage::PcieTransfer => "pcie_transfer",
            SpanStage::EvictionDma => "eviction_dma",
        }
    }

    /// Is this stage part of the per-lane fault tree (as opposed to the
    /// driver batch tree)?
    #[must_use]
    pub fn lane_scoped(self) -> bool {
        matches!(
            self,
            SpanStage::FaultTotal
                | SpanStage::TlbL1
                | SpanStage::TlbL2
                | SpanStage::WalkerQueue
                | SpanStage::PageWalk
                | SpanStage::FaultQueueWait
                | SpanStage::BatchService
                | SpanStage::Replay
        )
    }

    /// Does this stage measure *queueing* (waiting for a shared
    /// resource) rather than *service* (the resource working)? The
    /// attribution engine pairs each queue stage with the service stage
    /// that drains it: walker queue ↔ page walk, fault-queue wait ↔
    /// batch service, retry backoff ↔ PCIe transfer.
    #[must_use]
    pub fn is_queueing(self) -> bool {
        matches!(
            self,
            SpanStage::WalkerQueue | SpanStage::FaultQueueWait | SpanStage::RetryBackoff
        )
    }
}

/// One closed span: a stage with both endpoints stamped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// This span's id (never 0 in a recorded span).
    pub id: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// What the span measures.
    pub stage: SpanStage,
    /// Issuing SM for lane-scoped spans (`u16::MAX` for driver spans).
    pub sm: u16,
    /// Issuing lane for lane-scoped spans (`u32::MAX` for driver spans).
    pub lane: u32,
    /// Virtual page (lane tree / DMA spans) or batch sequence number
    /// (`DriverBatch` / `HostService`).
    pub page: u64,
    /// Start cycle (inclusive).
    pub start: u64,
    /// End cycle (`end >= start` always holds for recorded spans).
    pub end: u64,
}

impl SpanRecord {
    /// Span duration in cycles.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Bounded recorder of span trees: a drop-oldest ring of closed spans
/// plus the table of currently-open ones.
#[derive(Debug, Default)]
pub struct SpanRecorder {
    closed: BoundedRing<SpanRecord>,
    open: FxHashMap<u64, SpanRecord>,
    next_id: u64,
}

impl SpanRecorder {
    /// Recorder keeping at most `capacity` closed spans (capacity 0
    /// keeps nothing and counts everything as dropped).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            closed: BoundedRing::new(capacity),
            open: FxHashMap::default(),
            next_id: 1,
        }
    }

    /// Open a span at `start`; close it later with [`SpanRecorder::close`].
    pub fn open(
        &mut self,
        stage: SpanStage,
        start: u64,
        parent: SpanId,
        sm: u16,
        lane: u32,
        page: u64,
    ) -> SpanId {
        let id = self.next_id;
        self.next_id += 1;
        self.open.insert(
            id,
            SpanRecord {
                id,
                parent: parent.0,
                stage,
                sm,
                lane,
                page,
                start,
                end: start,
            },
        );
        SpanId(id)
    }

    /// Close span `id` at `end`. Returns whether the span was actually
    /// open — closing twice (or closing `SpanId::NONE`) is a counted
    /// no-op, which keeps the recorded set balanced even when callers
    /// race on coalesced faults.
    pub fn close(&mut self, id: SpanId, end: u64) -> bool {
        let Some(mut rec) = self.open.remove(&id.0) else {
            return false;
        };
        rec.end = end.max(rec.start);
        self.closed.push(rec);
        true
    }

    /// Record a span whose endpoints are both already known.
    #[allow(clippy::too_many_arguments)]
    pub fn complete(
        &mut self,
        stage: SpanStage,
        start: u64,
        end: u64,
        parent: SpanId,
        sm: u16,
        lane: u32,
        page: u64,
    ) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.closed.push(SpanRecord {
            id: id.0,
            parent: parent.0,
            stage,
            sm,
            lane,
            page,
            start,
            end: end.max(start),
        });
        id
    }

    /// Closed spans dropped by the ring.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.closed.dropped()
    }

    /// Spans currently open.
    #[must_use]
    pub fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Closed spans currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.closed.len()
    }

    /// No closed spans held?
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.closed.is_empty()
    }

    /// Finish recording: the closed spans in close order, the ring-drop
    /// count, and how many still-open spans were discarded (faults
    /// in flight at run end — discarding them keeps every exported span
    /// balanced).
    #[must_use]
    pub fn finish(self) -> (Vec<SpanRecord>, u64, u64) {
        let discarded = self.open.len() as u64;
        let dropped = self.closed.dropped();
        (self.closed.into_vec(), dropped, discarded)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_close_roundtrip() {
        let mut r = SpanRecorder::new(16);
        let root = r.open(SpanStage::FaultTotal, 100, SpanId::NONE, 0, 3, 42);
        let child = r.complete(SpanStage::TlbL1, 100, 101, root, 0, 3, 42);
        assert!(!root.is_none());
        assert_ne!(root, child);
        assert!(r.close(root, 500));
        let (spans, dropped, discarded) = r.finish();
        assert_eq!(dropped, 0);
        assert_eq!(discarded, 0);
        assert_eq!(spans.len(), 2);
        let parent = spans
            .iter()
            .find(|s| s.stage == SpanStage::FaultTotal)
            .unwrap();
        assert_eq!(parent.duration(), 400);
        assert_eq!(
            spans.iter().find(|s| s.id == child.0).unwrap().parent,
            root.0
        );
    }

    #[test]
    fn double_close_is_a_counted_noop() {
        let mut r = SpanRecorder::new(16);
        let s = r.open(SpanStage::FaultQueueWait, 10, SpanId::NONE, 0, 0, 1);
        assert!(r.close(s, 20));
        assert!(!r.close(s, 30), "second close must not record");
        assert!(!r.close(SpanId::NONE, 5));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn unclosed_spans_are_discarded_and_counted() {
        let mut r = SpanRecorder::new(8);
        let _ = r.open(SpanStage::Replay, 1, SpanId::NONE, 0, 0, 9);
        let done = r.open(SpanStage::FaultTotal, 2, SpanId::NONE, 0, 0, 9);
        r.close(done, 50);
        let (spans, _, discarded) = r.finish();
        assert_eq!(spans.len(), 1, "open span never exported");
        assert_eq!(discarded, 1);
    }

    #[test]
    fn backwards_close_clamps_to_start() {
        let mut r = SpanRecorder::new(4);
        let s = r.open(SpanStage::TlbL2, 100, SpanId::NONE, 0, 0, 0);
        r.close(s, 40);
        let (spans, _, _) = r.finish();
        assert_eq!(spans[0].duration(), 0, "end clamps to start");
    }

    #[test]
    fn stage_names_and_scopes_are_stable() {
        assert_eq!(SpanStage::FaultTotal.name(), "fault_total");
        assert!(SpanStage::Replay.lane_scoped());
        assert!(!SpanStage::DriverBatch.lane_scoped());
        assert!(SpanStage::WalkerQueue.is_queueing());
        assert!(!SpanStage::PageWalk.is_queueing());
        assert_eq!(SpanStage::ALL.len(), 13);
    }
}
