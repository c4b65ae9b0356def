//! The lane side of the fault-lifecycle span trees, as an observer.
//!
//! Every far fault owns a `fault_total` root with contiguous children:
//! `tlb_l1` → `tlb_l2` → `walker_queue` → `page_walk` (closed at the
//! fault) → `fault_queue_wait` → `batch_service` → `replay` (closed on
//! the lane's next translation). The driver records its own batch
//! spans through the same tracer, so one run yields one span set.
//! `simulate_with` attaches this observer whenever `GpuConfig::trace`
//! is on.

use crate::observe::{Ctx, Observer};
use gmmu::translation::TranslationTiming;
use gmmu::types::VirtPage;
use sim_core::time::Cycle;
use sim_core::FxHashMap;
use std::collections::BTreeMap;
use telemetry::{SpanId, SpanStage};
use uvm::driver::BatchResult;

/// Open fault lifecycles and replays, keyed so the next hook for the
/// same lane finds them.
pub(crate) struct LaneSpans {
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
    pub(crate) fn new(warps_per_sm: usize) -> Self {
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
    fn close_replay(&mut self, ctx: &mut Ctx<'_>, lane: u32, at: Cycle) {
        if let Some((root, replay)) = self.replays.remove(&lane) {
            let tr = ctx.tracer();
            tr.span_close(replay, at.0);
            tr.span_close(root, at.0);
        }
    }
}

impl Observer for LaneSpans {
    fn access_hit(&mut self, mut ctx: Ctx<'_>, lane: u32, _: VirtPage, ready_at: Cycle) {
        self.close_replay(&mut ctx, lane, ready_at);
    }

    fn fault_raised(
        &mut self,
        mut ctx: Ctx<'_>,
        lane: u32,
        page: VirtPage,
        now: Cycle,
        timing: &TranslationTiming,
        at: Cycle,
    ) {
        // A replaying lane that faults again (page evicted or its
        // migration aborted) ends the old lifecycle at the re-issue and
        // opens a fresh one.
        self.close_replay(&mut ctx, lane, now);
        let sm = self.sm(lane);
        let tr = ctx.tracer();
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
    fn batch_dispatched(&mut self, mut ctx: Ctx<'_>, dispatch: Cycle, batch: &BatchResult) {
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
                let tr = ctx.tracer();
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

    fn page_ready(&mut self, mut ctx: Ctx<'_>, page: VirtPage, now: Cycle, lanes: &[u32]) {
        for &lane in lanes {
            if let Some((root, queue_wait, _)) = self.faults.remove(&(page.0, lane)) {
                let sm = self.sm(lane);
                let tr = ctx.tracer();
                // A lane whose own fault never made a batch (another
                // lane's did) waits until the shared page lands.
                tr.span_close(queue_wait, now.0);
                let replay = tr.span_open(SpanStage::Replay, now.0, root, sm, lane, page.0);
                self.replays.insert(lane, (root, replay));
            }
        }
    }
}
