//! Hook points of the driver's batch service.
//!
//! [`UvmDriver::service_batch_with`] is generic over a
//! [`DriverObserver`] and reports each step it takes — a batch opened,
//! an injected fault met, a far fault taken up, a DMA retried or
//! abandoned, a plan drawn, a victim about to be chosen, a chunk
//! evicted, a plan made final and migrated, a ladder rung changed, a
//! batch serviced — without knowing what the observer does with it.
//! Every method defaults to a no-op, so [`NoObserver`] compiles to the
//! plain service path; [`UvmDriver::service_batch`] is
//! `service_batch_with(.., NoObserver)`.
//!
//! Observers watch; they never steer. Every hook sees the driver
//! read-only, so an observed batch is bit-identical to an unobserved
//! one. Hooks fire in service order. A pair `(A, B)` of observers is
//! itself an observer that calls `A` then `B`.
//!
//! [`HookLog`] records every call, with the candidate window before
//! each victim selection and the counters behind each serviced batch.

use crate::driver::UvmDriver;
use cppe::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage};
use sim_core::time::Cycle;

/// One step of a batch's service. Cycle stamps are the ones the driver
/// charged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriverEvent {
    /// Batch number `batch` (0-based) opened at `now`.
    BatchOpened { now: Cycle, batch: u64 },
    /// The batch overflowed the injected fault-queue depth; `deferred`
    /// faults were cut off for the next batch.
    QueueOverflow { at: Cycle, deferred: u32 },
    /// An injected spike inflated the batch's base latency.
    LatencySpike { at: Cycle },
    /// `page`'s migration DMA failed (injected, transient).
    TransferFailure { at: Cycle, page: VirtPage },
    /// The host took up the far fault on `page`.
    FarFault { at: Cycle, page: VirtPage },
    /// Retry number `attempt` of `page`'s migration DMA, after
    /// `backoff` cycles.
    DmaRetry {
        at: Cycle,
        page: VirtPage,
        attempt: u32,
        backoff: u64,
    },
    /// `page`'s retries held the host from `start` to `end`.
    RetryBackoff {
        page: VirtPage,
        start: Cycle,
        end: Cycle,
    },
    /// `page`'s migration was abandoned after `attempts` failed DMAs.
    DmaAbort {
        at: Cycle,
        page: VirtPage,
        attempts: u32,
    },
    /// The prefetcher planned `planned` pages for the fault on `page`.
    PrefetchPlanned {
        at: Cycle,
        page: VirtPage,
        planned: u32,
    },
    /// `chunk` was evicted with `resident` pages, `untouch` of them
    /// never touched; its write-back occupies the device→host lane over
    /// `d2h` (start, done).
    ChunkEvicted {
        at: Cycle,
        chunk: ChunkId,
        resident: u32,
        untouch: u32,
        d2h: (Cycle, Cycle),
    },
    /// The plan for the fault on `page` (`pages` pages) migrates over
    /// the host→device lane during `h2d` (start, done).
    MigrationDma {
        at: Cycle,
        page: VirtPage,
        pages: u32,
        h2d: (Cycle, Cycle),
    },
    /// The degradation ladder moved from rung `from` to rung `to`.
    RungChanged { at: Cycle, from: u32, to: u32 },
    /// Batch number `batch`, dispatched at `now`, is serviced: `arrived`
    /// faults handed over (deferred tail included), `distinct` serviced,
    /// `coalesced` already resident; the host finished at `host_done`
    /// and the last migration at `done_at`. Every driver counter
    /// includes the batch.
    BatchServiced {
        now: Cycle,
        batch: u64,
        arrived: u32,
        distinct: u32,
        coalesced: u32,
        host_done: Cycle,
        done_at: Cycle,
    },
}

/// Callbacks at the driver's hook points. All default to no-ops; each
/// gets the driver as the hook finds it.
pub trait DriverObserver {
    /// The driver took a step.
    #[inline]
    fn driver_event(&mut self, _driver: &UvmDriver, _event: DriverEvent) {}

    /// A victim is about to be selected with the batch's pins. Selection
    /// mutates policy state (CLOCK's hand, RRIP aging, the random
    /// draw), so this is the last look at the window the policy faces
    /// (`driver.engine().victim_candidates(pins, ..)`).
    #[inline]
    fn selecting_victim(&mut self, _driver: &UvmDriver, _pins: &PinSet) {}

    /// The final plan for a fault, issued at a cycle: exactly the pages
    /// about to be mapped. Its strategy branch is
    /// `driver.engine().plan_origin()`.
    #[inline]
    fn plan_final(
        &mut self,
        _driver: &UvmDriver,
        _at: Cycle,
        _fault: VirtPage,
        _plan: &[VirtPage],
    ) {
    }
}

/// The observer that watches nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoObserver;

impl DriverObserver for NoObserver {}

impl<A: DriverObserver, B: DriverObserver> DriverObserver for (A, B) {
    #[inline]
    fn driver_event(&mut self, d: &UvmDriver, ev: DriverEvent) {
        self.0.driver_event(d, ev);
        self.1.driver_event(d, ev);
    }

    #[inline]
    fn selecting_victim(&mut self, d: &UvmDriver, pins: &PinSet) {
        self.0.selecting_victim(d, pins);
        self.1.selecting_victim(d, pins);
    }

    #[inline]
    fn plan_final(&mut self, d: &UvmDriver, at: Cycle, fault: VirtPage, plan: &[VirtPage]) {
        self.0.plan_final(d, at, fault, plan);
        self.1.plan_final(d, at, fault, plan);
    }
}

impl<O: DriverObserver + ?Sized> DriverObserver for &mut O {
    #[inline]
    fn driver_event(&mut self, d: &UvmDriver, ev: DriverEvent) {
        (**self).driver_event(d, ev);
    }

    #[inline]
    fn selecting_victim(&mut self, d: &UvmDriver, pins: &PinSet) {
        (**self).selecting_victim(d, pins);
    }

    #[inline]
    fn plan_final(&mut self, d: &UvmDriver, at: Cycle, fault: VirtPage, plan: &[VirtPage]) {
        (**self).plan_final(d, at, fault, plan);
    }
}

/// One recorded hook call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Hook {
    /// [`DriverObserver::driver_event`].
    Event(DriverEvent),
    /// After each [`DriverEvent::BatchServiced`]: the counters a metrics
    /// epoch samples (engine, driver, injector, link, frames, chain
    /// length, prefetch throttle, rung) as `Debug` text.
    Counters(String),
    /// [`DriverObserver::selecting_victim`]: the eviction policy, the
    /// ladder rung, and the first [`HookLog::WINDOW`] chunks of the
    /// candidate window.
    SelectingVictim {
        policy: &'static str,
        rung: u32,
        candidates: Vec<ChunkId>,
    },
    /// [`DriverObserver::plan_final`], with the prefetcher, its plan
    /// origin and the ladder rung.
    PlanFinal {
        at: Cycle,
        fault: VirtPage,
        policy: &'static str,
        origin: &'static str,
        rung: u32,
        plan: Vec<VirtPage>,
    },
}

/// Records every hook call in order.
#[derive(Debug, Clone, Default)]
pub struct HookLog {
    /// The calls, oldest first.
    pub calls: Vec<Hook>,
}

impl HookLog {
    /// Candidate-window size recorded per victim selection.
    pub const WINDOW: usize = 8;
}

impl DriverObserver for HookLog {
    fn driver_event(&mut self, d: &UvmDriver, ev: DriverEvent) {
        self.calls.push(Hook::Event(ev));
        if let DriverEvent::BatchServiced { .. } = ev {
            let e = d.engine();
            self.calls.push(Hook::Counters(format!(
                "{:?}",
                (
                    e.stats,
                    e.wrong_evictions(),
                    d.stats,
                    d.injector_stats(),
                    (d.pcie().bytes_h2d, d.pcie().bytes_d2h),
                    (d.free_frames(), d.capacity_frames()),
                    (e.chain().len(), e.prefetch_throttle(), d.sheds()),
                )
            )));
        }
    }

    fn selecting_victim(&mut self, d: &UvmDriver, pins: &PinSet) {
        self.calls.push(Hook::SelectingVictim {
            policy: d.engine().evict_name(),
            rung: d.sheds(),
            candidates: d.engine().victim_candidates(pins, Self::WINDOW),
        });
    }

    fn plan_final(&mut self, d: &UvmDriver, at: Cycle, fault: VirtPage, plan: &[VirtPage]) {
        self.calls.push(Hook::PlanFinal {
            at,
            fault,
            policy: d.engine().prefetch_name(),
            origin: d.engine().plan_origin(),
            rung: d.sheds(),
            plan: plan.to_vec(),
        });
    }
}
