//! How the exports show a recorded driver event.
//!
//! The tracer's event ring holds the driver's own [`DriverEvent`]s, each
//! stamped with the cycle the driver charged. [`show`] is the one place
//! that turns any recorded variant into its cycle and the Chrome trace's
//! name, track and `args`.

use std::fmt::Write as _;
use uvm::observe::DriverEvent;

/// One driver event as the exports show it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shown {
    /// Simulated cycle the event is stamped with.
    pub cycle: u64,
    /// Stable event name (Chrome-trace `name`).
    pub name: &'static str,
    /// Track the event renders on in the Chrome trace (also its
    /// category). Tracks group related lifecycle stages so the
    /// fault/migration/eviction overlap is visible at a glance.
    pub track: &'static str,
    /// Event arguments as a JSON object (Chrome-trace `args`).
    pub args: String,
    /// Cycle the event's duration slice ends: batch service ends when
    /// the host frees up, a migration when its DMA lands. `None`
    /// renders as an instant.
    pub end: Option<u64>,
}

/// Show a recorded `event`. The three injected perturbations share the
/// name `injected_fault` and tell themselves apart by a `kind`
/// argument; a transfer failure names no page.
///
/// # Panics
/// Panics on `BatchOpened` and `RetryBackoff`, which the tracer records
/// as spans only.
#[must_use]
pub fn show(event: &DriverEvent) -> Shown {
    let u = u64::from;
    let (at, name, track, args, end) = match *event {
        DriverEvent::BatchOpened { .. } | DriverEvent::RetryBackoff { .. } => {
            unreachable!("{event:?} is recorded as a span, not an event")
        }
        DriverEvent::QueueOverflow { at, deferred } => {
            let args = object(Some("queue_overflow"), &[("deferred", u(deferred))]);
            (at, "injected_fault", "inject", args, None)
        }
        DriverEvent::LatencySpike { at } => {
            let args = object(Some("latency_spike"), &[]);
            (at, "injected_fault", "inject", args, None)
        }
        DriverEvent::TransferFailure { at, .. } => {
            let args = object(Some("transfer_failure"), &[]);
            (at, "injected_fault", "inject", args, None)
        }
        DriverEvent::FarFault { at, page } => (
            at,
            "far_fault",
            "fault",
            object(None, &[("page", page.0)]),
            None,
        ),
        DriverEvent::DmaRetry {
            at,
            page,
            attempt,
            backoff,
        } => {
            let args = object(
                None,
                &[
                    ("page", page.0),
                    ("attempt", u(attempt)),
                    ("backoff_cycles", backoff),
                ],
            );
            (at, "dma_retry", "dma", args, None)
        }
        DriverEvent::DmaAbort { at, page, attempts } => {
            let args = object(None, &[("page", page.0), ("attempts", u(attempts))]);
            (at, "dma_abort", "dma", args, None)
        }
        DriverEvent::PrefetchPlanned { at, page, planned } => {
            let args = object(None, &[("page", page.0), ("planned", u(planned))]);
            (at, "prefetch_decision", "fault", args, None)
        }
        DriverEvent::ChunkEvicted {
            at,
            chunk,
            resident,
            untouch,
            ..
        } => {
            let args = object(
                None,
                &[
                    ("chunk", chunk.0),
                    ("resident", u(resident)),
                    ("untouch", u(untouch)),
                ],
            );
            (at, "eviction", "evict", args, None)
        }
        DriverEvent::MigrationDma {
            at,
            page,
            pages,
            h2d: (_, done),
        } => {
            let args = object(
                None,
                &[
                    ("page", page.0),
                    ("pages", u(pages)),
                    ("done_cycle", done.0),
                ],
            );
            (at, "migration_dma", "dma", args, Some(done.0))
        }
        DriverEvent::RungChanged { at, from, to } => {
            let args = object(None, &[("from", u(from)), ("to", u(to))]);
            (at, "rung_transition", "ladder", args, None)
        }
        DriverEvent::BatchServiced {
            now,
            batch,
            arrived,
            distinct,
            coalesced,
            host_done,
            done_at,
        } => {
            let args = object(
                None,
                &[
                    ("batch", batch),
                    ("arrived", u(arrived)),
                    ("distinct", u(distinct)),
                    ("coalesced", u(coalesced)),
                    ("host_done_cycle", host_done.0),
                    ("done_cycle", done_at.0),
                ],
            );
            (now, "batch", "driver", args, Some(host_done.0))
        }
    };
    Shown {
        cycle: at.0,
        name,
        track,
        args,
        end,
    }
}

/// A JSON object: `"kind"` first when given, then `fields` in order.
fn object(kind: Option<&str>, fields: &[(&str, u64)]) -> String {
    let mut s = String::from("{");
    if let Some(kind) = kind {
        let _ = write!(s, "\"kind\":\"{kind}\"");
    }
    for (k, v) in fields {
        if s.len() > 1 {
            s.push(',');
        }
        let _ = write!(s, "\"{k}\":{v}");
    }
    s.push('}');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmmu::types::{ChunkId, VirtPage};
    use sim_core::time::Cycle;

    #[test]
    fn names_and_tracks_are_stable() {
        let e = show(&DriverEvent::ChunkEvicted {
            at: Cycle(5),
            chunk: ChunkId(3),
            resident: 16,
            untouch: 15,
            d2h: (Cycle(5), Cycle(9)),
        });
        assert_eq!((e.cycle, e.name, e.track), (5, "eviction", "evict"));
        assert_eq!(e.args, "{\"chunk\":3,\"resident\":16,\"untouch\":15}");
        let rung = DriverEvent::RungChanged {
            at: Cycle(1),
            from: 1,
            to: 0,
        };
        assert_eq!(show(&rung).track, "ladder");
    }

    #[test]
    fn args_render_as_json_objects() {
        let e = show(&DriverEvent::DmaRetry {
            at: Cycle(7),
            page: VirtPage(7),
            attempt: 2,
            backoff: 4000,
        });
        assert_eq!(e.args, "{\"page\":7,\"attempt\":2,\"backoff_cycles\":4000}");
        let q = show(&DriverEvent::QueueOverflow {
            at: Cycle(1),
            deferred: 3,
        });
        assert_eq!(q.name, "injected_fault");
        assert_eq!(q.args, "{\"kind\":\"queue_overflow\",\"deferred\":3}");
        crate::telemetry::json::validate(&q.args).expect("valid JSON");
        let failure = show(&DriverEvent::TransferFailure {
            at: Cycle(1),
            page: VirtPage(9),
        });
        assert_eq!(failure.args, "{\"kind\":\"transfer_failure\"}", "no page");
    }
}
