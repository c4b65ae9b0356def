//! Typed policy-decision provenance events.
//!
//! The event ring ([`crate::telemetry::ring`]) answers *what happened*; the
//! decision ring answers *why*: every eviction and prefetch the driver
//! performs while auditing is on records which policy made the call,
//! which degradation-ladder rung it was made under, and the candidate
//! window (eviction) or planned page set (prefetch) it chose from.
//! Decision events carry `Vec` payloads, so they live in their own
//! ring instead of riding in the event ring —
//! the existing exporters never see them and stay bit-identical when
//! auditing is off.

/// Which kind of policy decision was recorded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// A victim chunk was selected for eviction.
    Eviction,
    /// A migration plan was drawn up for a far fault.
    Prefetch,
}

impl DecisionKind {
    /// Stable lowercase name for exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            DecisionKind::Eviction => "eviction",
            DecisionKind::Prefetch => "prefetch",
        }
    }
}

/// One policy decision with full provenance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionEvent {
    /// Eviction or prefetch.
    pub kind: DecisionKind,
    /// Name of the policy that made the call (eviction policy or
    /// prefetcher), as reported by the engine *at decision time* — so
    /// fallback-ladder decisions carry the fallback policy's name.
    pub policy: &'static str,
    /// Which branch of the policy produced the decision (prefetchers:
    /// the plan origin, e.g. `pattern-hit`; evictions: the selection
    /// trigger, e.g. `capacity`).
    pub origin: &'static str,
    /// Thrash-degradation-ladder rung at decision time.
    pub rung: u32,
    /// What was chosen: the victim chunk id (eviction) or the faulted
    /// virtual page the plan is anchored on (prefetch).
    pub chosen: u64,
    /// The set the decision drew from: candidate chunk ids in
    /// consideration order (eviction, bounded preview) or the exact
    /// planned virtual pages after driver capping (prefetch).
    pub pages: Vec<u64>,
}

/// A decision stamped with the simulated cycle it was recorded at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecisionRecord {
    /// Simulated-cycle timestamp.
    pub cycle: u64,
    /// The decision.
    pub event: DecisionEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(DecisionKind::Eviction.name(), "eviction");
        assert_eq!(DecisionKind::Prefetch.name(), "prefetch");
    }
}
