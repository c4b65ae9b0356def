//! Eviction (page replacement) policies.
//!
//! Every policy operates on the shared [`ChunkChain`] and selects
//! *chunks* as eviction victims — the prefetch-semantics-aware
//! pre-eviction granularity of Ganguly et al. that the paper's baseline
//! and CPPE both use ("pre-evicts contiguous pages in bulk the way they
//! were brought in by the prefetcher").
//!
//! Implemented policies:
//!
//! | Policy | Paper role |
//! |---|---|
//! | [`LruPolicy`](lru::LruPolicy) | baseline (with sequential-local prefetcher) |
//! | [`RandomPolicy`](random::RandomPolicy) | comparison point (Fig. 3, Fig. 9) |
//! | [`ReservedLruPolicy`](reserved_lru::ReservedLruPolicy) | Ganguly et al.'s reserved LRU (Fig. 3, Fig. 9) |
//! | [`HpePolicy`](hpe::HpePolicy) | prior work, counter-based (motivation §III) |
//! | [`MhpePolicy`](mhpe::MhpePolicy) | the paper's modified HPE (§IV-B) |
//! | [`ClockPolicy`](clock::ClockPolicy) | extension: OS-classic second chance |
//! | [`SrripPolicy`](rrip::SrripPolicy) | extension: chunk-level SRRIP (paper ref \[13\]) |

pub mod clock;
pub mod hpe;
pub mod lru;
pub mod mhpe;
pub mod random;
pub mod reserved_lru;
pub mod rrip;

use crate::chain::ChunkChain;
use crate::pins::PinSet;
use gmmu::types::{ChunkId, VirtPage};

/// Where a newly migrated chunk enters the chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertAt {
    /// MRU position (the default for fresh migrations).
    Tail,
    /// LRU position — MHPE parks wrongly evicted chunks here so the MRU
    /// victim window cannot thrash them again.
    Head,
}

/// MHPE's runtime trace, surfaced for Tables III/IV and the sensitivity
/// studies.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MhpeTrace {
    /// Per-interval (since memory full) total untouch level — U1 history.
    pub interval_untouch: Vec<u32>,
    /// Forward distance at each interval boundary.
    pub fd_trace: Vec<usize>,
    /// Interval (1-based) at which MHPE switched MRU→LRU, if it did.
    pub switched_at: Option<u64>,
}

impl MhpeTrace {
    /// Max per-interval untouch level over the first four intervals
    /// (Table III's statistic).
    #[must_use]
    pub fn max_untouch_first4(&self) -> u32 {
        self.interval_untouch
            .iter()
            .take(4)
            .copied()
            .max()
            .unwrap_or(0)
    }

    /// Total untouch level over the first four intervals (Table IV).
    #[must_use]
    pub fn total_untouch_first4(&self) -> u32 {
        self.interval_untouch.iter().take(4).sum()
    }
}

/// A chunk-granularity eviction policy.
///
/// The [`PolicyEngine`](crate::engine::PolicyEngine) drives the policy
/// through these hooks; the engine owns the chain and performs the
/// actual structural updates, asking the policy only for decisions.
pub trait EvictPolicy: Send {
    /// Short stable identifier used in reports ("lru", "mhpe", ...).
    fn name(&self) -> &'static str;

    /// GPU memory filled to capacity for the first time. `chain` holds
    /// every resident chunk; policies size their auxiliary structures
    /// (forward distance, wrong-eviction buffer) from its length.
    fn on_memory_full(&mut self, chain: &ChunkChain) {
        let _ = chain;
    }

    /// A demand fault on `page` was observed (before any migration).
    /// Policies with wrong-eviction buffers probe them here.
    fn on_fault(&mut self, page: VirtPage) {
        let _ = page;
    }

    /// Chain position for the chunk about to be (re-)inserted.
    fn insert_position(&mut self, chunk: ChunkId) -> InsertAt {
        let _ = chunk;
        InsertAt::Tail
    }

    /// `pages` pages of `chunk` were migrated to the GPU. The engine has
    /// already placed the chunk in the chain; HPE uses this hook to
    /// maintain its touch counters (which prefetch *pollutes* — the
    /// paper's Inefficiency 1 reproduces through this hook).
    fn on_migrate(&mut self, chain: &mut ChunkChain, chunk: ChunkId, pages: u32, interval: u64) {
        let _ = (chain, chunk, pages, interval);
    }

    /// Select the next victim chunk, never one of the `pins` (their
    /// migration is in flight in the current fault batch — the driver
    /// pins them). Called only when memory is full.
    fn select_victim(
        &mut self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
    ) -> Option<ChunkId>;

    /// Non-mutating preview of the candidate window the next
    /// [`EvictPolicy::select_victim`] call would draw from, in
    /// consideration order, capped at `limit`. Consumed by the decision
    /// audit layer for eviction provenance.
    ///
    /// Implementations MUST NOT mutate policy state (advance RNGs,
    /// move clock hands, age RRPVs, pop buffers): the preview runs just
    /// before the real selection, and auditing must never change what
    /// gets selected. The default is the LRU-first window — correct for
    /// plain LRU and a reasonable fallback for recency policies.
    fn candidate_set(
        &self,
        chain: &ChunkChain,
        interval: u64,
        pins: &PinSet,
        limit: usize,
    ) -> Vec<ChunkId> {
        let _ = interval;
        chain
            .iter_lru()
            .filter(|&c| !pins.contains(c))
            .take(limit)
            .collect()
    }

    /// `chunk` was evicted; `untouch` is its untouch level (resident
    /// pages that were never touched — read from the page-table access
    /// bits at eviction time).
    fn on_evict(&mut self, chunk: ChunkId, untouch: u32) {
        let _ = (chunk, untouch);
    }

    /// An interval (64 migrated pages) completed. `k` counts completed
    /// intervals since memory filled, starting at 1.
    fn on_interval(&mut self, k: u64) {
        let _ = k;
    }

    /// Wrong evictions recorded so far (0 for policies without a buffer).
    fn wrong_evictions(&self) -> u64 {
        0
    }

    /// High-water mark of the policy's auxiliary buffer (overhead
    /// analysis, §VI-C). 0 for buffer-less policies.
    fn aux_buffer_max_len(&self) -> usize {
        0
    }

    /// MHPE's runtime trace; `None` for every other policy.
    fn mhpe_trace(&self) -> Option<MhpeTrace> {
        None
    }
}
