//! # cppe — Coordinated Page Prefetch and Eviction
//!
//! The primary contribution of Yu et al., *"Coordinated Page Prefetch
//! and Eviction for Memory Oversubscription Management in GPUs"*
//! (IPDPS 2020), implemented as a reusable policy library:
//!
//! * [`chain`] — the three-partition chunk chain (Fig. 2),
//! * [`evict`] — eviction policies: LRU, Random, Reserved-LRU, HPE, and
//!   the paper's **MHPE** (§IV-B, Algorithm 1),
//! * [`prefetch`] — prefetchers: sequential-local (Zheng et al.),
//!   disable-on-full, tree-neighbourhood (Ganguly et al.), and the
//!   paper's **access pattern-aware prefetcher** (§IV-C) with its
//!   pattern buffer and the Scheme-1/Scheme-2 deletion policies,
//! * [`evicted_buffer`] — the wrong-eviction detection buffer,
//! * [`pins`] — [`PinSet`], the fault batch's pinned chunks, which no
//!   policy may evict,
//! * [`engine`] — [`PolicyEngine`], the driver-side coordinator that
//!   makes eviction prefetch-aware and prefetch eviction-aware,
//! * [`presets`] — the named policy combinations used in every figure.
//!
//! # Quick example
//!
//! ```
//! use cppe::presets::PolicyPreset;
//! use cppe::PinSet;
//! use gmmu::page_table::PageTable;
//! use gmmu::types::{ChunkId, VirtPage};
//! use sim_core::TouchVec;
//!
//! // CPPE = MHPE eviction + pattern-aware prefetch.
//! let mut engine = PolicyPreset::Cppe.build(42);
//! let pt = PageTable::new();
//!
//! // A fault on page 3 plans a whole-chunk migration (no pattern yet).
//! engine.note_fault(VirtPage(3));
//! let plan = engine.plan_prefetch(VirtPage(3), &pt);
//! assert_eq!(plan.len(), 16);
//! engine.note_migrated(VirtPage(3).chunk(), plan.len() as u32, true);
//!
//! // Once memory fills, MHPE picks victims and the prefetcher learns
//! // the evicted chunk's touch pattern.
//! engine.note_memory_full();
//! let victim = engine.select_victim_pinned(&PinSet::new()).unwrap();
//! assert_eq!(victim, ChunkId(0));
//! engine.note_evicted(victim, TouchVec::full(), 16);
//! ```

pub mod chain;
pub mod engine;
pub mod evict;
pub mod evicted_buffer;
pub mod pins;
pub mod prefetch;
pub mod presets;

pub use chain::{ChainEntry, ChunkChain, Partition};
pub use engine::{EngineStats, OverheadSnapshot, PolicyEngine, INTERVAL_PAGES};
pub use evict::{EvictPolicy, InsertAt};
pub use evicted_buffer::EvictedBuffer;
pub use pins::{PinCounts, PinSet};
pub use prefetch::{PrefetchCtx, Prefetcher};
pub use presets::PolicyPreset;
