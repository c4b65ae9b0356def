//! # gmmu — GPU address-translation substrate
//!
//! Models the shaded components of Fig. 1 in the paper: per-SM private
//! L1 TLBs, a shared L2 TLB, a highly-threaded page-table walker over a
//! 4-level page table, and a shared page-walk cache. Configuration
//! defaults follow Table I:
//!
//! | Component | Parameters |
//! |---|---|
//! | L1 TLB | 128 entries per SM, 1-cycle latency, LRU |
//! | L2 TLB | 512 entries, 16-way, 10-cycle latency |
//! | Walker | 64 concurrent walks, 4-level table |
//! | Page-walk cache | 8 KB, 16-way, 10-cycle latency |
//!
//! The module split mirrors the hardware:
//! * [`types`] — virtual pages, chunks (16 pages / 64 KB), frames,
//! * [`assoc`] — flat MRU-first LRU rows backing the TLBs, the
//!   page-walk cache and the GPU data-cache L2,
//! * [`tlb`] — a generic set-associative LRU TLB,
//! * [`page_table`] — the radix page table holding residency state,
//! * [`walk_cache`] — the shared page-walk cache,
//! * [`walker`] — the threaded walker (latency + slot contention model),
//! * [`translation`] — the end-to-end translation path used by the
//!   `gpu` crate (L1 → L2 → walk → hit or page fault).

pub mod assoc;
pub mod page_table;
pub mod tlb;
pub mod translation;
pub mod types;
pub mod walk_cache;
pub mod walker;

pub use page_table::{PageTable, Residency};
pub use tlb::{Tlb, TlbConfig};
pub use translation::{TranslationConfig, TranslationOutcome, TranslationPath};
pub use types::{ChunkId, Frame, SmId, VirtAddr, VirtPage, PAGES_PER_CHUNK, PAGE_SIZE};
pub use walk_cache::WalkCache;
pub use walker::{WalkOutcome, Walker, WalkerConfig};
