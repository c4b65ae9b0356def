//! Fig. 5 of the paper — the "lifetime" example, reproduced directly on
//! the chunk chain.
//!
//! "Suppose the GPU memory becomes full when eight chunks are
//! prefetched. ... C1 is evicted under LRU with a lifetime of 8.
//! Alternatively, C4 is evicted under MRU with a lifetime of 5. ...
//! if two chunks are skipped, C2 will be evicted (with a lifetime of 7)
//! under MRU."
//!
//! ```text
//! cargo run --example lifetime
//! ```

use cppe::chain::ChunkChain;
use cppe::pins::PinSet;
use gmmu::types::ChunkId;

fn main() {
    // Eight chunks C1..C8 prefetched in order; interval length is 64
    // pages = 4 chunk migrations, so C1-C4 land in interval 0 and C5-C8
    // in interval 1; the fault that needs room for C9 happens in
    // interval 2.
    let mut chain = ChunkChain::new();
    for i in 1..=8u64 {
        chain.insert_tail(ChunkId(i), (i - 1) / 4);
    }
    let now = 2; // current interval
    let none = PinSet::new();

    let lru = chain.select_lru_old(now, &none).unwrap();
    println!(
        "LRU evicts C{} (lifetime 8: prefetched first, evicted when C9 arrives)",
        lru.0
    );
    assert_eq!(lru, ChunkId(1));

    // MRU considers the old partition (chunks not referenced in the
    // current or previous interval — C1..C4 here).
    let mru = chain.select_mru_old(0, now, &none).unwrap();
    println!("MRU evicts C{} (lifetime 5)", mru.0);
    assert_eq!(mru, ChunkId(4));

    // Forward distance 2: skip two chunks from the MRU position.
    let fd2 = chain.select_mru_old(2, now, &none).unwrap();
    println!("MRU with forward distance 2 evicts C{} (lifetime 7)", fd2.0);
    assert_eq!(fd2, ChunkId(2));

    println!("\nMatches Fig. 5 of the paper exactly.");
}
