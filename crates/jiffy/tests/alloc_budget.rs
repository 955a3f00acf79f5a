//! Allocation budget of the two update paths.
//!
//! A revision is one header (the EBR `Owned<Revision>`) plus one block
//! holding its keys, values, hashes and hash index, built once at its
//! exact size. On a quiet, single-threaded 100 k-key map an overwrite
//! `put` and each group of a 100-key batch therefore allocate the header,
//! the block, and their share of the EBR bag's amortized growth.
//!
//! Counted at the parent commit (four boxed arrays per revision, a work
//! `Vec` per GC cut, and per batch group an entries `Vec` plus a deltas
//! `Vec`): **6.09 allocations per put and 7.57 per group**. Counted
//! here: 2.12 and 2.13. Binned by size, that is exactly one header and
//! one block per update, plus the epoch shim's collect, which runs every
//! 64 pins and costs about 7.5 allocations each time (its `keep` vector
//! doubles from 4 to 64 items, one exact `append`, one regrowth of the
//! bag). That is 0.12 per update, so the budget is 2.15: two allocations
//! plus the shim's share, with no room for a third allocation on even
//! one update in twenty.
//!
//! This is its own test binary because it installs a counting global
//! allocator. The count is per thread, so libtest's other threads never
//! leak into it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use jiffy::{Batch, BatchOp, JiffyConfig, JiffyMap};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract. The counter is a statistic only: a
// const-initialised `Cell` with no destructor, so touching it never
// allocates or re-enters the allocator. The default `realloc` goes
// through `alloc`, so a growing buffer counts once per move.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        // SAFETY: the caller's contract, forwarded verbatim.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: as `alloc`: forwarded unchanged to `System`.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded verbatim.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const KEYS: u64 = 100_000;
const BUDGET: f64 = 2.15;

/// Allocations this thread made while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn next(rng: &mut u64) -> u64 {
    *rng ^= *rng << 13;
    *rng ^= *rng >> 7;
    *rng ^= *rng << 17;
    *rng
}

#[test]
fn overwrite_puts_and_batch_groups_allocate_a_header_and_a_block() {
    // A fixed revision size keeps the structure still: the sequential
    // load leaves every node with 64..128 keys, and overwrites never
    // change a node's size, so nothing below splits or merges.
    let map: JiffyMap<u64, u64> = JiffyMap::with_config(JiffyConfig::fixed(64));
    for k in 0..KEYS {
        map.put(k, k);
    }
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    // Warm-up: let the EBR bag and the thread-locals reach steady size.
    for _ in 0..10_000 {
        let k = next(&mut rng) % KEYS;
        map.put(k, k);
    }

    const PUTS: u64 = 20_000;
    let keys: Vec<u64> = (0..PUTS).map(|_| next(&mut rng) % KEYS).collect();
    let n = allocs_during(|| {
        for &k in &keys {
            map.put(k, k + 1);
        }
    });
    let per_put = n as f64 / PUTS as f64;

    // One random key per 1000-key stride: no node spans 128 keys, so
    // every key lands in its own node and a batch is exactly 100 groups.
    const BATCHES: usize = 200;
    const GROUPS: usize = 100;
    let stride = KEYS / GROUPS as u64;
    let batches: Vec<Batch<u64, u64>> = (0..BATCHES)
        .map(|b| {
            let ops = (0..GROUPS as u64)
                .map(|g| BatchOp::Put(g * stride + next(&mut rng) % stride, b as u64))
                .collect();
            Batch::new(ops)
        })
        .collect();
    let n = allocs_during(|| {
        for batch in batches {
            map.batch(batch);
        }
    });
    let per_group = n as f64 / (BATCHES * GROUPS) as f64;

    eprintln!("allocations: {per_put:.2} per put, {per_group:.2} per batch group");
    assert!(per_put <= BUDGET, "{per_put:.2} allocations per overwrite put (budget {BUDGET})");
    assert!(per_group <= BUDGET, "{per_group:.2} allocations per batch group (budget {BUDGET})");
    assert_eq!(map.len_approx(), KEYS as usize, "overwrites only");
}
