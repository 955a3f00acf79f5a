//! Reproducer for an **open memory-safety defect**: under
//! merge-on-every-install churn a tower edge can outlive its node.
//! Found by PR 22 (CHANGES.md), not fixed; `#[ignore]`d because it
//! fails a few runs in a hundred and, when it does, usually takes the
//! process down rather than failing an assertion.
//!
//! **Recipe.** `hard_max_revision_size: 8, merge_factor: 0.9`: every
//! node is at once under the merge threshold and one put from the hard
//! cap, so nearly every group install merges or splits, and nodes are
//! unlinked and reclaimed at the rate batches land. 20 k keys prefilled
//! with `put`, then one batcher (20 k batches of `4 + r % 97` puts of
//! existing keys) beside one scanner (`scan_from(random lo, 100)`, which
//! helps every pending revision it meets, so it walks the towers while
//! they change).
//!
//! **How to run it.** The failure needs release speed *and* the debug
//! tripwires, and shows a few times in 60 runs:
//!
//! ```sh
//! CARGO_PROFILE_RELEASE_DEBUG_ASSERTIONS=true CARGO_TARGET_DIR=/tmp/tower \
//!   cargo test --release -p system-tests --test tower_edge_stress --no-run
//! for i in $(seq 60); do
//!   TOWER_EDGE_SEED=$i timeout 300 /tmp/tower/release/deps/tower_edge_stress-* \
//!     --ignored --nocapture || echo "run $i died: $?"
//! done
//! ```
//!
//! **Failure signatures** (any of):
//! - `list.rs`, `tower_position`: "index out of bounds: the len is 0 but
//!   the index is 0" — a `pred` reached through a tower edge has no
//!   tower, i.e. its memory was reused;
//! - `list.rs`, `tower_descend`: "misaligned pointer dereference";
//! - SIGSEGV, or `double free or corruption` from the allocator;
//! - a hang (the deadline below names it): both threads still
//!   completing merges.
//!
//! **Hypothesis (unverified).** Unlinking a terminated node by
//! `pred.tower[l].CAS(curr, curr.tower[l])` — and the same shape on
//! level 0 in `walk_level0` / `find_pred` / `help_split` — can re-link a
//! successor that `unlink_tower` has already removed from `curr`; the
//! successor is then reclaimed while still reachable. This is the race
//! Harris-style marking of the outgoing edge exists to close. Nothing
//! in tier-1 churns the structure like this.

use std::sync::atomic::{AtomicBool, Ordering};

use index_api::{Batch, BatchOp};
use jiffy::{JiffyConfig, JiffyMap};
use system_tests::{with_deadline, StopOnDrop, XorShift};

const KEYS: u64 = 20_000;
const BATCHES: u64 = 20_000;

#[test]
#[ignore = "reproducer for an open defect: dies in list.rs a few runs in 60 (see the header)"]
fn tower_edge_outlives_its_node_under_merge_churn() {
    let seed: u64 =
        std::env::var("TOWER_EDGE_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x70E5);
    println!("tower_edge_stress seed = {seed} (replay with TOWER_EDGE_SEED={seed})");
    with_deadline("tower_edge_outlives_its_node_under_merge_churn", 240, move || {
        let map: JiffyMap<u64, u64> = JiffyMap::with_config(JiffyConfig {
            hard_max_revision_size: 8,
            merge_factor: 0.9,
            ..Default::default()
        });
        for k in 0..KEYS {
            map.put(k, k);
        }
        let stop = AtomicBool::new(false);
        let scans = std::thread::scope(|s| {
            let stop_guard = StopOnDrop(&stop);
            let scanner = s.spawn(|| {
                let mut rng = XorShift(seed ^ 0x5CA9_5CA9 | 1);
                let mut scans = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let lo = rng.next() % KEYS;
                    let mut prev = None;
                    map.scan_from(&lo, 100, &mut |k, _| {
                        assert!(prev < Some(*k) && *k >= lo, "seed {seed}: scan out of order");
                        prev = Some(*k);
                    });
                    scans += 1;
                }
                scans
            });
            let mut rng = XorShift(seed | 1);
            for batch in 1..=BATCHES {
                let ops = (0..4 + rng.next() % 97)
                    .map(|_| BatchOp::Put(rng.next() % KEYS, batch))
                    .collect();
                map.batch(Batch::new(ops));
            }
            drop(stop_guard);
            scanner.join().expect("scanner panicked")
        });
        // Puts of existing keys only: the key set never changes.
        let mut keys = Vec::with_capacity(KEYS as usize);
        map.scan_from(&0, usize::MAX, &mut |k, _| keys.push(*k));
        assert!(keys.iter().copied().eq(0..KEYS), "seed {seed}: the key set changed");
        println!("tower_edge_stress seed {seed}: survived, {scans} scans, {:?}", map.debug_stats());
    });
}
