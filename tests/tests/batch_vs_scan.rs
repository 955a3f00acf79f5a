//! Exact-state check for atomic batches racing scans on one `JiffyMap`
//! (ROADMAP F1).
//!
//! A scan helps every pending batch revision it meets, so it is a
//! *helper that walks several nodes per operation* running beside the
//! batch's owner. The historical defect: a helper that had read the
//! descriptor's `progress` before its descent could lose the race to the
//! owner, find the (by then finalized) group head, and install the group
//! a second time; when that re-install chose to split, the right half of
//! the node was orphaned and a node's worth of acknowledged keys vanished
//! — no panic, every history still linearizable up to the loss. Only an
//! exact comparison against a last-acked-write table sees it, and only
//! until a later batch happens to re-put the lost keys — hence the
//! periodic comparison, not just the final one.
//!
//! One thread is the only writer, so "what must be there" is simply the
//! table it keeps; the seed is printed so a failure replays
//! (`BATCH_VS_SCAN_SEED`).

use std::sync::atomic::{AtomicBool, Ordering};

use index_api::{Batch, BatchOp};
use jiffy::{JiffyConfig, JiffyMap};
use system_tests::{with_deadline, StopOnDrop, XorShift};

/// Batches between two exact comparisons: few enough that the batcher
/// has rewritten only a fraction of the key space since a loss.
const CHECK_EVERY: u64 = 64;
/// Batches per round (a multiple of [`CHECK_EVERY`]: the last comparison
/// is the end state), and rounds per test.
const BATCHES: u64 = 128;
const ROUNDS: u64 = 10;

/// The map must hold exactly the last acknowledged write of every key.
fn assert_matches_table(map: &JiffyMap<u64, u64>, acked: &[Option<u64>], seed: u64, at: u64) {
    let expected: Vec<(u64, u64)> =
        acked.iter().enumerate().filter_map(|(k, v)| v.map(|v| (k as u64, v))).collect();
    let mut scanned = Vec::with_capacity(expected.len());
    map.scan_from(&0, usize::MAX, &mut |k, v| scanned.push((*k, *v)));
    if scanned == expected {
        return;
    }
    let lost: Vec<u64> = expected
        .iter()
        .filter(|(k, _)| scanned.binary_search_by_key(k, |e| e.0).is_err())
        .map(|e| e.0)
        .collect();
    panic!(
        "seed {seed:#x}, after batch {at}: full scan != last-acked-write table; \
         {} acked keys missing, first {:?}",
        lost.len(),
        &lost[..lost.len().min(16)]
    );
}

/// Prefill `0..keys` with `k -> k`, then race one batcher (batches of
/// `4 + r % 97` ops on existing keys; every fourth op a `Remove` when
/// `removes`) against one scanner (`scan_from(random lo, 100)`) for
/// [`BATCHES`] batches, comparing the map with the batcher's table as it
/// goes.
///
/// The prefill is *one batch*. A stale re-install happens a few hundred
/// times per run whatever the map looks like, but it loses keys only
/// when it decides to split, and a put of an existing key never grows a
/// node: after a `put` prefill that takes a node some merge just pushed
/// past the threshold — one re-install in a hundred at a million keys,
/// none below. One batch into the empty map leaves two nodes of
/// `keys / 2` entries, far above any threshold, and every group install
/// that touches an oversized node halves it: a re-installed group lands
/// on a left half that is itself still oversized, splits it again, and
/// drops a quarter of the node. The first hundred batches, while the
/// nodes are few and a batch has few groups (so a helper is usually on
/// the last one), are where it happens — hence short rounds on fresh
/// maps ([`rounds`]) instead of one long run.
fn batches_racing_scans(seed: u64, config: &JiffyConfig, keys: u64, removes: bool) {
    let map: JiffyMap<u64, u64> = JiffyMap::with_config(config.clone());
    map.batch(Batch::new((0..keys).map(|k| BatchOp::Put(k, k)).collect()));
    let mut acked: Vec<Option<u64>> = (0..keys).map(Some).collect();
    let stop = AtomicBool::new(false);
    let scans = std::thread::scope(|s| {
        // Releases the scanner when a comparison below panics, too.
        let _stop = StopOnDrop(&stop);
        let scanner = s.spawn(|| {
            let mut rng = XorShift(seed ^ 0x5CA9_5CA9);
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let lo = rng.next() % keys;
                let mut prev = None;
                map.scan_from(&lo, 100, &mut |k, _| {
                    assert!(prev < Some(*k) && *k >= lo, "scan out of order at {k}");
                    prev = Some(*k);
                });
                scans += 1;
            }
            scans
        });
        let mut rng = XorShift(seed);
        for batches in 1..=BATCHES {
            let ops: Vec<BatchOp<u64, u64>> = (0..4 + rng.next() % 97)
                .map(|n| {
                    let k = rng.next() % keys;
                    if removes && n % 4 == 3 {
                        BatchOp::Remove(k)
                    } else {
                        BatchOp::Put(k, k + batches)
                    }
                })
                .collect();
            let batch = Batch::new(ops);
            let outcome: Vec<(u64, Option<u64>)> = batch
                .ops()
                .iter()
                .map(|op| match op {
                    BatchOp::Put(k, v) => (*k, Some(*v)),
                    BatchOp::Remove(k) => (*k, None),
                })
                .collect();
            map.batch(batch);
            for (k, v) in outcome {
                acked[k as usize] = v;
            }
            if batches % CHECK_EVERY == 0 {
                assert_matches_table(&map, &acked, seed, batches);
            }
        }
        drop(_stop);
        scanner.join().expect("scanner panicked")
    });
    println!("batch_vs_scan seed {seed:#x}: {scans} scans, {:?}", map.debug_stats());
    for (k, v) in acked.iter().enumerate() {
        assert_eq!(map.get(&(k as u64)), *v, "seed {seed:#x}: get({k}) != last acked write");
    }
}

/// [`ROUNDS`] rounds of [`batches_racing_scans`], each on a fresh map
/// with its own seed (`BATCH_VS_SCAN_SEED` sets the first).
fn rounds(config: JiffyConfig, keys: u64, removes: bool) {
    let first =
        std::env::var("BATCH_VS_SCAN_SEED").ok().and_then(|s| s.parse().ok()).unwrap_or(0x51F1);
    println!("batch_vs_scan seeds = {first:#x}.. keys = {keys} removes = {removes}");
    for seed in first..first + ROUNDS {
        batches_racing_scans(seed, &config, keys, removes);
    }
}

/// The ROADMAP recipe at tier-1 size, puts only. Nodes split at the hard
/// cap and never merge, so no node is ever unlinked or reclaimed: the
/// only moving part beside the scans is the batch executor.
#[test]
fn batch_racing_scans_loses_no_acked_key() {
    with_deadline("batch_racing_scans_loses_no_acked_key", 60, || {
        let splitting =
            JiffyConfig { hard_max_revision_size: 8, merge_factor: 0.01, ..Default::default() };
        rounds(splitting, 50_000, false)
    });
}

/// The tiny revisions of `map_concurrent.rs` and removes inside the
/// batches: node sizes move with the data as well, nodes merge away when
/// a group empties them, and the `Merge` arm is reached from batch
/// groups beside scans, not only `Split`.
#[test]
fn batch_with_removes_racing_scans_on_tiny_revisions_matches_acked_table() {
    with_deadline("batch_with_removes_racing_scans_on_tiny_revisions", 60, || {
        let tiny = JiffyConfig {
            min_revision_size: 2,
            max_revision_size: 8,
            fixed_revision_size: Some(4),
            ..Default::default()
        };
        rounds(tiny, 20_000, true)
    });
}
