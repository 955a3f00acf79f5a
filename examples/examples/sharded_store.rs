//! An 8-shard store with coordinated cross-shard batches and scans.
//!
//! Builds an `ElasticJiffy` over 8 range-partitioned shards (and never
//! reshards it: a static sharded map), hammers it
//! with cross-shard batches (one key per shard, all stamped with the
//! same value), and proves with a concurrent scanner that every scan
//! observes the batches all-or-nothing: a single stamp across all 8
//! shards, never a torn mix.
//!
//! Run: `cargo run --release -p jiffy-examples --example sharded_store`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy_shard::{ElasticJiffy, Router};

const SHARDS: usize = 8;
const KEY_SPACE: u64 = 8_000;

fn main() {
    let map: Arc<ElasticJiffy<u64, u64>> = Arc::new(ElasticJiffy::with_router(
        Router::range_uniform(SHARDS, KEY_SPACE),
        jiffy::JiffyConfig::default(),
    ));
    println!(
        "built `{}`: {} shards over [0, {KEY_SPACE}), consistent scans: {}, atomic batches: {}",
        map.name(),
        map.shard_count(),
        map.supports_consistent_scan(),
        map.supports_atomic_batch(),
    );

    // One key per shard; every batch rewrites all eight with one stamp.
    let keys: Vec<u64> = (0..SHARDS as u64).map(|s| s * (KEY_SPACE / SHARDS as u64) + 7).collect();
    map.batch_update(Batch::new(keys.iter().map(|k| BatchOp::Put(*k, 0)).collect()));
    for (i, load) in map.debug_stats().iter().enumerate() {
        assert_eq!(load.updates, 1, "shard {i} should own exactly one of the keys");
    }

    let stop = AtomicBool::new(false);
    let batches = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Two writers racing cross-shard batches.
        for t in 0..2u64 {
            let map = Arc::clone(&map);
            let stop = &stop;
            let batches = &batches;
            let keys = keys.clone();
            s.spawn(move || {
                let mut stamp = t + 1;
                while !stop.load(Ordering::Relaxed) {
                    map.batch_update(Batch::new(
                        keys.iter().map(|k| BatchOp::Put(*k, stamp)).collect(),
                    ));
                    batches.fetch_add(1, Ordering::Relaxed);
                    stamp += 2;
                }
            });
        }
        // A scanner proving all-or-nothing visibility across shards.
        let map = Arc::clone(&map);
        let stop = &stop;
        let scans = &scans;
        s.spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                let entries = map.scan_collect(&0, usize::MAX);
                assert_eq!(entries.len(), SHARDS, "scan lost keys: {entries:?}");
                // All-or-nothing: one stamp across all shards. (The two
                // writers' stamp values are not globally ordered by
                // commit time, so equality within a scan is the whole
                // atomicity claim — there is no cross-scan ordering to
                // assert on.)
                let stamps: Vec<u64> = entries.iter().map(|(_, v)| *v).collect();
                assert!(
                    stamps.windows(2).all(|w| w[0] == w[1]),
                    "TORN cross-shard batch observed: {stamps:?}"
                );
                scans.fetch_add(1, Ordering::Relaxed);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(300));
        stop.store(true, Ordering::Relaxed);
    });

    println!(
        "{} cross-shard batches raced {} consistent scans: every scan saw one stamp across all {} shards (all-or-nothing)",
        batches.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
        SHARDS,
    );
    let final_state = map.scan_collect(&0, usize::MAX);
    println!("final state: {final_state:?}");
}
