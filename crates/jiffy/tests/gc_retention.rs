//! What the revision GC retains (paper §3.3.4): the cut after an update
//! refreshes the GC floor itself when the list holds a finalized
//! revision newer than the floor, so a list keeps only what a live
//! snapshot — or a pending batch — can still need. These tests pin the
//! depth that leaves: one revision after a put, two after a batch group,
//! and under a held snapshot exactly the revisions the snapshot and the
//! newer heads need.

use std::sync::Arc;
use std::thread;

use jiffy::{Batch, BatchOp, JiffyMap};

const KEYS: u64 = 20_000;

#[test]
fn put_loaded_map_keeps_one_revision_per_node() {
    // One thread, ascending keys: every put lands on the last node.
    let map: JiffyMap<u64, u64> = JiffyMap::new();
    for k in 0..KEYS {
        map.put(k, k);
    }
    let stats = map.debug_stats();
    assert_eq!(stats.entries, KEYS as usize);
    assert_eq!(stats.max_revision_depth, 1, "single writer: {stats:?}");

    // Two threads, interleaved ascending keys: both hammer the same
    // tail node, so each one's cut also meets the other's heads.
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::new());
    thread::scope(|s| {
        for t in 0..2u64 {
            let map = &map;
            s.spawn(move || {
                for k in (t..KEYS).step_by(2) {
                    map.put(k, k);
                }
            });
        }
    });
    let stats = map.debug_stats();
    assert_eq!(stats.entries, KEYS as usize);
    assert_eq!(stats.max_revision_depth, 1, "two writers: {stats:?}");
}

#[test]
fn batch_churn_keeps_at_most_two_revisions() {
    let map: JiffyMap<u64, u64> = JiffyMap::new();
    map.batch(Batch::new((0..KEYS).map(|k| BatchOp::Put(k, k)).collect()));
    // A batch group's head is still pending when its cut runs, so the
    // list keeps it and its finalized predecessor, and nothing older.
    for k in (0..KEYS - 1).step_by(7) {
        map.batch(Batch::new(vec![BatchOp::Put(k, k + 1), BatchOp::Put(k + 1, k + 2)]));
    }
    let stats = map.debug_stats();
    assert_eq!(stats.entries, KEYS as usize);
    assert!(stats.max_revision_depth <= 2, "batch churn: {stats:?}");
    for k in (0..KEYS - 1).step_by(7) {
        assert_eq!(map.get(&k), Some(k + 1));
    }
}

#[test]
fn held_snapshot_pins_only_what_it_reads() {
    // One key, hence one node: the map-wide depth is that node's.
    let map: JiffyMap<u64, u64> = JiffyMap::new();
    for i in 0..10 {
        map.put(7, i);
    }
    assert_eq!(map.debug_stats().max_revision_depth, 1);

    let snap = map.snapshot();
    for i in 100..150 {
        map.put(7, i);
    }
    assert_eq!(snap.get(&7), Some(9), "the snapshot's value was cut");
    assert_eq!(map.get(&7), Some(149));
    // The 50 newer heads plus the one revision the snapshot reads; the
    // pre-snapshot history behind it is gone.
    let depth = map.debug_stats().max_revision_depth;
    assert!((2..=51).contains(&depth), "held snapshot: depth {depth}");

    drop(snap);
    map.put(7, 150);
    assert_eq!(map.debug_stats().max_revision_depth, 1, "released history survived a put");
    assert_eq!(map.get(&7), Some(150));
}

#[test]
fn puts_without_a_snapshot_record_no_floor_events() {
    // The cut refreshes the floor on nearly every put; an event per
    // refresh would flood the flight recorder and evict the lifecycle
    // events its rings exist for. Only floor walks bounded by a live
    // snapshot record `GcFloorAdvance`.
    const NAME: &str = "gc-retention-floor-events";
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::new());
    let writer = Arc::clone(&map);
    thread::Builder::new()
        .name(NAME.into())
        .spawn(move || {
            for i in 0..10_000u64 {
                writer.put(i % 64, i);
            }
        })
        .unwrap()
        .join()
        .unwrap();
    // A thread records into its own ring, registered on its first event;
    // a thread that recorded nothing has none.
    let Some(ring) = jiffy_obs::recorder::rings().into_iter().find(|r| r.thread_name() == NAME)
    else {
        return;
    };
    let floor_events = jiffy_obs::merged_trace()
        .iter()
        .filter(|e| e.thread == ring.thread_id())
        .filter(|e| e.kind == jiffy_obs::EventKind::GcFloorAdvance)
        .count();
    assert_eq!(floor_events, 0, "10 k puts without a snapshot recorded floor events");
    assert!(ring.recorded() <= jiffy_obs::RING_CAP as u64, "ring wrapped: the check is blind");
}
