//! Online resharding under fire: Wing–Gong linearizability of point
//! ops, cross-shard batches and consistent scans racing live shard
//! splits and merges, plus the progress guarantees of the cutover
//! protocol (a stalled resharder blocks neither reads nor disjoint
//! writes — helping completes the migration).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy_shard::{ElasticJiffy, ReshardError, Router};
use linearize::{check_bounded, Event, Op, Outcome};
use system_tests::with_deadline;

/// The wall-clock ceiling of every test in this file: a hang becomes a
/// named failure with a flight-recorder dump instead of a killed job.
const DEADLINE_SECS: u64 = 120;

struct Recorder {
    clock: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { clock: AtomicU64::new(0), events: Mutex::new(Vec::new()) }
    }

    fn run<R>(&self, f: impl FnOnce() -> (Op, R)) -> R {
        let invoke = self.clock.fetch_add(1, Ordering::SeqCst);
        let (op, out) = f();
        let respond = self.clock.fetch_add(1, Ordering::SeqCst);
        self.events.lock().unwrap().push(Event { invoke, respond, op });
        out
    }

    fn into_history(self) -> Vec<Event> {
        self.events.into_inner().unwrap()
    }
}

fn assert_linearizable(history: Vec<Event>, label: &str) {
    match check_bounded(&history, 20_000_000) {
        Outcome::Linearizable(_) => {}
        Outcome::NotLinearizable => panic!("{label}: history NOT linearizable: {history:#?}"),
        Outcome::Inconclusive => eprintln!("{label}: checker inconclusive (history too wide)"),
    }
}

fn tiny_revisions() -> jiffy::JiffyConfig {
    // Tiny revisions keep every op near node split/merge paths, so the
    // shard migration races the full §3.1 structure machinery too.
    jiffy::JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(2),
        ..Default::default()
    }
}

/// Point ops, cross-shard batches and consistent scans racing a live
/// split AND the merge that undoes it. The reshard operations are
/// transparent (not history events): the checker certifies that the
/// migration never manufactures a state no sequential execution of the
/// recorded ops could reach — no torn batch, no resurrected key, no
/// scan straddling two generations.
#[test]
fn ops_racing_live_split_and_merge_linearize() {
    with_deadline("ops_racing_live_split_and_merge_linearize", DEADLINE_SECS, || {
        for round in 0..30 {
            // Two shards split at 3; the mid-round split at 5 carves the
            // upper shard while batches span all boundaries.
            let map: Arc<ElasticJiffy<u64, u64>> =
                Arc::new(ElasticJiffy::with_router(Router::range(vec![3]), tiny_revisions()));
            let rec = Recorder::new();
            std::thread::scope(|s| {
                // Two overlapping cross-shard batchers.
                for t in 0..2u64 {
                    let map = Arc::clone(&map);
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..3u64 {
                            let stamp = round * 1000 + t * 100 + i;
                            rec.run(|| {
                                map.batch_update(Batch::new(vec![
                                    BatchOp::Put(1, stamp), // shard 0
                                    BatchOp::Put(4, stamp), // shard 1 (becomes 1 or 2)
                                    BatchOp::Put(6, stamp), // straddles the live split at 5
                                ]));
                                (
                                    Op::Batch(vec![
                                        (1, Some(stamp)),
                                        (4, Some(stamp)),
                                        (6, Some(stamp)),
                                    ]),
                                    (),
                                )
                            });
                        }
                    });
                }
                // A point-op thread hopping across the whole key range.
                {
                    let map = Arc::clone(&map);
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..4u64 {
                            let k = [0u64, 5, 2, 6][i as usize % 4];
                            match i % 3 {
                                0 => {
                                    rec.run(|| {
                                        map.put(k, round * 10_000 + i);
                                        (Op::Put(k, round * 10_000 + i), ())
                                    });
                                }
                                1 => {
                                    rec.run(|| {
                                        let got = map.get(&k);
                                        (Op::Get(k, got), ())
                                    });
                                }
                                _ => {
                                    rec.run(|| {
                                        let had = map.remove(&k);
                                        (Op::Remove(k, had), ())
                                    });
                                }
                            }
                        }
                    });
                }
                // One consistent scanner.
                {
                    let map = Arc::clone(&map);
                    let rec = &rec;
                    s.spawn(move || {
                        for _ in 0..4 {
                            rec.run(|| {
                                let got: Vec<(u64, u64)> = map
                                    .scan_collect(&0, usize::MAX)
                                    .into_iter()
                                    .filter(|(k, _)| *k <= 7)
                                    .collect();
                                (Op::Scan(0, 7, got), ())
                            });
                        }
                    });
                }
                // The resharder: split the upper shard, then merge it back —
                // two full migrations racing everything above.
                let map = Arc::clone(&map);
                s.spawn(move || {
                    map.split_at(5).unwrap();
                    map.merge_at(1).unwrap();
                });
            });
            assert_eq!(map.shard_count(), 2, "split+merge must net out");
            assert_linearizable(rec.into_history(), "ops racing split+merge");
        }
    });
}

/// The progress guarantee, driven by hand: a resharder that stalls
/// forever between staging and draining blocks neither reads nor
/// disjoint writes, and the first affected operation completes the
/// cutover itself.
#[test]
fn stalled_resharder_blocks_nothing_and_helping_commits() {
    with_deadline("stalled_resharder_blocks_nothing_and_helping_commits", DEADLINE_SECS, || {
        let map: Arc<ElasticJiffy<u64, u64>> =
            Arc::new(ElasticJiffy::with_router(Router::range(vec![1000]), tiny_revisions()));
        for k in 0..200u64 {
            map.put(k * 10, k);
        }
        // Stage a split of shard 0 at 500; the "resharder" stalls here — the
        // copy is done, the pending epoch is installed, nothing is drained.
        map.stage_split(500).unwrap();
        assert!(map.migration_in_flight());
        assert_eq!(map.shard_count(), 2, "cutover must not be visible yet");

        // Disjoint writes and reads from other threads complete promptly and
        // do NOT complete the migration (they owe it no help).
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    // Keys 3000.. are beyond the pre-stage contents and
                    // outside the migrating range (-inf, 1000).
                    for i in 0..100u64 {
                        map.put(3000 + t * 1000 + i, i);
                        assert_eq!(map.get(&(3000 + t * 1000 + i)), Some(i));
                    }
                });
            }
        });
        assert!(map.migration_in_flight(), "disjoint traffic must not be forced to help");

        // Post-stage writes into the migrating range help first; the write
        // must land in the committed layout (the drain may not lose it).
        std::thread::scope(|s| {
            let map = Arc::clone(&map);
            s.spawn(move || {
                map.put(123, 999);
            });
        });
        assert!(!map.migration_in_flight(), "an affected write must complete the cutover");
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.get(&123), Some(999));
        // Pre-stage contents and mid-migration disjoint writes all survived.
        for k in (0..200u64).step_by(7) {
            assert_eq!(map.get(&(k * 10)), Some(k), "pre-stage key {}", k * 10);
        }
        assert_eq!(map.scan_collect(&0, usize::MAX).len(), 200 + 200 + 1);
    });
}

/// A staged merge is helped to completion by a consistent scan (reads
/// help too — the cutover needs no writer to ever show up).
#[test]
fn a_scan_helps_a_stalled_merge_to_completion() {
    with_deadline("a_scan_helps_a_stalled_merge_to_completion", DEADLINE_SECS, || {
        let map: ElasticJiffy<u64, u64> =
            ElasticJiffy::with_router(Router::range(vec![100, 200]), tiny_revisions());
        for k in 0..300u64 {
            map.put(k, k);
        }
        map.stage_merge(0).unwrap();
        assert!(map.migration_in_flight());
        let all = map.scan_collect(&0, usize::MAX);
        assert_eq!(all.len(), 300, "scan through a pending merge must see everything");
        assert!(!map.migration_in_flight(), "the scan must have completed the cutover");
        assert_eq!(map.shard_count(), 2);
    });
}

/// Sequential model equivalence through a randomized split/merge storm:
/// after any sequence of migrations, the map must agree with a BTreeMap
/// driven by the same single-threaded op stream.
#[test]
fn model_equivalence_through_reshard_storm() {
    with_deadline("model_equivalence_through_reshard_storm", DEADLINE_SECS, || {
        use std::collections::BTreeMap;
        let map: ElasticJiffy<u64, u64> =
            ElasticJiffy::with_router(Router::range(vec![512]), jiffy::JiffyConfig::default());
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0xE1A5_71C5_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..6_000u64 {
            let r = next();
            let k = r % 1024;
            match (r >> 33) % 8 {
                0 => {
                    assert_eq!(map.remove(&k), model.remove(&k).is_some(), "remove {k} @ {i}");
                }
                1 => {
                    let ops: Vec<BatchOp<u64, u64>> = (0..6)
                        .map(|j| {
                            let bk = (k + j * 171) % 1024;
                            if next() & 1 == 0 {
                                BatchOp::Put(bk, i)
                            } else {
                                BatchOp::Remove(bk)
                            }
                        })
                        .collect();
                    for op in Batch::new(ops.clone()).into_ops() {
                        match op {
                            BatchOp::Put(bk, v) => {
                                model.insert(bk, v);
                            }
                            BatchOp::Remove(bk) => {
                                model.remove(&bk);
                            }
                        }
                    }
                    map.batch_update(Batch::new(ops));
                }
                2 => {
                    // Reshard: split at a random key, or merge a random pair.
                    if next() & 1 == 0 {
                        let at = next() % 1024;
                        match map.split_at(at) {
                            Ok(()) | Err(ReshardError::BoundaryCollision) => {}
                            Err(e) => panic!("split_at({at}): {e}"),
                        }
                    } else if map.shard_count() > 1 {
                        let left = (next() as usize) % (map.shard_count() - 1);
                        map.merge_at(left).unwrap();
                    }
                }
                _ => {
                    map.put(k, i);
                    model.insert(k, i);
                }
            }
            if i % 512 == 0 {
                for probe in (0..1024).step_by(41) {
                    assert_eq!(map.get(&probe), model.get(&probe).copied(), "get {probe} @ {i}");
                }
            }
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(map.scan_collect(&0, usize::MAX), want, "final scan");
    });
}

/// Concurrent writers vs. a drift-driven `Resharder` loop: the layout
/// reshapes while traffic runs, and every surviving key is accounted
/// for. (Each writer owns a disjoint key slice with monotone values, so
/// the final content is checkable without a concurrent model.)
#[test]
fn resharder_loop_under_concurrent_writers_loses_nothing() {
    with_deadline("resharder_loop_under_concurrent_writers_loses_nothing", DEADLINE_SECS, || {
        use std::sync::atomic::AtomicBool;
        let key_space = 8_192u64;
        let map: Arc<ElasticJiffy<u64, u64>> = Arc::new(ElasticJiffy::with_router(
            Router::range(vec![key_space / 2]),
            jiffy::JiffyConfig::default(),
        ));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let map = Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let span = key_space / 3;
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        map.put(t * span + (i % span), i);
                        i += 1;
                    }
                });
            }
            let mut resharder = jiffy_shard::Resharder::new(1.2, 6).with_min_ops(256);
            let mut events = 0;
            for _ in 0..400 {
                if resharder.step(&map, key_space).is_some() {
                    events += 1;
                }
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            stop.store(true, Ordering::Relaxed);
            assert!(events > 0, "the storm must actually exercise migrations");
        });
        let entries = map.scan_collect(&0, usize::MAX);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "sorted, no duplicates");
        for (k, v) in entries {
            assert_eq!(map.get(&k), Some(v), "scan and get agree on {k}");
        }
    });
}
