//! Record small concurrent histories against a real `JiffyMap` and check
//! them with the Wing–Gong checker — the §3.4 correctness argument put
//! to the test. Timestamps come from a shared atomic counter so the
//! recorded real-time order is sound (an op's invoke is taken before it
//! starts, its respond after it returns).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy::JiffyMap;
use jiffy_shard::{ElasticJiffy, Router};
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
        Outcome::Inconclusive => {
            // Budget exhausted: not a failure, but flag loudly in output.
            eprintln!("{label}: checker inconclusive (history too wide)");
        }
    }
}

/// Concurrent single-key ops on a handful of keys.
#[test]
fn concurrent_point_ops_linearize() {
    with_deadline("concurrent_point_ops_linearize", DEADLINE_SECS, || {
        for round in 0..30 {
            let map: JiffyMap<u64, u64> = JiffyMap::with_config(jiffy::JiffyConfig {
                min_revision_size: 2,
                max_revision_size: 8,
                fixed_revision_size: Some(2),
                ..Default::default()
            });
            let rec = Recorder::new();
            std::thread::scope(|s| {
                for t in 0..3u64 {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        let seed = round * 31 + t;
                        for i in 0..5u64 {
                            let k = (seed + i * 7) % 3;
                            match (seed + i) % 3 {
                                0 => {
                                    rec.run(|| {
                                        map.put(k, t * 100 + i);
                                        (Op::Put(k, t * 100 + i), ())
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
                                        let had = map.remove(&k).is_some();
                                        (Op::Remove(k, had), ())
                                    });
                                }
                            }
                        }
                    });
                }
            });
            assert_linearizable(rec.into_history(), "point ops");
        }
    });
}

/// Concurrent batches + scans: scans must observe batches atomically.
#[test]
fn concurrent_batches_and_scans_linearize() {
    with_deadline("concurrent_batches_and_scans_linearize", DEADLINE_SECS, || {
        for round in 0..30 {
            let map: JiffyMap<u64, u64> = JiffyMap::with_config(jiffy::JiffyConfig {
                min_revision_size: 2,
                max_revision_size: 8,
                fixed_revision_size: Some(2),
                ..Default::default()
            });
            let rec = Recorder::new();
            std::thread::scope(|s| {
                // Two batchers on overlapping keys.
                for t in 0..2u64 {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..3u64 {
                            let stamp = round * 1000 + t * 100 + i;
                            let ops = vec![
                                BatchOp::Put(0, stamp),
                                BatchOp::Put(1, stamp),
                                BatchOp::Put(2, stamp),
                            ];
                            rec.run(|| {
                                map.batch(Batch::new(ops.clone()));
                                (
                                    Op::Batch(vec![
                                        (0, Some(stamp)),
                                        (1, Some(stamp)),
                                        (2, Some(stamp)),
                                    ]),
                                    (),
                                )
                            });
                        }
                    });
                }
                // One scanner.
                let map = &map;
                let rec = &rec;
                s.spawn(move || {
                    for _ in 0..4 {
                        rec.run(|| {
                            let snap = map.snapshot();
                            let got: Vec<(u64, u64)> = snap.range_bounded(&0, &3);
                            (Op::Scan(0, 2, got), ())
                        });
                    }
                });
            });
            assert_linearizable(rec.into_history(), "batches+scans");
        }
    });
}

/// Cross-shard batches racing cross-shard scans and point ops on a
/// sharded map: scans must never observe half a batch, and causally
/// ordered writes to different shards must never appear inverted — the
/// coordinated cut (per-shard snapshots aligned on one shared-clock
/// version) is what makes the combined history linearizable rather than
/// merely per-shard consistent.
#[test]
fn sharded_cross_shard_batches_and_scans_linearize() {
    with_deadline("sharded_cross_shard_batches_and_scans_linearize", DEADLINE_SECS, || {
        for round in 0..30 {
            // Two shards, split at key 3: each batch and each scan spans the
            // boundary. Tiny revisions keep every op near split/merge paths.
            let map: ElasticJiffy<u64, u64> = ElasticJiffy::with_router(
                Router::range(vec![3]),
                jiffy::JiffyConfig {
                    min_revision_size: 2,
                    max_revision_size: 8,
                    fixed_revision_size: Some(2),
                    ..Default::default()
                },
            );
            let rec = Recorder::new();
            std::thread::scope(|s| {
                // Two batchers on overlapping cross-shard key sets.
                for t in 0..2u64 {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..3u64 {
                            let stamp = round * 1000 + t * 100 + i;
                            rec.run(|| {
                                map.batch_update(Batch::new(vec![
                                    BatchOp::Put(1, stamp), // shard 0
                                    BatchOp::Put(4, stamp), // shard 1
                                ]));
                                (Op::Batch(vec![(1, Some(stamp)), (4, Some(stamp))]), ())
                            });
                        }
                    });
                }
                // A point-op thread hopping between shards.
                {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..4u64 {
                            let k = [0u64, 5, 2, 4][i as usize % 4];
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
                // One cross-shard scanner.
                let map = &map;
                let rec = &rec;
                s.spawn(move || {
                    for _ in 0..4 {
                        rec.run(|| {
                            let got: Vec<(u64, u64)> = map
                                .scan_collect(&0, usize::MAX)
                                .into_iter()
                                .filter(|(k, _)| *k <= 6)
                                .collect();
                            (Op::Scan(0, 6, got), ())
                        });
                    }
                });
            });
            assert_linearizable(rec.into_history(), "sharded batches+scans");
        }
    });
}

/// The contended variant of the test above: N *overlapping*
/// cross-shard batches race point ops and consistent scans with no
/// serialization anywhere on the commit path — every multi-shard batch
/// runs the shared pending-version protocol and concurrent batches
/// commit independently. The
/// Wing–Gong checker then certifies the combined history: batches must
/// appear atomic, scans must cut consistently across shards, and the
/// helping performed by readers/writers that run into pending entries
/// must never manufacture an impossible interleaving.
#[test]
fn concurrent_cross_shard_batches_linearize() {
    with_deadline("concurrent_cross_shard_batches_linearize", DEADLINE_SECS, || {
        for round in 0..30 {
            // Three shards split at 3 and 6; batches span all three.
            let map: ElasticJiffy<u64, u64> = ElasticJiffy::with_router(
                Router::range(vec![3, 6]),
                jiffy::JiffyConfig {
                    min_revision_size: 2,
                    max_revision_size: 8,
                    fixed_revision_size: Some(2),
                    ..Default::default()
                },
            );
            let rec = Recorder::new();
            std::thread::scope(|s| {
                // Three overlapping all-shard batchers.
                for t in 0..3u64 {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..3u64 {
                            let stamp = round * 1000 + t * 100 + i;
                            rec.run(|| {
                                map.batch_update(Batch::new(vec![
                                    BatchOp::Put(1, stamp), // shard 0
                                    BatchOp::Put(4, stamp), // shard 1
                                    BatchOp::Put(7, stamp), // shard 2
                                ]));
                                (
                                    Op::Batch(vec![
                                        (1, Some(stamp)),
                                        (4, Some(stamp)),
                                        (7, Some(stamp)),
                                    ]),
                                    (),
                                )
                            });
                        }
                    });
                }
                // A point-op thread hopping across all three shards.
                {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..4u64 {
                            let k = [0u64, 4, 8, 1][i as usize % 4];
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
                // One consistent cross-shard scanner.
                let map = &map;
                let rec = &rec;
                s.spawn(move || {
                    for _ in 0..4 {
                        rec.run(|| {
                            let got: Vec<(u64, u64)> = map
                                .scan_collect(&0, usize::MAX)
                                .into_iter()
                                .filter(|(k, _)| *k <= 8)
                                .collect();
                            (Op::Scan(0, 8, got), ())
                        });
                    }
                });
            });
            assert_linearizable(rec.into_history(), "two-phase cross-shard batches");
        }
    });
}

/// Mixed removes and batches around node splits/merges.
#[test]
fn mixed_ops_through_structure_changes_linearize() {
    with_deadline("mixed_ops_through_structure_changes_linearize", DEADLINE_SECS, || {
        for round in 0..20 {
            let map: JiffyMap<u64, u64> = JiffyMap::with_config(jiffy::JiffyConfig {
                min_revision_size: 2,
                max_revision_size: 8,
                fixed_revision_size: Some(2), // every op near a split/merge
                ..Default::default()
            });
            // Preload so splits/merges trigger immediately.
            for k in 0..6 {
                map.put(k, 0);
            }
            let rec = Recorder::new();
            std::thread::scope(|s| {
                for t in 0..3u64 {
                    let map = &map;
                    let rec = &rec;
                    s.spawn(move || {
                        for i in 0..4u64 {
                            let k = (round + t * 2 + i) % 6;
                            match (t + i) % 3 {
                                0 => {
                                    rec.run(|| {
                                        let had = map.remove(&k).is_some();
                                        (Op::Remove(k, had), ())
                                    });
                                }
                                1 => {
                                    let stamp = round * 100 + t * 10 + i;
                                    rec.run(|| {
                                        map.batch(Batch::new(vec![
                                            BatchOp::Put(k, stamp),
                                            BatchOp::Put((k + 3) % 6, stamp),
                                        ]));
                                        (
                                            Op::Batch(vec![
                                                (k, Some(stamp)),
                                                ((k + 3) % 6, Some(stamp)),
                                            ]),
                                            (),
                                        )
                                    });
                                }
                                _ => {
                                    rec.run(|| {
                                        let got = map.get(&k);
                                        (Op::Get(k, got), ())
                                    });
                                }
                            }
                        }
                    });
                }
            });
            // Initial puts are part of the state: prepend them as completed
            // events before time zero.
            let mut history: Vec<Event> =
                (0..6u64).map(|k| Event { invoke: 0, respond: 0, op: Op::Put(k, 0) }).collect();
            let mut recorded = rec.into_history();
            // Shift recorded timestamps after the preload.
            for e in &mut recorded {
                e.invoke += 1;
                e.respond += 1;
            }
            history.extend(recorded);
            assert_linearizable(history, "mixed+structure");
        }
    });
}
