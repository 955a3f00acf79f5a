//! Progress and correctness tests for the cross-shard two-phase batch
//! protocol behind `ElasticJiffy`: a stalled cross-shard writer must
//! never block disjoint batches, point reads, or scans — and any reader
//! that runs into one of the stalled batch's pending entries must be
//! able to finish the whole batch itself (the paper's §3.3.3 helping
//! idiom, lifted across shards).
//!
//! The "stalled initiator" is simulated by driving `JiffyMap`'s public
//! two-phase methods by hand against the shard handles of a real
//! `ElasticJiffy`: stage both sub-batches, install only one, and stop —
//! exactly the state a preempted/crashed coordinator leaves behind.
//!
//! Every test runs under a 60 s [`with_deadline`] ceiling, so a livelock
//! in the helping machinery is a named failure with a flight-recorder
//! dump, not a killed job.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

use index_api::{Batch, BatchOp, OrderedIndex};
use jiffy::{BatchPhase, BatchResolver, TwoPhasePrepared, TwoPhaseTicket};
use jiffy_shard::{ElasticJiffy, Router};
use system_tests::{with_deadline, XorShift};

/// The wall-clock ceiling of every test in this file.
const DEADLINE_SECS: u64 = 60;

/// A 4-shard map with ranges [0,1000), [1000,2000), [2000,3000), [3000,∞).
fn four_shards() -> ElasticJiffy<u64, u64> {
    ElasticJiffy::with_router(Router::range(vec![1000, 2000, 3000]), Default::default())
}

type Shard = jiffy::JiffyMap<u64, u64, jiffy_shard::SharedClock>;
type StagedSubs = Vec<(usize, Arc<TwoPhasePrepared<u64, u64>>)>;

/// Stage a cross-shard batch {k0 -> shard0, k1 -> shard1} on `map` and
/// install ONLY the shard-0 half, returning the ticket (the stalled
/// initiator's abandoned state).
fn stall_mid_prepare(
    map: &ElasticJiffy<u64, u64>,
    k0: u64,
    k1: u64,
    value: u64,
) -> Arc<TwoPhaseTicket> {
    let shards = map.shards();
    let ticket = shards[0].pending_version();
    let subs: Arc<OnceLock<StagedSubs>> = Arc::new(OnceLock::new());
    let resolver: BatchResolver = {
        // The resolver a real coordinator would attach: install every
        // sub-batch (descending shard order), then commit. Like
        // jiffy-shard's own it lives inside the shards' revisions, so it
        // holds the shards weakly — a strong handle would be a cycle.
        let shards: Vec<Weak<Shard>> = shards.iter().map(Arc::downgrade).collect();
        let ticket = Arc::clone(&ticket);
        let subs = Arc::clone(&subs);
        Arc::new(move || {
            let Some(subs) = subs.get() else { return };
            let Some(shards) = shards.iter().map(Weak::upgrade).collect::<Option<Vec<_>>>() else {
                return;
            };
            for (i, prepared) in subs.iter() {
                shards[*i].install_prepared(prepared);
            }
            shards[0].commit_pending(&ticket);
        })
    };
    let p1 = shards[1].prepare_batch(
        Batch::new(vec![BatchOp::Put(k1, value)]),
        &ticket,
        Arc::clone(&resolver),
    );
    let p0 = shards[0].prepare_batch(Batch::new(vec![BatchOp::Put(k0, value)]), &ticket, resolver);
    subs.set(vec![(1, p1), (0, Arc::clone(&p0))]).ok();
    // Install only shard 0's half, then "crash".
    shards[0].install_prepared(&p0);
    assert!(p0.is_installed());
    assert_eq!(ticket.phase(), BatchPhase::Pending);
    ticket
}

#[test]
fn stalled_prepare_blocks_nothing_and_readers_resolve_it() {
    with_deadline("stalled_prepare_blocks_nothing_and_readers_resolve_it", DEADLINE_SECS, || {
        let map = four_shards();
        map.put(10, 1); // shard 0
        map.put(1010, 1); // shard 1
        map.put(2010, 1); // shard 2
        map.put(3010, 1); // shard 3

        // A cross-shard batch stalls mid-prepare: installed on shard 0 only.
        let ticket = stall_mid_prepare(&map, 10, 1010, 77);

        // (1) Liveness: a DISJOINT cross-shard batch (shards 2+3) commits
        // while the stalled batch is still pending — there is no shared
        // lock to wait on. Run it on another thread with a timeout watchdog
        // so a regression fails here, on the assert that names it.
        let done = AtomicBool::new(false);
        std::thread::scope(|s| {
            let (map, done) = (&map, &done);
            s.spawn(move || {
                map.batch_update(Batch::new(vec![BatchOp::Put(2010, 9), BatchOp::Put(3010, 9)]));
                done.store(true, Ordering::Release);
            });
            let mut waited = Duration::ZERO;
            while !done.load(Ordering::Acquire) && waited < Duration::from_secs(20) {
                std::thread::sleep(Duration::from_millis(10));
                waited += Duration::from_millis(10);
            }
            assert!(
                done.load(Ordering::Acquire),
                "disjoint-shard batch blocked behind a stalled cross-shard batch"
            );
        });
        assert_eq!(map.get(&2010), Some(9));
        assert_eq!(map.get(&3010), Some(9));

        // (2) Point reads on the stalled batch's own shards don't block and
        // see the pre-batch values (the batch has not committed).
        assert_eq!(map.get(&10), Some(1));
        assert_eq!(map.get(&1010), Some(1));
        assert_eq!(ticket.phase(), BatchPhase::Pending);

        // (3) Helping: a consistent scan reaches the pending entry on
        // shard 0 and resolves the whole batch — including installing the
        // never-installed shard-1 half — then commits it.
        let entries = map.scan_collect(&0, usize::MAX);
        assert_eq!(ticket.phase(), BatchPhase::Committed, "the scan must resolve the batch");
        assert_eq!(map.get(&10), Some(77));
        assert_eq!(map.get(&1010), Some(77), "helping must install the sibling sub-batch");
        // The scan itself saw the batch all-or-nothing.
        let v10 = entries.iter().find(|(k, _)| *k == 10).unwrap().1;
        let v1010 = entries.iter().find(|(k, _)| *k == 1010).unwrap().1;
        assert_eq!(v10, v1010, "scan observed a torn cross-shard batch");
    });
}

#[test]
fn writer_encountering_pending_entry_resolves_it() {
    with_deadline("writer_encountering_pending_entry_resolves_it", DEADLINE_SECS, || {
        let map = four_shards();
        map.put(20, 1);
        map.put(1020, 1);
        let ticket = stall_mid_prepare(&map, 20, 1020, 55);

        // A plain put to the SAME key hits the pending head on shard 0 and
        // must help the whole batch to completion before applying itself.
        map.put(20, 100);
        assert_eq!(ticket.phase(), BatchPhase::Committed);
        assert_eq!(map.get(&20), Some(100), "the put linearizes after the batch it helped");
        assert_eq!(map.get(&1020), Some(55), "helping installed and committed the sibling");
    });
}

#[test]
fn concurrent_cross_shard_batches_commit_without_serialization() {
    with_deadline(
        "concurrent_cross_shard_batches_commit_without_serialization",
        DEADLINE_SECS,
        || {
            // Two writers hammer DISJOINT cross-shard key pairs; nothing
            // serializes them, so they proceed independently. Readers continuously verify each
            // pair is never torn. A third writer overlaps both pairs to push the
            // helping machinery through real contention.
            let map = Arc::new(four_shards());
            let pairs: [(u64, u64); 2] = [(100, 1100), (2100, 3100)];
            for (a, b) in pairs {
                map.batch_update(Batch::new(vec![BatchOp::Put(a, 0), BatchOp::Put(b, 0)]));
            }
            let stop = AtomicBool::new(false);
            let commits = AtomicU64::new(0);
            std::thread::scope(|s| {
                for (w, (a, b)) in pairs.into_iter().enumerate() {
                    let map = Arc::clone(&map);
                    let stop = &stop;
                    let commits = &commits;
                    s.spawn(move || {
                        let mut stamp = w as u64 + 1;
                        while !stop.load(Ordering::Relaxed) {
                            map.batch_update(Batch::new(vec![
                                BatchOp::Put(a, stamp),
                                BatchOp::Put(b, stamp),
                            ]));
                            commits.fetch_add(1, Ordering::Relaxed);
                            stamp += 2;
                        }
                    });
                }
                {
                    // The overlapping writer: all four keys in one batch.
                    let map = Arc::clone(&map);
                    let stop = &stop;
                    s.spawn(move || {
                        let mut rng = XorShift(0xD00D);
                        while !stop.load(Ordering::Relaxed) {
                            let stamp = rng.next() | 1;
                            map.batch_update(Batch::new(
                                pairs
                                    .iter()
                                    .flat_map(|(a, b)| {
                                        [BatchOp::Put(*a, stamp), BatchOp::Put(*b, stamp)]
                                    })
                                    .collect(),
                            ));
                        }
                    });
                }
                // Scan-and-verify until the writers have demonstrably committed
                // in parallel (on a 1-core box a fixed scan count can finish
                // before the writer threads are ever scheduled), with a time
                // cap so a genuine progress failure still fails rather than
                // spinning forever.
                let deadline = std::time::Instant::now() + Duration::from_secs(30);
                let mut scans = 0u32;
                while (commits.load(Ordering::Relaxed) < 100 || scans < 400)
                    && std::time::Instant::now() < deadline
                {
                    let entries = map.scan_collect(&0, usize::MAX);
                    for (a, b) in pairs {
                        let va = entries.iter().find(|(k, _)| *k == a).unwrap().1;
                        let vb = entries.iter().find(|(k, _)| *k == b).unwrap().1;
                        assert_eq!(va, vb, "torn cross-shard batch on pair ({a}, {b})");
                    }
                    scans += 1;
                }
                stop.store(true, Ordering::Relaxed);
            });
            assert!(commits.load(Ordering::Relaxed) >= 100, "writers made no progress");
        },
    );
}

#[test]
fn capability_flags_reflect_two_phase_support() {
    with_deadline("capability_flags_reflect_two_phase_support", DEADLINE_SECS, || {
        // The honesty rule: the two-phase protocol is what entitles a
        // multi-shard map to claim atomic batches and consistent scans.
        let jiffy = four_shards();
        assert!(jiffy.supports_atomic_batch());
        assert!(jiffy.supports_consistent_scan());
    });
}

#[test]
fn aborted_ticket_touches_nothing() {
    with_deadline("aborted_ticket_touches_nothing", DEADLINE_SECS, || {
        let map = four_shards();
        map.put(30, 1);
        let shards = map.shards();
        let ticket = shards[0].pending_version();
        let resolver: BatchResolver = Arc::new(|| {});
        let _staged =
            shards[0].prepare_batch(Batch::new(vec![BatchOp::Put(30, 99)]), &ticket, resolver);
        // Abort before install: legal, terminal, and invisible.
        assert!(shards[0].abort_pending(&ticket));
        assert_eq!(ticket.phase(), BatchPhase::Aborted);
        assert_eq!(map.get(&30), Some(1));
        assert_eq!(map.scan_collect(&0, usize::MAX), vec![(30, 1)]);
    });
}
