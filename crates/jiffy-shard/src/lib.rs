//! **jiffy-shard** — [`ElasticJiffy`], a range/hash-partitioned sharded
//! Jiffy map with atomic cross-shard batches, consistent cross-shard
//! scans and online shard split/merge.
//!
//! A single `JiffyMap` is the paper's unit of scale; this crate spreads
//! load across `N` `JiffyMap` shards that all stamp writes from **one
//! shared clock** ([`SharedClock`]), keeping the two features that make
//! Jiffy interesting:
//!
//! * **Atomic cross-shard batches, committed concurrently.** A batch is
//!   split per shard (each sub-batch is atomic inside its shard). A
//!   multi-shard batch runs the paper's pending-version protocol
//!   (§3.3.2–§3.3.3) *across* shards: phase 1 stages one sub-batch per
//!   shard, all bound to a single pending version drawn once from the
//!   shared clock, and installs them (invisible — readers skip pending
//!   revisions); phase 2 flips the shared version with one CAS, at which
//!   instant every sub-batch on every shard becomes visible. Independent
//!   cross-shard batches commit **concurrently** — there is no global
//!   lock or serialization point on this path. Any reader or writer that
//!   encounters a pending entry *helps*: it installs the remaining
//!   sub-batches through the batch's resolver and commits, so a stalled
//!   initiator can never block the map.
//! * **Consistent cross-shard scans.** A scan pins one snapshot per
//!   shard, reads a single *cut version* from the shared clock, and
//!   advances every snapshot to that cut. Because all shards stamp
//!   writes from the same globally monotone clock — and a cross-shard
//!   batch has exactly one version — "state at version `v`" is one
//!   well-defined instant across the whole sharded map: the scan is
//!   linearizable, not merely per-shard consistent. In-flight batches
//!   need no special handling: a pending entry whose optimistic version
//!   is at or below the cut is resolved by helping (then included or
//!   excluded by its final version); one above the cut is skipped.
//!   Either way every shard consults the same shared cell and reaches
//!   the same verdict.
//!
//! A static sharded map is simply an [`ElasticJiffy`] nobody asks to
//! reshard. Range layouts can additionally be **split and merged
//! online** (see [`ElasticJiffy::split_at`], [`Resharder`]); hash
//! layouts serve traffic the same way but refuse reshard operations:
//!
//! ```
//! use index_api::{Batch, BatchOp, OrderedIndex};
//! use jiffy_shard::{ElasticJiffy, Router};
//!
//! // 4 Jiffy shards, equal key ranges over [0, 1000).
//! let map: ElasticJiffy<u64, &str> =
//!     ElasticJiffy::with_router(Router::range_uniform(4, 1000), Default::default());
//!
//! // A batch spanning three shards becomes visible atomically.
//! map.batch_update(Batch::new(vec![
//!     BatchOp::Put(10, "a"),
//!     BatchOp::Put(500, "b"),
//!     BatchOp::Put(900, "c"),
//! ]));
//!
//! assert_eq!(map.get(&500), Some("b"));
//! assert_eq!(map.scan_collect(&0, 10).len(), 3);
//! assert!(map.supports_consistent_scan() && map.supports_atomic_batch());
//! ```
//!
//! # Deadlock freedom of cross-shard helping
//!
//! Within one shard, concurrent batches cannot block each other
//! cyclically because both install towards lower keys (§3.1 rule 3).
//! Across shards the analogous rule is enforced by this crate: every
//! cross-shard batch — initiator and helpers alike, via the shared
//! resolver — installs its sub-batches in **descending shard order**. A
//! batch blocked at shard `s` (waiting out a rival's pending head there)
//! has pending revisions only on shards `>= s`; its rival, to be blocked
//! *by* it, must be stuck on one of those shards `z >= s`, and
//! symmetrically `z <= s`, so both are stuck inside shard `s = z`, where
//! the single-shard descending-key argument applies. The wait graph is
//! acyclic, and helping drives whichever batch is ahead to completion.

#![warn(missing_docs)]

mod layout;
mod reshard;
mod router;

pub use layout::ShardLoad;
pub use reshard::{ElasticJiffy, ReshardError, ReshardEvent, Resharder};
pub use router::Router;

/// A clock shared by every shard of one [`ElasticJiffy`], so versions
/// drawn by different shards are directly comparable (the foundation of
/// the cross-shard snapshot cut and of the single commit version).
pub type SharedClock = std::sync::Arc<dyn jiffy_clock::VersionClock>;

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::{Batch, BatchOp, OrderedIndex};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn sharded_jiffy(router: Router<u64>) -> ElasticJiffy<u64, u64> {
        ElasticJiffy::with_router(router, Default::default())
    }

    fn model_equivalence(map: &dyn OrderedIndex<u64, u64>) {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut state = 0x5EED_1234_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for i in 0..8_000u64 {
            let r = next();
            let k = r % 1024;
            match (r >> 33) % 5 {
                0 => {
                    assert_eq!(map.remove(&k), model.remove(&k).is_some(), "remove {k} @ {i}");
                }
                1 => {
                    let ops: Vec<BatchOp<u64, u64>> = (0..8)
                        .map(|j| {
                            let bk = (k + j * 131) % 1024;
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
                _ => {
                    map.put(k, i);
                    model.insert(k, i);
                }
            }
            if i % 1024 == 0 {
                for probe in (0..1024).step_by(37) {
                    assert_eq!(map.get(&probe), model.get(&probe).copied(), "get {probe} @ {i}");
                }
            }
        }
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(map.scan_collect(&0, usize::MAX), want, "full scan");
        // Partial scans from mid-space (straddling shard boundaries).
        for lo in [0u64, 100, 511, 512, 900] {
            let want: Vec<(u64, u64)> = model.range(lo..).take(40).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(map.scan_collect(&lo, 40), want, "scan from {lo}");
        }
    }

    #[test]
    fn range_sharded_jiffy_matches_model() {
        model_equivalence(&sharded_jiffy(Router::range(vec![128, 256, 700])));
    }

    #[test]
    fn hash_sharded_jiffy_matches_model() {
        model_equivalence(&sharded_jiffy(Router::hash(4)));
    }

    /// The streaming hash-route merge must refill every source across
    /// several chunk boundaries and still emit one globally sorted,
    /// complete, duplicate-free run (scan memory is the point of the
    /// streaming path; correctness across refills is what this pins).
    #[test]
    fn hash_scan_streams_across_chunk_boundaries() {
        let map = sharded_jiffy(Router::hash(4));
        // 4 shards * MERGE_CHUNK = 1024 buffered entries at most; 6000
        // keys force ~5 refills per shard during the full scan.
        let total = 6000u64;
        for k in 0..total {
            map.put(k, k * 3);
        }
        let got = map.scan_collect(&0, usize::MAX);
        let want: Vec<(u64, u64)> = (0..total).map(|k| (k, k * 3)).collect();
        assert_eq!(got, want, "streamed merge must equal the full sorted run");
        // A bounded scan from mid-space crosses refills on every shard.
        let got = map.scan_collect(&1234, 2000);
        let want: Vec<(u64, u64)> = (1234..3234).map(|k| (k, k * 3)).collect();
        assert_eq!(got, want);
        // Limits inside the first chunk still short-circuit.
        assert_eq!(map.scan_collect(&5998, 10), vec![(5998, 17994), (5999, 17997)]);
    }

    /// `debug_stats` must carry the §3.3.6 revision-structure signal per
    /// shard (not just traffic counters), and the whole-index aggregate
    /// must sum the shards — this is what an autoscaler steers on.
    #[test]
    fn debug_stats_reports_per_shard_revision_growth() {
        let map = sharded_jiffy(Router::range(vec![500]));
        for k in 0..400u64 {
            map.put(k, k); // all below the split: shard 0 only
        }
        let loads = map.debug_stats();
        assert_eq!(loads.len(), 2);
        let s0 = loads[0].revisions.expect("jiffy shards expose revision stats");
        let s1 = loads[1].revisions.expect("jiffy shards expose revision stats");
        assert_eq!(s0.entries, 400, "all writes landed in shard 0");
        assert_eq!(s1.entries, 0);
        assert!(s0.mean_revision_size() > 0.0);
        assert!(s0.max_revision_depth >= 1);

        let total = map.revision_stats().expect("aggregate exists");
        assert_eq!(total.entries, s0.entries + s1.entries);
        assert_eq!(total.nodes, s0.nodes + s1.nodes);
        assert_eq!(total.max_revision_depth, s0.max_revision_depth.max(s1.max_revision_depth));
    }

    #[test]
    fn capability_flags_are_honest() {
        // Every layout is two-phase and cut-consistent, so every layout
        // claims both capabilities: range, hash, and the single shard
        // that reduces to one Jiffy map.
        for router in [Router::range(vec![500]), Router::hash(4), Router::hash(1)] {
            let map = sharded_jiffy(router);
            assert!(map.supports_consistent_scan());
            assert!(map.supports_atomic_batch());
            assert_eq!(map.name(), "elastic-jiffy");
        }
    }

    #[test]
    fn cross_shard_batches_are_atomic_under_scans() {
        // Writers stamp one key per shard with the same value; a
        // consistent scan must never observe two different stamps.
        let map = std::sync::Arc::new(sharded_jiffy(Router::range_uniform(4, 4000)));
        let keys: Vec<u64> = vec![10, 1010, 2010, 3010];
        map.batch_update(Batch::new(keys.iter().map(|k| BatchOp::Put(*k, 0)).collect()));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let map = std::sync::Arc::clone(&map);
                let stop = &stop;
                let keys = keys.clone();
                s.spawn(move || {
                    let mut stamp = t + 1;
                    while !stop.load(Ordering::Relaxed) {
                        map.batch_update(Batch::new(
                            keys.iter().map(|k| BatchOp::Put(*k, stamp)).collect(),
                        ));
                        stamp += 2;
                    }
                });
            }
            for _ in 0..300 {
                let entries = map.scan_collect(&0, usize::MAX);
                assert_eq!(entries.len(), 4);
                let stamps: Vec<u64> = entries.iter().map(|(_, v)| *v).collect();
                assert!(
                    stamps.windows(2).all(|w| w[0] == w[1]),
                    "torn cross-shard batch: {stamps:?}"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn coordinated_cut_preserves_cross_shard_causality() {
        // A writer updates shard 0 and only then shard 3, always keeping
        // stamp(shard0) >= stamp(shard3). A linearizable cut may lag, but
        // must never show shard 3 *ahead* of shard 0 — per-shard
        // snapshots pinned naively at different instants would.
        let map = std::sync::Arc::new(sharded_jiffy(Router::range_uniform(4, 4000)));
        map.put(5, 0); // shard 0
        map.put(3005, 0); // shard 3
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let map = std::sync::Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let mut stamp = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        map.put(5, stamp);
                        map.put(3005, stamp);
                        stamp += 1;
                    }
                });
            }
            for _ in 0..2_000 {
                let entries = map.scan_collect(&0, usize::MAX);
                let a = entries.iter().find(|(k, _)| *k == 5).unwrap().1;
                let b = entries.iter().find(|(k, _)| *k == 3005).unwrap().1;
                assert!(
                    b <= a,
                    "cut saw shard3 stamp {b} ahead of shard0 stamp {a}: causality inverted"
                );
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn sequential_gets_never_watch_a_batch_land_shard_by_shard() {
        // get(k0) returning a batch's value means a later get(k1) must
        // not return the pre-batch value (k0, k1 on different shards).
        let map = std::sync::Arc::new(sharded_jiffy(Router::range_uniform(2, 2000)));
        map.put(1, 0);
        map.put(1001, 0);
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let map = std::sync::Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let mut stamp = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        map.batch_update(Batch::new(vec![
                            BatchOp::Put(1, stamp),
                            BatchOp::Put(1001, stamp),
                        ]));
                        stamp += 1;
                    }
                });
            }
            for _ in 0..30_000 {
                // The batch writes shard 0 first; read in apply order so a
                // torn window would show get(1) new, then get(1001) old.
                let a = map.get(&1).unwrap();
                let b = map.get(&1001).unwrap();
                assert!(b >= a, "gets watched a batch land shard-by-shard: {a} then {b}");
            }
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn scan_limits_are_exact_across_boundaries() {
        let map = sharded_jiffy(Router::range(vec![100, 200]));
        for k in 0..300u64 {
            map.put(k, k);
        }
        // A scan starting in shard 0 straddling into shard 2.
        let got = map.scan_collect(&95, 110);
        assert_eq!(got.len(), 110);
        assert_eq!(got.first(), Some(&(95, 95)));
        assert_eq!(got.last(), Some(&(204, 204)));
        assert!(map.scan_collect(&299, 10).len() == 1);
        assert!(map.scan_collect(&300, 10).is_empty());
        assert!(map.scan_collect(&0, 0).is_empty());
    }

    #[test]
    fn shard_accessors() {
        let map = sharded_jiffy(Router::range(vec![100]));
        assert_eq!(map.shard_count(), 2);
        assert_eq!(map.shards().len(), 2);
        assert_eq!(map.splits(), vec![100]);
        assert!(map.is_range_routed());
        map.put(5, 1);
        map.put(105, 2);
        // Keys landed in their owning shards.
        assert_eq!(map.shards()[0].get(&5), Some(1));
        assert_eq!(map.shards()[1].get(&105), Some(2));
        assert_eq!(map.shards()[0].get(&105), None);
    }

    #[test]
    #[should_panic(expected = "router addresses")]
    fn shard_count_mismatch_panics() {
        let clock: SharedClock = std::sync::Arc::new(jiffy::DefaultClock::default());
        let shard = std::sync::Arc::new(jiffy::JiffyMap::<u64, u64, _>::with_clock_and_config(
            std::sync::Arc::clone(&clock),
            Default::default(),
        ));
        let _ = layout::Layout::new(vec![shard], Router::range(vec![10]), clock);
    }
}
