//! Wing–Gong linearizability + conformance suite for `JiffyMap`.

#[path = "common/harness.rs"]
mod harness;

#[test]
fn sequential_model_equivalence() {
    harness::sequential_model_equivalence(0xFA57);
}

#[test]
fn concurrent_histories_linearize() {
    harness::concurrent_histories_linearize(1..13);
}

#[test]
fn snapshot_reads_match_model() {
    harness::snapshot_reads_match_model(0xFA57);
}

/// Cross-thread batch contention with the helping backoff in place:
/// every thread hammers overlapping batches on one tiny-revision map,
/// and per-thread counters are aggregated to bound the helping cost.
/// Without the ownership-hint backoff, helpers duplicate the owner's
/// group installations and `help_iterations`/batch explodes with the
/// thread count; with it, the figure stays near the sequential group
/// count. The measured value prints under `--nocapture` (quoted in the
/// README's evaluation notes).
#[cfg(feature = "perf-counters")]
#[test]
fn help_iterations_stay_bounded_under_contended_batches() {
    use std::sync::Arc;
    const THREADS: u64 = 4;
    const BATCHES_PER_THREAD: u64 = 200;
    const OPS_PER_BATCH: u64 = 8;
    let map: Arc<jiffy::JiffyMap<u64, u64>> =
        Arc::new(jiffy::JiffyMap::with_config(harness::tiny_config()));
    let totals = std::sync::Mutex::new(jiffy::counters::OpCostCounters::ZERO);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = Arc::clone(&map);
            let totals = &totals;
            s.spawn(move || {
                let _ = jiffy::counters::take(); // drop pre-test noise
                for i in 0..BATCHES_PER_THREAD {
                    let ops: Vec<jiffy::BatchOp<u64, u64>> = (0..OPS_PER_BATCH)
                        .map(|j| jiffy::BatchOp::Put((t + j * 7) % 64, i))
                        .collect();
                    map.batch(jiffy::Batch::new(ops));
                }
                totals.lock().unwrap().add(&jiffy::counters::take());
            });
        }
    });
    let totals = totals.lock().unwrap();
    let batches = THREADS * BATCHES_PER_THREAD;
    let per_batch = totals.help_iterations as f64 / batches as f64;
    println!(
        "help_iterations/batch = {per_batch:.2} over {batches} contended \
         {OPS_PER_BATCH}-op batches on {THREADS} threads \
         (backoff_waits = {})",
        totals.backoff_waits
    );
    // Ops coalesce into per-node groups, so the floor is one iteration
    // per batch, not one per op.
    assert!(totals.help_iterations >= batches, "each batch needs at least one help iteration");
    // Generous ceiling: with the ownership-hint backoff, helpers rarely
    // duplicate the owner's installations, so the per-batch figure must
    // stay within a small multiple of the sequential group count rather
    // than scaling with the thread count times the group count.
    assert!(
        per_batch < (OPS_PER_BATCH * THREADS) as f64,
        "helping cost per batch ({per_batch:.2}) must not reach \
         threads x groups — backoff is not suppressing duplicated work"
    );
}

/// With `perf-counters` built in, every point read counts one
/// `fastpath_attempts`, and a read answered by the head revision its
/// locate returned counts one `fastpath_hits` too: every read in steady
/// state, none that must skip a pending head.
#[cfg(feature = "perf-counters")]
#[test]
fn fast_path_attempts_are_counted() {
    use jiffy::{Batch, BatchOp, BatchResolver};
    use std::sync::Arc;

    let map: jiffy::JiffyMap<u64, u64> = jiffy::JiffyMap::new();
    map.put(1, 1);
    let snap = map.snapshot();
    let delta = |f: &dyn Fn()| {
        let before = jiffy::counters::snapshot();
        f();
        let after = jiffy::counters::snapshot();
        (
            after.fastpath_attempts - before.fastpath_attempts,
            after.fastpath_hits - before.fastpath_hits,
        )
    };
    let steady = delta(&|| {
        for _ in 0..32 {
            assert_eq!(map.get(&1), Some(1));
            assert_eq!(snap.get(&1), Some(1));
        }
    });
    assert_eq!(steady, (64, 64), "(attempts, hits) of steady-state reads");
    // A staged, installed, uncommitted two-phase sub-batch heads the node.
    let ticket = map.pending_version();
    let resolver: BatchResolver = Arc::new(|| {});
    let prep = map.prepare_batch(Batch::new(vec![BatchOp::Put(1, 2)]), &ticket, resolver);
    map.install_prepared(&prep);
    let pending = delta(&|| {
        assert_eq!(map.get(&1), Some(1));
        assert_eq!(snap.get(&1), Some(1));
    });
    assert_eq!(pending, (2, 0), "(attempts, hits) of reads that skip a pending head");
    map.commit_pending(&ticket);
    assert_eq!(delta(&|| assert_eq!(map.get(&1), Some(2))), (1, 1));
}
