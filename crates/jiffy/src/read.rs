//! Lookup operations (paper Algorithm 2).
//!
//! `get` (newest) walks the revision list for the first *finalized*
//! revision; `get_at` (snapshot) applies the §3.2 rules:
//!
//! * `|v| > s` — skip the revision (its final version will exceed `s`);
//! * `v >= 0 && v <= s` — this is the revision to read;
//! * `v < 0 && -v <= s` — help complete the update, then re-evaluate.
//!
//! Skipping a merge revision descends into the branch that covers the
//! key (`key >= right_key` → right branch), which keeps the merged
//! node's history reachable even before/without the merge being visible.
//!
//! Both walk from the one [`locate_for_read`](JiffyInner::locate_for_read)
//! descent, and any finalized head answers, whatever its kind: after a
//! split or merge completes, its revision holds exactly the entries of
//! the node's range. In steady state that head is the first revision
//! the walk inspects, so a read costs one descent and one lookup.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Guard, Shared};
use crossbeam_utils::prefetch_read;
use jiffy_clock::VersionClock;

use crate::autoscale::fold_read;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::{ForRead, Neighbourhood, Seek};
use crate::node::Revision;

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Locate the node for a read: helps structure modifications (temp
    /// split nodes inside the traversal, merge terminators at the head)
    /// but not regular pending updates, per Algorithm 2.
    #[inline]
    pub(crate) fn locate_for_read<'g>(&self, key: &K, guard: &'g Guard) -> Neighbourhood<'g, K, V> {
        self.locate(Seek::Key(key), &ForRead, guard)
    }

    /// Get the most recent value for `key` (`get`, Algorithm 2 lines 1-2,
    /// 25-34).
    ///
    /// Unlike snapshot reads, `get` holds no registered snapshot, so the
    /// revision GC floor is not bounded by this reader: a revision this
    /// walk observed as *pending* (and therefore skipped) can finalize
    /// and become the GC keep point mid-walk, with everything behind it
    /// cut — the skip then runs off the severed chain. Running off the
    /// end is exactly that signature (a revision list always ends at the
    /// never-collected initial revision otherwise), so the walk restarts
    /// from a fresh head, which by then is (or sits above) a finalized
    /// revision. Snapshot readers don't need this: their registered
    /// version bounds the floor, so the keep point is never skippable
    /// for them.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        perf_count!(fastpath_attempts);
        let guard = &epoch::pin();
        let mut skipped = false;
        'restart: loop {
            let found = self.locate_for_read(key, guard);
            let mut rev_s = found.head_s();
            self.note_read(rev_s, guard);
            loop {
                if rev_s.is_null() {
                    continue 'restart;
                }
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let rev = unsafe { rev_s.deref() };
                perf_count!(revisions_walked);
                if rev.version() >= 0 {
                    perf_count!(fastpath_hits, u64::from(!skipped));
                    return rev.data.get(key).cloned();
                }
                // Pending: skip, choosing the branch that covers the key.
                skipped = true;
                rev_s = match rev.as_merge() {
                    Some(mi) if mi.right_key <= *key => {
                        mi.right_next.load(Ordering::Acquire, guard)
                    }
                    _ => rev.next.load(Ordering::Acquire, guard),
                };
                prefetch_read(rev_s.as_raw());
            }
        }
    }

    /// Get the value for `key` as of snapshot version `snap`
    /// (`get(key, snapVersion)`, Algorithm 2 lines 3-24, 35-52).
    pub(crate) fn get_at(&self, key: &K, snap: i64) -> Option<V> {
        debug_assert!(snap >= 0);
        perf_count!(fastpath_attempts);
        let guard = &epoch::pin();
        let found = self.locate_for_read(key, guard);
        self.note_read(found.head_s(), guard);
        let mut rev_s = found.head_s();
        loop {
            if rev_s.is_null() {
                return None;
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let rev = unsafe { rev_s.deref() };
            perf_count!(revisions_walked);
            let mut v = rev.version();
            if v < 0 && -v <= snap {
                // The update is concurrent but may linearize before the
                // snapshot: help it and re-read (only heads can be
                // pending, so `node_s` is the right helping context).
                self.help_pending_update(found.node_s(), rev_s, guard);
                v = rev.version();
            }
            if v >= 0 && v <= snap {
                perf_count!(fastpath_hits, u64::from(rev_s == found.head_s()));
                return rev.data.get(key).cloned();
            }
            // |v| > snap: skip.
            rev_s = match rev.as_merge() {
                Some(mi) if mi.right_key <= *key => mi.right_next.load(Ordering::Acquire, guard),
                _ => rev.next.load(Ordering::Acquire, guard),
            };
            prefetch_read(rev_s.as_raw());
        }
    }

    /// Fold read-side autoscaler statistics into the head revision once
    /// every `READS_PER_STATS_UPDATE` reads (§3.3.6). The weight is the
    /// node's read gap, so the EMAs track per-node time shares.
    pub(crate) fn note_read<'g>(&self, head_s: Shared<'g, Revision<K, V>>, _guard: &'g Guard) {
        if self.read_fold_due() {
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let head = unsafe { head_s.deref() };
            let now = self.now_secs();
            let (p, u) = fold_read(head.stats.load(), head.stats.read_gap(now));
            head.stats.store(p, u);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::RevKind;
    use crate::BatchResolver;
    use crate::{JiffyConfig, JiffyMap};
    use index_api::{Batch, BatchOp};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// A map holding `0..1000`, loaded by `put`s (mostly regular heads)
    /// or by one batch (a finalized split revision at every head).
    #[cfg(feature = "perf-counters")]
    fn loaded(by_batch: bool) -> JiffyMap<u64, u64> {
        let map = JiffyMap::new();
        if by_batch {
            map.batch(Batch::new((0..1000).map(|k| BatchOp::Put(k, k)).collect()));
        } else {
            for k in 0..1000 {
                map.put(k, k);
            }
        }
        map
    }

    /// Every point read, newest or snapshot, hit or miss, costs exactly
    /// one descent, whatever kind of revision heads the node.
    #[cfg(feature = "perf-counters")]
    #[test]
    fn a_point_read_descends_once() {
        for by_batch in [false, true] {
            let map = loaded(by_batch);
            let snap = map.snapshot();
            let descents = || crate::counters::snapshot().descents;
            for k in [0u64, 499, 500, 999, 5000] {
                let before = descents();
                assert_eq!(map.get(&k), (k < 1000).then_some(k));
                assert_eq!(descents() - before, 1, "get({k}), by_batch={by_batch}");
                let before = descents();
                assert_eq!(snap.get(&k), (k < 1000).then_some(k));
                assert_eq!(descents() - before, 1, "snapshot().get({k}), by_batch={by_batch}");
            }
        }
    }

    /// A batch load leaves a finalized split revision at every head, and
    /// that head answers: every quiescent point read is a hit.
    #[cfg(feature = "perf-counters")]
    #[test]
    fn head_answers_reads_on_a_batch_loaded_map() {
        let map = loaded(true);
        let snap = map.snapshot();
        let before = crate::counters::snapshot();
        for k in 0..1000u64 {
            assert_eq!(map.get(&k), Some(k));
            assert_eq!(snap.get(&k), Some(k));
        }
        let after = crate::counters::snapshot();
        let attempts = after.fastpath_attempts - before.fastpath_attempts;
        assert_eq!(attempts, 2000);
        assert_eq!(after.fastpath_hits - before.fastpath_hits, attempts);
    }

    /// A two-phase sub-batch installed but not committed heads its node
    /// with a pending revision: `get` and snapshot `get` skip it and read
    /// the prior finalized revision, and with `perf-counters` built in
    /// that read is no head hit (the name is the counters' `fastpath_*`).
    /// Once committed, the head answers again.
    #[test]
    fn fast_path_bails_on_pending_head() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.put(10, 1);
        let before = map.snapshot();
        let ticket = map.pending_version();
        let resolver: BatchResolver = Arc::new(|| {});
        let prep = map.prepare_batch(Batch::new(vec![BatchOp::Put(10, 2)]), &ticket, resolver);
        map.install_prepared(&prep);
        #[cfg(feature = "perf-counters")]
        let hits = crate::counters::snapshot().fastpath_hits;
        assert_eq!(map.get(&10), Some(1), "get skips the pending head");
        #[cfg(feature = "perf-counters")]
        assert_eq!(crate::counters::snapshot().fastpath_hits, hits, "a skipped head is no hit");
        assert_eq!(before.get(&10), Some(1), "snapshot().get skips the pending head");
        map.commit_pending(&ticket);
        #[cfg(feature = "perf-counters")]
        let hits = crate::counters::snapshot().fastpath_hits;
        assert_eq!(map.get(&10), Some(2));
        #[cfg(feature = "perf-counters")]
        assert_eq!(
            crate::counters::snapshot().fastpath_hits,
            hits + 1,
            "the committed head answers"
        );
        assert_eq!(map.snapshot().get(&10), Some(2));
        assert_eq!(before.get(&10), Some(1), "the older snapshot keeps its value");
    }

    /// Split and merge revisions sit at node heads right after the
    /// structure change that installed them: churn a tiny-revision map
    /// single-threaded, probing every such head after each op. The head
    /// path once bailed on them; now a finalized split or merge head
    /// answers like a regular one, so `get` matches the model and, with
    /// `perf-counters` built in, each probe is a head hit.
    #[test]
    fn fast_path_bails_on_split_and_merge_revision_heads() {
        let map: JiffyMap<u64, u64> = JiffyMap::with_config(JiffyConfig {
            min_revision_size: 2,
            max_revision_size: 8,
            fixed_revision_size: Some(4),
            ..Default::default()
        });
        let mut model = BTreeMap::new();
        let (mut split_seen, mut merge_seen) = (false, false);
        // Single-threaded, so heads are stable here.
        let mut probe_heads = |map: &JiffyMap<u64, u64>, model: &BTreeMap<u64, u64>| {
            let guard = &epoch::pin();
            let mut node_s = map.inner.base_node(guard);
            while !node_s.is_null() {
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let node = unsafe { node_s.deref() };
                let next = node.next.load(Ordering::Acquire, guard);
                let head_s = node.head.load(Ordering::Acquire, guard);
                node_s = next;
                if node.is_terminated() || node.is_temp_split() {
                    continue;
                }
                // SAFETY: if non-null, the pointee is kept alive by the
                // enclosing pin guard (EBR).
                let Some(head) = (unsafe { head_s.as_ref() }) else { continue };
                let kind = match head.kind {
                    RevKind::LeftSplit(_) | RevKind::RightSplit(_) => &mut split_seen,
                    RevKind::Merge(_) => &mut merge_seen,
                    RevKind::Regular | RevKind::MergeTerminator(_) => continue,
                };
                *kind = true;
                let probe = node.key.as_key().copied().unwrap_or(0);
                #[cfg(feature = "perf-counters")]
                let hits = crate::counters::snapshot().fastpath_hits;
                assert_eq!(map.get(&probe), model.get(&probe).copied(), "get({probe})");
                #[cfg(feature = "perf-counters")]
                assert_eq!(crate::counters::snapshot().fastpath_hits, hits + 1, "get({probe})");
            }
        };
        for k in 0..400u64 {
            map.put(k, k + 1);
            model.insert(k, k + 1);
            probe_heads(&map, &model);
        }
        for k in (0..400u64).filter(|k| k % 5 != 0) {
            map.remove(&k);
            model.remove(&k);
            probe_heads(&map, &model);
        }
        assert!(split_seen, "the put churn must surface a split revision at a head");
        assert!(merge_seen, "the remove churn must surface a merge revision at a head");
    }
}
