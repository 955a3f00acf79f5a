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
//! # The flat fast path
//!
//! In steady state the head revision of the located node is a
//! *finalized regular* revision — no pending version to help, no split
//! or merge branch to resolve. [`get`](JiffyInner::get) and
//! [`get_at`](JiffyInner::get_at) short-circuit that case: one call of
//! the neighbourhood read the locate loop retries
//! ([`neighbourhood`](JiffyInner::neighbourhood) — the same function,
//! so the same coverage guarantee), then head finalized+regular →
//! snapshot bound, and the answer comes directly from the head's entry
//! array, skipping the loop's help dispatch and the branchy chain walk.
//! Anything unusual (pending head, merge terminator, split/merge
//! revision, terminated node, stale coverage) bails to the slow path —
//! the fast path never helps and never retries. A bail on a usable
//! neighbourhood (any head but a merge terminator, which is all the
//! read locate would change) hands it to the revision walk, so the
//! slow path does not descend a second time — after a batch load every
//! head is a finalized split revision, so that is the common bail.
//! Setting the `JIFFY_DISABLE_FAST_PATH=1` environment variable (read
//! once, at first use) forces every lookup down the generic path; the
//! conformance suites run both ways and expect identical results.

use std::sync::atomic::Ordering;
use std::sync::OnceLock;

use crossbeam_epoch::{self as epoch, Guard, Shared};
use crossbeam_utils::prefetch_read;
use jiffy_clock::VersionClock;

use crate::autoscale::fold_read;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::{ForRead, Neighbourhood, Seek};
use crate::node::{RevKind, Revision};

/// Whether the flat point-get fast path is enabled (default: yes;
/// `JIFFY_DISABLE_FAST_PATH=1` forces the generic path, for the
/// equivalence test matrix and for apples-to-apples counter runs).
#[inline]
pub(crate) fn fast_path_enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| match std::env::var("JIFFY_DISABLE_FAST_PATH") {
        Ok(v) => v.is_empty() || v == "0",
        Err(_) => true,
    })
}

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Locate the node for a read: helps structure modifications (temp
    /// split nodes inside the traversal, merge terminators at the head)
    /// but not regular pending updates, per Algorithm 2.
    #[inline]
    pub(crate) fn locate_for_read<'g>(&self, key: &K, guard: &'g Guard) -> Neighbourhood<'g, K, V> {
        self.locate(Seek::Key(key), &ForRead, guard)
    }

    /// The flat fast path shared by `get` and `get_at`: one
    /// [`neighbourhood`](Self::neighbourhood) read, answered from the
    /// head revision iff it is finalized, regular and within the
    /// snapshot bound (`max_version`). `Ok(answer)` is the lookup
    /// result. `Err` sends the caller down the generic revision walk,
    /// handing it the neighbourhood already read when that is exactly
    /// what [`locate_for_read`](Self::locate_for_read) would return —
    /// any head but a merge terminator — so a bail costs no second
    /// descent; `Err(None)` means locate afresh (always, with the fast
    /// path switched off).
    #[inline]
    fn get_fast<'g>(
        &self,
        key: &K,
        max_version: Option<i64>,
        guard: &'g Guard,
    ) -> Result<Option<V>, Option<Neighbourhood<'g, K, V>>> {
        if !fast_path_enabled() {
            return Err(None);
        }
        perf_count!(fastpath_attempts);
        let found = self.neighbourhood(Seek::Key(key), guard).ok_or(None)?;
        let head = found.head();
        let v = head.version();
        if !matches!(head.kind, RevKind::Regular) || v < 0 || max_version.is_some_and(|s| v > s) {
            return Err((!head.is_merge_terminator()).then_some(found));
        }
        perf_count!(fastpath_hits);
        self.note_read(found.head_s(), guard);
        Ok(head.data.get(key).cloned())
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
        let guard = &epoch::pin();
        let mut first = match self.get_fast(key, None, guard) {
            Ok(answer) => return answer,
            Err(found) => found,
        };
        'restart: loop {
            let found = first.take().unwrap_or_else(|| self.locate_for_read(key, guard));
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
                    return rev.data.get(key).cloned();
                }
                // Pending: skip, choosing the branch that covers the key.
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
        let guard = &epoch::pin();
        let found = match self.get_fast(key, Some(snap), guard) {
            Ok(answer) => return answer,
            Err(found) => found.unwrap_or_else(|| self.locate_for_read(key, guard)),
        };
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
    /// every `reads_per_stats_update` reads (§3.3.6). The weight is the
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

/// White-box tests that [`JiffyInner::get_fast`] bails (returns `Err`)
/// in every "unusual neighbourhood" it promises to leave to the generic
/// path — pending heads, split/merge revision heads, terminated nodes,
/// snapshot bounds — and still answers in steady state.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::BatchResolver;
    use crate::{JiffyConfig, JiffyMap};
    use index_api::{Batch, BatchOp};
    use std::sync::Arc;

    /// A read that bails off the fast path walks from the neighbourhood
    /// the fast path already read: one descent, not two. A map loaded by
    /// one batch has a finalized split revision at every head, so every
    /// read there bails.
    #[cfg(feature = "perf-counters")]
    #[test]
    fn a_bailing_read_descends_once() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.batch(Batch::new((0..1000).map(|k| BatchOp::Put(k, k)).collect()));
        let snap = map.snapshot();
        let descents = || crate::counters::snapshot().descents;
        for k in [0u64, 499, 500, 999, 5000] {
            assert!(matches!(map.inner.get_fast(&k, None, &epoch::pin()), Err(Some(_))));
            let before = descents();
            assert_eq!(map.get(&k), (k < 1000).then_some(k));
            assert_eq!(descents() - before, 1, "get({k})");
            let before = descents();
            assert_eq!(snap.get(&k), (k < 1000).then_some(k));
            assert_eq!(descents() - before, 1, "snapshot().get({k})");
        }
    }

    #[test]
    fn fast_path_answers_in_steady_state() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.put(10, 1);
        let guard = &epoch::pin();
        assert_eq!(map.inner.get_fast(&10, None, guard).ok(), Some(Some(1)));
        assert_eq!(map.inner.get_fast(&11, None, guard).ok(), Some(None), "covered miss is a hit");
    }

    #[test]
    fn fast_path_bails_on_pending_head() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.put(10, 1);
        // Stage + install (but do not commit) a two-phase sub-batch: the
        // node's head is now a pending revision. The fast path must bail
        // without helping; the generic path skips the pending head and
        // answers from the prior finalized revision.
        let ticket = map.pending_version();
        let resolver: BatchResolver = Arc::new(|| {});
        let prep = map.prepare_batch(Batch::new(vec![BatchOp::Put(10, 2)]), &ticket, resolver);
        map.install_prepared(&prep);
        {
            let guard = &epoch::pin();
            assert_eq!(map.inner.get_fast(&10, None, guard).ok(), None, "pending head must bail");
        }
        assert_eq!(map.get(&10), Some(1), "generic path skips the pending head");
        // Committed: the head finalizes and the fast path engages again.
        map.commit_pending(&ticket);
        let guard = &epoch::pin();
        assert_eq!(map.inner.get_fast(&10, None, guard).ok(), Some(Some(2)));
    }

    #[test]
    fn fast_path_bails_on_snapshot_bound() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.put(10, 1);
        let guard = &epoch::pin();
        // The head's version is some positive clock draw; a snapshot
        // bound below it must bail to the generic revision walk.
        assert_eq!(map.inner.get_fast(&10, Some(0), guard).ok(), None);
    }

    #[test]
    fn fast_path_bails_on_terminated_node() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        map.put(5, 1);
        let guard = &epoch::pin();
        let node_s = map.inner.find_node_for_key(&5, guard);
        // Forcibly mark the node terminated (as a concurrent merge
        // would, transiently). Only the fast path is exercised after
        // this — the map's invariants are deliberately broken.
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        unsafe { node_s.deref() }.terminated.store(true, Ordering::Release);
        assert_eq!(map.inner.get_fast(&5, None, guard).ok(), None, "terminated node must bail");
    }

    /// Split and merge revisions sit at node heads right after the
    /// structure change that installed them (finalized, but not
    /// `Regular`): churn a tiny-revision map single-threaded, probing
    /// the heads after every op — each non-`Regular` head must bail the
    /// fast path while the public `get` still answers from the model.
    #[test]
    fn fast_path_bails_on_split_and_merge_revision_heads() {
        let map: JiffyMap<u64, u64> = JiffyMap::with_config(JiffyConfig {
            min_revision_size: 2,
            max_revision_size: 8,
            fixed_revision_size: Some(4),
            ..Default::default()
        });
        let mut model = std::collections::BTreeMap::new();
        let mut split_seen = false;
        let mut merge_seen = false;
        // Probe every non-Regular head currently in the list; returns
        // the kinds seen. Single-threaded, so heads are stable here.
        let probe_heads = |map: &JiffyMap<u64, u64>,
                           model: &std::collections::BTreeMap<u64, u64>,
                           split_seen: &mut bool,
                           merge_seen: &mut bool| {
            let guard = &epoch::pin();
            let mut node_s = map.inner.base_node(guard);
            while !node_s.is_null() {
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let node = unsafe { node_s.deref() };
                let next = node.next.load(Ordering::Acquire, guard);
                if !node.is_terminated() && !node.is_temp_split() {
                    let head_s = node.head.load(Ordering::Acquire, guard);
                    // SAFETY: if non-null, the pointee is kept alive by the
                    // enclosing pin guard (EBR).
                    if let Some(head) = unsafe { head_s.as_ref() } {
                        let kind = match head.kind {
                            RevKind::Regular => None,
                            RevKind::LeftSplit(_) => Some("LeftSplit"),
                            RevKind::RightSplit(_) => Some("RightSplit"),
                            RevKind::Merge(_) => Some("Merge"),
                            RevKind::MergeTerminator(_) => Some("MergeTerminator"),
                        };
                        if let Some(kind) = kind {
                            match kind {
                                "Merge" => *merge_seen = true,
                                "LeftSplit" | "RightSplit" => *split_seen = true,
                                _ => {}
                            }
                            let probe = match &node.key {
                                crate::node::NodeKey::Key(k) => *k,
                                crate::node::NodeKey::NegInf => 0,
                            };
                            assert_eq!(
                                map.inner.get_fast(&probe, None, guard).ok(),
                                None,
                                "head kind {kind} must bail"
                            );
                            assert_eq!(
                                map.get(&probe),
                                model.get(&probe).copied(),
                                "generic path answers under a {kind} head"
                            );
                        }
                    }
                }
                node_s = next;
            }
        };
        for k in 0..400u64 {
            map.put(k, k + 1);
            model.insert(k, k + 1);
            probe_heads(&map, &model, &mut split_seen, &mut merge_seen);
        }
        for k in 0..400u64 {
            if k % 5 != 0 {
                map.remove(&k);
                model.remove(&k);
                probe_heads(&map, &model, &mut split_seen, &mut merge_seen);
            }
        }
        assert!(split_seen, "the put churn must surface a split revision at a head");
        assert!(merge_seen, "the remove churn must surface a merge revision at a head");
    }
}
