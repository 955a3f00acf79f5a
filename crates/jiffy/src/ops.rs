//! Single-key update operations (paper Algorithm 1) and the generic
//! helping dispatcher.
//!
//! An update is: locate (`locate.rs`, helping whatever is in flight at
//! the node), build the next revision from the located head, and
//! [`Node::push_head`] it over exactly that head — a lost CAS starts
//! over from the locate.

use std::iter::once;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use jiffy_clock::VersionClock;

use crate::autoscale::{self, UpdateKind};
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::{ForUpdate, Neighbourhood, Seek};
use crate::node::{Node, NodeKey, RevKind, Revision, SplitInfo, TermOp};
use crate::revision::{Delta, RevData};
use crate::version::{finalize_cell, optimistic_version, VersionCell, VersionRef};

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// The checks of Algorithm 1 lines 4-16: find the node for `key`, help
    /// any pending operation/structure change, and return once the head is
    /// finalized and the neighbourhood validated.
    #[inline]
    pub(crate) fn locate_for_update<'g>(
        &self,
        key: &K,
        guard: &'g Guard,
    ) -> Neighbourhood<'g, K, V> {
        self.locate(Seek::Key(key), &ForUpdate, guard)
    }

    /// Complete another thread's in-flight update found at the head of
    /// `node_s` (`helpPendingUpdate`). On return the revision's version is
    /// final (and any structure change it drove is complete).
    pub(crate) fn help_pending_update<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        rev_s: Shared<'g, Revision<K, V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let rev = unsafe { rev_s.deref() };
        match &rev.kind {
            RevKind::MergeTerminator(_) => {
                // Finalizes (or advances its batch) through the merge
                // revision it installs.
                self.help_merge_terminator(node_s, rev_s, guard);
                return;
            }
            RevKind::Merge(_) => self.complete_merge(rev_s, guard),
            RevKind::LeftSplit(_) => self.help_split(node_s, rev_s, guard),
            // A right split revision's structure is necessarily complete
            // (this node exists); only the version remains.
            RevKind::RightSplit(_) | RevKind::Regular => {}
        }
        match rev.batch_descriptor() {
            Some(desc) => self.help_batch_fully(&desc.clone()),
            None => {
                finalize_cell(&self.clock, rev.vref.cell());
            }
        }
    }

    /// `put(key, value)`: insert or overwrite. Returns the previous value.
    pub(crate) fn put(&self, key: K, value: V) -> Option<V> {
        let guard = &epoch::pin();
        let with_index = !self.config.disable_hash_index;
        let (published_s, node_s, old);
        loop {
            let loc = self.locate_for_update(&key, guard);
            let head = loc.head();
            head.data.prefetch();
            let prev = head.data.get(&key).cloned();
            let len_after = head.data.len() + usize::from(prev.is_none());
            let opt_ver = optimistic_version(&self.clock);
            let delta = once(Delta::Put(&key, &value));
            // A put only grows the revision: it never merges (Alg. 1).
            let kind = autoscale::decide(&self.config, &head.stats, len_after, false);
            let published = if kind == UpdateKind::Split && len_after >= 2 {
                let halves = head.data.apply_split(delta, len_after, with_index);
                let cell = Arc::new(VersionCell::with_value(opt_ver));
                self.install_split(&loc, halves, || VersionRef::Shared(cell.clone()), (0, 0), guard)
            } else {
                let data = head.data.apply(delta, len_after, with_index);
                let vref = VersionRef::Inline(VersionCell::with_value(opt_ver));
                let stats = head.stats.after_update(self.now_secs());
                loc.node().push_head(
                    loc.head_s(),
                    Revision::regular(vref, data, stats, (0, 0)),
                    guard,
                )
            };
            if let Some(published) = published {
                if prev.is_none() {
                    self.add_len(1);
                }
                published_s = published;
                node_s = loc.node_s();
                old = prev;
                break;
            }
        }
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let published = unsafe { published_s.deref() };
        finalize_cell(&self.clock, published.vref.cell());
        self.perform_gc(node_s, guard);
        self.bump_update_tick();
        old
    }

    /// `remove(key)`: delete. Returns the previous value (or `None`
    /// without touching the structure, Alg. 1 line 39).
    pub(crate) fn remove(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        let with_index = !self.config.disable_hash_index;
        let (gc_node_s, finalize_rev_s, old);
        loop {
            let loc = self.locate_for_update(key, guard);
            let (node, head) = (loc.node(), loc.head());
            let prev = head.data.get(key).cloned()?;
            head.data.prefetch();
            let len_after = head.data.len() - 1;
            let opt_ver = optimistic_version(&self.clock);
            let stats = head.stats.after_update(self.now_secs());
            let can_merge = node.key != NodeKey::NegInf;
            if autoscale::decide(&self.config, &head.stats, len_after, can_merge)
                == UpdateKind::Merge
            {
                let vref = VersionRef::Shared(Arc::new(VersionCell::with_value(opt_ver)));
                let op = TermOp::Remove { key: key.clone() };
                let mterm = Revision::merge_terminator(vref, op, stats, (0, 0));
                if let Some(mterm_s) = node.push_head(loc.head_s(), mterm, guard) {
                    // Entry accounting happens when the merge revision is
                    // installed (its content delta already reflects this
                    // remove).
                    finalize_rev_s = self.help_merge_terminator(loc.node_s(), mterm_s, guard);
                    // GC runs at the node that now hosts the data.
                    gc_node_s = self.find_node_for_key(key, guard);
                    old = prev;
                    break;
                }
            } else {
                // (A remove can shrink below the split threshold only
                // through races; treat Split as Regular.)
                let vref = VersionRef::Inline(VersionCell::with_value(opt_ver));
                let data = head.data.apply(once(Delta::Remove(key)), len_after, with_index);
                let rev = Revision::regular(vref, data, stats, (0, 0));
                if let Some(published) = node.push_head(loc.head_s(), rev, guard) {
                    self.add_len(-1);
                    gc_node_s = loc.node_s();
                    finalize_rev_s = published;
                    old = prev;
                    break;
                }
            }
        }
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let rev = unsafe { finalize_rev_s.deref() };
        finalize_cell(&self.clock, rev.vref.cell());
        self.perform_gc(gc_node_s, guard);
        self.bump_update_tick();
        Some(old)
    }

    /// Split the located node (Fig. 3): wrap `halves` (the post-update
    /// entries as built by [`RevData::apply_split`]) in a split pair,
    /// install the left half over `loc`'s head and drive the structure
    /// change to completion. `version` yields the version the two halves
    /// share (a fresh shared cell, or the batch descriptor), `span` the
    /// batch ops they reflect. Returns the published left split revision,
    /// or `None` if the head CAS lost.
    pub(crate) fn install_split<'g>(
        &self,
        loc: &Neighbourhood<'g, K, V>,
        halves: (RevData<K, V>, RevData<K, V>, K),
        version: impl Fn() -> VersionRef<K, V>,
        span: (usize, usize),
        guard: &'g Guard,
    ) -> Option<Shared<'g, Revision<K, V>>> {
        let now = self.now_secs();
        let (ldata, rdata, split_key) = halves;
        let info = Arc::new(SplitInfo { split_key, right: Atomic::null() });
        let half = |data, kind| Revision {
            vref: version(),
            next: Atomic::null(),
            kind,
            data,
            batch_span: span,
            stats: loc.head().stats.after_update(now),
        };
        let rsr = Owned::new(half(rdata, RevKind::RightSplit(info.clone())));
        // Non-owning duplicate of the pre-split history edge.
        rsr.next.store(loc.head_s(), Ordering::Relaxed);
        let rsr_s = rsr.into_shared(guard);
        info.right.store(rsr_s, Ordering::Relaxed);
        let lsr = half(ldata, RevKind::LeftSplit(info));
        let Some(lsr_s) = loc.node().push_head(loc.head_s(), lsr, guard) else {
            // SAFETY: the CAS failed, so `rsr` was never published —
            // we still own it exclusively; reclaim directly.
            drop(unsafe { rsr_s.into_owned() });
            return None;
        };
        // SAFETY: just published under the enclosing pin guard.
        let lsr_v = unsafe { lsr_s.deref() }.version();
        jiffy_obs::trace_event!(
            SplitBuild,
            lsr_v.unsigned_abs(),
            lsr_s.as_raw() as usize,
            loc.node_s().as_raw() as usize
        );
        self.help_split(loc.node_s(), lsr_s, guard);
        Some(lsr_s)
    }
}
