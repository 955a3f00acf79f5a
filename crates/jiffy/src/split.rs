//! The node split protocol (paper §3.3.1, Figure 3).
//!
//! Splitting node *k* towards a new node *o* (inheriting the upper half of
//! *k*'s range):
//!
//! 1. build a left/right split revision pair (`lsr`, `rsr`) sharing one
//!    version cell; both point at the pre-split revision (only `lsr`'s
//!    edge owns it);
//! 2. CAS `lsr` in as the head of *k*'s revision list — from here the
//!    split is visible and every thread that meets it must help (rule 1);
//! 3. CAS a *temp split node* (key = split key, next = *k*'s successor)
//!    into the level-0 list after *k*;
//! 4. build the real node *o* with `rsr` as its sole revision and CAS it
//!    in place of the temp node;
//! 5. publish the final version into the shared cell (done by the caller
//!    through the usual finalize path) and link *o*'s tower.
//!
//! The temp node exists to defuse the ABA the paper describes: a stalled
//! helper may install a temp long after the split completed (and the new
//! node possibly merged back). Recovery: any thread that finds a temp
//! whose left split revision is already finalized simply unlinks the temp
//! (`helpTempSplitNode`'s first check).

use std::sync::atomic::Ordering;

use crossbeam_epoch::{Guard, Owned, Shared};
use jiffy_clock::VersionClock;

use crate::backoff::Tripwire;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::node::{Node, NodeKey, NodeKind, Revision};

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Drive the structure part of a split to completion: after this
    /// returns, the new right node is published (or the whole split was
    /// already completed by others). Does *not* finalize the version —
    /// callers do that through the normal finalize path (for batches, the
    /// version belongs to the descriptor).
    ///
    /// `node_s` is the node whose head is (or was) `lsr_s`.
    pub(crate) fn help_split<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        lsr_s: Shared<'g, Revision<K, V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let lsr = unsafe { lsr_s.deref() };
        let info = lsr.as_split().expect("help_split takes a left split revision").clone();
        let mut tripwire = Tripwire::new("help_split");
        loop {
            tripwire.tick(|| format!("lsr_ver={}", lsr.version()));
            if lsr.version() >= 0 {
                // Split already completed (possibly long ago). If a stale
                // temp of ours lingers, the next traversal removes it.
                self.remove_stale_temp(node_s, lsr_s, guard);
                return;
            }
            let next_s = node.next.load(Ordering::Acquire, guard);
            if next_s.is_null() {
                // k is the last node and the temp is not in yet.
                self.install_temp(node_s, lsr_s, next_s, &info.split_key, guard);
                continue;
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let next = unsafe { next_s.deref() };
            if next.is_temp_split() {
                // Our temp (replace it with the real node) or a stale one
                // from an older split of this node (unlink it).
                self.help_temp_split_node(node_s, next_s, guard);
                continue;
            }
            if next.is_terminated() {
                // A dead node (same-key twin or an earlier merged
                // neighbour) is in the way: unlink it before deciding.
                let succ = next.next.load(Ordering::Acquire, guard);
                let _ = node.next.compare_exchange(
                    next_s,
                    succ,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                    guard,
                );
                continue;
            }
            if next.key == NodeKey::Key(info.split_key.clone()) {
                // The real node o is published: structure complete.
                return;
            }
            // No temp, no node o: install the temp split node.
            self.install_temp(node_s, lsr_s, next_s, &info.split_key, guard);
        }
    }

    /// Step 3: CAS a temp split node after `node_s` (expected successor
    /// `expected_next`).
    fn install_temp<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        lsr_s: Shared<'g, Revision<K, V>>,
        expected_next: Shared<'g, Node<K, V>>,
        split_key: &K,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let temp = Owned::new(Node::<K, V>::new_temp_split(split_key.clone()));
        if let NodeKind::TempSplit { origin, lsr } = &temp.kind {
            origin.store(node_s, Ordering::Relaxed);
            lsr.store(lsr_s, Ordering::Relaxed);
        }
        // The temp's `next` is immutable after publication (see list.rs).
        temp.next.store(expected_next, Ordering::Relaxed);
        match node.next.compare_exchange(
            expected_next,
            temp,
            Ordering::AcqRel,
            Ordering::Acquire,
            guard,
        ) {
            Ok(temp_s) => {
                // SAFETY: non-null and reached under the enclosing pin guard.
                let lsr_v = unsafe { lsr_s.deref() }.version();
                jiffy_obs::trace_event!(
                    SplitTemp,
                    lsr_v.unsigned_abs(),
                    temp_s.as_raw() as usize,
                    node_s.as_raw() as usize
                );
                // Drive it straight to the real node.
                self.help_temp_split_node(node_s, temp_s, guard);
            }
            Err(e) => drop(e.new),
        }
    }

    /// Steps 4-5 of Figure 3 (`helpTempSplitNode`): replace a temp split
    /// node with the real right node — or, if the split behind it already
    /// finished (stale ABA temp), unlink the temp.
    ///
    /// `pred_s` is the node whose `next` currently references the temp
    /// (the origin for live temps; possibly another node for stale ones).
    pub(crate) fn help_temp_split_node<'g>(
        &self,
        pred_s: Shared<'g, Node<K, V>>,
        temp_s: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let temp = unsafe { temp_s.deref() };
        let NodeKind::TempSplit { origin, lsr } = &temp.kind else {
            return;
        };
        let lsr_s = lsr.load(Ordering::Acquire, guard);
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let lsr_r = unsafe { lsr_s.deref() };
        let temp_next = temp.next.load(Ordering::Acquire, guard);
        if lsr_r.version() >= 0 {
            // Stale temp: the split completed without it (ABA recovery).
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let pred = unsafe { pred_s.deref() };
            if pred.next.load(Ordering::Acquire, guard) == temp_s
                && pred
                    .next
                    .compare_exchange(temp_s, temp_next, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
            {
                // SAFETY: unlinked from the structure above, so no new reader
                // can reach it; already-pinned readers hold it until they unpin.
                unsafe { guard.defer_destroy(temp_s) };
            }
            return;
        }
        // Live temp: it hangs off its origin. Build the real node o.
        let origin_s = origin.load(Ordering::Acquire, guard);
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let origin_n = unsafe { origin_s.deref() };
        let info = lsr_r.as_split().expect("temp references a left split revision");
        let rsr_s = info.right.load(Ordering::Acquire, guard);
        let height = self.random_height();
        let o = Owned::new(Node::<K, V>::new_normal(NodeKey::Key(info.split_key.clone()), height));
        o.head.store(rsr_s, Ordering::Relaxed);
        o.next.store(temp_next, Ordering::Relaxed);
        match origin_n.next.compare_exchange(temp_s, o, Ordering::AcqRel, Ordering::Acquire, guard)
        {
            Ok(o_s) => {
                jiffy_obs::trace_event!(
                    SplitPublish,
                    lsr_r.version().unsigned_abs(),
                    o_s.as_raw() as usize,
                    temp_s.as_raw() as usize
                );
                // SAFETY: unlinked from the structure above, so no new reader
                // can reach it; already-pinned readers hold it until they unpin.
                unsafe { guard.defer_destroy(temp_s) };
                self.link_tower(o_s, guard);
            }
            Err(e) => drop(e.new), // someone else completed (or removed a stale temp)
        }
    }

    /// ABA cleanup path of `help_split`: if a stale temp for `lsr_s` still
    /// hangs off `node_s`, unlink it.
    fn remove_stale_temp<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        lsr_s: Shared<'g, Revision<K, V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let next_s = node.next.load(Ordering::Acquire, guard);
        if next_s.is_null() {
            return;
        }
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let next = unsafe { next_s.deref() };
        if let NodeKind::TempSplit { lsr, .. } = &next.kind {
            if lsr.load(Ordering::Acquire, guard) == lsr_s {
                self.help_temp_split_node(node_s, next_s, guard);
            }
        }
    }
}
