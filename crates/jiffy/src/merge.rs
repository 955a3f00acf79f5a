//! The node merge protocol (paper §3.3.1, Figure 4).
//!
//! Merging node *o* into its predecessor (towards lower keys, rule §3.1):
//!
//! 1. CAS a *merge terminator* onto *o*'s revision list — from here no
//!    revision can ever be added to *o* (so no split of *o* either);
//! 2. find the live predecessor *k*, completing any pending operation
//!    there first (possibly a whole cascade of merges — cascades run
//!    towards lower keys and bottom out at the base node, which never
//!    merges, so they terminate);
//! 3. build a *merge revision* containing the union of *k*'s head and the
//!    terminator's successor (with the triggering remove / batch group
//!    applied) and CAS it in as *k*'s head. The merge revision joins the
//!    two revision lists: `next` continues *k*'s history, `right_next`
//!    continues *o*'s;
//! 4. CAS-adopt the installed merge revision into the terminator
//!    (`merge_rev`), making the merge idempotent for helpers;
//! 5. mark *o* terminated, unlink it from the tower and the level-0 list;
//! 6. finalize the version (plain remove) or advance the batch progress
//!    (batch group); the single winner of that step defers destruction of
//!    *o* and the terminator.

use std::iter::once;
use std::sync::atomic::Ordering;

use crossbeam_epoch::{Guard, Shared};
use jiffy_clock::VersionClock;

use crate::backoff::Tripwire;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::node::{MergeInfo, Node, RevKind, Revision, TermOp};
use crate::revision::{Delta, RevData};
use crate::version::{finalize_cell, VersionRef};

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Drive the merge initiated by `mterm_s` (head of `o_s`) to
    /// completion. Returns the merge revision.
    pub(crate) fn help_merge_terminator<'g>(
        &self,
        o_s: Shared<'g, Node<K, V>>,
        mterm_s: Shared<'g, Revision<K, V>>,
        guard: &'g Guard,
    ) -> Shared<'g, Revision<K, V>> {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let o = unsafe { o_s.deref() };
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let mterm = unsafe { mterm_s.deref() };
        let ti = mterm.as_terminator().expect("help_merge_terminator takes a terminator");

        // Phase 1: ensure a merge revision is installed and adopted.
        // Every `continue` below re-reads `merge_rev` here.
        let mut tripwire = Tripwire::new("help_merge_terminator");
        let mr_s = loop {
            let mr_s = ti.merge_rev.load(Ordering::Acquire, guard);
            if !mr_s.is_null() {
                break mr_s;
            }
            tripwire.tick(|| format!("mterm_ver={}", mterm.version()));
            let Some(pred_s) = self.find_pred(o_s, guard) else {
                // `o` unreachable pre-adoption can only mean another
                // helper raced ahead.
                continue;
            };
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let pred = unsafe { pred_s.deref() };
            if pred.is_terminated() {
                continue;
            }
            // The historical phase-1 race window: a helper preempted
            // right here (pred chosen, head not yet read) while the real
            // merge completed underneath it reads a `phead` that already
            // contains `o`'s merged data — only the `merge_rev` re-check
            // below stops it from duplicating the range. Probe so the
            // replay test and the explorer can preempt at exactly this
            // point.
            #[cfg(feature = "audit-sched")]
            jiffy_audit::sched::probe("merge::adopt-recheck");
            let phead_s = pred.head.load(Ordering::Acquire, guard);
            // Revalidate adoption AFTER reading the predecessor's head.
            // A racing helper may have installed and adopted a merge
            // revision for this terminator, completed it (termination,
            // unlink, version finalization — all strictly after the
            // adoption CAS), and let a writer stack fresh revisions on
            // the now-finalized head: `phead` then already *contains*
            // `o`'s merged data. Building a second merge revision from
            // it would duplicate `o`'s range above the head — born
            // final (the shared cell is already finalized), carrying
            // `o`'s stale pre-merge history as live data and its right
            // branch twice. Because adoption happens-before any such
            // head growth, re-checking `merge_rev` here excludes it.
            if !ti.merge_rev.load(Ordering::Acquire, guard).is_null() {
                continue;
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let phead = unsafe { phead_s.deref() };
            if let Some(pmi) = phead.as_merge() {
                if pmi.mterm.load(Ordering::Acquire, guard) == mterm_s {
                    // `mterm` matching is NOT proof this revision is ours:
                    // the completed merge of a *previous* right neighbour
                    // can still be `phead`, its terminator freed by that
                    // merge's cleanup, and our terminator reallocated at
                    // the same address — an ABA that EBR cannot prevent
                    // (the dangling `pmi.mterm` was written in a previous
                    // pin-life; equality of a live pointer with it is
                    // coincidence). Adopting such a revision wedges the
                    // terminator permanently (`merge_rev` is write-once)
                    // and, pre-latch, sent helpers through its freed
                    // `right_node`. The latch disambiguates: a genuine
                    // stalled installer's revision cannot be `completed`
                    // (completion requires adoption, and `merge_rev` was
                    // re-read null above), while a stale one always is —
                    // its terminator is only freed *after* the completer's
                    // `completed` store (Release, and the free is ordered
                    // behind EBR's epoch advance), so by the time the
                    // allocator can hand us its address the store is
                    // visible.
                    if !pmi.completed.load(Ordering::Acquire) {
                        // Ours, installer stalled before adopting: adopt.
                        Self::adopt(mterm_s, phead_s, guard);
                        continue;
                    }
                    // Completed + matching `mterm`: either our merge raced
                    // to full completion since the re-check above (then it
                    // was adopted first — re-read and exit the loop), or
                    // the address-reuse false match (merge_rev still null:
                    // fall through and treat `phead` as what it is, a
                    // legitimate finalized head to build a fresh merge
                    // revision from).
                    if !ti.merge_rev.load(Ordering::Acquire, guard).is_null() {
                        continue;
                    }
                }
            }
            if phead.is_merge_terminator() {
                // The predecessor is itself being merged away: complete
                // that merge first (cascade towards lower keys).
                self.help_merge_terminator(pred_s, phead_s, guard);
                continue;
            }
            if phead.is_pending() {
                self.help_pending_update(pred_s, phead_s, guard);
                continue;
            }

            // Build the merge revision from the two finalized heads.
            let right_head_s = mterm.next.load(Ordering::Acquire, guard);
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let right_head = unsafe { right_head_s.deref() };
            let with_index = !self.config.disable_hash_index;
            let right_key =
                o.key.as_key().expect("the base node never carries a merge terminator").clone();

            // Built in one pass: left ++ right with the carried op(s).
            let (data, vref, coverage_end, span) = match &ti.op {
                TermOp::Remove { key } => {
                    let deltas = once(Delta::Remove(key));
                    let combined =
                        RevData::merge(&phead.data, &right_head.data, deltas, with_index);
                    let cell = match &mterm.vref {
                        VersionRef::Shared(c) => c.clone(),
                        _ => unreachable!("remove terminators use a shared cell"),
                    };
                    (combined, VersionRef::Shared(cell), 0, (0, 0))
                }
                TermOp::Batch { group_start, .. } => {
                    // No `is_finalized()` re-check needed here (the F1
                    // shape): the descriptor finalizes only after this
                    // group's advance, which follows adoption, and
                    // `merge_rev` was re-read null *after* `phead` — so
                    // the batch was pending when `phead` was read and the
                    // head CAS below catches everything later.
                    let desc = mterm
                        .batch_descriptor()
                        .expect("batch terminators carry the descriptor")
                        .clone();
                    // The merge folds in the predecessor's key group too
                    // (§3.3.3: merges proceed towards lower keys, so the
                    // combined revision absorbs everything down to the
                    // predecessor's node key).
                    let end = desc.group_end(*group_start, &pred.key);
                    let deltas = desc.group(*group_start, end);
                    let combined =
                        RevData::merge(&phead.data, &right_head.data, deltas, with_index);
                    (combined, VersionRef::Batch(desc), end, (*group_start, end))
                }
            };

            let mr = Revision {
                vref,
                data,
                next: crossbeam_epoch::Atomic::null(),
                kind: RevKind::Merge(MergeInfo {
                    right_key,
                    right_node: crossbeam_epoch::Atomic::null(),
                    right_next: crossbeam_epoch::Atomic::null(),
                    mterm: crossbeam_epoch::Atomic::null(),
                    completed: std::sync::atomic::AtomicBool::new(false),
                    coverage_end,
                }),
                stats: phead.stats.after_update(self.now_secs()),
                batch_span: span,
            };
            if let RevKind::Merge(mi) = &mr.kind {
                mi.right_node.store(o_s, Ordering::Relaxed);
                mi.right_next.store(right_head_s, Ordering::Relaxed);
                mi.mterm.store(mterm_s, Ordering::Relaxed);
            }
            if let Some(published) = pred.push_head(phead_s, mr, guard) {
                jiffy_obs::trace_event!(
                    MergeBuild,
                    mterm.version().unsigned_abs(),
                    published.as_raw() as usize,
                    mterm_s.as_raw() as usize
                );
                Self::adopt(mterm_s, published, guard);
                // Entry accounting: union minus both sources.
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let delta = unsafe { published.deref() }.data.len() as isize
                    - (phead.data.len() + right_head.data.len()) as isize;
                self.add_len(delta);
            }
        };

        // Phase 2.
        self.complete_merge(mr_s, guard);
        mr_s
    }

    /// Phases 4-6 for an already-installed merge revision: adopt,
    /// terminate, unlink, finalize/advance. Idempotent; safe to call from
    /// any helper that encounters a pending merge revision.
    pub(crate) fn complete_merge<'g>(&self, mr_s: Shared<'g, Revision<K, V>>, guard: &'g Guard) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let mr = unsafe { mr_s.deref() };
        let mi = mr.as_merge().expect("complete_merge takes a merge revision");
        // Re-entry gate. A *batch* merge revision stays `is_pending()`
        // until its whole descriptor finalizes — long after a first
        // completer has unlinked the right node and deferred destruction
        // of it and the terminator — so helpers keep arriving here from
        // `help_pending_update` in later epochs, and the `mterm` /
        // `right_node` derefs below would then read freed memory (the
        // seed-34 mkbench-reshard crash: a reclaimed node shell re-read
        // with a zeroed key). Reading `false` proves this thread's pin
        // predates the winner's program-order-later `defer_destroy`, so
        // EBR keeps both pointees alive for the rest of this call;
        // reading `true` means phases 4-6 (including the group advance)
        // already happened and there is nothing left to help.
        if mi.completed.load(Ordering::Acquire) {
            return;
        }
        let mterm_s = mi.mterm.load(Ordering::Acquire, guard);
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let mterm = unsafe { mterm_s.deref() };
        let ti = mterm.as_terminator().expect("merge revision references its terminator");
        // A different adopted revision is impossible because installation
        // is serialized on pred.head.
        Self::adopt(mterm_s, mr_s, guard);
        debug_assert_eq!(ti.merge_rev.load(Ordering::Acquire, guard), mr_s);

        let o_s = mi.right_node.load(Ordering::Acquire, guard);
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let o = unsafe { o_s.deref() };
        o.terminated.store(true, Ordering::SeqCst);
        self.unlink_tower(o_s, guard);
        // Unlink from level 0: find_pred unlinks terminated targets as it
        // walks; loop until `o` is unreachable.
        let mut tripwire = Tripwire::new("complete_merge unlink");
        while self.find_pred(o_s, guard).is_some() {
            tripwire.tick(String::new);
            std::hint::spin_loop();
        }

        // Final step: make the merge visible — publish the final version
        // (plain remove) or hand the baton back to the batch executor by
        // advancing the descriptor's progress past this group.
        match &mr.vref {
            VersionRef::Batch(desc) => {
                // Safe from a stale helper without re-validating: the
                // advance is a CAS from exactly this group's start, and a
                // descriptor that moved on (or finalized) is past it.
                let _ = desc.advance(mr.batch_span.0, mi.coverage_end);
            }
            _ => {
                finalize_cell(&self.clock, mr.vref.cell());
            }
        }
        // Latch completion before anyone is allowed to defer destruction:
        // every path to the defer below has this store sequenced before
        // it, which is what makes the re-entry gate's `false` → "my pin
        // predates the defer" argument sound (Release pairs with the
        // gate's Acquire so a `true` reader also sees the unlink done).
        mi.completed.store(true, Ordering::Release);
        jiffy_obs::trace_event!(
            MergeComplete,
            mr.version().unsigned_abs(),
            mr_s.as_raw() as usize,
            o_s.as_raw() as usize
        );
        if self.claim_merge_cleanup(ti) {
            jiffy_obs::trace_event!(
                MergeCleanup,
                mr.version().unsigned_abs(),
                o_s.as_raw() as usize,
                mterm_s.as_raw() as usize
            );
            #[cfg(debug_assertions)]
            o.retired.store(true, Ordering::Release);
            // SAFETY: one-shot cleanup — exactly one helper wins the
            // claim CAS, and each has itself verified the node is fully
            // unlinked, so no new reader can reach the shell or the
            // terminator; pinned readers are protected until they unpin.
            unsafe {
                guard.defer_destroy(o_s);
                guard.defer_destroy(mterm_s);
            }
        }
    }

    /// Step 4: CAS the installed merge revision `mr_s` into its
    /// terminator's write-once `merge_rev` (a no-op if one is adopted
    /// already), which is what makes the merge idempotent for helpers.
    fn adopt<'g>(
        mterm_s: Shared<'g, Revision<K, V>>,
        mr_s: Shared<'g, Revision<K, V>>,
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let mterm = unsafe { mterm_s.deref() };
        let ti = mterm.as_terminator().expect("adoption targets a terminator");
        if ti
            .merge_rev
            .compare_exchange(Shared::null(), mr_s, Ordering::AcqRel, Ordering::Acquire, guard)
            .is_ok()
        {
            jiffy_obs::trace_event!(
                MergeAdopt,
                mterm.version().unsigned_abs(),
                mr_s.as_raw() as usize,
                mterm_s.as_raw() as usize
            );
        }
    }

    /// Claim the one-shot cleanup of a (non-batch) merge: the terminator's
    /// `cleanup_claimed` flag is CAS-won by exactly one helper.
    fn claim_merge_cleanup(&self, ti: &crate::node::TermInfo<K, V>) -> bool {
        ti.cleanup_claimed
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }
}
