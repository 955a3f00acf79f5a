//! Batch update execution (paper §3.3.3).
//!
//! A batch proceeds strictly from the highest key towards the lowest
//! (rule 3 of §3.1). For each *group* — the maximal run of remaining ops
//! that fall into one node's key range — the executor installs a single
//! revision reflecting all of them (item 2), then advances the
//! descriptor's `progress` with a CAS. Any thread that encounters one of
//! the batch's pending revisions helps by re-entering this loop (item 4);
//! the final version is attempted only once every op is installed.
//!
//! Invariants making helping safe:
//!
//! * a node hosting one of the batch's pending revisions is *frozen*: no
//!   revision can stack on a pending head (rule 2), so neither splits nor
//!   merges can move its boundaries until the batch completes;
//! * therefore, if a helper finds the batch's own pending revision at the
//!   node covering the current key, that group is already installed and
//!   the helper only needs to advance `progress`;
//! * and if it finds any *other* head, it validates the descriptor
//!   *after* that read — still pending, `progress` still at the group it
//!   set out to install — before building on it: `progress` was read
//!   before the descent, and a batch that finalized in between leaves a
//!   finalized head that looks like any other (a second install of the
//!   group; if it splits, its right half is never published — ROADMAP
//!   F1). Pending after the head read means the group was not in place
//!   when the head was read, and the head CAS catches the rest;
//! * removes of absent keys still produce a revision (item 5) — skipping
//!   them could lose a remove against a concurrent batch that finishes
//!   with a lower final version.

use std::sync::Arc;

use crossbeam_epoch as epoch;
use jiffy_clock::VersionClock;

use crate::autoscale::{self, UpdateKind};
use crate::backoff::Tripwire;
use crate::batch::BatchDescriptor;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::{ForBatch, Helping, Seek};
use crate::node::{NodeKey, RevKind, Revision, TermOp};
use crate::version::{finalize_cell, VersionRef};

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Execute a batch update atomically. Returns once the batch's final
    /// version is published (its linearization point).
    pub(crate) fn batch_update(&self, ops_ascending: Vec<index_api::BatchOp<K, V>>) {
        if ops_ascending.is_empty() {
            return;
        }
        let desc = Arc::new(BatchDescriptor::new(&self.clock, ops_ascending));
        self.help_batch(&desc);
    }

    /// Help `desc` to *full* completion: local installation plus — for a
    /// two-phase sub-batch — the sibling sub-batches on the other
    /// participating indices and the shared commit, via the resolver. On
    /// return the descriptor's version is final, which is what every
    /// pending-head encounter needs to make progress.
    pub(crate) fn help_batch_fully(&self, desc: &Arc<BatchDescriptor<K, V>>) {
        if desc.is_two_phase() && !desc.is_finalized() {
            // A helper (not the initiator) is about to resolve someone
            // else's cross-index batch — the §3.3.3 progress property
            // in action, and the first thing to look for in a trace of
            // a stuck two-phase commit.
            jiffy_obs::trace_event!(
                TwoPhaseHelp,
                desc.version_cell().load().unsigned_abs(),
                Arc::as_ptr(desc) as usize
            );
        }
        self.help_batch(desc);
        desc.resolve_external();
    }

    /// Drive `desc` to completion from wherever it currently stands.
    /// Callable by the initiating thread and by any helper.
    ///
    /// Pins the epoch *per group iteration*, not per batch: a batch
    /// spanning hundreds of nodes defers hundreds of replaced revisions,
    /// and a single long pin would stall epoch advancement and let the
    /// garbage backlog grow without bound.
    pub(crate) fn help_batch(&self, desc: &Arc<BatchDescriptor<K, V>>) {
        let with_index = !self.config.disable_hash_index;
        let mut tripwire = Tripwire::new("help_batch");
        // One floor refresh per call: the first group whose cut needs a
        // newer floor pays for it, and the rest cut against that floor
        // (a registry walk per group is what a live snapshot would cost).
        let mut may_refresh = true;
        loop {
            perf_count!(help_iterations);
            tripwire.tick(|| {
                format!(
                    "progress {}/{} two_phase={} finalized={}",
                    desc.progress(),
                    desc.len(),
                    desc.is_two_phase(),
                    desc.is_finalized()
                )
            });
            if desc.is_finalized() {
                return;
            }
            let guard = &epoch::pin();
            let i = desc.progress();
            if i >= desc.len() {
                if desc.is_two_phase() {
                    // One sub-batch of a cross-index batch: the shared
                    // version belongs to the whole batch and is published
                    // by the cross-index commit (every sibling sub-batch
                    // must be installed first). Local installation is
                    // done; callers that need the version settled go
                    // through `BatchDescriptor::resolve_external`.
                    return;
                }
                // Everything installed: publish the final version.
                finalize_cell(&self.clock, desc.version_cell());
                return;
            }
            let helps = ForBatch(desc);
            let loc = self.locate(Seek::Key(desc.ops()[i].key()), &helps, guard);
            // Validate the descriptor *after* the head read the group will
            // CAS against. `i` was read before the descent: the batch may
            // have installed group `i` and finalized since, and what sits
            // on the node now — its own finalized revision, or a later
            // writer's — looks like any quiet head; building group `i` on
            // it would install the group a second time. Still pending and
            // still at `i` here, and the head not ours, means group `i`
            // was not in place when the head was read (a node hosting it
            // is frozen until the batch finalizes, so the head would have
            // been ours), and the head CAS catches everything later.
            if desc.is_finalized() || desc.progress() != i {
                continue;
            }
            let (node, head) = (loc.node(), loc.head());
            if helps.is_own(head) {
                // This batch's own revision: the group is already installed
                // here. Finish any structure change it drove, then advance
                // progress. Told by the descriptor pointer, not by
                // `is_pending()` — that is a second read of the version,
                // and the batch can finalize between the two.
                match &head.kind {
                    RevKind::LeftSplit(_) => self.help_split(loc.node_s(), loc.head_s(), guard),
                    RevKind::Merge(_) => self.complete_merge(loc.head_s(), guard),
                    _ => {}
                }
                let (start, end) = head.batch_span;
                debug_assert!(start <= i && i < end.max(start + 1));
                if end > i {
                    let _ = desc.advance(i, end);
                }
                continue;
            }

            // Install this group: count it, let the policy choose, then
            // build only the revision(s) that update needs.
            head.data.prefetch();
            let j = desc.group_end(i, &node.key);
            debug_assert!(j > i, "the located node must cover the current key");
            let len_after = head.data.len_after(desc.group(i, j));
            let stats = head.stats.after_update(self.now_secs());
            let can_merge = node.key != NodeKey::NegInf;
            let len_delta = len_after as isize - head.data.len() as isize;
            let version = || VersionRef::Batch(desc.clone());
            match autoscale::decide(&self.config, &head.stats, len_after, can_merge) {
                UpdateKind::Split if len_after >= 2 => {
                    let halves = head.data.apply_split(desc.group(i, j), len_after, with_index);
                    if self.install_split(&loc, halves, version, (i, j), guard).is_none() {
                        continue;
                    }
                }
                UpdateKind::Merge => {
                    let op = TermOp::Batch { group_start: i, _marker: std::marker::PhantomData };
                    let mterm = Revision::merge_terminator(version(), op, stats, (i, i));
                    if let Some(mterm_s) = node.push_head(loc.head_s(), mterm, guard) {
                        // The merge folds in the predecessor's group and
                        // advances progress itself.
                        let _ = self.help_merge_terminator(loc.node_s(), mterm_s, guard);
                    }
                    continue;
                }
                _ => {
                    let data = head.data.apply(desc.group(i, j), len_after, with_index);
                    let rev = Revision::regular(version(), data, stats, (i, j));
                    if node.push_head(loc.head_s(), rev, guard).is_none() {
                        continue;
                    }
                }
            }
            self.add_len(len_delta);
            let _ = desc.advance(i, j);
            self.perform_gc(loc.node_s(), &mut may_refresh, guard);
        }
    }
}
