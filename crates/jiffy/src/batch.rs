//! Batch descriptors (paper §3.3.3).
//!
//! A batch update is a set of put/remove operations executed atomically.
//! All revisions created by one batch share a single *batch descriptor*:
//! they read their version through it, so the moment the descriptor's
//! final version is published, every revision of the batch becomes
//! visible at once — that CAS is the linearization point of the batch.
//!
//! The descriptor stores the operations sorted by key *descending*,
//! because rule (3) of §3.1 requires batches to update the highest key
//! first and proceed towards lower keys (this orders concurrent batches
//! consistently and cooperates with merges, which also move towards lower
//! keys). `progress` counts how many leading (highest-key) operations
//! have already been installed; helpers resume from there, so any thread
//! can complete a stalled batch (§3.3.3 item 4).
//!
//! A descriptor normally owns its version cell. For a *two-phase* batch
//! (one sub-batch of a cross-map batch, see `two_phase.rs`) the cell is
//! shared — every participating index's descriptor reads the same cell,
//! so all of them flip at one CAS — and the descriptor carries the
//! coordinator's *resolver*: local installation completes without
//! finalizing (the shared version belongs to the whole cross-index
//! batch), and any thread that needs the version settled invokes the
//! resolver, which installs every sibling sub-batch and commits.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use index_api::BatchOp;
use jiffy_clock::VersionClock;

use crate::node::NodeKey;
use crate::revision::Delta;
use crate::two_phase::BatchResolver;
use crate::version::VersionCell;

/// Where a descriptor's version lives: its own cell, or one shared with
/// the sibling sub-batches of a cross-index two-phase batch.
pub(crate) enum BatchCell {
    Own(VersionCell),
    Shared(Arc<VersionCell>),
}

impl BatchCell {
    #[inline]
    fn cell(&self) -> &VersionCell {
        match self {
            BatchCell::Own(c) => c,
            BatchCell::Shared(c) => c,
        }
    }
}

/// Shared state of one in-flight (or completed) batch update.
pub(crate) struct BatchDescriptor<K, V> {
    version: BatchCell,
    /// Present on two-phase sub-batches: the cross-index
    /// help-to-completion routine (install every sibling, then commit).
    resolver: Option<BatchResolver>,
    /// Operations sorted by key, strictly descending, one op per key.
    ops: Box<[BatchOp<K, V>]>,
    /// Number of leading ops already installed in some node's revision.
    /// Monotonically non-decreasing; advanced only by `advance`'s CAS.
    progress: AtomicUsize,
    _marker: PhantomData<(K, V)>,
}

impl<K, V> BatchDescriptor<K, V> {
    #[inline]
    pub(crate) fn version_cell(&self) -> &VersionCell {
        self.version.cell()
    }

    /// Whether this descriptor is one sub-batch of a cross-index
    /// two-phase batch (its version cell is shared and must only be
    /// finalized through the cross-index commit).
    #[inline]
    pub(crate) fn is_two_phase(&self) -> bool {
        self.resolver.is_some()
    }

    /// Drive the *whole* cross-index batch to completion via the
    /// coordinator's resolver (no-op for ordinary descriptors or when
    /// the shared version is already final). On return the version is
    /// final — callers waiting on a pending head can make progress.
    pub(crate) fn resolve_external(&self) {
        if let Some(resolver) = &self.resolver {
            if !self.is_finalized() {
                resolver();
            }
            debug_assert!(self.is_finalized(), "resolver must commit the shared version");
        }
    }

    #[inline]
    pub(crate) fn is_finalized(&self) -> bool {
        self.version.cell().load() >= 0
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.ops.len()
    }

    #[inline]
    pub(crate) fn ops(&self) -> &[BatchOp<K, V>] {
        &self.ops
    }

    #[inline]
    pub(crate) fn progress(&self) -> usize {
        self.progress.load(Ordering::Acquire)
    }
}

impl<K: Ord + Clone, V: Clone> BatchDescriptor<K, V> {
    /// Build a descriptor from ops sorted ascending (the canonical
    /// [`index_api::Batch`] order); stores them descending.
    pub(crate) fn new<C: VersionClock>(clock: &C, ops_ascending: Vec<BatchOp<K, V>>) -> Self {
        Self::build(BatchCell::Own(VersionCell::new_optimistic(clock)), None, ops_ascending)
    }

    /// Build a two-phase sub-batch descriptor: the version lives in
    /// `cell` (shared with the sibling sub-batches) and `resolver` is
    /// the coordinator's cross-index help-to-completion routine.
    pub(crate) fn new_shared(
        cell: Arc<VersionCell>,
        resolver: BatchResolver,
        ops_ascending: Vec<BatchOp<K, V>>,
    ) -> Self {
        debug_assert!(cell.load() < 0, "a two-phase sub-batch binds to a still-pending version");
        Self::build(BatchCell::Shared(cell), Some(resolver), ops_ascending)
    }

    fn build(
        version: BatchCell,
        resolver: Option<BatchResolver>,
        ops_ascending: Vec<BatchOp<K, V>>,
    ) -> Self {
        debug_assert!(
            ops_ascending.windows(2).all(|w| w[0].key() < w[1].key()),
            "batch ops must be sorted by strictly ascending key"
        );
        let mut ops = ops_ascending;
        ops.reverse();
        BatchDescriptor {
            version,
            resolver,
            ops: ops.into_boxed_slice(),
            progress: AtomicUsize::new(0),
            _marker: PhantomData,
        }
    }

    /// Advance installed-prefix from exactly `from` to `to`. Exactly one
    /// helper per group wins this CAS; the winner performs the group's
    /// one-shot cleanup (deferring destruction of a merged node, etc.).
    pub(crate) fn advance(&self, from: usize, to: usize) -> bool {
        debug_assert!(to > from);
        self.progress.compare_exchange(from, to, Ordering::AcqRel, Ordering::Acquire).is_ok()
    }

    /// End of the group starting at `i` for a node with key `node_key`:
    /// the first index whose key is below the node's range. All ops in
    /// `[i, end)` belong to key range `[node_key, +inf)` — and, because
    /// `i`'s key was located in this node, to the node's actual range.
    pub(crate) fn group_end(&self, i: usize, node_key: &NodeKey<K>) -> usize {
        let mut j = i;
        while j < self.ops.len() && node_key.le(self.ops[j].key()) {
            j += 1;
        }
        j
    }

    /// The ops `[i, j)` (stored descending) as ascending deltas, borrowed
    /// straight from the descriptor for the revision constructors.
    pub(crate) fn group(
        &self,
        i: usize,
        j: usize,
    ) -> impl Iterator<Item = Delta<'_, K, V>> + Clone {
        self.ops[i..j].iter().rev().map(|op| match op {
            BatchOp::Put(k, v) => Delta::Put(k, v),
            BatchOp::Remove(k) => Delta::Remove(k),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_clock::AtomicClock;

    fn desc(keys: &[u64]) -> BatchDescriptor<u64, u64> {
        let ops = keys.iter().map(|&k| BatchOp::Put(k, k * 10)).collect();
        BatchDescriptor::new(&AtomicClock::new(), ops)
    }

    #[test]
    fn stores_descending() {
        let d = desc(&[1, 5, 9]);
        let keys: Vec<u64> = d.ops().iter().map(|o| *o.key()).collect();
        assert_eq!(keys, vec![9, 5, 1]);
        assert!(!d.is_finalized());
        assert_eq!(d.progress(), 0);
        assert_eq!(d.len(), 3);
    }

    #[test]
    fn advance_is_single_winner() {
        let d = desc(&[1, 2, 3]);
        assert!(d.advance(0, 2));
        assert!(!d.advance(0, 2), "second CAS from 0 must fail");
        assert!(!d.advance(0, 3));
        assert!(d.advance(2, 3));
        assert_eq!(d.progress(), 3);
    }

    #[test]
    fn group_end_by_node_key() {
        let d = desc(&[2, 4, 6, 8]); // stored as [8, 6, 4, 2]
                                     // Node with key 5 covers keys >= 5: group [0, 2) = {8, 6}.
        assert_eq!(d.group_end(0, &NodeKey::Key(5)), 2);
        // Base node covers everything.
        assert_eq!(d.group_end(0, &NodeKey::NegInf), 4);
        assert_eq!(d.group_end(2, &NodeKey::NegInf), 4);
        // Node key above every remaining op: empty group.
        assert_eq!(d.group_end(2, &NodeKey::Key(100)), 2);
    }

    #[test]
    fn group_deltas_ascending() {
        let d = desc(&[2, 4, 6]);
        let keys: Vec<u64> = d.group(0, 2).map(|d| *d.key()).collect(); // ops {6, 4}
        assert_eq!(keys, vec![4, 6]);
    }

    #[test]
    fn mixed_ops_preserved() {
        let ops = vec![BatchOp::Put(1u64, 1u64), BatchOp::Remove(3), BatchOp::Put(5, 5)];
        let d = BatchDescriptor::new(&AtomicClock::new(), ops);
        assert!(matches!(d.ops()[0], BatchOp::Put(5, 5)));
        assert!(matches!(d.ops()[1], BatchOp::Remove(3)));
        assert!(matches!(d.ops()[2], BatchOp::Put(1, 1)));
    }
}
