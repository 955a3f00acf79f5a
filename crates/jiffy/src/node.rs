//! Skip-list nodes and the revision-list object model (paper §3.1, §3.3.1).
//!
//! A node of the lowest-level list owns a *revision list*: newest revision
//! first, each revision immutable once published. Revision lists are not
//! plain linked lists — node splits and merges make them branch and join:
//!
//! * a **left/right split revision** pair carries the two halves of a
//!   split node's entries; both halves share one version cell and both
//!   point at the pre-split revision (only the left edge owns it);
//! * a **merge revision** joins two lists: its `next` continues the
//!   surviving (left) node's history, `right_next` continues the merged
//!   (right) node's history;
//! * a **merge terminator** caps the merged node's list so nothing can be
//!   added to it, and records the operation that triggered the merge.
//!
//! Memory ownership for reclamation: every revision is destroyed
//! *shallowly*; chain reclamation walks explicit edges, and only edges
//! marked *owning* are followed ([`Revision::owns_next`]). The right split
//! revision and the merge terminator hold non-owning duplicates of edges
//! owned elsewhere — that is what makes the branching lists reclaimable
//! without reference counting.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;

use crossbeam_epoch::{Atomic, Guard, Owned, Shared};

use crate::batch::BatchDescriptor;
use crate::revision::RevData;
use crate::version::{VersionCell, VersionRef, INITIAL_VERSION};

/// Maximum skip-list height (level 0 is the authoritative list; levels
/// `1..MAX_HEIGHT` are probabilistic shortcuts).
pub(crate) const MAX_HEIGHT: usize = 20;

/// Key of a node: the inclusive lower end of the key range it manages.
/// The base node's key is `⊥` (negative infinity); it manages
/// `(-inf, first-split-key)` and is never merged or removed (§3.1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum NodeKey<K> {
    NegInf,
    Key(K),
}

impl<K: Ord> NodeKey<K> {
    /// `self <= key`, i.e. `key` could live in a node with this node key.
    #[inline]
    pub(crate) fn le(&self, key: &K) -> bool {
        match self {
            NodeKey::NegInf => true,
            NodeKey::Key(k) => k <= key,
        }
    }

    /// Strictly greater than `key` (node lies past the key).
    #[inline]
    #[allow(dead_code)]
    pub(crate) fn gt(&self, key: &K) -> bool {
        !self.le(key)
    }

    pub(crate) fn as_key(&self) -> Option<&K> {
        match self {
            NodeKey::NegInf => None,
            NodeKey::Key(k) => Some(k),
        }
    }
}

/// Exponential moving averages driving the autoscaling policy (§3.3.6).
/// Updated racily by design ("a race condition, which is harmless, as we
/// are just gathering some statistics").
///
/// Weights are derived from per-node operation gaps: a fold after a long
/// quiet period carries more weight than one in a hot streak, so the
/// EMAs track the *time share* of reads vs updates at the node (the
/// paper's stated quantity) and converge within seconds regardless of
/// how many nodes each thread's attention is spread over.
pub(crate) struct RevStats {
    /// f32 bit patterns; `p_reads`/`p_updates` estimate the share of time
    /// threads recently spent reading/updating this node.
    p_reads: AtomicU32,
    p_updates: AtomicU32,
    /// Process-relative seconds when this revision was created.
    created_at: f32,
    /// Process-relative seconds of the last read-side fold (f32 bits).
    last_read_fold: AtomicU32,
}

impl RevStats {
    pub(crate) fn new(p_reads: f32, p_updates: f32, now: f32) -> Self {
        RevStats {
            p_reads: AtomicU32::new(p_reads.to_bits()),
            p_updates: AtomicU32::new(p_updates.to_bits()),
            created_at: now,
            last_read_fold: AtomicU32::new(now.to_bits()),
        }
    }

    #[inline]
    pub(crate) fn load(&self) -> (f32, f32) {
        (
            f32::from_bits(self.p_reads.load(Ordering::Relaxed)),
            f32::from_bits(self.p_updates.load(Ordering::Relaxed)),
        )
    }

    #[inline]
    pub(crate) fn store(&self, p_reads: f32, p_updates: f32) {
        self.p_reads.store(p_reads.to_bits(), Ordering::Relaxed);
        self.p_updates.store(p_updates.to_bits(), Ordering::Relaxed);
    }

    /// Seconds since this revision was created (update-side weight).
    #[inline]
    pub(crate) fn update_gap(&self, now: f32) -> f32 {
        now - self.created_at
    }

    /// The statistics of a revision an update stacks on this one at
    /// `now`: the update-side fold (§3.3.6), weighted by this revision's
    /// age.
    pub(crate) fn after_update(&self, now: f32) -> RevStats {
        let (p, u) = crate::autoscale::fold_update(self.load(), self.update_gap(now));
        RevStats::new(p, u, now)
    }

    /// Seconds since the last read fold (read-side weight); also bumps
    /// the marker.
    #[inline]
    pub(crate) fn read_gap(&self, now: f32) -> f32 {
        let last = f32::from_bits(self.last_read_fold.load(Ordering::Relaxed));
        self.last_read_fold.store(now.to_bits(), Ordering::Relaxed);
        now - last.max(self.created_at)
    }
}

/// Metadata shared by the two halves of one node split.
pub(crate) struct SplitInfo<K, V> {
    /// Key of the new (right) node — the median of the split entries.
    pub(crate) split_key: K,
    /// The right split revision (set at construction, read by helpers
    /// building the new node).
    pub(crate) right: Atomic<Revision<K, V>>,
}

/// The operation a merge terminator is carrying into the merge revision.
pub(crate) enum TermOp<K, V> {
    /// A single `remove(key)` (Algorithm 1 lines 47-52).
    Remove { key: K },
    /// A batch-update group: ops `[group_start ..)` of the descriptor that
    /// fall into the merged range (resolved against the predecessor found
    /// at merge time).
    Batch { group_start: usize, _marker: std::marker::PhantomData<(K, V)> },
}

/// State of a merge terminator (Fig. 4b).
pub(crate) struct TermInfo<K, V> {
    pub(crate) op: TermOp<K, V>,
    /// CAS-set once a merge revision for this terminator has been
    /// *installed* at the predecessor; later helpers adopt it instead of
    /// building another one (merge idempotency).
    pub(crate) merge_rev: Atomic<Revision<K, V>>,
    /// Claimed (CAS false -> true) by the single helper that performs the
    /// one-shot cleanup: deferring destruction of the merged node shell
    /// and this terminator.
    pub(crate) cleanup_claimed: AtomicBool,
}

/// State of a merge revision (Fig. 4c): the join point of two lists.
pub(crate) struct MergeInfo<K, V> {
    /// Key of the node that was merged away (`rightKey` in Algorithm 2):
    /// snapshot reads for keys `>= right_key` descend into `right_next`.
    pub(crate) right_key: K,
    /// The merged node (needed by helpers to unlink it). Non-owning; the
    /// merge completer defers its destruction exactly once.
    pub(crate) right_node: Atomic<Node<K, V>>,
    /// The merged node's revision history (the terminator's successor).
    /// This is the *owning* reference to that chain.
    pub(crate) right_next: Atomic<Revision<K, V>>,
    /// The terminator this merge revision resolves (for adoption).
    /// Non-owning: destroyed together with `right_node`.
    pub(crate) mterm: Atomic<Revision<K, V>>,
    /// Set once phases 4-6 are done, *before* the cleanup winner defers
    /// destruction of `right_node` and `mterm`. A batch merge revision
    /// stays `is_pending()` until its whole descriptor finalizes — long
    /// after those two pointers dangle — so `complete_merge` re-entry
    /// must gate on this latch, not on the version (see the ordering
    /// argument at its load site).
    pub(crate) completed: AtomicBool,
    /// For batch-triggered merges: descriptor ops `[.., coverage_end)` are
    /// folded into this revision (the group of the merged node *and* the
    /// group of the surviving predecessor, §3.3.3 item 4 ordering).
    pub(crate) coverage_end: usize,
}

/// Role of a revision within the branching revision lists.
pub(crate) enum RevKind<K, V> {
    Regular,
    LeftSplit(Arc<SplitInfo<K, V>>),
    RightSplit(Arc<SplitInfo<K, V>>),
    Merge(MergeInfo<K, V>),
    MergeTerminator(TermInfo<K, V>),
}

/// A revision: an immutable bundle of entries tagged with a version
/// (possibly still pending), linked into its node's revision list.
///
/// # Layout (cache-conscious, audited)
///
/// `repr(C)` pins the declaration order so the point-read hot set —
/// version (`vref`), chain edge (`next`), kind discriminant, and the
/// payload block pointer (`data`) — packs into the first two cache
/// lines, one adjacent-prefetch pair on x86_64. The fields only the
/// helping and autoscaling paths touch (`batch_span`, and the
/// GC/§3.3.6-only `stats`) sit behind them, so a lookup never pulls
/// their lines in. Do not reorder without re-checking
/// `revision_layout_keeps_hot_fields_front` below.
#[repr(C)]
pub(crate) struct Revision<K, V> {
    pub(crate) vref: VersionRef<K, V>,
    /// Older neighbour in this node's list (for a merge revision: the left
    /// branch). Mutated only by GC truncation (CAS to null).
    pub(crate) next: Atomic<Revision<K, V>>,
    pub(crate) kind: RevKind<K, V>,
    pub(crate) data: RevData<K, V>,
    /// For batch revisions: descriptor ops `[batch_start, batch_end)` are
    /// reflected in this revision (used to advance `progress`).
    pub(crate) batch_span: (usize, usize),
    /// Cold: read by the autoscaler's occasional folds and by GC, never
    /// on the per-op hot path.
    pub(crate) stats: RevStats,
}

impl<K, V> Revision<K, V> {
    /// A data-carrying revision, not yet linked into a list
    /// ([`Node::push_head`] sets `next`).
    /// `batch_span` is `(0, 0)` outside batches.
    pub(crate) fn regular(
        vref: VersionRef<K, V>,
        data: RevData<K, V>,
        stats: RevStats,
        batch_span: (usize, usize),
    ) -> Self {
        Revision { vref, next: Atomic::null(), kind: RevKind::Regular, data, batch_span, stats }
    }

    /// A merge terminator carrying `op` into the merge (Fig. 4b), not
    /// yet linked; `vref` is the version the merge revision will share.
    pub(crate) fn merge_terminator(
        vref: VersionRef<K, V>,
        op: TermOp<K, V>,
        stats: RevStats,
        batch_span: (usize, usize),
    ) -> Self {
        let info =
            TermInfo { op, merge_rev: Atomic::null(), cleanup_claimed: AtomicBool::new(false) };
        Revision {
            vref,
            next: Atomic::null(),
            kind: RevKind::MergeTerminator(info),
            data: RevData::empty(),
            batch_span,
            stats,
        }
    }

    /// The initial (empty, already-final) revision of a fresh map's base
    /// node.
    pub(crate) fn initial() -> Self {
        Self::regular(
            VersionRef::Inline(VersionCell::with_value(INITIAL_VERSION)),
            RevData::empty(),
            RevStats::new(0.0, 0.0, 0.0),
            (0, 0),
        )
    }

    #[inline]
    pub(crate) fn version(&self) -> i64 {
        self.vref.load()
    }

    /// Pending = the update that created this revision has not reached its
    /// linearization point yet.
    #[inline]
    pub(crate) fn is_pending(&self) -> bool {
        self.version() < 0
    }

    #[inline]
    pub(crate) fn batch_descriptor(&self) -> Option<&Arc<BatchDescriptor<K, V>>> {
        self.vref.batch()
    }

    /// Whether the `next` edge is the owning reference to the chain behind
    /// it (see module docs; right split revisions and merge terminators
    /// duplicate an edge owned elsewhere).
    #[inline]
    pub(crate) fn owns_next(&self) -> bool {
        !matches!(self.kind, RevKind::RightSplit(_) | RevKind::MergeTerminator(_))
    }

    #[inline]
    pub(crate) fn is_merge_terminator(&self) -> bool {
        matches!(self.kind, RevKind::MergeTerminator(_))
    }

    pub(crate) fn as_merge(&self) -> Option<&MergeInfo<K, V>> {
        match &self.kind {
            RevKind::Merge(m) => Some(m),
            _ => None,
        }
    }

    pub(crate) fn as_terminator(&self) -> Option<&TermInfo<K, V>> {
        match &self.kind {
            RevKind::MergeTerminator(t) => Some(t),
            _ => None,
        }
    }

    pub(crate) fn as_split(&self) -> Option<&Arc<SplitInfo<K, V>>> {
        match &self.kind {
            RevKind::LeftSplit(s) | RevKind::RightSplit(s) => Some(s),
            _ => None,
        }
    }

    #[inline]
    #[allow(dead_code)]
    pub(crate) fn is_left_split(&self) -> bool {
        matches!(self.kind, RevKind::LeftSplit(_))
    }
}

/// Discriminates real nodes from the transient placeholder used mid-split
/// (Fig. 3c-d).
pub(crate) enum NodeKind<K, V> {
    Normal,
    /// A temporary split node: occupies the new node's position in the
    /// level-0 list so concurrent operations can find the pending split
    /// and help. `origin` is the node being split; `lsr` its left split
    /// revision.
    TempSplit {
        origin: Atomic<Node<K, V>>,
        lsr: Atomic<Revision<K, V>>,
    },
}

/// A node of the skip list's lowest-level list, managing the key range
/// `[key, successor.key)`.
///
/// # Layout (cache-conscious, audited)
///
/// `repr(C)` pins the declaration order: everything the level-0 walk
/// and the point read touch — `key` (comparison), `head`
/// (revision list), `next` (the hop), `terminated`, and the `kind`
/// discriminant — is packed at the front (one cache line for
/// fixed-size keys). The tower array is boxed out of line and its
/// (fat) pointer sits last: only index-level descent reads it, with
/// its own prefetch. Do not reorder without re-checking
/// `node_layout_keeps_hot_fields_front` below.
#[repr(C)]
pub(crate) struct Node<K, V> {
    pub(crate) key: NodeKey<K>,
    /// Head of the revision list (the newest revision).
    pub(crate) head: Atomic<Revision<K, V>>,
    /// Level-0 successor.
    pub(crate) next: Atomic<Node<K, V>>,
    /// Set when the node's merge has been installed; traversals unlink
    /// terminated nodes (§3.3.2, `findNodeForKey`).
    pub(crate) terminated: AtomicBool,
    pub(crate) kind: NodeKind<K, V>,
    /// Shortcut pointers for levels `1..=height`. `tower[i]` is the
    /// successor at level `i + 1`. Empty for temp split nodes.
    pub(crate) tower: Box<[Atomic<Node<K, V>>]>,
    /// Debug builds: set by merge cleanup just before the node's
    /// destruction is deferred. A live node must never link a retired
    /// one; the tower walk checks (ROADMAP F4).
    #[cfg(debug_assertions)]
    pub(crate) retired: AtomicBool,
}

impl<K, V> Node<K, V> {
    pub(crate) fn new_normal(key: NodeKey<K>, height: usize) -> Self {
        let tower = (0..height.saturating_sub(1)).map(|_| Atomic::null()).collect();
        Node {
            key,
            head: Atomic::null(),
            next: Atomic::null(),
            terminated: AtomicBool::new(false),
            kind: NodeKind::Normal,
            tower,
            #[cfg(debug_assertions)]
            retired: AtomicBool::new(false),
        }
    }

    pub(crate) fn new_temp_split(key: K) -> Self {
        Node {
            key: NodeKey::Key(key),
            head: Atomic::null(),
            next: Atomic::null(),
            terminated: AtomicBool::new(false),
            kind: NodeKind::TempSplit { origin: Atomic::null(), lsr: Atomic::null() },
            tower: Box::new([]),
            #[cfg(debug_assertions)]
            retired: AtomicBool::new(false),
        }
    }

    #[inline]
    pub(crate) fn is_temp_split(&self) -> bool {
        matches!(self.kind, NodeKind::TempSplit { .. })
    }

    #[inline]
    pub(crate) fn is_terminated(&self) -> bool {
        self.terminated.load(Ordering::Acquire)
    }

    /// Link `rev` in front of `expected` and CAS it in as this node's
    /// head — the install step of every update. `None` means the head
    /// moved since `expected` was read; `rev` is dropped unpublished.
    pub(crate) fn push_head<'g>(
        &self,
        expected: Shared<'g, Revision<K, V>>,
        rev: Revision<K, V>,
        guard: &'g Guard,
    ) -> Option<Shared<'g, Revision<K, V>>> {
        let born_final = cfg!(debug_assertions) && rev.version() >= 0;
        let rev = Owned::new(rev);
        rev.next.store(expected, Ordering::Relaxed);
        let published = self
            .head
            .compare_exchange(expected, rev, Ordering::AcqRel, Ordering::Acquire, guard)
            .ok()?;
        // Every operation installs pending and finalizes afterwards, so
        // a version that was final *before* the CAS belongs to a finished
        // operation whose revisions are all in place: the head has moved
        // since the helper read it and the CAS must lose. A win is a
        // helper re-installing a finished batch group (F1's tell was a
        // `SplitBuild` event with a non-negative version).
        debug_assert!(!born_final, "a revision of an already-finalized operation was installed");
        Some(published)
    }

    /// Number of levels above level 0 this node participates in.
    #[inline]
    pub(crate) fn tower_height(&self) -> usize {
        self.tower.len()
    }
}

/// Random tower height: geometric with p = 1/2, capped at
/// [`MAX_HEIGHT`] (the probability of reaching level `h` is `2^-h`, as in
/// `ConcurrentSkipListMap`, which the paper adopts for index levels).
pub(crate) fn random_height(rng_state: &mut u64) -> usize {
    // xorshift64*
    let mut x = *rng_state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng_state = x;
    let bits = x.wrapping_mul(0x2545F4914F6CDD1D);
    (bits.trailing_ones() as usize + 1).min(MAX_HEIGHT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_key_ordering() {
        let neg: NodeKey<u64> = NodeKey::NegInf;
        assert!(neg.le(&0));
        assert!(neg.le(&u64::MAX));
        assert!(!neg.gt(&0));
        let five = NodeKey::Key(5u64);
        assert!(five.le(&5));
        assert!(five.le(&9));
        assert!(five.gt(&4));
        assert_eq!(five.as_key(), Some(&5));
        assert_eq!(neg.as_key(), None);
    }

    #[test]
    fn rev_stats_roundtrip() {
        let s = RevStats::new(0.25, 0.75, 1.0);
        assert_eq!(s.load(), (0.25, 0.75));
        s.store(0.5, 0.125);
        assert_eq!(s.load(), (0.5, 0.125));
    }

    #[test]
    fn rev_stats_gaps() {
        let s = RevStats::new(0.0, 0.0, 10.0);
        assert_eq!(s.update_gap(12.5), 2.5);
        // First read gap measured from creation; second from last fold.
        assert_eq!(s.read_gap(11.0), 1.0);
        assert_eq!(s.read_gap(11.5), 0.5);
    }

    #[test]
    fn initial_revision_is_final_and_empty() {
        let r: Revision<u64, u64> = Revision::initial();
        assert!(!r.is_pending());
        assert_eq!(r.version(), 0);
        assert!(r.data.is_empty());
        assert!(r.owns_next());
        assert!(r.as_merge().is_none());
        assert!(r.as_terminator().is_none());
        assert!(r.as_split().is_none());
    }

    #[test]
    fn node_construction() {
        let n: Node<u64, u64> = Node::new_normal(NodeKey::NegInf, 4);
        assert_eq!(n.tower_height(), 3);
        assert!(!n.is_temp_split());
        assert!(!n.is_terminated());

        let t: Node<u64, u64> = Node::new_temp_split(10);
        assert!(t.is_temp_split());
        assert_eq!(t.tower_height(), 0);
        assert_eq!(t.key, NodeKey::Key(10));
    }

    #[test]
    fn revision_layout_keeps_hot_fields_front() {
        use std::mem::offset_of;
        type R = Revision<u64, u64>;
        // The point-read hot set (version, chain edge, discriminant)
        // lives in the first cache line; the payload block pointer starts
        // within the first adjacent-prefetch pair (128 bytes).
        assert!(offset_of!(R, vref) < 64);
        assert!(offset_of!(R, next) < 64);
        assert!(offset_of!(R, kind) < 64);
        assert!(offset_of!(R, data) < 128);
        // Cold / helping-only fields are padded out behind the hot set.
        assert!(offset_of!(R, batch_span) > offset_of!(R, data));
        assert!(offset_of!(R, stats) > offset_of!(R, batch_span));
    }

    #[test]
    fn node_layout_keeps_hot_fields_front() {
        use std::mem::offset_of;
        type N = Node<u64, u64>;
        // Everything the level-0 walk touches fits one cache line for
        // fixed-size keys; the tower's fat pointer comes last.
        assert!(offset_of!(N, key) < 64);
        assert!(offset_of!(N, head) < 64);
        assert!(offset_of!(N, next) < 64);
        assert!(offset_of!(N, terminated) < 64);
        assert!(offset_of!(N, kind) < 64);
        assert!(offset_of!(N, tower) > offset_of!(N, kind));
    }

    #[test]
    fn random_height_distribution() {
        let mut state = 0x12345678_9abcdef0u64;
        let mut counts = [0usize; MAX_HEIGHT + 1];
        let n = 100_000;
        for _ in 0..n {
            let h = random_height(&mut state);
            assert!((1..=MAX_HEIGHT).contains(&h));
            counts[h] += 1;
        }
        // Roughly half the nodes are height 1, a quarter height 2, ...
        assert!((counts[1] as f64) > 0.4 * n as f64);
        assert!((counts[1] as f64) < 0.6 * n as f64);
        assert!((counts[2] as f64) > 0.15 * n as f64);
        assert!((counts[2] as f64) < 0.35 * n as f64);
    }

    #[test]
    fn random_height_varies_with_state() {
        let mut a = 1u64;
        let mut b = 999u64;
        let ha: Vec<usize> = (0..64).map(|_| random_height(&mut a)).collect();
        let hb: Vec<usize> = (0..64).map(|_| random_height(&mut b)).collect();
        assert_ne!(ha, hb);
    }
}
