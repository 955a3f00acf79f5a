//! The one locate (paper Algorithm 1 lines 4-16, Algorithm 2 line 14).
//!
//! Every operation starts the same way: find the node whose range covers
//! the key, read its `next` and `head`, and make sure the pair still
//! describes the key's neighbourhood — the node is not terminated, `next`
//! did not move across the head read, and the successor's key still lies
//! above the key (a split can carve the key's range out to a new right
//! node after the traversal chose this one; installing or reading here
//! would then act beyond the node's boundary). [`neighbourhood`] is that
//! bracket, once; [`locate`] is the retry loop around it that helps
//! whatever is in flight (§3.3.3) until the neighbourhood is quiet.
//! Callers differ only in *what* they help, chosen by a [`Helping`] type.
//!
//! [`neighbourhood`]: JiffyInner::neighbourhood
//! [`locate`]: JiffyInner::locate

use std::sync::atomic::Ordering;
use std::sync::Arc;

use crossbeam_epoch::{Guard, Shared};
use jiffy_clock::VersionClock;

use crate::backoff::{HelpBackoff, Tripwire};
use crate::batch::BatchDescriptor;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::node::{Node, Revision};

/// Where a locate starts: the node covering a key, or the base node
/// (whose range starts at -inf, which no key can name).
pub(crate) enum Seek<'a, K> {
    Key(&'a K),
    Min,
}

// Not derived: a derive would ask for `K: Copy`.
impl<K> Clone for Seek<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Seek<'_, K> {}

/// A node, its head revision and its successor, read so that the three
/// belong together (see the module docs).
///
/// Built only by [`JiffyInner::neighbourhood`], which is what lets the
/// accessors dereference: `node` and `head` are non-null.
pub(crate) struct Neighbourhood<'g, K, V> {
    node: Shared<'g, Node<K, V>>,
    head: Shared<'g, Revision<K, V>>,
    next: Shared<'g, Node<K, V>>,
}

impl<'g, K: Ord + 'g, V: 'g> Neighbourhood<'g, K, V> {
    #[inline]
    pub(crate) fn node_s(&self) -> Shared<'g, Node<K, V>> {
        self.node
    }

    #[inline]
    pub(crate) fn head_s(&self) -> Shared<'g, Revision<K, V>> {
        self.head
    }

    #[inline]
    pub(crate) fn node(&self) -> &'g Node<K, V> {
        // SAFETY: non-null and reached under the pin guard `'g`; EBR
        // defers reclamation of epoch-reachable nodes until unpin.
        unsafe { self.node.deref() }
    }

    #[inline]
    pub(crate) fn head(&self) -> &'g Revision<K, V> {
        // SAFETY: every published node has a head, and it was read under
        // the pin guard `'g`; EBR defers its reclamation until unpin.
        unsafe { self.head.deref() }
    }

    /// The successor's key: the exclusive upper end of the node's range,
    /// `None` for the last node.
    pub(crate) fn upper(&self) -> Option<&'g K> {
        // SAFETY: if non-null, the pointee is kept alive by the pin
        // guard `'g` (EBR).
        let succ = unsafe { self.next.as_ref() }?;
        Some(succ.key.as_key().expect("the base node is never a successor"))
    }
}

/// What a locate helps before it returns. Zero-sized (or one borrowed
/// pointer) and monomorphised into [`JiffyInner::locate`].
pub(crate) trait Helping<K, V> {
    /// Help a pending head to completion (updates, Algorithm 1) instead
    /// of handing it to the caller's revision walk (reads, Algorithm 2).
    const PENDING_HEAD: bool;
    /// Replace a temp-split successor with the real node first: a scan's
    /// emission window must end at a real node's key.
    const TEMP_SUCCESSOR: bool = false;
    /// Whether `head` belongs to the operation the caller is itself
    /// driving — never waited on, and handed back instead of helped.
    #[inline]
    fn is_own(&self, _head: &Revision<K, V>) -> bool {
        false
    }
}

/// Point and snapshot reads.
pub(crate) struct ForRead;
/// Range scans.
pub(crate) struct ForScan;
/// `put` / `remove`.
pub(crate) struct ForUpdate;
/// The executor (owner or helper) of this batch.
pub(crate) struct ForBatch<'a, K, V>(pub(crate) &'a Arc<BatchDescriptor<K, V>>);

impl<K, V> Helping<K, V> for ForRead {
    const PENDING_HEAD: bool = false;
}

impl<K, V> Helping<K, V> for ForScan {
    const PENDING_HEAD: bool = false;
    const TEMP_SUCCESSOR: bool = true;
}

impl<K, V> Helping<K, V> for ForUpdate {
    const PENDING_HEAD: bool = true;
}

impl<K, V> Helping<K, V> for ForBatch<'_, K, V> {
    const PENDING_HEAD: bool = true;

    #[inline]
    fn is_own(&self, head: &Revision<K, V>) -> bool {
        head.batch_descriptor().is_some_and(|d| Arc::ptr_eq(d, self.0))
    }
}

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// One attempt at reading the neighbourhood of `at`; `None` means it
    /// moved underneath the reads and the caller must start over.
    #[inline]
    fn neighbourhood<'g>(
        &self,
        at: Seek<'_, K>,
        guard: &'g Guard,
    ) -> Option<Neighbourhood<'g, K, V>> {
        let node_s = match at {
            Seek::Key(key) => self.find_node_for_key(key, guard),
            Seek::Min => self.base_node(guard),
        };
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let next_s = node.next.load(Ordering::Acquire, guard);
        let head_s = node.head.load(Ordering::Acquire, guard);
        // Overlap the head revision's miss with the validation below
        // (callers dereference it right after).
        crossbeam_utils::prefetch_read(head_s.as_raw());
        if node.is_terminated() {
            return None;
        }
        debug_assert!(!head_s.is_null(), "every node has a revision list head");
        if node.next.load(Ordering::Acquire, guard) != next_s {
            return None; // a split or merge happened underneath us
        }
        // SAFETY: if non-null, the pointee is kept alive by the
        // enclosing pin guard (EBR).
        if let (Seek::Key(key), Some(succ)) = (at, unsafe { next_s.as_ref() }) {
            if succ.key.le(key) {
                // Stale floor: a split moved the key's range to a new
                // right node after the traversal read `next` (the
                // `key < next.key` re-check of Algorithms 1 and 2).
                return None;
            }
        }
        Some(Neighbourhood { node: node_s, head: head_s, next: next_s })
    }

    /// Read the neighbourhood of `at` until nothing `helps` cares about
    /// is in flight there, helping it along. On return the head is not a
    /// merge terminator and — with [`Helping::PENDING_HEAD`] — finalized,
    /// unless it is the caller's own.
    #[inline]
    pub(crate) fn locate<'g, H: Helping<K, V>>(
        &self,
        at: Seek<'_, K>,
        helps: &H,
        guard: &'g Guard,
    ) -> Neighbourhood<'g, K, V> {
        let mut backoff = HelpBackoff::new();
        let mut tripwire = Tripwire::new("locate");
        let mut retrying = false;
        loop {
            if retrying {
                perf_count!(locate_retries);
            }
            retrying = true;
            tripwire.tick(String::new);
            let Some(found) = self.neighbourhood(at, guard) else { continue };
            let head = found.head();
            // SAFETY: if non-null, the pointee is kept alive by the
            // enclosing pin guard (EBR).
            if H::TEMP_SUCCESSOR && unsafe { found.next.as_ref() }.is_some_and(Node::is_temp_split)
            {
                self.help_temp_split_node(found.node, found.next, guard);
                continue;
            }
            // Ownership hint (see `backoff`): a rival's owner publishes
            // progress — the merge revision adopted into the terminator,
            // a batch descriptor's `progress` — so give it a bounded
            // grace period before duplicating its CASes.
            if let Some(ti) = head.as_terminator() {
                let adopted = !ti.merge_rev.load(Ordering::Acquire, guard).is_null();
                if !helps.is_own(head)
                    && backoff.should_wait(found.head.as_raw() as usize, adopted as usize)
                {
                    perf_count!(backoff_waits);
                    continue;
                }
                self.help_merge_terminator(found.node, found.head, guard);
                continue;
            }
            if H::PENDING_HEAD && head.is_pending() && !helps.is_own(head) {
                let hint = head.batch_descriptor().map_or(0, |d| d.progress().wrapping_add(1));
                if backoff.should_wait(found.head.as_raw() as usize, hint) {
                    perf_count!(backoff_waits);
                    continue;
                }
                self.help_pending_update(found.node, found.head, guard);
                continue;
            }
            // The read -> validate -> CAS window of every caller opens
            // here: whatever they decide next rests on `found`.
            #[cfg(feature = "audit-sched")]
            jiffy_audit::sched::probe("locate::validated");
            return found;
        }
    }
}
