//! Jiffy's inner garbage collector (paper §3.3.4, Fig. 2d).
//!
//! After an update, the revision list is "cut short": walking from the
//! head, the first finalized revision whose version is at or below the
//! minimum registered snapshot version (the *keep point*) is the oldest
//! revision any current or future reader can select — everything behind
//! it is unreachable garbage.
//!
//! The floor is refreshed on demand, by the cut that needs it: the first
//! finalized revision the walk meets above the cached floor pays for one
//! registry scan (`JiffyInner::refresh_gc_floor`), published with
//! `fetch_max` before anything is cut. After a put with no live snapshot
//! that makes the new head the keep point, so a node holds one revision.
//! Pending revisions (a batch group installed but not yet committed)
//! never trigger the scan: they cannot be the keep point whatever the
//! floor says. A batch group's cut keeps its pending head and the
//! finalized predecessor, and refreshes only if that predecessor is newer
//! than the floor — at most once per batch execution. Under a live
//! snapshot a scan per group would put a registry walk, and a write to
//! the floor whenever the oldest snapshot moved, on every group; those
//! are lines every `snapshot()` touches. The later groups cut against the
//! floor the first one published, which is past every predecessor written
//! before the batch began unless a snapshot holds it back.
//!
//! The cut itself is a CAS of the keep point's `next` edge to null; the
//! winner walks the severed chain and defers destruction of each revision
//! (following owning edges only — see `node.rs` for the ownership
//! discipline that makes branched lists reclaimable exactly once).
//! Readers pinned before the cut are protected by the epoch; readers
//! arriving after can never walk past the keep point, because the first
//! finalized revision `<= their snapshot` lies at or above it.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{Guard, Shared};
use jiffy_clock::VersionClock;

use crate::inner::{defer_destroy_chain, JiffyInner, MapKey, MapValue};
use crate::node::Node;

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Truncate obsolete revisions at `node_s` (Algorithm 1 line 34).
    /// `may_refresh` is the caller's one floor refresh: a put or remove
    /// passes a fresh `true`, a batch execution one flag for all its
    /// groups, which the first refresh clears.
    pub(crate) fn perform_gc<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        may_refresh: &mut bool,
        guard: &'g Guard,
    ) {
        let mut min = self.gc_floor();
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let mut rev_s = node.head.load(Ordering::Acquire, guard);
        // Find the keep point: first finalized revision with version <= min.
        let keep = loop {
            if rev_s.is_null() {
                return; // nothing old enough to cut
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let rev = unsafe { rev_s.deref() };
            let v = rev.version();
            if v >= 0 {
                if v > min && *may_refresh {
                    *may_refresh = false;
                    min = self.refresh_gc_floor();
                }
                if v <= min {
                    break rev;
                }
            }
            // Walk the spine only; branches hang off their merge revision
            // and are reclaimed when it is.
            rev_s = rev.next.load(Ordering::Acquire, guard);
        };
        // Cut the spine behind the keep point. The swap atomically
        // *claims* the severed chain: exactly one cutter sees the
        // non-null tail, and the chain walker claims every further edge
        // the same way (see `defer_destroy_chain` on why).
        let tail = keep.next.swap(Shared::null(), Ordering::AcqRel, guard);
        if !tail.is_null() && keep.owns_next() {
            // SAFETY: unlinked from the structure above, so no new reader
            // can reach it; already-pinned readers hold it until they unpin.
            unsafe { defer_destroy_chain(tail, guard) };
        }
        // A merge revision at the keep point also owns its right branch;
        // once it is itself at/below the floor, no reader will descend.
        if let Some(mi) = keep.as_merge() {
            let rtail = mi.right_next.swap(Shared::null(), Ordering::AcqRel, guard);
            if !rtail.is_null() {
                // SAFETY: unlinked from the structure above, so no new reader
                // can reach it; already-pinned readers hold it until they unpin.
                unsafe { defer_destroy_chain(rtail, guard) };
            }
        }
    }
}
