//! Snapshot range scans (paper §3.3.4).
//!
//! A range scan always runs against a snapshot version. It walks the
//! level-0 list from the node covering the start key (or the base node),
//! one `locate` per node (`locate.rs`, `ForScan`: the validated
//! successor is a real node, never a temp split), resolving each
//! node's revision list at the snapshot and emitting the entries inside
//! the node's *window* — `[max(lo, node.key), min(hi, successor.key))`
//! at observation time. Windows partition the keyspace, so concurrent
//! splits/merges can neither duplicate nor lose entries: any revision
//! created after the snapshot has a version above it and is filtered
//! out, and pre-snapshot data stays reachable through split/merge
//! revision branches.
//!
//! **The unit of emission is a run, not an entry.** A revision stores
//! its keys and its values as two immutable sorted arrays, so a window
//! is two binary searches and the sink receives the sub-slices
//! `(&keys[start..end], &values[start..end])` — no per-entry compare,
//! no per-entry indirect call. Runs are never empty, keys ascend
//! strictly within a run and from one run to the next, and the slices
//! point into an epoch-protected revision: they are valid for the
//! duration of the sink call only (the sink's higher-ranked signature
//! makes keeping one a compile error).
//!
//! When the resolution walk has to *skip* a merge revision (its version
//! exceeds the snapshot), the merged node's history is only reachable
//! through the revision's two branches; the resolver recurses into both
//! with the window split at `right_key` — this materializes the paper's
//! "bulk revision" ("constructed by recursively traversing all
//! successors of all the encountered merge revisions") as two runs.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Guard, Shared};
use jiffy_clock::VersionClock;

use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::{ForScan, Seek};
use crate::node::Revision;

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Emit the entries of `[from, hi)` (`hi = None`: unbounded) at
    /// snapshot `snap` as ascending runs, until `sink` returns `false`
    /// or the range is exhausted. `Seek::Min` starts at the base node,
    /// whose range has no lower key to name.
    pub(crate) fn scan(
        &self,
        from: Seek<'_, K>,
        hi: Option<&K>,
        snap: i64,
        sink: &mut dyn FnMut(&[K], &[V]) -> bool,
    ) {
        debug_assert!(snap >= 0);
        let guard = &epoch::pin();
        // `None` stands for -inf: the base node's range has no lower key.
        let mut cursor: Option<K> = match from {
            Seek::Key(lo) => Some(lo.clone()),
            Seek::Min => None,
        };
        loop {
            // The validated successor (the Algorithm 2 line 14 re-check)
            // also pins this node's emission window: [cursor, upper).
            let found = self.locate(cursor.as_ref().map_or(Seek::Min, Seek::Key), &ForScan, guard);
            self.note_read(found.head_s(), guard);
            let upper = found.upper();
            // The scan's own bound clips the window it falls into, and
            // that window is the last one.
            let last = upper.map_or(true, |u| hi.is_some_and(|h| u >= h));
            let window_hi = if last { hi } else { upper };
            let keep_going = self.resolve_window(
                found.node_s(),
                found.head_s(),
                snap,
                cursor.as_ref(),
                window_hi,
                sink,
                guard,
            );
            if !keep_going || last {
                return;
            }
            cursor = upper.cloned();
        }
    }

    /// Resolve a revision list at `snap` within the window
    /// `[lo, hi)` (`lo` inclusive if `Some`, `hi` exclusive if `Some`) and
    /// emit its entries as one run (one per branch below a skipped merge
    /// revision). Returns `false` if the sink stopped.
    #[allow(clippy::too_many_arguments)]
    fn resolve_window<'g>(
        &self,
        node_s: Shared<'g, crate::node::Node<K, V>>,
        rev_start: Shared<'g, Revision<K, V>>,
        snap: i64,
        lo: Option<&K>,
        hi: Option<&K>,
        sink: &mut dyn FnMut(&[K], &[V]) -> bool,
        guard: &'g Guard,
    ) -> bool {
        // Degenerate window.
        if let (Some(l), Some(h)) = (lo, hi) {
            if l >= h {
                return true;
            }
        }
        let mut rev_s = rev_start;
        loop {
            if rev_s.is_null() {
                return true;
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let rev = unsafe { rev_s.deref() };
            let mut v = rev.version();
            if v < 0 && -v <= snap {
                self.help_pending_update(node_s, rev_s, guard);
                v = rev.version();
            }
            if v >= 0 && v <= snap {
                // Found the revision for this window: emit its slice.
                let data = &rev.data;
                let start = lo.map_or(0, |l| data.lower_bound(l));
                let end = hi.map_or(data.len(), |h| data.lower_bound(h));
                return start >= end || sink(&data.keys()[start..end], &data.values()[start..end]);
            }
            // |v| > snap: skip, splitting the window at merge joins.
            if let Some(mi) = rev.as_merge() {
                let rk = &mi.right_key;
                let left_next = rev.next.load(Ordering::Acquire, guard);
                let right_next = mi.right_next.load(Ordering::Acquire, guard);
                // Left part: [lo, min(hi, right_key)).
                let left_hi = match hi {
                    Some(h) if h <= rk => Some(h),
                    _ => Some(rk),
                };
                if !self.resolve_window(node_s, left_next, snap, lo, left_hi, sink, guard) {
                    return false;
                }
                // Right part: [max(lo, right_key), hi).
                let right_lo = match lo {
                    Some(l) if l >= rk => Some(l),
                    _ => Some(rk),
                };
                return self.resolve_window(node_s, right_next, snap, right_lo, hi, sink, guard);
            }
            rev_s = rev.next.load(Ordering::Acquire, guard);
        }
    }
}
