//! Skip-list traversal and structure maintenance (paper §3.1, §3.3.1).
//!
//! Invariants relied on throughout:
//!
//! * the level-0 list is the authoritative structure; index levels
//!   (towers) are best-effort shortcuts, fixed up lazily, exactly as in
//!   `ConcurrentSkipListMap`, whose index-level scheme the paper adopts;
//! * traversals never *stand on* a temp split node: encountering one as a
//!   successor triggers helping (rule 1 of §3.1), after which the chain
//!   contains either the real new node or no trace of the split;
//! * a temp split node's `next` pointer is immutable after publication —
//!   nobody unlinks terminated nodes *from* a temp. This closes the
//!   resurrection hazard where a helper would publish the new node with a
//!   stale successor that another thread had meanwhile unlinked;
//! * terminated nodes stay traversable (their `next` is preserved) and are
//!   unlinked opportunistically by every traversal (`findNodeForKey ...
//!   unlinks terminated nodes`, §3.3.2).
//!
//! # One walk
//!
//! [`walk_level`](JiffyInner::walk_level) is the only code that loads an
//! edge (`next` on level 0, a tower slot above it) or snips one, apart
//! from `link_tower`'s own install store and CAS. As in Fraser's and
//! `ConcurrentSkipListMap`'s `find`, every search and every unlinker is a
//! walk; [`tower_descend`](JiffyInner::tower_descend) runs it level by
//! level from the base node's top down to a stop level. A [`Walk`] carries
//! three choices:
//!
//! * the comparison — `strict` advances onto keys `< key`, otherwise onto
//!   keys `<= key` (a floor search);
//! * what to do with a terminated successor ([`Dead`]) — snip it out of
//!   the edge and re-read, stop in front of it, or step onto it;
//! * the stop rule ([`Stop`]) — the key bound alone, or also a target
//!   node: stop in front of it, or snip it out and stop. The third stop
//!   rule, a level, is `tower_descend`'s `bottom`.
//!
//! | caller | levels | comparison | terminated successor | stop |
//! |---|---|---|---|---|
//! | `find_node_for_key` | towers, then 0 | floor | snip | key |
//! | `find_pred` | towers, then 0 | strict | snip | key; the caller checks the stop is its target |
//! | `tower_position` | towers down to the link level | strict | snip | in front of the node being linked |
//! | `unlink_tower`, above its level | towers down to level + 1 | strict | stop | key |
//! | `unlink_tower`, at its level | one tower level | floor | step | snip out the node being unlinked; a lost CAS restarts from the top |
//!
//! Level 0 differs from the towers in one more way, which is not a
//! choice: its successor may be a temp split node, which the walk helps
//! away and re-reads, as it does after a snip (a temp never has a tower).
//!
//! Two differences between the rows were never chosen, and stay until
//! F4 (b) settles them: `unlink_tower` stands on terminated nodes at its
//! own level but will not descend through them, and `tower_position`
//! stops in front of its own node even when that node is terminated. F4
//! (ROADMAP; the replay in `tests/audit_sched_replay.rs`) is a tower link
//! that outlives its node; its fix marks a dying node's edges and makes
//! the rows agree on terminated nodes, here in one place. The
//! `perf-counters` hops differ by level too: a tower level counts every
//! successor it loads, level 0 every node it steps onto, and only
//! `find_node_for_key` (both) and `find_pred` (towers) report them.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{Atomic, Guard, Shared};
use crossbeam_utils::prefetch_read;
use jiffy_clock::VersionClock;

use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::node::{Node, NodeKey, MAX_HEIGHT};

/// A `(predecessor, successor)` node pair at some index level.
pub(crate) type NodePair<'g, K, V> = (Shared<'g, Node<K, V>>, Shared<'g, Node<K, V>>);

/// What a walk does with a terminated successor.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Dead {
    /// CAS it out of the edge and re-read the edge.
    Snip,
    /// Stop in front of it.
    Stop,
    /// Step onto it like a live node.
    Step,
}

/// Where a walk stops, besides in front of a successor past its key.
enum Stop<'g, K, V> {
    /// The key bound only.
    Key,
    /// Also in front of this node, terminated or not.
    Before(Shared<'g, Node<K, V>>),
    /// Also at this node, after snipping it out of the edge — or, if
    /// that CAS loses, in front of it.
    Unlink(Shared<'g, Node<K, V>>),
}

/// The choices one walk makes at every level (see the module docs).
struct Walk<'g, K, V> {
    /// Advance onto keys `< key`, not `<= key`.
    strict: bool,
    dead: Dead,
    stop: Stop<'g, K, V>,
}

/// Where a walk stands.
struct At<'g, K, V> {
    /// The node the walk stands on.
    pred: Shared<'g, Node<K, V>>,
    /// The successor it stopped in front of (null: the end of the level).
    curr: Shared<'g, Node<K, V>>,
    /// `perf-counters` hops so far (always 0 without the feature).
    hops: u64,
}

/// `node`'s edge at `level`: `next` on level 0, a tower slot above it,
/// `None` above the node's tower.
#[inline(always)]
fn edge<K, V>(node: &Node<K, V>, level: usize) -> Option<&Atomic<Node<K, V>>> {
    match level {
        0 => Some(&node.next),
        _ => node.tower.get(level - 1),
    }
}

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    /// Find the node whose key range covers `key`. The returned node is
    /// never a temp split node (those are helped away en route); it may
    /// have become terminated by the time the caller looks — callers
    /// revalidate and retry.
    pub(crate) fn find_node_for_key<'g>(
        &self,
        key: &K,
        guard: &'g Guard,
    ) -> Shared<'g, Node<K, V>> {
        perf_count!(descents);
        let floor = Walk { strict: false, dead: Dead::Snip, stop: Stop::Key };
        let mut at = self.tower_descend(key, 1, &floor, guard);
        self.walk_level(&mut at, 0, key, &floor, guard);
        perf_count!(nodes_visited, at.hops);
        at.pred
    }

    /// Find the live level-0 predecessor of `target` (`pred.next ==
    /// target`). Returns `None` once `target` is unlinked (used as the
    /// completion condition by merge helpers). Helps temp split nodes and
    /// unlinks terminated nodes (including a terminated `target`).
    pub(crate) fn find_pred<'g>(
        &self,
        target_s: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> Option<Shared<'g, Node<K, V>>> {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let target = unsafe { target_s.deref() };
        let tkey = target.key.as_key().expect("the base node has no predecessor and never merges");
        let strict = Walk { strict: true, dead: Dead::Snip, stop: Stop::Key };
        let mut at = self.tower_descend(tkey, 1, &strict, guard);
        perf_count!(nodes_visited, at.hops);
        // The first live node at or past the target's key is the target
        // itself, unless the target has been unlinked.
        self.walk_level(&mut at, 0, tkey, &strict, guard);
        (at.curr == target_s).then_some(at.pred)
    }

    /// Link a freshly published node into the index levels (tower heights
    /// `1..=node.tower_height()`). Cooperates with concurrent termination:
    /// after every successful link the terminated flag is re-checked, and
    /// the linker undoes its own work if the node died (see the unlink
    /// protocol in `unlink_tower`).
    pub(crate) fn link_tower<'g>(&self, node_s: Shared<'g, Node<K, V>>, guard: &'g Guard) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let h = node.tower_height();
        if h == 0 {
            return;
        }
        let key = match node.key.as_key() {
            Some(k) => k,
            None => return,
        };
        for level in 1..=h {
            loop {
                if node.is_terminated() {
                    self.unlink_tower(node_s, guard);
                    return;
                }
                let (pred_s, succ_s) = self.tower_position(key, level, node_s, guard);
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let pred = unsafe { pred_s.deref() };
                node.tower[level - 1].store(succ_s, Ordering::Release);
                if pred.tower[level - 1]
                    .compare_exchange(succ_s, node_s, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    break;
                }
            }
        }
        if node.is_terminated() {
            self.unlink_tower(node_s, guard);
        }
    }

    /// Pred/succ pair for inserting `node` (with key `key`) at `level`.
    /// Skips `node` itself and unlinks terminated entries.
    fn tower_position<'g>(
        &self,
        key: &K,
        level: usize,
        node_s: Shared<'g, Node<K, V>>,
        guard: &'g Guard,
    ) -> NodePair<'g, K, V> {
        let walk = Walk { strict: true, dead: Dead::Snip, stop: Stop::Before(node_s) };
        let at = self.tower_descend(key, level, &walk, guard);
        (at.pred, at.curr)
    }

    /// Remove `node` from every index level it might be linked at. Called
    /// by merge completion (before the node's destruction is deferred) and
    /// by a linker that lost the race with termination.
    pub(crate) fn unlink_tower<'g>(&self, node_s: Shared<'g, Node<K, V>>, guard: &'g Guard) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let Some(key) = node.key.as_key() else { return };
        let descend = Walk { strict: true, dead: Dead::Stop, stop: Stop::Key };
        let unlink = Walk { strict: false, dead: Dead::Step, stop: Stop::Unlink(node_s) };
        for level in (1..=node.tower_height()).rev() {
            // Still in front of `node` means the snip lost a race: start over.
            loop {
                let mut at = self.tower_descend(key, level + 1, &descend, guard);
                self.walk_level(&mut at, level, key, &unlink, guard);
                if at.curr != node_s {
                    break;
                }
            }
        }
    }

    /// Run `walk` on every level from the base node's top down to
    /// `bottom`, each level starting where the one above stopped.
    #[inline(always)]
    fn tower_descend<'g>(
        &self,
        key: &K,
        bottom: usize,
        walk: &Walk<'g, K, V>,
        guard: &'g Guard,
    ) -> At<'g, K, V> {
        let mut at = At { pred: self.base_node(guard), curr: Shared::null(), hops: 0 };
        for level in (bottom..MAX_HEIGHT).rev() {
            self.walk_level(&mut at, level, key, walk, guard);
        }
        at
    }

    /// The walk: advance `at` along `level` until `walk` stops it (see the
    /// module docs). Unlinks what `walk` says to and helps temp split
    /// nodes on level 0.
    #[inline(always)]
    fn walk_level<'g>(
        &self,
        at: &mut At<'g, K, V>,
        level: usize,
        key: &K,
        walk: &Walk<'g, K, V>,
        guard: &'g Guard,
    ) {
        at.curr = loop {
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let pred = unsafe { at.pred.deref() };
            let Some(pred_edge) = edge(pred, level) else {
                break Shared::null(); // this node does not reach the level
            };
            let curr_s = pred_edge.load(Ordering::Acquire, guard);
            if curr_s.is_null() {
                break curr_s;
            }
            // Towers only: whether level 0 needs the same guard is F4 (b)'s
            // open question.
            #[cfg(debug_assertions)]
            if level > 0 {
                assert_not_retired(pred, pred_edge, curr_s, guard);
            }
            if matches!(walk.stop, Stop::Before(t) if t == curr_s) {
                break curr_s;
            }
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let curr = unsafe { curr_s.deref() };
            if level == 0 {
                // `curr`'s cache line was the miss we just paid. Before the
                // branchy checks and the key comparison on it, start
                // pulling in the two lines the walk touches right after:
                // `curr`'s own successor (the following hop) and `curr`'s
                // head revision (what the caller reads once the walk stops
                // here). Both pointers live in the line we already hold, so
                // the loads are free and the misses overlap the comparison.
                prefetch_read(curr.next.load(Ordering::Relaxed, guard).as_raw());
                prefetch_read(curr.head.load(Ordering::Relaxed, guard).as_raw());
                if curr.is_temp_split() {
                    self.help_temp_split_node(at.pred, curr_s, guard);
                    continue; // re-read the edge
                }
            } else {
                #[cfg(feature = "perf-counters")]
                {
                    at.hops += 1;
                }
                // While the key comparison below is in flight, start
                // pulling in the (separately boxed) tower array we will
                // read next if we advance — `curr.tower[level - 1]` on
                // the next iteration, `curr.tower[level - 2]` after a
                // descend. One hop of pointer-chase latency hidden per
                // advance (the "Foresight" overlap).
                if let Some(slot) = curr.tower.get(level.saturating_sub(2)) {
                    prefetch_read(slot as *const _);
                }
            }
            let unlink = matches!(walk.stop, Stop::Unlink(t) if t == curr_s);
            if unlink || (walk.dead == Dead::Snip && curr.is_terminated()) {
                // Never from a temp: the walk never stands on one.
                let succ =
                    edge(curr, level).map_or(Shared::null(), |e| e.load(Ordering::Acquire, guard));
                // A tower snip only: the F4 replay counts on which snips
                // reach the probe.
                #[cfg(feature = "audit-sched")]
                if level > 0 {
                    jiffy_audit::sched::probe("list::unlink-edge");
                }
                let snipped = pred_edge
                    .compare_exchange(curr_s, succ, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok();
                if !unlink {
                    continue; // re-read the edge
                }
                break if snipped { succ } else { curr_s };
            }
            if walk.dead == Dead::Stop && curr.is_terminated() {
                break curr_s;
            }
            let advance = match &curr.key {
                NodeKey::NegInf => true,
                NodeKey::Key(k) if walk.strict => k < key,
                NodeKey::Key(k) => k <= key,
            };
            if !advance {
                break curr_s;
            }
            #[cfg(feature = "perf-counters")]
            if level == 0 {
                at.hops += 1;
            }
            at.pred = curr_s;
        };
    }
}

/// The F4 tripwire (debug builds): panics when `curr_s`, just loaded from
/// `pred`'s tower `edge`, is a retired node that a live `pred` still
/// links. Merge cleanup retires a node only after unlinking it from every
/// level, so such an edge was made or kept after the retirement, and a
/// thread that pins later can follow it into freed memory. An edge out of
/// a *terminated* `pred` is not flagged: only walkers that reached `pred`
/// before it was unlinked can follow it, and their pins predate the
/// retirement.
#[cfg(debug_assertions)]
fn assert_not_retired<K, V>(
    pred: &Node<K, V>,
    edge: &Atomic<Node<K, V>>,
    curr_s: Shared<'_, Node<K, V>>,
    guard: &Guard,
) {
    // SAFETY: non-null and reached under the enclosing pin guard;
    // EBR defers reclamation of epoch-reachable nodes until unpin.
    let curr = unsafe { curr_s.deref() };
    if curr.retired.load(Ordering::Acquire)
        && edge.load(Ordering::Acquire, guard) == curr_s
        && !pred.is_terminated()
    {
        panic!("F4: a tower walk reached a retired node through a live edge");
    }
}

#[cfg(test)]
mod tests {
    use crossbeam_epoch::Owned;
    use jiffy_clock::AtomicClock;

    use super::*;
    use crate::config::JiffyConfig;
    use crate::node::Revision;

    type Inner = JiffyInner<u64, u64, AtomicClock>;

    fn inner() -> Inner {
        JiffyInner::new(AtomicClock::new(), JiffyConfig::default())
    }

    /// A node with key `key` and `height - 1` tower slots, not yet linked
    /// anywhere. The map's teardown frees it once it is on level 0.
    fn node<'g>(key: u64, height: usize, guard: &'g Guard) -> Shared<'g, Node<u64, u64>> {
        let mut n = Node::new_normal(NodeKey::Key(key), height);
        n.head = Atomic::new(Revision::initial());
        Owned::new(n).into_shared(guard)
    }

    fn terminate(n: Shared<'_, Node<u64, u64>>) {
        // SAFETY: test-built nodes, alive until the map drops.
        unsafe { n.deref() }.terminated.store(true, Ordering::SeqCst);
    }

    /// Chain `nodes` after the base node on level 0, in order.
    fn chain<'g>(m: &Inner, nodes: &[Shared<'g, Node<u64, u64>>], guard: &'g Guard) {
        let mut pred_s = m.base_node(guard);
        for &n in nodes {
            // SAFETY: test-built nodes, alive until the map drops.
            unsafe { pred_s.deref() }.next.store(n, Ordering::Release);
            pred_s = n;
        }
    }

    /// Every node reachable at `level` (0: the `next` chain), base excluded.
    fn level_list<'g>(
        m: &Inner,
        level: usize,
        guard: &'g Guard,
    ) -> Vec<Shared<'g, Node<u64, u64>>> {
        let mut out = Vec::new();
        let mut n_s = m.base_node(guard);
        loop {
            // SAFETY: test-built nodes, alive until the map drops.
            let n = unsafe { n_s.deref() };
            n_s = edge(n, level).map_or(Shared::null(), |e| e.load(Ordering::Acquire, guard));
            if n_s.is_null() {
                return out;
            }
            out.push(n_s);
        }
    }

    #[test]
    fn find_pred_stops_strictly_below_the_key_find_node_for_key_lands_on() {
        let m = inner();
        let guard = &crossbeam_epoch::pin();
        let nodes = [node(10, 3, guard), node(20, 2, guard), node(30, 1, guard)];
        chain(&m, &nodes, guard);
        for &n in &nodes {
            m.link_tower(n, guard);
        }
        let [n10, n20, n30] = nodes;
        assert_eq!(m.find_node_for_key(&20, guard), n20);
        assert_eq!(m.find_node_for_key(&25, guard), n20);
        assert_eq!(m.find_node_for_key(&5, guard), m.base_node(guard));
        assert_eq!(m.find_pred(n20, guard), Some(n10));
        assert_eq!(m.find_pred(n30, guard), Some(n20));
        assert_eq!(m.find_pred(n10, guard), Some(m.base_node(guard)));
        // A terminated target is snipped off level 0, not returned.
        terminate(n20);
        assert_eq!(m.find_pred(n20, guard), None);
        assert_eq!(level_list(&m, 0, guard), vec![n10, n30]);
        // Put it back so the map's teardown frees it.
        chain(&m, &nodes, guard);
    }

    /// Hops: a tower level counts every successor it loads, level 0 every
    /// node it steps onto; `find_pred` reports only its tower hops.
    #[cfg(feature = "perf-counters")]
    #[test]
    fn descents_count_hops_where_they_always_did() {
        let m = inner();
        let guard = &crossbeam_epoch::pin();
        let nodes = [node(10, 3, guard), node(20, 2, guard), node(30, 1, guard)];
        chain(&m, &nodes, guard);
        for &n in &nodes {
            m.link_tower(n, guard);
        }
        fn hops<T>(f: impl FnOnce() -> T) -> (u64, u64) {
            crate::counters::take();
            let _ = f();
            let c = crate::counters::take();
            (c.descents, c.nodes_visited)
        }
        // Level 2 loads 10, level 1 loads 20, level 0 steps onto 30.
        assert_eq!(hops(|| m.find_node_for_key(&35, guard)), (1, 3));
        // As above, but level 0 stops in front of 30.
        assert_eq!(hops(|| m.find_node_for_key(&25, guard)), (1, 2));
        // Levels 2 and 1 each load 10 and stop in front of it.
        assert_eq!(hops(|| m.find_node_for_key(&5, guard)), (1, 2));
        assert_eq!(hops(|| m.find_pred(nodes[2], guard)), (0, 2));
    }

    #[test]
    fn tower_position_skips_the_node_being_linked() {
        let m = inner();
        let guard = &crossbeam_epoch::pin();
        let nodes = [node(10, 2, guard), node(20, 4, guard), node(30, 4, guard)];
        chain(&m, &nodes, guard);
        for &n in &nodes {
            m.link_tower(n, guard);
        }
        let [n10, n20, n30] = nodes;
        assert_eq!(level_list(&m, 1, guard), vec![n10, n20, n30]);
        assert_eq!(level_list(&m, 3, guard), vec![n20, n30]);
        // Asked for a slot at a level it already holds, the walk stops in
        // front of the node rather than standing on it — also once the
        // node is terminated, which the walk would otherwise snip.
        for terminated in [false, true] {
            if terminated {
                terminate(n20);
            }
            assert_eq!(m.tower_position(&20, 1, n20, guard), (n10, n20));
            assert_eq!(m.tower_position(&20, 3, n20, guard), (m.base_node(guard), n20));
            assert_eq!(level_list(&m, 1, guard), vec![n10, n20, n30]);
        }
    }

    #[test]
    fn unlink_tower_removes_a_node_from_every_level_even_behind_an_equal_key() {
        let m = inner();
        let guard = &crossbeam_epoch::pin();
        // `old` and `new` share key 20, `old` in front: linking `new` first
        // and `old` second puts `old` ahead (a strict walk stops in front
        // of an equal key).
        let (n10, old, new, n30) =
            (node(10, 2, guard), node(20, 3, guard), node(20, 3, guard), node(30, 3, guard));
        chain(&m, &[n10, old, new, n30], guard);
        for n in [n10, new, old, n30] {
            m.link_tower(n, guard);
        }
        assert_eq!(level_list(&m, 1, guard), vec![n10, old, new, n30]);
        assert_eq!(level_list(&m, 2, guard), vec![old, new, n30]);
        // Both terminated: the unlinker stands on `old` (it does not snip
        // other dead nodes) and still finds `new` behind it.
        terminate(old);
        terminate(new);
        m.unlink_tower(new, guard);
        assert_eq!(level_list(&m, 1, guard), vec![n10, old, n30]);
        assert_eq!(level_list(&m, 2, guard), vec![old, n30]);
        // Unlinking a node that no level holds is a no-op.
        m.unlink_tower(new, guard);
        assert_eq!(level_list(&m, 1, guard), vec![n10, old, n30]);
    }
}
