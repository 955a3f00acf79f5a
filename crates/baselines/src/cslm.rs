//! A lock-free concurrent skip list in the style of Java's
//! `ConcurrentSkipListMap` (the paper's "Java CSLM" baseline).
//!
//! Characteristics reproduced from the original:
//!
//! * single-key `put`/`remove`/`get` are linearizable and lock-free;
//! * updates happen *in place* — one CAS swaps the value pointer, no
//!   multiversioning (which is why its plain updates beat Jiffy's
//!   two-CAS updates in the paper's write-only scenario);
//! * range scans are **not** linearizable (they walk the live list), and
//!   batch updates are **not** atomic (applied op by op) — the paper
//!   includes CSLM "for reference" precisely because it lacks both.
//!
//! Simplification (documented in DESIGN.md §2): deletion is a *logical*
//! tombstone — the value pointer is CAS'd to null (the linearization
//! point, as in CSLM) — and node shells are reused on re-insert instead
//! of being physically unlinked. Structure size is therefore bounded by
//! the touched key space rather than the live key count, which is
//! identical for the paper's fixed-key-space benchmarks and sidesteps
//! the full Harris unlink/reclamation protocol that CSLM implements.

use std::sync::atomic::Ordering;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Owned, Shared};
use index_api::{Batch, BatchOp, OrderedIndex};

const MAX_HEIGHT: usize = 20;

struct Node<K, V> {
    /// `None` only for the head sentinel (= -inf).
    key: Option<K>,
    /// Null = tombstone (key absent).
    value: Atomic<V>,
    /// `levels[0]` is the authoritative level-0 successor; higher slots
    /// are best-effort index shortcuts.
    levels: Box<[Atomic<Node<K, V>>]>,
}

impl<K, V> Node<K, V> {
    fn height(&self) -> usize {
        self.levels.len()
    }
}

/// Lock-free skip list map (see module docs).
pub struct Cslm<K, V> {
    head: Atomic<Node<K, V>>,
}

// SAFETY: shared state behind atomics; K/V bounds on the impls.
unsafe impl<K: Send + Sync, V: Send + Sync> Send for Cslm<K, V> {}
unsafe impl<K: Send + Sync, V: Send + Sync> Sync for Cslm<K, V> {}

thread_local! {
    static RNG: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

fn random_height() -> usize {
    RNG.with(|s| {
        let mut x = s.get();
        if x == 0 {
            x = &x as *const _ as u64 | 1;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        s.set(x);
        ((x.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
    })
}

impl<K, V> Default for Cslm<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, V> Cslm<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    pub fn new() -> Self {
        Cslm {
            head: Atomic::new(Node {
                key: None,
                value: Atomic::null(),
                levels: (0..MAX_HEIGHT).map(|_| Atomic::null()).collect(),
            }),
        }
    }

    #[inline]
    fn head_node<'g>(&self, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.head.load(Ordering::Acquire, guard)
    }

    /// Per-level predecessors of `key` and the level-0 node at/after it.
    /// All nodes participate in routing (tombstones carry valid keys).
    #[allow(clippy::type_complexity)]
    fn find<'g>(
        &self,
        key: &K,
        guard: &'g Guard,
    ) -> (Vec<Shared<'g, Node<K, V>>>, Shared<'g, Node<K, V>>) {
        let mut preds = vec![Shared::null(); MAX_HEIGHT];
        let mut pred = self.head_node(guard);
        // The last successor read; after the level-0 pass (every node
        // has a level 0, so it always reads one) that is the node the
        // walk *compared* as `>= key`, or null. It must be this one and
        // not a fresh read of `preds[0].levels[0]`: a node inserted
        // between the two reads can carry a smaller key, and an insert
        // linked in front of it would break the list's order.
        let mut succ = Shared::null();
        for level in (0..MAX_HEIGHT).rev() {
            loop {
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let p = unsafe { pred.deref() };
                if level >= p.height() {
                    break;
                }
                succ = p.levels[level].load(Ordering::Acquire, guard);
                // SAFETY: if non-null, the pointee is kept alive by the
                // enclosing pin guard (EBR).
                let Some(c) = (unsafe { succ.as_ref() }) else { break };
                match c.key.as_ref().unwrap().cmp(key) {
                    std::cmp::Ordering::Less => pred = succ,
                    _ => break,
                }
            }
            preds[level] = pred;
        }
        (preds, succ)
    }

    /// Most recent value for `key` (linearizable: one atomic value read).
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = &epoch::pin();
        let (_, curr) = self.find(key, guard);
        // SAFETY: if non-null, the pointee is kept alive by the
        // enclosing pin guard (EBR).
        let c = unsafe { curr.as_ref() }?;
        if c.key.as_ref() != Some(key) {
            return None;
        }
        let v = c.value.load(Ordering::Acquire, guard);
        // SAFETY: if non-null, the pointee is kept alive by the
        // enclosing pin guard (EBR).
        unsafe { v.as_ref() }.cloned()
    }

    /// Insert or overwrite (in place, one CAS; resurrects tombstones).
    pub fn put(&self, key: K, value: V) {
        let guard = &epoch::pin();
        // The value travels as an epoch allocation so both paths can
        // reuse it across CAS retries without cloning.
        let mut val_owned = Owned::new(value);
        loop {
            let (preds, curr) = self.find(&key, guard);
            // SAFETY: if non-null, the pointee is kept alive by the
            // enclosing pin guard (EBR).
            if let Some(c) = unsafe { curr.as_ref() } {
                if c.key.as_ref() == Some(&key) {
                    // Overwrite (or resurrect a tombstone) in place.
                    let old = c.value.load(Ordering::Acquire, guard);
                    match c.value.compare_exchange(
                        old,
                        val_owned,
                        Ordering::AcqRel,
                        Ordering::Acquire,
                        guard,
                    ) {
                        Ok(_) => {
                            if !old.is_null() {
                                // SAFETY: unlinked from the structure above, so no new reader
                                // can reach it; already-pinned readers hold it until they unpin.
                                unsafe { guard.defer_destroy(old) };
                            }
                            return;
                        }
                        Err(e) => {
                            val_owned = e.new;
                            continue;
                        }
                    }
                }
            }
            // Fresh insert: move the value into the new node.
            let height = random_height();
            let node = Owned::new(Node {
                key: Some(key.clone()),
                value: Atomic::null(),
                levels: (0..height).map(|_| Atomic::null()).collect(),
            });
            node.value.store(val_owned, Ordering::Relaxed);
            node.levels[0].store(curr, Ordering::Relaxed);
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let pred0 = unsafe { preds[0].deref() };
            match pred0.levels[0].compare_exchange(
                curr,
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
                guard,
            ) {
                Ok(inserted) => {
                    self.link_upper(inserted, &preds, guard);
                    return;
                }
                Err(e) => {
                    // Take the value back out of the unpublished node.
                    let n = e.new;
                    let v = n.value.load(Ordering::Relaxed, guard);
                    // SAFETY: the CAS failed, so the node (and the value
                    // it holds) was never published — we still own both.
                    val_owned = unsafe { v.into_owned() };
                    drop(n);
                }
            }
        }
    }

    /// Best-effort index-level linking after a level-0 insert. Starts
    /// each level's walk from the predecessor recorded by `find` (nodes
    /// are never unlinked, so stale predecessors remain valid starting
    /// points — this keeps linking O(expected-constant) per level).
    fn link_upper<'g>(
        &self,
        node_s: Shared<'g, Node<K, V>>,
        hint: &[Shared<'g, Node<K, V>>],
        guard: &'g Guard,
    ) {
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let node = unsafe { node_s.deref() };
        let key = node.key.as_ref().unwrap();
        for level in 1..node.height() {
            loop {
                // Walk the level to the insertion point.
                let mut pred = hint
                    .get(level)
                    .copied()
                    // SAFETY: non-null and reached under the enclosing pin guard;
                    // EBR defers reclamation of epoch-reachable nodes until unpin.
                    .filter(|p| !p.is_null() && unsafe { p.deref() }.height() > level)
                    .unwrap_or_else(|| self.head_node(guard));
                let (pred, succ) = loop {
                    // SAFETY: non-null and reached under the enclosing pin guard;
                    // EBR defers reclamation of epoch-reachable nodes until unpin.
                    let p = unsafe { pred.deref() };
                    if level >= p.height() {
                        break (pred, Shared::null());
                    }
                    let curr = p.levels[level].load(Ordering::Acquire, guard);
                    // SAFETY: if non-null, the pointee is kept alive by the
                    // enclosing pin guard (EBR).
                    match unsafe { curr.as_ref() } {
                        Some(c) if curr != node_s && c.key.as_ref().unwrap() < key => {
                            pred = curr;
                        }
                        _ => break (pred, curr),
                    }
                };
                if succ == node_s {
                    return; // already linked here
                }
                // SAFETY: non-null and reached under the enclosing pin guard;
                // EBR defers reclamation of epoch-reachable nodes until unpin.
                let p = unsafe { pred.deref() };
                if level >= p.height() {
                    return; // shorter path; give up this level
                }
                node.levels[level].store(succ, Ordering::Release);
                if p.levels[level]
                    .compare_exchange(succ, node_s, Ordering::AcqRel, Ordering::Acquire, guard)
                    .is_ok()
                {
                    break;
                }
            }
        }
    }

    /// Remove `key`; true if it was present. Linearizes at the value CAS
    /// to null (the node shell stays as a tombstone).
    pub fn remove(&self, key: &K) -> bool {
        let guard = &epoch::pin();
        loop {
            let (_, curr) = self.find(key, guard);
            // SAFETY: if non-null, the pointee is kept alive by the
            // enclosing pin guard (EBR).
            let Some(c) = (unsafe { curr.as_ref() }) else { return false };
            if c.key.as_ref() != Some(key) {
                return false;
            }
            let old = c.value.load(Ordering::Acquire, guard);
            if old.is_null() {
                return false; // already a tombstone
            }
            if c.value
                .compare_exchange(old, Shared::null(), Ordering::AcqRel, Ordering::Acquire, guard)
                .is_ok()
            {
                // SAFETY: unlinked from the structure above, so no new reader
                // can reach it; already-pinned readers hold it until they unpin.
                unsafe { guard.defer_destroy(old) };
                return true;
            }
        }
    }

    /// Walk up to `n` live entries with key `>= lo`. **Not** linearizable
    /// (weakly consistent, like CSLM iterators).
    pub fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        let guard = &epoch::pin();
        let (_, mut curr) = self.find(lo, guard);
        let mut emitted = 0usize;
        while emitted < n {
            // SAFETY: if non-null, the pointee is kept alive by the
            // enclosing pin guard (EBR).
            let Some(c) = (unsafe { curr.as_ref() }) else { break };
            let v = c.value.load(Ordering::Acquire, guard);
            // SAFETY: if non-null, the pointee is kept alive by the
            // enclosing pin guard (EBR).
            if let Some(v) = unsafe { v.as_ref() } {
                sink(c.key.as_ref().unwrap(), v);
                emitted += 1;
            }
            curr = c.levels[0].load(Ordering::Acquire, guard);
        }
    }

    /// Live entry count (O(n); test helper).
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        let guard = &epoch::pin();
        let mut curr =
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            unsafe { self.head_node(guard).deref() }.levels[0].load(Ordering::Acquire, guard);
        // SAFETY: if non-null, the pointee is kept alive by the
        // enclosing pin guard (EBR).
        while let Some(c) = unsafe { curr.as_ref() } {
            if !c.value.load(Ordering::Acquire, guard).is_null() {
                n += 1;
            }
            curr = c.levels[0].load(Ordering::Acquire, guard);
        }
        n
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K, V> Drop for Cslm<K, V> {
    fn drop(&mut self) {
        // Nothing is ever physically unlinked, so the level-0 chain is
        // complete: free every node and any live value.
        // SAFETY: exclusive access in Drop — nothing is ever physically
        // unlinked, so the level-0 chain owns every node and live value
        // exactly once.
        let guard = unsafe { epoch::unprotected() };
        unsafe {
            let head = self.head.load(Ordering::Relaxed, guard);
            let mut curr = head.deref().levels[0].load(Ordering::Relaxed, guard);
            while let Some(c) = curr.as_ref() {
                let next = c.levels[0].load(Ordering::Relaxed, guard);
                let v = c.value.load(Ordering::Relaxed, guard);
                if !v.is_null() {
                    drop(v.into_owned());
                }
                drop(curr.into_owned());
                curr = next;
            }
            drop(head.into_owned());
        }
    }
}

impl<K, V> OrderedIndex<K, V> for Cslm<K, V>
where
    K: Ord + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn get(&self, key: &K) -> Option<V> {
        Cslm::get(self, key)
    }

    fn put(&self, key: K, value: V) {
        Cslm::put(self, key, value)
    }

    fn remove(&self, key: &K) -> bool {
        Cslm::remove(self, key)
    }

    fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        Cslm::scan_from(self, lo, n, sink)
    }

    fn batch_update(&self, batch: Batch<K, V>) {
        // Not atomic: CSLM has no batch support; ops apply one by one.
        for op in batch.into_ops() {
            match op {
                BatchOp::Put(k, v) => self.put(k, v),
                BatchOp::Remove(k) => {
                    self.remove(&k);
                }
            }
        }
    }

    fn supports_consistent_scan(&self) -> bool {
        false
    }

    fn supports_atomic_batch(&self) -> bool {
        false
    }

    fn name(&self) -> &'static str {
        "cslm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;
    use std::sync::Arc;

    #[test]
    fn basic() {
        let m: Cslm<u64, u64> = Cslm::new();
        assert_eq!(m.get(&1), None);
        m.put(1, 10);
        m.put(2, 20);
        m.put(1, 11);
        assert_eq!(m.get(&1), Some(11));
        assert_eq!(m.get(&2), Some(20));
        assert!(m.remove(&1));
        assert!(!m.remove(&1));
        assert_eq!(m.get(&1), None);
        assert_eq!(m.len(), 1);
        // Resurrection through a tombstone.
        m.put(1, 12);
        assert_eq!(m.get(&1), Some(12));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn matches_btreemap() {
        let m: Cslm<u64, u64> = Cslm::new();
        let mut model = BTreeMap::new();
        let mut seed = 4242u64;
        for i in 0..10_000u64 {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            let k = seed % 256;
            if seed & 3 == 0 {
                assert_eq!(m.remove(&k), model.remove(&k).is_some(), "remove {k} @ {i}");
            } else {
                m.put(k, i);
                model.insert(k, i);
            }
        }
        for k in 0..256 {
            assert_eq!(m.get(&k), model.get(&k).copied(), "get {k}");
        }
        let mut scanned = vec![];
        m.scan_from(&0, usize::MAX, &mut |k, v| scanned.push((*k, *v)));
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(scanned, want);
    }

    #[test]
    fn concurrent_inserts() {
        let m: Arc<Cslm<u64, u64>> = Arc::new(Cslm::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..2000 {
                        m.put(t * 2000 + i, i);
                    }
                });
            }
        });
        assert_eq!(m.len(), 8000);
        for k in (0..8000).step_by(97) {
            assert!(m.get(&k).is_some(), "key {k}");
        }
    }

    #[test]
    fn concurrent_churn() {
        let m: Arc<Cslm<u64, u64>> = Arc::new(Cslm::new());
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                let stop = &stop;
                s.spawn(move || {
                    let mut seed = t + 1;
                    while !stop.load(Ordering::Relaxed) {
                        seed ^= seed << 13;
                        seed ^= seed >> 7;
                        seed ^= seed << 17;
                        let k = seed % 128;
                        if seed & 1 == 0 {
                            m.put(k, seed);
                        } else {
                            m.remove(&k);
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
            stop.store(true, Ordering::Relaxed);
        });
        // Structure intact: sorted scan.
        let mut keys = vec![];
        m.scan_from(&0, usize::MAX, &mut |k, _| keys.push(*k));
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn insert_race_no_duplicates() {
        // Many threads inserting the same keys: the list must stay
        // duplicate-free.
        let m: Arc<Cslm<u64, u64>> = Arc::new(Cslm::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = &m;
                s.spawn(move || {
                    for i in 0..1000 {
                        m.put(i % 64, t);
                    }
                });
            }
        });
        let mut keys = vec![];
        m.scan_from(&0, usize::MAX, &mut |k, _| keys.push(*k));
        assert_eq!(keys, (0..64).collect::<Vec<u64>>());
    }
}
