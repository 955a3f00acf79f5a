//! The common ordered-index interface used by the benchmark harness and the
//! cross-index conformance tests.
//!
//! The paper (§4.2) drives eight different indices through one
//! microbenchmark; this crate is the Rust equivalent of that shared
//! surface: `get` / `put` / `remove` / range scan / batch update. Indices
//! that do not support consistent scans or atomic batches (e.g. the
//! `ConcurrentSkipListMap` baseline) still implement the methods with their
//! native, weaker semantics and advertise that through
//! [`OrderedIndex::supports_consistent_scan`] /
//! [`OrderedIndex::supports_atomic_batch`], exactly as the paper notes that
//! Java CSLM "does not support either consistent range scans nor atomic
//! batch updates".
//!
//! Beyond the core surface, the [`BulkLoad`] capability trait covers
//! efficient pre-loading (the workhorse of snapshot-assisted shard
//! migration and of recovery). Both traits are also implemented for
//! `Arc<T>` (shared handles), so a server, a durability layer and a
//! benchmark can hold the *same* index instance at once.

#![warn(missing_docs)]

/// One operation inside a batch update.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BatchOp<K, V> {
    /// Insert or overwrite `key` with `value`.
    Put(K, V),
    /// Delete `key` (a no-op if absent, but — per paper §3.3.3 item 5 — an
    /// *observable* no-op: it must still order against concurrent batches).
    Remove(K),
}

impl<K, V> BatchOp<K, V> {
    /// The key this operation touches.
    pub fn key(&self) -> &K {
        match self {
            BatchOp::Put(k, _) => k,
            BatchOp::Remove(k) => k,
        }
    }
}

/// A sorted, deduplicated batch of update operations.
///
/// The paper's batch update is a *set* of put/remove operations executed
/// atomically; keys inside one batch are unique (a batch maps each key to
/// one final outcome). `Batch::new` sorts and deduplicates (last write to a
/// key wins) so every index receives a canonical form.
#[derive(Clone, Debug)]
pub struct Batch<K, V> {
    ops: Vec<BatchOp<K, V>>,
}

impl<K: Ord, V> Batch<K, V> {
    /// Build a canonical batch: ops sorted by key ascending, one op per key
    /// (the last occurrence in `ops` wins, like repeated map writes).
    pub fn new(mut ops: Vec<BatchOp<K, V>>) -> Self {
        // Stable sort, then keep the last op for each key.
        ops.reverse();
        ops.sort_by(|a, b| a.key().cmp(b.key()));
        ops.dedup_by(|next, first| next.key() == first.key());
        Batch { ops }
    }

    /// Ops sorted by key, ascending.
    pub fn ops(&self) -> &[BatchOp<K, V>] {
        &self.ops
    }

    /// Number of operations in the canonical batch (one per distinct key).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the batch contains no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consume the batch, yielding its ops sorted by key, ascending.
    pub fn into_ops(self) -> Vec<BatchOp<K, V>> {
        self.ops
    }
}

/// A concurrent ordered key-value map ("ordered index" in the paper).
///
/// All methods take `&self`: implementations synchronize internally and are
/// shared across threads by reference (`&T` / `Arc<T>`).
pub trait OrderedIndex<K: Ord + Clone, V: Clone>: Send + Sync {
    /// Get the most recent value for `key`.
    fn get(&self, key: &K) -> Option<V>;

    /// Insert or overwrite `key`.
    fn put(&self, key: K, value: V);

    /// Remove `key`. Returns `true` if the key was present.
    fn remove(&self, key: &K) -> bool;

    /// Visit up to `n` entries with key `>= lo`, in ascending key order.
    /// Consistency is implementation-defined; see
    /// [`supports_consistent_scan`](OrderedIndex::supports_consistent_scan).
    fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V));

    /// Apply a batch of updates. Atomicity is implementation-defined; see
    /// [`supports_atomic_batch`](OrderedIndex::supports_atomic_batch).
    fn batch_update(&self, batch: Batch<K, V>);

    /// Whether `scan_from` observes a single linearizable snapshot.
    fn supports_consistent_scan(&self) -> bool {
        true
    }

    /// Whether `batch_update` is atomic (all-or-nothing to readers).
    fn supports_atomic_batch(&self) -> bool {
        true
    }

    /// Short, stable identifier used in benchmark tables ("jiffy",
    /// "ca-avl", ...).
    fn name(&self) -> &'static str;

    /// Visit up to `n` entries with key `>= lo`, ascending, as *runs*:
    /// each call of `sink` receives a slice of consecutive keys and the
    /// equally long slice of their values. An index that stores entries
    /// contiguously (Jiffy's revisions) overrides this to hand its arrays
    /// out without a per-entry call; the default adapts
    /// [`scan_from`](OrderedIndex::scan_from) with one-element runs, so
    /// every index supports it.
    ///
    /// The run contract: no run is empty; keys ascend strictly within a
    /// run and from one run to the next; the runs total at most `n`
    /// entries. The slices are borrowed **for the duration of the sink
    /// call only** — they may point into memory the index reclaims once
    /// the scan moves on, and the sink's higher-ranked signature
    /// (`for<'r> FnMut(&'r [K], &'r [V])`) makes keeping one a compile
    /// error; clone what must outlive the call. Consistency is that of
    /// `scan_from`.
    fn scan_runs(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&[K], &[V])) {
        self.scan_from(lo, n, &mut |k, v| sink(std::slice::from_ref(k), std::slice::from_ref(v)));
    }

    /// Collect up to `n` entries from `lo` into a vector, through
    /// [`scan_runs`](OrderedIndex::scan_runs). `n` is a limit, not a
    /// size: it may come from an untrusted caller, so the pre-allocation
    /// it buys is capped and the vector grows with what the scan finds.
    fn scan_collect(&self, lo: &K, n: usize) -> Vec<(K, V)> {
        let mut out = Vec::with_capacity(n.min(1024));
        self.scan_runs(lo, n, &mut |ks, vs| out.extend(ks.iter().cloned().zip(vs.iter().cloned())));
        out
    }

    /// Internal-structure telemetry for autoscale/reshard policy, if the
    /// index exposes any (Jiffy's §3.3.6 revision-size signal). `None`
    /// for indices without versioned revisions — callers must treat the
    /// signal as advisory, not assume it.
    fn revision_stats(&self) -> Option<RevisionStats> {
        None
    }
}

/// Revision-structure telemetry reported by
/// [`revision_stats`](OrderedIndex::revision_stats): how large the
/// multi-entry revisions backing the index have grown. This is the
/// §3.3.6 signal an autoscaler steers on, aggregated so a sharding layer
/// can compare shards (integer fields keep it `Eq`/hashable; the derived
/// mean is a method).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RevisionStats {
    /// Live structure nodes, each owning one revision list.
    pub nodes: u64,
    /// Entries summed over the newest finalized revision of each node.
    pub entries: u64,
    /// Deepest revision list observed.
    pub max_revision_depth: u64,
}

impl RevisionStats {
    /// Mean entries per head revision — the quantity the §3.3.6 policy
    /// adjusts (small under write-heavy load, large under read-heavy).
    pub fn mean_revision_size(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.entries as f64 / self.nodes as f64
        }
    }

    /// Elementwise accumulation (sum nodes/entries, max depth) for
    /// cross-shard aggregation.
    pub fn merge(&mut self, other: &RevisionStats) {
        self.nodes += other.nodes;
        self.entries += other.entries;
        self.max_revision_depth = self.max_revision_depth.max(other.max_revision_depth);
    }
}

/// Capability trait for indices that can ingest a large entry set more
/// cheaply than one `put` per key. The contract is deliberately loose —
/// entries may be applied in internal chunks and interleaved with
/// concurrent operations — because the primary consumer (`jiffy-shard`'s
/// online resharding) only bulk-loads into indices that are not yet
/// reachable by any reader: a migration copies a snapshot of the source
/// shard into freshly built target shards *before* publishing them, so
/// chunk boundaries are never observable.
///
/// Entries with duplicate keys resolve last-wins, like repeated `put`s.
pub trait BulkLoad<K: Ord + Clone, V: Clone>: OrderedIndex<K, V> {
    /// Load `entries` into the index.
    fn bulk_load(&self, entries: Vec<(K, V)>);
}

// --- Shared-handle (Arc) forwarding impls -------------------------------
//
// These blanket impls make `Arc<T>` a first-class index, so the layers
// above a map (`jiffy-dur`, `jiffy-server`, the benchmark) can share one
// instance by handle. Every method is forwarded, provided ones included:
// a provided method left out would resolve to the trait default on the
// handle and silently bypass `T`'s override.

impl<K: Ord + Clone, V: Clone, T: OrderedIndex<K, V> + ?Sized> OrderedIndex<K, V>
    for std::sync::Arc<T>
{
    fn get(&self, key: &K) -> Option<V> {
        (**self).get(key)
    }

    fn put(&self, key: K, value: V) {
        (**self).put(key, value)
    }

    fn remove(&self, key: &K) -> bool {
        (**self).remove(key)
    }

    fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        (**self).scan_from(lo, n, sink)
    }

    fn scan_runs(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&[K], &[V])) {
        (**self).scan_runs(lo, n, sink)
    }

    fn scan_collect(&self, lo: &K, n: usize) -> Vec<(K, V)> {
        (**self).scan_collect(lo, n)
    }

    fn batch_update(&self, batch: Batch<K, V>) {
        (**self).batch_update(batch)
    }

    fn supports_consistent_scan(&self) -> bool {
        (**self).supports_consistent_scan()
    }

    fn supports_atomic_batch(&self) -> bool {
        (**self).supports_atomic_batch()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }

    fn revision_stats(&self) -> Option<RevisionStats> {
        (**self).revision_stats()
    }
}

impl<K: Ord + Clone, V: Clone, T: BulkLoad<K, V>> BulkLoad<K, V> for std::sync::Arc<T> {
    fn bulk_load(&self, entries: Vec<(K, V)>) {
        (**self).bulk_load(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// An index over the fixed entries `(0, 0), (1, 10), .. (9, 90)` that
    /// overrides both provided scan methods and counts how often each
    /// override runs.
    #[derive(Default)]
    struct Counting {
        runs: AtomicUsize,
        collects: AtomicUsize,
    }

    const KEYS: [u32; 10] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9];
    const VALS: [u32; 10] = [0, 10, 20, 30, 40, 50, 60, 70, 80, 90];

    impl OrderedIndex<u32, u32> for Counting {
        fn get(&self, key: &u32) -> Option<u32> {
            KEYS.binary_search(key).ok().map(|i| VALS[i])
        }
        fn put(&self, _: u32, _: u32) {}
        fn remove(&self, _: &u32) -> bool {
            false
        }
        fn scan_from(&self, lo: &u32, n: usize, sink: &mut dyn FnMut(&u32, &u32)) {
            for (k, v) in KEYS.iter().zip(&VALS).filter(|(k, _)| *k >= lo).take(n) {
                sink(k, v);
            }
        }
        fn scan_runs(&self, lo: &u32, n: usize, sink: &mut dyn FnMut(&[u32], &[u32])) {
            self.runs.fetch_add(1, Ordering::Relaxed);
            let start = KEYS.partition_point(|k| k < lo);
            let end = KEYS.len().min(start.saturating_add(n));
            if start < end {
                sink(&KEYS[start..end], &VALS[start..end]);
            }
        }
        fn scan_collect(&self, lo: &u32, n: usize) -> Vec<(u32, u32)> {
            self.collects.fetch_add(1, Ordering::Relaxed);
            let mut out = Vec::new();
            self.scan_from(lo, n, &mut |k, v| out.push((*k, *v)));
            out
        }
        fn batch_update(&self, _: Batch<u32, u32>) {}
        fn name(&self) -> &'static str {
            "counting"
        }
    }

    /// `Arc<T>` must forward the *provided* scan methods too: left to
    /// the trait defaults, a shared handle silently bypasses `T`'s
    /// overrides (and with them the run path).
    #[test]
    fn arc_forwards_scan_overrides() {
        let index = Arc::new(Counting::default());
        let seen = |counter: &AtomicUsize| counter.load(Ordering::Relaxed);
        let mut runs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        OrderedIndex::scan_runs(&index, &3, 4, &mut |ks, vs| runs.push((ks.into(), vs.into())));
        assert_eq!(runs, vec![(vec![3, 4, 5, 6], vec![30, 40, 50, 60])], "one whole run");
        assert_eq!(seen(&index.runs), 1, "scan_runs override bypassed");
        let got = OrderedIndex::scan_collect(&index, &8, usize::MAX);
        assert_eq!(got, vec![(8, 80), (9, 90)]);
        assert_eq!(seen(&index.collects), 1, "scan_collect override bypassed");
        // Through a type-erased handle as well.
        let erased: Arc<dyn OrderedIndex<u32, u32>> = index.clone();
        assert_eq!(erased.scan_collect(&0, 1), vec![(0, 0)]);
        assert_eq!(seen(&index.collects), 2);
    }

    /// The defaults compose: `scan_collect` → `scan_runs` → `scan_from`,
    /// one-entry runs, limit honoured, and a huge limit is a limit — not
    /// an allocation.
    #[test]
    fn default_scan_runs_adapts_scan_from() {
        struct Plain;
        impl OrderedIndex<u32, u32> for Plain {
            fn get(&self, _: &u32) -> Option<u32> {
                None
            }
            fn put(&self, _: u32, _: u32) {}
            fn remove(&self, _: &u32) -> bool {
                false
            }
            fn scan_from(&self, lo: &u32, n: usize, sink: &mut dyn FnMut(&u32, &u32)) {
                Counting::default().scan_from(lo, n, sink)
            }
            fn batch_update(&self, _: Batch<u32, u32>) {}
            fn name(&self) -> &'static str {
                "plain"
            }
        }
        let mut runs: Vec<(Vec<u32>, Vec<u32>)> = Vec::new();
        Plain.scan_runs(&7, 2, &mut |ks, vs| runs.push((ks.into(), vs.into())));
        assert_eq!(runs, vec![(vec![7], vec![70]), (vec![8], vec![80])]);
        let all = Plain.scan_collect(&0, usize::MAX);
        assert_eq!(all.len(), 10);
        assert!(all.capacity() <= 1024, "a limit sized an allocation: {}", all.capacity());
    }

    #[test]
    fn batch_sorts_and_dedups_last_wins() {
        let b = Batch::new(vec![
            BatchOp::Put(3u32, "a"),
            BatchOp::Put(1, "b"),
            BatchOp::Put(3, "c"),
            BatchOp::Remove(2),
        ]);
        assert_eq!(b.len(), 3);
        assert_eq!(b.ops(), &[BatchOp::Put(1, "b"), BatchOp::Remove(2), BatchOp::Put(3, "c")]);
    }

    #[test]
    fn batch_empty() {
        let b: Batch<u32, u32> = Batch::new(vec![]);
        assert!(b.is_empty());
        assert_eq!(b.len(), 0);
    }

    #[test]
    fn batch_single_key_many_writes() {
        let b = Batch::new(vec![BatchOp::Put(7u32, 1u32), BatchOp::Remove(7), BatchOp::Put(7, 3)]);
        assert_eq!(b.ops(), &[BatchOp::Put(7, 3)]);
    }

    #[test]
    fn batch_op_key_accessor() {
        assert_eq!(*BatchOp::Put(5u32, ()).key(), 5);
        assert_eq!(*BatchOp::<u32, ()>::Remove(9).key(), 9);
    }
}
