//! The public `JiffyMap` API.

use std::fmt;
use std::sync::atomic::Ordering;

use jiffy_clock::{DefaultClock, VersionClock};

use crate::config::JiffyConfig;
use crate::inner::{JiffyInner, MapKey, MapValue};
use crate::locate::Seek;
use crate::snapshot::SnapSlot;

/// A lock-free, linearizable ordered key-value map with atomic batch
/// updates and consistent snapshots — the Rust reproduction of *Jiffy*
/// (Kobus, Kokociński, Wojciechowski; PPoPP 2022).
///
/// All operations take `&self` and may be called from any number of
/// threads concurrently (share the map via `Arc` or scoped borrows).
///
/// ```
/// use jiffy::JiffyMap;
///
/// let map = JiffyMap::new();
/// map.put(3, "three");
/// map.put(1, "one");
/// assert_eq!(map.get(&3), Some("three"));
///
/// // Atomic multi-key update:
/// map.batch(jiffy::Batch::new(vec![
///     jiffy::BatchOp::Put(2, "two"),
///     jiffy::BatchOp::Remove(1),
/// ]));
///
/// // Consistent snapshot + range scan:
/// let snap = map.snapshot();
/// let keys: Vec<i32> = snap.range(&0, usize::MAX).into_iter().map(|(k, _)| k).collect();
/// assert_eq!(keys, vec![2, 3]);
/// ```
pub struct JiffyMap<K, V, C: VersionClock = DefaultClock> {
    pub(crate) inner: JiffyInner<K, V, C>,
}

impl<K: MapKey, V: MapValue> JiffyMap<K, V, DefaultClock> {
    /// An empty map with the default configuration and clock.
    pub fn new() -> Self {
        Self::with_config(JiffyConfig::default())
    }

    /// An empty map with a custom configuration.
    pub fn with_config(config: JiffyConfig) -> Self {
        Self::with_clock_and_config(DefaultClock::default(), config)
    }
}

impl<K: MapKey, V: MapValue> Default for JiffyMap<K, V, DefaultClock> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyMap<K, V, C> {
    /// An empty map with a custom version clock (used by the clock
    /// ablation benchmarks; see [`jiffy_clock`]).
    pub fn with_clock_and_config(clock: C, config: JiffyConfig) -> Self {
        JiffyMap { inner: JiffyInner::new(clock, config) }
    }

    /// Insert or overwrite; returns the previous value if any.
    pub fn put(&self, key: K, value: V) -> Option<V> {
        self.inner.put(key, value)
    }

    /// Remove; returns the previous value if the key was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.inner.remove(key)
    }

    /// The most recent value for `key`.
    pub fn get(&self, key: &K) -> Option<V> {
        self.inner.get(key)
    }

    /// Whether `key` is currently present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// Apply a batch of put/remove operations atomically: readers (and
    /// snapshots) observe either none or all of them.
    pub fn batch(&self, batch: index_api::Batch<K, V>) {
        self.inner.batch_update(batch.into_ops());
    }

    /// Acquire a consistent snapshot of the map. O(1); never blocks or
    /// slows down concurrent updates (§3.3.4). The snapshot pins history:
    /// hold it only as long as needed, or [`Snapshot::refresh`] it.
    pub fn snapshot(&self) -> Snapshot<'_, K, V, C> {
        // Clamp up to the published GC floor: the revision GC has
        // already reclaimed below it, so registering any lower would
        // read into freed history. With a healthy clock the clamp is a
        // no-op (the floor is derived from past clock reads); it is the
        // backstop that keeps snapshots memory-safe even if the clock
        // misbehaves (e.g. a cross-CPU TSC skew window, see
        // `jiffy_clock`'s `normalize_tsc`).
        let floor = self.inner.gc_floor();
        let v0 = (self.inner.clock.now() as i64).max(floor);
        let slot = self.inner.snapshots.register(v0);
        // Re-read after the registration is visible so the GC can never
        // have cut past our version (§3.3.4's "refresh immediately").
        let version = (self.inner.clock.now() as i64).max(v0);
        slot.refresh(version);
        Snapshot { map: self, slot, version }
    }

    /// Visit up to `n` entries with key `>= lo` (ascending) from a fresh
    /// snapshot. Convenience for [`Snapshot::scan_from`].
    pub fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        self.snapshot().scan_from(lo, n, sink)
    }

    /// Approximate number of entries (maintained with relaxed counters;
    /// exact under quiescence, drift-free but unordered under contention).
    pub fn len_approx(&self) -> usize {
        self.inner.len_estimate().max(0) as usize
    }

    /// Whether the map is (approximately) empty.
    pub fn is_empty_approx(&self) -> bool {
        self.len_approx() == 0
    }

    /// Structural telemetry for experiments: `(nodes, entries,
    /// mean_head_revision_size, max_revision_list_depth)`.
    pub fn debug_stats(&self) -> MapStats {
        let guard = &crossbeam_epoch::pin();
        let mut nodes = 0usize;
        let mut entries = 0usize;
        let mut depth_max = 0usize;
        let mut node_s = self.inner.base_node(guard);
        while !node_s.is_null() {
            // SAFETY: non-null and reached under the enclosing pin guard;
            // EBR defers reclamation of epoch-reachable nodes until unpin.
            let node = unsafe { node_s.deref() };
            let next = node.next.load(Ordering::Acquire, guard);
            if !node.is_terminated() && !node.is_temp_split() {
                nodes += 1;
                let mut rev_s = node.head.load(Ordering::Acquire, guard);
                let mut depth = 0usize;
                let mut first_len: Option<usize> = None;
                while !rev_s.is_null() && depth < 64 {
                    // SAFETY: non-null and reached under the enclosing pin guard;
                    // EBR defers reclamation of epoch-reachable nodes until unpin.
                    let rev = unsafe { rev_s.deref() };
                    if first_len.is_none() && rev.version() >= 0 {
                        first_len = Some(rev.data.len());
                    }
                    depth += 1;
                    // Follow *owning* edges only. Right-split revisions and
                    // merge terminators duplicate a `next` edge owned by
                    // another node's spine (see `node.rs`); once the GC floor
                    // passes the branch point that spine is cut and the
                    // duplicate dangles. Version-checked readers never descend
                    // it, and this unversioned walk must not either.
                    if !rev.owns_next() {
                        break;
                    }
                    rev_s = rev.next.load(Ordering::Acquire, guard);
                }
                entries += first_len.unwrap_or(0);
                depth_max = depth_max.max(depth);
            }
            node_s = next;
        }
        MapStats {
            nodes,
            entries,
            mean_revision_size: if nodes > 0 { entries as f64 / nodes as f64 } else { 0.0 },
            max_revision_depth: depth_max,
        }
    }

    /// [`debug_stats`](JiffyMap::debug_stats) folded into the shared
    /// observability gauge type, ready for
    /// [`jiffy_obs::ObsSnapshot::add_structure`].
    pub fn obs_stats(&self, label: &str) -> jiffy_obs::StructureStats {
        let s = self.debug_stats();
        jiffy_obs::StructureStats {
            label: label.to_string(),
            nodes: s.nodes as u64,
            entries: s.entries as u64,
            mean_revision_size: s.mean_revision_size,
            max_revision_depth: s.max_revision_depth as u64,
            shards: Vec::new(),
        }
    }
}

/// Structural statistics returned by [`JiffyMap::debug_stats`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MapStats {
    /// Live skip-list nodes (including the base node).
    pub nodes: usize,
    /// Entries summed over the newest finalized revision of each node.
    pub entries: usize,
    /// `entries / nodes` — the quantity the §3.3.6 policy steers.
    pub mean_revision_size: f64,
    /// Deepest revision list observed. With no live snapshot that is 1
    /// after a put or remove and 2 after a batch group (whose head is
    /// still pending when its cut runs); lists grow deeper only under a
    /// live snapshot, which pins the revision it reads and every newer
    /// one. The paper says "at most 3-4 revisions at a time, and usually
    /// only 2" (§3.3.4); this index keeps fewer because each cut
    /// refreshes the GC floor it needs (see `gc.rs`).
    pub max_revision_depth: usize,
}

impl<K: MapKey, V: MapValue, C: VersionClock> fmt::Debug for JiffyMap<K, V, C> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JiffyMap").field("len_approx", &self.len_approx()).finish()
    }
}

/// A consistent, read-only view of a [`JiffyMap`] at one instant.
///
/// Acquiring a snapshot is O(1) and wait-free; it never blocks updates.
/// While held, it pins history: the internal GC keeps every revision the
/// snapshot might read. Dropping (or [`refresh`](Snapshot::refresh)-ing)
/// releases that history.
pub struct Snapshot<'a, K: MapKey, V: MapValue, C: VersionClock> {
    map: &'a JiffyMap<K, V, C>,
    slot: &'a SnapSlot,
    version: i64,
}

impl<'a, K: MapKey, V: MapValue, C: VersionClock> Snapshot<'a, K, V, C> {
    /// The snapshot version (a clock reading; monotonically related to
    /// operation linearization order).
    pub fn version(&self) -> i64 {
        self.version
    }

    /// The value of `key` at this snapshot.
    pub fn get(&self, key: &K) -> Option<V> {
        self.map.inner.get_at(key, self.version)
    }

    /// Visit up to `n` entries with key `>= lo`, ascending, as *runs*:
    /// each call of `sink` receives a slice of consecutive keys and the
    /// equally long slice of their values — one revision's share of the
    /// scan, handed out without a per-entry call or copy. This is the
    /// fast way to read a range; every other scan method of this type is
    /// a thin consumer of it.
    ///
    /// The run contract: no run is empty; keys ascend strictly within a
    /// run and from one run to the next; the runs total at most `n`
    /// entries (the last one is truncated to fit). The slices point into
    /// a revision kept alive by the scan's epoch pin, so they are
    /// borrowed **for the duration of the sink call only** — the sink's
    /// higher-ranked signature (`for<'r> FnMut(&'r [K], &'r [V])`) makes
    /// storing one a compile error; clone what must outlive the call.
    ///
    /// ```
    /// let map = jiffy::JiffyMap::new();
    /// for k in 0..1000u64 {
    ///     map.put(k, k * 2);
    /// }
    /// let mut sum = 0u64;
    /// map.snapshot().scan_runs(&10, 500, &mut |keys, values| {
    ///     assert_eq!(keys.len(), values.len());
    ///     sum += values.iter().sum::<u64>();
    /// });
    /// assert_eq!(sum, (10..510u64).map(|k| k * 2).sum());
    /// ```
    pub fn scan_runs(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&[K], &[V])) {
        self.runs(Seek::Key(lo), None, n, sink)
    }

    /// The one scan every method below goes through: runs of
    /// `[from, hi)`, at most `n` entries in total.
    pub(crate) fn runs(
        &self,
        from: Seek<'_, K>,
        hi: Option<&K>,
        n: usize,
        sink: &mut dyn FnMut(&[K], &[V]),
    ) {
        if n == 0 {
            return;
        }
        let mut left = n;
        self.map.inner.scan(from, hi, self.version, &mut |keys, values| {
            let take = keys.len().min(left);
            sink(&keys[..take], &values[..take]);
            left -= take;
            left > 0
        });
    }

    /// Visit up to `n` entries with key `>= lo`, ascending, one at a
    /// time (an adapter over [`scan_runs`](Snapshot::scan_runs)).
    pub fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        self.scan_runs(lo, n, &mut per_entry(sink))
    }

    /// Collect up to `n` entries with key `>= lo`.
    pub fn range(&self, lo: &K, n: usize) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.scan_runs(lo, n, &mut collect_into(&mut out));
        out
    }

    /// Collect the entries in `[lo, hi)`.
    pub fn range_bounded(&self, lo: &K, hi: &K) -> Vec<(K, V)> {
        let mut out = Vec::new();
        self.runs(Seek::Key(lo), Some(hi), usize::MAX, &mut collect_into(&mut out));
        out
    }

    /// Stream every entry with key in `[lo, hi)` — `None` meaning
    /// unbounded on that side — as of this snapshot's version, ascending.
    ///
    /// This is the export surface of snapshot-assisted shard migration
    /// (`jiffy-shard`'s online resharding): a resharder pins a snapshot
    /// at its *cut version*, exports the migrating key range into the new
    /// shard layout with this method, and later drains the delta above
    /// the cut the same way. Unlike [`scan_from`](Snapshot::scan_from) it
    /// has no entry limit and can start below the smallest key (`lo =
    /// None`), which matters because a shard's range is half-open at both
    /// extremes.
    pub fn export_range(&self, lo: Option<&K>, hi: Option<&K>, sink: &mut dyn FnMut(&K, &V)) {
        self.runs(lo.map_or(Seek::Min, Seek::Key), hi, usize::MAX, &mut per_entry(sink))
    }

    /// Exact number of entries at this snapshot (O(nodes): sums the run
    /// lengths, touching no entry).
    pub fn len(&self) -> usize {
        let mut n = 0usize;
        self.runs(Seek::Min, None, usize::MAX, &mut |keys, _| n += keys.len());
        n
    }

    /// Whether the snapshot holds no entries.
    pub fn is_empty(&self) -> bool {
        let mut empty = true;
        self.runs(Seek::Min, None, 1, &mut |_, _| empty = false);
        empty
    }

    /// Iterate all entries of the snapshot, ascending (chunked
    /// internally; consistent across the whole iteration).
    pub fn iter(&self) -> crate::iter::SnapshotIter<'_, 'a, K, V, C> {
        crate::iter::SnapshotIter::new(self, None)
    }

    /// Iterate entries with key `>= lo`, ascending.
    pub fn iter_from(&self, lo: &K) -> crate::iter::SnapshotIter<'_, 'a, K, V, C> {
        crate::iter::SnapshotIter::new(self, Some(lo.clone()))
    }

    /// Advance the snapshot to "now", releasing pinned history. The
    /// version never moves backwards (the registered slot must not
    /// decrease while held, §3.3.4 — also the backstop against a
    /// non-monotone clock reading).
    pub fn refresh(&mut self) {
        let v = (self.map.inner.clock.now() as i64).max(self.version);
        self.slot.refresh(v);
        self.version = v;
    }

    /// Advance the snapshot's read version to `version`; a no-op if the
    /// snapshot is already at or past it. The registered slot only moves
    /// forward, so GC safety is preserved (§3.3.4: the published version
    /// must never decrease while held). Cross-index coordinators (see
    /// `jiffy-shard`) use this to align snapshots of several maps that
    /// share one clock on a single cut version.
    pub fn advance_to(&mut self, version: i64) {
        if version > self.version {
            self.slot.refresh(version);
            self.version = version;
        }
    }
}

/// A run sink that feeds a per-entry sink.
fn per_entry<'s, K, V>(sink: &'s mut dyn FnMut(&K, &V)) -> impl FnMut(&[K], &[V]) + 's {
    move |keys, values| {
        for (k, v) in keys.iter().zip(values) {
            sink(k, v);
        }
    }
}

/// A run sink that clones every entry onto the end of `out`.
fn collect_into<K: Clone, V: Clone>(out: &mut Vec<(K, V)>) -> impl FnMut(&[K], &[V]) + '_ {
    move |keys, values| out.extend(keys.iter().cloned().zip(values.iter().cloned()))
}

impl<'a, K: MapKey, V: MapValue, C: VersionClock> Drop for Snapshot<'a, K, V, C> {
    fn drop(&mut self) {
        self.slot.release();
    }
}

// SAFETY: `Snapshot` only reads; the map reference and slot are Sync.
unsafe impl<'a, K: MapKey, V: MapValue, C: VersionClock> Send for Snapshot<'a, K, V, C> {}
unsafe impl<'a, K: MapKey, V: MapValue, C: VersionClock> Sync for Snapshot<'a, K, V, C> {}
