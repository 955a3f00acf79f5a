//! [`OrderedIndex`] / [`BulkLoad`] implementations so Jiffy plugs into
//! the shared benchmark harness, the conformance tests, and the sharded
//! coordinator.

use index_api::{Batch, BatchOp, BulkLoad, OrderedIndex};
use jiffy_clock::VersionClock;

use crate::inner::{MapKey, MapValue};
use crate::JiffyMap;

impl<K: MapKey, V: MapValue, C: VersionClock> OrderedIndex<K, V> for JiffyMap<K, V, C> {
    fn get(&self, key: &K) -> Option<V> {
        JiffyMap::get(self, key)
    }

    fn put(&self, key: K, value: V) {
        JiffyMap::put(self, key, value);
    }

    fn remove(&self, key: &K) -> bool {
        JiffyMap::remove(self, key).is_some()
    }

    fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        JiffyMap::scan_from(self, lo, n, sink)
    }

    fn scan_runs(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&[K], &[V])) {
        self.snapshot().scan_runs(lo, n, sink)
    }

    fn batch_update(&self, batch: Batch<K, V>) {
        JiffyMap::batch(self, batch)
    }

    fn name(&self) -> &'static str {
        "jiffy"
    }

    fn revision_stats(&self) -> Option<index_api::RevisionStats> {
        let stats = self.debug_stats();
        Some(index_api::RevisionStats {
            nodes: stats.nodes as u64,
            entries: stats.entries as u64,
            max_revision_depth: stats.max_revision_depth as u64,
        })
    }
}

impl<K: MapKey, V: MapValue, C: VersionClock> BulkLoad<K, V> for JiffyMap<K, V, C> {
    fn bulk_load(&self, entries: Vec<(K, V)>) {
        // Chunked atomic batches: each chunk rides the ordinary batch
        // machinery (one descriptor, one version), so a bulk load into a
        // shared map is a sequence of atomic steps rather than a torn
        // stream of puts. The primary caller (resharding's migration
        // copy) loads into maps nothing else can reach yet, where the
        // chunking is unobservable anyway. 512 keeps each descriptor's
        // revision work near the autoscaler's preferred revision sizes.
        const CHUNK: usize = 512;
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let ops: Vec<BatchOp<K, V>> =
                entries.by_ref().take(CHUNK).map(|(k, v)| BatchOp::Put(k, v)).collect();
            self.batch(Batch::new(ops));
        }
    }
}
