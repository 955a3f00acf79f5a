//! Iteration over snapshots.
//!
//! Range scans in Jiffy deliver runs of entries to a callback
//! ([`Snapshot::scan_runs`]); this module layers a standard Rust
//! [`Iterator`] on top by fetching entries in chunks and resuming each
//! chunk after the last key seen — the snapshot guarantees the view
//! cannot change between chunks, so the composition is still a
//! consistent iteration.

use jiffy_clock::VersionClock;

use crate::inner::{MapKey, MapValue};
use crate::locate::Seek;
use crate::map::Snapshot;

/// How many entries [`SnapshotIter`] fetches per internal scan.
const CHUNK: usize = 256;

/// A chunked, consistent iterator over a [`Snapshot`].
pub struct SnapshotIter<'s, 'a, K: MapKey, V: MapValue, C: VersionClock> {
    snap: &'s Snapshot<'a, K, V, C>,
    buf: std::vec::IntoIter<(K, V)>,
    /// Resume position: scan strictly after this key.
    resume_after: Option<K>,
    /// Set once the underlying scan returned fewer than CHUNK entries.
    exhausted: bool,
}

impl<'s, 'a, K: MapKey, V: MapValue, C: VersionClock> SnapshotIter<'s, 'a, K, V, C> {
    pub(crate) fn new(snap: &'s Snapshot<'a, K, V, C>, from: Option<K>) -> Self {
        let mut it = SnapshotIter {
            snap,
            buf: Vec::new().into_iter(),
            resume_after: None,
            exhausted: false,
        };
        it.fill(from, true);
        it
    }

    fn fill(&mut self, from: Option<K>, inclusive: bool) {
        let mut out: Vec<(K, V)> = Vec::with_capacity(CHUNK);
        // An exclusive resume fetches one extra entry and drops `from`
        // itself: the snapshot cannot change, so it leads the first run
        // (and, keys ascending, no later one).
        let want = if inclusive { CHUNK } else { CHUNK + 1 };
        let seek = from.as_ref().map_or(Seek::Min, Seek::Key);
        self.snap.runs(seek, None, want, &mut |keys, values| {
            let skip = usize::from(!inclusive && keys.first() == from.as_ref());
            out.extend(keys[skip..].iter().cloned().zip(values[skip..].iter().cloned()));
        });
        if out.len() < CHUNK {
            self.exhausted = true;
        }
        self.resume_after = out.last().map(|(k, _)| k.clone());
        self.buf = out.into_iter();
    }
}

impl<'s, 'a, K: MapKey, V: MapValue, C: VersionClock> Iterator for SnapshotIter<'s, 'a, K, V, C> {
    type Item = (K, V);

    fn next(&mut self) -> Option<(K, V)> {
        if let Some(kv) = self.buf.next() {
            return Some(kv);
        }
        if self.exhausted {
            return None;
        }
        let resume = self.resume_after.take();
        match resume {
            Some(last) => self.fill(Some(last), false),
            None => return None,
        }
        self.buf.next()
    }
}

#[cfg(test)]
mod tests {
    use crate::{JiffyConfig, JiffyMap};

    fn tiny_map(n: u64) -> JiffyMap<u64, u64> {
        let map = JiffyMap::with_config(JiffyConfig {
            min_revision_size: 2,
            max_revision_size: 8,
            fixed_revision_size: Some(4),
            ..Default::default()
        });
        for k in 0..n {
            map.put(k * 3, k);
        }
        map
    }

    #[test]
    fn iterates_everything_in_order() {
        let map = tiny_map(1000);
        let snap = map.snapshot();
        let got: Vec<(u64, u64)> = snap.iter().collect();
        assert_eq!(got.len(), 1000);
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(got[0], (0, 0));
        assert_eq!(got[999], (2997, 999));
    }

    #[test]
    fn iter_from_bound() {
        let map = tiny_map(100);
        let snap = map.snapshot();
        let got: Vec<u64> = snap.iter_from(&150).map(|(k, _)| k).collect();
        assert_eq!(got[0], 150);
        assert_eq!(got.len(), 50);
        // Start between keys.
        let got: Vec<u64> = snap.iter_from(&151).map(|(k, _)| k).collect();
        assert_eq!(got[0], 153);
    }

    #[test]
    fn iter_on_empty_map() {
        let map: JiffyMap<u64, u64> = JiffyMap::new();
        let snap = map.snapshot();
        assert_eq!(snap.iter().count(), 0);
    }

    #[test]
    fn iter_spans_chunk_boundaries_exactly() {
        // Sizes around the internal chunk size (256).
        for n in [255u64, 256, 257, 512, 513] {
            let map = tiny_map(n);
            let snap = map.snapshot();
            assert_eq!(snap.iter().count() as u64, n, "n={n}");
        }
    }

    #[test]
    fn iter_is_isolated_from_updates() {
        let map = tiny_map(600);
        let snap = map.snapshot();
        let mut it = snap.iter();
        // Consume half, then churn the live map.
        for _ in 0..300 {
            it.next().unwrap();
        }
        for k in 0..600 {
            map.remove(&(k * 3));
        }
        // The remaining half still comes from the snapshot.
        assert_eq!(it.count(), 300);
    }
}
