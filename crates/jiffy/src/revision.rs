//! Immutable revision payloads (paper §3.3.5).
//!
//! A revision stores the key-value entries of one node in one version.
//! Data lives in two parallel arrays sorted by key (`keys`, `values`) so
//! lookups are cache-friendly and range scans read contiguous memory.
//!
//! Because threads were measured to "spend a significant amount of time
//! performing binary search in revisions", each revision also carries a
//! *lightweight hash index*: an `indices` array of 2-byte slots, twice the
//! length of `keys`. Entry `i` (key `k`) is registered at slot `2t` or
//! `2t+1` where `t = h(k) mod len(keys)`; a lookup probes the two slots
//! and falls back to binary search only when both are occupied by other
//! keys. A second array, `hashes`, caches the 2-byte key hashes so a new
//! revision can rebuild its index without rehashing any key.

use std::hash::{Hash, Hasher};

/// Sentinel for an empty `indices` slot.
const EMPTY_SLOT: u16 = u16::MAX;

/// A fast, non-cryptographic hasher (FxHash, as used by rustc). Written
/// out here to avoid a dependency; the revision hash index only needs
/// speed and reasonable dispersion, not DoS resistance.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(FX_SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut buf = [0u8; 8];
            buf[..rem.len()].copy_from_slice(rem);
            self.add_to_hash(u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// 2-byte hash of a key, as stored in the `hashes` array.
#[inline]
pub(crate) fn short_hash<K: Hash>(key: &K) -> u16 {
    let mut h = FxHasher::default();
    key.hash(&mut h);
    let v = h.finish();
    // Fold to 16 bits, mixing the high bits in.
    ((v >> 48) ^ (v >> 32) ^ (v >> 16) ^ v) as u16
}

/// The immutable sorted payload of a revision.
pub(crate) struct RevData<K, V> {
    keys: Box<[K]>,
    values: Box<[V]>,
    /// 2-byte hash of each key, aligned with `keys`.
    hashes: Box<[u16]>,
    /// Open-addressed mini index: `2 * keys.len()` slots holding positions
    /// into `keys`, or [`EMPTY_SLOT`]. Empty when the index is disabled.
    indices: Box<[u16]>,
}

/// One update to fold into a revision, keys strictly ascending.
pub(crate) enum Delta<K, V> {
    Put(K, V),
    Remove(K),
}

impl<K, V> Delta<K, V> {
    #[inline]
    pub(crate) fn key(&self) -> &K {
        match self {
            Delta::Put(k, _) => k,
            Delta::Remove(k) => k,
        }
    }
}

impl<K: Ord + Clone + Hash, V: Clone> RevData<K, V> {
    /// Build from entries already sorted by strictly ascending key.
    pub(crate) fn from_sorted(entries: Vec<(K, V)>, with_index: bool) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "entries must be sorted+unique");
        let n = entries.len();
        let mut keys = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        for (k, v) in entries {
            keys.push(k);
            values.push(v);
        }
        let hashes: Vec<u16> = keys.iter().map(short_hash).collect();
        let mut rd = RevData {
            keys: keys.into_boxed_slice(),
            values: values.into_boxed_slice(),
            hashes: hashes.into_boxed_slice(),
            indices: Box::new([]),
        };
        if with_index {
            rd.indices = Self::build_index(&rd.hashes);
        }
        rd
    }

    /// Empty revision data.
    pub(crate) fn empty() -> Self {
        RevData {
            keys: Box::new([]),
            values: Box::new([]),
            hashes: Box::new([]),
            indices: Box::new([]),
        }
    }

    /// Populate the `indices` array from cached short hashes (§3.3.5: "to
    /// speed up populating the indices array ... the hashes array can be
    /// efficiently copied").
    fn build_index(hashes: &[u16]) -> Box<[u16]> {
        let n = hashes.len();
        if n == 0 || n > u16::MAX as usize - 1 {
            return Box::new([]);
        }
        let mut idx = vec![EMPTY_SLOT; 2 * n].into_boxed_slice();
        for (i, &h) in hashes.iter().enumerate() {
            let t = (h as usize % n) * 2;
            if idx[t] == EMPTY_SLOT {
                idx[t] = i as u16;
            } else if idx[t + 1] == EMPTY_SLOT {
                idx[t + 1] = i as u16;
            }
            // Third key with the same bucket: left unindexed; lookups for
            // it fall back to binary search.
        }
        idx
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    #[inline]
    #[allow(dead_code)] // exercised by unit/property tests
    pub(crate) fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        &self.values
    }

    /// Position of `key` via the hash index (with binary-search fallback),
    /// or `None` if absent.
    pub(crate) fn position(&self, key: &K) -> Option<usize> {
        let n = self.keys.len();
        if n == 0 {
            return None;
        }
        if !self.indices.is_empty() {
            let h = short_hash(key);
            let t = (h as usize % n) * 2;
            let s0 = self.indices[t];
            if s0 == EMPTY_SLOT {
                return None; // fewer than 1 key hashed here: definitely absent
            }
            if self.keys[s0 as usize] == *key {
                return Some(s0 as usize);
            }
            let s1 = self.indices[t + 1];
            if s1 == EMPTY_SLOT {
                // Exactly one key hashed to this bucket and it isn't ours.
                return None;
            }
            if self.keys[s1 as usize] == *key {
                return Some(s1 as usize);
            }
            // Bucket overflowed at build time: the key may exist unindexed.
        }
        self.keys.binary_search(key).ok()
    }

    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|i| &self.values[i])
    }

    /// Index of the first key `>= lo` (for range scans).
    #[inline]
    pub(crate) fn lower_bound(&self, lo: &K) -> usize {
        self.keys.partition_point(|k| k < lo)
    }

    /// Clone into an entries vector (ascending).
    pub(crate) fn to_entries(&self) -> Vec<(K, V)> {
        self.keys.iter().cloned().zip(self.values.iter().cloned()).collect()
    }

    /// New data with `key -> value` inserted or overwritten.
    pub(crate) fn with_put(&self, key: K, value: V, with_index: bool) -> Self {
        match self.keys.binary_search(&key) {
            Ok(i) => {
                // Overwrite: same keys/hashes, patched values.
                let mut values = self.values.to_vec();
                values[i] = value;
                let mut rd = RevData {
                    keys: self.keys.clone(),
                    values: values.into_boxed_slice(),
                    hashes: self.hashes.clone(),
                    indices: Box::new([]),
                };
                if with_index {
                    // Key set unchanged: index is identical, reuse it.
                    rd.indices = self.indices.clone();
                    if rd.indices.is_empty() {
                        rd.indices = Self::build_index(&rd.hashes);
                    }
                }
                rd
            }
            Err(i) => {
                let n = self.keys.len();
                let mut keys = Vec::with_capacity(n + 1);
                let mut values = Vec::with_capacity(n + 1);
                let mut hashes = Vec::with_capacity(n + 1);
                keys.extend_from_slice(&self.keys[..i]);
                values.extend_from_slice(&self.values[..i]);
                hashes.extend_from_slice(&self.hashes[..i]);
                hashes.push(short_hash(&key));
                keys.push(key);
                values.push(value);
                keys.extend_from_slice(&self.keys[i..]);
                values.extend_from_slice(&self.values[i..]);
                hashes.extend_from_slice(&self.hashes[i..]);
                let mut rd = RevData {
                    keys: keys.into_boxed_slice(),
                    values: values.into_boxed_slice(),
                    hashes: hashes.into_boxed_slice(),
                    indices: Box::new([]),
                };
                if with_index {
                    rd.indices = Self::build_index(&rd.hashes);
                }
                rd
            }
        }
    }

    /// New data with `key` removed (must be present; callers check first).
    pub(crate) fn with_remove(&self, key: &K, with_index: bool) -> Self {
        let i = match self.keys.binary_search(key) {
            Ok(i) => i,
            Err(_) => {
                // Tolerated for batch helping paths: removal of an absent
                // key is an identity transformation.
                return self.clone_data(with_index);
            }
        };
        let n = self.keys.len();
        let mut keys = Vec::with_capacity(n - 1);
        let mut values = Vec::with_capacity(n - 1);
        let mut hashes = Vec::with_capacity(n - 1);
        keys.extend_from_slice(&self.keys[..i]);
        keys.extend_from_slice(&self.keys[i + 1..]);
        values.extend_from_slice(&self.values[..i]);
        values.extend_from_slice(&self.values[i + 1..]);
        hashes.extend_from_slice(&self.hashes[..i]);
        hashes.extend_from_slice(&self.hashes[i + 1..]);
        let mut rd = RevData {
            keys: keys.into_boxed_slice(),
            values: values.into_boxed_slice(),
            hashes: hashes.into_boxed_slice(),
            indices: Box::new([]),
        };
        if with_index {
            rd.indices = Self::build_index(&rd.hashes);
        }
        rd
    }

    /// Plain copy (used when an operation turns out to be an identity but a
    /// new revision object is still required, §3.3.3 item 5).
    pub(crate) fn clone_data(&self, with_index: bool) -> Self {
        let mut rd = RevData {
            keys: self.keys.clone(),
            values: self.values.clone(),
            hashes: self.hashes.clone(),
            indices: Box::new([]),
        };
        if with_index {
            rd.indices = if self.indices.is_empty() {
                Self::build_index(&rd.hashes)
            } else {
                self.indices.clone()
            };
        }
        rd
    }

    /// Fold a sorted run of deltas (strictly ascending keys) into new data
    /// — the workhorse of batch updates. Removes of absent keys are
    /// allowed and ignored content-wise.
    pub(crate) fn apply_deltas(&self, deltas: &[Delta<K, V>], with_index: bool) -> Self {
        debug_assert!(deltas.windows(2).all(|w| w[0].key() < w[1].key()));
        let mut entries: Vec<(K, V)> = Vec::with_capacity(self.len() + deltas.len());
        let mut di = 0;
        for i in 0..self.keys.len() {
            let k = &self.keys[i];
            while di < deltas.len() && deltas[di].key() < k {
                if let Delta::Put(dk, dv) = &deltas[di] {
                    entries.push((dk.clone(), dv.clone()));
                }
                di += 1;
            }
            if di < deltas.len() && deltas[di].key() == k {
                if let Delta::Put(dk, dv) = &deltas[di] {
                    entries.push((dk.clone(), dv.clone()));
                }
                // Remove: skip the existing entry.
                di += 1;
            } else {
                entries.push((k.clone(), self.values[i].clone()));
            }
        }
        while di < deltas.len() {
            if let Delta::Put(dk, dv) = &deltas[di] {
                entries.push((dk.clone(), dv.clone()));
            }
            di += 1;
        }
        Self::from_sorted(entries, with_index)
    }

    /// Union of two revisions covering adjacent ranges (merge revision
    /// construction): `self` holds the lower range, `right` the upper.
    pub(crate) fn concat(&self, right: &Self, with_index: bool) -> Self {
        debug_assert!(
            self.keys.last().zip(right.keys.first()).map_or(true, |(a, b)| a < b),
            "merge ranges must be adjacent and ordered"
        );
        let mut entries = Vec::with_capacity(self.len() + right.len());
        entries.extend(self.to_entries());
        entries.extend(right.to_entries());
        Self::from_sorted(entries, with_index)
    }

    /// Split into halves for a node split; returns `(left, right,
    /// split_key)` where `split_key` is the first key of the right half.
    /// Requires `len() >= 2`.
    pub(crate) fn split_halves(&self, with_index: bool) -> (Self, Self, K) {
        assert!(self.len() >= 2, "cannot split a revision with < 2 entries");
        let mid = self.len() / 2;
        let split_key = self.keys[mid].clone();
        let left = Self::from_sorted(
            self.keys[..mid].iter().cloned().zip(self.values[..mid].iter().cloned()).collect(),
            with_index,
        );
        let right = Self::from_sorted(
            self.keys[mid..].iter().cloned().zip(self.values[mid..].iter().cloned()).collect(),
            with_index,
        );
        (left, right, split_key)
    }

    /// Whether the hash index is materialized (for tests/stats).
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        !self.indices.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(pairs: &[(u64, u64)]) -> RevData<u64, u64> {
        RevData::from_sorted(pairs.to_vec(), true)
    }

    #[test]
    fn empty_revision() {
        let rd: RevData<u64, u64> = RevData::empty();
        assert_eq!(rd.len(), 0);
        assert!(rd.is_empty());
        assert_eq!(rd.get(&1), None);
        assert_eq!(rd.lower_bound(&0), 0);
    }

    #[test]
    fn get_hits_and_misses() {
        let rd = data(&[(1, 10), (5, 50), (9, 90)]);
        assert_eq!(rd.get(&1), Some(&10));
        assert_eq!(rd.get(&5), Some(&50));
        assert_eq!(rd.get(&9), Some(&90));
        assert_eq!(rd.get(&0), None);
        assert_eq!(rd.get(&4), None);
        assert_eq!(rd.get(&10), None);
    }

    #[test]
    fn get_without_index_falls_back_to_binary_search() {
        let rd = RevData::from_sorted(vec![(1u64, 10u64), (5, 50)], false);
        assert!(!rd.has_index());
        assert_eq!(rd.get(&5), Some(&50));
        assert_eq!(rd.get(&2), None);
    }

    #[test]
    fn hash_index_handles_bucket_overflow() {
        // Many keys, small value space for hashes mod n: guarantees some
        // buckets overflow (>2 keys per bucket) and exercises the fallback.
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i)).collect();
        let rd = RevData::from_sorted(pairs.clone(), true);
        for (k, v) in &pairs {
            assert_eq!(rd.get(k), Some(v), "key {k}");
        }
        for k in [1u64, 2, 4, 1499, 1501] {
            assert_eq!(rd.get(&k), None, "key {k} should be absent");
        }
    }

    #[test]
    fn with_put_inserts_and_overwrites() {
        let rd = data(&[(2, 20), (4, 40)]);
        let ins = rd.with_put(3, 30, true);
        assert_eq!(ins.keys(), &[2, 3, 4]);
        assert_eq!(ins.get(&3), Some(&30));
        assert_eq!(rd.len(), 2, "source is immutable");

        let ovw = rd.with_put(2, 99, true);
        assert_eq!(ovw.keys(), &[2, 4]);
        assert_eq!(ovw.get(&2), Some(&99));
        assert_eq!(rd.get(&2), Some(&20));
    }

    #[test]
    fn with_put_at_ends() {
        let rd = data(&[(5, 1)]);
        assert_eq!(rd.with_put(1, 0, true).keys(), &[1, 5]);
        assert_eq!(rd.with_put(9, 0, true).keys(), &[5, 9]);
    }

    #[test]
    fn with_remove_variants() {
        let rd = data(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(rd.with_remove(&2, true).keys(), &[1, 3]);
        assert_eq!(rd.with_remove(&1, true).keys(), &[2, 3]);
        assert_eq!(rd.with_remove(&3, true).keys(), &[1, 2]);
        // Removing an absent key is an identity (batch helping path).
        assert_eq!(rd.with_remove(&7, true).keys(), &[1, 2, 3]);
    }

    #[test]
    fn apply_deltas_mixed() {
        let rd = data(&[(2, 20), (4, 40), (6, 60)]);
        let out = rd.apply_deltas(
            &[
                Delta::Put(1, 11),
                Delta::Remove(2),
                Delta::Put(4, 44),
                Delta::Put(5, 55),
                Delta::Remove(9),
            ],
            true,
        );
        assert_eq!(out.keys(), &[1, 4, 5, 6]);
        assert_eq!(out.get(&4), Some(&44));
        assert_eq!(out.get(&1), Some(&11));
        assert_eq!(out.get(&5), Some(&55));
        assert_eq!(out.get(&6), Some(&60));
    }

    #[test]
    fn apply_deltas_on_empty() {
        let rd: RevData<u64, u64> = RevData::empty();
        let out = rd.apply_deltas(&[Delta::Put(3, 30), Delta::Put(7, 70)], true);
        assert_eq!(out.keys(), &[3, 7]);
    }

    #[test]
    fn concat_adjacent() {
        let a = data(&[(1, 1), (2, 2)]);
        let b = data(&[(5, 5), (8, 8)]);
        let c = a.concat(&b, true);
        assert_eq!(c.keys(), &[1, 2, 5, 8]);
        for k in [1u64, 2, 5, 8] {
            assert_eq!(c.get(&k), Some(&k));
        }
    }

    #[test]
    fn split_halves_balanced() {
        let rd = data(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        let (l, r, sk) = rd.split_halves(true);
        assert_eq!(sk, 3);
        assert_eq!(l.keys(), &[1, 2]);
        assert_eq!(r.keys(), &[3, 4, 5]);
    }

    #[test]
    fn split_halves_two_entries() {
        let rd = data(&[(1, 1), (2, 2)]);
        let (l, r, sk) = rd.split_halves(true);
        assert_eq!(sk, 2);
        assert_eq!(l.keys(), &[1]);
        assert_eq!(r.keys(), &[2]);
    }

    #[test]
    #[should_panic]
    fn split_single_entry_panics() {
        data(&[(1, 1)]).split_halves(true);
    }

    #[test]
    fn lower_bound_positions() {
        let rd = data(&[(10, 0), (20, 0), (30, 0)]);
        assert_eq!(rd.lower_bound(&5), 0);
        assert_eq!(rd.lower_bound(&10), 0);
        assert_eq!(rd.lower_bound(&15), 1);
        assert_eq!(rd.lower_bound(&30), 2);
        assert_eq!(rd.lower_bound(&31), 3);
    }

    #[test]
    fn short_hash_is_deterministic() {
        assert_eq!(short_hash(&42u64), short_hash(&42u64));
        // Not a collision test, just sanity that nearby keys differ.
        let distinct: std::collections::HashSet<u16> = (0u64..64).map(|k| short_hash(&k)).collect();
        assert!(distinct.len() > 32, "short_hash disperses poorly: {}", distinct.len());
    }

    #[test]
    fn string_keys_work() {
        let rd =
            RevData::from_sorted(vec![("alpha".to_string(), 1u32), ("beta".to_string(), 2)], true);
        assert_eq!(rd.get(&"alpha".to_string()), Some(&1));
        assert_eq!(rd.get(&"gamma".to_string()), None);
    }

    #[test]
    fn large_revision_all_keys_found() {
        let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (i, i * 2)).collect();
        let rd = RevData::from_sorted(pairs, true);
        for k in (0..4096).step_by(7) {
            assert_eq!(rd.get(&k), Some(&(k * 2)));
        }
    }
}
