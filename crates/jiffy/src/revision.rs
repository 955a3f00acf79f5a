//! Immutable revision payloads (paper §3.3.5).
//!
//! A revision stores the key-value entries of one node in one version,
//! in **one block per revision**: a single allocation of exactly the
//! revision's size,
//!
//! ```text
//! [ keys: K; n ][ values: V; n ][ hashes: u16; n ][ indices: u16; 2n, or nothing ]
//! ```
//!
//! each section starting at its element's alignment. Keys and values are
//! parallel arrays sorted by key, so lookups are cache-friendly and a
//! range scan hands out contiguous sub-slices.
//!
//! Because threads were measured to "spend a significant amount of time
//! performing binary search in revisions", each revision also carries a
//! *lightweight hash index*: `indices`, 2-byte slots twice as many as the
//! keys. Entry `i` (key `k`) is registered at slot `2t` or `2t+1` where
//! `t = h(k) mod n`; a lookup probes the two slots and falls back to
//! binary search only when both are occupied by other keys. `hashes`
//! caches each key's 2-byte hash, and, as §3.3.5 says, a new revision
//! copies it: only inserted keys are hashed, and when the key set is
//! unchanged (an overwrite-only update) the old `indices` is copied too.
//! `disable_hash_index` omits the `indices` section.
//!
//! Every revision is built once, by `apply`, `apply_split` or `merge`:
//! one merge walk over the source revision(s) and an ascending run of
//! [`Delta`]s, which binary-searches each delta's position from the
//! previous one and copies the run of entries before it. The output is
//! counted first (`len_after`), so every block is exact, and a split
//! builds its two halves directly.
//!
//! All `unsafe` of the block lives in this module. [`RevData`] hands out
//! slices of initialized sections only; a private `Builder` writes a
//! block front to back and is the only thing that turns one into a
//! `RevData`. Ownership and unwinding: if `K::clone` or `V::clone` panics
//! mid-build, the builder drops the prefix it wrote and frees the block;
//! a finished `RevData` drops its entries and frees its block exactly
//! once, in `Drop`.

use std::alloc::{self, Layout};
use std::hash::{Hash, Hasher};
use std::marker::PhantomData;
use std::mem::{align_of, size_of, ManuallyDrop};
use std::ops::Range;
use std::ptr::{self, NonNull};
use std::slice;

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

/// The immutable sorted payload of a revision: one block (module docs).
pub(crate) struct RevData<K, V> {
    /// The block; a dangling, suitably aligned pointer when `len == 0`.
    block: NonNull<u8>,
    len: usize,
    /// Whether the block carries the `indices` section.
    indexed: bool,
    /// Owns `len` keys and values (drop check, auto traits).
    _owns: PhantomData<(K, V)>,
}

// SAFETY: a `RevData` owns its block exclusively, as a `Box<[K]>` plus a
// `Box<[V]>` would: `block` is never shared with another `RevData` or
// builder, and its keys and values move with it, so sending it sends
// `K`s and `V`s (hence `K: Send, V: Send`). The `hashes`/`indices`
// sections are plain `u16`s; `len` and `indexed` are plain values fixed
// at construction.
unsafe impl<K: Send, V: Send> Send for RevData<K, V> {}

// SAFETY: `&RevData` exposes only `&[K]`, `&[V]` and `&[u16]` views of
// the block and no interior mutability, so sharing it shares `&K` and
// `&V` across threads (hence `K: Sync, V: Sync`); `block`, `len` and
// `indexed` are never written after construction.
unsafe impl<K: Sync, V: Sync> Sync for RevData<K, V> {}

/// One update to fold into a revision, borrowed from its owner (a batch
/// descriptor's ops, or a `put`/`remove` argument). A run of deltas has
/// strictly ascending keys.
pub(crate) enum Delta<'a, K, V> {
    Put(&'a K, &'a V),
    Remove(&'a K),
}

// Not derived: a derive would ask for `K: Clone, V: Clone`.
impl<K, V> Clone for Delta<'_, K, V> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K, V> Copy for Delta<'_, K, V> {}

impl<K, V> Delta<'_, K, V> {
    #[inline]
    pub(crate) fn key(&self) -> &K {
        match self {
            Delta::Put(k, _) => k,
            Delta::Remove(k) => k,
        }
    }
}

impl<K, V> RevData<K, V> {
    /// Byte offsets of the `values` and `hashes` sections in a block of
    /// `n` entries (`indices` follows the hashes). The same arithmetic as
    /// [`Self::layout`], whose checked version proved it does not
    /// overflow for any `n` a block was allocated with.
    #[inline]
    fn offsets(n: usize) -> (usize, usize) {
        let values = (n * size_of::<K>()).next_multiple_of(align_of::<V>());
        let hashes = (values + n * size_of::<V>()).next_multiple_of(align_of::<u16>());
        (values, hashes)
    }

    /// Layout of a block of `n` entries.
    fn layout(n: usize, indexed: bool) -> Layout {
        let fits = || -> Option<(Layout, usize, usize)> {
            let slots = if indexed { n.checked_mul(3)? } else { n };
            let (l, values) =
                Layout::array::<K>(n).ok()?.extend(Layout::array::<V>(n).ok()?).ok()?;
            let (l, hashes) = l.extend(Layout::array::<u16>(slots).ok()?).ok()?;
            Some((l, values, hashes))
        };
        let (layout, values, hashes) = fits().expect("revision block size overflows");
        debug_assert_eq!((values, hashes), Self::offsets(n));
        layout
    }

    /// A fresh block for `n` entries: allocated, or dangling (and aligned
    /// for every section) when `n == 0`.
    fn alloc_block(n: usize, indexed: bool) -> NonNull<u8> {
        let layout = Self::layout(n, indexed);
        if n == 0 {
            // A zero-length slice only needs a non-null, aligned pointer.
            return NonNull::new(layout.align() as *mut u8).expect("alignment is non-zero");
        }
        // SAFETY: `n > 0`, so the layout's size is non-zero (the hashes
        // section alone is `2n` bytes).
        let block = unsafe { alloc::alloc(layout) };
        NonNull::new(block).unwrap_or_else(|| alloc::handle_alloc_error(layout))
    }

    /// Request every cache line of the block at once. A copy-on-write
    /// build reads all of it, and a cold block otherwise costs a chain of
    /// dependent misses, starting with the binary search for the first
    /// delta; issued together, the misses overlap.
    pub(crate) fn prefetch(&self) {
        let bytes = Self::layout(self.len, self.indexed).size();
        let base = self.block.as_ptr();
        for off in (0..bytes).step_by(64) {
            crossbeam_utils::prefetch_read(base.wrapping_add(off));
        }
    }

    /// Empty revision data.
    pub(crate) fn empty() -> Self {
        RevData { block: Self::alloc_block(0, false), len: 0, indexed: false, _owns: PhantomData }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    #[inline]
    #[allow(dead_code)] // exercised by unit/property tests
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    pub(crate) fn keys(&self) -> &[K] {
        // SAFETY: the block starts with `len` initialized keys (a
        // `RevData` is only made by `Builder::finish`, or empty), aligned
        // for `K`, and lives as long as `self`.
        unsafe { slice::from_raw_parts(self.block.as_ptr().cast::<K>(), self.len) }
    }

    #[inline]
    pub(crate) fn values(&self) -> &[V] {
        let (values, _) = Self::offsets(self.len);
        // SAFETY: `len` initialized values start at the values offset of
        // this block (aligned for `V`), alive as long as `self`.
        unsafe { slice::from_raw_parts(self.block.as_ptr().add(values).cast::<V>(), self.len) }
    }

    #[inline]
    fn hashes(&self) -> &[u16] {
        let (_, hashes) = Self::offsets(self.len);
        // SAFETY: `len` written hashes start at the hashes offset (aligned
        // for `u16`), alive as long as `self`.
        unsafe { slice::from_raw_parts(self.block.as_ptr().add(hashes).cast::<u16>(), self.len) }
    }

    /// The hash index: `2 * len` slots, or empty when not materialized.
    #[inline]
    fn indices(&self) -> &[u16] {
        if !self.indexed {
            return &[];
        }
        let (_, hashes) = Self::offsets(self.len);
        // SAFETY: an indexed block carries `2 * len` written slots right
        // after the `len` hashes, alive as long as `self`.
        unsafe {
            let at = self.block.as_ptr().add(hashes).cast::<u16>().add(self.len);
            slice::from_raw_parts(at, 2 * self.len)
        }
    }

    /// Whether the hash index is materialized (for tests/stats).
    #[cfg(test)]
    pub(crate) fn has_index(&self) -> bool {
        self.indexed
    }
}

impl<K, V> Drop for RevData<K, V> {
    fn drop(&mut self) {
        // SAFETY: this `RevData` owns its block, every key and value in it
        // is initialized, and nothing reaches the block after drop.
        unsafe { release::<K, V>(self.block, self.len, self.indexed, self.len, self.len) }
    }
}

/// Drop the first `keys` keys and `values` values of a block of `n`
/// entries and free it.
///
/// # Safety
/// `block` came from `RevData::<K, V>::alloc_block(n, indexed)`, those
/// prefixes are initialized, and nothing touches the block afterwards.
unsafe fn release<K, V>(block: NonNull<u8>, n: usize, indexed: bool, keys: usize, values: usize) {
    let (values_at, _) = RevData::<K, V>::offsets(n);
    let base = block.as_ptr();
    // SAFETY: fn contract — both prefixes are initialized, in bounds and
    // aligned, dropped exactly once here.
    unsafe {
        ptr::drop_in_place(ptr::slice_from_raw_parts_mut(base.cast::<K>(), keys));
        ptr::drop_in_place(ptr::slice_from_raw_parts_mut(base.add(values_at).cast::<V>(), values));
    }
    if n > 0 {
        // SAFETY: fn contract — allocated with exactly this layout.
        unsafe { alloc::dealloc(base, RevData::<K, V>::layout(n, indexed)) };
    }
}

/// Writes one block front to back: entry `i`'s key, value and hash land
/// at index `i` of their sections, in order.
struct Builder<K, V> {
    block: NonNull<u8>,
    n: usize,
    indexed: bool,
    /// Initialized keys (and written hashes): `keys[..keys]`.
    keys: usize,
    /// Initialized values: `values[..values]`. Equal to `keys` between
    /// calls (the writers assert it); only a panicking clone inside
    /// `copy_run` leaves them apart, and then the builder is unwinding.
    values: usize,
    _owns: PhantomData<(K, V)>,
}

impl<K: Clone, V: Clone> Builder<K, V> {
    /// A builder for exactly `n` entries. The index section exists iff
    /// `with_index` and `n` fits the 2-byte slots.
    fn new(n: usize, with_index: bool) -> Self {
        let indexed = with_index && (1..EMPTY_SLOT as usize).contains(&n);
        let block = RevData::<K, V>::alloc_block(n, indexed);
        Builder { block, n, indexed, keys: 0, values: 0, _owns: PhantomData }
    }

    #[inline]
    fn room(&self) -> usize {
        self.n - self.keys
    }

    /// Append one entry.
    fn push(&mut self, key: &K, value: &V, hash: u16) {
        assert!(self.keys < self.n && self.keys == self.values, "revision block overfilled");
        // Clone both before writing either: a panicking `V::clone` drops
        // the cloned key as a local, and the block stays consistent.
        let (key, value) = (key.clone(), value.clone());
        let (values_at, hashes_at) = RevData::<K, V>::offsets(self.n);
        let (i, base) = (self.keys, self.block.as_ptr());
        // SAFETY: `i < n` indexes the uninitialized slot `i` of each
        // section of this block, which the builder owns exclusively.
        unsafe {
            base.cast::<K>().add(i).write(key);
            base.add(values_at).cast::<V>().add(i).write(value);
            base.add(hashes_at).cast::<u16>().add(i).write(hash);
        }
        self.keys += 1;
        self.values += 1;
    }

    /// Append `src`'s entries `range`, reusing their cached hashes.
    fn copy_run(&mut self, src: &RevData<K, V>, range: Range<usize>) {
        let keys = &src.keys()[range.clone()];
        let values = &src.values()[range.clone()];
        let hashes = &src.hashes()[range];
        assert!(keys.len() <= self.room() && self.keys == self.values, "revision block overfilled");
        let start = self.keys;
        let (values_at, hashes_at) = RevData::<K, V>::offsets(self.n);
        let base = self.block.as_ptr();
        for k in keys {
            // SAFETY: `self.keys < start + keys.len() <= n`: an
            // uninitialized slot of this block's keys section.
            unsafe { base.cast::<K>().add(self.keys).write(k.clone()) };
            self.keys += 1;
        }
        for v in values {
            // SAFETY: as above, in the values section (`values` trails
            // `keys` within this call).
            unsafe { base.add(values_at).cast::<V>().add(self.values).write(v.clone()) };
            self.values += 1;
        }
        // SAFETY: `hashes[start..start + len]` is in bounds of this
        // block's hashes section; the source is another block.
        unsafe {
            let dst = base.add(hashes_at).cast::<u16>().add(start);
            ptr::copy_nonoverlapping(hashes.as_ptr(), dst, hashes.len());
        }
    }

    /// Seal the block. `same_keys` is a revision with exactly this key set,
    /// whose index (if any) is copied instead of rebuilt.
    fn finish(self, same_keys: Option<&RevData<K, V>>) -> RevData<K, V> {
        assert!(self.keys == self.n && self.values == self.n, "revision block underfilled");
        if self.indexed {
            let n = self.n;
            let (_, hashes_at) = RevData::<K, V>::offsets(n);
            // SAFETY: an indexed block has `2n` index slots right after
            // its `n` hashes, all of which are written (`keys == n`); the
            // two slices do not overlap.
            let (hashes, indices) = unsafe {
                let at = self.block.as_ptr().add(hashes_at).cast::<u16>();
                (slice::from_raw_parts(at, n), slice::from_raw_parts_mut(at.add(n), 2 * n))
            };
            match same_keys.map(RevData::indices) {
                Some(old) if old.len() == indices.len() => indices.copy_from_slice(old),
                _ => build_index(hashes, indices),
            }
        }
        let b = ManuallyDrop::new(self);
        RevData { block: b.block, len: b.n, indexed: b.indexed, _owns: PhantomData }
    }
}

impl<K, V> Drop for Builder<K, V> {
    /// Unwinding out of a build: drop what was written, free the block.
    fn drop(&mut self) {
        // SAFETY: the builder owns its block and wrote exactly the
        // `keys`/`values` prefixes; nothing else reaches the block.
        unsafe { release::<K, V>(self.block, self.n, self.indexed, self.keys, self.values) }
    }
}

/// Populate an index from the cached short hashes (§3.3.5: "to speed up
/// populating the indices array ... the hashes array can be efficiently
/// copied").
fn build_index(hashes: &[u16], idx: &mut [u16]) {
    let n = hashes.len();
    idx.fill(EMPTY_SLOT);
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
}

/// Where the merge walk sends its output, in ascending key order: runs
/// of a source revision's entries, and single entries from deltas.
trait Emit<K, V> {
    fn run(&mut self, src: &RevData<K, V>, range: Range<usize>);
    fn put(&mut self, key: &K, value: &V, hash: u16);
}

/// Counting only: `len_after`.
impl<K, V> Emit<K, V> for usize {
    fn run(&mut self, _: &RevData<K, V>, range: Range<usize>) {
        *self += range.len();
    }

    fn put(&mut self, _: &K, _: &V, _: u16) {
        *self += 1;
    }
}

/// Builders filled in turn: one for a plain revision, two for the halves
/// of a split.
impl<K: Clone, V: Clone> Emit<K, V> for [Builder<K, V>] {
    fn run(&mut self, src: &RevData<K, V>, range: Range<usize>) {
        let mut start = range.start;
        for b in self.iter_mut() {
            let end = start + b.room().min(range.end - start);
            b.copy_run(src, start..end);
            start = end;
        }
        assert_eq!(start, range.end, "more entries than counted");
    }

    fn put(&mut self, key: &K, value: &V, hash: u16) {
        let b = self.iter_mut().find(|b| b.room() > 0).expect("more entries than counted");
        b.push(key, value, hash);
    }
}

impl<K: Ord + Clone + Hash, V: Clone> RevData<K, V> {
    /// The one merge walk behind every constructor: `parts` (adjacent
    /// ranges, ascending) with `deltas` (ascending keys) folded in, sent
    /// to `out`. Each delta's position is binary-searched from the
    /// previous one and the run before it copied whole; removes of absent
    /// keys are allowed and change nothing. Returns whether the key set
    /// changed.
    fn walk<'d, E>(
        parts: &[&Self],
        deltas: impl Iterator<Item = Delta<'d, K, V>>,
        out: &mut E,
    ) -> bool
    where
        K: 'd,
        V: 'd,
        E: Emit<K, V> + ?Sized,
    {
        let mut deltas = deltas.peekable();
        let mut changed = false;
        for (p, src) in parts.iter().enumerate() {
            let keys = src.keys();
            // A delta above this part's last key goes to a later part:
            // inserting it at this part's end or at the next one's start
            // yields the same output.
            let last_part = p + 1 == parts.len();
            let mut pos = 0;
            while let Some(d) =
                deltas.next_if(|d| last_part || keys.last().is_some_and(|last| d.key() <= last))
            {
                let at = pos + keys[pos..].partition_point(|k| k < d.key());
                out.run(src, pos..at);
                let hit = keys.get(at) == Some(d.key());
                match d {
                    Delta::Put(k, v) => {
                        out.put(k, v, if hit { src.hashes()[at] } else { short_hash(k) });
                        changed |= !hit;
                    }
                    Delta::Remove(_) => changed |= hit,
                }
                pos = at + usize::from(hit);
            }
            out.run(src, pos..keys.len());
        }
        changed
    }

    /// Entries after folding `deltas` into `self`: the exact size of what
    /// [`apply`](Self::apply) and [`apply_split`](Self::apply_split) build.
    pub(crate) fn len_after<'d>(&self, deltas: impl Iterator<Item = Delta<'d, K, V>>) -> usize
    where
        K: 'd,
        V: 'd,
    {
        let mut len = 0usize;
        Self::walk(&[self], deltas, &mut len);
        len
    }

    /// New data: `self` with `deltas` folded in, `len` being
    /// [`len_after`](Self::len_after) of the same deltas. An update that
    /// leaves the key set unchanged copies the hash index.
    pub(crate) fn apply<'d>(
        &self,
        deltas: impl Iterator<Item = Delta<'d, K, V>>,
        len: usize,
        with_index: bool,
    ) -> Self
    where
        K: 'd,
        V: 'd,
    {
        let mut out = [Builder::new(len, with_index)];
        let changed = Self::walk(&[self], deltas, &mut out[..]);
        let [b] = out;
        b.finish((!changed).then_some(self))
    }

    /// [`apply`](Self::apply), built directly as the two halves of a node
    /// split: `(left, right, split_key)`, where `split_key` is the first
    /// key of the right half. Requires `len >= 2`.
    pub(crate) fn apply_split<'d>(
        &self,
        deltas: impl Iterator<Item = Delta<'d, K, V>>,
        len: usize,
        with_index: bool,
    ) -> (Self, Self, K)
    where
        K: 'd,
        V: 'd,
    {
        assert!(len >= 2, "cannot split a revision with < 2 entries");
        let mid = len / 2;
        let mut out = [Builder::new(mid, with_index), Builder::new(len - mid, with_index)];
        Self::walk(&[self], deltas, &mut out[..]);
        let [left, right] = out;
        let (left, right) = (left.finish(None), right.finish(None));
        let split_key = right.keys()[0].clone();
        (left, right, split_key)
    }

    /// A merge revision: `left` (the lower range) and `right` (the upper)
    /// joined, with `deltas` folded in, in one pass.
    pub(crate) fn merge<'d>(
        left: &Self,
        right: &Self,
        deltas: impl Iterator<Item = Delta<'d, K, V>> + Clone,
        with_index: bool,
    ) -> Self
    where
        K: 'd,
        V: 'd,
    {
        debug_assert!(
            left.keys().last().zip(right.keys().first()).map_or(true, |(a, b)| a < b),
            "merge ranges must be adjacent and ordered"
        );
        let parts = [left, right];
        let mut len = 0usize;
        Self::walk(&parts, deltas.clone(), &mut len);
        let mut out = [Builder::new(len, with_index)];
        Self::walk(&parts, deltas, &mut out[..]);
        let [b] = out;
        b.finish(None)
    }

    /// Position of `key` via the hash index (with binary-search fallback),
    /// or `None` if absent.
    pub(crate) fn position(&self, key: &K) -> Option<usize> {
        let n = self.len;
        if n == 0 {
            return None;
        }
        let keys = self.keys();
        let indices = self.indices();
        if !indices.is_empty() {
            let h = short_hash(key);
            let t = (h as usize % n) * 2;
            let s0 = indices[t];
            if s0 == EMPTY_SLOT {
                return None; // fewer than 1 key hashed here: definitely absent
            }
            if keys[s0 as usize] == *key {
                return Some(s0 as usize);
            }
            let s1 = indices[t + 1];
            if s1 == EMPTY_SLOT {
                // Exactly one key hashed to this bucket and it isn't ours.
                return None;
            }
            if keys[s1 as usize] == *key {
                return Some(s1 as usize);
            }
            // Bucket overflowed at build time: the key may exist unindexed.
        }
        keys.binary_search(key).ok()
    }

    #[inline]
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.position(key).map(|i| &self.values()[i])
    }

    /// Index of the first key `>= lo` (for range scans).
    #[inline]
    pub(crate) fn lower_bound(&self, lo: &K) -> usize {
        self.keys().partition_point(|k| k < lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::iter::once;

    fn puts<K, V>(pairs: &[(K, V)]) -> impl Iterator<Item = Delta<'_, K, V>> + Clone {
        pairs.iter().map(|(k, v)| Delta::Put(k, v))
    }

    /// Build through the one path every revision takes: deltas folded
    /// into the empty revision.
    fn build<K: Ord + Clone + Hash, V: Clone>(pairs: &[(K, V)], with_index: bool) -> RevData<K, V> {
        let empty = RevData::empty();
        let len = empty.len_after(puts(pairs));
        empty.apply(puts(pairs), len, with_index)
    }

    fn data(pairs: &[(u64, u64)]) -> RevData<u64, u64> {
        build(pairs, true)
    }

    fn apply(rd: &RevData<u64, u64>, deltas: &[Delta<'_, u64, u64>]) -> RevData<u64, u64> {
        let len = rd.len_after(deltas.iter().copied());
        rd.apply(deltas.iter().copied(), len, true)
    }

    fn split(rd: &RevData<u64, u64>) -> (RevData<u64, u64>, RevData<u64, u64>, u64) {
        rd.apply_split(std::iter::empty(), rd.len(), true)
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

    /// `disable_hash_index`: no `indices` section, lookups binary-search,
    /// and every constructor keeps it that way.
    #[test]
    fn get_without_index_falls_back_to_binary_search() {
        let rd = build(&[(1u64, 10u64), (5, 50), (7, 70)], false);
        assert!(!rd.has_index());
        assert_eq!(rd.get(&5), Some(&50));
        assert_eq!(rd.get(&2), None);
        let d = [Delta::Put(&5, &55)];
        let ovw = rd.apply(d.iter().copied(), 3, false);
        assert!(!ovw.has_index());
        assert_eq!(ovw.get(&5), Some(&55));
        let (l, r, _) = rd.apply_split(std::iter::empty(), 3, false);
        assert!(!l.has_index() && !r.has_index());
        let m = RevData::merge(&l, &r, once(Delta::Remove(&7)), false);
        assert!(!m.has_index());
        assert_eq!(m.keys(), &[1, 5]);
    }

    #[test]
    fn hash_index_handles_bucket_overflow() {
        // Many keys, small value space for hashes mod n: guarantees some
        // buckets overflow (>2 keys per bucket) and exercises the fallback.
        let pairs: Vec<(u64, u64)> = (0..500).map(|i| (i * 3, i)).collect();
        let rd = data(&pairs);
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
        let ins = apply(&rd, &[Delta::Put(&3, &30)]);
        assert_eq!(ins.keys(), &[2, 3, 4]);
        assert_eq!(ins.get(&3), Some(&30));
        assert_eq!(rd.len(), 2, "source is immutable");

        let ovw = apply(&rd, &[Delta::Put(&2, &99)]);
        assert_eq!(ovw.keys(), &[2, 4]);
        assert_eq!(ovw.get(&2), Some(&99));
        assert_eq!(rd.get(&2), Some(&20));
    }

    #[test]
    fn with_put_at_ends() {
        let rd = data(&[(5, 1)]);
        assert_eq!(apply(&rd, &[Delta::Put(&1, &0)]).keys(), &[1, 5]);
        assert_eq!(apply(&rd, &[Delta::Put(&9, &0)]).keys(), &[5, 9]);
    }

    #[test]
    fn with_remove_variants() {
        let rd = data(&[(1, 10), (2, 20), (3, 30)]);
        assert_eq!(apply(&rd, &[Delta::Remove(&2)]).keys(), &[1, 3]);
        assert_eq!(apply(&rd, &[Delta::Remove(&1)]).keys(), &[2, 3]);
        assert_eq!(apply(&rd, &[Delta::Remove(&3)]).keys(), &[1, 2]);
        // Removing an absent key is an identity (batch helping path).
        assert_eq!(apply(&rd, &[Delta::Remove(&7)]).keys(), &[1, 2, 3]);
        assert_eq!(apply(&rd, &[Delta::Remove(&1), Delta::Remove(&2), Delta::Remove(&3)]).len(), 0);
    }

    #[test]
    fn apply_deltas_mixed() {
        let rd = data(&[(2, 20), (4, 40), (6, 60)]);
        let out = apply(
            &rd,
            &[
                Delta::Put(&1, &11),
                Delta::Remove(&2),
                Delta::Put(&4, &44),
                Delta::Put(&5, &55),
                Delta::Remove(&9),
            ],
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
        let out = apply(&rd, &[Delta::Put(&3, &30), Delta::Put(&7, &70)]);
        assert_eq!(out.keys(), &[3, 7]);
    }

    #[test]
    fn concat_adjacent() {
        let a = data(&[(1, 1), (2, 2)]);
        let b = data(&[(5, 5), (8, 8)]);
        let c = RevData::merge(&a, &b, std::iter::empty(), true);
        assert_eq!(c.keys(), &[1, 2, 5, 8]);
        for k in [1u64, 2, 5, 8] {
            assert_eq!(c.get(&k), Some(&k));
        }
        // Deltas between, inside and beyond the two ranges, and removes
        // on both sides, in the same pass.
        let d = [
            Delta::Put(&0, &0),
            Delta::Remove(&2),
            Delta::Put(&3, &3),
            Delta::Remove(&5),
            Delta::Put(&8, &80),
            Delta::Put(&9, &9),
        ];
        let c = RevData::merge(&a, &b, d.iter().copied(), true);
        assert_eq!(c.keys(), &[0, 1, 3, 8, 9]);
        assert_eq!(c.get(&8), Some(&80));
        let e: RevData<u64, u64> = RevData::empty();
        assert_eq!(RevData::merge(&e, &b, once(Delta::Put(&1, &1)), true).keys(), &[1, 5, 8]);
        assert_eq!(RevData::merge(&a, &e, once(Delta::Put(&9, &9)), true).keys(), &[1, 2, 9]);
    }

    #[test]
    fn split_halves_balanced() {
        let rd = data(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)]);
        let (l, r, sk) = split(&rd);
        assert_eq!(sk, 3);
        assert_eq!(l.keys(), &[1, 2]);
        assert_eq!(r.keys(), &[3, 4, 5]);
        // Built from deltas directly: the split point falls on the output.
        let d = [Delta::Remove(&1), Delta::Put(&6, &6), Delta::Put(&7, &7)];
        let (l, r, sk) = rd.apply_split(d.iter().copied(), rd.len_after(d.iter().copied()), true);
        assert_eq!((l.keys(), r.keys(), sk), (&[2, 3, 4][..], &[5, 6, 7][..], 5));
    }

    #[test]
    fn split_halves_two_entries() {
        let rd = data(&[(1, 1), (2, 2)]);
        let (l, r, sk) = split(&rd);
        assert_eq!(sk, 2);
        assert_eq!(l.keys(), &[1]);
        assert_eq!(r.keys(), &[2]);
    }

    #[test]
    #[should_panic]
    fn split_single_entry_panics() {
        split(&data(&[(1, 1)]));
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
        let rd = build(&[("alpha".to_string(), 1u32), ("beta".to_string(), 2)], true);
        assert_eq!(rd.get(&"alpha".to_string()), Some(&1));
        assert_eq!(rd.get(&"gamma".to_string()), None);
    }

    #[test]
    fn large_revision_all_keys_found() {
        let pairs: Vec<(u64, u64)> = (0..4096).map(|i| (i, i * 2)).collect();
        let rd = data(&pairs);
        for k in (0..4096).step_by(7) {
            assert_eq!(rd.get(&k), Some(&(k * 2)));
        }
    }

    #[test]
    fn zero_sized_values() {
        let pairs: Vec<(u64, ())> = (0..100).map(|k| (k * 2, ())).collect();
        let rd = build(&pairs, true);
        assert_eq!(rd.values().len(), 100);
        assert_eq!(rd.get(&40), Some(&()));
        assert_eq!(rd.get(&41), None);
        let d = [Delta::Remove(&40), Delta::Put(&41, &())];
        let out = rd.apply(d.iter().copied(), 100, true);
        assert_eq!(out.get(&41), Some(&()));
        assert_eq!(out.get(&40), None);
        let (l, r, sk) = out.apply_split(std::iter::empty(), 100, true);
        assert_eq!((l.len(), r.len(), sk), (50, 50, 100));
    }

    #[test]
    fn over_aligned_keys() {
        let pairs: Vec<(u128, u8)> = (0..33).map(|k| ((k as u128) << 70, k as u8)).collect();
        let rd = build(&pairs, true);
        assert_eq!(rd.keys().as_ptr() as usize % align_of::<u128>(), 0);
        for (k, v) in &pairs {
            assert_eq!(rd.get(k), Some(v));
        }
        // An odd count of 1-byte values still leaves the hashes aligned.
        let d = [Delta::Put(&7u128, &7u8)];
        let out = rd.apply(d.iter().copied(), 34, true);
        assert_eq!(out.get(&7), Some(&7));
        assert_eq!(out.hashes().as_ptr() as usize % align_of::<u16>(), 0);
    }

    /// Counts live instances, and panics on the `panic_at`-th clone.
    mod tracked {
        use std::cell::Cell;

        thread_local! {
            static LIVE: Cell<isize> = const { Cell::new(0) };
            static CLONES: Cell<usize> = const { Cell::new(0) };
            static PANIC_AT: Cell<usize> = const { Cell::new(usize::MAX) };
        }

        #[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
        pub(super) struct T(String);

        impl T {
            pub(super) fn new(s: impl Into<String>) -> Self {
                LIVE.with(|l| l.set(l.get() + 1));
                T(s.into())
            }
        }

        impl Clone for T {
            fn clone(&self) -> Self {
                let n = CLONES.with(|c| {
                    c.set(c.get() + 1);
                    c.get()
                });
                assert!(n != PANIC_AT.with(Cell::get), "clone #{n} panics");
                T::new(self.0.clone())
            }
        }

        impl Drop for T {
            fn drop(&mut self) {
                LIVE.with(|l| l.set(l.get() - 1));
            }
        }

        pub(super) fn live() -> isize {
            LIVE.with(Cell::get)
        }

        /// Arm a panic on the `n`-th clone from now (`None` disarms).
        pub(super) fn panic_after(n: Option<usize>) {
            CLONES.with(|c| c.set(0));
            PANIC_AT.with(|p| p.set(n.unwrap_or(usize::MAX)));
        }
    }

    /// A clone that panics mid-build, at every possible point of every
    /// constructor: the builder drops exactly the prefix it wrote and
    /// frees the block — no leak, no double drop (a double drop would
    /// drive the live count below the baseline).
    #[test]
    fn panicking_clone_leaks_nothing() {
        use tracked::{live, panic_after, T};
        let pairs: Vec<(T, T)> =
            (0..12).map(|i| (T::new(format!("k{i:02}")), T::new(format!("v{i}")))).collect();
        let left = {
            let e = RevData::empty();
            e.apply(pairs[..6].iter().map(|(k, v)| Delta::Put(k, v)), 6, true)
        };
        let right = {
            let e = RevData::empty();
            e.apply(pairs[6..].iter().map(|(k, v)| Delta::Put(k, v)), 6, true)
        };
        let (nk, nv) = (T::new("k03x"), T::new("new"));
        let baseline = live();
        let deltas = [Delta::Put(&nk, &nv), Delta::Remove(&pairs[4].0)];
        let builds: [&dyn Fn(); 3] = [
            &|| drop(left.apply(deltas.iter().copied(), 6, true)),
            &|| drop(left.apply_split(deltas.iter().copied(), 6, true)),
            &|| drop(RevData::merge(&left, &right, deltas.iter().copied(), true)),
        ];
        for (b, build) in builds.iter().enumerate() {
            for n in 1..=24 {
                panic_after(Some(n));
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(build));
                panic_after(None);
                assert_eq!(live(), baseline, "build {b}, panic at clone #{n}: {r:?}");
            }
            build();
            assert_eq!(live(), baseline, "build {b} without a panic");
        }
        drop((left, right, pairs, nk, nv));
        assert_eq!(live(), 0);
    }

    /// `String` keys and values through split/merge churn (the
    /// `tiny_config` shape), with the live count back at zero after drop.
    #[test]
    fn string_churn_through_splits_and_merges_drops_everything() {
        use crate::{JiffyConfig, JiffyMap};
        use index_api::{Batch, BatchOp};
        use tracked::{live, T};
        {
            let map: JiffyMap<T, T> = JiffyMap::with_config(JiffyConfig {
                min_revision_size: 2,
                max_revision_size: 8,
                fixed_revision_size: Some(4),
                ..Default::default()
            });
            for i in 0..300u32 {
                let k = format!("{:04}", (i * 7919) % 400);
                map.put(T::new(k.clone()), T::new(format!("{i}")));
                if i % 3 == 0 {
                    map.remove(&T::new(format!("{:04}", (i * 31) % 400)));
                }
                if i % 50 == 0 {
                    let ops = (0..20u32)
                        .map(|j| {
                            let k = T::new(format!("{:04}", (i + j * 13) % 400));
                            if j % 4 == 0 {
                                BatchOp::Remove(k)
                            } else {
                                BatchOp::Put(k, T::new("b"))
                            }
                        })
                        .collect();
                    map.batch(Batch::new(ops));
                }
            }
            assert!(map.debug_stats().nodes > 4, "churn must split");
        }
        // Retired revisions sit in this thread's EBR bag until the global
        // epoch moves two steps, which other tests' pins can delay.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        while live() > 0 && std::time::Instant::now() < deadline {
            crossbeam_epoch::pin().flush();
            std::thread::yield_now();
        }
        assert_eq!(live(), 0, "every key and value dropped exactly once");
    }

    /// `apply`, `apply_split`, `len_after`, `merge` and `position`
    /// against a `BTreeMap` model: seeded, across removes of absent keys,
    /// overwrite-only groups (whose copied index must equal a rebuilt
    /// one), empty results, and sizes across `hard_max_revision_size` and
    /// the index's 2-byte limit.
    #[test]
    fn property_against_btreemap() {
        let hard_max = crate::JiffyConfig::default().hard_max_revision_size as u64;
        let mut rng = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |m: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % m
        };
        for round in 0..300 {
            let n = match round % 4 {
                0 => next(8),
                1 => next(300),
                2 => hard_max - 2 + next(4),
                // Once, across the 2-byte index limit: no index section.
                _ if round == 3 => EMPTY_SLOT as u64 - 2 + next(4),
                _ => next(2 * hard_max),
            };
            // Exactly `n` distinct keys, with gaps for inserts between them.
            let span = n * 2 + 8;
            let base: BTreeMap<u64, u64> = (0..n).map(|i| (2 * i + next(2), next(1000))).collect();
            let pairs: Vec<(u64, u64)> = base.iter().map(|(&k, &v)| (k, v)).collect();
            let rd = build(&pairs, true);

            let overwrite_only = round % 3 == 0 && !base.is_empty();
            let mut ops: BTreeMap<u64, Option<u64>> = BTreeMap::new();
            for _ in 0..next(40) {
                let k = if overwrite_only || next(2) == 0 && !pairs.is_empty() {
                    pairs[next(pairs.len() as u64) as usize].0
                } else {
                    next(span)
                };
                let put = overwrite_only || next(3) != 0;
                ops.insert(k, put.then(|| next(1000)));
            }
            if round % 17 == 0 {
                // Remove everything (and some absent keys): empty result.
                ops = pairs.iter().map(|&(k, _)| (k, None)).collect();
                ops.insert(span + 1, None);
            }
            let deltas: Vec<Delta<'_, u64, u64>> = ops
                .iter()
                .map(|(k, v)| match v {
                    Some(v) => Delta::Put(k, v),
                    None => Delta::Remove(k),
                })
                .collect();
            let mut model = base.clone();
            for (k, v) in &ops {
                match v {
                    Some(v) => model.insert(*k, *v),
                    None => model.remove(k),
                };
            }
            let expect: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            let entries = |r: &RevData<u64, u64>| -> Vec<(u64, u64)> {
                r.keys().iter().copied().zip(r.values().iter().copied()).collect()
            };

            let len = rd.len_after(deltas.iter().copied());
            assert_eq!(len, model.len(), "round {round}: len_after");
            let out = rd.apply(deltas.iter().copied(), len, true);
            assert_eq!(entries(&out), expect, "round {round}: apply");
            for (i, (k, _)) in expect.iter().enumerate() {
                assert_eq!(out.position(k), Some(i), "round {round}: position({k})");
            }
            for k in [span, span + 1, u64::MAX] {
                assert_eq!(out.position(&k), None);
            }
            if overwrite_only {
                let rebuilt = build(&expect, true);
                assert_eq!(out.indices(), rebuilt.indices(), "round {round}: copied index");
            }
            if len >= 2 {
                let (l, r, sk) = rd.apply_split(deltas.iter().copied(), len, true);
                let mut both = entries(&l);
                both.extend(entries(&r));
                assert_eq!(both, expect, "round {round}: apply_split");
                assert_eq!((l.len(), sk), (len / 2, expect[len / 2].0));
            }
            // The same deltas against the model split at a random key.
            let cut = next(span);
            let lo: Vec<(u64, u64)> = pairs.iter().copied().filter(|p| p.0 < cut).collect();
            let hi: Vec<(u64, u64)> = pairs.iter().copied().filter(|p| p.0 >= cut).collect();
            let m =
                RevData::merge(&build(&lo, true), &build(&hi, true), deltas.iter().copied(), true);
            assert_eq!(entries(&m), expect, "round {round}: merge at {cut}");
            assert_eq!(m.has_index(), (1..EMPTY_SLOT as usize).contains(&m.len()));
        }
    }
}
