//! Key and value shapes (paper §4.2).
//!
//! The paper benchmarks with key/value sizes of 16 B/100 B and 4 B/4 B.
//! Its footnote 7 notes that the Java arrays inside revisions store
//! *references* to key/value objects, so revision copying cost is
//! independent of the payload size; we reproduce that by using
//! `Arc<[u8]>` for the 100 B values (copying a revision moves 8 B
//! handles) and plain `u32` for the 4 B case.

use std::sync::Arc;

use crate::zipf::Zipfian;

/// A 16-byte, order-preserving key (big-endian u64 embedded in 16 bytes,
/// the remaining bytes a fixed tag — mirroring the paper's 16 B keys).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Key16(pub [u8; 16]);

impl From<u64> for Key16 {
    #[inline]
    fn from(v: u64) -> Self {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&v.to_be_bytes());
        b[8..].copy_from_slice(b"jiffy-k!");
        Key16(b)
    }
}

impl Key16 {
    /// Recover the numeric key.
    #[inline]
    pub fn as_u64(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }
}

/// Benchmark value constructors for the two shapes. `PartialEq` because
/// `ElasticJiffy` diffs values when it drains a shard migration.
pub trait Value: Clone + PartialEq + Send + Sync + 'static {
    /// Build a value derived from `seed`.
    fn make(seed: u64) -> Self;
    /// Payload size in bytes (for reporting).
    fn payload_bytes() -> usize;
}

impl Value for u32 {
    #[inline]
    fn make(seed: u64) -> Self {
        seed as u32
    }
    fn payload_bytes() -> usize {
        4
    }
}

impl Value for u64 {
    #[inline]
    fn make(seed: u64) -> Self {
        seed
    }
    fn payload_bytes() -> usize {
        8
    }
}

/// 100-byte payload behind an `Arc` (reference semantics like Java).
impl Value for Arc<[u8]> {
    fn make(seed: u64) -> Self {
        let mut v = vec![0u8; 100];
        v[..8].copy_from_slice(&seed.to_le_bytes());
        v[8] = (seed >> 56) as u8;
        Arc::from(v.into_boxed_slice())
    }
    fn payload_bytes() -> usize {
        100
    }
}

/// Which value shape a scenario uses (for reporting only; the harness is
/// generic over [`Value`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValueShape {
    /// 4 B keys / 4 B values (paper Figs. 6, 9, 10).
    Small,
    /// 16 B keys / 100 B values (paper Figs. 5, 7, 8).
    Large,
}

/// Key distribution (paper §4.2: uniform or Zipfian 0.99; `HotRange`
/// is ours — shard-adversarial traffic for the sharding experiments).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum KeyDist {
    Uniform,
    Zipfian,
    /// Shard-skewed traffic: [`HOT_TRAFFIC_PCT`]% of draws land in the
    /// bottom [`HOT_SPAN_DIV`]th of the key space (one shard's range
    /// under uniform range partitioning), the rest are uniform over the
    /// whole space. Zipfian skew hammers individual *keys*; this hammers
    /// a contiguous *range* — the pattern that starves a range-sharded
    /// index while leaving a hash-sharded or single index unbothered.
    HotRange,
}

/// Share of `HotRange` draws aimed at the hot range, in percent.
pub const HOT_TRAFFIC_PCT: u64 = 90;
/// The hot range is the bottom `1/HOT_SPAN_DIV` of the key space.
pub const HOT_SPAN_DIV: u64 = 10;

impl KeyDist {
    /// Single-letter tag used in the paper's plot ids (`u` / `z`; `h`
    /// for the shard-skewed hot-range distribution).
    pub fn tag(&self) -> &'static str {
        match self {
            KeyDist::Uniform => "u",
            KeyDist::Zipfian => "z",
            KeyDist::HotRange => "h",
        }
    }
}

/// Per-thread key generator over `[0, key_space)`.
#[derive(Clone)]
pub struct KeyGen {
    dist: KeyDist,
    key_space: u64,
    zipf: Option<Zipfian>,
    state: u64,
}

impl KeyGen {
    pub fn new(dist: KeyDist, key_space: u64, seed: u64) -> Self {
        let zipf = match dist {
            KeyDist::Uniform | KeyDist::HotRange => None,
            KeyDist::Zipfian => Some(Zipfian::new(key_space)),
        };
        KeyGen { dist, key_space, zipf, state: seed.max(1) }
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // xorshift64*: fast, good enough for workload draws.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Next key according to the distribution.
    #[inline]
    pub fn next_key(&mut self) -> u64 {
        let r = self.next_u64();
        match self.dist {
            KeyDist::Uniform => r % self.key_space,
            KeyDist::Zipfian => self.zipf.as_ref().unwrap().sample(r),
            KeyDist::HotRange => {
                let k = self.next_u64();
                if r % 100 < HOT_TRAFFIC_PCT {
                    k % (self.key_space / HOT_SPAN_DIV).max(1)
                } else {
                    k % self.key_space
                }
            }
        }
    }

    /// A raw uniform draw (for op-type coin flips etc.).
    #[inline]
    pub fn next_raw(&mut self) -> u64 {
        self.next_u64()
    }

    pub fn key_space(&self) -> u64 {
        self.key_space
    }
}

/// Choose `shards - 1` strictly increasing split keys over
/// `[0, key_space)` so that the *traffic* of `dist` — not the key space —
/// spreads evenly across shards: sample the distribution and cut at its
/// quantiles. For `Uniform` this degenerates to equal-width ranges; for
/// `Zipfian` / `HotRange` the hot region is carved into narrow shards.
/// Deterministic (fixed sampling seed), so every run of a benchmark
/// partitions identically.
pub fn shard_splits(dist: KeyDist, key_space: u64, shards: usize) -> Vec<u64> {
    assert!(shards >= 1, "need at least one shard");
    assert!(key_space >= shards as u64, "key space smaller than shard count");
    if shards == 1 {
        return Vec::new();
    }
    let samples = 4096usize.max(shards * 64);
    let mut gen = KeyGen::new(dist, key_space, 0x5EED_0F57_1175);
    let mut keys: Vec<u64> = (0..samples).map(|_| gen.next_key()).collect();
    keys.sort_unstable();
    let mut splits = Vec::with_capacity(shards - 1);
    for i in 1..shards {
        // Clamp each quantile so splits stay strictly increasing and
        // every shard keeps at least one key, even when the distribution
        // collapses many quantiles onto one hot key.
        let lo_bound = splits.last().map_or(1, |s: &u64| s + 1);
        let hi_bound = key_space - (shards - i) as u64;
        splits.push(keys[i * samples / shards].clamp(lo_bound, hi_bound));
    }
    splits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key16_preserves_order() {
        let ks: Vec<Key16> =
            [0u64, 1, 255, 256, 1 << 32, u64::MAX].iter().map(|&v| v.into()).collect();
        for w in ks.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(Key16::from(12345).as_u64(), 12345);
    }

    #[test]
    fn value_shapes() {
        assert_eq!(<u32 as Value>::make(7), 7u32);
        let v = <Arc<[u8]> as Value>::make(42);
        assert_eq!(v.len(), 100);
        assert_eq!(<Arc<[u8]> as Value>::payload_bytes(), 100);
        // Arc clone is cheap reference copy.
        let v2 = v.clone();
        assert!(Arc::ptr_eq(&v, &v2));
    }

    #[test]
    fn uniform_keygen_covers_space() {
        let mut g = KeyGen::new(KeyDist::Uniform, 100, 42);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10_000 {
            let k = g.next_key();
            assert!(k < 100);
            seen.insert(k);
        }
        assert!(seen.len() > 95, "uniform draw should cover the space: {}", seen.len());
    }

    #[test]
    fn zipfian_keygen_is_skewed() {
        let mut g = KeyGen::new(KeyDist::Zipfian, 100_000, 42);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..100_000 {
            *counts.entry(g.next_key()).or_insert(0usize) += 1;
        }
        let max = *counts.values().max().unwrap();
        assert!(max > 100, "zipf should have hot keys, max count {max}");
    }

    #[test]
    fn hot_range_keygen_is_shard_skewed() {
        let space = 100_000u64;
        let mut g = KeyGen::new(KeyDist::HotRange, space, 42);
        let mut hot = 0usize;
        const DRAWS: usize = 100_000;
        for _ in 0..DRAWS {
            let k = g.next_key();
            assert!(k < space);
            if k < space / HOT_SPAN_DIV {
                hot += 1;
            }
        }
        // ~91% expected in the hot tenth (90% aimed + 10%·1/10 strays).
        let frac = hot as f64 / DRAWS as f64;
        assert!(frac > 0.85 && frac < 0.96, "hot fraction {frac}");
    }

    #[test]
    fn shard_splits_uniform_are_roughly_equal_width() {
        let splits = shard_splits(KeyDist::Uniform, 100_000, 4);
        assert_eq!(splits.len(), 3);
        assert!(splits.windows(2).all(|w| w[0] < w[1]), "{splits:?}");
        for (i, s) in splits.iter().enumerate() {
            let ideal = 25_000 * (i as u64 + 1);
            let err = s.abs_diff(ideal);
            assert!(err < 5_000, "split {i} = {s}, ideal {ideal}");
        }
    }

    #[test]
    fn shard_splits_follow_the_traffic_not_the_key_space() {
        // Under hot-range traffic the quantile splits must crowd into
        // the hot tenth — that is what lets a range-sharded index spread
        // skewed load.
        let splits = shard_splits(KeyDist::HotRange, 100_000, 8);
        assert_eq!(splits.len(), 7);
        assert!(splits.windows(2).all(|w| w[0] < w[1]), "{splits:?}");
        let inside_hot = splits.iter().filter(|s| **s <= 10_000).count();
        assert!(inside_hot >= 5, "only {inside_hot} of 7 splits in the hot range: {splits:?}");
    }

    #[test]
    fn shard_splits_always_strictly_increasing_and_in_range() {
        for dist in [KeyDist::Uniform, KeyDist::Zipfian, KeyDist::HotRange] {
            for shards in [1usize, 2, 3, 8, 16] {
                let splits = shard_splits(dist, 1_000, shards);
                assert_eq!(splits.len(), shards - 1, "{dist:?} {shards}");
                assert!(splits.windows(2).all(|w| w[0] < w[1]), "{dist:?}: {splits:?}");
                assert!(splits.iter().all(|s| *s >= 1 && *s < 1_000), "{dist:?}: {splits:?}");
            }
        }
        // Degenerate: key space barely fits the shard count (Zipfian
        // collapses nearly all samples onto the first keys).
        let splits = shard_splits(KeyDist::Zipfian, 16, 16);
        assert_eq!(splits, (1..16).collect::<Vec<u64>>());
    }

    #[test]
    fn distinct_seeds_distinct_streams() {
        let mut a = KeyGen::new(KeyDist::Uniform, 1_000_000, 1);
        let mut b = KeyGen::new(KeyDist::Uniform, 1_000_000, 2);
        let sa: Vec<u64> = (0..32).map(|_| a.next_key()).collect();
        let sb: Vec<u64> = (0..32).map(|_| b.next_key()).collect();
        assert_ne!(sa, sb);
    }
}
