//! Key-to-shard routing.
//!
//! `N - 1` strictly increasing split keys partition the key space into
//! `N` contiguous ranges (shard `i` owns `[splits[i-1], splits[i])`, with
//! open ends at both extremes). Shard order is key order, so an ordered
//! scan walks the shards one after another, and split points can be
//! chosen from the workload's key distribution (`workload::shard_splits`)
//! so skewed traffic still spreads evenly.

use crate::reshard::ReshardError;

/// Maps keys to shard indices: contiguous ranges bounded by strictly
/// increasing split keys (see the module docs).
#[derive(Clone, Debug)]
pub struct Router<K> {
    /// `shard_count() - 1` split keys, strictly increasing; shard `i`
    /// owns keys in `[splits[i-1], splits[i])`.
    splits: Vec<K>,
}

impl<K: Ord> Router<K> {
    /// A range router from explicit split keys (must be strictly
    /// increasing). `splits.len() + 1` shards.
    pub fn range(splits: Vec<K>) -> Self {
        assert!(splits.windows(2).all(|w| w[0] < w[1]), "range splits must be strictly increasing");
        Router { splits }
    }

    /// How many shards this router addresses.
    pub fn shard_count(&self) -> usize {
        self.splits.len() + 1
    }

    /// The shard that owns `key`.
    #[inline]
    pub fn route(&self, key: &K) -> usize {
        self.splits.partition_point(|s| s <= key)
    }

    /// The key range shard `shard` owns, as `(lo, hi)` with `lo`
    /// inclusive, `hi` exclusive and `None` meaning unbounded (`-inf` /
    /// `+inf`); `None` overall when there is no such shard.
    pub fn shard_bounds(&self, shard: usize) -> Option<(Option<&K>, Option<&K>)> {
        if shard > self.splits.len() {
            return None;
        }
        let lo = if shard == 0 { None } else { Some(&self.splits[shard - 1]) };
        Some((lo, self.splits.get(shard)))
    }

    /// The split keys.
    pub fn splits(&self) -> &[K] {
        &self.splits
    }
}

impl<K: Ord + Clone> Router<K> {
    /// Derive the router that results from splitting the shard owning
    /// `at` into two at that key: the left half keeps `[lo, at)`, the
    /// right half takes `[at, hi)`. Returns the new router plus the index
    /// of the shard that was split (whose two successors sit at that
    /// index and the next).
    ///
    /// Errors: a split point equal to an existing boundary would produce
    /// a shard owning no keys *and* a non-strictly-increasing split
    /// vector, so it is rejected ([`ReshardError::BoundaryCollision`]).
    pub fn with_split_inserted(&self, at: K) -> Result<(Router<K>, usize), ReshardError> {
        let shard = self.route(&at);
        if shard > 0 && self.splits[shard - 1] == at {
            return Err(ReshardError::BoundaryCollision);
        }
        let mut splits = self.splits.clone();
        splits.insert(shard, at);
        Ok((Router { splits }, shard))
    }

    /// Derive the router that results from merging shards `left` and
    /// `left + 1` into one (dropping the boundary between them). Either
    /// side may be empty of keys — a merge is exactly how an empty shard
    /// left behind by traffic drift is retired.
    ///
    /// Errors: [`ReshardError::ShardOutOfRange`] when `left + 1` is not a
    /// shard.
    pub fn with_split_removed(&self, left: usize) -> Result<Router<K>, ReshardError> {
        // Validate before computing `left + 1`: with `left = usize::MAX`
        // the addition itself would overflow.
        if left >= self.splits.len() {
            return Err(ReshardError::ShardOutOfRange(left.saturating_add(1)));
        }
        let mut splits = self.splits.clone();
        splits.remove(left);
        Ok(Router { splits })
    }
}

impl Router<u64> {
    /// A range router with equal-width ranges over `[0, key_space)` —
    /// the right choice for uniform traffic.
    pub fn range_uniform(shards: usize, key_space: u64) -> Self {
        assert!(shards >= 1, "need at least one shard");
        assert!(key_space >= shards as u64, "key space smaller than shard count");
        Router { splits: (1..shards as u64).map(|i| key_space * i / shards as u64).collect() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_routes_in_key_order() {
        let r = Router::range(vec![10u64, 20, 30]);
        assert_eq!(r.shard_count(), 4);
        assert_eq!(r.route(&0), 0);
        assert_eq!(r.route(&9), 0);
        assert_eq!(r.route(&10), 1);
        assert_eq!(r.route(&19), 1);
        assert_eq!(r.route(&20), 2);
        assert_eq!(r.route(&30), 3);
        assert_eq!(r.route(&u64::MAX), 3);
    }

    #[test]
    fn range_uniform_covers_every_shard() {
        let r = Router::range_uniform(8, 8000);
        assert_eq!(r.shard_count(), 8);
        let mut seen = vec![false; 8];
        for k in 0..8000u64 {
            seen[r.route(&k)] = true;
        }
        assert!(seen.iter().all(|s| *s), "{seen:?}");
        // Equal-width: boundaries at multiples of 1000.
        assert_eq!(r.route(&999), 0);
        assert_eq!(r.route(&1000), 1);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn range_rejects_unsorted_splits() {
        let _ = Router::range(vec![5u64, 5]);
    }

    #[test]
    fn shard_bounds_cover_the_space() {
        let r = Router::range(vec![10u64, 20]);
        assert_eq!(r.shard_bounds(0), Some((None, Some(&10))));
        assert_eq!(r.shard_bounds(1), Some((Some(&10), Some(&20))));
        assert_eq!(r.shard_bounds(2), Some((Some(&20), None)));
        assert_eq!(r.shard_bounds(3), None, "out-of-range shard");
    }

    #[test]
    fn split_insertion_splits_the_owning_shard() {
        let r = Router::range(vec![10u64, 20]);
        let (r2, shard) = r.with_split_inserted(15).unwrap();
        assert_eq!(shard, 1);
        assert_eq!(r2.splits(), &[10, 15, 20]);
        assert_eq!(r2.shard_count(), 4);
        // Splitting the unbounded edge shards works too.
        let (lo, _) = r.with_split_inserted(5).unwrap();
        assert_eq!(lo.splits(), &[5, 10, 20]);
        let (hi, shard) = r.with_split_inserted(1000).unwrap();
        assert_eq!(hi.splits(), &[10, 20, 1000]);
        assert_eq!(shard, 2);
    }

    #[test]
    fn split_at_existing_boundary_is_rejected() {
        let r = Router::range(vec![10u64, 20]);
        assert_eq!(r.with_split_inserted(10).unwrap_err(), ReshardError::BoundaryCollision);
        assert_eq!(r.with_split_inserted(20).unwrap_err(), ReshardError::BoundaryCollision);
        // ...but a key 0 split of the lowest shard is legal (the left
        // half simply owns no representable u64 keys — an empty shard,
        // retired later by a merge).
        let (r2, shard) = r.with_split_inserted(0).unwrap();
        assert_eq!((r2.splits(), shard), (&[0u64, 10, 20][..], 0));
    }

    #[test]
    fn merge_removes_one_boundary() {
        let r = Router::range(vec![10u64, 20]);
        assert_eq!(r.with_split_removed(0).unwrap().splits(), &[20]);
        assert_eq!(r.with_split_removed(1).unwrap().splits(), &[10]);
        assert_eq!(r.with_split_removed(2).unwrap_err(), ReshardError::ShardOutOfRange(3));
        // A single-shard router has nothing to merge.
        let one = Router::range(Vec::<u64>::new());
        assert_eq!(one.with_split_removed(0).unwrap_err(), ReshardError::ShardOutOfRange(1));
        // Pathological indices must error, not overflow `left + 1`.
        assert_eq!(
            r.with_split_removed(usize::MAX).unwrap_err(),
            ReshardError::ShardOutOfRange(usize::MAX)
        );
    }

    #[test]
    fn single_shard_routers() {
        let r = Router::range(Vec::<u64>::new());
        assert_eq!(r.shard_count(), 1);
        assert_eq!(r.route(&42), 0);
        assert_eq!(r.shard_bounds(0), Some((None, None)));
    }
}
