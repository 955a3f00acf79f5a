//! Shard-load drift detection and online split re-derivation.
//!
//! [`shard_splits`](crate::shard_splits) chooses range-shard boundaries
//! *before* a run from the workload's declared key distribution — a
//! guess. Real traffic drifts: a hot range moves, a tenant churns, the
//! declared distribution was wrong. The functions here close the loop
//! from *observed* per-shard operation counts (e.g.
//! `jiffy_shard::ElasticJiffy::debug_stats`) back to split points:
//!
//! * [`load_imbalance`] quantifies how far the observed counts are from
//!   the even spread the construction-time splits aimed for;
//! * [`split_hot_shard`] proposes carving the hottest shard in two;
//! * [`merge_cold_shards`] proposes retiring the coldest adjacent pair
//!   (which is also how an empty shard left behind by drift is removed).
//!
//! All three are pure and deterministic — policy decisions stay
//! testable, and the executor (`jiffy_shard::Resharder`) stays thin.
//! The split-point model is piecewise-uniform: within one shard's range
//! we know only its total count, so the best split estimate is the range
//! midpoint; repeated split/merge steps converge on the traffic's real
//! quantiles the same way the construction-time sampler does, one
//! boundary at a time.

/// Relative load imbalance of per-shard operation counts: the hottest
/// shard's count over the per-shard mean. `1.0` means perfectly even;
/// `2.0` means the hottest shard carries twice its fair share. Returns
/// `1.0` for degenerate inputs (no shards, or no traffic at all), so
/// callers can threshold without special cases.
pub fn load_imbalance(ops: &[u64]) -> f64 {
    let total: u64 = ops.iter().sum();
    if ops.is_empty() || total == 0 {
        return 1.0;
    }
    let mean = total as f64 / ops.len() as f64;
    *ops.iter().max().unwrap() as f64 / mean
}

/// Propose splitting the hottest shard at the midpoint of its key range.
///
/// `splits` are the current strictly increasing range boundaries
/// (`ops.len() - 1` of them) over `[0, key_space)`; `ops` the observed
/// per-shard counts. Returns `(shard, split_key)`, or `None` when the
/// hottest shard's range is too narrow to split (width < 2) or there is
/// no traffic.
pub fn split_hot_shard(splits: &[u64], ops: &[u64], key_space: u64) -> Option<(usize, u64)> {
    assert_eq!(ops.len(), splits.len() + 1, "one count per shard");
    if ops.iter().all(|&c| c == 0) {
        return None;
    }
    let hot = ops.iter().enumerate().max_by_key(|(_, c)| **c).map(|(i, _)| i)?;
    let lo = if hot == 0 { 0 } else { splits[hot - 1] };
    let hi = if hot == splits.len() { key_space } else { splits[hot] };
    let mid = lo + (hi.saturating_sub(lo)) / 2;
    (mid > lo && mid < hi).then_some((hot, mid))
}

/// Propose merging the adjacent shard pair with the lowest combined
/// count; returns the left index of the pair, or `None` with fewer than
/// two shards. An empty (zero-traffic, possibly zero-key) shard always
/// belongs to the winning pair, so drift cleanup retires it naturally.
pub fn merge_cold_shards(ops: &[u64]) -> Option<usize> {
    if ops.len() < 2 {
        return None;
    }
    (0..ops.len() - 1).min_by_key(|&i| ops[i] + ops[i + 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn imbalance_of_even_and_skewed_loads() {
        assert_eq!(load_imbalance(&[]), 1.0);
        assert_eq!(load_imbalance(&[0, 0, 0]), 1.0);
        assert_eq!(load_imbalance(&[100, 100, 100, 100]), 1.0);
        // One shard carries half of all traffic across 4 shards: 2x fair share.
        assert_eq!(load_imbalance(&[300, 100, 100, 100]), 2.0);
        assert!(load_imbalance(&[1000, 1, 1, 1]) > 3.9);
    }

    #[test]
    fn split_targets_the_hot_shard_midpoint() {
        // Shards: [0,100) [100,200) [200,1000); the last is hottest.
        assert_eq!(split_hot_shard(&[100, 200], &[10, 10, 500], 1000), Some((2, 600)));
        // Hot shard 0: midpoint of [0, 100).
        assert_eq!(split_hot_shard(&[100, 200], &[500, 10, 10], 1000), Some((0, 50)));
        // Middle shard.
        assert_eq!(split_hot_shard(&[100, 200], &[10, 500, 10], 1000), Some((1, 150)));
    }

    #[test]
    fn split_declines_unsplittable_ranges() {
        // Hot shard [5, 6) has width 1 — nothing strictly inside it.
        assert_eq!(split_hot_shard(&[5, 6], &[0, 100, 0], 10), None);
        // No traffic at all: no basis for a decision.
        assert_eq!(split_hot_shard(&[100], &[0, 0], 1000), None);
        // Single shard over the whole space splits at the middle.
        assert_eq!(split_hot_shard(&[], &[42], 1000), Some((0, 500)));
    }

    #[test]
    fn merge_picks_the_coldest_adjacent_pair() {
        assert_eq!(merge_cold_shards(&[100]), None);
        assert_eq!(merge_cold_shards(&[100, 1, 2, 100]), Some(1));
        // An empty shard is always part of the winning pair.
        assert_eq!(merge_cold_shards(&[50, 0, 60, 70]), Some(0));
        assert_eq!(merge_cold_shards(&[5, 5]), Some(0));
    }
}
