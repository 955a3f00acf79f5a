//! The autoscaling policy (paper §3.3.6).
//!
//! Revision sizes trade update cost (copying) against read cost (index
//! depth, scan locality). The policy tracks, per revision, two
//! time-weighted exponential moving averages — `pReads` and `pUpdates` —
//! that "roughly correspond to the amount of time spent by threads
//! performing reads and updates" at the node. Weighting by *elapsed time*
//! rather than operation counts avoids the positive feedback loop the
//! paper describes (bigger revisions slow updates, which would otherwise
//! look like a more read-heavy workload, growing revisions further).
//!
//! The target size is a simple linear function of the read share, mapped
//! onto `[min_revision_size, max_revision_size]` (default `[25, 300]`).

use crate::config::JiffyConfig;
use crate::node::RevStats;

/// What kind of update the policy chose (Algorithm 1 line 18).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UpdateKind {
    Regular,
    Split,
    Merge,
}

/// Per-thread bookkeeping: the read-fold throttle (§3.3.6: readers fold
/// statistics only every `READS_PER_STATS_UPDATE` reads). Lives in a
/// thread-local keyed by map instance.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ThreadScaleState {
    pub(crate) reads_since_fold: u32,
}

/// Clamp an elapsed-seconds weight into `(0, 1]` as §3.3.6 requires.
#[inline]
fn clamp_weight(secs: f32) -> f32 {
    if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        // Sub-resolution gap, first op, or NaN: use a tiny positive weight.
        1e-6
    } else if secs > 1.0 {
        1.0
    } else {
        secs
    }
}

/// New EMAs after an *update* touched the node: `pUpdates = t + (1-t)·u`,
/// `pReads = (1-t)·p` with `t` = seconds since this thread's previous
/// update.
#[inline]
pub(crate) fn fold_update(prev: (f32, f32), elapsed_secs: f32) -> (f32, f32) {
    let t = clamp_weight(elapsed_secs);
    let (p, u) = prev;
    ((1.0 - t) * p, t + (1.0 - t) * u)
}

/// New EMAs after a *read* touched the node: `pReads = t + (1-t)·p`,
/// `pUpdates = (1-t)·u` with `t` = seconds this thread spent on the last
/// `READS_PER_STATS_UPDATE` reads.
#[inline]
pub(crate) fn fold_read(prev: (f32, f32), elapsed_secs: f32) -> (f32, f32) {
    let t = clamp_weight(elapsed_secs);
    let (p, u) = prev;
    (t + (1.0 - t) * p, (1.0 - t) * u)
}

/// The target revision size for the observed read share.
pub(crate) fn target_size(config: &JiffyConfig, stats: &RevStats) -> usize {
    if let Some(n) = config.fixed_revision_size {
        return n;
    }
    let (p_reads, p_updates) = stats.load();
    let total = p_reads + p_updates;
    let read_share = if total > f32::EPSILON { p_reads / total } else { 0.5 };
    let span = (config.max_revision_size - config.min_revision_size) as f32;
    config.min_revision_size + (read_share * span) as usize
}

/// A node splits when its head revision would hold at least this many
/// times the target size.
const SPLIT_FACTOR: f64 = 2.0;

/// Decide how an update that would leave `len_after` entries in the head
/// revision should be executed (Algorithm 1 line 18, `autoscaler.query`).
///
/// `can_merge` is false for the base node (it never merges, §3.1) and for
/// operations that cannot express a merge (plain `put`).
pub(crate) fn decide(
    config: &JiffyConfig,
    stats: &RevStats,
    len_after: usize,
    can_merge: bool,
) -> UpdateKind {
    if len_after >= config.hard_max_revision_size {
        return UpdateKind::Split;
    }
    let target = target_size(config, stats);
    if len_after as f64 >= SPLIT_FACTOR * target as f64 && len_after >= 4 {
        return UpdateKind::Split;
    }
    if can_merge && (len_after as f64) <= config.merge_factor * target as f64 {
        return UpdateKind::Merge;
    }
    UpdateKind::Regular
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> JiffyConfig {
        JiffyConfig::default()
    }

    #[test]
    fn weights_clamped() {
        assert_eq!(clamp_weight(2.0), 1.0);
        assert_eq!(clamp_weight(-1.0), 1e-6);
        assert_eq!(clamp_weight(0.0), 1e-6);
        assert_eq!(clamp_weight(0.5), 0.5);
        assert!(clamp_weight(f32::NAN) > 0.0);
    }

    #[test]
    fn update_fold_shifts_toward_updates() {
        let (p, u) = fold_update((1.0, 0.0), 0.5);
        assert!(p < 1.0);
        assert!(u > 0.0);
        // Full weight: completely replaces history.
        let (p, u) = fold_update((1.0, 0.0), 5.0);
        assert_eq!((p, u), (0.0, 1.0));
    }

    #[test]
    fn read_fold_shifts_toward_reads() {
        let (p, u) = fold_read((0.0, 1.0), 0.5);
        assert!(p > 0.0);
        assert!(u < 1.0);
        let (p, u) = fold_read((0.0, 1.0), 5.0);
        assert_eq!((p, u), (1.0, 0.0));
    }

    #[test]
    fn target_size_bounds() {
        let c = cfg();
        // Pure update workload -> minimum size.
        let s = RevStats::new(0.0, 1.0, 0.0);
        assert_eq!(target_size(&c, &s), c.min_revision_size);
        // Pure read workload -> maximum size.
        let s = RevStats::new(1.0, 0.0, 0.0);
        assert_eq!(target_size(&c, &s), c.max_revision_size);
        // Balanced -> mid-range.
        let s = RevStats::new(0.5, 0.5, 0.0);
        let mid = target_size(&c, &s);
        assert!(mid > c.min_revision_size && mid < c.max_revision_size);
        // No signal -> mid-range too.
        let s = RevStats::new(0.0, 0.0, 0.0);
        let t = target_size(&c, &s);
        assert!(t > c.min_revision_size && t < c.max_revision_size);
    }

    #[test]
    fn fixed_size_overrides_stats() {
        let c = JiffyConfig::fixed(64);
        let s = RevStats::new(1.0, 0.0, 0.0);
        assert_eq!(target_size(&c, &s), 64);
    }

    #[test]
    fn decide_split_on_large() {
        let c = cfg();
        let s = RevStats::new(0.0, 1.0, 0.0); // target = 25
        assert_eq!(decide(&c, &s, 50, true), UpdateKind::Split);
        assert_eq!(decide(&c, &s, 30, true), UpdateKind::Regular);
    }

    #[test]
    fn decide_merge_on_small() {
        let c = cfg();
        let s = RevStats::new(0.0, 1.0, 0.0); // target = 25, merge below ~8
        assert_eq!(decide(&c, &s, 4, true), UpdateKind::Merge);
        assert_eq!(decide(&c, &s, 4, false), UpdateKind::Regular, "base node never merges");
    }

    #[test]
    fn decide_hard_cap_always_splits() {
        let c = cfg();
        let s = RevStats::new(1.0, 0.0, 0.0);
        assert_eq!(decide(&c, &s, c.hard_max_revision_size, true), UpdateKind::Split);
    }

    #[test]
    fn tiny_revisions_never_split() {
        let c = cfg();
        let s = RevStats::new(0.0, 1.0, 0.0);
        // Even with an absurd target, splitting below 4 entries is refused.
        let tiny = JiffyConfig { min_revision_size: 2, max_revision_size: 2, ..c };
        assert_ne!(decide(&tiny, &s, 3, false), UpdateKind::Split);
    }

    #[test]
    fn ema_converges_under_sustained_reads() {
        let mut st = (0.0f32, 1.0f32);
        for _ in 0..100 {
            st = fold_read(st, 0.1);
        }
        assert!(st.0 > 0.9, "pReads should dominate, got {:?}", st);
        assert!(st.1 < 0.1);
    }
}
