//! Index factory: build any of the paper's indices behind the common
//! [`OrderedIndex`] trait, for either key shape.

use std::sync::Arc;

use baselines::catree::{AvlContainer, ImmContainer, SkipContainer};
use baselines::snaptree::RangePartitioner;
use baselines::{CaTree, Cslm, KaryTree, LfcaTree, SnapTree};
use index_api::OrderedIndex;
use jiffy::{AtomicClock, JiffyConfig, JiffyMap};
use jiffy_shard::{ElasticJiffy, Router};
use workload::{KeyDist, Value};

/// Default shard count for `sharded-*` kinds parsed without an explicit
/// `:<n>` suffix (overridable with mkbench's `--shards`).
pub const DEFAULT_SHARDS: usize = 4;

/// Every index of the paper's evaluation (plus the Jiffy ablation
/// variants used by the A1/A2 experiments and the sharded map).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    Jiffy,
    /// Jiffy with the atomic-counter clock (ablation A1, §3.2 fn. 3).
    JiffyAtomicClock,
    /// Jiffy without the in-revision hash index (ablation A2, §3.3.5).
    JiffyNoHash,
    /// Jiffy with a fixed revision size (ablation A3, §3.3.6).
    JiffyFixed(usize),
    /// `jiffy-shard`'s `ElasticJiffy` over N Jiffy shards,
    /// range-partitioned with splits drawn from the scenario's key
    /// distribution (never resharded here: a static sharded map).
    Sharded(usize),
    SnapTree,
    KAry,
    CaAvl,
    CaSl,
    CaImm,
    Lfca,
    Cslm,
}

impl IndexKind {
    pub fn name(&self) -> &'static str {
        match self {
            IndexKind::Jiffy => "jiffy",
            IndexKind::JiffyAtomicClock => "jiffy-atomic",
            IndexKind::JiffyNoHash => "jiffy-nohash",
            IndexKind::JiffyFixed(_) => "jiffy-fixed",
            IndexKind::Sharded(_) => "sharded-jiffy",
            IndexKind::SnapTree => "snaptree",
            IndexKind::KAry => "k-ary",
            IndexKind::CaAvl => "ca-avl",
            IndexKind::CaSl => "ca-sl",
            IndexKind::CaImm => "ca-imm",
            IndexKind::Lfca => "lfca",
            IndexKind::Cslm => "cslm",
        }
    }

    /// Report-row label: [`name`](IndexKind::name) plus the parameter for
    /// parameterized kinds (`sharded-jiffy:8`, `jiffy-fixed:64`), so rows
    /// for different configurations stay distinguishable in tables and
    /// `compare` matching.
    pub fn label(&self) -> String {
        match self {
            IndexKind::JiffyFixed(n) => format!("jiffy-fixed:{n}"),
            IndexKind::Sharded(n) => format!("sharded-jiffy:{n}"),
            other => other.name().to_string(),
        }
    }

    /// Parse a CLI index name. Parameterized kinds take a `:<n>` suffix
    /// (`jiffy-fixed:<n>` requires one; `sharded-jiffy` defaults to
    /// `default_shards` without one). Returns a user-facing
    /// message on malformed input — callers turn it into the exit-2
    /// usage error.
    pub fn parse_with_default_shards(s: &str, default_shards: usize) -> Result<IndexKind, String> {
        let parse_param =
            |spec: &str, what: &str, default: Option<usize>| match spec.strip_prefix(':') {
                None if spec.is_empty() => {
                    default.ok_or_else(|| format!("`{s}` needs a {what}: use `{s}:<n>`"))
                }
                // Legacy spelling without the colon (`jiffy-fixed64`).
                None => {
                    spec.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                        format!("`{s}`: {what} must be an integer >= 1, got `{spec}`")
                    })
                }
                Some(digits) => digits.parse().ok().filter(|n| *n >= 1).ok_or_else(|| {
                    format!("`{s}`: {what} must be an integer >= 1, got `{digits}`")
                }),
            };
        Ok(match s {
            "jiffy" => IndexKind::Jiffy,
            "jiffy-atomic" => IndexKind::JiffyAtomicClock,
            "jiffy-nohash" => IndexKind::JiffyNoHash,
            "snaptree" => IndexKind::SnapTree,
            "k-ary" | "kary" => IndexKind::KAry,
            "ca-avl" => IndexKind::CaAvl,
            "ca-sl" => IndexKind::CaSl,
            "ca-imm" => IndexKind::CaImm,
            "lfca" => IndexKind::Lfca,
            "cslm" => IndexKind::Cslm,
            other => {
                if let Some(rest) = other.strip_prefix("jiffy-fixed") {
                    IndexKind::JiffyFixed(parse_param(rest, "revision size", None)?)
                } else if let Some(rest) = other.strip_prefix("sharded-jiffy") {
                    IndexKind::Sharded(parse_param(rest, "shard count", Some(default_shards))?)
                } else {
                    return Err(format!("unknown index `{other}`"));
                }
            }
        })
    }

    /// [`parse_with_default_shards`](IndexKind::parse_with_default_shards)
    /// with the default shard count.
    pub fn parse(s: &str) -> Result<IndexKind, String> {
        Self::parse_with_default_shards(s, DEFAULT_SHARDS)
    }

    /// Whether the index supports atomic batch updates (which indices
    /// appear in the paper's batch rows).
    pub fn supports_batches(&self) -> bool {
        matches!(
            self,
            IndexKind::Jiffy
                | IndexKind::JiffyAtomicClock
                | IndexKind::JiffyNoHash
                | IndexKind::JiffyFixed(_)
                | IndexKind::Sharded(_)
                | IndexKind::CaAvl
                | IndexKind::CaSl
        )
    }
}

fn nohash_config() -> JiffyConfig {
    JiffyConfig { disable_hash_index: true, ..Default::default() }
}

/// Range splits for a sharded kind, chosen from the scenario's key
/// distribution so skewed traffic still spreads across shards.
fn sharded_router_u64(shards: usize, key_space: u64, dist: KeyDist) -> Router<u64> {
    Router::range(workload::shard_splits(dist, key_space, shards))
}

fn sharded_router_u32(shards: usize, key_space: u64, dist: KeyDist) -> Router<u32> {
    // The 4 B shape's key space always fits u32.
    Router::range(
        workload::shard_splits(dist, key_space, shards).into_iter().map(|s| s as u32).collect(),
    )
}

/// Build an index over `u64` keys (used for the 16 B/100 B shape, whose
/// `Key16` keys wrap a u64; benchmarks use u64 directly plus 100 B
/// values to keep comparisons apples-to-apples across all indices).
/// `dist` is the scenario's key distribution — the sharded kinds derive
/// their range splits from it; every other kind ignores it.
pub fn make_index_u64<V: Value>(
    kind: IndexKind,
    key_space: u64,
    dist: KeyDist,
) -> Arc<dyn OrderedIndex<u64, V> + Send + Sync> {
    match kind {
        IndexKind::Jiffy => Arc::new(JiffyMap::<u64, V>::new()),
        IndexKind::JiffyAtomicClock => {
            Arc::new(JiffyMap::<u64, V, AtomicClock>::with_clock_and_config(
                AtomicClock::new(),
                JiffyConfig::default(),
            ))
        }
        IndexKind::JiffyNoHash => Arc::new(JiffyMap::<u64, V>::with_config(nohash_config())),
        IndexKind::JiffyFixed(n) => {
            Arc::new(JiffyMap::<u64, V>::with_config(JiffyConfig::fixed(n)))
        }
        IndexKind::Sharded(n) => Arc::new(ElasticJiffy::<u64, V>::with_router(
            sharded_router_u64(n, key_space, dist),
            JiffyConfig::default(),
        )),
        IndexKind::SnapTree => {
            Arc::new(SnapTree::<u64, V, _>::with_partitioner(64, RangePartitioner { key_space }))
        }
        IndexKind::KAry => Arc::new(KaryTree::<u64, V>::new()),
        IndexKind::CaAvl => Arc::new(CaTree::<u64, V, AvlContainer<u64, V>>::new()),
        IndexKind::CaSl => Arc::new(CaTree::<u64, V, SkipContainer<u64, V>>::new()),
        IndexKind::CaImm => Arc::new(CaTree::<u64, V, ImmContainer<u64, V>>::new()),
        IndexKind::Lfca => Arc::new(LfcaTree::<u64, V>::new()),
        IndexKind::Cslm => Arc::new(Cslm::<u64, V>::new()),
    }
}

/// Build an index over `u32` keys (the 4 B/4 B shape). See
/// [`make_index_u64`] for `dist`.
pub fn make_index_u32<V: Value>(
    kind: IndexKind,
    key_space: u64,
    dist: KeyDist,
) -> Arc<dyn OrderedIndex<u32, V> + Send + Sync> {
    match kind {
        IndexKind::Jiffy => Arc::new(JiffyMap::<u32, V>::new()),
        IndexKind::JiffyAtomicClock => {
            Arc::new(JiffyMap::<u32, V, AtomicClock>::with_clock_and_config(
                AtomicClock::new(),
                JiffyConfig::default(),
            ))
        }
        IndexKind::JiffyNoHash => Arc::new(JiffyMap::<u32, V>::with_config(nohash_config())),
        IndexKind::JiffyFixed(n) => {
            Arc::new(JiffyMap::<u32, V>::with_config(JiffyConfig::fixed(n)))
        }
        IndexKind::Sharded(n) => Arc::new(ElasticJiffy::<u32, V>::with_router(
            sharded_router_u32(n, key_space, dist),
            JiffyConfig::default(),
        )),
        IndexKind::SnapTree => {
            Arc::new(SnapTree::<u32, V, _>::with_partitioner(64, RangePartitioner { key_space }))
        }
        IndexKind::KAry => Arc::new(KaryTree::<u32, V>::new()),
        IndexKind::CaAvl => Arc::new(CaTree::<u32, V, AvlContainer<u32, V>>::new()),
        IndexKind::CaSl => Arc::new(CaTree::<u32, V, SkipContainer<u32, V>>::new()),
        IndexKind::CaImm => Arc::new(CaTree::<u32, V, ImmContainer<u32, V>>::new()),
        IndexKind::Lfca => Arc::new(LfcaTree::<u32, V>::new()),
        IndexKind::Cslm => Arc::new(Cslm::<u32, V>::new()),
    }
}

/// The index line-up of one figure (paper §4.1): batch rows only include
/// the batch-capable indices.
pub fn indices_for_figure(batch_row: bool) -> Vec<IndexKind> {
    if batch_row {
        // The paper's batch plots: Jiffy vs CA-AVL vs CA-SL.
        vec![IndexKind::Jiffy, IndexKind::CaAvl, IndexKind::CaSl]
    } else {
        vec![
            IndexKind::Jiffy,
            IndexKind::SnapTree,
            IndexKind::KAry,
            IndexKind::CaAvl,
            IndexKind::CaSl,
            IndexKind::CaImm,
            IndexKind::Lfca,
            IndexKind::Cslm,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_roundtrip() {
        for kind in [
            IndexKind::Jiffy,
            IndexKind::SnapTree,
            IndexKind::KAry,
            IndexKind::CaAvl,
            IndexKind::CaSl,
            IndexKind::CaImm,
            IndexKind::Lfca,
            IndexKind::Cslm,
        ] {
            assert_eq!(IndexKind::parse(kind.name()), Ok(kind), "{kind:?}");
        }
        // Parameterized kinds round-trip through their labels.
        for kind in [IndexKind::JiffyFixed(64), IndexKind::Sharded(2), IndexKind::Sharded(8)] {
            assert_eq!(IndexKind::parse(&kind.label()), Ok(kind), "{kind:?}");
        }
        // Legacy no-colon spelling still accepted.
        assert_eq!(IndexKind::parse("jiffy-fixed64"), Ok(IndexKind::JiffyFixed(64)));
        assert!(IndexKind::parse("nope").is_err());
    }

    #[test]
    fn parse_sharded_defaults_and_overrides() {
        assert_eq!(IndexKind::parse("sharded-jiffy"), Ok(IndexKind::Sharded(DEFAULT_SHARDS)));
        assert_eq!(
            IndexKind::parse_with_default_shards("sharded-jiffy", 8),
            Ok(IndexKind::Sharded(8))
        );
        assert_eq!(
            IndexKind::parse_with_default_shards("sharded-jiffy:2", 8),
            Ok(IndexKind::Sharded(2)),
            "explicit :<n> beats the --shards default"
        );
    }

    #[test]
    fn parse_rejects_malformed_params_with_a_message() {
        for bad in [
            "jiffy-fixed",
            "jiffy-fixed:",
            "jiffy-fixed:abc",
            "jiffy-fixed:-3",
            "jiffy-fixed:0",
            "jiffy-fixed0", // legacy no-colon spelling validates too
        ] {
            let err = IndexKind::parse(bad).unwrap_err();
            assert!(err.contains("revision size"), "{bad}: {err}");
        }
        for bad in [
            "sharded-jiffy:",
            "sharded-jiffy:zap",
            "sharded-jiffy:0",
            "sharded-jiffy0",
            "sharded-jiffy:-1",
        ] {
            let err = IndexKind::parse(bad).unwrap_err();
            assert!(err.contains("shard count"), "{bad}: {err}");
        }
        assert!(IndexKind::parse("nope").unwrap_err().contains("unknown index"));
    }

    #[test]
    fn every_index_constructs_and_works_u64() {
        for kind in [
            IndexKind::Jiffy,
            IndexKind::JiffyAtomicClock,
            IndexKind::JiffyNoHash,
            IndexKind::JiffyFixed(32),
            IndexKind::Sharded(2),
            IndexKind::Sharded(8),
            IndexKind::SnapTree,
            IndexKind::KAry,
            IndexKind::CaAvl,
            IndexKind::CaSl,
            IndexKind::CaImm,
            IndexKind::Lfca,
            IndexKind::Cslm,
        ] {
            let idx = make_index_u64::<u32>(kind, 1000, KeyDist::Uniform);
            idx.put(5, 50);
            assert_eq!(idx.get(&5), Some(50), "{kind:?}");
            assert!(idx.remove(&5), "{kind:?}");
            assert_eq!(idx.get(&5), None, "{kind:?}");
        }
    }

    #[test]
    fn every_index_constructs_and_works_u32() {
        for kind in [IndexKind::Jiffy, IndexKind::CaAvl, IndexKind::Cslm, IndexKind::Sharded(4)] {
            let idx = make_index_u32::<u32>(kind, 1000, KeyDist::Uniform);
            idx.put(7, 70);
            assert_eq!(idx.get(&7), Some(70), "{kind:?}");
        }
    }

    #[test]
    fn sharded_kinds_use_distribution_aware_splits() {
        // Under hot-range traffic the shards must carve the hot range:
        // the shard owning key 0 must not also own the whole cold space.
        let idx = make_index_u64::<u32>(IndexKind::Sharded(8), 100_000, KeyDist::HotRange);
        for k in (0..100_000).step_by(997) {
            idx.put(k, k as u32);
        }
        let got = idx.scan_collect(&0, usize::MAX);
        assert_eq!(got.len(), 101, "sharded scan must cover the full space");
        assert!(got.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn sharded_capability_flags_in_registry() {
        let jiffy = make_index_u64::<u32>(IndexKind::Sharded(4), 1000, KeyDist::Uniform);
        assert!(jiffy.supports_consistent_scan());
        assert!(jiffy.supports_atomic_batch());
        assert_eq!(jiffy.name(), "elastic-jiffy");
        assert_eq!(IndexKind::Sharded(4).label(), "sharded-jiffy:4");
    }

    #[test]
    fn batch_capable_set_matches_paper() {
        assert!(IndexKind::Jiffy.supports_batches());
        assert!(IndexKind::CaAvl.supports_batches());
        assert!(IndexKind::CaSl.supports_batches());
        assert!(IndexKind::Sharded(4).supports_batches());
        assert!(!IndexKind::Lfca.supports_batches());
        assert!(!IndexKind::SnapTree.supports_batches());
        assert!(!IndexKind::Cslm.supports_batches());
        let batch_lineup = indices_for_figure(true);
        assert_eq!(batch_lineup.len(), 3);
        let full_lineup = indices_for_figure(false);
        assert_eq!(full_lineup.len(), 8);
    }
}
