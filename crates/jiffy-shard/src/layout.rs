//! One routing generation of an [`ElasticJiffy`](crate::ElasticJiffy):
//! `N` Jiffy shards on one shared clock behind a [`Router`], with
//! two-phase cross-shard batches and cut-consistent cross-shard scans.
//!
//! This is the single place that knows *how a multi-shard batch commits*
//! (one shared pending version, descending-shard installs, one commit
//! CAS — see the crate docs for the deadlock-freedom argument) and *how
//! a multi-shard scan picks its cut* (one snapshot per shard, all
//! advanced to one version read from the shared clock).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, Weak};

use crossbeam_utils::CachePadded;
use index_api::{Batch, BatchOp, RevisionStats};
use jiffy::{
    BatchResolver, JiffyMap, MapKey, MapValue, Snapshot, TwoPhasePrepared, TwoPhaseTicket,
};
use jiffy_clock::VersionClock;

use crate::{Router, SharedClock};

/// One Jiffy shard held by handle, so a map instance can be shared
/// between routing generations (untouched shards carry over by `Arc`,
/// not by copy) and outlive the borrow of its layout inside in-flight
/// batch resolvers.
pub(crate) type Shard<K, V> = Arc<JiffyMap<K, V, SharedClock>>;

/// A shard's pinned read view inside a consistent cut.
type View<'a, K, V> = Snapshot<'a, K, V, SharedClock>;

/// The staged sub-batches of one in-flight cross-shard batch, in
/// canonical (descending shard) installation order. Emptied at commit.
type StagedSubs<K, V> = Vec<(usize, Arc<TwoPhasePrepared<K, V>>)>;

/// The label the layout's gauges are reported under.
pub(crate) const LABEL: &str = "elastic-jiffy";

/// The cross-shard help-to-completion routine: install every sub-batch
/// on its shard — descending shard order, the deadlock-freedom rule —
/// then commit the shared ticket. Invoked by the initiator and by any
/// reader/writer that encounters one of the batch's pending entries.
///
/// Reference-cycle discipline: the resolver is retained by every
/// revision the batch installed (via the sub-batch descriptors), so
/// anything it holds strongly outlives the batch. It therefore holds the
/// shard array *weakly* (a strong ref would keep the whole sharded map
/// alive through its own revisions — a permanent cycle) and *empties*
/// the staged set once the ticket commits (the staged handles reference
/// the descriptors that reference this resolver — the other half of the
/// cycle). After commit the retained closure is small and acyclic.
///
/// A stale helper — one whose clone of the staged set predates the
/// commit — can only cause no-ops: `install_prepared` is `help_batch`,
/// which validates the descriptor after each head read it installs
/// against, and `commit_pending` is first-writer-wins on the cell.
fn two_phase_resolver<K: MapKey, V: MapValue>(
    shards: Weak<[Shard<K, V>]>,
    ticket: Arc<TwoPhaseTicket>,
    subs: Arc<Mutex<StagedSubs<K, V>>>,
) -> BatchResolver {
    Arc::new(move || {
        // A dead upgrade means the sharded map was dropped, which is
        // only possible once no operation can reach this batch.
        let Some(shards) = shards.upgrade() else { return };
        // Snapshot the staged set outside the lock; installs can take a
        // while and helpers must not serialize on each other.
        let staged: StagedSubs<K, V> = subs.lock().unwrap_or_else(PoisonError::into_inner).clone();
        for (i, prepared) in staged.iter() {
            shards[*i].install_prepared(prepared);
        }
        shards[0].commit_pending(&ticket);
        // Committed: break the descriptor <-> resolver cycle for every
        // sub-batch at once (idempotent; racing helpers hold clones).
        subs.lock().unwrap_or_else(PoisonError::into_inner).clear();
    })
}

/// A range-partitioned map over `N` Jiffy shards that all stamp
/// writes from one shared clock.
pub(crate) struct Layout<K, V> {
    /// `Arc` so in-flight two-phase batch resolvers can hold the shards
    /// past the borrow of `self` (they live inside shard revisions).
    shards: Arc<[Shard<K, V>]>,
    router: Router<K>,
    /// The clock every shard draws versions from, used to choose the
    /// scan cut version.
    clock: SharedClock,
    /// Per-shard traffic counters behind [`Layout::debug_stats`]: the
    /// observed key-frequency signal that drives online split
    /// re-derivation (see [`Resharder`](crate::Resharder)).
    loads: Box<[ShardCounters]>,
}

/// One shard's traffic counters (cache-padded so hot shards don't false-
/// share with their neighbours; relaxed increments keep the hot paths at
/// one uncontended RMW).
#[derive(Default)]
struct ShardCounters {
    reads: CachePadded<AtomicU64>,
    updates: CachePadded<AtomicU64>,
}

/// Observed traffic of one shard, as reported by
/// [`ElasticJiffy::debug_stats`](crate::ElasticJiffy::debug_stats).
/// Counters accumulate since the layout was committed (relaxed atomics:
/// exact under quiescence, drift-free under contention).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShardLoad {
    /// Point lookups routed to this shard.
    pub reads: u64,
    /// Updates routed to this shard: puts, removes, and per-shard batch
    /// operations.
    pub updates: u64,
    /// The shard's §3.3.6 revision-structure telemetry
    /// ([`index_api::OrderedIndex::revision_stats`]). Where traffic counters say how
    /// *often* a shard is hit, this says how *expensive* each hit has
    /// become (revision growth), so a
    /// [`Resharder`](crate::Resharder)/autoscaler can tell a
    /// hot-but-cheap shard from a shard whose structure is degrading.
    pub revisions: Option<RevisionStats>,
}

impl ShardLoad {
    /// Total operations routed to this shard.
    pub fn total(&self) -> u64 {
        self.reads + self.updates
    }
}

impl<K: MapKey, V: MapValue> Layout<K, V> {
    /// Wrap pre-built shards behind `router`. `clock` must be the *same*
    /// clock every shard stamps its writes with — that is what makes one
    /// commit version and one scan cut meaningful across shards.
    pub(crate) fn new(shards: Vec<Shard<K, V>>, router: Router<K>, clock: SharedClock) -> Self {
        assert!(!shards.is_empty(), "need at least one shard");
        assert_eq!(
            shards.len(),
            router.shard_count(),
            "router addresses {} shards but {} were provided",
            router.shard_count(),
            shards.len()
        );
        let loads = (0..router.shard_count()).map(|_| ShardCounters::default()).collect();
        Layout { shards: shards.into(), router, clock, loads }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub(crate) fn shards(&self) -> &[Shard<K, V>] {
        &self.shards
    }

    pub(crate) fn router(&self) -> &Router<K> {
        &self.router
    }

    /// Per-shard traffic counters (reads and updates routed to each
    /// shard since construction) plus each shard's revision telemetry.
    pub(crate) fn debug_stats(&self) -> Vec<ShardLoad> {
        self.loads
            .iter()
            .zip(self.shards.iter())
            .map(|(c, shard)| ShardLoad {
                reads: c.reads.load(Ordering::Relaxed),
                updates: c.updates.load(Ordering::Relaxed),
                // Path-qualified: with the trait imported, `shard.put(..)`
                // would resolve to `Arc<T>`'s forwarding impl instead of
                // `JiffyMap`'s inherent methods.
                revisions: index_api::OrderedIndex::revision_stats(&**shard),
            })
            .collect()
    }

    /// [`debug_stats`](Layout::debug_stats) folded into the shared
    /// observability gauge type — one [`jiffy_obs::ShardObs`] per shard
    /// plus whole-map aggregates — ready for
    /// [`jiffy_obs::ObsSnapshot::add_structure`].
    pub(crate) fn obs_stats(&self) -> jiffy_obs::StructureStats {
        let mut out = jiffy_obs::StructureStats { label: LABEL.to_string(), ..Default::default() };
        for load in self.debug_stats() {
            let mut shard = jiffy_obs::ShardObs {
                reads: load.reads,
                updates: load.updates,
                ..Default::default()
            };
            if let Some(r) = load.revisions {
                shard.nodes = r.nodes;
                shard.entries = r.entries;
                shard.mean_revision_size = r.mean_revision_size();
                shard.max_revision_depth = r.max_revision_depth;
                out.nodes += r.nodes;
                out.entries += r.entries;
                out.max_revision_depth = out.max_revision_depth.max(r.max_revision_depth);
            }
            out.shards.push(shard);
        }
        if out.nodes > 0 {
            out.mean_revision_size = out.entries as f64 / out.nodes as f64;
        }
        out
    }

    /// Sum of the shards' revision telemetry.
    pub(crate) fn revision_stats(&self) -> Option<RevisionStats> {
        let mut acc: Option<RevisionStats> = None;
        for shard in self.shards.iter() {
            if let Some(s) = index_api::OrderedIndex::revision_stats(&**shard) {
                acc.get_or_insert_with(Default::default).merge(&s);
            }
        }
        acc
    }

    /// A cross-shard batch flips everywhere at one shared-version CAS,
    /// so a get routed straight to its shard can never watch a batch
    /// land shard by shard — no wait, ever.
    pub(crate) fn get(&self, key: &K) -> Option<V> {
        let shard = self.router.route(key);
        self.loads[shard].reads.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].get(key)
    }

    pub(crate) fn put(&self, key: K, value: V) {
        let shard = self.router.route(&key);
        self.loads[shard].updates.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].put(key, value);
    }

    pub(crate) fn remove(&self, key: &K) -> bool {
        let shard = self.router.route(key);
        self.loads[shard].updates.fetch_add(1, Ordering::Relaxed);
        self.shards[shard].remove(key).is_some()
    }

    /// Consistent scan over a pinned cut, emitted as runs (the
    /// [`OrderedIndex::scan_runs`](index_api::OrderedIndex::scan_runs)
    /// contract): the views in key order, starting at `lo`'s shard,
    /// crediting the shared limit run by run.
    pub(crate) fn scan_runs(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&[K], &[V])) {
        if n == 0 {
            return;
        }
        if self.shards.len() == 1 {
            return self.shards[0].snapshot().scan_runs(lo, n, sink);
        }
        let views = self.pin_consistent_cut();
        let mut remaining = n;
        for view in views.iter().skip(self.router.route(lo)) {
            if remaining == 0 {
                break;
            }
            view.scan_runs(lo, remaining, &mut |ks, vs| {
                sink(ks, vs);
                remaining -= ks.len();
            });
        }
    }

    pub(crate) fn batch_update(&self, batch: Batch<K, V>) {
        if self.shards.len() == 1 {
            self.loads[0].updates.fetch_add(batch.len() as u64, Ordering::Relaxed);
            return self.shards[0].batch(batch);
        }
        let mut per_shard: Vec<Vec<BatchOp<K, V>>> =
            (0..self.shards.len()).map(|_| Vec::new()).collect();
        for op in batch.into_ops() {
            per_shard[self.router.route(op.key())].push(op);
        }
        for (i, ops) in per_shard.iter().enumerate() {
            if !ops.is_empty() {
                self.loads[i].updates.fetch_add(ops.len() as u64, Ordering::Relaxed);
            }
        }
        let touched = per_shard.iter().filter(|ops| !ops.is_empty()).count();
        if touched <= 1 {
            // Single-shard batch: the shard's own atomicity suffices, no
            // cross-shard coordination cost.
            for (i, ops) in per_shard.into_iter().enumerate() {
                if !ops.is_empty() {
                    self.shards[i].batch(Batch::new(ops));
                }
            }
            return;
        }
        self.two_phase_batch(per_shard);
    }

    /// Pin a consistent cut: one snapshot per shard, all advanced to a
    /// single version from the shared clock.
    ///
    /// No validation loop is needed: a cross-shard batch has exactly one
    /// version (the shared pending cell), so every shard's snapshot read
    /// reaches the same include/exclude verdict — a pending entry at or
    /// below the cut is *helped* (the reader-side resolution of the
    /// §3.3.3 protocol, which installs the batch's remaining sub-batches
    /// and commits) and then judged by its final version; one above the
    /// cut is skipped outright.
    fn pin_consistent_cut(&self) -> Vec<View<'_, K, V>> {
        let mut views: Vec<_> = self.shards.iter().map(|s| s.snapshot()).collect();
        let cut = self.clock.now() as i64;
        for view in views.iter_mut() {
            view.advance_to(cut);
        }
        // Writes beginning after this point must receive versions
        // strictly greater than the cut (the paper's `wait_until` idiom;
        // with a TSC/nanosecond clock this loop essentially never
        // iterates).
        while self.clock.now() as i64 <= cut {
            std::hint::spin_loop();
        }
        views
    }

    /// Commit a multi-shard batch through the shared pending-version
    /// protocol: stage every sub-batch under one ticket, install
    /// (descending shard order), flip the ticket. Independent batches on
    /// this path never wait on each other; overlapping ones sort
    /// themselves out through §3.3.3 helping.
    fn two_phase_batch(&self, per_shard: Vec<Vec<BatchOp<K, V>>>) {
        // One pending version for the whole batch, drawn once from the
        // shared clock (every shard stamps from it, so shard 0's draw is
        // the batch's version candidate).
        let ticket = self.shards[0].pending_version();
        let subs: Arc<Mutex<StagedSubs<K, V>>> = Arc::new(Mutex::new(Vec::new()));
        let resolver = two_phase_resolver(
            Arc::downgrade(&self.shards),
            Arc::clone(&ticket),
            Arc::clone(&subs),
        );
        // Phase 1a (stage): bind each sub-batch to the ticket — nothing
        // visible yet. Collected in descending shard order, the
        // canonical installation order (see the crate-level
        // deadlock-freedom argument).
        let staged: StagedSubs<K, V> = per_shard
            .into_iter()
            .enumerate()
            .rev()
            .filter(|(_, ops)| !ops.is_empty())
            .map(|(i, ops)| {
                (i, self.shards[i].prepare_batch(Batch::new(ops), &ticket, Arc::clone(&resolver)))
            })
            .collect();
        // Publish the staged set before the first install so any helper
        // that reaches a pending revision can finish the whole batch
        // (visibility rides the revision publications: helpers only find
        // the resolver through installed revisions, which the resolver
        // installs after this store).
        *subs.lock().unwrap_or_else(PoisonError::into_inner) = staged;
        // Phase 1b (install) + phase 2 (commit): exactly what a helper
        // does, so just run the resolver ourselves.
        resolver();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layout(router: Router<u64>) -> Layout<u64, u64> {
        let clock: SharedClock = Arc::new(jiffy::DefaultClock::default());
        let shards = (0..router.shard_count())
            .map(|_| {
                Arc::new(JiffyMap::with_clock_and_config(Arc::clone(&clock), Default::default()))
            })
            .collect();
        Layout::new(shards, router, clock)
    }

    /// Collect a scan's runs, checking the run contract on the way: no
    /// empty run, keys and values paired, keys strictly ascending within
    /// and across runs, at most `n` entries in total.
    fn runs_of(layout: &Layout<u64, u64>, lo: u64, n: usize) -> Vec<Vec<(u64, u64)>> {
        let mut runs: Vec<Vec<(u64, u64)>> = Vec::new();
        layout.scan_runs(&lo, n, &mut |ks, vs| {
            assert!(!ks.is_empty(), "empty run");
            assert_eq!(ks.len(), vs.len());
            runs.push(ks.iter().copied().zip(vs.iter().copied()).collect());
        });
        let flat: Vec<u64> = runs.iter().flatten().map(|(k, _)| *k).collect();
        assert!(flat.windows(2).all(|w| w[0] < w[1]), "keys must ascend across runs: {flat:?}");
        assert!(flat.len() <= n, "{} entries for a limit of {n}", flat.len());
        assert!(flat.iter().all(|k| *k >= lo));
        runs
    }

    /// Run-based twin of `scan_limits_are_exact_across_boundaries`: the
    /// shared limit is credited per run, so it must cut the run it lands
    /// in — mid-revision, in whichever shard that is — and no view past
    /// it may be read.
    #[test]
    fn range_runs_are_exact_across_boundaries() {
        let layout = layout(Router::range(vec![100, 200]));
        for k in 0..300u64 {
            layout.put(k, k);
        }
        // Starts in shard 0, crosses shard 1 whole, ends inside shard 2.
        let runs = runs_of(&layout, 95, 110);
        let flat: Vec<(u64, u64)> = runs.iter().flatten().copied().collect();
        assert_eq!(flat, (95..205u64).map(|k| (k, k)).collect::<Vec<_>>());
        // A run never spans a shard boundary (shards are separate maps)...
        for run in &runs {
            let (first, last) = (run[0].0, run[run.len() - 1].0);
            assert_eq!(first / 100, last / 100, "run {first}..={last} spans a shard boundary");
        }
        // ...and these are real runs, not one-entry adapters.
        assert!(runs.iter().any(|r| r.len() > 1), "range routing must emit multi-entry runs");
        // Every limit from 0 to past the end is honoured exactly.
        for n in [0usize, 1, 4, 5, 6, 104, 105, 106, 204, 205, 206, 1000] {
            let got: Vec<u64> = runs_of(&layout, 95, n).iter().flatten().map(|e| e.0).collect();
            assert_eq!(got, (95..300u64).take(n).collect::<Vec<_>>(), "limit {n}");
        }
        assert_eq!(runs_of(&layout, 299, 10), vec![vec![(299, 299)]]);
        assert!(runs_of(&layout, 300, 10).is_empty());
    }
}
