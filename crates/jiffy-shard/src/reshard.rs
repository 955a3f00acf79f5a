//! Online shard split/merge with snapshot-assisted migration.
//!
//! One shard layout (a `layout::Layout`) freezes its [`Router`] at
//! construction; a store under drifting traffic needs to *reshape* the
//! layout without stopping reads or writes. This module lifts Jiffy's
//! own split/merge of skip-list nodes (paper §3.1) one level up — to
//! shards — using the two primitives the earlier layers already provide:
//! snapshots (§3.4) for the bulk copy and the shared pending-version
//! machinery (§3.3.2–§3.3.3, `JiffyMap::prepare_batch` and friends) for
//! the atomic delta drain.
//!
//! # The cutover protocol
//!
//! [`ElasticJiffy`] keeps its entire routing state — the current layout
//! plus, during a migration, the staged next layout — in **one**
//! epoch-reclaimed atomic pointer (a [`RouterEpoch`]-shaped allocation
//! behind `crossbeam_epoch::Atomic`), so routing stays lock-free. A
//! split or merge proceeds in five steps:
//!
//! 1. **Cut.** Snapshot the source shard(s) at a cut version drawn from
//!    the shared clock (the snapshot pins that history, §3.3.4).
//! 2. **Copy.** Bulk-load the migrating key range into freshly built
//!    target shards ([`index_api::BulkLoad`], chunked atomic batches).
//!    The targets are unreachable — readers and writers keep using the
//!    old layout, and writes keep landing on the source.
//! 3. **Stage.** CAS the steady epoch to a *pending* epoch carrying both
//!    layouts and the migration state. From this instant every operation
//!    sees the migration; nothing has moved yet.
//! 4. **Drain.** Wait out the writers that entered before the pending
//!    epoch became visible (an ingress/egress counter pair — the only
//!    write-side cost of elasticity), then apply the *delta* — source
//!    entries that changed after the cut — to the target shards through
//!    the ordinary batch path, which for a delta spanning both halves of
//!    a split is exactly the two-phase cross-shard protocol.
//! 5. **Commit.** One CAS swings pending → steady-on-the-new-layout. The
//!    retired epoch (and with it the source shards) is freed by EBR once
//!    no reader can still hold it.
//!
//! # The helping rule
//!
//! Any operation that observes the pending epoch and whose key range
//! intersects the migration **helps it to completion** (steps 4–5) and
//! then runs against the committed layout — the same help-to-completion
//! discipline as the paper's §3.3.3 batch helping, so a stalled
//! resharder can never wedge the map. Operations on *disjoint* ranges
//! proceed immediately: their shards are shared by handle (`Arc`)
//! between the old and new layouts, so nothing they touch is moving.
//! Consistent scans conservatively help whenever a migration is pending
//! (a scan's range is unbounded above).
//!
//! # Why no write is ever lost
//!
//! Every routing epoch carries a [`WriterGate`] — a started/completed
//! counter pair. A write (1) loads the epoch, (2) registers on *that
//! epoch's* gate, (3) **re-validates** that the epoch pointer has not
//! moved (unregistering and retrying if it has), then applies and
//! unregisters. A migration helper, after the pending epoch is
//! installed, waits for the *previous* epoch's gate to quiesce before
//! draining. The argument is a sequentially consistent chain: a writer
//! counted by the helper's gate read is waited out, so its source write
//! precedes the drain's diff; a writer the gate read missed registered
//! *after* the pending install, so its step-(3) re-validation is
//! guaranteed to observe the pending epoch and retry against it — where
//! it either helps first (intersecting range) or touches only shards
//! shared by handle into the new layout (disjoint range). There is no
//! third case. Crucially the wait is on a *per-generation* population:
//! once the pending epoch is visible, its predecessor's gate only
//! drains (new writes register on the pending epoch's fresh gate), so
//! the wait terminates even under sustained write traffic — a naive
//! global ingress/egress pair would not give that (an exit by a late
//! writer could mask a still-running early one). Gates chain across the
//! commit: the committed steady epoch *reuses* the pending epoch's
//! gate, so a writer registered mid-migration is still covered by the
//! gate the next migration will quiesce. Reads carry no gate: a read
//! validates that the routing epoch did not change across its execution
//! and retries otherwise (migrations are rare; double-checking one
//! atomic load is the entire read-side overhead).
//!
//! # Liveness, stated honestly
//!
//! Helping makes the cutover non-blocking in the same qualified sense as
//! the two-phase batch protocol: no *stalled coordinator* blocks anyone,
//! because any affected operation can finish the job. Two bounded waits
//! remain: helpers wait for the egress of writes that were already in
//! flight when the migration staged (a write stalled *inside* a shard
//! operation delays the drain — the classic epoch-scheme caveat), and
//! concurrent helpers serialize the drain itself on a once-latch mutex
//! (a helper stalled mid-drain delays other *affected* helpers; disjoint
//! traffic is unaffected). Both windows are migration-only; steady-state
//! operation takes no locks anywhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crossbeam_epoch::{self as ebr, Atomic, Owned, Shared};
use crossbeam_utils::CachePadded;
use index_api::{Batch, BatchOp, BulkLoad, OrderedIndex};
use jiffy::{JiffyConfig, JiffyMap, MapKey, MapValue};
use jiffy_clock::{DefaultClock, VersionClock};

use crate::layout::{Layout, Shard};
use crate::{Router, ShardLoad, SharedClock};

/// Errors surfaced by online reshard planning and execution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardError {
    /// A range-only reshard operation was attempted on a hash router.
    /// Hash routing has no contiguous per-shard key ranges to split or
    /// merge; re-partitioning a hash layout means rebuilding it.
    HashRouter,
    /// The requested split point equals an existing shard boundary, so
    /// the split would create a shard owning no keys and a degenerate
    /// (non-strictly-increasing) split vector.
    BoundaryCollision,
    /// The named shard does not exist in the current layout.
    ShardOutOfRange(usize),
    /// Another migration is pending; stage the next one after an
    /// operation (or [`ElasticJiffy::help_pending`]) commits it.
    MigrationInFlight,
}

impl std::fmt::Display for ReshardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReshardError::HashRouter => {
                write!(f, "hash routers have no key ranges to split or merge")
            }
            ReshardError::BoundaryCollision => {
                write!(f, "split point equals an existing shard boundary")
            }
            ReshardError::ShardOutOfRange(s) => write!(f, "shard {s} does not exist"),
            ReshardError::MigrationInFlight => write!(f, "a shard migration is already pending"),
        }
    }
}

impl std::error::Error for ReshardError {}

/// The routing state behind [`ElasticJiffy`]'s single atomic pointer:
/// the committed layout plus, while a migration is staged, the pending
/// next layout and its progress. Swapped wholesale at stage and commit;
/// reclaimed by EBR.
struct RouterEpoch<K, V> {
    /// The layout every operation routes through.
    layout: Arc<Layout<K, V>>,
    /// Present while a migration is staged (pending): helpers drive it,
    /// the commit CAS retires it.
    migration: Option<Arc<Migration<K, V>>>,
    /// Registration gate for writes routed through this epoch (see the
    /// module docs). Fresh at stage; *shared* from pending to committed
    /// epoch so mid-migration writers stay covered by the gate the next
    /// migration quiesces.
    gate: Arc<WriterGate>,
}

/// A per-epoch write-ingress/egress counter pair. `started` counts
/// registrations, `completed` counts finished (or aborted) writes;
/// `started == completed` with registrations stopped means every write
/// that routed through the epoch has landed.
#[derive(Default)]
struct WriterGate {
    started: CachePadded<AtomicU64>,
    completed: CachePadded<AtomicU64>,
}

/// RAII registration on a [`WriterGate`]: egress on drop, so a panicking
/// shard operation cannot wedge a migration's quiescence wait.
struct GateTicket<'g>(&'g WriterGate);

impl WriterGate {
    /// Register a write. SeqCst so the registration globally orders
    /// before the registrant's subsequent epoch re-validation load — the
    /// linchpin of the no-lost-write argument (module docs).
    fn enter(&self) -> GateTicket<'_> {
        self.started.fetch_add(1, Ordering::SeqCst);
        GateTicket(self)
    }

    /// Spin (then yield) until every registered write has completed.
    /// Callers only invoke this on a *superseded* epoch's gate, whose
    /// registration stream is guaranteed to dry up; see the module docs
    /// for why a registration this wait misses cannot matter.
    ///
    /// The read order is load-bearing: `completed` is read **before**
    /// `started`. With that order, `completed >= started` proves
    /// exits-before-t1 >= entries-before-t2 (t1 < t2), i.e. every writer
    /// registered by t2 had already exited by t1 — quiescence. Reading
    /// `started` first admits a race: a late writer (one that loaded the
    /// pre-stage epoch, registered *after* the `started` snapshot, failed
    /// re-validation, and dropped its ticket) would inflate `completed`
    /// to match the stale `started` snapshot while an earlier, still
    /// running writer keeps applying to a source shard — and the drain
    /// would lose that write.
    fn await_quiescence(&self) {
        self.await_quiescence_with(|| {
            // The two-load window the read order defends (see above);
            // named so the explorer and the replay test can preempt here.
            #[cfg(feature = "audit-sched")]
            jiffy_audit::sched::probe("gate::between_loads");
        });
    }

    /// The wait loop, with an injection point between the two counter
    /// loads so tests can replay the exact interleaving the read order
    /// defends against (the window is two adjacent atomic loads —
    /// unhittable reliably from another thread). `await_quiescence`
    /// passes a no-op.
    fn await_quiescence_with(&self, mut between_loads: impl FnMut()) {
        let mut spins = 0u32;
        loop {
            let completed = self.completed.load(Ordering::SeqCst);
            between_loads();
            if completed >= self.started.load(Ordering::SeqCst) {
                // Contended waits only (the common no-writer pass stays
                // event-free); the gate has no version clock, so the
                // stamp is the recorder's borrowed high-water mark.
                if spins > 0 {
                    jiffy_obs::trace_event!(hint: GateQuiesce, completed, spins);
                }
                return;
            }
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl Drop for GateTicket<'_> {
    fn drop(&mut self) {
        self.0.completed.fetch_add(1, Ordering::SeqCst);
    }
}

/// A staged shard migration: the target layout is fully built (copy done
/// at the cut version) and waiting for drain + commit.
struct Migration<K, V> {
    /// The complete next layout: target shards fresh, disjoint shards
    /// shared by handle with the current layout.
    to: Arc<Layout<K, V>>,
    /// The shard(s) being retired (one for a split, two for a merge).
    /// Source truth for the drain diff; dropped — and EBR-freed — once
    /// the commit epoch is reclaimed.
    sources: Vec<Shard<K, V>>,
    /// The freshly built shard(s) receiving the migrating range (two for
    /// a split, one for a merge). Only the copy and the drain ever write
    /// them before commit.
    targets: Vec<Shard<K, V>>,
    /// The migrating key range `[lo, hi)`; `None` = unbounded.
    lo: Option<K>,
    hi: Option<K>,
    /// The superseded epoch's writer gate: the population of writes that
    /// may still be landing on the source shards. Helpers quiesce it
    /// before draining.
    prev_gate: Arc<WriterGate>,
    /// Drain-once latch: the diff + delta batch must run exactly once,
    /// and never after commit (a stale delta applied over post-commit
    /// writes would lose them).
    drained: Mutex<bool>,
}

impl<K: Ord, V> Migration<K, V> {
    /// Whether `key` lies in the migrating range.
    fn covers(&self, key: &K) -> bool {
        self.lo.as_ref().map_or(true, |lo| key >= lo)
            && self.hi.as_ref().map_or(true, |hi| key < hi)
    }

    /// Whether any key of `ops` lies in the migrating range.
    fn covers_any(&self, ops: &[BatchOp<K, V>]) -> bool {
        ops.iter().any(|op| self.covers(op.key()))
    }
}

/// An elastic sharded Jiffy map: `N` Jiffy shards on one shared clock
/// with atomic cross-shard batches and consistent cross-shard scans (see
/// the crate docs), whose shard layout can be **split and merged
/// online**, with reads, writes, batches and scans running throughout.
///
/// Point the type at a range [`Router`] and use it like any
/// [`OrderedIndex`]; call [`split_at`](ElasticJiffy::split_at) /
/// [`merge_at`](ElasticJiffy::merge_at) (or run a [`Resharder`]) to
/// reshape the layout under load. See the module docs for the migration
/// protocol and its guarantees.
///
/// Split 2 shards to 4 while writers hammer the map — no key is lost:
///
/// ```
/// use index_api::OrderedIndex;
/// use jiffy_shard::{ElasticJiffy, Router};
///
/// let map: std::sync::Arc<ElasticJiffy<u64, u64>> =
///     std::sync::Arc::new(ElasticJiffy::with_router(
///         Router::range_uniform(2, 4000),
///         Default::default(),
///     ));
///
/// std::thread::scope(|s| {
///     for t in 0..2u64 {
///         let map = std::sync::Arc::clone(&map);
///         s.spawn(move || {
///             for i in 0..1000u64 {
///                 map.put(t * 2000 + i, i);
///             }
///         });
///     }
///     // Split both shards while the writers are running.
///     map.split_at(1000).unwrap();
///     map.split_at(3000).unwrap();
/// });
///
/// assert_eq!(map.shard_count(), 4);
/// // Every written key survived the live migrations.
/// for t in 0..2u64 {
///     for i in (0..1000u64).step_by(97) {
///         assert_eq!(map.get(&(t * 2000 + i)), Some(i), "lost key");
///     }
/// }
/// assert_eq!(map.scan_collect(&0, usize::MAX).len(), 2000);
/// ```
pub struct ElasticJiffy<K, V> {
    /// The single word all routing goes through (see [`RouterEpoch`]).
    state: Atomic<RouterEpoch<K, V>>,
    /// The clock every shard of every generation stamps from — what
    /// keeps versions comparable across a cutover.
    clock: SharedClock,
    /// Configuration applied to freshly built target shards.
    config: JiffyConfig,
}

impl<K: MapKey, V: MapValue + PartialEq> ElasticJiffy<K, V> {
    /// Build `router.shard_count()` Jiffy shards on one shared clock
    /// behind an elastic routing epoch. A map nobody asks to reshard is
    /// simply a static sharded map. A hash layout serves traffic the same
    /// way, but has no key ranges to reshape:
    ///
    /// ```
    /// use index_api::{Batch, BatchOp, OrderedIndex};
    /// use jiffy_shard::{ElasticJiffy, ReshardError, Router};
    ///
    /// let map: ElasticJiffy<u64, u64> =
    ///     ElasticJiffy::with_router(Router::hash(4), Default::default());
    ///
    /// // A batch spanning several shards becomes visible at one commit
    /// // CAS, and a consistent scan can never observe half of it.
    /// map.batch_update(Batch::new(vec![BatchOp::Put(1, 10), BatchOp::Put(200, 20)]));
    /// assert_eq!(map.get(&1), Some(10));
    /// assert_eq!(map.scan_collect(&0, usize::MAX), vec![(1, 10), (200, 20)]);
    ///
    /// // Every reshard operation on a hash layout is refused.
    /// assert_eq!(map.split_at(100), Err(ReshardError::HashRouter));
    /// assert_eq!(map.merge_at(0), Err(ReshardError::HashRouter));
    /// ```
    pub fn with_router(router: Router<K>, config: JiffyConfig) -> Self {
        let clock: SharedClock = Arc::new(DefaultClock::default());
        let layout = Arc::new(Layout::new(
            (0..router.shard_count())
                .map(|_| {
                    Arc::new(JiffyMap::with_clock_and_config(Arc::clone(&clock), config.clone()))
                })
                .collect(),
            router,
            Arc::clone(&clock),
        ));
        ElasticJiffy {
            state: Atomic::new(RouterEpoch {
                layout,
                migration: None,
                gate: Arc::new(WriterGate::default()),
            }),
            clock,
            config,
        }
    }

    /// Number of shards in the committed layout.
    pub fn shard_count(&self) -> usize {
        let guard = &ebr::pin();
        self.current(guard).layout.shard_count()
    }

    /// The committed layout's range boundaries (empty for hash mode).
    pub fn splits(&self) -> Vec<K> {
        let guard = &ebr::pin();
        self.current(guard).layout.router().splits().to_vec()
    }

    /// Whether a staged migration is waiting to be driven to completion.
    pub fn migration_in_flight(&self) -> bool {
        let guard = &ebr::pin();
        self.current(guard).migration.is_some()
    }

    /// Whether the committed layout uses an ordered (range) router — the
    /// precondition for every reshard operation. A hash-routed
    /// `ElasticJiffy` serves traffic but cannot split or merge.
    pub fn is_range_routed(&self) -> bool {
        let guard = &ebr::pin();
        self.current(guard).layout.router().is_ordered()
    }

    /// Handles to the committed layout's shards, in shard order
    /// (telemetry / tests). The handles stay valid after a reshard
    /// retires a shard, but writes through them bypass the routing
    /// epoch — and with it the no-lost-write guarantee of a migration.
    pub fn shards(&self) -> Vec<Arc<JiffyMap<K, V, SharedClock>>> {
        let guard = &ebr::pin();
        self.current(guard).layout.shards().to_vec()
    }

    /// Per-shard traffic counters of the committed layout: reads and
    /// updates routed to each shard, plus each shard's revision
    /// telemetry. This is the observability surface for reshard
    /// decisions. Counters restart at zero when a
    /// migration commits a new layout, so successive readings between
    /// reshard events measure the *current* epoch's traffic — exactly
    /// the signal a [`Resharder`] thresholds on.
    pub fn debug_stats(&self) -> Vec<ShardLoad> {
        let guard = &ebr::pin();
        self.current(guard).layout.debug_stats()
    }

    /// The committed layout's gauges folded into the shared observability
    /// type — one [`jiffy_obs::ShardObs`] per shard plus whole-map
    /// aggregates — ready for [`jiffy_obs::ObsSnapshot::add_structure`].
    pub fn obs_stats(&self) -> jiffy_obs::StructureStats {
        let guard = &ebr::pin();
        self.current(guard).layout.obs_stats()
    }

    /// Split the shard owning `at` into `[lo, at)` and `[at, hi)`,
    /// migrating online: snapshot-copy, pending epoch, delta drain
    /// through the two-phase batch path, single-CAS cutover. Returns
    /// once the new layout is committed.
    pub fn split_at(&self, at: K) -> Result<(), ReshardError> {
        self.stage_split(at)?;
        self.help_pending();
        Ok(())
    }

    /// Merge shards `left` and `left + 1` into one, migrating online.
    /// Either source may be empty — merging is how a shard drained of
    /// keys by traffic drift is retired. Returns once committed.
    pub fn merge_at(&self, left: usize) -> Result<(), ReshardError> {
        self.stage_merge(left)?;
        self.help_pending();
        Ok(())
    }

    /// Stage a split without driving it: copy the two halves at a cut
    /// snapshot and install the pending epoch, then return. Any
    /// subsequent operation that touches the migrating range — or
    /// [`help_pending`](ElasticJiffy::help_pending) — completes the
    /// drain and cutover. This is the "stalled resharder" entry point:
    /// tests (and async drivers that want to schedule the drain
    /// elsewhere) use it to leave a migration mid-flight on purpose.
    pub fn stage_split(&self, at: K) -> Result<(), ReshardError> {
        self.stage(|this, layout, prev_gate| {
            let (router, shard) = layout.router().with_split_inserted(at.clone())?;
            let source = Arc::clone(&layout.shards()[shard]);
            let left: Shard<K, V> = this.fresh_shard();
            let right: Shard<K, V> = this.fresh_shard();
            // Cut + copy: export the source at one snapshot version,
            // routed across the new boundary. The targets are
            // unreachable, so chunked loading is unobservable.
            let snap = source.snapshot();
            let (mut lo_buf, mut hi_buf) = (Vec::new(), Vec::new());
            snap.export_range(None, None, &mut |k: &K, v: &V| {
                if *k < at {
                    lo_buf.push((k.clone(), v.clone()));
                } else {
                    hi_buf.push((k.clone(), v.clone()));
                }
            });
            drop(snap); // release the pinned history before staging
            left.bulk_load(lo_buf);
            right.bulk_load(hi_buf);
            let (lo, hi) = bounds_of(layout.router(), shard);
            let mut shards = layout.shards().to_vec();
            shards.splice(shard..=shard, [Arc::clone(&left), Arc::clone(&right)]);
            Ok(Migration {
                to: Arc::new(Layout::new(shards, router, Arc::clone(&this.clock))),
                sources: vec![source],
                targets: vec![left, right],
                lo,
                hi,
                prev_gate,
                drained: Mutex::new(false),
            })
        })
    }

    /// Stage a merge of shards `left` and `left + 1` without driving it;
    /// see [`stage_split`](ElasticJiffy::stage_split).
    pub fn stage_merge(&self, left: usize) -> Result<(), ReshardError> {
        self.stage(|this, layout, prev_gate| {
            let router = layout.router().with_split_removed(left)?;
            let a = Arc::clone(&layout.shards()[left]);
            let b = Arc::clone(&layout.shards()[left + 1]);
            let target: Shard<K, V> = this.fresh_shard();
            let mut buf = Vec::new();
            for source in [&a, &b] {
                let snap = source.snapshot();
                snap.export_range(None, None, &mut |k: &K, v: &V| {
                    buf.push((k.clone(), v.clone()));
                });
            }
            target.bulk_load(buf);
            let (lo, _) = bounds_of(layout.router(), left);
            let (_, hi) = bounds_of(layout.router(), left + 1);
            let mut shards = layout.shards().to_vec();
            shards.splice(left..=left + 1, [Arc::clone(&target)]);
            Ok(Migration {
                to: Arc::new(Layout::new(shards, router, Arc::clone(&this.clock))),
                sources: vec![a, b],
                targets: vec![target],
                lo,
                hi,
                prev_gate,
                drained: Mutex::new(false),
            })
        })
    }

    /// Drive a staged migration (if any) through drain and cutover.
    /// Idempotent; a no-op when the state is steady.
    pub fn help_pending(&self) {
        let guard = &ebr::pin();
        let shared = self.state.load(Ordering::SeqCst, guard);
        // SAFETY: the epoch pointer is never null and the pinned guard
        // keeps the allocation alive (retired epochs are defer-destroyed).
        let epoch = unsafe { shared.deref() };
        if epoch.migration.is_some() {
            self.help(shared, epoch, guard);
        }
    }

    /// Stage one migration: build it against the steady layout, then CAS
    /// the pending epoch in. The copy work happens before the CAS, so a
    /// lost race (another stager, or an operation committing a migration
    /// we did not see) surfaces as a retry or `MigrationInFlight`.
    fn stage(
        &self,
        build: impl Fn(&Self, &Layout<K, V>, Arc<WriterGate>) -> Result<Migration<K, V>, ReshardError>,
    ) -> Result<(), ReshardError> {
        let guard = &ebr::pin();
        loop {
            let shared = self.state.load(Ordering::SeqCst, guard);
            // SAFETY: see `help_pending`.
            let epoch = unsafe { shared.deref() };
            if epoch.migration.is_some() {
                return Err(ReshardError::MigrationInFlight);
            }
            let migration = build(self, &epoch.layout, Arc::clone(&epoch.gate))?;
            let (from_shards, to_shards) = (epoch.layout.shard_count(), migration.to.shard_count());
            let next = Owned::new(RouterEpoch {
                layout: Arc::clone(&epoch.layout),
                migration: Some(Arc::new(migration)),
                // Fresh gate: post-stage writes register here, so the
                // superseded gate's population strictly drains.
                gate: Arc::new(WriterGate::default()),
            });
            match self.state.compare_exchange(
                shared,
                next,
                Ordering::SeqCst,
                Ordering::SeqCst,
                guard,
            ) {
                Ok(_) => {
                    jiffy_obs::trace_event!(ReshardStage, self.clock.now(), from_shards, to_shards);
                    // SAFETY: `shared` was just unlinked by the CAS and is
                    // unreachable to new loads; EBR delays the free past
                    // every pinned reader.
                    unsafe { guard.defer_destroy(shared) };
                    return Ok(());
                }
                Err(_) => continue, // lost a stage/commit race: re-derive
            }
        }
    }

    fn fresh_shard(&self) -> Shard<K, V> {
        Arc::new(JiffyMap::with_clock_and_config(Arc::clone(&self.clock), self.config.clone()))
    }

    #[inline]
    fn current<'g>(&self, guard: &'g ebr::Guard) -> &'g RouterEpoch<K, V> {
        // SAFETY: see `help_pending` — non-null by construction, pinned.
        unsafe { self.state.load(Ordering::SeqCst, guard).deref() }
    }

    /// Help the observed pending migration to completion: quiesce
    /// in-flight writes, drain the delta once, commit the cutover CAS.
    /// Safe to race with any number of other helpers, stale ones
    /// included: the drain latch is tested under its own mutex, not
    /// before it, and the commit CAS expects the exact epoch pointer
    /// observed (pinned, so not reusable) — neither step acts on a
    /// shared read made before its validation.
    fn help(
        &self,
        observed: Shared<'_, RouterEpoch<K, V>>,
        epoch: &RouterEpoch<K, V>,
        guard: &ebr::Guard,
    ) {
        let mig = epoch.migration.as_ref().expect("help requires a pending migration");
        // Quiesce the superseded generation: writes registered on the
        // previous epoch's gate may have routed through the pre-staging
        // layout and be landing on the source shards. (Our own caller
        // dropped its ticket before helping, so this cannot
        // self-deadlock.) Writes registering after the pending epoch is
        // visible re-validate, then either help first or touch only
        // shards shared into the new layout — see the module docs.
        mig.prev_gate.await_quiescence();
        jiffy_obs::trace_event!(
            GateQuiesce,
            self.clock.now(),
            mig.prev_gate.completed.load(Ordering::SeqCst),
            mig.sources.len()
        );
        // Drain exactly once. The latch also orders every drain strictly
        // before the commit CAS below (a helper only reaches the CAS
        // after observing `drained == true` or setting it), so no stale
        // delta can ever be applied over post-commit writes.
        {
            let mut drained = mig.drained.lock().unwrap_or_else(PoisonError::into_inner);
            if !*drained {
                let delta_ops = Self::drain(mig);
                *drained = true;
                jiffy_obs::trace_event!(
                    ReshardDrain,
                    self.clock.now(),
                    delta_ops,
                    mig.sources.len()
                );
            }
        }
        // Commit: pending -> steady on the new layout. One winner; a
        // loser's CAS failure means the cutover (or an even newer epoch)
        // is already in place. The steady epoch *reuses* the pending
        // epoch's gate: writers registered mid-migration stay covered by
        // the gate the next migration will quiesce.
        let next = Owned::new(RouterEpoch {
            layout: Arc::clone(&mig.to),
            migration: None,
            gate: Arc::clone(&epoch.gate),
        });
        if self
            .state
            .compare_exchange(observed, next, Ordering::SeqCst, Ordering::SeqCst, guard)
            .is_ok()
        {
            jiffy_obs::trace_event!(
                ReshardCutover,
                self.clock.now(),
                mig.to.shard_count(),
                mig.targets.len()
            );
            // SAFETY: as in `stage` — unlinked by the CAS, EBR-deferred.
            unsafe { guard.defer_destroy(observed) };
        }
    }

    /// Compute and apply the migration delta: whatever changed on the
    /// source shards after the cut copy. Runs exactly once, under the
    /// drain latch, after write quiescence — so the sources are frozen
    /// and the diff is exact. Returns the number of delta ops applied.
    fn drain(mig: &Migration<K, V>) -> usize {
        let export = |shards: &[Shard<K, V>]| {
            let mut entries: Vec<(K, V)> = Vec::new();
            for shard in shards {
                // Shards hold disjoint ascending ranges in shard order,
                // so concatenated exports stay sorted.
                let snap = shard.snapshot();
                snap.export_range(None, None, &mut |k: &K, v: &V| {
                    entries.push((k.clone(), v.clone()));
                });
            }
            entries
        };
        let source = export(&mig.sources); // post-cut truth (now frozen)
        let copied = export(&mig.targets); // the cut-version copy
        let delta = diff_to_batch(source, copied);
        let delta_ops = delta.len();
        if !delta.is_empty() {
            // The delta of a split spans both target shards: this is the
            // two-phase cross-shard batch path, so the (still invisible)
            // targets flip to the drained state atomically.
            mig.to.batch_update(Batch::new(delta));
        }
        delta_ops
    }

    /// The one scan routine: up to `n` entries from `lo`, read from a
    /// consistent cut of one routing generation. The layout's runs are
    /// buffered — straight into the vector a `scan_collect` caller gets
    /// back — and only released once the generation is re-checked: if it
    /// moved while we read, a shard we consulted may have been retired
    /// by a cutover, and entries already handed to a sink could not be
    /// taken back.
    fn scan_validated(&self, lo: &K, n: usize) -> Vec<(K, V)> {
        if n == 0 {
            return Vec::new();
        }
        let guard = &ebr::pin();
        loop {
            let shared = self.state.load(Ordering::SeqCst, guard);
            // SAFETY: see `help_pending`.
            let epoch = unsafe { shared.deref() };
            if epoch.migration.is_some() {
                // A scan's range is unbounded above; conservatively
                // complete any pending migration rather than splitting
                // hairs over whether it intersects.
                self.help(shared, epoch, guard);
                continue;
            }
            // `n` is a limit, possibly an untrusted one: it buys a
            // capped reservation, the scan's yield sizes the rest.
            let mut buf: Vec<(K, V)> = Vec::with_capacity(n.min(SCAN_RESERVE));
            epoch.layout.scan_runs(lo, n, &mut |ks, vs| {
                buf.extend(ks.iter().cloned().zip(vs.iter().cloned()))
            });
            // Same generation across the whole scan => the consistent
            // cut the layout pinned is still the live truth.
            if self.state.load(Ordering::SeqCst, guard) == shared {
                return buf;
            }
        }
    }

    /// Run `apply` against a routing epoch with no migration covering
    /// `affected`, helping any that is. Writes register on their epoch's
    /// gate across the shard operation and re-validate the epoch after
    /// registering (see the module docs for why both steps are
    /// load-bearing).
    /// `payload` (the op's keys/values) moves through the retry loop by
    /// value and is consumed only by the one `apply` that actually runs
    /// — retries happen strictly before consumption, so the steady-state
    /// hot path pays zero clones for the ability to retry.
    fn write_op<T, R>(
        &self,
        payload: T,
        affected: impl Fn(&Migration<K, V>, &T) -> bool,
        apply: impl Fn(&Layout<K, V>, T) -> R,
    ) -> R {
        let guard = &ebr::pin();
        let mut payload = Some(payload);
        loop {
            let shared = self.state.load(Ordering::SeqCst, guard);
            // SAFETY: see `help_pending`.
            let epoch = unsafe { shared.deref() };
            let ticket = epoch.gate.enter();
            // Re-validate: a registration is only binding if the epoch
            // is still current once it is visible — otherwise a helper
            // may already have quiesced this gate without seeing us.
            if self.state.load(Ordering::SeqCst, guard) != shared {
                drop(ticket);
                continue;
            }
            if let Some(mig) = &epoch.migration {
                if affected(mig, payload.as_ref().expect("payload present until applied")) {
                    drop(ticket); // egress *before* helping: helpers wait on us
                    self.help(shared, epoch, guard);
                    continue;
                }
            }
            return apply(&epoch.layout, payload.take().expect("payload consumed exactly once"));
            // ticket drops here: egress after the shard op completed
        }
    }
}

/// Most entries a scan reserves room for before it has found any.
const SCAN_RESERVE: usize = 1024;

/// The owned bounds of shard `shard` under `router` (range mode).
fn bounds_of<K: Ord + Clone + std::hash::Hash>(
    router: &Router<K>,
    shard: usize,
) -> (Option<K>, Option<K>) {
    let (lo, hi) = router.shard_bounds(shard).expect("reshard ops validate range mode first");
    (lo.cloned(), hi.cloned())
}

/// Diff two sorted entry streams into the batch that turns `copied` into
/// `source`: puts for new or changed keys, removes for keys that
/// vanished after the cut.
fn diff_to_batch<K: Ord, V: PartialEq>(
    source: Vec<(K, V)>,
    copied: Vec<(K, V)>,
) -> Vec<BatchOp<K, V>> {
    let mut ops = Vec::new();
    let mut copied = copied.into_iter().peekable();
    for (k, v) in source {
        loop {
            match copied.peek() {
                Some((ck, _)) if *ck < k => {
                    let (ck, _) = copied.next().unwrap();
                    ops.push(BatchOp::Remove(ck));
                }
                Some((ck, cv)) if *ck == k => {
                    let changed = *cv != v;
                    copied.next();
                    if changed {
                        ops.push(BatchOp::Put(k, v));
                    }
                    break;
                }
                _ => {
                    ops.push(BatchOp::Put(k, v));
                    break;
                }
            }
        }
    }
    for (ck, _) in copied {
        ops.push(BatchOp::Remove(ck));
    }
    ops
}

impl<K, V> Drop for ElasticJiffy<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` proves no concurrent access; the
        // unprotected guard frees the final epoch immediately.
        let guard = unsafe { ebr::unprotected() };
        let shared = self.state.load(Ordering::Relaxed, guard);
        if !shared.is_null() {
            // SAFETY: sole owner, pointer is live and unreachable after
            // this drop.
            unsafe { guard.defer_destroy(shared) };
        }
    }
}

impl<K: MapKey, V: MapValue + PartialEq> OrderedIndex<K, V> for ElasticJiffy<K, V> {
    fn get(&self, key: &K) -> Option<V> {
        let guard = &ebr::pin();
        loop {
            let shared = self.state.load(Ordering::SeqCst, guard);
            // SAFETY: see `help_pending`.
            let epoch = unsafe { shared.deref() };
            if let Some(mig) = &epoch.migration {
                if mig.covers(key) {
                    self.help(shared, epoch, guard);
                    continue;
                }
            }
            let value = epoch.layout.get(key);
            // Validate the routing generation: if it moved while we
            // read, the shard we consulted may have been retired by a
            // cutover (its post-commit writes land elsewhere) — retry on
            // the new epoch. Steady state pays one extra load.
            if self.state.load(Ordering::SeqCst, guard) == shared {
                return value;
            }
        }
    }

    fn put(&self, key: K, value: V) {
        self.write_op((key, value), |mig, (k, _)| mig.covers(k), |layout, (k, v)| layout.put(k, v))
    }

    fn remove(&self, key: &K) -> bool {
        self.write_op((), |mig, ()| mig.covers(key), |layout, ()| layout.remove(key))
    }

    fn scan_from(&self, lo: &K, n: usize, sink: &mut dyn FnMut(&K, &V)) {
        for (k, v) in &self.scan_validated(lo, n) {
            sink(k, v);
        }
    }

    // `scan_runs` is the trait default (one-entry runs over `scan_from`):
    // a validated scan is a vector of pairs, and `scan_collect` — which
    // hands that vector over whole — is the fast way to read a range here.

    fn scan_collect(&self, lo: &K, n: usize) -> Vec<(K, V)> {
        self.scan_validated(lo, n)
    }

    fn batch_update(&self, batch: Batch<K, V>) {
        // The batch is already canonical; `Batch::new` on the other side
        // of the generic boundary just re-sorts a sorted vector. The ops
        // move through `write_op` unclouded — no per-call deep copy.
        self.write_op(
            batch.into_ops(),
            |mig, ops| mig.covers_any(ops),
            |layout, ops| layout.batch_update(Batch::new(ops)),
        )
    }

    fn supports_consistent_scan(&self) -> bool {
        true
    }

    fn supports_atomic_batch(&self) -> bool {
        true
    }

    fn name(&self) -> &'static str {
        crate::layout::LABEL
    }

    fn revision_stats(&self) -> Option<index_api::RevisionStats> {
        let guard = &ebr::pin();
        self.current(guard).layout.revision_stats()
    }
}

impl<K: MapKey, V: MapValue + PartialEq> BulkLoad<K, V> for ElasticJiffy<K, V> {
    /// Pre-load through the ordinary migration-aware batch path, in
    /// bounded chunks so one giant load neither builds a monster batch
    /// nor starves a concurrent reshard of its help window. Chunks are
    /// atomic individually (each is one cross-shard batch); the load as
    /// a whole is not — the contract [`BulkLoad`] documents.
    fn bulk_load(&self, entries: Vec<(K, V)>) {
        const CHUNK: usize = 1024;
        let mut entries = entries.into_iter().peekable();
        while entries.peek().is_some() {
            let ops: Vec<BatchOp<K, V>> =
                entries.by_ref().take(CHUNK).map(|(k, v)| BatchOp::Put(k, v)).collect();
            self.batch_update(Batch::new(ops));
        }
    }
}

/// What a [`Resharder`] step did to the layout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReshardEvent {
    /// Split `shard` at key `at`.
    Split {
        /// The shard that was split.
        shard: usize,
        /// The new boundary.
        at: u64,
    },
    /// Merged shards `left` and `left + 1`.
    Merge {
        /// The left shard of the merged pair.
        left: usize,
    },
}

/// Drift-driven reshard policy: watches the per-shard traffic counters
/// ([`ElasticJiffy::debug_stats`]) and splits hot shards / merges cold
/// ones when the observed key-frequency distribution drifts from the
/// even spread the construction-time splits (`workload::shard_splits`)
/// aimed for. The decision math lives in `workload`
/// ([`workload::load_imbalance`], [`workload::split_hot_shard`],
/// [`workload::merge_cold_shards`]) — pure and separately tested; this
/// type is the thin executor.
///
/// Call [`step`](Resharder::step) periodically (e.g. from a maintenance
/// thread). Each step performs at most one split or merge, so the layout
/// converges gradually and every cutover stays small.
pub struct Resharder {
    /// Trigger: act when the hottest shard exceeds this multiple of the
    /// per-shard mean (see [`workload::load_imbalance`]).
    threshold: f64,
    /// Never split past this many shards; at the cap, a hot layout
    /// merges its coldest pair first to make room — but never below 2
    /// shards (one shard's imbalance is 1.0 by definition, so dropping
    /// to 1 would leave the policy blind forever).
    max_shards: usize,
    /// Ignore observation windows with fewer total ops than this (noise
    /// guard).
    min_ops: u64,
    /// Per-shard totals at the last decision, for windowed deltas.
    baseline: Vec<u64>,
}

impl Resharder {
    /// A resharder acting when the hottest shard carries more than
    /// `threshold`× its fair share, capped at `max_shards` shards.
    pub fn new(threshold: f64, max_shards: usize) -> Self {
        assert!(threshold >= 1.0, "imbalance below 1.0 is unobservable");
        assert!(max_shards >= 2, "an elastic layout needs room for at least 2 shards");
        Resharder { threshold, max_shards, min_ops: 1024, baseline: Vec::new() }
    }

    /// Override the minimum ops per observation window (default 1024).
    pub fn with_min_ops(mut self, min_ops: u64) -> Self {
        self.min_ops = min_ops;
        self
    }

    /// Observe the map's per-shard traffic since the last step and, if
    /// it has drifted past the threshold, execute one split or merge.
    /// Returns what was done (`None`: balanced, too little traffic,
    /// nothing actionable, or lost a race with a concurrent reshard —
    /// the next window re-observes). `key_space` bounds the top shard's
    /// range for midpoint splitting. The only error surfaced is
    /// [`ReshardError::HashRouter`]: a hash layout can never be
    /// drift-resharded, so polling one is a configuration mistake.
    pub fn step<V: MapValue + PartialEq>(
        &mut self,
        map: &ElasticJiffy<u64, V>,
        key_space: u64,
    ) -> Result<Option<ReshardEvent>, ReshardError> {
        if !map.is_range_routed() {
            return Err(ReshardError::HashRouter);
        }
        // Splits first, stats second: if a concurrent reshard commits in
        // between, the counters (which restart with the new layout) come
        // up one length short and the consistency check below skips the
        // window instead of feeding mismatched vectors to the policy
        // math. Other ops racing this method are always safe; only the
        // decision quality of this one window is at stake.
        let splits = map.splits();
        let totals: Vec<u64> = map.debug_stats().iter().map(|l| l.total()).collect();
        if totals.len() != splits.len() + 1 || totals.len() != self.baseline.len() {
            // Layout changed under us (or first observation): counters
            // restarted with the new epoch, so start a fresh window.
            self.baseline = totals;
            return Ok(None);
        }
        let deltas: Vec<u64> =
            totals.iter().zip(&self.baseline).map(|(t, b)| t.saturating_sub(*b)).collect();
        if deltas.iter().sum::<u64>() < self.min_ops {
            return Ok(None); // keep accumulating the window
        }
        if workload::load_imbalance(&deltas) <= self.threshold {
            self.baseline = totals;
            return Ok(None);
        }
        // A concurrent `split_at`/`merge_at`/`stage_*` can invalidate the
        // decision between observation and execution; those races surface
        // as benign errors here and the next window re-observes.
        let race_is_benign = |e: ReshardError| match e {
            ReshardError::HashRouter => Err(ReshardError::HashRouter),
            ReshardError::BoundaryCollision
            | ReshardError::ShardOutOfRange(_)
            | ReshardError::MigrationInFlight => Ok(None::<ReshardEvent>),
        };
        let event = if deltas.len() < self.max_shards {
            match workload::split_hot_shard(&splits, &deltas, key_space) {
                Some((shard, at)) => match map.split_at(at) {
                    Ok(()) => Some(ReshardEvent::Split { shard, at }),
                    Err(e) => race_is_benign(e)?,
                },
                None => None,
            }
        } else if deltas.len() > 2 {
            // At the cap: merge the coldest pair to make room for the
            // next split. Never below 2 shards — a single shard has
            // imbalance 1.0 by definition, so elasticity would dead-end
            // there with no signal to ever split again.
            match workload::merge_cold_shards(&deltas) {
                Some(left) => match map.merge_at(left) {
                    Ok(()) => Some(ReshardEvent::Merge { left }),
                    Err(e) => race_is_benign(e)?,
                },
                None => None,
            }
        } else {
            None
        };
        // A reshard restarts the counters with the new layout; the next
        // step re-baselines via the length check. For a no-op decision,
        // close the window so one skewed burst cannot trigger forever.
        self.baseline = map.debug_stats().iter().map(|l| l.total()).collect();
        Ok(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::sync::atomic::AtomicBool;

    fn elastic(splits: Vec<u64>) -> ElasticJiffy<u64, u64> {
        ElasticJiffy::with_router(Router::range(splits), JiffyConfig::default())
    }

    #[test]
    fn split_and_merge_preserve_contents() {
        let map = elastic(vec![500]);
        let mut model = BTreeMap::new();
        for k in (0..1000u64).step_by(3) {
            map.put(k, k * 7);
            model.insert(k, k * 7);
        }
        assert_eq!(map.shard_count(), 2);
        map.split_at(250).unwrap();
        map.split_at(750).unwrap();
        assert_eq!(map.shard_count(), 4);
        assert_eq!(map.splits(), vec![250, 500, 750]);
        let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
        assert_eq!(map.scan_collect(&0, usize::MAX), want, "after splits");
        // Merge everything back down to one shard.
        map.merge_at(1).unwrap();
        map.merge_at(0).unwrap();
        map.merge_at(0).unwrap();
        assert_eq!(map.shard_count(), 1);
        assert!(map.splits().is_empty());
        assert_eq!(map.scan_collect(&0, usize::MAX), want, "after merges");
        for probe in (0..1000).step_by(41) {
            assert_eq!(map.get(&probe), model.get(&probe).copied(), "get {probe}");
        }
    }

    /// A scan's `n` is a limit — `Request::Scan` passes a client's
    /// number straight in — so it may buy a capped reservation only, and
    /// the vector `scan_collect` returns is the validated buffer itself.
    #[test]
    fn scan_limit_sizes_no_allocation() {
        let map = elastic(vec![500]);
        for k in 495..505u64 {
            map.put(k, k);
        }
        let got = map.scan_collect(&0, usize::MAX);
        assert_eq!(got, (495..505u64).map(|k| (k, k)).collect::<Vec<_>>());
        assert!(got.capacity() <= SCAN_RESERVE, "limit sized an allocation: {}", got.capacity());
        // A long scan outgrows the reservation and is still exact.
        for k in 0..3 * SCAN_RESERVE as u64 {
            map.put(k, k);
        }
        assert_eq!(map.scan_collect(&1, usize::MAX).len(), 3 * SCAN_RESERVE - 1);
    }

    #[test]
    fn merge_retires_an_empty_shard() {
        // Shard 1 owns [800, 900): never populated.
        let map = elastic(vec![800, 900]);
        for k in 0..50u64 {
            map.put(k, k);
        }
        map.put(950, 1);
        map.merge_at(0).unwrap(); // [.., 800) + [800, 900) — right side empty
        assert_eq!(map.shard_count(), 2);
        assert_eq!(map.scan_collect(&0, usize::MAX).len(), 51);
        // And merging two entirely empty shards is fine too.
        let empty = elastic(vec![10, 20, 30]);
        empty.merge_at(1).unwrap();
        assert_eq!(empty.shard_count(), 3);
        assert!(empty.scan_collect(&0, usize::MAX).is_empty());
    }

    #[test]
    fn reshard_errors_are_specific() {
        let map = elastic(vec![100]);
        assert_eq!(map.split_at(100).unwrap_err(), ReshardError::BoundaryCollision);
        assert_eq!(map.merge_at(1).unwrap_err(), ReshardError::ShardOutOfRange(2));
        let hash: ElasticJiffy<u64, u64> =
            ElasticJiffy::with_router(Router::hash(4), JiffyConfig::default());
        hash.put(5, 5); // a hash layout still serves traffic...
        assert_eq!(hash.get(&5), Some(5));
        // ...but rejects range-only reshard ops.
        assert_eq!(hash.split_at(7).unwrap_err(), ReshardError::HashRouter);
        assert_eq!(hash.merge_at(0).unwrap_err(), ReshardError::HashRouter);
    }

    #[test]
    fn staged_migration_blocks_nothing_and_ops_help() {
        let map = elastic(vec![500]);
        for k in 0..100u64 {
            map.put(k * 10, k);
        }
        // Stage a split of shard 0 and stall the "resharder" forever.
        map.stage_split(250).unwrap();
        assert!(map.migration_in_flight());
        // A second stage while one is pending is refused.
        assert_eq!(map.stage_split(700).unwrap_err(), ReshardError::MigrationInFlight);
        // Disjoint writes and reads proceed without completing it.
        map.put(905, 42);
        assert_eq!(map.get(&901), None);
        assert_eq!(map.get(&905), Some(42));
        assert!(map.migration_in_flight(), "disjoint ops must not be forced to help");
        // An affected read helps the migration to completion.
        assert_eq!(map.get(&120), Some(12));
        assert!(!map.migration_in_flight(), "affected op must complete the cutover");
        assert_eq!(map.shard_count(), 3);
        assert_eq!(map.splits(), vec![250, 500]);
        // Nothing was lost, including the write made mid-migration.
        assert_eq!(map.scan_collect(&0, usize::MAX).len(), 101);
    }

    #[test]
    fn writes_between_cut_and_cutover_survive() {
        // Exercise the drain: stage (copy taken), then mutate the source
        // range, then let a helper commit. The post-cut delta — updates,
        // inserts, and removes — must all surface in the new layout.
        let map = elastic(vec![500]);
        for k in 0..20u64 {
            map.put(k, 0);
        }
        map.stage_split(10).unwrap();
        map.put(900, 1); // disjoint: lands without helping
        assert!(map.migration_in_flight());
        // Affected writes help first, then land on the new layout —
        // which must already contain the drained copy.
        map.put(3, 333);
        assert!(!map.migration_in_flight());
        assert_eq!(map.get(&3), Some(333));
        map.remove(&7);
        assert_eq!(map.get(&7), None);
        for k in [0u64, 5, 15, 19] {
            assert_eq!(map.get(&k), Some(0), "copied key {k}");
        }
        assert_eq!(map.get(&900), Some(1));
    }

    #[test]
    fn concurrent_ops_race_repeated_reshards_without_loss() {
        // 4 writer threads churn while the main thread splits and merges
        // in a loop; afterwards the map must match a single-writer model
        // of the surviving keys (each thread owns a disjoint key slice,
        // so the final state is deterministic).
        let map = Arc::new(elastic(vec![2_000]));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let map = Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let k = t * 1000 + (i % 1000);
                        match i % 5 {
                            4 => {
                                map.remove(&k);
                            }
                            3 => {
                                map.batch_update(Batch::new(vec![
                                    BatchOp::Put(k, i),
                                    BatchOp::Put((k + 2000) % 4000, i),
                                ]));
                            }
                            _ => {
                                map.put(k, i);
                            }
                        }
                        i += 1;
                    }
                });
            }
            // Panics must release the writers or the scope never joins.
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for round in 0..6u64 {
                    // Never equal to the standing boundary at 2000.
                    map.split_at(500 + round * 211).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    map.merge_at(0).unwrap();
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }));
            stop.store(true, Ordering::Relaxed);
            if let Err(panic) = result {
                std::panic::resume_unwind(panic);
            }
        });
        // Structural sanity: a full consistent scan is sorted, unique,
        // and every key it reports is gettable.
        let entries = map.scan_collect(&0, usize::MAX);
        assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "scan must stay sorted+unique");
        for (k, v) in entries.iter().take(200) {
            assert_eq!(map.get(k), Some(*v));
        }
    }

    #[test]
    fn gate_quiescence_is_not_fooled_by_late_register_retry_writers() {
        // Deterministic regression for the quiescence read order, replayed
        // through the injection point between the wait loop's two loads.
        // One writer registers and stalls mid-application (the pre-CAS
        // writer the drain must wait out). Between the waiter's two
        // counter loads, a late writer — one that loaded the superseded
        // epoch, registers, fails re-validation, and drops its ticket —
        // lands a full enter/exit pair. With `started` read before
        // `completed`, that pair inflates `completed` (1) to match the
        // stale `started` snapshot (1) and quiescence is declared while
        // the stalled writer is still running; reading `completed` first
        // makes the wait outlast the held ticket.
        let gate = WriterGate::default();
        let mut stalled = Some(gate.enter()); // the in-flight pre-CAS writer
        let mut released = false;
        let mut rounds = 0u32;
        gate.await_quiescence_with(|| {
            rounds += 1;
            match rounds {
                // The late register-then-retry writer, exactly in the
                // window between the waiter's two loads.
                1 => drop(gate.enter()),
                // Then let the stalled writer finish so the (correct)
                // wait can terminate.
                2 => {
                    released = true;
                    drop(stalled.take());
                }
                _ => {}
            }
        });
        assert!(released, "quiescence declared while a registered writer was still in flight");
        assert!(rounds >= 3, "the wait must re-check after the late enter/exit pair");
    }

    /// The same quiescence read-order race as above, replayed through
    /// the `gate::between_loads` probe — i.e. through the *production*
    /// `await_quiescence` path rather than the test-only injection
    /// closure. One of the three historical-bug replays the audit-sched
    /// toolchain pins down (see jiffy-audit).
    #[cfg(feature = "audit-sched")]
    #[test]
    fn gate_probe_replays_the_quiescence_read_order_race() {
        use std::sync::mpsc;
        use std::time::Duration;
        const T: Duration = Duration::from_secs(10);

        let gate = Arc::new(WriterGate::default());
        let stalled = gate.enter(); // the in-flight pre-CAS writer
        let armed = Arc::new(AtomicBool::new(true));
        let (tx_win, rx_win) = mpsc::channel::<()>();
        let (tx_go, rx_go) = mpsc::channel::<()>();
        let rx_go = std::sync::Mutex::new(rx_go);
        let h_armed = Arc::clone(&armed);
        let _h = jiffy_audit::sched::install(Arc::new(move |site| {
            if site == "gate::between_loads" && h_armed.load(Ordering::SeqCst) {
                tx_win.send(()).unwrap();
                rx_go.lock().unwrap().recv().unwrap();
            }
        }));

        let done = Arc::new(AtomicBool::new(false));
        let waiter = {
            let gate = Arc::clone(&gate);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                gate.await_quiescence();
                done.store(true, Ordering::SeqCst);
            })
        };
        // Window 1: the waiter is parked between its two counter loads,
        // holding a `completed` snapshot taken while `stalled` was (and
        // still is) registered.
        rx_win.recv_timeout(T).expect("the waiter never reached the probe");
        // The late register-then-retry writer lands a full enter/exit
        // pair exactly inside the window.
        drop(gate.enter());
        tx_go.send(()).unwrap();
        // The correct read order must LOOP here (stale completed=0 <
        // started=2). The buggy order would match the late pair against
        // its stale `started` snapshot and declare quiescence — in which
        // case this recv times out and/or `done` flips early.
        rx_win
            .recv_timeout(T)
            .expect("quiescence declared from a stale completed snapshot (read-order race)");
        assert!(
            !done.load(Ordering::SeqCst),
            "quiescence declared while a registered writer was still in flight"
        );
        // Let the stalled writer exit, then release the parked waiter.
        armed.store(false, Ordering::SeqCst);
        drop(stalled);
        tx_go.send(()).unwrap();
        waiter.join().unwrap();
        assert!(done.load(Ordering::SeqCst));
        assert!(jiffy_audit::sched::hits("gate::between_loads") >= 2);

        // Golden flight-recorder trace: the waiter declared quiescence
        // only after looping (spins recorded in payload b), and the
        // replay's kind set matches the checked-in fixture.
        let golden: Vec<String> = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/gate_quiesce_race.golden"
        ))
        .expect("golden fixture")
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
        let trace = jiffy_obs::merged_trace();
        let mut kinds: Vec<&str> = trace
            .iter()
            .filter(|e| e.kind == jiffy_obs::EventKind::GateQuiesce)
            .map(|e| e.kind.name())
            .collect();
        kinds.dedup();
        assert_eq!(kinds, golden, "gate-quiescence kind set diverged from the golden trace");
        assert!(
            trace
                .iter()
                .any(|e| e.kind == jiffy_obs::EventKind::GateQuiesce && e.a == 2 && e.b >= 2),
            "no contended quiescence event recorded for the replayed wait \
             (completed = 2 writers, spins >= 2)"
        );
    }

    #[test]
    fn resharder_splits_hot_and_merges_cold() {
        let map = elastic(vec![32_000, 64_000]); // 3 shards over [0, 96k)
        let mut resharder = Resharder::new(1.6, 4).with_min_ops(100);
        // First step baselines.
        assert_eq!(resharder.step(&map, 96_000).unwrap(), None);
        // Hammer shard 0 only.
        for i in 0..2_000u64 {
            map.put(i % 32_000, i);
        }
        let event = resharder.step(&map, 96_000).unwrap();
        assert_eq!(event, Some(ReshardEvent::Split { shard: 0, at: 16_000 }));
        assert_eq!(map.shard_count(), 4);
        assert_eq!(map.splits(), vec![16_000, 32_000, 64_000]);
        // At the cap now: continued skew merges the coldest pair instead.
        assert_eq!(resharder.step(&map, 96_000).unwrap(), None, "re-baseline after layout change");
        for i in 0..2_000u64 {
            map.put(i % 16_000, i);
        }
        let event = resharder.step(&map, 96_000).unwrap();
        // Pairs (1,2) and (2,3) are both stone-cold; the first wins.
        assert_eq!(event, Some(ReshardEvent::Merge { left: 1 }));
        assert_eq!(map.shard_count(), 3);
        // Balanced traffic: no action.
        assert_eq!(resharder.step(&map, 96_000).unwrap(), None);
        for i in 0..3_000u64 {
            map.put(i * 31 % 96_000, i);
        }
        assert_eq!(resharder.step(&map, 96_000).unwrap(), None, "balanced load must not reshard");
    }

    #[test]
    fn resharder_never_merges_below_two_shards() {
        // max_shards == 2 with a 2-shard layout under hard skew: the cap
        // forbids splitting and the floor forbids merging — the step
        // must do nothing rather than collapse to 1 shard, where
        // imbalance is 1.0 by definition and the policy goes blind.
        let map = elastic(vec![500]);
        let mut resharder = Resharder::new(1.5, 2).with_min_ops(100);
        assert_eq!(resharder.step(&map, 1000).unwrap(), None); // baseline
        for i in 0..1_000u64 {
            map.put(i % 500, i); // shard 0 only
        }
        assert_eq!(resharder.step(&map, 1000).unwrap(), None);
        assert_eq!(map.shard_count(), 2, "must not merge down to a blind single shard");
    }

    #[test]
    fn resharder_step_tolerates_concurrent_reshards() {
        // A manual reshard racing the policy loop must never panic the
        // maintenance thread — worst case it costs one observation
        // window. (The hash-config error still surfaces.)
        let map = Arc::new(elastic(vec![500]));
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let map = Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let mut i = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        map.put(i % 250, i); // keep shard 0 hot
                        i += 1;
                    }
                });
            }
            {
                // The rival resharder: splits and merges continuously.
                let map = Arc::clone(&map);
                let stop = &stop;
                s.spawn(move || {
                    let mut at = 100u64;
                    while !stop.load(Ordering::Relaxed) {
                        at = 100 + (at + 37) % 300; // never the 500 boundary
                        if map.split_at(at).is_ok() {
                            let left = map.splits().iter().position(|s| *s == at).unwrap_or(0);
                            let _ = map.merge_at(left);
                        }
                    }
                });
            }
            let mut resharder = Resharder::new(1.2, 8).with_min_ops(64);
            for _ in 0..300 {
                resharder.step(&map, 1000).expect("step must not error under racing reshards");
            }
            stop.store(true, Ordering::Relaxed);
        });
        let hash: ElasticJiffy<u64, u64> =
            ElasticJiffy::with_router(Router::hash(2), JiffyConfig::default());
        assert!(!hash.is_range_routed());
        let mut resharder = Resharder::new(1.2, 4).with_min_ops(0);
        assert_eq!(
            resharder.step(&hash, 1000).unwrap_err(),
            ReshardError::HashRouter,
            "polling a hash layout is a configuration mistake, surfaced immediately"
        );
    }

    #[test]
    fn diff_to_batch_covers_all_cases() {
        let source = vec![(1u64, 10u64), (2, 20), (4, 44), (6, 60)];
        let copied = vec![(2u64, 20u64), (3, 30), (4, 40), (7, 70)];
        let ops = diff_to_batch(source, copied);
        assert_eq!(
            ops,
            vec![
                BatchOp::Put(1, 10), // new after cut
                BatchOp::Remove(3),  // removed after cut
                BatchOp::Put(4, 44), // changed after cut
                BatchOp::Put(6, 60), // new after cut
                BatchOp::Remove(7),  // removed after cut
            ]
        );
        assert!(diff_to_batch::<u64, u64>(vec![], vec![]).is_empty());
        assert_eq!(diff_to_batch(vec![(5u64, 5u64)], vec![(5, 5)]), vec![]);
    }
}
