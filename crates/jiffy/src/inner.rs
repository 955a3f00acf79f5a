//! Shared state of a Jiffy index and lifecycle management.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI64, AtomicIsize, AtomicUsize, Ordering};
use std::time::Instant;

use crossbeam_epoch::{self as epoch, Atomic, Guard, Shared};
use crossbeam_utils::CachePadded;
use jiffy_clock::VersionClock;

use crate::autoscale::ThreadScaleState;
use crate::config::JiffyConfig;
use crate::node::{Node, NodeKey, Revision, MAX_HEIGHT};
use crate::snapshot::SnapRegistry;

/// Key bounds required by [`JiffyMap`](crate::JiffyMap).
pub trait MapKey: Ord + Clone + std::hash::Hash + Send + Sync + 'static {}
impl<T: Ord + Clone + std::hash::Hash + Send + Sync + 'static> MapKey for T {}

/// Value bounds required by [`JiffyMap`](crate::JiffyMap).
pub trait MapValue: Clone + Send + Sync + 'static {}
impl<T: Clone + Send + Sync + 'static> MapValue for T {}

static NEXT_MAP_ID: AtomicUsize = AtomicUsize::new(1);

thread_local! {
    /// Per-(thread, map) autoscaler bookkeeping (§3.3.6) keyed by map id.
    pub(crate) static SCALE_STATE: RefCell<HashMap<usize, ThreadScaleState>> =
        RefCell::new(HashMap::new());
    /// Per-thread RNG state for tower heights.
    pub(crate) static RNG_STATE: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    /// Per-thread update tick (drives the periodic snapshot-min refresh
    /// without a shared counter on the hot path).
    pub(crate) static TICKS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Per-thread stripe index for the entry counter.
    pub(crate) static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

/// Stripes for the approximate entry counter (updates would otherwise
/// serialize every core on one cache line — measurably catastrophic on
/// small machines).
pub(crate) const LEN_STRIPES: usize = 16;

/// Reader threads fold their autoscaler statistics into the head
/// revision only every this many reads (paper: 100, §3.3.6).
pub(crate) const READS_PER_STATS_UPDATE: u32 = 100;

/// The shared internals of a [`JiffyMap`](crate::JiffyMap).
pub(crate) struct JiffyInner<K, V, C> {
    /// The base node (`⊥`): owns range `(-inf, first-split-key)`, carries a
    /// full-height tower, never merges, never removed (§3.1). The pointer
    /// itself never changes.
    pub(crate) base: Atomic<Node<K, V>>,
    pub(crate) clock: C,
    pub(crate) config: JiffyConfig,
    pub(crate) snapshots: SnapRegistry,
    /// Cached lower bound of the minimum registered snapshot version,
    /// refreshed every `config.updates_per_min_scan` updates (per
    /// thread). Monotone non-decreasing; staleness only retains extra
    /// garbage (§3.3.4).
    pub(crate) cached_min: CachePadded<AtomicI64>,
    /// Approximate entry count, striped to avoid a shared hot line (see
    /// [`JiffyMap::len_approx`](crate::JiffyMap::len_approx)).
    pub(crate) len_stripes: Box<[CachePadded<AtomicIsize>]>,
    pub(crate) map_id: usize,
    /// Wall-clock origin for autoscaler timestamps.
    pub(crate) started: Instant,
}

static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyInner<K, V, C> {
    pub(crate) fn new(clock: C, config: JiffyConfig) -> Self {
        config.validate();
        let base = Node::<K, V>::new_normal(NodeKey::NegInf, MAX_HEIGHT);
        base.head.store(crossbeam_epoch::Owned::new(Revision::initial()), Ordering::Release);
        JiffyInner {
            base: Atomic::new(base),
            clock,
            config,
            snapshots: SnapRegistry::new(),
            cached_min: CachePadded::new(AtomicI64::new(0)),
            len_stripes: (0..LEN_STRIPES).map(|_| CachePadded::new(AtomicIsize::new(0))).collect(),
            map_id: NEXT_MAP_ID.fetch_add(1, Ordering::Relaxed),
            started: Instant::now(),
        }
    }

    /// Process-relative seconds for autoscaler timestamps (f32 precision
    /// is ample: the EMAs clamp weights to (0, 1]).
    #[inline]
    pub(crate) fn now_secs(&self) -> f32 {
        self.started.elapsed().as_secs_f32()
    }

    /// Adjust the approximate entry count (per-thread stripe).
    #[inline]
    pub(crate) fn add_len(&self, delta: isize) {
        if delta == 0 {
            return;
        }
        let stripe = STRIPE.with(|s| {
            let mut v = s.get();
            if v == usize::MAX {
                v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % LEN_STRIPES;
                s.set(v);
            }
            v
        });
        self.len_stripes[stripe].fetch_add(delta, Ordering::Relaxed);
    }

    /// Sum of the entry-count stripes.
    pub(crate) fn len_estimate(&self) -> isize {
        self.len_stripes.iter().map(|s| s.load(Ordering::Relaxed)).sum()
    }

    #[inline]
    pub(crate) fn base_node<'g>(&self, guard: &'g Guard) -> Shared<'g, Node<K, V>> {
        self.base.load(Ordering::Acquire, guard)
    }

    /// Random tower height using the thread-local xorshift state.
    pub(crate) fn random_height(&self) -> usize {
        RNG_STATE.with(|s| {
            let mut state = s.get();
            if state == 0 {
                // Seed from the thread's stack address + time; quality is
                // irrelevant beyond decorrelating threads.
                let x = &state as *const _ as u64;
                state = x ^ (Instant::now().elapsed().as_nanos() as u64) ^ 0x9E37_79B9_7F4A_7C15;
                if state == 0 {
                    state = 0x2545_F491_4F6C_DD1D;
                }
            }
            let h = crate::node::random_height(&mut state);
            s.set(state);
            h
        })
    }

    /// Read-side fold throttle: true once per [`READS_PER_STATS_UPDATE`]
    /// reads on this thread ("reader threads update the moving averages
    /// only every 100 read operations", §3.3.6). The weight itself comes
    /// from the node's read gap.
    pub(crate) fn read_fold_due(&self) -> bool {
        SCALE_STATE.with(|m| {
            let mut m = m.borrow_mut();
            let st = m.entry(self.map_id).or_default();
            st.reads_since_fold += 1;
            if st.reads_since_fold >= READS_PER_STATS_UPDATE {
                st.reads_since_fold = 0;
                true
            } else {
                false
            }
        })
    }

    /// Periodic refresh of the cached minimum snapshot version; the cache
    /// only moves forward (a stale value is a safe lower bound). Counted
    /// per thread so the hot path touches no shared line.
    pub(crate) fn bump_update_tick(&self) {
        let due = TICKS.with(|t| {
            let v = t.get().wrapping_add(1);
            t.set(v);
            v % self.config.updates_per_min_scan == 0
        });
        if due {
            let min = self.snapshots.min_version(&self.clock);
            self.cached_min.fetch_max(min, Ordering::AcqRel);
        }
    }

    #[inline]
    pub(crate) fn gc_floor(&self) -> i64 {
        self.cached_min.load(Ordering::Acquire)
    }
}

impl<K, V, C> Drop for JiffyInner<K, V, C> {
    fn drop(&mut self) {
        // SAFETY: exclusive access — no concurrent operations can exist
        // (public ops borrow the map, and we hold `&mut self`). Walk the
        // level-0 list and free every node and every revision reachable
        // through *owning* edges (see node.rs).
        let guard = unsafe { epoch::unprotected() };
        unsafe {
            let mut node_s = self.base.load(Ordering::Relaxed, guard);
            while !node_s.is_null() {
                let node = node_s.deref();
                let next = node.next.load(Ordering::Relaxed, guard);
                let head = node.head.load(Ordering::Relaxed, guard);
                if !head.is_null() {
                    destroy_chain_now::<K, V>(head, guard);
                }
                drop(node_s.into_owned());
                node_s = next;
            }
        }
    }
}

/// Immediately destroy a revision chain, following owning edges only.
///
/// # Safety
/// Caller must have exclusive access to the chain (map teardown).
pub(crate) unsafe fn destroy_chain_now<K, V>(start: Shared<'_, Revision<K, V>>, guard: &Guard) {
    let mut work = vec![start];
    while let Some(rev_s) = work.pop() {
        if rev_s.is_null() {
            continue;
        }
        // SAFETY: the caller has exclusive access to the chain (fn
        // contract), so the revision is alive and unaliased.
        let rev = unsafe { rev_s.deref() };
        if rev.owns_next() {
            work.push(rev.next.load(Ordering::Relaxed, guard));
        }
        if let Some(mi) = rev.as_merge() {
            work.push(mi.right_next.load(Ordering::Relaxed, guard));
        }
        // SAFETY: exclusive access (fn contract) — take ownership and free.
        drop(unsafe { rev_s.into_owned() });
    }
}

/// Defer destruction of a revision chain after it has been unlinked by a
/// GC cut (the caller won the truncation swap).
///
/// Each onward edge is *claimed* by atomically swapping it to null before
/// following it. Two GC passes over the same node can race: one severs
/// the list high up while the other, holding an older floor, severs (and
/// starts destroying from) a point inside the already-severed region.
/// The per-edge swap guarantees every revision is deferred by exactly one
/// walker — whoever nulled its owning in-edge.
///
/// # Safety
/// The chain must be unreachable for new readers; `guard` keeps it alive
/// for current ones.
pub(crate) unsafe fn defer_destroy_chain<K: MapKey, V: MapValue>(
    start: Shared<'_, Revision<K, V>>,
    guard: &Guard,
) {
    // Walk the spine in a loop; only merge revisions' right branches wait
    // on a stack, so the common linear chain allocates nothing (this runs
    // on every GC cut, i.e. once per update).
    let mut branches = Vec::new();
    let mut spine = Some(start);
    while let Some(rev_s) = spine.take().or_else(|| branches.pop()) {
        if rev_s.is_null() {
            continue;
        }
        // SAFETY: non-null and reached under the enclosing pin guard;
        // EBR defers reclamation of epoch-reachable nodes until unpin.
        let rev = unsafe { rev_s.deref() };
        if rev.owns_next() {
            spine = Some(rev.next.swap(Shared::null(), Ordering::AcqRel, guard));
        }
        if let Some(mi) = rev.as_merge() {
            branches.push(mi.right_next.swap(Shared::null(), Ordering::AcqRel, guard));
        }
        // SAFETY: unlinked from the structure above, so no new reader
        // can reach it; already-pinned readers hold it until they unpin.
        unsafe { guard.defer_destroy(rev_s) };
    }
}

// SAFETY: all shared state is accessed through atomics/epoch pointers; the
// contained K/V are required to be Send + Sync via Map bounds.
unsafe impl<K: Send + Sync, V: Send + Sync, C: Send + Sync> Send for JiffyInner<K, V, C> {}
unsafe impl<K: Send + Sync, V: Send + Sync, C: Send + Sync> Sync for JiffyInner<K, V, C> {}
