//! Cross-map two-phase batches: Jiffy's pending-version protocol
//! (§3.3.2–§3.3.3) lifted across map instances.
//!
//! Inside one `JiffyMap`, a batch is atomic because every revision it
//! creates reads its version through one shared [`BatchDescriptor`]: the
//! CAS that finalizes the descriptor's version cell is the batch's
//! linearization point. Nothing in that argument requires the revisions
//! to live in one map — only that they read *one* cell and that all
//! version numbers come from *one* clock. This module exposes exactly
//! that generalization as inherent [`JiffyMap`] methods, driven by a
//! coordinator such as `jiffy-shard`:
//!
//! 1. [`JiffyMap::pending_version`] draws one optimistic version from the
//!    map's clock and wraps it in a ticket ([`TwoPhaseTicket`], state
//!    machine `Pending -> Committed/Aborted`). All participating maps
//!    must share one version clock;
//! 2. [`JiffyMap::prepare_batch`] stages a sub-batch whose descriptor
//!    *shares* the ticket's cell and carries the coordinator's resolver
//!    — nothing visible yet;
//! 3. [`JiffyMap::install_prepared`] installs the staged revisions (all
//!    still invisible: readers skip pending revisions, and the shared
//!    cell is still negative). Idempotent: initiator and helpers may
//!    race freely;
//! 4. [`JiffyMap::commit_pending`] finalizes the shared cell — at that
//!    single CAS every sub-batch on every participating map becomes
//!    visible at once.
//!
//! Helping: any thread that encounters one of the batch's pending
//! revisions (a reader resolving a snapshot, a writer stacking a new
//! revision, another batch) first drives the *local* installation via
//! the ordinary §3.3.3 helping loop, then invokes the resolver, which
//! must perform steps 3–4 for the whole batch. A stalled initiator
//! therefore never blocks anyone.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use index_api::Batch;
use jiffy_clock::VersionClock;

use crate::batch::BatchDescriptor;
use crate::inner::{MapKey, MapValue};
use crate::version::{finalize_cell, optimistic_version, VersionCell};
use crate::JiffyMap;

/// Lifecycle of one cross-map two-phase batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchPhase {
    /// Staged or installing; the shared version is still optimistic
    /// (negative) and no reader selects the batch's revisions.
    Pending,
    /// The shared version was finalized: every sub-batch on every
    /// participating map became visible at that single instant.
    Committed,
    /// Abandoned before any sub-batch was installed. Terminal; a ticket
    /// must never be aborted once any part of it is visible to readers.
    Aborted,
}

/// The cross-map help-to-completion routine a coordinator attaches to
/// each staged sub-batch: it must install *every* sub-batch of the batch
/// on its map and then commit the shared ticket. Any reader or writer
/// that runs into one of the batch's pending entries invokes it instead
/// of blocking, so a stalled initiator can never wedge the map (the
/// paper's §3.3.3 helping idiom lifted across maps).
pub type BatchResolver = Arc<dyn Fn() + Send + Sync>;

/// The shared pending version of one cross-map batch. All sub-batch
/// descriptors bound to this ticket read the same version cell, so the
/// commit CAS flips every one of them simultaneously.
///
/// State machine: `Pending -> Committed` (via
/// [`JiffyMap::commit_pending`], the batch's linearization point) or
/// `Pending -> Aborted` (via [`JiffyMap::abort_pending`], legal only
/// while nothing is installed). Both transitions are one-way.
pub struct TwoPhaseTicket {
    cell: Arc<VersionCell>,
    aborted: AtomicBool,
}

impl TwoPhaseTicket {
    /// The version number: negative (optimistic lower bound) while
    /// pending, the final positive version after commit.
    pub fn version(&self) -> i64 {
        self.cell.load()
    }

    /// Where the ticket is in its `Pending -> Committed/Aborted` machine.
    pub fn phase(&self) -> BatchPhase {
        if self.aborted.load(Ordering::Acquire) {
            BatchPhase::Aborted
        } else if self.cell.load() >= 0 {
            BatchPhase::Committed
        } else {
            BatchPhase::Pending
        }
    }
}

/// One staged sub-batch (phase 1) of a cross-map two-phase batch.
/// Obtained from [`JiffyMap::prepare_batch`]; installed — possibly by
/// helpers, possibly many times — through [`JiffyMap::install_prepared`].
pub struct TwoPhasePrepared<K, V> {
    desc: Arc<BatchDescriptor<K, V>>,
}

impl<K, V> TwoPhasePrepared<K, V> {
    /// Whether every operation of this sub-batch has been installed on
    /// its map (all still invisible until the shared ticket commits).
    pub fn is_installed(&self) -> bool {
        self.desc.progress() >= self.desc.len()
    }
}

impl<K: MapKey, V: MapValue, C: VersionClock> JiffyMap<K, V, C> {
    /// Draw a fresh pending ticket from this map's version clock.
    pub fn pending_version(&self) -> Arc<TwoPhaseTicket> {
        let v = optimistic_version(&self.inner.clock);
        let cell = Arc::new(VersionCell::with_value(v));
        // Pending versions are negative; the recorder stamps with the
        // magnitude so the event sorts where the clock draw happened.
        jiffy_obs::trace_event!(TwoPhasePrepare, v.unsigned_abs(), Arc::as_ptr(&cell) as usize);
        Arc::new(TwoPhaseTicket { cell, aborted: AtomicBool::new(false) })
    }

    /// Phase 1 (stage): bind `batch` to the shared `ticket`.
    /// No operation becomes reachable until
    /// [`install_prepared`](Self::install_prepared).
    pub fn prepare_batch(
        &self,
        batch: Batch<K, V>,
        ticket: &TwoPhaseTicket,
        resolver: BatchResolver,
    ) -> Arc<TwoPhasePrepared<K, V>> {
        debug_assert_eq!(
            ticket.phase(),
            BatchPhase::Pending,
            "sub-batches may only be staged on a still-pending ticket"
        );
        Arc::new(TwoPhasePrepared {
            desc: Arc::new(BatchDescriptor::new_shared(
                Arc::clone(&ticket.cell),
                resolver,
                batch.into_ops(),
            )),
        })
    }

    /// Phase 1 (install): install — or help install — the staged
    /// sub-batch's revisions on this map. Idempotent; returns once the
    /// sub-batch is fully installed (still invisible to readers). A
    /// caller holding a stale handle (the batch committed meanwhile) is
    /// harmless: this is `help_batch`, which validates the descriptor
    /// after every head read it installs against.
    pub fn install_prepared(&self, prepared: &TwoPhasePrepared<K, V>) {
        if prepared.desc.len() == 0 {
            return;
        }
        jiffy_obs::trace_event!(
            TwoPhaseInstall,
            prepared.desc.version_cell().load().unsigned_abs(),
            Arc::as_ptr(&prepared.desc) as usize,
            prepared.desc.len()
        );
        self.inner.help_batch(&prepared.desc);
        self.inner.bump_update_tick();
    }

    /// Phase 2: publish the shared final version; every sub-batch bound
    /// to `ticket` becomes visible atomically. Idempotent (the cell only
    /// moves pending -> final, first writer wins, so a late helper reads
    /// the version it lost to); returns the final version.
    pub fn commit_pending(&self, ticket: &TwoPhaseTicket) -> i64 {
        debug_assert!(
            !ticket.aborted.load(Ordering::Acquire),
            "an aborted ticket must never be committed"
        );
        let v = finalize_cell(&self.inner.clock, &ticket.cell);
        jiffy_obs::trace_event!(TwoPhaseCommit, v, Arc::as_ptr(&ticket.cell) as usize);
        v
    }

    /// Abandon a ticket *no part of which was ever installed*. Returns
    /// `false` (and does nothing) if the ticket already committed. The
    /// version read is not re-validated before the flag is set, and need
    /// not be: with nothing installed no helper can reach the ticket, so
    /// only its holder can commit it.
    pub fn abort_pending(&self, ticket: &TwoPhaseTicket) -> bool {
        let v = ticket.cell.load();
        if v >= 0 {
            return false;
        }
        ticket.aborted.store(true, Ordering::Release);
        jiffy_obs::trace_event!(
            TwoPhaseAbort,
            v.unsigned_abs(),
            Arc::as_ptr(&ticket.cell) as usize
        );
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use index_api::BatchOp;

    type SharedMap = JiffyMap<u64, u64, Arc<dyn VersionClock>>;
    type StagedSubs = Vec<(usize, Arc<TwoPhasePrepared<u64, u64>>)>;

    fn two_maps_one_clock() -> (Arc<SharedMap>, Arc<SharedMap>) {
        // Reuse the sharding wiring: one DefaultClock shared via Arc.
        let clock: Arc<dyn VersionClock> = Arc::new(jiffy_clock::DefaultClock::default());
        let a = Arc::new(JiffyMap::with_clock_and_config(
            Arc::clone(&clock),
            crate::JiffyConfig::default(),
        ));
        let b = Arc::new(JiffyMap::with_clock_and_config(clock, crate::JiffyConfig::default()));
        (a, b)
    }

    fn resolver_for(
        maps: &[Arc<SharedMap>; 2],
        ticket: &Arc<TwoPhaseTicket>,
        subs: &Arc<std::sync::OnceLock<StagedSubs>>,
    ) -> BatchResolver {
        let maps = [Arc::clone(&maps[0]), Arc::clone(&maps[1])];
        let ticket = Arc::clone(ticket);
        let subs = Arc::clone(subs);
        Arc::new(move || {
            let Some(subs) = subs.get() else { return };
            for (i, prepared) in subs.iter() {
                maps[*i].install_prepared(prepared);
            }
            maps[0].commit_pending(&ticket);
        })
    }

    #[test]
    fn two_phase_commit_is_atomic_across_maps() {
        let (a, b) = two_maps_one_clock();
        a.put(1, 0);
        b.put(2, 0);
        let maps = [Arc::clone(&a), Arc::clone(&b)];
        let ticket = a.pending_version();
        assert_eq!(ticket.phase(), BatchPhase::Pending);
        assert!(ticket.version() < 0);
        let subs = Arc::new(std::sync::OnceLock::new());
        let resolver = resolver_for(&maps, &ticket, &subs);
        let pa =
            a.prepare_batch(Batch::new(vec![BatchOp::Put(1, 7)]), &ticket, Arc::clone(&resolver));
        let pb = b.prepare_batch(Batch::new(vec![BatchOp::Put(2, 7)]), &ticket, resolver);
        subs.set(vec![(0, Arc::clone(&pa)), (1, Arc::clone(&pb))]).ok();

        // Staged but not installed: nothing changed.
        assert!(!pa.is_installed() && !pb.is_installed());
        assert_eq!((a.get(&1), b.get(&2)), (Some(0), Some(0)));

        // Installed but pending: still nothing visible.
        a.install_prepared(&pa);
        b.install_prepared(&pb);
        assert!(pa.is_installed() && pb.is_installed());
        assert_eq!((a.get(&1), b.get(&2)), (Some(0), Some(0)));

        // Commit: both flip at once.
        let v = a.commit_pending(&ticket);
        assert!(v > 0);
        assert_eq!(ticket.phase(), BatchPhase::Committed);
        assert_eq!(ticket.version(), v);
        assert_eq!((a.get(&1), b.get(&2)), (Some(7), Some(7)));
        // Commit is idempotent.
        assert_eq!(b.commit_pending(&ticket), v);
    }

    #[test]
    fn reader_helping_completes_a_stalled_batch() {
        // Install only map A's half, then make a snapshot reader of A
        // resolve the pending entry: the resolver must install B's half
        // and commit, without the initiator ever finishing.
        let (a, b) = two_maps_one_clock();
        a.put(1, 0);
        b.put(2, 0);
        let maps = [Arc::clone(&a), Arc::clone(&b)];
        let ticket = a.pending_version();
        let subs = Arc::new(std::sync::OnceLock::new());
        let resolver = resolver_for(&maps, &ticket, &subs);
        let pa =
            a.prepare_batch(Batch::new(vec![BatchOp::Put(1, 9)]), &ticket, Arc::clone(&resolver));
        let pb = b.prepare_batch(Batch::new(vec![BatchOp::Put(2, 9)]), &ticket, resolver);
        subs.set(vec![(0, Arc::clone(&pa)), (1, Arc::clone(&pb))]).ok();
        a.install_prepared(&pa);
        // Initiator "stalls" here: B not installed, nothing committed.
        assert!(!pb.is_installed());

        // A snapshot read of the pending key helps the whole batch.
        let snap = a.snapshot();
        let got = snap.get(&1);
        assert_eq!(ticket.phase(), BatchPhase::Committed, "reader must resolve the batch");
        assert!(pb.is_installed(), "helping must install the sibling sub-batch");
        assert_eq!(b.get(&2), Some(9));
        // The reader itself sees pre- or post-batch state depending on
        // where the commit version landed relative to its snapshot — but
        // never a torn mix, and a fresh read sees the batch.
        assert!(got == Some(0) || got == Some(9));
        assert_eq!(a.get(&1), Some(9));
    }

    #[test]
    fn abort_before_install_is_clean() {
        let (a, b) = two_maps_one_clock();
        let ticket = a.pending_version();
        let subs: Arc<std::sync::OnceLock<StagedSubs>> = Arc::new(std::sync::OnceLock::new());
        let resolver = resolver_for(&[Arc::clone(&a), Arc::clone(&b)], &ticket, &subs);
        let _pa = a.prepare_batch(Batch::new(vec![BatchOp::Put(5, 5)]), &ticket, resolver);
        assert!(a.abort_pending(&ticket));
        assert_eq!(ticket.phase(), BatchPhase::Aborted);
        // Nothing was installed, so the map is untouched.
        assert_eq!(a.get(&5), None);
        // An aborted ticket reports its phase but a committed one wins
        // the abort race the other way.
        let t2 = a.pending_version();
        a.commit_pending(&t2);
        assert!(!a.abort_pending(&t2), "commit must beat a late abort");
    }
}
