//! Snapshot registration (paper §3.3.4).
//!
//! A thread that wants a consistent view registers in a shared lock-free
//! list, publishing its *snapshot version* (a clock read). Jiffy's inner
//! garbage collector scans the list for the minimum registered version to
//! learn which revisions can never be read again.
//!
//! The registry uses the classic hazard-record scheme: slots are pushed
//! once and *reused* (claimed with a CAS on an `active` flag), never
//! unlinked — so registration is lock-free, there is no ABA, and the list
//! length is bounded by the peak number of simultaneously live snapshots.
//!
//! Safety of the min computation: a scanner may miss a slot that is being
//! claimed concurrently, but any snapshot registered after the scan began
//! gets a version no lower than the clock *at the moment the scan began*
//! — which is why `min_version` caps its result by a clock value read
//! before the walk (see the method docs for the preemption race the cap
//! closes). A stale minimum is therefore always a *conservative* (lower)
//! bound — it can only retain extra garbage, never free something a
//! reader needs. For the same reason a reused slot's stale version
//! (visible for an instant before the claimer stores its own) is
//! harmless: it is older, hence lower.

use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};

use jiffy_clock::VersionClock;

/// One registration slot. Slots live until the registry is dropped.
pub(crate) struct SnapSlot {
    version: AtomicI64,
    active: AtomicBool,
    next: *mut SnapSlot,
}

// SAFETY: slots are plain atomics + an immutable next pointer; shared
// across threads by design.
unsafe impl Send for SnapSlot {}
unsafe impl Sync for SnapSlot {}

impl SnapSlot {
    #[inline]
    pub(crate) fn version(&self) -> i64 {
        self.version.load(Ordering::Acquire)
    }

    /// Refresh the published snapshot version (a plain store; §3.3.4 notes
    /// this "does not even require a CAS"). Must not decrease while held.
    #[inline]
    pub(crate) fn refresh(&self, version: i64) {
        debug_assert!(version >= 0);
        self.version.store(version, Ordering::Release);
    }

    /// Release the slot for reuse by a future snapshot.
    #[inline]
    pub(crate) fn release(&self) {
        self.active.store(false, Ordering::Release);
    }
}

/// The lock-free snapshot list.
pub(crate) struct SnapRegistry {
    head: std::sync::atomic::AtomicPtr<SnapSlot>,
}

impl SnapRegistry {
    pub(crate) fn new() -> Self {
        SnapRegistry { head: std::sync::atomic::AtomicPtr::new(std::ptr::null_mut()) }
    }

    /// Register a snapshot at `version`; returns the claimed slot.
    pub(crate) fn register(&self, version: i64) -> &SnapSlot {
        debug_assert!(version >= 0);
        // First, try to reuse an inactive slot.
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: slots are never freed while the registry is alive
            // (only `Drop` reclaims them), so any pointer read from the
            // list is valid here.
            let slot = unsafe { &*cur };
            if !slot.active.load(Ordering::Relaxed)
                && slot
                    .active
                    .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            {
                // Claimed. A concurrent min-scan may briefly observe the
                // previous (older = lower = safe) version.
                slot.refresh(version);
                return slot;
            }
            cur = slot.next;
        }
        // No free slot: push a new one (version set before publication).
        let slot = Box::into_raw(Box::new(SnapSlot {
            version: AtomicI64::new(version),
            active: AtomicBool::new(true),
            next: std::ptr::null_mut(),
        }));
        loop {
            let head = self.head.load(Ordering::Acquire);
            // SAFETY: `slot` is ours until the CAS below publishes it.
            unsafe { (*slot).next = head };
            if self.head.compare_exchange(head, slot, Ordering::AcqRel, Ordering::Acquire).is_ok() {
                // SAFETY: now published; slots live until the registry drops.
                return unsafe { &*slot };
            }
        }
    }

    /// Minimum registered snapshot version, **capped by a clock value
    /// read before the walk begins**; the pre-walk value alone if no
    /// snapshot is active.
    ///
    /// The cap is what makes the result a safe GC floor under
    /// preemption. A scanner can miss a slot whose claim races the walk;
    /// the claimer re-reads the clock *after* claiming (see
    /// `JiffyMap::snapshot`), so its final version is `>=` any clock
    /// value read before the claim — in particular `>=` our pre-walk
    /// read. Without the cap, both of the walk's other inputs can exceed
    /// that bound when the scanner is descheduled mid-walk: the old code
    /// read the no-snapshot fallback *after* the walk (deschedule after
    /// the walk, reader registers at 110, scanner wakes and reads 150 →
    /// floor 150 over a live reader at 110), and a slot visited late in
    /// the walk can carry a version stamped after the missed claim. Both
    /// holes let the §3.3.4 revision GC cut history a just-registered
    /// snapshot still needs.
    pub(crate) fn min_version<C: VersionClock>(&self, clock: &C) -> i64 {
        let pre_walk = clock.now() as i64;
        // The widest race window of this function: between the pre-walk
        // clock read and the slot walk, a racing claimer can register a
        // snapshot the walk will miss — the cap above is what keeps the
        // result safe. Let the explorer stretch the window.
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("snapshot::floor-walk");
        let mut min: Option<i64> = None;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: slots live until the registry is dropped.
            let slot = unsafe { &*cur };
            if slot.active.load(Ordering::Acquire) {
                let v = slot.version();
                min = Some(min.map_or(v, |m: i64| m.min(v)));
            }
            cur = slot.next;
        }
        let floor = min.map_or(pre_walk, |m| m.min(pre_walk));
        if let Some(m) = min {
            // Trace only walks that saw a live snapshot (the idle path
            // stays event-free): `b = 1` means the pre-walk cap bound
            // the floor — the exact outcome the §3.3.4 race is about.
            jiffy_obs::trace_event!(GcFloorAdvance, floor, m as u64, (m >= pre_walk) as u64);
        }
        floor
    }

    /// Number of slots ever allocated (for tests/telemetry).
    #[allow(dead_code)] // exercised by unit tests
    pub(crate) fn slot_count(&self) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            // SAFETY: slots live until the registry is dropped.
            cur = unsafe { (*cur).next };
        }
        n
    }
}

impl Drop for SnapRegistry {
    fn drop(&mut self) {
        let mut cur = *self.head.get_mut();
        while !cur.is_null() {
            // SAFETY: `&mut self` means no reader can hold a slot
            // reference; every node was Box-allocated in `register`.
            let boxed = unsafe { Box::from_raw(cur) };
            cur = boxed.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jiffy_clock::AtomicClock;

    /// Advance `clock` past `target` (slot versions must be past clock
    /// reads for the pre-walk cap to be inactive, as in real use).
    fn advance_past(clock: &AtomicClock, target: i64) {
        while (clock.now() as i64) <= target {}
    }

    #[test]
    fn register_and_min() {
        let clock = AtomicClock::new();
        let reg = SnapRegistry::new();
        let a = reg.register(100);
        let b = reg.register(50);
        advance_past(&clock, 100);
        assert_eq!(reg.min_version(&clock), 50);
        b.release();
        assert_eq!(reg.min_version(&clock), 100);
        a.release();
        // No active snapshots: min falls back to a fresh clock read.
        let now_floor = clock.now() as i64;
        assert!(reg.min_version(&clock) >= now_floor);
    }

    #[test]
    fn min_never_exceeds_a_pre_call_clock_read() {
        // The §3.3.4 floor must be capped by a clock value read before
        // the slot walk: a slot claimed-but-missed during the walk
        // re-reads the clock after claiming, so its version is >= any
        // pre-walk read. Registered versions *above* the current clock
        // (impossible in real use, adversarial here) must not leak
        // through as the floor.
        let clock = AtomicClock::new();
        let reg = SnapRegistry::new();
        let _slot = reg.register(1_000_000);
        let pre = clock.now() as i64;
        let floor = reg.min_version(&clock);
        assert!(
            floor <= pre + 1,
            "floor {floor} exceeds the pre-call clock {pre}: unsafe for missed registrations"
        );
    }

    #[test]
    fn slots_are_reused() {
        let reg = SnapRegistry::new();
        let a = reg.register(1);
        a.release();
        let _b = reg.register(2);
        assert_eq!(reg.slot_count(), 1, "released slot must be reused");
        let _c = reg.register(3);
        assert_eq!(reg.slot_count(), 2);
    }

    #[test]
    fn refresh_advances_version() {
        let clock = AtomicClock::new();
        let reg = SnapRegistry::new();
        let s = reg.register(10);
        advance_past(&clock, 10);
        assert_eq!(reg.min_version(&clock), 10);
        s.refresh(500);
        assert_eq!(s.version(), 500);
        advance_past(&clock, 500);
        assert_eq!(reg.min_version(&clock), 500);
    }

    /// A monotone clock that yields the thread on a fraction of reads —
    /// injected preemption at the exact points (`clock.now()` calls)
    /// where the §3.3.4 floor race needs the scheduler to strike. On the
    /// pre-fix `min_version` (post-walk fallback read, uncapped minima)
    /// this makes `floor_never_passes_a_racing_registration` fail within
    /// milliseconds; the pre-walk cap makes it a theorem.
    struct YieldyClock {
        inner: AtomicClock,
        calls: std::sync::atomic::AtomicU64,
    }

    impl YieldyClock {
        fn new() -> Self {
            YieldyClock { inner: AtomicClock::new(), calls: std::sync::atomic::AtomicU64::new(0) }
        }
    }

    impl VersionClock for YieldyClock {
        fn now(&self) -> u64 {
            if self.calls.fetch_add(1, Ordering::Relaxed) % 7 == 0 {
                std::thread::yield_now();
            }
            self.inner.now()
        }

        fn name(&self) -> &'static str {
            "yieldy"
        }
    }

    /// The §3.3.4 floor race replayed *deterministically* through the
    /// `snapshot::floor-walk` probe: the scanner is parked between its
    /// pre-walk clock read and the slot walk while a registration
    /// completes (claim, re-read clock, refresh) in the window. The
    /// pre-walk cap makes the resulting floor safe; the pre-fix code
    /// (post-walk fallback read) would return a floor above the live
    /// registration. One of the three historical-bug replays the
    /// audit-sched toolchain pins down (see jiffy-audit).
    #[cfg(feature = "audit-sched")]
    #[test]
    fn floor_walk_probe_replays_the_racing_registration() {
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Arc, Mutex};
        use std::time::Duration;

        let clock = AtomicClock::new();
        let reg = SnapRegistry::new();
        let (tx_win, rx_win) = mpsc::channel::<()>();
        let (tx_go, rx_go) = mpsc::channel::<()>();
        let rx_go = Mutex::new(rx_go);
        let armed = Arc::new(AtomicBool::new(true));
        let h_armed = Arc::clone(&armed);
        let h = jiffy_audit::sched::install(Arc::new(move |site| {
            if site == "snapshot::floor-walk" && h_armed.swap(false, Ordering::SeqCst) {
                tx_win.send(()).unwrap();
                rx_go.lock().unwrap().recv().unwrap();
            }
        }));

        std::thread::scope(|s| {
            let scanner = s.spawn(|| {
                jiffy_audit::sched::enroll(&h);
                let floor = reg.min_version(&clock);
                (floor, jiffy_obs::recorder::current_thread_id())
            });
            rx_win
                .recv_timeout(Duration::from_secs(10))
                .expect("the scanner never reached the probe");
            // The racing registration, exactly JiffyMap::snapshot's
            // protocol: claim at a first clock read, then re-read the
            // clock and refresh. Both reads are AFTER the scanner's
            // pre-walk read, so the cap binds.
            let v0 = clock.now() as i64;
            let slot = reg.register(v0);
            let version = clock.now() as i64;
            slot.refresh(version);
            tx_go.send(()).unwrap();
            let (floor, scanner_thread) = scanner.join().unwrap();
            assert!(
                floor <= version,
                "GC floor {floor} passed the racing registration at {version}"
            );
            slot.release();

            // Golden flight-recorder trace, read off the scanner's own
            // ring: the walk saw the racing registration and recorded a
            // cap-bound floor (b = 1).
            let golden: Vec<String> = std::fs::read_to_string(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/tests/fixtures/floor_walk_race.golden"
            ))
            .expect("golden fixture")
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(String::from)
            .collect();
            let trace: Vec<_> = jiffy_obs::merged_trace()
                .into_iter()
                .filter(|e| Some(e.thread) == scanner_thread)
                .collect();
            let mut kinds: Vec<&str> = trace
                .iter()
                .filter(|e| e.kind == jiffy_obs::EventKind::GcFloorAdvance)
                .map(|e| e.kind.name())
                .collect();
            kinds.dedup();
            assert_eq!(kinds, golden, "floor-walk kind set diverged from the golden trace");
            assert!(
                trace.iter().any(|e| e.kind == jiffy_obs::EventKind::GcFloorAdvance
                    && e.stamp == floor
                    && e.b == 1),
                "no cap-bound floor event recorded for the replayed walk"
            );
        });
    }

    #[test]
    fn floor_never_passes_a_racing_registration() {
        // Safety property of the GC floor: once a registration has
        // re-read the clock and refreshed its slot (the §3.3.4 "refresh
        // immediately" step, exactly what `JiffyMap::snapshot` does), no
        // floor published afterwards may exceed that slot's version —
        // otherwise the revision GC can reclaim history the snapshot
        // still needs. `published` plays the role of `cached_min`.
        use std::sync::atomic::AtomicI64;
        let clock = YieldyClock::new();
        let reg = SnapRegistry::new();
        let published = AtomicI64::new(0);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (reg, clock, published, stop) = (&reg, &clock, &published, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let floor = reg.min_version(clock);
                        published.fetch_max(floor, Ordering::AcqRel);
                    }
                });
            }
            for _ in 0..2 {
                let (reg, clock, published, stop) = (&reg, &clock, &published, &stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        // JiffyMap::snapshot's registration protocol...
                        let v0 = clock.now() as i64;
                        let slot = reg.register(v0);
                        let version = clock.now() as i64;
                        slot.refresh(version);
                        // ...then hold the snapshot briefly, as any real
                        // reader does. The invariant under test: while a
                        // slot is active at `version`, no published
                        // floor may exceed it (a violating floor lands
                        // moments after the refresh, when the suspended
                        // scanner wakes up — so keep re-checking).
                        for _ in 0..40 {
                            let floor = published.load(Ordering::Acquire);
                            assert!(
                                floor <= version,
                                "GC floor {floor} passed a live registration at {version}: \
                                 min_version raced the registry walk"
                            );
                            std::thread::yield_now();
                        }
                        slot.release();
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(400));
            stop.store(true, Ordering::Relaxed);
        });
    }

    #[test]
    fn concurrent_register_release() {
        use std::sync::Arc;
        let reg = Arc::new(SnapRegistry::new());
        let mut handles = vec![];
        for t in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000 {
                    let s = reg.register(t * 1000 + i);
                    assert!(s.version() >= 0);
                    s.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Bounded by peak concurrency, not total registrations.
        assert!(reg.slot_count() <= 8, "slots: {}", reg.slot_count());
    }

    #[test]
    fn min_over_many() {
        let clock = AtomicClock::new();
        let reg = SnapRegistry::new();
        let slots: Vec<_> = (0..10).map(|i| reg.register(1000 - i)).collect();
        advance_past(&clock, 1000);
        assert_eq!(reg.min_version(&clock), 991);
        for s in slots {
            s.release();
        }
    }
}
