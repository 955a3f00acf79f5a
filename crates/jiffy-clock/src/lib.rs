//! Version-number clocks for Jiffy (paper §3.2).
//!
//! Jiffy tags every update with a version number drawn from a cheap,
//! machine-wide, monotonically non-decreasing counter. The paper reads the
//! x86_64 Time Stamp Counter (via `System.nanoTime()` on the JVM); the key
//! properties it relies on are:
//!
//! 1. reading is very cheap (no system call, no shared cache line),
//! 2. values never decrease, across *all* threads,
//! 3. resolution is high enough that two back-to-back reads on one thread
//!    almost always differ (so the `wait_until` loop in Algorithm 1 is
//!    almost never taken).
//!
//! This crate provides three interchangeable implementations:
//!
//! * [`TscClock`] — raw `RDTSC` on x86_64 (the paper's choice). Requires an
//!   invariant TSC (`constant_tsc nonstop_tsc`), which every x86_64 server
//!   since ~2008 provides.
//! * [`MonotonicClock`] — `CLOCK_MONOTONIC` through [`std::time::Instant`].
//!   On Linux this is a vDSO read (~20 ns, no syscall trap) and is itself
//!   TSC-derived; it is the portable fallback and the default off x86_64.
//! * [`AtomicClock`] — a single `fetch_add` counter shared by all threads.
//!   This is **not** meant for production: it exists to reproduce the
//!   paper's footnote 3 ablation ("the first version of Jiffy that relied
//!   on an atomic counter to generate version numbers did not scale past
//!   4–8 threads").
//!
//! All clocks return `u64` ticks normalized so that the first read of a
//! given clock instance is small and positive; Jiffy stores versions as
//! `i64` (negative = optimistic/pending), so normalized ticks must stay
//! below `i64::MAX`, which they do for centuries of uptime.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A source of version numbers. Implementations must be cheap and
/// *globally* monotone: if a read on thread A happens-before a read on
/// thread B, then B's value must be `>=` A's value.
pub trait VersionClock: Send + Sync + 'static {
    /// Read the current tick count.
    fn now(&self) -> u64;

    /// Human-readable name used in benchmark output.
    fn name(&self) -> &'static str;
}

/// A shared handle to a clock is itself a clock. This is what lets
/// several indices draw versions from *one* clock instance: the
/// per-instance normalization (`start` subtraction) happens once, so
/// version numbers from different indices become directly comparable —
/// the property `jiffy-shard`'s cross-shard snapshot cut relies on.
impl<C: VersionClock + ?Sized> VersionClock for Arc<C> {
    #[inline]
    fn now(&self) -> u64 {
        (**self).now()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// The paper's clock: the CPU Time Stamp Counter, normalized to the value
/// observed when the clock was created (mirroring Jiffy's subtraction of
/// the `System.nanoTime()` value recorded at index creation, §3.3.2).
#[cfg(target_arch = "x86_64")]
pub struct TscClock {
    start: u64,
}

#[cfg(target_arch = "x86_64")]
impl TscClock {
    pub fn new() -> Self {
        TscClock { start: Self::raw() }
    }

    #[inline]
    fn raw() -> u64 {
        // SAFETY: RDTSC is unprivileged and always available on x86_64.
        unsafe { core::arch::x86_64::_rdtsc() }
    }
}

/// Normalize a raw TSC read against the clock's start value.
///
/// A TSC read *behind* `start` (cross-CPU skew: containers and VMs can
/// migrate a thread to a host core whose TSC lags by a few hundred
/// cycles) makes `raw - start` wrap to nearly `2^64`. This must saturate
/// **low**, not high. The previous code capped the wrap at
/// `i64::MAX - 1` instead — a near-infinite version number that (a)
/// poisoned the monotone GC-floor cache forever, licensing the §3.3.4
/// revision GC to reclaim history still pinned by live snapshots, and
/// (b) turned any snapshot unlucky enough to register at it into a
/// read-latest view. Both corruptions matched the rare
/// `snapshot_gc_under_churn` failure seen on a virtualized 1-core box.
///
/// Residual exposure after this fix, stated precisely: the wrap branch
/// is only reachable while some core's TSC is behind the *creation*
/// read, i.e. during a skew-sized window (typically well under a
/// microsecond) at the start of the clock's life, and raw TSC can in
/// principle step backwards *between* cores by the skew amount at any
/// time without tripping this guard at all. Low readings in those
/// windows can transiently stamp an update or register a snapshot a few
/// ticks early — a bounded real-time-ordering anomaly, which the paper
/// accepts by assuming synchronized invariant TSC (use the
/// `portable-clock` feature to run on `CLOCK_MONOTONIC` where that
/// assumption is doubtful). What low readings can *not* do is break
/// memory safety: GC floors only ever sink (retaining more history),
/// and `JiffyMap::snapshot`/`Snapshot::refresh` clamp their versions up
/// to the published floor / current version, so no reader can register
/// below what the GC already reclaimed.
#[cfg(target_arch = "x86_64")]
#[inline]
fn normalize_tsc(raw: u64, start: u64) -> u64 {
    let delta = raw.wrapping_sub(start);
    if delta > i64::MAX as u64 - 1 {
        0
    } else {
        delta
    }
}

#[cfg(target_arch = "x86_64")]
impl Default for TscClock {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(target_arch = "x86_64")]
impl VersionClock for TscClock {
    #[inline]
    fn now(&self) -> u64 {
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("clock::now");
        // See `normalize_tsc` for why behind-`start` reads saturate low.
        normalize_tsc(Self::raw(), self.start)
    }

    fn name(&self) -> &'static str {
        "tsc"
    }
}

/// `CLOCK_MONOTONIC`-based clock: nanoseconds since clock creation.
///
/// Used as the default on non-x86_64 targets and available everywhere for
/// comparison benchmarks. Rust guarantees `Instant` is monotone; on Linux
/// the reads are vDSO calls that do not enter the kernel.
pub struct MonotonicClock {
    start: Instant,
}

impl MonotonicClock {
    pub fn new() -> Self {
        MonotonicClock { start: Instant::now() }
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionClock for MonotonicClock {
    #[inline]
    fn now(&self) -> u64 {
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("clock::now");
        self.start.elapsed().as_nanos() as u64
    }

    fn name(&self) -> &'static str {
        "monotonic"
    }
}

/// The single shared atomic counter Jiffy's first prototype used (paper
/// §3.2, footnote 3). Every read is a `fetch_add(1)` on one cache line, so
/// all cores serialize on it — the contention bottleneck the paper's TSC
/// design removes. Kept for the `clock` ablation experiment (A1).
pub struct AtomicClock {
    counter: AtomicU64,
}

impl AtomicClock {
    pub fn new() -> Self {
        // Start at 1 so the first read is non-zero, like the other clocks.
        AtomicClock { counter: AtomicU64::new(1) }
    }
}

impl Default for AtomicClock {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionClock for AtomicClock {
    #[inline]
    fn now(&self) -> u64 {
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("clock::now");
        // SeqCst, not Relaxed: the §3.3.4 floor-safety argument chains a
        // read's position in the counter's coherence order with loads of
        // *other* locations (registry slots), which is only sound in the
        // abstract memory model when the clock ops order globally. On
        // x86 a `lock xadd` costs the same either way, so the ablation
        // this clock exists for (A1 contention) is unaffected.
        self.counter.fetch_add(1, Ordering::SeqCst)
    }

    fn name(&self) -> &'static str {
        "atomic-counter"
    }
}

/// The default clock for the current target: TSC on x86_64, monotonic
/// elsewhere (or everywhere, with the `portable-clock` feature).
#[cfg(all(target_arch = "x86_64", not(feature = "portable-clock")))]
pub type DefaultClock = TscClock;
/// The default clock for the current target: TSC on x86_64, monotonic
/// elsewhere (or everywhere, with the `portable-clock` feature).
#[cfg(any(not(target_arch = "x86_64"), feature = "portable-clock"))]
pub type DefaultClock = MonotonicClock;

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn assert_monotone_single_thread<C: VersionClock>(clock: &C) {
        let mut prev = clock.now();
        for _ in 0..10_000 {
            let cur = clock.now();
            assert!(cur >= prev, "{} went backwards: {} -> {}", clock.name(), prev, cur);
            prev = cur;
        }
    }

    #[test]
    fn monotonic_clock_is_monotone() {
        assert_monotone_single_thread(&MonotonicClock::new());
    }

    #[test]
    fn atomic_clock_is_strictly_increasing() {
        let c = AtomicClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b > a);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_clock_is_monotone() {
        assert_monotone_single_thread(&TscClock::new());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_clock_advances() {
        let c = TscClock::new();
        let a = c.now();
        std::thread::sleep(std::time::Duration::from_millis(1));
        assert!(c.now() > a);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_skew_saturates_low_not_high() {
        // In range: plain difference.
        assert_eq!(normalize_tsc(1_000, 400), 600);
        assert_eq!(normalize_tsc(400, 400), 0);
        // Behind start (cross-CPU skew): must clamp to 0, never to a
        // near-infinite version that would poison the GC floor.
        assert_eq!(normalize_tsc(399, 400), 0);
        assert_eq!(normalize_tsc(0, 1), 0);
        assert_eq!(normalize_tsc(1_000_000, 2_000_000), 0);
        // Absurdly large forward deltas (would exceed i64 as a version)
        // also clamp instead of overflowing the i64 version domain.
        assert_eq!(normalize_tsc(u64::MAX, 0), 0);
        assert_eq!(normalize_tsc(i64::MAX as u64 - 1, 0), i64::MAX as u64 - 1);
    }

    #[test]
    fn default_clock_constructible() {
        let c = DefaultClock::default();
        let _ = c.now();
    }

    /// Cross-thread monotonicity: a value handed from thread A to thread B
    /// (establishing happens-before) must not exceed B's subsequent read.
    fn assert_cross_thread_monotone<C: VersionClock>(clock: Arc<C>) {
        let (tx, rx) = std::sync::mpsc::channel::<u64>();
        let c2 = Arc::clone(&clock);
        let producer = std::thread::spawn(move || {
            for _ in 0..2_000 {
                tx.send(c2.now()).unwrap();
            }
        });
        for v in rx {
            let mine = clock.now();
            assert!(mine >= v, "cross-thread regression: got {mine} after seeing {v}");
        }
        producer.join().unwrap();
    }

    #[test]
    fn monotonic_cross_thread() {
        assert_cross_thread_monotone(Arc::new(MonotonicClock::new()));
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn tsc_cross_thread() {
        assert_cross_thread_monotone(Arc::new(TscClock::new()));
    }

    #[test]
    fn atomic_cross_thread() {
        assert_cross_thread_monotone(Arc::new(AtomicClock::new()));
    }

    #[test]
    fn arc_clock_shares_one_origin() {
        // Two handles to one clock must observe one monotone stream —
        // the property shards rely on for comparable versions.
        let clock: Arc<MonotonicClock> = Arc::new(MonotonicClock::new());
        let a = Arc::clone(&clock);
        let b = Arc::clone(&clock);
        let va = a.now();
        let vb = b.now();
        assert!(vb >= va);
        assert_eq!(a.name(), "monotonic");
        // Trait-object handles work too.
        let dynamic: Arc<dyn VersionClock> = Arc::new(AtomicClock::new());
        let x = dynamic.now();
        assert!(dynamic.now() > x);
    }

    #[test]
    fn normalized_values_fit_i64() {
        let c = DefaultClock::default();
        for _ in 0..1000 {
            assert!(c.now() < i64::MAX as u64);
        }
    }
}
