//! The race-exploration probe API (`audit-sched`).
//!
//! Concurrency bugs in this repo have historically lived in windows a
//! few instructions wide — two adjacent atomic loads in the reshard
//! writer gate, a head read racing a merge adoption, a registry walk
//! racing a snapshot registration. Hitting such windows from another
//! thread by luck takes hours of stress; hitting them on purpose takes a
//! *probe*: a named point in the code where a test can inject a yield, a
//! sleep, or an exact scripted interleaving.
//!
//! This module generalizes the two ad-hoc mechanisms earlier PRs grew —
//! the yield-injecting clock that reproduced the §3.3.4 GC-floor race
//! and the `await_quiescence_with` hook that replayed the writer-gate
//! quiescence bug — into one shared API. Host crates compile probes in
//! behind their `audit-sched` feature:
//!
//! ```ignore
//! #[cfg(feature = "audit-sched")]
//! jiffy_audit::sched::probe("epoch::defer");
//! ```
//!
//! With the feature off the call does not exist; with it on but no hook
//! installed, a probe is one relaxed atomic load. Tests install either a
//! scripted hook ([`install`]) to replay an exact interleaving, or the
//! seeded randomized explorer ([`install_explorer`]) to fuzz for new
//! ones. Installation is globally serialized (an install blocks until
//! the previous hook uninstalls), and a hook reaches only the threads
//! enrolled in its [`Scope`] — through [`enroll`] or [`spawn`] — so
//! tests running in parallel in one process neither take each other's
//! scripted shots nor get perturbed by each other's explorers.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::thread::JoinHandle;

/// The hook type: called with the site name at every probe.
pub type Hook = Arc<dyn Fn(&'static str) + Send + Sync>;

static ENABLED: AtomicBool = AtomicBool::new(false);
static HOOK: RwLock<Option<Hook>> = RwLock::new(None);
static HITS: Mutex<Option<HashMap<&'static str, u64>>> = Mutex::new(None);
/// Whether a scope is live; installers wait on `INSTALL_FREE` for it to
/// clear.
static INSTALLED: Mutex<bool> = Mutex::new(false);
static INSTALL_FREE: Condvar = Condvar::new();
/// Id of the live scope (0: none). Ids are never reused, so a thread
/// still enrolled in a dropped scope is outside every later one.
static SCOPE: AtomicU64 = AtomicU64::new(0);
static NEXT_SCOPE: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static ENROLLED: Cell<u64> = const { Cell::new(0) };
}

/// A named preemption point. Free (a single relaxed load) unless a hook
/// is installed; the compiler removes even that in crates that do not
/// enable their `audit-sched` feature, because the call site is gone.
#[inline]
pub fn probe(site: &'static str) {
    if ENABLED.load(Ordering::Relaxed) {
        probe_slow(site);
    }
}

#[cold]
fn probe_slow(site: &'static str) {
    // A thread outside the live scope passes untouched.
    if ENROLLED.with(Cell::get) != SCOPE.load(Ordering::Acquire) {
        return;
    }
    let hook = HOOK.read().unwrap_or_else(|e| e.into_inner()).clone();
    if let Some(hook) = hook {
        if let Some(map) = lock_hits().as_mut() {
            *map.entry(site).or_insert(0) += 1;
        }
        hook(site);
    }
}

fn lock_hits() -> MutexGuard<'static, Option<HashMap<&'static str, u64>>> {
    HITS.lock().unwrap_or_else(|e| e.into_inner())
}

/// How many times `site` has fired on enrolled threads since the current
/// hook was installed.
pub fn hits(site: &str) -> u64 {
    lock_hits().as_ref().and_then(|m| m.get(site).copied()).unwrap_or(0)
}

/// Total probe firings on enrolled threads since the current hook was
/// installed.
pub fn total_hits() -> u64 {
    lock_hits().as_ref().map_or(0, |m| m.values().sum())
}

/// RAII witness of an installed hook and the set of threads it reaches:
/// uninstalls on drop and lets the next installer in. `Send + Sync`, so
/// scoped threads can [`enroll`] through a shared reference and a
/// process-long scope can live in a `static`.
pub struct Scope {
    id: u64,
}

impl Drop for Scope {
    fn drop(&mut self) {
        ENABLED.store(false, Ordering::SeqCst);
        SCOPE.store(0, Ordering::SeqCst);
        *HOOK.write().unwrap_or_else(|e| e.into_inner()) = None;
        *lock_hits() = None;
        *INSTALLED.lock().unwrap_or_else(|e| e.into_inner()) = false;
        INSTALL_FREE.notify_one();
    }
}

/// Put the calling thread in `scope`: from now on its probes run the
/// scope's hook. A thread is in at most one scope; enrolling again moves
/// it.
pub fn enroll(scope: &Scope) {
    ENROLLED.with(|c| c.set(scope.id));
}

/// `std::thread::spawn`, with the new thread enrolled in `scope` before
/// `f` runs.
pub fn spawn<F, T>(scope: &Scope, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    spawn_named(scope, None, f)
}

/// [`spawn`] with an optional thread name (scripted hooks often tell
/// their threads apart by name).
pub fn spawn_named<F, T>(scope: &Scope, name: Option<&str>, f: F) -> JoinHandle<T>
where
    F: FnOnce() -> T + Send + 'static,
    T: Send + 'static,
{
    let id = scope.id;
    let mut builder = std::thread::Builder::new();
    if let Some(name) = name {
        builder = builder.name(name.to_string());
    }
    builder
        .spawn(move || {
            ENROLLED.with(|c| c.set(id));
            f()
        })
        .expect("failed to spawn an enrolled thread")
}

/// Install a scripted hook. Blocks until no other hook is installed.
/// The hook runs only on threads enrolled in the returned scope.
///
/// The hook runs on the probing thread, inside the probed operation —
/// it may yield, sleep, or rendezvous with the test body (channels,
/// barriers), which is how an exact historical interleaving is replayed.
/// It must not itself call back into code that probes, or it will
/// re-enter (probes are not masked during a hook).
pub fn install(hook: Hook) -> Scope {
    let mut installed = INSTALLED.lock().unwrap_or_else(|e| e.into_inner());
    while *installed {
        installed = INSTALL_FREE.wait(installed).unwrap_or_else(|e| e.into_inner());
    }
    *installed = true;
    let id = NEXT_SCOPE.fetch_add(1, Ordering::Relaxed);
    *lock_hits() = Some(HashMap::new());
    *HOOK.write().unwrap_or_else(|e| e.into_inner()) = Some(hook);
    SCOPE.store(id, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    Scope { id }
}

// ---------------------------------------------------------------------------
// The randomized explorer
// ---------------------------------------------------------------------------

/// Configuration for the seeded randomized scheduler.
#[derive(Debug, Clone, Copy)]
pub struct ExplorerConfig {
    /// Master seed; every decision derives from it, the thread's arrival
    /// index, and the probe sequence number.
    pub seed: u64,
    /// Yield at roughly one in this many probes (per thread).
    pub yield_one_in: u32,
    /// A yield is a burst of 1..=this many `yield_now` calls.
    pub burst_max: u32,
    /// PCT-style priority-change points: this many probe counts (global)
    /// at which the arriving thread takes a long preemption (a sleep),
    /// simulating a priority drop at a random depth of the execution.
    pub change_points: u32,
    /// Horizon (in global probe count) over which the change points are
    /// scattered.
    pub horizon: u64,
    /// Sleep length at a change point, in microseconds.
    pub change_sleep_us: u64,
}

impl Default for ExplorerConfig {
    fn default() -> Self {
        ExplorerConfig {
            seed: 0x9E3779B97F4A7C15,
            yield_one_in: 12,
            burst_max: 6,
            change_points: 4,
            horizon: 40_000,
            change_sleep_us: 300,
        }
    }
}

impl ExplorerConfig {
    /// A default configuration with the given seed.
    pub fn with_seed(seed: u64) -> Self {
        ExplorerConfig { seed, ..Default::default() }
    }
}

/// SplitMix64 — tiny, seedable, and good enough to scatter preemptions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Install the randomized explorer: a PCT-inspired scheduler that
/// perturbs every probed operation with seeded yields plus a small
/// number of deep preemptions ("priority change points") scattered over
/// the run. Same seed + same workload ⇒ the same *decision sequence*
/// per thread arrival order; the OS still interleaves freely between
/// decisions, so this fuzzes schedules rather than replaying one —
/// exact replay is what scripted [`install`] hooks are for. Like
/// [`install`], it perturbs only the threads enrolled in its scope.
pub fn install_explorer(cfg: ExplorerConfig) -> Scope {
    // Pre-scatter the change points over the horizon.
    let mut s = cfg.seed ^ 0xD1B54A32D192ED03;
    let mut change_points: Vec<u64> =
        (0..cfg.change_points).map(|_| splitmix(&mut s) % cfg.horizon.max(1)).collect();
    change_points.sort_unstable();
    let global = Arc::new(AtomicU64::new(0));
    let thread_counter = Arc::new(AtomicU64::new(0));
    let seed = cfg.seed;

    thread_local! {
        static LOCAL_RNG: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    install(Arc::new(move |_site| {
        let n = global.fetch_add(1, Ordering::Relaxed);
        // Deep preemption at a change point: the thread that crosses it
        // sleeps, handing the window to everyone else — the PCT idea of
        // demoting the highest-priority thread at a random depth.
        if change_points.binary_search(&n).is_ok() {
            std::thread::sleep(std::time::Duration::from_micros(cfg.change_sleep_us));
            return;
        }
        let state = LOCAL_RNG.with(|cell| {
            let mut v = cell.get();
            if v == 0 {
                // First probe on this thread: derive a per-thread stream
                // from the master seed and the arrival index.
                let idx = thread_counter.fetch_add(1, Ordering::Relaxed);
                v = seed ^ (idx.wrapping_add(1).wrapping_mul(0xA24BAED4963EE407));
            }
            let out = splitmix(&mut v);
            cell.set(v);
            out
        });
        if cfg.yield_one_in > 0 && (state % cfg.yield_one_in as u64) == 0 {
            let burst = 1 + ((state >> 32) % cfg.burst_max.max(1) as u64);
            for _ in 0..burst {
                std::thread::yield_now();
            }
        }
    }))
}

/// Read `AUDIT_SCHED_SEED` (and optional `AUDIT_SCHED_YIELD_ONE_IN`)
/// from the environment: the shared convention for fuzz entry points, so
/// a failing seed printed by one harness replays in any other.
pub fn config_from_env() -> Option<ExplorerConfig> {
    let seed = std::env::var("AUDIT_SCHED_SEED").ok()?.parse::<u64>().ok()?;
    let mut cfg = ExplorerConfig::with_seed(seed);
    if let Ok(v) = std::env::var("AUDIT_SCHED_YIELD_ONE_IN") {
        if let Ok(v) = v.parse::<u32>() {
            cfg.yield_one_in = v;
        }
    }
    Some(cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Wait until no scope is live, so no hook can see this thread's
    /// probes, and keep it that way while the guard is held.
    fn no_scope_live() -> MutexGuard<'static, bool> {
        let mut installed = INSTALLED.lock().unwrap_or_else(|e| e.into_inner());
        while *installed {
            installed = INSTALL_FREE.wait(installed).unwrap_or_else(|e| e.into_inner());
        }
        installed
    }

    #[test]
    fn probe_without_hook_is_inert() {
        let _idle = no_scope_live();
        probe("test::inert");
        assert_eq!(hits("test::inert"), 0);
        assert_eq!(total_hits(), 0);
    }

    #[test]
    fn scripted_hook_sees_sites_and_counts() {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        {
            let h = install(Arc::new(move |site| {
                seen2.lock().unwrap().push(site);
            }));
            enroll(&h);
            probe("test::a");
            probe("test::a");
            probe("test::b");
            assert_eq!(hits("test::a"), 2);
            assert_eq!(hits("test::b"), 1);
            assert_eq!(total_hits(), 3);
        }
        // Uninstalled: counters cleared.
        let _idle = no_scope_live();
        assert_eq!(hits("test::a"), 0);
        assert_eq!(*seen.lock().unwrap(), vec!["test::a", "test::a", "test::b"]);
    }

    #[test]
    fn threads_outside_the_scope_pass_untouched() {
        // Enrolled in an earlier scope is outside every later one.
        let earlier = install(Arc::new(|_| {}));
        enroll(&earlier);
        drop(earlier);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::clone(&seen);
        let h = install(Arc::new(move |site| {
            seen2.lock().unwrap().push(site);
        }));
        probe("test::outsider");
        std::thread::spawn(|| probe("test::outsider")).join().unwrap();
        spawn(&h, || probe("test::member")).join().unwrap();
        assert_eq!(hits("test::outsider"), 0);
        assert_eq!(total_hits(), 1);
        assert_eq!(*seen.lock().unwrap(), vec!["test::member"]);
    }

    #[test]
    fn installs_serialize() {
        // A second install must wait for the first to drop — two fuzz
        // tests running in parallel would otherwise fight over the hook.
        let first = install(Arc::new(|_| {}));
        let t = std::thread::spawn(|| {
            let second = install_explorer(ExplorerConfig::with_seed(7));
            enroll(&second);
            probe("test::ser");
            hits("test::ser")
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(first);
        assert_eq!(t.join().unwrap(), 1);
    }

    #[test]
    fn explorer_is_seed_deterministic_per_thread_stream() {
        // The per-thread decision stream must depend only on (seed,
        // arrival index, probe index) — same seed, same single-thread
        // run ⇒ same yield pattern. We can't observe yields directly,
        // so check the underlying RNG stream instead.
        let mut a = 42u64;
        let mut b = 42u64;
        let sa: Vec<u64> = (0..100).map(|_| splitmix(&mut a)).collect();
        let sb: Vec<u64> = (0..100).map(|_| splitmix(&mut b)).collect();
        assert_eq!(sa, sb);
        let mut c = 43u64;
        let sc: Vec<u64> = (0..100).map(|_| splitmix(&mut c)).collect();
        assert_ne!(sa, sc);
    }

    #[test]
    fn explorer_smoke_under_threads() {
        let h = install_explorer(ExplorerConfig { horizon: 500, ..ExplorerConfig::with_seed(1) });
        let mut handles = Vec::new();
        for _ in 0..4 {
            handles.push(spawn(&h, || {
                for _ in 0..200 {
                    probe("test::smoke");
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(hits("test::smoke"), 800);
    }

    #[test]
    fn env_config_roundtrip() {
        // Not set in the test environment by default.
        if std::env::var("AUDIT_SCHED_SEED").is_err() {
            assert!(config_from_env().is_none());
        }
    }
}
