//! The scenario runner: spawn weighted-role threads against one index,
//! measure per-role throughput *and latency* for a fixed duration.
//!
//! Accounting is driven by what the index actually did, not by what the
//! harness asked for: scans count the entries the sink visited (a scan
//! that starts near the top of the key space contributes what it saw,
//! not a flat `scan_len`), batch updates count the canonicalized batch
//! length the index applied, and every row records the op-weight mix
//! its threads were scheduled to issue (a 1-thread "75% lookup" cell
//! really issues 75% lookups by interleaving roles within the thread;
//! per-role *completed-op* shares are what the throughput columns say).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use index_api::{Batch, BatchOp, OrderedIndex};
use workload::{BatchMode, KeyDist, KeyGen, RoleSchedule, Scenario, ThreadMix, Value};

use crate::hist::LogHistogram;
#[cfg(feature = "perf-counters")]
use crate::report::OpCosts;
use crate::report::{LatencySummary, Measurement};

/// Last worker-panic diagnostic captured by [`with_panic_context`]
/// (message + harness context), kept so the flake report survives
/// `thread::scope`'s payload-flattening re-raise.
static LAST_WORKER_PANIC: Mutex<Option<String>> = Mutex::new(None);

/// The most recent worker-panic diagnostic, if any worker has panicked
/// in this process (newest wins).
pub fn last_worker_panic() -> Option<String> {
    LAST_WORKER_PANIC.lock().unwrap().clone()
}

/// Run `f`, and if it panics, record the panic payload together with
/// `ctx()`'s harness context (scenario, index, thread id, ...) — to
/// stderr and to [`last_worker_panic`] — before re-raising.
///
/// `std::thread::scope` re-raises a child's panic in the parent, but
/// the parent-side payload says only "a scoped thread panicked": by the
/// time CI sees the failure, *which* scenario cell and worker died is
/// gone. Wrapping each worker body here is what makes a
/// once-in-hundreds steady-state flake diagnosable from its first
/// recurrence.
pub fn with_panic_context<R>(ctx: impl Fn() -> String, f: impl FnOnce() -> R) -> R {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".into());
            let report = format!("worker panic [{}]: {}", ctx(), msg);
            eprintln!("mkbench: {report}");
            // Dump the merged flight-recorder tail and a metrics snapshot
            // while the sibling workers' rings are still warm — the
            // re-raise is about to tear the whole scope down.
            jiffy_obs::dump_on_failure(&report, 64);
            *LAST_WORKER_PANIC.lock().unwrap() = Some(report);
            std::panic::resume_unwind(payload);
        }
    }
}

/// Parse the `MKBENCH_INJECT_PANIC` environment value: the op count at
/// which the forced-panic smoke crashes one worker. An empty value is
/// treated as unset; anything else that is not a `u64` is an **error**,
/// not a disarm — a typo'd trigger must fail the run loudly rather than
/// let the dump-on-panic CI smoke silently pass without ever panicking.
pub fn parse_inject_panic(raw: &str) -> Result<Option<u64>, String> {
    let t = raw.trim();
    if t.is_empty() {
        return Ok(None);
    }
    t.parse::<u64>().map(Some).map_err(|_| {
        format!("MKBENCH_INJECT_PANIC takes an op count (non-negative integer), got `{raw}`")
    })
}

/// Benchmark keys are derived from `u64` draws.
pub trait BenchKey: Ord + Clone + Send + Sync + 'static {
    fn from_u64(v: u64) -> Self;
}

impl BenchKey for u64 {
    #[inline]
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl BenchKey for u32 {
    #[inline]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

impl BenchKey for workload::Key16 {
    #[inline]
    fn from_u64(v: u64) -> Self {
        v.into()
    }
}

/// Fixed parameters of one measurement run.
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub threads: usize,
    pub duration: Duration,
    /// Run the workload this long before the measured window starts, so
    /// the autoscaler's granularity adaptation (paper §4.3: "revision
    /// size adjustment time was about 10 seconds" on 10 M entries, about
    /// a second on 1 M) settles outside the measurement.
    pub warmup: Duration,
    /// Unique keys in the key space (paper: 20 M; scaled by CLI).
    pub key_space: u64,
    /// Prefill density (paper: 10 M entries over 20 M keys = 0.5).
    pub prefill_density: f64,
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 2,
            duration: Duration::from_millis(750),
            warmup: Duration::from_millis(500),
            key_space: 100_000,
            prefill_density: 0.5,
            seed: 0xC0FFEE,
        }
    }
}

/// Prefill the index to the configured density (every `1/density`-th key,
/// giving scans a predictable hit rate like the paper's 10M/20M setup).
/// Keys are inserted in a pseudo-random order: several baselines (k-ary
/// trees in particular, which do not rebalance) degenerate under strictly
/// ascending insertion, which no real load phase produces.
/// `workload::permute` is a true bijection on `[0, count)`, so every slot
/// is written exactly once by the parallel workers — no serial gap sweep.
fn prefill<K: BenchKey, V: Value>(index: &dyn OrderedIndex<K, V>, cfg: &RunConfig) {
    let step = (1.0 / cfg.prefill_density).round() as u64;
    let step = step.max(1);
    let count = cfg.key_space / step;
    std::thread::scope(|s| {
        let workers = cfg.threads.clamp(1, 8) as u64;
        for w in 0..workers {
            let index = &index;
            s.spawn(move || {
                let mut i = w;
                while i < count {
                    let k = workload::permute(i, count) * step;
                    index.put(K::from_u64(k), V::make(k));
                    i += workers;
                }
            });
        }
    });
}

/// Role indices into the per-role counter/histogram arrays.
const UPDATE: usize = 0;
const LOOKUP: usize = 1;
const SCAN: usize = 2;

/// Latency is sampled (1 op in 16) so the two clock reads do not distort
/// the throughput the same row reports.
const SAMPLE_MASK: u64 = 0xF;

/// Local ops are flushed to the shared counters in chunks to keep
/// cross-thread contention off the hot path.
const FLUSH_EVERY: u64 = 1024;

pub(crate) fn summarize(h: &LogHistogram) -> Option<LatencySummary> {
    (!h.is_empty()).then(|| LatencySummary {
        p50_ns: h.percentile(50.0),
        p95_ns: h.percentile(95.0),
        p99_ns: h.percentile(99.0),
        max_ns: h.max(),
        samples: h.count(),
    })
}

/// Run one scenario cell against `index`. Returns per-role throughput,
/// the effective executed mix, and per-role latency percentiles.
pub fn run_scenario<K: BenchKey, V: Value>(
    index: Arc<dyn OrderedIndex<K, V> + Send + Sync>,
    scenario: &Scenario,
    cfg: &RunConfig,
) -> Measurement {
    prefill(&*index, cfg);

    let plans = scenario.mix.plan(cfg.threads);
    let stop = Arc::new(AtomicBool::new(false));
    let window = Arc::new(jiffy_obs::WindowGate::new());
    let counters: Arc<[AtomicU64; 3]> = Arc::new(std::array::from_fn(|_| AtomicU64::new(0)));
    let hists: Arc<Mutex<[LogHistogram; 3]>> =
        Arc::new(Mutex::new(std::array::from_fn(|_| LogHistogram::new())));
    #[cfg(feature = "perf-counters")]
    let op_costs: Arc<Mutex<OpCosts>> = Arc::new(Mutex::new(OpCosts::default()));
    let mut measured = ([0u64; 3], Duration::ZERO, [0u64; jiffy_obs::KIND_COUNT]);

    std::thread::scope(|s| {
        for (tid, plan) in plans.iter().enumerate() {
            let index = Arc::clone(&index);
            let stop = Arc::clone(&stop);
            let window = Arc::clone(&window);
            let counters = Arc::clone(&counters);
            let hists = Arc::clone(&hists);
            #[cfg(feature = "perf-counters")]
            let op_costs = Arc::clone(&op_costs);
            let mut sched = RoleSchedule::new(*plan);
            let scenario = scenario.clone();
            let cfg = cfg.clone();
            s.spawn(move || {
                let ctx = format!(
                    "scenario {}, worker {}/{}, key_space {}",
                    scenario.id, tid, cfg.threads, cfg.key_space
                );
                with_panic_context(
                    || ctx.clone(),
                    || {
                        let mut gen = KeyGen::new(
                            scenario.dist,
                            cfg.key_space,
                            cfg.seed ^ (tid as u64 + 1).wrapping_mul(0x9E3779B97F4A7C15),
                        );
                        let mut local = [0u64; 3];
                        let mut local_hist: [LogHistogram; 3] =
                            std::array::from_fn(|_| LogHistogram::new());
                        let mut batch_buf: Vec<BatchOp<K, V>> = Vec::new();
                        // Per-role op counters drive latency sampling. A single
                        // global counter would alias: the schedule is periodic
                        // (period 4 for the 25/50/25 mix), so "every 16th
                        // iteration" lands on the same role forever and the
                        // other roles never get sampled.
                        let mut issued = [0u64; 3];
                        // Op-cost counters are thread-local inside jiffy; fence
                        // them at the measurement-window edges so the aggregate
                        // matches the throughput window (warmup discarded).
                        let mut edge = jiffy_obs::WindowEdge::new();
                        while !stop.load(Ordering::Relaxed) {
                            if let Some(crossing) = edge.observe(&window) {
                                #[cfg(feature = "perf-counters")]
                                {
                                    let delta = jiffy::counters::take();
                                    if matches!(crossing, jiffy_obs::WindowCrossing::Closed) {
                                        add_op_costs(&op_costs, &delta);
                                    }
                                }
                                #[cfg(not(feature = "perf-counters"))]
                                let _ = crossing;
                            }
                            let pick = sched.next_role() as usize;

                            let sampled = issued[pick] & SAMPLE_MASK == 0 && edge.in_window();
                            issued[pick] = issued[pick].wrapping_add(1);
                            let t_start = sampled.then(Instant::now);
                            // `done` is what the index verifiably did: basic ops
                            // for singles, canonicalized batch length for
                            // batches, sink-visited entries for scans.
                            let done: u64 = match pick {
                                UPDATE => match scenario.batch {
                                    BatchMode::Single => {
                                        let k = gen.next_key();
                                        if gen.next_raw() & 1 == 0 {
                                            index.put(K::from_u64(k), V::make(k));
                                        } else {
                                            index.remove(&K::from_u64(k));
                                        }
                                        1
                                    }
                                    BatchMode::BatchSeq { size } => {
                                        let start = gen.next_key();
                                        batch_buf.clear();
                                        for i in 0..size as u64 {
                                            let k = (start + i) % cfg.key_space;
                                            if gen.next_raw() & 1 == 0 {
                                                batch_buf
                                                    .push(BatchOp::Put(K::from_u64(k), V::make(k)));
                                            } else {
                                                batch_buf.push(BatchOp::Remove(K::from_u64(k)));
                                            }
                                        }
                                        let b = Batch::new(std::mem::take(&mut batch_buf));
                                        let n = b.len() as u64;
                                        index.batch_update(b);
                                        n
                                    }
                                    BatchMode::BatchRand { size } => {
                                        batch_buf.clear();
                                        for _ in 0..size {
                                            let k = gen.next_key();
                                            if gen.next_raw() & 1 == 0 {
                                                batch_buf
                                                    .push(BatchOp::Put(K::from_u64(k), V::make(k)));
                                            } else {
                                                batch_buf.push(BatchOp::Remove(K::from_u64(k)));
                                            }
                                        }
                                        let b = Batch::new(std::mem::take(&mut batch_buf));
                                        let n = b.len() as u64;
                                        index.batch_update(b);
                                        n
                                    }
                                },
                                LOOKUP => {
                                    let k = gen.next_key();
                                    std::hint::black_box(index.get(&K::from_u64(k)));
                                    1
                                }
                                _ => {
                                    let k = gen.next_key();
                                    let mut seen = 0u64;
                                    index.scan_from(
                                        &K::from_u64(k),
                                        scenario.scan_len,
                                        &mut |_, v| {
                                            std::hint::black_box(v);
                                            seen += 1;
                                        },
                                    );
                                    seen
                                }
                            };
                            if let Some(t) = t_start {
                                local_hist[pick].record(t.elapsed().as_nanos() as u64);
                            }
                            local[pick] += done;
                            if local[pick] >= FLUSH_EVERY {
                                counters[pick].fetch_add(local[pick], Ordering::Relaxed);
                                local[pick] = 0;
                            }
                        }
                        for r in 0..3 {
                            counters[r].fetch_add(local[r], Ordering::Relaxed);
                        }
                        // The stop flag can arrive before the worker observes the
                        // window closing; flush the open window either way.
                        #[cfg(feature = "perf-counters")]
                        if edge.finish() {
                            add_op_costs(&op_costs, &jiffy::counters::take());
                        }
                        let mut shared = hists.lock().unwrap();
                        for r in 0..3 {
                            shared[r].merge(&local_hist[r]);
                        }
                    },
                )
            });
        }
        // Warmup: let the structure adapt, then snapshot the counters and
        // measure (and sample latency in) only the steady-state window.
        std::thread::sleep(cfg.warmup);
        let t0: [u64; 3] = std::array::from_fn(|r| counters[r].load(Ordering::Relaxed));
        let trace_base = jiffy_obs::CounterWindow::mark();
        window.open();
        let started = Instant::now();
        std::thread::sleep(cfg.duration);
        window.close();
        let elapsed = started.elapsed();
        let t1: [u64; 3] = std::array::from_fn(|r| counters[r].load(Ordering::Relaxed));
        stop.store(true, Ordering::Relaxed);
        measured = (std::array::from_fn(|r| t1[r] - t0[r]), elapsed, trace_base.delta());
    });

    let (ops, elapsed, trace_events) = measured;
    let secs = elapsed.as_secs_f64();
    let hists = hists.lock().unwrap();
    Measurement {
        total_mops: ops.iter().sum::<u64>() as f64 / secs / 1e6,
        update_mops: ops[UPDATE] as f64 / secs / 1e6,
        read_mops: ops[LOOKUP] as f64 / secs / 1e6,
        scan_mops: ops[SCAN] as f64 / secs / 1e6,
        mix: ThreadMix::effective(&plans),
        update_lat: summarize(&hists[UPDATE]),
        lookup_lat: summarize(&hists[LOOKUP]),
        scan_lat: summarize(&hists[SCAN]),
        // Non-jiffy indexes never bump the thread-local counters, so an
        // all-zero aggregate means "not a jiffy run" — omit the column.
        #[cfg(feature = "perf-counters")]
        op_costs: {
            let c = *op_costs.lock().unwrap();
            (c != OpCosts::default()).then_some(c)
        },
        #[cfg(not(feature = "perf-counters"))]
        op_costs: None,
        // Window-scoped flight-recorder event counts. All-zero (e.g. a
        // baseline index that never emits events) omits the column.
        trace_events: trace_events.iter().any(|&n| n > 0).then_some(trace_events),
    }
}

/// Fold one worker's recording-window counter delta into the shared
/// per-scenario aggregate.
#[cfg(feature = "perf-counters")]
fn add_op_costs(acc: &Mutex<OpCosts>, c: &jiffy::counters::OpCostCounters) {
    let mut a = acc.lock().unwrap();
    a.descents += c.descents;
    a.nodes_visited += c.nodes_visited;
    a.revisions_walked += c.revisions_walked;
    a.locate_retries += c.locate_retries;
    a.help_iterations += c.help_iterations;
    a.backoff_waits += c.backoff_waits;
    a.fastpath_attempts += c.fastpath_attempts;
    a.fastpath_hits += c.fastpath_hits;
}

/// Key distribution helper for ad-hoc harness callers.
pub fn keygen(dist: KeyDist, key_space: u64, seed: u64) -> KeyGen {
    KeyGen::new(dist, key_space, seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::KvShape;

    /// A tiny end-to-end run: the measurement must report a truthful
    /// effective mix for a 1-thread mixed cell (the seed harness reported
    /// update-only here) and sink-verified scan accounting.
    #[test]
    fn one_thread_mixed_cell_reports_truthful_mix_and_latency() {
        let index: Arc<dyn OrderedIndex<u64, u64> + Send + Sync> =
            Arc::new(jiffy::JiffyMap::<u64, u64>::new());
        let scenario =
            Scenario::new(KvShape::K4V4, KeyDist::Uniform, ThreadMix::MIXED, 10, BatchMode::Single);
        let cfg = RunConfig {
            threads: 1,
            duration: Duration::from_millis(150),
            warmup: Duration::from_millis(50),
            key_space: 10_000,
            prefill_density: 0.5,
            seed: 7,
        };
        let m = run_scenario(index, &scenario, &cfg);
        // The executed mix equals the scenario's mix even at t=1.
        assert!((m.mix.update - 0.25).abs() < 1e-9, "{:?}", m.mix);
        assert!((m.mix.lookup - 0.5).abs() < 1e-9, "{:?}", m.mix);
        assert!((m.mix.scan - 0.25).abs() < 1e-9, "{:?}", m.mix);
        // All three roles actually ran and were measured.
        assert!(m.update_mops > 0.0, "{m:?}");
        assert!(m.read_mops > 0.0, "{m:?}");
        assert!(m.scan_mops > 0.0, "{m:?}");
        // Latency percentiles exist for every active role and are sane.
        for lat in [m.update_lat, m.lookup_lat, m.scan_lat] {
            let lat = lat.expect("role ran, latency must be recorded");
            assert!(lat.samples > 0);
            assert!(lat.p50_ns > 0);
            assert!(lat.p50_ns <= lat.p95_ns && lat.p95_ns <= lat.p99_ns);
            assert!(lat.p99_ns <= lat.max_ns);
        }
        // Scan throughput is bounded by what the sink can have seen:
        // scan_len entries per scan at most (no flat scan_len credit).
        let scans_per_sec_upper = m.read_mops * 1e6; // scans are rarer than lookups here
        assert!(
            m.scan_mops * 1e6 <= scans_per_sec_upper * scenario.scan_len as f64,
            "scan accounting out of bounds: {m:?}"
        );
    }

    /// The panic harness must capture the payload *and* the harness
    /// context before re-raising, so a scoped-thread flake is
    /// diagnosable after `thread::scope` flattens the payload.
    #[test]
    fn panic_context_records_payload_and_context() {
        let caught = std::panic::catch_unwind(|| {
            with_panic_context(
                || "scenario s1, worker 3/4".to_string(),
                || panic!("boom at key {}", 42),
            )
        });
        assert!(caught.is_err(), "panic must be re-raised");
        let report = last_worker_panic().expect("panic recorded");
        assert!(report.contains("scenario s1, worker 3/4"), "{report}");
        assert!(report.contains("boom at key 42"), "{report}");
    }

    /// A typo'd `MKBENCH_INJECT_PANIC` must be an error, never a silent
    /// disarm: the forced-panic smoke would otherwise "pass" having
    /// tested nothing.
    #[test]
    fn inject_panic_parse_rejects_garbage() {
        assert_eq!(parse_inject_panic("20000"), Ok(Some(20000)));
        assert_eq!(parse_inject_panic(" 7 "), Ok(Some(7)));
        assert_eq!(parse_inject_panic("0"), Ok(Some(0)));
        assert_eq!(parse_inject_panic(""), Ok(None));
        assert_eq!(parse_inject_panic("   "), Ok(None));
        for bad in ["2oooo", "-1", "1e4", "20_000", "yes", "18446744073709551616"] {
            let err = parse_inject_panic(bad).expect_err(bad);
            assert!(err.contains("MKBENCH_INJECT_PANIC"), "{err}");
            assert!(err.contains(bad.trim()), "{err}");
        }
    }

    /// Scans near the top of the key space must credit only visited
    /// entries: with 10 entries total, a scan asking for 1000 gets ≤ 10.
    #[test]
    fn scan_accounting_is_sink_verified() {
        let index: Arc<dyn OrderedIndex<u64, u64> + Send + Sync> =
            Arc::new(jiffy::JiffyMap::<u64, u64>::new());
        let scenario = Scenario::new(
            KvShape::K4V4,
            KeyDist::Uniform,
            ThreadMix { update: 0.0, lookup: 0.0, scan: 1.0 },
            1000,
            BatchMode::Single,
        );
        // Key space of 20 with density 0.5 → 10 entries; every scan asks
        // for 1000 entries but can visit at most 10.
        let cfg = RunConfig {
            threads: 1,
            duration: Duration::from_millis(100),
            warmup: Duration::from_millis(20),
            key_space: 20,
            prefill_density: 0.5,
            seed: 3,
        };
        let m = run_scenario(index, &scenario, &cfg);
        let lat = m.scan_lat.expect("scans ran");
        // Scans per second is at least samples * 16 / secs; each scan can
        // contribute at most 10 entries. The old harness would have
        // reported 100x that (scan_len = 1000 per scan).
        let scan_entries_per_sec = m.scan_mops * 1e6;
        let scans_per_sec_lower = lat.samples as f64 * 16.0 / cfg.duration.as_secs_f64();
        assert!(
            scan_entries_per_sec <= scans_per_sec_lower * 10.0 * 4.0,
            "scan credit exceeds what 10 entries/scan allows: {m:?}"
        );
    }
}
