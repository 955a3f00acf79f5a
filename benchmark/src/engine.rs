//! The engine workloads: the library called in-process by two threads in
//! closed loops (a library caller waits for its call to return). No
//! socket, queue or WAL exists in these runs — `api::assert_engine_only`
//! checks it — so a change to the serving path cannot move them.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Duration;

use crate::api::{self, OrderedIndex};
use crate::check::{Checker, ScanRule};
use crate::gen::{
    dense_chunks, point_prefilled, stamp_of, tagged, BatchStream, Op, OpSource, PointStream,
    ScanStream, LONG_SCAN,
};
use crate::hist::Windowed;
use crate::loadgen::{add_windows, per_second, WINDOW_NS};
use crate::metrics::MetricSet;
use crate::proc::{self, now_ns};
use crate::trace::Span;
use crate::workloads::{median_set_up, Outcome, RunOpts, Workload, BATCH_SCAN_SHARDS, THREADS};

const WARM: u8 = 0;
const PLAIN: u8 = 1;
const TRACED: u8 = 2;
const STOP: u8 = 3;
/// One call in this many is timed on its own in `engine_point`.
const SAMPLE_EVERY: u64 = 16;

/// The main thread moves the workers from warm-up through the measured
/// phases to the end.
struct Control {
    phase: AtomicU8,
    /// When the measured part began.
    t0: AtomicU64,
}

/// A worker's view of `Control`, plus what it completed per window and
/// per phase.
struct Meter<'a> {
    ctl: &'a Control,
    phase: u8,
    window: usize,
    /// A window ended at the last `tick`.
    rolled: bool,
    windows: Vec<(u64, u64)>,
    ops_in: [u64; 4],
}

impl<'a> Meter<'a> {
    fn new(ctl: &'a Control) -> Meter<'a> {
        Meter { ctl, phase: WARM, window: 0, rolled: false, windows: Vec::new(), ops_in: [0; 4] }
    }

    /// Re-reads the phase and the clock. On entering the traced phase it
    /// resets this thread's op-cost counters, so that they cover that
    /// phase only.
    fn tick(&mut self) -> u8 {
        let before = self.phase;
        self.rolled = false;
        self.phase = self.ctl.phase.load(Ordering::Acquire);
        if self.phase == TRACED && before != TRACED {
            api::take_op_costs();
        }
        if self.phase == PLAIN || self.phase == TRACED {
            let t0 = self.ctl.t0.load(Ordering::Acquire);
            let window = (now_ns().saturating_sub(t0) / WINDOW_NS) as usize;
            self.rolled = window != self.window;
            self.window = window;
            if self.windows.len() <= self.window {
                self.windows.resize(self.window + 1, (0, 0));
            }
        }
        self.phase
    }

    /// Hands what this thread did, `calls` in all, over to `w`.
    fn finish(self, w: &mut Worker, calls: u64) {
        w.lat.iter_mut().for_each(Windowed::roll);
        w.check.attempted += calls;
        w.costs = api::take_op_costs().unwrap_or_default();
        w.windows = self.windows;
        w.ops_in = self.ops_in;
    }

    #[inline]
    fn done(&mut self, entries: u64) {
        self.ops_in[self.phase as usize] += 1;
        if self.phase == PLAIN || self.phase == TRACED {
            let w = &mut self.windows[self.window];
            w.0 += 1;
            w.1 += entries;
        }
    }
}

/// What a worker thread hands back.
#[derive(Default)]
struct Worker {
    windows: Vec<(u64, u64)>,
    ops_in: [u64; 4],
    /// Call latency by role: see each workload.
    lat: [Windowed; 4],
    check: Checker,
    spans: Vec<Span>,
    costs: api::OpCosts,
}

/// What `timed_phases` measured: the length of the plain and traced
/// phases and the CPU time all threads used during them.
struct Phases {
    plain_s: f64,
    traced_s: f64,
    cpu_ns: u64,
}

/// Walks the (already running) workers through warm-up and the measured
/// phases, then stops them. A traced run measures half its time plain
/// and half traced; the difference is what tracing costs.
fn timed_phases(ctl: &Control, opts: &RunOpts) -> Phases {
    let total_cpu_ns = || proc::thread_cpu_ns().values().sum::<u64>();
    let warm = if opts.quick { 0.5 } else { 2.0 };
    std::thread::sleep(Duration::from_secs_f64(warm));
    let cpu0 = total_cpu_ns();
    ctl.t0.store(now_ns(), Ordering::Release);
    ctl.phase.store(PLAIN, Ordering::Release);
    let (plain_s, traced_s) =
        if opts.trace { (opts.seconds / 2.0, opts.seconds / 2.0) } else { (opts.seconds, 0.0) };
    std::thread::sleep(Duration::from_secs_f64(plain_s));
    if opts.trace {
        ctl.phase.store(TRACED, Ordering::Release);
        std::thread::sleep(Duration::from_secs_f64(traced_s));
    }
    // The workers are still alive here, so `/proc` still knows them.
    let cpu_ns = total_cpu_ns() - cpu0;
    ctl.phase.store(STOP, Ordering::Release);
    Phases { plain_s, traced_s, cpu_ns }
}

/// Folds the workers into the metrics every engine workload shares.
fn finish(m: &mut MetricSet, workers: &[Worker], phases: &Phases, seconds: f64) {
    let Phases { plain_s, traced_s, cpu_ns } = *phases;
    let mut windows = Vec::new();
    workers.iter().for_each(|w| add_windows(&mut windows, &w.windows));
    windows.truncate((seconds * 1e9 / WINDOW_NS as f64) as usize); // full windows only
    let (ops_s, entries_s, mean_ops_s) = per_second(&windows);
    m.set("ops_s", ops_s, windows.len() as u64);
    m.set("entries_s", entries_s, windows.len() as u64);
    m.set("diag.ops_s_mean", mean_ops_s, windows.len() as u64);
    let ops = |phase: u8| workers.iter().map(|w| w.ops_in[phase as usize]).sum::<u64>() as f64;
    let measured = ops(PLAIN) + ops(TRACED);
    m.set("diag.cpu_ms_per_kop", cpu_ns as f64 / 1e6 / (measured / 1e3), measured as u64);
    if traced_s > 0.0 {
        let (plain, traced) = (ops(PLAIN) / plain_s, ops(TRACED) / traced_s);
        m.set("trace.overhead_frac", (plain - traced) / plain, 0);
        let mut costs = api::OpCosts::default();
        workers.iter().for_each(|w| costs.add(&w.costs));
        let per_kop = |n: u64| n as f64 / (ops(TRACED) / 1e3);
        m.set("jiffy.locate_retries_per_kop", per_kop(costs.locate_retries), 0);
        m.set("jiffy.help_iters_per_kop", per_kop(costs.help_iterations), 0);
        m.set("jiffy.backoff_waits_per_kop", per_kop(costs.backoff_waits), 0);
    }
}

// ---- engine_point ------------------------------------------------------

/// A thread's record of the keys it owns (`key / THREADS` indexes it):
/// 0 = absent, else the stamp of the value last written, plus one.
type Owned = Vec<u32>;

fn expected_value(key: u64, slot: u32) -> Option<u64> {
    (slot != 0).then(|| tagged(key, slot as u64 - 1))
}

/// Fills a fresh map with the seeded half of the key space, each thread
/// loading the keys it owns; returns the map, the threads' records and
/// the time taken.
fn point_set_up(seed: u64, space: u64) -> (api::Bare, Vec<Owned>, f64) {
    let t0 = std::time::Instant::now();
    let map = api::bare_map();
    let owned: Vec<Owned> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|lane| {
                let map = &map;
                s.spawn(move || {
                    let mut owned = vec![0u32; (space / THREADS) as usize];
                    for key in (lane..space).step_by(THREADS as usize) {
                        if point_prefilled(seed, key) {
                            map.put(key, tagged(key, 0));
                            owned[(key / THREADS) as usize] = 1;
                        }
                    }
                    owned
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a prefill thread panicked")).collect()
    });
    (map, owned, t0.elapsed().as_secs_f64())
}

const READ: usize = 0;
const WRITE: usize = 1;

fn point_worker(
    map: &impl OrderedIndex<u64, u64>,
    lane: u64,
    mut src: PointStream,
    owned: &mut Owned,
    ctl: &Control,
) -> Worker {
    proc::run_on_nth(lane);
    let mut meter = Meter::new(ctl);
    let mut w = Worker::default();
    let mut n = 0u64;
    loop {
        if n.is_multiple_of(64) {
            if meter.tick() == STOP {
                break;
            }
            if meter.rolled {
                w.lat.iter_mut().for_each(Windowed::roll);
            }
        }
        let timed = n.is_multiple_of(SAMPLE_EVERY);
        let op = src.next_op();
        let start = if timed { now_ns() } else { 0 };
        let role = match op {
            Op::Get(key) => {
                let got = map.get(&key);
                if let Some(val) = got {
                    w.check.value(key, val);
                }
                // Its own keys a thread knows exactly; checked on the
                // sampled calls, which pay for the clock anyway.
                if timed && key % THREADS == lane {
                    let want = expected_value(key, owned[(key / THREADS) as usize]);
                    if got != want {
                        w.check.fail(|| format!("get({key}) = {got:?}, last write left {want:?}"));
                    }
                }
                READ
            }
            Op::Put(key, val) => {
                map.put(key, val);
                owned[(key / THREADS) as usize] = stamp_of(val) as u32 + 1;
                WRITE
            }
            Op::Remove(key) => {
                let had = map.remove(&key);
                let slot = &mut owned[(key / THREADS) as usize];
                if had != (*slot != 0) {
                    w.check.fail(|| {
                        format!(
                            "remove({key}) = {had}, but the key was {}",
                            if had { "absent" } else { "present" }
                        )
                    });
                }
                *slot = 0;
                WRITE
            }
            _ => unreachable!("engine_point issues point ops only"),
        };
        if timed {
            let end = now_ns();
            if meter.phase != WARM {
                w.lat[role].record(end - start);
            }
            if meter.phase == TRACED {
                let name = if role == READ { "jiffy.get" } else { "jiffy.update" };
                w.spans.push(Span {
                    name,
                    parent: "",
                    id: n << 1 | lane,
                    start_ns: start,
                    end_ns: end,
                });
            }
        }
        meter.done(1);
        n += 1;
    }
    meter.finish(&mut w, n);
    w
}

pub fn run_point(opts: &RunOpts) -> Outcome {
    let space = Workload::EnginePoint.keys(opts.quick);
    let mut m = MetricSet::default();
    let (map, mut owned, first_set_up) = point_set_up(opts.seed, space);

    let ctl = Control { phase: AtomicU8::new(WARM), t0: AtomicU64::new(0) };
    let mut phases = None;
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let handles: Vec<_> = owned
            .iter_mut()
            .enumerate()
            .map(|(lane, owned)| {
                let (map, ctl) = (&map, &ctl);
                let src = PointStream::new(opts.seed, lane as u64, THREADS, space);
                s.spawn(move || point_worker(map, lane as u64, src, owned, ctl))
            })
            .collect();
        phases = Some(timed_phases(&ctl, opts));
        handles.into_iter().map(|h| h.join().expect("a worker panicked")).collect()
    });
    m.set("rss_mb", proc::peak_rss_mib(), 0);
    finish(&mut m, &workers, &phases.expect("the phases ran"), opts.seconds);

    let mut check = Checker::default();
    let mut spans = Vec::new();
    let (mut reads, mut writes) = (Windowed::default(), Windowed::default());
    for w in workers {
        reads.merge(&w.lat[READ]);
        writes.merge(&w.lat[WRITE]);
        check.merge(w.check);
        spans.extend(w.spans);
    }
    m.read_latency(&reads);
    m.write_latency(&writes);

    let expected = (0..space).filter_map(|k| {
        expected_value(k, owned[(k % THREADS) as usize][(k / THREADS) as usize]).map(|v| (k, v))
    });
    check.end_state(map.scan_collect(&0, usize::MAX), expected);
    drop(map);
    let (setup_s, rounds) = median_set_up(first_set_up, || point_set_up(opts.seed, space).2);
    m.set("setup_s", setup_s, rounds);
    if !opts.trace {
        api::assert_engine_only();
    }
    Outcome { metrics: m, check, spans, notes: Vec::new() }
}

// ---- engine_batch_scan -------------------------------------------------

const SEQ_BATCH: usize = 0;
const RAND_BATCH: usize = 1;
const SHORT: usize = 2;
const LONG: usize = 3;

fn batch_scan_set_up(keys: u64) -> (std::sync::Arc<api::Elastic>, f64) {
    let t0 = std::time::Instant::now();
    let map = api::elastic_map(BATCH_SCAN_SHARDS, keys);
    for puts in dense_chunks(keys) {
        api::put_batch(&*map, &puts);
    }
    (map, t0.elapsed().as_secs_f64())
}

/// Span names of a batch/scan worker's calls, by role.
const CALL_NAMES: [&str; 4] =
    ["shard.batch.seq", "shard.batch.cross", "shard.scan.short", "shard.scan.long"];

/// Each worker's loop: `step` issues one op and returns its role, when
/// the call began and ended, and the entries it moved.
fn batch_scan_worker(
    ctl: &Control,
    lane: u64,
    mut step: impl FnMut(&mut Checker) -> (usize, u64, u64, u64),
) -> Worker {
    proc::run_on_nth(lane);
    let mut meter = Meter::new(ctl);
    let mut w = Worker::default();
    let mut n = 0u64;
    loop {
        let phase = meter.tick();
        if phase == STOP {
            break;
        }
        if meter.rolled {
            w.lat.iter_mut().for_each(Windowed::roll);
        }
        let (role, start_ns, end_ns, entries) = step(&mut w.check);
        if phase != WARM {
            w.lat[role].record(end_ns - start_ns);
        }
        if phase == TRACED {
            w.spans.push(Span {
                name: CALL_NAMES[role],
                parent: "",
                id: n << 1 | lane,
                start_ns,
                end_ns,
            });
        }
        meter.done(entries);
        n += 1;
    }
    meter.finish(&mut w, n);
    w
}

pub fn run_batch_scan(opts: &RunOpts) -> Outcome {
    let keys = Workload::EngineBatchScan.keys(opts.quick);
    let mut m = MetricSet::default();
    let (map, first_set_up) = batch_scan_set_up(keys);

    let rule = ScanRule { dense: keys, atomic_even_groups: true };
    let mut last: Vec<u64> = (0..keys).map(|k| tagged(k, 0)).collect();
    let ctl = Control { phase: AtomicU8::new(WARM), t0: AtomicU64::new(0) };
    let mut phases = None;
    let workers: Vec<Worker> = std::thread::scope(|s| {
        let (map, ctl, last) = (&*map, &ctl, &mut last);
        let mut batches = BatchStream::new(opts.seed, keys);
        let batcher = s.spawn(move || {
            batch_scan_worker(ctl, 0, |_| {
                let role = if batches.next_is_sequential() { SEQ_BATCH } else { RAND_BATCH };
                let Op::Batch(puts) = batches.next_op() else { unreachable!() };
                let start = now_ns();
                api::put_batch(map, &puts);
                let end = now_ns();
                for &(k, v) in &puts {
                    last[k as usize] = v;
                }
                (role, start, end, puts.len() as u64)
            })
        });
        let mut scans = ScanStream::new(opts.seed, keys, BATCH_SCAN_SHARDS as u64);
        let scanner = s.spawn(move || {
            batch_scan_worker(ctl, 1, |check| {
                let Op::Scan { lo, limit } = scans.next_op() else { unreachable!() };
                let start = now_ns();
                let entries = map.scan_collect(&lo, limit as usize);
                let end = now_ns();
                check.scan(lo, limit, &entries, rule);
                (if limit == LONG_SCAN { LONG } else { SHORT }, start, end, entries.len() as u64)
            })
        });
        phases = Some(timed_phases(ctl, opts));
        vec![
            batcher.join().expect("the batcher panicked"),
            scanner.join().expect("the scanner panicked"),
        ]
    });
    m.set("rss_mb", proc::peak_rss_mib(), 0);
    finish(&mut m, &workers, &phases.expect("the phases ran"), opts.seconds);

    let mut check = Checker::default();
    let mut spans = Vec::new();
    let mut lat: [Windowed; 4] = Default::default();
    for w in workers {
        for (a, b) in lat.iter_mut().zip(&w.lat) {
            a.merge(b);
        }
        check.merge(w.check);
        spans.extend(w.spans);
    }
    // The user-visible read here is the short scan, the write the
    // cross-shard batch; single-shard batches and long scans are
    // reported beside them (and dominate `entries_s`).
    m.read_latency(&lat[SHORT]);
    m.write_latency(&lat[RAND_BATCH]);
    let long = &lat[LONG].all;
    m.set("diag.scan_p50_us", long.p50() / 1e3, long.count());
    m.set("diag.scan_p99_us", long.p99() / 1e3, long.count());
    let notes = vec![format!(
        "single-shard batch p50 {:.1} us (n={}), cross-shard batch p50 {:.1} us (n={})",
        lat[SEQ_BATCH].all.p50() / 1e3,
        lat[SEQ_BATCH].all.count(),
        lat[RAND_BATCH].all.p50() / 1e3,
        lat[RAND_BATCH].all.count()
    )];

    check.end_state(
        map.scan_collect(&0, usize::MAX),
        last.iter().enumerate().map(|(k, v)| (k as u64, *v)),
    );
    drop(map);
    let (setup_s, rounds) = median_set_up(first_set_up, || batch_scan_set_up(keys).1);
    m.set("setup_s", setup_s, rounds);
    if !opts.trace {
        api::assert_engine_only();
    }
    Outcome { metrics: m, check, spans, notes }
}
