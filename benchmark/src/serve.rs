//! The serving workloads: an in-process `jiffy-server` on loopback TCP,
//! driven by two pipelined connections through three phases — **light**
//! and **heavy** open loops at fixed rates, then a **sat** closed loop
//! (256 in flight per connection) for capacity. The server's threads run
//! on one half of the CPUs, the generator's on the other. `serve_durable`
//! logs every write, checkpoints between light and heavy, and between
//! heavy and sat shuts the server down, reopens the directory into a
//! fresh map (timed) and audits every acknowledged write.

use std::net::TcpStream;
use std::path::{Path, PathBuf};

use crate::api::{self, OrderedIndex as _, Server};
use crate::check::{Checker, ScanRule};
use crate::gen::{dense_chunks, tagged, Op, OpSource, ServeStream, SplitMix};
use crate::loadgen::{self, LaneOut, OpenPlan, PhaseCtx, PUT, SCAN};
use crate::metrics::MetricSet;
use crate::proc::{self, cpu_of, now_ns};
use crate::workloads::{median_set_up, Outcome, RunOpts, Workload, CONNS, SERVE_SHARDS};

/// Requests in flight per connection in the sat phase: enough that the
/// server never runs dry. With 16 its io threads nap between rounds, and
/// the phase measures which of two wake-up rhythms the run fell into
/// (1-s windows of one run from 140 k to 280 k req/s).
const SAT_DEPTH: usize = 256;
const WARMUP_DEPTH: usize = 4;

/// One connection with its op stream and the last value it wrote to
/// each key (only keys it owns ever change).
struct Lane {
    stream: TcpStream,
    source: ServeStream,
    /// Draws the open-loop arrival times.
    pacing: SplitMix,
    last: Vec<u64>,
    next_id: u64,
}

fn note_write(last: &mut [u64], op: &Op) {
    match op {
        Op::Put(k, v) => last[*k as usize] = *v,
        Op::Batch(puts) => puts.iter().for_each(|&(k, v)| last[k as usize] = v),
        _ => {}
    }
}

fn connect(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.addr()).expect("connect to the in-process server");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    stream
}

/// Starts a server over a fresh map on the lower half of the CPUs and
/// leaves the calling thread, and so the load generator's threads, on the
/// upper half. Sharing cores, the server's polling io threads and the
/// generator take turns as the scheduler sees fit, and a run measures
/// which of its habits it fell into: latency and capacity then differ by
/// half between runs of one commit.
fn start_server(keys: u64, dir: Option<&Path>) -> Server {
    let (server_cpus, generator_cpus) = proc::split_cpus();
    proc::run_on(server_cpus);
    let server = Server::start(api::elastic_map(SERVE_SHARDS, keys), dir);
    proc::run_on(generator_cpus);
    server.expect("start the in-process server")
}

/// Builds the map and the server, loads `keys` dense keys and connects;
/// returns how long that took.
fn set_up(keys: u64, dir: Option<&Path>) -> (Server, Vec<TcpStream>, f64) {
    let t0 = std::time::Instant::now();
    let server = start_server(keys, dir);
    for puts in dense_chunks(keys) {
        server.load(&puts).expect("prefill");
    }
    let streams = (0..CONNS).map(|_| connect(&server)).collect();
    (server, streams, t0.elapsed().as_secs_f64())
}

fn data_dir(workload: Workload, round: usize) -> PathBuf {
    crate::results_dir().join(format!("{}-{}-{round}", workload.name(), std::process::id()))
}

/// Runs an open-loop phase on every lane at `rate` requests per second
/// in total.
fn open_phase(lanes: &mut [Lane], rate: u64, secs: f64, ctx: PhaseCtx) -> LaneOut {
    let interval = 1_000_000_000 * CONNS / rate;
    let n = (secs * 1e9 / interval as f64) as usize;
    let plans: Vec<Vec<Op>> = lanes
        .iter_mut()
        .map(|lane| {
            (0..n)
                .map(|_| {
                    let op = lane.source.next_op();
                    note_write(&mut lane.last, &op);
                    op
                })
                .collect()
        })
        .collect();
    let start = now_ns() + 5_000_000;
    let mut out = LaneOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .zip(&plans)
            .map(|(lane, ops)| {
                let plan = OpenPlan::new(ops, lane.next_id, start, interval, &mut lane.pacing);
                lane.next_id += n as u64;
                let stream = &lane.stream;
                s.spawn(move || loadgen::open_loop(stream, &plan, ctx))
            })
            .collect();
        for h in handles {
            out.merge(h.join().expect("an open-loop lane panicked"));
        }
    });
    out
}

fn closed_phase(lanes: &mut [Lane], secs: f64, depth: usize, ctx: PhaseCtx) -> LaneOut {
    let t0 = now_ns() + 2_000_000;
    let end = t0 + (secs * 1e9) as u64;
    let mut out = LaneOut::default();
    std::thread::scope(|s| {
        let handles: Vec<_> = lanes
            .iter_mut()
            .map(|lane| {
                std::thread::Builder::new()
                    .name("gen-cl".into())
                    .spawn_scoped(s, move || {
                        let Lane { stream, source, last, next_id, .. } = lane;
                        let lane_out = loadgen::closed_loop(
                            stream,
                            source,
                            |op| note_write(last, op),
                            *next_id,
                            depth,
                            (t0, end),
                            ctx,
                        );
                        *next_id += lane_out.sent * depth as u64;
                        lane_out
                    })
                    .expect("spawn gen-cl")
            })
            .collect();
        for h in handles {
            out.merge(h.join().expect("a closed-loop lane panicked"));
        }
    });
    out
}

/// The map's whole contents against the lanes' last-write tables.
fn audit(check: &mut Checker, server: &Server, lanes: &[Lane], keys: u64) {
    let actual = server.map().scan_collect(&0, usize::MAX);
    let expected = (0..keys).map(|k| (k, lanes[(k % CONNS) as usize].last[k as usize]));
    check.end_state(actual, expected);
}

struct Cpu {
    at_ns: u64,
    by_thread: std::collections::BTreeMap<String, u64>,
}

fn cpu_now() -> Cpu {
    Cpu { at_ns: now_ns(), by_thread: proc::thread_cpu_ns() }
}

/// CPU nanoseconds the threads named `prefix*` used between two samples.
fn cpu_between(a: &Cpu, b: &Cpu, prefix: &str) -> f64 {
    cpu_of(&b.by_thread, prefix).saturating_sub(cpu_of(&a.by_thread, prefix)) as f64
}

/// Share of the machine (all cores) between two samples.
fn cpu_frac(a: &Cpu, b: &Cpu, prefix: &str) -> f64 {
    cpu_between(a, b, prefix) / ((b.at_ns - a.at_ns) as f64 * proc::cores() as f64)
}

pub fn run(workload: Workload, opts: &RunOpts) -> Outcome {
    let durable = workload == Workload::ServeDurable;
    let keys = workload.keys(opts.quick);
    let (light_rate, heavy_rate) = workload.rates();
    // The bounded metrics come from light (latency) and sat (capacity);
    // heavy feeds the per-layer ones only and gets the least.
    let (light_s, heavy_s, sat_s) = (0.35 * opts.seconds, 0.15 * opts.seconds, 0.50 * opts.seconds);
    let rule = ScanRule { dense: keys, atomic_even_groups: false };
    let untraced = PhaseCtx { rule, trace: false };
    let ctx = PhaseCtx { rule, trace: opts.trace };
    let mut m = MetricSet::default();
    let mut check = Checker::default();
    let mut notes = Vec::new();

    let dir = durable.then(|| data_dir(workload, 0));
    let (mut server, streams, first_set_up) = set_up(keys, dir.as_deref());
    if let Some(dir) = &dir {
        notes.push(format!("data_dir {} on {}", dir.display(), proc::fs_type(dir)));
    }

    let mut lanes: Vec<Lane> = streams
        .into_iter()
        .enumerate()
        .map(|(c, stream)| Lane {
            stream,
            source: ServeStream::new(
                opts.seed,
                c as u64,
                CONNS,
                keys,
                SERVE_SHARDS as u64,
                workload.mix(),
            ),
            pacing: SplitMix::new(opts.seed, CONNS + c as u64),
            last: (0..keys).map(|k| tagged(k, 0)).collect(),
            next_id: 1,
        })
        .collect();

    // Warm-up: checked like everything else, measured by nothing.
    let warm = closed_phase(&mut lanes, if opts.quick { 0.5 } else { 2.0 }, WARMUP_DEPTH, untraced);
    check.merge(warm.check);

    let cpu0 = cpu_now();
    let light = open_phase(&mut lanes, light_rate, light_s, ctx);
    let cpu1 = cpu_now();
    if durable {
        // With no request in flight: see "Known defect" in the README.
        let t0 = std::time::Instant::now();
        server.checkpoint().expect("checkpoint");
        notes.push(format!(
            "checkpoint between the phases took {:.3} s",
            t0.elapsed().as_secs_f64()
        ));
    }
    let (cpu1b, stats1, sync1) = (cpu_now(), server.stats(), server.sync_stats());
    let heavy = open_phase(&mut lanes, heavy_rate, heavy_s, ctx);
    let (cpu2, stats2, sync2) = (cpu_now(), server.stats(), server.sync_stats());

    if durable {
        // Clean shutdown, then recovery into a fresh map: every write
        // that was acknowledged must be there.
        let dir = dir.as_deref().expect("a durable run has a data dir");
        for lane in &mut lanes {
            lane.stream.shutdown(std::net::Shutdown::Both).ok();
        }
        server.shutdown();
        let t0 = std::time::Instant::now();
        server = start_server(keys, Some(dir));
        m.set("dur.recover_s", t0.elapsed().as_secs_f64(), 0);
        audit(&mut check, &server, &lanes, keys);
        for lane in &mut lanes {
            lane.stream = connect(&server);
        }
        let writes = (heavy.lat[PUT].count() + heavy.lat[loadgen::TXN].count()) as f64;
        m.set(
            "dur.fsyncs_per_kwrite",
            (sync2.syncs - sync1.syncs) as f64 / writes * 1e3,
            writes as u64,
        );
        m.set("dur.sync_p50_us", sync2.p50_ns as f64 / 1e3, sync2.syncs);
    }

    // Capacity. A traced run spends half the phase untraced and half
    // traced; the difference is what tracing costs.
    let stats_sat0 = server.stats();
    let sat = if opts.trace {
        let plain = closed_phase(&mut lanes, sat_s / 2.0, SAT_DEPTH, untraced);
        let traced = closed_phase(&mut lanes, sat_s / 2.0, SAT_DEPTH, ctx);
        let (a, b) = (plain.answered as f64, traced.answered as f64);
        m.set("trace.overhead_frac", (a - b) / a, 0);
        check.merge(plain.check);
        traced
    } else {
        closed_phase(&mut lanes, sat_s, SAT_DEPTH, untraced)
    };
    let stats_sat1 = server.stats();
    audit(&mut check, &server, &lanes, keys);
    drop(lanes);
    server.shutdown();
    let peak_rss_mib = proc::peak_rss_mib();
    dir.map(std::fs::remove_dir_all);
    let mut round = 0;
    let (setup_s, rounds) = median_set_up(first_set_up, || {
        round += 1;
        let dir = durable.then(|| data_dir(workload, round));
        let (server, streams, secs) = set_up(keys, dir.as_deref());
        drop(streams);
        server.shutdown();
        dir.map(std::fs::remove_dir_all);
        secs
    });
    m.set("setup_s", setup_s, rounds);
    proc::run_on(proc::cpus_at_start());
    if !durable {
        api::assert_durability_unused();
    }

    // End-to-end.
    let (ops_s, entries_s, mean_ops_s) = loadgen::per_second(&sat.windows);
    m.set("ops_s", ops_s, sat.windows.len() as u64);
    m.set("entries_s", entries_s, sat.windows.len() as u64);
    m.set("diag.ops_s_mean", mean_ops_s, sat.windows.len() as u64);
    // Latency is the light phase's: every request finds the server idle,
    // so it is the wake-up floor and nothing else, which repeats from run
    // to run. In the heavy phase a request meets an io thread that is
    // awake or napping about as often as not, and its latency wanders.
    m.read_latency(&light.reads);
    m.write_latency(&light.writes);
    m.set("rss_mb", peak_rss_mib, 0);
    let open_ops = light.answered + heavy.answered;
    m.set(
        "diag.cpu_ms_per_kop",
        cpu_between(&cpu0, &cpu2, "jfs-") / 1e6 / (open_ops as f64 / 1e3),
        open_ops,
    );

    // What the run itself says about the layers.
    m.set("diag.scan_p50_us", heavy.lat[SCAN].p50() / 1e3, heavy.lat[SCAN].count());
    m.set("diag.scan_p99_us", heavy.lat[SCAN].p99() / 1e3, heavy.lat[SCAN].count());
    let heavy_points = heavy.point_lat();
    m.set("diag.heavy_p50_us", heavy_points.p50() / 1e3, heavy_points.count());
    m.set("diag.heavy_p99_us", heavy_points.p99() / 1e3, heavy_points.count());
    let planned = (light.check.attempted + heavy.check.attempted) as f64;
    let missed = (light.slow + heavy.slow + light.check.failed + heavy.check.failed) as f64;
    m.set("diag.slo_miss_frac", missed / planned, planned as u64);
    let d = |a: u64, b: u64| b.saturating_sub(a) as f64;
    m.set(
        "server.ops_per_batch",
        d(stats1.coalesced_puts, stats2.coalesced_puts)
            / d(stats1.installed_batches, stats2.installed_batches).max(1.0),
        d(stats1.installed_batches, stats2.installed_batches) as u64,
    );
    m.set(
        "server.coalesced_frac_heavy",
        d(stats1.coalesced_puts, stats2.coalesced_puts) / (heavy.lat[PUT].count() as f64).max(1.0),
        heavy.lat[PUT].count(),
    );
    m.set(
        "server.coalesced_frac_sat",
        d(stats_sat0.coalesced_puts, stats_sat1.coalesced_puts)
            / (sat.lat[PUT].count() as f64).max(1.0),
        sat.lat[PUT].count(),
    );
    m.set("server.io_cpu_frac_light", cpu_frac(&cpu0, &cpu1, "jfs-io"), 0);
    m.set("server.io_cpu_frac_heavy", cpu_frac(&cpu1b, &cpu2, "jfs-io"), 0);
    m.set("server.worker_cpu_frac_light", cpu_frac(&cpu0, &cpu1, "jfs-worker"), 0);
    m.set("server.worker_cpu_frac_heavy", cpu_frac(&cpu1b, &cpu2, "jfs-worker"), 0);
    m.set(
        "gen.lag_p99_us",
        light.lag.p99().max(heavy.lag.p99()) / 1e3,
        light.lag.count() + heavy.lag.count(),
    );
    let gen_cpu = (light.gen_cpu_ns + heavy.gen_cpu_ns) as f64;
    m.set("gen.cpu_frac", gen_cpu / ((cpu2.at_ns - cpu0.at_ns) as f64 * proc::cores() as f64), 0);

    for (name, phase) in [("light", &light), ("heavy", &heavy)] {
        let overloaded = phase.inflight_at_end * 100 > phase.sent;
        notes.push(format!(
            "{name}: sent {} answered {} in flight at end {} over {} ms {} gen lag p99 {:.0} us{}",
            phase.sent,
            phase.answered,
            phase.inflight_at_end,
            loadgen::SLO_NS / 1_000_000,
            phase.slow,
            phase.lag.p99() / 1e3,
            if overloaded { " OVERLOADED" } else { "" }
        ));
    }

    let mut spans = light.spans;
    spans.extend(heavy.spans);
    spans.extend(sat.spans);
    check.merge(light.check);
    check.merge(heavy.check);
    check.merge(sat.check);
    Outcome { metrics: m, check, spans, notes }
}
