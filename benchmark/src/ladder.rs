//! The layer ladder: the keys and ops of the workload's own seeded
//! stream, replayed single-threaded into each layer's public entry
//! point, over a map of the workload's size and shape. Adjacent rungs
//! differ by one layer, so their difference is that layer's tax.
//!
//! A span covers a chunk of consecutive calls (a single call to a 15 ns
//! function cannot be timed by a 20 ns clock); a rung's figure is the
//! median over its chunks of nanoseconds per call.

use std::collections::VecDeque;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

use crate::api::{
    self, decode_request, decode_response, encode_request, encode_response, FrameDecoder,
    OrderedIndex, Request, Response,
};
use crate::gen::{dense_chunks, point_prefilled, tagged, Op, LONG_SCAN, SCAN_LIMIT, SHORT_SCAN};
use crate::hist::median;
use crate::loadgen::to_request;
use crate::metrics::MetricSet;
use crate::proc::{heap, now_ns};
use crate::trace::Span;
use crate::workloads::{RunOpts, Workload, SERVE_SHARDS};

const CHUNK: usize = 64;
const BATCH: usize = 100;

struct Ladder {
    m: MetricSet,
    spans: Vec<Span>,
}

impl Ladder {
    fn span(&mut self, name: &'static str, id: u64, start_ns: u64, end_ns: u64) {
        self.spans.push(Span { name, parent: "", id, start_ns, end_ns });
    }

    /// Runs `chunks` timed chunks; `body(c)` makes chunk `c`'s calls and
    /// returns how many units (calls, ops, entries) they amounted to.
    /// Returns the median ns per unit and the number of chunks it is over.
    fn rung(
        &mut self,
        name: &'static str,
        chunks: usize,
        body: impl FnMut(usize) -> usize,
    ) -> (f64, u64) {
        self.rung_resetting(name, chunks, body, |_| {})
    }

    /// `rung`, with `reset(c)` run untimed after chunk `c`.
    fn rung_resetting(
        &mut self,
        name: &'static str,
        chunks: usize,
        mut body: impl FnMut(usize) -> usize,
        mut reset: impl FnMut(usize),
    ) -> (f64, u64) {
        let mut per_unit = Vec::with_capacity(chunks);
        for c in 0..chunks {
            let start = now_ns();
            let units = body(c);
            let end = now_ns();
            reset(c);
            self.span(name, c as u64, start, end);
            if units > 0 {
                per_unit.push((end - start) as f64 / units as f64);
            }
        }
        (median(&mut per_unit), per_unit.len() as u64)
    }

    /// A rung of `n` calls in chunks of `CHUNK`, reported as `metric`.
    fn calls(&mut self, metric: &'static str, n: usize, mut call: impl FnMut(usize)) -> f64 {
        let (ns, chunks) = self.rung(metric, n / CHUNK, |c| {
            (c * CHUNK..(c + 1) * CHUNK).for_each(&mut call);
            CHUNK
        });
        self.m.set(metric, ns, chunks);
        ns
    }
}

/// The first keys and ops of the workload's stream, lanes interleaved:
/// `n_keys` keys (every key an op touches, in order) and the ops
/// themselves up to `n_ops` or `max_entries` entries moved.
fn input(
    workload: Workload,
    opts: &RunOpts,
    n_keys: usize,
    n_ops: usize,
    max_entries: usize,
) -> (Vec<u64>, Vec<Op>) {
    let mut lanes: Vec<_> =
        (0..2).map(|lane| workload.source(opts.seed, lane, opts.quick)).collect();
    let (mut keys, mut ops, mut entries) = (Vec::with_capacity(n_keys), Vec::new(), 0usize);
    for turn in 0.. {
        if keys.len() >= n_keys {
            break;
        }
        let op = lanes[turn % 2].next_op();
        match &op {
            Op::Batch(puts) => keys.extend(puts.iter().map(|(k, _)| *k)),
            other => keys.push(other.key()),
        }
        if ops.len() < n_ops && entries < max_entries {
            entries += match &op {
                Op::Batch(puts) => puts.len(),
                Op::Scan { limit, .. } => *limit as usize,
                _ => 1,
            };
            ops.push(op);
        }
    }
    keys.truncate(n_keys);
    (keys, ops)
}

/// Loads `index` the way the workload's own set-up does.
fn prefill(index: &impl OrderedIndex<u64, u64>, workload: Workload, opts: &RunOpts) -> u64 {
    let space = workload.keys(opts.quick);
    if workload == Workload::EnginePoint {
        let mut n = 0;
        for key in (0..space).filter(|k| point_prefilled(opts.seed, *k)) {
            index.put(key, tagged(key, 0));
            n += 1;
        }
        return n;
    }
    for puts in dense_chunks(space) {
        api::put_batch(index, &puts);
    }
    space
}

/// The rungs every ordered index has: get, put, 100-put batch, scan.
/// Returns their medians in that order, and what the gets cost inside
/// jiffy (a `counters` build only).
fn index_rungs(
    l: &mut Ladder,
    names: [&'static str; 4],
    index: &impl OrderedIndex<u64, u64>,
    pairs: &[(u64, u64)],
    limits: &[u32],
) -> ([f64; 4], Option<api::OpCosts>) {
    api::take_op_costs();
    let get = l.calls(names[0], pairs.len(), |i| {
        black_box(index.get(&pairs[i].0));
    });
    let get_costs = api::take_op_costs();
    let put = l.calls(names[1], pairs.len(), |i| index.put(pairs[i].0, pairs[i].1));
    let (batch, n) = l.rung(names[2], pairs.len() / BATCH, |c| {
        api::put_batch(index, &pairs[c * BATCH..(c + 1) * BATCH]);
        BATCH
    });
    l.m.set(names[2], batch, n);
    let scans = (pairs.len() / 400).max(limits.len());
    let (scan, n) = l.rung(names[3], scans, |c| {
        let mut seen = 0;
        index.scan_from(
            &pairs[c * 400 % pairs.len()].0,
            limits[c % limits.len()] as usize,
            &mut |k, v| {
                black_box((k, v));
                seen += 1;
            },
        );
        seen
    });
    l.m.set(names[3], scan, n);
    ([get, put, batch, scan], get_costs)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// A response of the shape the server would send for `op`.
fn synth_response(id: u64, op: &Op) -> Response {
    match op {
        Op::Get(k) => Response::Get { id, val: Some(tagged(*k, 0)) },
        Op::Put(..) => Response::Put { id },
        Op::Remove(_) => Response::Remove { id, had: true },
        Op::Batch(_) => Response::Txn { id },
        Op::Scan { lo, limit } => Response::Scan {
            id,
            entries: (*lo..*lo + *limit as u64).map(|k| (k, tagged(k, 0))).collect(),
        },
    }
}

/// `proto.*`: the workload's ops as frames, through the codec alone.
fn proto_rungs(l: &mut Ladder, ops: &[Op]) {
    const OPS: usize = 16;
    let chunks = ops.len() / OPS;
    let requests: Vec<Request> =
        ops.iter().enumerate().map(|(i, op)| to_request(i as u64, op)).collect();
    let responses: Vec<Response> =
        ops.iter().enumerate().map(|(i, op)| synth_response(i as u64, op)).collect();
    let mut wire: Vec<Vec<u8>> = vec![Vec::new(); chunks];
    let set = |l: &mut Ladder, name: &'static str, (ns, n): (f64, u64)| l.m.set(name, ns, n);

    let r = l.rung("proto.req_encode_ns", chunks, |c| {
        requests[c * OPS..(c + 1) * OPS].iter().for_each(|r| encode_request(&mut wire[c], r));
        OPS
    });
    set(l, "proto.req_encode_ns", r);
    l.m.set(
        "proto.req_bytes",
        wire.iter().map(Vec::len).sum::<usize>() as f64 / (chunks * OPS) as f64,
        0,
    );
    let mut dec = FrameDecoder::new();
    let r = l.rung("proto.req_decode_ns", chunks, |c| {
        dec.extend(&wire[c]);
        while let Ok(Some(payload)) = dec.next_frame() {
            black_box(decode_request(&payload).expect("a frame this benchmark encoded"));
        }
        OPS
    });
    set(l, "proto.req_decode_ns", r);

    wire.iter_mut().for_each(Vec::clear);
    let r = l.rung("proto.resp_encode_ns", chunks, |c| {
        responses[c * OPS..(c + 1) * OPS].iter().for_each(|r| encode_response(&mut wire[c], r));
        OPS
    });
    set(l, "proto.resp_encode_ns", r);
    l.m.set(
        "proto.resp_bytes",
        wire.iter().map(Vec::len).sum::<usize>() as f64 / (chunks * OPS) as f64,
        0,
    );
    let mut dec = FrameDecoder::new();
    let r = l.rung("proto.resp_decode_ns", chunks, |c| {
        dec.extend(&wire[c]);
        while let Ok(Some(payload)) = dec.next_frame() {
            black_box(decode_response(&payload).expect("a frame this benchmark encoded"));
        }
        OPS
    });
    set(l, "proto.resp_decode_ns", r);
}

/// Moves `msgs` once from `producers` threads (each sending its share)
/// to this thread; returns the nanoseconds it took. The consumer polls
/// and yields when empty, like the server's worker before it parks.
fn transfer(
    producers: usize,
    msgs: &[Request],
    send: impl Fn(Request) + Sync,
    mut recv: impl FnMut() -> Option<Request>,
) -> u64 {
    let ready = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for p in 0..producers {
            let (send, ready) = (&send, &ready);
            s.spawn(move || {
                ready.fetch_add(1, Ordering::AcqRel);
                while ready.load(Ordering::Acquire) <= producers {
                    std::hint::spin_loop();
                }
                msgs.iter().skip(p).step_by(producers).for_each(|m| send(m.clone()));
            });
        }
        while ready.load(Ordering::Acquire) < producers {
            std::hint::spin_loop();
        }
        let start = now_ns();
        ready.fetch_add(1, Ordering::AcqRel); // go
        let mut got = 0;
        while got < msgs.len() {
            match recv() {
                Some(m) => {
                    black_box(m);
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        now_ns() - start
    })
}

/// `queue.*`: the ingress queue, `std::sync::mpsc` and a mutexed
/// `VecDeque` moving the identical messages.
fn queue_rungs(l: &mut Ladder, keys: &[u64]) {
    const ROUNDS: usize = 5;
    let msgs: Vec<Request> =
        keys.iter().enumerate().map(|(i, k)| Request::Get { id: i as u64, key: *k }).collect();
    let run = |l: &mut Ladder, name: &'static str, once: &mut dyn FnMut() -> u64| {
        let mut per_msg: Vec<f64> = (0..ROUNDS)
            .map(|round| {
                let ns = once();
                let end = now_ns();
                l.span(name, round as u64, end - ns, end);
                ns as f64 / msgs.len() as f64
            })
            .collect();
        l.m.set(name, median(&mut per_msg), (ROUNDS * msgs.len()) as u64);
    };
    for (name, producers) in [("queue.xfer_ns_1p", 1), ("queue.xfer_ns_2p", 2)] {
        run(l, name, &mut || {
            let (tx, mut rx) = api::queue_channel::<Request>();
            transfer(producers, &msgs, |m| tx.send(m), || rx.recv())
        });
    }
    run(l, "queue.std_mpsc_xfer_ns_2p", &mut || {
        let (tx, rx) = mpsc::channel::<Request>();
        transfer(2, &msgs, |m| tx.send(m).expect("the receiver is alive"), || rx.try_recv().ok())
    });
    run(l, "queue.mutex_deque_xfer_ns_2p", &mut || {
        let q = Mutex::new(VecDeque::<Request>::new());
        let lock = || q.lock().expect("no holder of this lock panics");
        transfer(2, &msgs, |m| lock().push_back(m), || lock().pop_front())
    });
}

/// One blocking request/response on `stream`; returns when it began and
/// ended.
fn round_trip(stream: &mut TcpStream, req: &Request, dec: &mut FrameDecoder) -> (u64, u64) {
    let mut out = Vec::with_capacity(32);
    encode_request(&mut out, req);
    let mut buf = [0u8; 4096];
    let start = now_ns();
    stream.write_all(&out).expect("write to the probe connection");
    loop {
        if let Ok(Some(payload)) = dec.next_frame() {
            black_box(decode_response(&payload).expect("a well-formed response"));
            return (start, now_ns());
        }
        let n = stream.read(&mut buf).expect("read from the probe connection");
        assert!(n > 0, "the server closed the probe connection");
        dec.extend(&buf[..n]);
    }
}

/// `server.*` probes at depth 1: a `Stats` request is answered by the io
/// thread itself (socket + io loop only); a `Get` also crosses to a
/// worker and back.
fn server_rungs(l: &mut Ladder, map: std::sync::Arc<api::Elastic>, keys: &[u64]) {
    const PROBES: usize = 2048;
    let server = api::Server::start(map, None).expect("start the probe server");
    let mut setup = Vec::new();
    for i in 0..16 {
        let start = now_ns();
        let mut stream = TcpStream::connect(server.addr()).expect("connect a probe");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        let (_, end) = round_trip(&mut stream, &Request::Stats { id: i }, &mut FrameDecoder::new());
        l.span("server.conn_setup_us", i, start, end);
        setup.push((end - start) as f64 / 1e3);
    }
    l.m.set("server.conn_setup_us", median(&mut setup), setup.len() as u64);

    let mut stream = TcpStream::connect(server.addr()).expect("connect a probe");
    stream.set_nodelay(true).expect("set TCP_NODELAY");
    let mut dec = FrameDecoder::new();
    let mut probe = |l: &mut Ladder, name: &'static str, req: &dyn Fn(usize) -> Request| {
        let mut rtt: Vec<f64> = (0..PROBES)
            .map(|i| {
                let (start_ns, end_ns) = round_trip(&mut stream, &req(i), &mut dec);
                l.span(name, i as u64, start_ns, end_ns);
                (end_ns - start_ns) as f64 / 1e3
            })
            .collect();
        let p50 = median(&mut rtt);
        l.m.set(name, p50, PROBES as u64);
        p50
    };
    let stats = probe(l, "server.stats_rtt_p50_us", &|i| Request::Stats { id: i as u64 });
    let get = probe(l, "server.get_rtt_p50_us", &|i| Request::Get {
        id: i as u64,
        key: keys[i % keys.len()],
    });
    l.m.set("server.worker_hop_p50_us", get - stats, PROBES as u64);
    drop(stream);
    server.shutdown();
}

/// `dur.*`: a `DurableMap` over the elastic map, logging under `dir`,
/// then recovery of what it logged into the empty map `fresh`.
fn dur_rungs(
    l: &mut Ladder,
    map: &std::sync::Arc<api::Elastic>,
    fresh: std::sync::Arc<api::Elastic>,
    entries: u64,
    pairs: &[(u64, u64)],
    shard_put_ns: f64,
    dir: &Path,
) {
    let _ = std::fs::remove_dir_all(dir);
    let wal = dir.join("batch");
    {
        let (dur, _) =
            api::Durable::open(map.clone(), &wal, false).expect("open a fresh durability root");
        let before = dir_bytes(&wal);
        let start = now_ns();
        let written = dur.checkpoint().expect("checkpoint");
        let end = now_ns();
        l.span("dur.checkpoint_s", 0, start, end);
        l.m.set("dur.checkpoint_s", (end - start) as f64 / 1e9, 0);
        l.m.set(
            "dur.checkpoint_bytes_per_entry",
            dir_bytes(&wal).saturating_sub(before) as f64 / written.max(1) as f64,
            written,
        );
        let before = dir_bytes(&wal);
        let put = l.calls("dur.put_ns_batch", pairs.len(), |i| {
            dur.put(pairs[i].0, pairs[i].1).expect("durable put")
        });
        dur.sync().expect("sync");
        l.m.set("dur.tax_put_ns", put - shard_put_ns, 0);
        l.m.set(
            "dur.wal_bytes_per_user_byte",
            dir_bytes(&wal).saturating_sub(before) as f64 / (pairs.len() * 16) as f64,
            pairs.len() as u64,
        );
    }
    {
        // Every call waits for the device here, so far fewer of them.
        let (dur, _) = api::Durable::open(map.clone(), &dir.join("fsync"), true)
            .expect("open a fresh durability root");
        let n = pairs.len().min(2048);
        let (ns, chunks) = l.rung("dur.put_ns_fsync", n / 8, |c| {
            pairs[c * 8..(c + 1) * 8]
                .iter()
                .for_each(|&(k, v)| dur.put(k, v).expect("durable put"));
            8
        });
        l.m.set("dur.put_ns_fsync", ns, chunks);
        let (ns, chunks) =
            l.rung("dur.batch_ns_per_op_fsync", (pairs.len() / BATCH).min(200), |c| {
                dur.put_batch(&pairs[c * BATCH..(c + 1) * BATCH]).expect("durable batch");
                BATCH
            });
        l.m.set("dur.batch_ns_per_op_fsync", ns, chunks);
    }
    // Recovery: the checkpoint plus the logged puts, into a fresh map.
    let start = now_ns();
    let (dur, recovered) =
        api::Durable::open(fresh, &wal, false).expect("reopen the durability root");
    let end = now_ns();
    drop(dur);
    l.span("dur.recover_records_s", 0, start, end);
    let records = recovered.checkpoint_entries + recovered.replayed;
    let logged = (pairs.len() / CHUNK * CHUNK) as u64; // what the put rung above wrote
    assert_eq!(records, entries + logged, "recovery lost or invented records");
    l.m.set("dur.recover_records_s", records as f64 / ((end - start) as f64 / 1e9), records);
    let _ = std::fs::remove_dir_all(dir);
}

/// Runs every rung for `workload`; returns the per-layer metrics and
/// the ladder's spans.
pub fn run(workload: Workload, opts: &RunOpts, scratch: &Path) -> (MetricSet, Vec<Span>) {
    let (n_keys, n_ops, max_entries) =
        if opts.quick { (20_000, 2_000, 200_000) } else { (200_000, 20_000, 2_000_000) };
    let (keys, ops) = input(workload, opts, n_keys, n_ops, max_entries);
    let pairs: Vec<(u64, u64)> =
        keys.iter().enumerate().map(|(i, k)| (*k, tagged(*k, i as u64 + 1))).collect();
    let limits: &[u32] = match workload {
        Workload::EngineBatchScan => &[SHORT_SCAN, LONG_SCAN],
        _ => &[SCAN_LIMIT],
    };
    let mut l = Ladder { m: MetricSet::default(), spans: Vec::new() };

    proto_rungs(&mut l, &ops);
    queue_rungs(&mut l, &keys);
    let clock = api::version_clock();
    l.calls("clock.now_ns", n_keys, |_| {
        black_box(clock());
    });

    // jiffy: a bare map of the workload's size.
    let jiffy = {
        let before = heap::live_bytes();
        let map = api::bare_map();
        let entries = prefill(&map, workload, opts);
        if let (Some(before), Some(after)) = (before, heap::live_bytes()) {
            l.m.set("jiffy.bytes_per_entry", (after - before) as f64 / entries as f64, entries);
        }
        let (ns, costs) = index_rungs(
            &mut l,
            ["jiffy.get_ns", "jiffy.put_ns", "jiffy.batch_ns_per_op", "jiffy.scan_ns_per_entry"],
            &map,
            &pairs,
            limits,
        );
        if let Some(c) = costs {
            l.m.set(
                "jiffy.nodes_per_descent",
                c.nodes_visited as f64 / (c.descents as f64).max(1.0),
                c.descents,
            );
            l.m.set(
                "jiffy.revisions_per_get",
                c.revisions_walked as f64 / pairs.len() as f64,
                pairs.len() as u64,
            );
            l.m.set(
                "jiffy.fastpath_hit_rate",
                c.fastpath_hits as f64 / (c.fastpath_attempts as f64).max(1.0),
                c.fastpath_attempts,
            );
        }
        let (remove, n) = l.rung_resetting(
            "jiffy.remove_ns",
            pairs.len() / CHUNK,
            |c| {
                pairs[c * CHUNK..(c + 1) * CHUNK].iter().for_each(|(k, _)| {
                    black_box(map.remove(k));
                });
                CHUNK
            },
            // Put back what the workload's prefill had there.
            |c| {
                for (k, _) in &pairs[c * CHUNK..(c + 1) * CHUNK] {
                    if workload != Workload::EnginePoint || point_prefilled(opts.seed, *k) {
                        map.put(*k, tagged(*k, 0));
                    }
                }
            },
        );
        l.m.set("jiffy.remove_ns", remove, n);
        l.calls("jiffy.snapshot_ns", n_keys / 4, |_| api::snapshot_once(&map));
        let (nodes, mean_size, max_depth) = api::shape(&map);
        l.m.set("jiffy.nodes", nodes, 0);
        l.m.set("jiffy.mean_revision_size", mean_size, 0);
        l.m.set("jiffy.max_revision_depth", max_depth, 0);
        ns
    };

    // jiffy-shard: the same calls through the elastic map.
    let shards = workload.shards().max(SERVE_SHARDS);
    let space = workload.keys(opts.quick);
    let map = api::elastic_map(shards, space);
    prefill(&*map, workload, opts);
    let (shard, _) = index_rungs(
        &mut l,
        ["shard.get_ns", "shard.put_ns", "shard.batch_ns_per_op", "shard.scan_ns_per_entry"],
        &*map,
        &pairs,
        limits,
    );
    l.m.set("shard.tax_get_ns", shard[0] - jiffy[0], 0);
    l.m.set("shard.tax_batch_ns_per_op", shard[2] - jiffy[2], 0);
    l.m.set("shard.tax_scan_ns_per_entry", shard[3] - jiffy[3], 0);
    let splits = api::splits(&map);
    let shard_of = |k: u64| splits.partition_point(|s| *s <= k);
    let batches = pairs.chunks_exact(BATCH);
    let n_batches = batches.len();
    let cross = batches.filter(|b| b.iter().any(|(k, _)| shard_of(*k) != shard_of(b[0].0))).count();
    l.m.set("shard.cross_batch_frac", cross as f64 / n_batches as f64, n_batches as u64);
    let start = now_ns();
    let (split_s, merge_s) = api::split_then_merge(&map, splits[0] / 2);
    l.span("shard.split+merge", 0, start, now_ns());
    l.m.set("shard.split_s", split_s, 0);
    l.m.set("shard.merge_s", merge_s, 0);

    // After the puts above the map holds the prefill plus the ladder's
    // own keys; recovery must bring back exactly that many.
    let live = map.scan_collect(&0, usize::MAX).len() as u64;
    dur_rungs(&mut l, &map, api::elastic_map(shards, space), live, &pairs, shard[1], scratch);
    server_rungs(&mut l, map, &keys);
    (l.m, l.spans)
}
