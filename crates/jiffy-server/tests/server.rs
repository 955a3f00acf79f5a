//! End-to-end tests over real loopback sockets: protocol round trips,
//! framing edge cases (short writes, garbage, oversized lengths),
//! coalescing proof, the per-connection put barrier, group commit across
//! connections, a Wing–Gong-checked mixed workload racing a live split,
//! and the 1k-connection soak through a split + merge.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use jiffy::JiffyConfig;
use jiffy_server::protocol::{self, Request, Response};
use jiffy_server::{serve, Client, Map, ServerConfig};
use jiffy_shard::Router;
use linearize::{check_bounded, Event, Op, Outcome};

/// Small-revision config so server traffic exercises node split/merge
/// paths constantly, matching the repo's other stress tests.
fn tiny_cfg() -> JiffyConfig {
    JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(2),
        ..Default::default()
    }
}

fn start(shards: usize, key_space: u64, cfg: ServerConfig) -> jiffy_server::ServerHandle {
    let map = Arc::new(Map::with_router(Router::range_uniform(shards, key_space), tiny_cfg()));
    serve(map, "127.0.0.1:0", cfg).expect("bind loopback")
}

/// A `--durability fsync` server's acked writes survive a clean
/// shutdown and a full restart over the same data dir: the recovery
/// report says what was replayed and every acked value reads back.
#[test]
fn durable_server_recovers_acked_writes_across_restart() {
    let dir = std::env::temp_dir().join(format!("jfs-dur-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = || ServerConfig {
        durability: jiffy_server::Durability::Fsync,
        data_dir: Some(dir.clone()),
        ..ServerConfig::default()
    };

    let server = start(2, 1 << 16, cfg());
    assert_eq!(server.recovery().expect("durable server has a report").replayed, 0);
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 0..64u64 {
        c.put(k, k * 3).unwrap();
    }
    c.txn(vec![(1_000, Some(1)), (60_000, Some(2))]).unwrap();
    assert!(c.remove(7).unwrap());
    // Checkpoint mid-traffic, then write past it so recovery exercises
    // both the bulk-load and the WAL-tail path.
    server.durable().expect("durable store").checkpoint().unwrap();
    c.put(500, 555).unwrap();
    drop(c);
    server.shutdown();

    let server = start(2, 1 << 16, cfg());
    let report = server.recovery().unwrap().clone();
    assert_eq!(report.checkpoint, Some(1));
    assert!(report.replayed >= 1, "the post-checkpoint put must replay: {report:?}");
    let mut c = Client::connect(server.addr()).unwrap();
    for k in 0..64u64 {
        let want = if k == 7 { None } else { Some(k * 3) };
        assert_eq!(c.get(k).unwrap(), want, "key {k} after restart");
    }
    assert_eq!(c.get(1_000).unwrap(), Some(1));
    assert_eq!(c.get(60_000).unwrap(), Some(2));
    assert_eq!(c.get(500).unwrap(), Some(555));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn round_trip_all_ops() {
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();

    assert_eq!(c.get(5).unwrap(), None);
    c.put(5, 50).unwrap();
    assert_eq!(c.get(5).unwrap(), Some(50));
    assert!(c.remove(5).unwrap());
    assert!(!c.remove(5).unwrap());

    for k in 10..20 {
        c.put(k, k * 100).unwrap();
    }
    let entries = c.scan(12, 4).unwrap();
    assert_eq!(entries, vec![(12, 1200), (13, 1300), (14, 1400), (15, 1500)]);

    // Cross-shard transaction (keys straddle the uniform split point).
    c.txn(vec![(1, Some(11)), (60_000, Some(22)), (10, None)]).unwrap();
    assert_eq!(c.get(1).unwrap(), Some(11));
    assert_eq!(c.get(60_000).unwrap(), Some(22));
    assert_eq!(c.get(10).unwrap(), None);

    let stats = c.stats().unwrap();
    assert_eq!(stats.txns, 1);
    server.shutdown();
}

/// A scan's limit is the client's number, so it bounds the reply and
/// sizes nothing: the largest legal limit against a ten-entry map
/// (straddling the shard boundary) answers with the ten entries, and a
/// `u32::MAX` limit is refused at the decoder — an `Error` reply, no
/// scan, no allocation — on a connection that then keeps working.
#[test]
fn scan_limit_is_a_bound_not_a_size() {
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let want: Vec<(u64, u64)> = (0..10u64).map(|i| ((1 << 15) - 5 + i, i)).collect();
    for (k, v) in &want {
        c.put(*k, *v).unwrap();
    }
    assert_eq!(c.scan(0, protocol::MAX_SCAN).unwrap(), want);
    assert_eq!(c.scan(want[7].0, protocol::MAX_SCAN).unwrap(), want[7..]);
    assert!(
        matches!(c.scan(0, u32::MAX), Err(jiffy_server::ClientError::Rejected(_))),
        "an over-limit scan must be rejected, not attempted"
    );
    assert_eq!(c.scan(0, 3).unwrap(), want[..3], "the connection survives the rejection");
    server.shutdown();
}

/// The server must reassemble frames delivered one byte per segment —
/// split length prefixes included.
#[test]
fn short_writes_one_byte_at_a_time() {
    let server = start(1, 1 << 16, ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();

    let mut frame = Vec::new();
    protocol::encode_request(&mut frame, &Request::Put { id: 9, key: 3, val: 33 });
    protocol::encode_request(&mut frame, &Request::Get { id: 10, key: 3 });
    for b in &frame {
        raw.write_all(std::slice::from_ref(b)).unwrap();
        raw.flush().unwrap();
    }

    let mut dec = protocol::FrameDecoder::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    while got.len() < 2 {
        let n = raw.read(&mut buf).unwrap();
        assert_ne!(n, 0, "server hung up mid-response");
        dec.extend(&buf[..n]);
        while let Some(payload) = dec.next_frame().unwrap() {
            got.push(protocol::decode_response(&payload).unwrap());
        }
    }
    assert!(matches!(got[0], Response::Put { id: 9 }));
    assert!(matches!(got[1], Response::Get { id: 10, val: Some(33) }));
    server.shutdown();
}

/// A well-framed but undecodable payload earns an `Error` response and
/// the connection keeps working; the io thread never dies.
#[test]
fn garbage_frame_gets_error_but_connection_survives() {
    let server = start(1, 1 << 16, ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.set_nodelay(true).unwrap();

    // id=77, opcode=0xEE (unknown), trailing junk — length prefix valid.
    let mut payload = 77u64.to_le_bytes().to_vec();
    payload.push(0xEE);
    payload.extend_from_slice(&[1, 2, 3, 4]);
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&payload);
    // Follow with a valid request on the same connection.
    protocol::encode_request(&mut frame, &Request::Put { id: 78, key: 1, val: 2 });
    raw.write_all(&frame).unwrap();

    let mut dec = protocol::FrameDecoder::new();
    let mut got = Vec::new();
    let mut buf = [0u8; 1024];
    while got.len() < 2 {
        let n = raw.read(&mut buf).unwrap();
        assert_ne!(n, 0, "connection should survive a garbage frame");
        dec.extend(&buf[..n]);
        while let Some(payload) = dec.next_frame().unwrap() {
            got.push(protocol::decode_response(&payload).unwrap());
        }
    }
    assert!(matches!(got[0], Response::Error { id: 77 }), "got {:?}", got[0]);
    assert!(matches!(got[1], Response::Put { id: 78 }), "got {:?}", got[1]);
    server.shutdown();
}

/// An oversized length prefix is unrecoverable: that connection is
/// closed, but the server keeps accepting and serving others.
#[test]
fn oversized_length_closes_connection_not_server() {
    let server = start(1, 1 << 16, ServerConfig::default());
    let mut raw = TcpStream::connect(server.addr()).unwrap();
    raw.write_all(&(u32::MAX).to_le_bytes()).unwrap();
    raw.write_all(&[0u8; 64]).unwrap();

    // The server should hang up on us (possibly after a best-effort
    // error frame). Reads must reach EOF rather than blocking forever.
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut buf = [0u8; 1024];
    loop {
        match raw.read(&mut buf) {
            Ok(0) => break,    // clean close
            Ok(_) => continue, // drain any error frame
            Err(_) => break,   // reset also counts as closed
        }
    }

    // A fresh connection is unaffected.
    let mut c = Client::connect(server.addr()).unwrap();
    c.put(4, 44).unwrap();
    assert_eq!(c.get(4).unwrap(), Some(44));
    server.shutdown();
}

/// Coalescing proof: a pipelined burst of puts must land as Jiffy
/// batches, not N single-key installs — mean ops per installed batch
/// strictly above one.
#[test]
fn pipelined_puts_coalesce_into_batches() {
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();

    let mut coalesced = false;
    for attempt in 0..10u64 {
        // One flush carrying 256 puts: the io thread decodes them in one
        // or a few sweeps, so the run it installs is long.
        let base = attempt * 1_000;
        let mut ids = Vec::new();
        for i in 0..256u64 {
            let id = c.next_id();
            ids.push(id);
            c.send(&Request::Put { id, key: base + (i % 64), val: i });
        }
        c.flush().unwrap();
        for id in ids {
            match c.recv_response().unwrap() {
                Response::Put { id: got } => assert_eq!(got, id),
                other => panic!("expected Put ack, got {other:?}"),
            }
        }
        let stats = c.stats().unwrap();
        if stats.installed_batches > 0 {
            assert!(stats.ops_per_batch() > 1.0, "batches installed but mean ops/batch <= 1");
            coalesced = true;
            break;
        }
    }
    assert!(coalesced, "no put run ever coalesced into a batch across 10 pipelined bursts");
    server.shutdown();
}

/// xorshift64: a fixed key or pause schedule that repeats run to run.
fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Send `reqs` on `c` in one flush and return their responses in
/// request order (matched by id: the wire promises no order).
fn pipeline(c: &mut Client, reqs: &[Request]) -> Vec<Response> {
    for req in reqs {
        c.send(req);
    }
    c.flush().unwrap();
    let mut got: Vec<Option<Response>> = vec![None; reqs.len()];
    for _ in reqs {
        let resp = c.recv_response().unwrap();
        let at = reqs.iter().position(|r| r.id() == resp.id()).expect("a response to a request");
        assert!(got[at].replace(resp).is_none(), "two responses to request {}", reqs[at].id());
    }
    got.into_iter().map(Option::unwrap).collect()
}

/// A pipelined `put k; get k` in one flush on one connection reads the
/// put: the io thread installs a connection's puts still in its run
/// before anything else that connection sent. Every round writes a new
/// value to a random key, so a get that overtook its put would read an
/// older one (or none).
#[test]
fn pipelined_put_then_get_reads_the_put() {
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let mut rng = 0x2545_F491_4F6C_DD1Du64;
    for round in 1..=200u64 {
        rng = xorshift(rng);
        let key = rng % (1 << 16);
        let (put, get) = (c.next_id(), c.next_id());
        let got = pipeline(
            &mut c,
            &[Request::Put { id: put, key, val: round }, Request::Get { id: get, key }],
        );
        assert!(matches!(got[0], Response::Put { .. }), "round {round}: {:?}", got[0]);
        assert!(
            matches!(got[1], Response::Get { val: Some(v), .. } if v == round),
            "round {round}: get of key {key} missed the put before it: {:?}",
            got[1]
        );
    }
    server.shutdown();
}

/// The cross-connection half of the barrier: connection A's `put k` races
/// connection B's `get k` through one io thread, often inside one sweep.
/// B's get runs at once rather than waiting for A's run, and either
/// answer is linearizable: the put is unacknowledged, so B reads the old
/// value or the new one, nothing else. Once A holds its ack, B reads the
/// new value.
#[test]
fn put_racing_get_on_another_connection_is_linearizable() {
    let server = start(2, 1 << 16, ServerConfig { io_threads: 1, ..ServerConfig::default() });
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut last = std::collections::HashMap::new();
    for round in 1..=200u64 {
        rng = xorshift(rng);
        let key = rng % 64;
        let old = last.insert(key, round);
        let put = a.next_id();
        a.send(&Request::Put { id: put, key, val: round });
        let get = b.next_id();
        b.send(&Request::Get { id: get, key });
        a.flush().unwrap();
        b.flush().unwrap();
        match b.recv_response().unwrap() {
            Response::Get { id, val } => {
                assert_eq!(id, get);
                assert!(
                    val == old || val == Some(round),
                    "round {round}: key {key} read {val:?}, neither {old:?} nor Some({round})"
                );
            }
            other => panic!("round {round}: expected a Get reply, got {other:?}"),
        }
        assert!(matches!(a.recv_response().unwrap(), Response::Put { id } if id == put));
        assert_eq!(b.get(key).unwrap(), Some(round), "round {round}: an acked put is not visible");
    }
    server.shutdown();
}

/// Under `fsync`, one WAL sync covers puts from many connections: the
/// io thread's run spans its whole sweep, not one connection's read. 32
/// connections on one io thread each send one put, all to keys of one
/// WAL stripe, before any of them reads. A run per connection would sync
/// 32 times; a run per sweep syncs once per sweep that found puts (two,
/// typically: the first put wakes the thread alone).
#[test]
fn fsync_group_commit_spans_connections() {
    const CONNS: u64 = 32;
    let dir = std::env::temp_dir().join(format!("jfs-group-commit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let server = start(
        2,
        1 << 16,
        ServerConfig {
            io_threads: 1,
            durability: jiffy_server::Durability::Fsync,
            data_dir: Some(dir.clone()),
        },
    );
    let wal_syncs = || {
        let mut snap = jiffy_obs::ObsSnapshot::default();
        server.durable().expect("durable store").attach_obs(&mut snap);
        snap.histograms
            .iter()
            .find(|(name, _)| name == "dur.sync_nanos")
            .map_or(0, |(_, h)| h.count)
    };
    let mut conns: Vec<Client> =
        (0..CONNS).map(|_| Client::connect(server.addr()).unwrap()).collect();
    // A round trip on each: every connection is adopted and idle.
    for c in &mut conns {
        c.stats().unwrap();
    }
    let durable = server.durable().expect("durable store");
    let keys = (0u64..).filter(|k| durable.stripe_of(*k) == durable.stripe_of(0));
    let before = wal_syncs();
    let ids: Vec<u64> = conns
        .iter_mut()
        .zip(keys)
        .map(|(c, key)| {
            let id = c.next_id();
            c.send(&Request::Put { id, key, val: key })
        })
        .collect();
    for c in &mut conns {
        c.flush().unwrap();
    }
    for (c, id) in conns.iter_mut().zip(ids) {
        match c.recv_response().unwrap() {
            Response::Put { id: got } => assert_eq!(got, id),
            other => panic!("expected a Put ack, got {other:?}"),
        }
    }
    let syncs = wal_syncs() - before;
    assert!(syncs <= 8, "{CONNS} puts from {CONNS} connections took {syncs} WAL syncs");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

struct Recorder {
    clock: AtomicU64,
    events: Mutex<Vec<Event>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder { clock: AtomicU64::new(0), events: Mutex::new(Vec::new()) }
    }

    fn run<R>(&self, f: impl FnOnce() -> (Op, R)) -> R {
        let invoke = self.clock.fetch_add(1, Ordering::SeqCst);
        let (op, out) = f();
        let respond = self.clock.fetch_add(1, Ordering::SeqCst);
        self.events.lock().unwrap().push(Event { invoke, respond, op });
        out
    }

    fn into_history(self) -> Vec<Event> {
        self.events.into_inner().unwrap()
    }
}

/// Mixed point ops + multi-key transactions + scans from independent
/// connections, racing a live shard split and merge — the end-to-end
/// history (timed at the client, across the network, through the io
/// threads' coalescing) must still be linearizable.
#[test]
fn wing_gong_mixed_workload_races_live_split() {
    for round in 0..5u64 {
        let map = Arc::new(Map::with_router(Router::range(vec![5]), tiny_cfg()));
        let server = serve(Arc::clone(&map), "127.0.0.1:0", ServerConfig::default()).unwrap();
        let rec = Recorder::new();

        std::thread::scope(|s| {
            // Point-op client on keys 0..6.
            {
                let rec = &rec;
                let addr = server.addr();
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..6u64 {
                        let k = (round + i * 3) % 6;
                        match i % 3 {
                            0 => rec.run(|| {
                                c.put(k, round * 100 + i).unwrap();
                                (Op::Put(k, round * 100 + i), ())
                            }),
                            1 => rec.run(|| {
                                let got = c.get(k).unwrap();
                                (Op::Get(k, got), ())
                            }),
                            _ => rec.run(|| {
                                let had = c.remove(k).unwrap();
                                (Op::Remove(k, had), ())
                            }),
                        }
                    }
                });
            }
            // Transaction client: cross-shard batches on 1 and 5.
            {
                let rec = &rec;
                let addr = server.addr();
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for i in 0..4u64 {
                        let stamp = round * 1_000 + i;
                        rec.run(|| {
                            c.txn(vec![(1, Some(stamp)), (5, Some(stamp))]).unwrap();
                            (Op::Batch(vec![(1, Some(stamp)), (5, Some(stamp))]), ())
                        });
                    }
                });
            }
            // Scan client over the whole racing range.
            {
                let rec = &rec;
                let addr = server.addr();
                s.spawn(move || {
                    let mut c = Client::connect(addr).unwrap();
                    for _ in 0..4 {
                        rec.run(|| {
                            let got: Vec<(u64, u64)> = c
                                .scan(0, 64)
                                .unwrap()
                                .into_iter()
                                .filter(|(k, _)| *k <= 6)
                                .collect();
                            (Op::Scan(0, 6, got), ())
                        });
                    }
                });
            }
            // Resharder: split and merge the backing map while the
            // clients above are mid-flight.
            {
                let map = Arc::clone(&map);
                s.spawn(move || {
                    let _ = map.split_at(3);
                    std::thread::sleep(Duration::from_millis(1));
                    let _ = map.merge_at(0);
                });
            }
        });

        let history = rec.into_history();
        match check_bounded(&history, 20_000_000) {
            Outcome::Linearizable(_) => {}
            Outcome::NotLinearizable => {
                panic!("server history NOT linearizable (round {round}): {history:#?}")
            }
            Outcome::Inconclusive => {
                eprintln!("round {round}: checker inconclusive (history too wide)")
            }
        }
        server.shutdown();
    }
}

/// The acceptance soak: 1024 concurrent connections of mixed
/// point/batch/scan traffic driven through a live shard split and merge
/// with zero lost or torn operations — every acknowledged write is
/// visible at readback, transactions are never half-applied.
#[test]
fn soak_1k_connections_through_split_and_merge() {
    const DRIVERS: usize = 8;
    const CONNS_PER_DRIVER: usize = 128; // 8 * 128 = 1024 connections
    const ROUNDS: u64 = 3;
    const KEYS_PER_CONN: u64 = 2;

    let key_space: u64 = 1 << 20;
    let map = Arc::new(Map::with_router(Router::range_uniform(4, key_space), tiny_cfg()));
    let server = serve(
        Arc::clone(&map),
        "127.0.0.1:0",
        ServerConfig { io_threads: 2, ..ServerConfig::default() },
    )
    .unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|s| {
        // Resharder: keep splitting/merging for the whole soak.
        {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut at = key_space / 8;
                while !stop.load(Ordering::Acquire) {
                    let _ = map.split_at(at);
                    std::thread::sleep(Duration::from_millis(5));
                    let _ = map.merge_at(0);
                    at = at / 2 + 1024;
                    if at < 2048 {
                        at = key_space / 8;
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
        }

        let mut drivers = Vec::new();
        for d in 0..DRIVERS {
            let addr = server.addr();
            drivers.push(s.spawn(move || {
                // Open this driver's share of the 1024 connections.
                let mut conns: Vec<Client> = (0..CONNS_PER_DRIVER)
                    .map(|_| Client::connect(addr).expect("soak connect"))
                    .collect();
                // Each connection owns a disjoint key range, strided
                // across the whole key space so the 1024 connections
                // exercise every shard (and their pipelined puts land
                // in runs that span shards).
                let stride = key_space / (DRIVERS * CONNS_PER_DRIVER) as u64;
                let key_base = |c: usize| ((d * CONNS_PER_DRIVER + c) as u64) * stride;

                for round in 1..=ROUNDS {
                    // Pipeline a mixed burst on every connection...
                    let mut expect: Vec<Vec<u64>> = Vec::with_capacity(conns.len());
                    for (c, conn) in conns.iter_mut().enumerate() {
                        let base = key_base(c);
                        let mut ids = Vec::new();
                        for k in 0..KEYS_PER_CONN {
                            let id = conn.next_id();
                            conn.send(&Request::Put { id, key: base + k, val: round });
                            ids.push(id);
                        }
                        // Every 4th connection adds a txn touching both
                        // of its keys; every 8th adds a scan.
                        if c % 4 == 0 {
                            let id = conn.next_id();
                            conn.send(&Request::Txn {
                                id,
                                ops: (0..KEYS_PER_CONN).map(|k| (base + k, Some(round))).collect(),
                            });
                            ids.push(id);
                        }
                        if c % 8 == 0 {
                            let id = conn.next_id();
                            conn.send(&Request::Scan { id, lo: base, limit: 8 });
                            ids.push(id);
                        }
                        conn.flush().expect("soak flush");
                        expect.push(ids);
                    }
                    // ...then collect every acknowledgement. Matching is
                    // by id: the protocol promises no order on the wire.
                    for (c, conn) in conns.iter_mut().enumerate() {
                        let mut pending: std::collections::HashSet<u64> =
                            expect[c].iter().copied().collect();
                        while !pending.is_empty() {
                            let resp = conn.recv_response().expect("soak recv");
                            assert!(
                                pending.remove(&resp.id()),
                                "unexpected or duplicate response id {} on conn {c}",
                                resp.id()
                            );
                            assert!(
                                !matches!(resp, Response::Error { .. }),
                                "op rejected under soak"
                            );
                        }
                    }
                }

                // Readback: every acknowledged write must be visible
                // with its final value — nothing lost, nothing torn.
                for (c, conn) in conns.iter_mut().enumerate() {
                    let base = key_base(c);
                    for k in 0..KEYS_PER_CONN {
                        let got = conn.get(base + k).expect("soak readback");
                        assert_eq!(got, Some(ROUNDS), "lost write: key {} on conn {c}", base + k);
                    }
                }
            }));
        }
        for d in drivers {
            d.join().expect("soak driver panicked");
        }
        stop.store(true, Ordering::Release);
    });

    // Coalescing must have been active under this load.
    let snap = server.stats().snapshot();
    assert!(snap.installed_batches > 0, "soak never installed a coalesced batch");
    assert!(snap.ops_per_batch() > 1.0, "mean ops per installed batch not > 1");
    server.shutdown();
}

/// A client that writes its requests, shuts down its writing half and
/// reads to the end must get every response: the server may not drop a
/// connection at end of stream while it still owes it answers (here,
/// put acks that wait for the sweep's batch to install).
#[test]
fn half_closed_client_gets_every_response() {
    let server = start(2, 1 << 16, ServerConfig::default());
    for round in 0..50u64 {
        let mut raw = TcpStream::connect(server.addr()).unwrap();
        raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let mut frames = Vec::new();
        for i in 0..4u64 {
            let key = (round * 4 + i) * 4_099 % (1 << 16);
            protocol::encode_request(&mut frames, &Request::Put { id: i + 1, key, val: round });
        }
        raw.write_all(&frames).unwrap();
        raw.shutdown(std::net::Shutdown::Write).unwrap();
        let mut bytes = Vec::new();
        raw.read_to_end(&mut bytes).expect("the server closes once it has answered");
        let mut dec = protocol::FrameDecoder::new();
        dec.extend(&bytes);
        let mut ids = Vec::new();
        while let Some(payload) = dec.next_frame().unwrap() {
            match protocol::decode_response(&payload).unwrap() {
                Response::Put { id } => ids.push(id),
                other => panic!("round {round}: expected a Put ack, got {other:?}"),
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3, 4], "round {round}: responses lost at end of stream");
    }
    server.shutdown();
}

/// A client that pipelines more reply bytes than the loopback socket
/// buffers hold, and reads nothing for a while, still gets every byte
/// promptly once it reads: the io thread must wait for the socket to
/// drain (EPOLLOUT), not for its 1-s backstop timeout. The bound is half
/// the backstop: the socket buffers can hold all but a few hundred KiB of
/// the ~4 MiB, so without EPOLLOUT one late wake drains the rest.
#[test]
fn slow_reader_gets_every_byte() {
    const KEYS: u64 = 4_096;
    const SCANS: u64 = 64;
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    for chunk in (0..KEYS).collect::<Vec<_>>().chunks(512) {
        c.txn(chunk.iter().map(|&k| (k, Some(k * 7))).collect()).unwrap();
    }
    let ids: Vec<u64> = (0..SCANS)
        .map(|_| {
            let id = c.next_id();
            c.send(&Request::Scan { id, lo: 0, limit: KEYS as u32 })
        })
        .collect();
    c.flush().unwrap();
    std::thread::sleep(Duration::from_millis(100));
    let start = std::time::Instant::now();
    let mut pending: std::collections::HashSet<u64> = ids.into_iter().collect();
    while !pending.is_empty() {
        match c.recv_response().unwrap() {
            Response::Scan { id, entries } => {
                assert!(pending.remove(&id), "unexpected or duplicate scan id {id}");
                assert_eq!(entries.len() as u64, KEYS, "scan {id} came back short");
                assert!(entries.iter().all(|&(k, v)| v == k * 7), "scan {id} read a wrong value");
            }
            other => panic!("expected a Scan reply, got {other:?}"),
        }
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(500),
        "{SCANS} scans of {KEYS} keys took {took:?} to read"
    );
    server.shutdown();
}

/// Depth-1 round trips on one connection, alternating a `Get` with a
/// `Stats`, with seeded client pauses of 0–300 µs so the io thread falls
/// asleep before many of them. Every request is answered by the io thread
/// that reads it, so nothing but the socket wakes it: this guards that
/// it sleeps only in `epoll_wait` on its sockets, and sweeps again after
/// any sweep that moved bytes. A lost wake-up shows as a round trip that
/// waits out the io thread's backstop (1 s).
#[test]
fn no_round_trip_waits_out_the_backstop() {
    let server = start(2, 1 << 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    c.put(11, 110).unwrap();
    let mut rng = 0x9E37_79B9_7F4A_7C15u64;
    let mut slowest = Duration::ZERO;
    for i in 0..5_000u32 {
        rng = xorshift(rng);
        std::thread::sleep(Duration::from_micros(rng % 301));
        let t0 = std::time::Instant::now();
        if i % 2 == 0 {
            assert_eq!(c.get(11).unwrap(), Some(110));
        } else {
            c.stats().unwrap();
        }
        slowest = slowest.max(t0.elapsed());
    }
    assert!(slowest < Duration::from_millis(500), "a round trip took {slowest:?}: a lost wake-up");
    server.shutdown();
}
