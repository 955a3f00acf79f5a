//! The server proper: acceptor + thread-per-core event loops +
//! coalescing shard workers over one shared [`ElasticJiffy`].
//!
//! # Thread architecture
//!
//! ```text
//! acceptor ──round-robin──▶ io-thread 0..I   (nonblocking sockets,
//!    │                        │  │             frame reassembly,
//!    ▼                        ▼  ▼             response writes)
//!  TcpListener            ingress queues (`std` MPSC, one per worker)
//!                             │  │
//!                             ▼  ▼
//!                         worker 0..W  ──▶  Arc<ElasticJiffy<u64, u64>>
//! ```
//!
//! Each **event-loop thread** owns a set of connections outright
//! (`std::net` nonblocking sockets) and sleeps in the kernel until there
//! is work: it blocks in `epoll_wait` on its sockets plus an eventfd
//! that the workers answering its connections, and the acceptor handing
//! it new ones, ring (`poll.rs`, ARCHITECTURE.md "Io-thread
//! readiness"). Awake, it sweeps every connection — write, read, decode,
//! route — for as long as a sweep finds work, yields the core for a few
//! empty sweeps so a worker sharing it can answer without a syscall, and
//! then declares itself asleep, re-checks its queues and blocks. It
//! reassembles frames, decodes requests and routes each to a shard
//! worker's ingress queue, picked from the *current* router split points
//! so one worker sees one shard's keys; `Stats` it answers itself.
//! Routing is an affinity hint, not a correctness requirement: every worker
//! executes against the whole elastic map, so a key that moved shards
//! mid-flight (live split/merge) is still handled correctly, just with
//! less batching locality for a moment.
//!
//! Each **shard worker** drains its ingress queue and *coalesces*: a
//! run of queued single-key puts becomes ONE Jiffy batch
//! (`Batch::new` + `batch_update` — the paper's §3.3.2 batch install,
//! one pending-version protocol for N client writes). Gets, removes,
//! scans and transactions act as barriers: the pending run is flushed
//! first. Multi-key transactions go through `batch_update` too, which
//! routes cross-shard sets through the existing two-phase path.
//! Responses are enqueued on the connection's response queue — another
//! [`queue`] instance, consumed by the owning event loop — and a put's
//! response is enqueued only *after* its batch installs, so a
//! client-observed response is always a linearization witness.
//!
//! # Ordering
//!
//! A connection's requests for the **same key** are answered in request
//! order: key-affinity routing sends them to one worker, the ingress
//! queue is FIFO, and the worker's flush-before-barrier rule keeps a
//! pending coalesced put ahead of the get that follows it. Requests for
//! **different keys** may complete out of order (they fan out to
//! different workers) — that is what the protocol's request ids are
//! for, and why pipelined clients must match responses by id. Once a
//! write is *acknowledged*, it is visible to every subsequent request on
//! every connection.
//!
//! A client that shuts down its writing half still gets every response
//! it is owed: the io thread stops reading that socket and closes it
//! only once no routed request is unanswered and every byte is written.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use index_api::{Batch, BatchOp, OrderedIndex as _};
use jiffy_dur::{DurOptions, Durability, DurableMap, RecoveryReport};
use jiffy_shard::ElasticJiffy;

use crate::poll::{Poller, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::protocol::{
    decode_request, encode_response, FrameDecoder, Request, Response, StatsSnapshot, WireError,
};
use crate::queue;

/// The storage engine the server fronts.
pub type Map = ElasticJiffy<u64, u64>;

/// The durable wrapper the workers write through when durability is on.
pub type DurableStore = DurableMap<Arc<Map>>;

/// Flush a coalescing run once it reaches this many puts even if the
/// queue has more (bounds per-batch latency and memory).
const COALESCE_MAX: usize = 128;

/// Empty sweeps an io thread spends yielding the core before it sleeps:
/// a worker sharing the core answers in that time without a syscall.
const IO_SPIN: u32 = 16;

/// The longest an io thread blocks in `epoll_wait`. Only a backstop
/// against a lost wake-up, like the worker's `park_timeout(1 ms)`: every
/// producer rings the eventfd and epoll reports every socket event, so
/// no correct wait reaches it. At least 100 ms, so that an idle server
/// stays idle; a whole second, so that a wait which does reach it stands
/// out in any latency test instead of passing as scheduling noise.
const IO_BACKSTOP: Duration = Duration::from_secs(1);

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Event-loop threads (thread-per-core; connections are assigned
    /// round-robin at accept time and never migrate).
    pub io_threads: usize,
    /// Shard workers, each with its own ingress queue.
    pub workers: usize,
    /// Write durability. [`Durability::None`] (the default) keeps the
    /// RAM-only hot path with no WAL at all; `batch` logs with a
    /// bounded loss window; `fsync` defers every write's ack until its
    /// WAL stripe is synced — riding the coalescer, so one fsync still
    /// covers a whole batch of client puts (group commit).
    pub durability: Durability,
    /// Where the WAL + checkpoints live. Required (and created) when
    /// `durability != None`; ignored otherwise. Existing state under
    /// the directory is recovered into the map before serving.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { io_threads: 2, workers: 2, durability: Durability::None, data_dir: None }
    }
}

/// Always-on server counters (relaxed increments, read by `Stats`
/// requests and the soak gate).
#[derive(Default)]
pub struct ServerStats {
    installed_batches: AtomicU64,
    coalesced_puts: AtomicU64,
    direct_ops: AtomicU64,
    txns: AtomicU64,
}

impl ServerStats {
    /// Snapshot the counters for a `Stats` reply.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            installed_batches: self.installed_batches.load(Ordering::Relaxed),
            coalesced_puts: self.coalesced_puts.load(Ordering::Relaxed),
            direct_ops: self.direct_ops.load(Ordering::Relaxed),
            txns: self.txns.load(Ordering::Relaxed),
        }
    }
}

/// Per-connection state shared with the workers that execute its
/// requests: the response queue's producer end, and the owning io
/// thread's poller to ring once a response is queued.
struct ConnShared {
    resp_tx: queue::Sender<Vec<u8>>,
    poller: Arc<Poller>,
}

/// One request in flight from an event loop to a shard worker.
struct Ingress {
    conn: Arc<ConnShared>,
    req: Request,
}

/// A worker's ingress side plus its wake handle.
struct WorkerHandle {
    tx: queue::Sender<Ingress>,
    thread: std::thread::Thread,
    /// Set by the worker just before parking; a producer that swaps it
    /// back to `false` owes the worker an unpark.
    sleeping: Arc<AtomicBool>,
}

impl WorkerHandle {
    fn send(&self, msg: Ingress) {
        self.tx.send(msg);
        if self.sleeping.swap(false, Ordering::AcqRel) {
            self.thread.unpark();
        }
    }
}

/// A running server: address, control handles, stats.
pub struct ServerHandle {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    map: Arc<Map>,
    durable: Option<Arc<DurableStore>>,
    recovery: Option<RecoveryReport>,
    /// One per io thread, rung at shutdown.
    pollers: Vec<Arc<Poller>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (loopback, ephemeral port unless configured).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared storage engine (for drivers that reshard it live).
    pub fn map(&self) -> &Arc<Map> {
        &self.map
    }

    /// The durable write-through store, when the server was configured
    /// with `durability != None` (drivers checkpoint through this).
    pub fn durable(&self) -> Option<&Arc<DurableStore>> {
        self.durable.as_ref()
    }

    /// What recovery found under `data_dir` before serving started
    /// (`None` when running without durability).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// The server-side counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Stop accepting, drain the threads, close every connection, and
    /// flush+fsync any WAL tail still buffered under `batch` mode.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        for poller in &self.pollers {
            poller.ring();
        }
        // Unblock the acceptor's blocking `accept` with a throwaway
        // connection; ignore failure (the listener may already be gone).
        let _ = TcpStream::connect(self.addr);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        if let Some(dur) = &self.durable {
            // Workers are parked for good; a final barrier makes a clean
            // shutdown lose nothing even under the batch policy.
            if let Err(e) = dur.sync() {
                eprintln!("jiffy-server: final WAL sync failed: {e}");
            }
        }
    }
}

/// Bind `addr` (e.g. `"127.0.0.1:0"`) and serve `map` until the handle
/// is shut down. With `cfg.durability != None`, any prior state under
/// `cfg.data_dir` is recovered into `map` **before** the listener
/// accepts its first connection, and every write is WAL-logged (acks
/// deferred until fsync under [`Durability::Fsync`]).
pub fn serve(map: Arc<Map>, addr: &str, cfg: ServerConfig) -> std::io::Result<ServerHandle> {
    // Recover + open the log first: a client must never read a map
    // that is still being rebuilt.
    let (durable, recovery) = match cfg.durability {
        Durability::None => (None, None),
        mode => {
            let dir = cfg.data_dir.clone().ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "ServerConfig.durability needs a data_dir",
                )
            })?;
            let opts = DurOptions { mode, ..DurOptions::default() };
            let (dur, report) = DurableMap::open(Arc::clone(&map), &dir, opts)?;
            (Some(Arc::new(dur)), Some(report))
        }
    };
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    // Made before any thread starts, so that a failure leaves none behind.
    let pollers = (0..cfg.io_threads.max(1))
        .map(|_| Poller::new().map(Arc::new))
        .collect::<std::io::Result<Vec<_>>>()?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let mut threads = Vec::new();

    // Shard workers.
    let workers: Arc<Vec<Arc<WorkerHandle>>> = Arc::new(
        (0..cfg.workers.max(1))
            .map(|w| {
                let (tx, rx) = queue::channel::<Ingress>();
                let map = Arc::clone(&map);
                let durable = durable.clone();
                let stats = Arc::clone(&stats);
                let shutdown = Arc::clone(&shutdown);
                let sleeping = Arc::new(AtomicBool::new(false));
                let sleeping_worker = Arc::clone(&sleeping);
                let join = std::thread::Builder::new()
                    .name(format!("jfs-worker-{w}"))
                    .spawn(move || worker_loop(map, durable, rx, stats, shutdown, sleeping_worker))
                    .expect("spawn worker");
                let handle = Arc::new(WorkerHandle { tx, thread: join.thread().clone(), sleeping });
                threads.push(join);
                handle
            })
            .collect(),
    );

    // Event-loop threads, each with its new-connection queue and poller.
    let mut io = Vec::new();
    for (i, poller) in pollers.iter().enumerate() {
        let (tx, rx) = queue::channel::<TcpStream>();
        let poller = Arc::clone(poller);
        io.push((tx, Arc::clone(&poller)));
        let map = Arc::clone(&map);
        let workers = Arc::clone(&workers);
        let stats = Arc::clone(&stats);
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name(format!("jfs-io-{i}"))
                .spawn(move || io_loop(map, rx, poller, workers, stats, shutdown))
                .expect("spawn io thread"),
        );
    }

    // Acceptor.
    {
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name("jfs-accept".into())
                .spawn(move || {
                    let mut next = 0usize;
                    for stream in listener.incoming() {
                        if shutdown.load(Ordering::Acquire) {
                            break;
                        }
                        let Ok(stream) = stream else { continue };
                        let _ = stream.set_nodelay(true);
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        let (tx, poller) = &io[next % io.len()];
                        tx.send(stream);
                        poller.notify();
                        next += 1;
                    }
                })
                .expect("spawn acceptor"),
        );
    }

    Ok(ServerHandle { addr, shutdown, stats, map, durable, recovery, pollers, threads })
}

/// One live connection owned by an event-loop thread.
struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded-but-unwritten response bytes (short writes leave a tail).
    out: Vec<u8>,
    out_at: usize,
    resp_rx: queue::Receiver<Vec<u8>>,
    shared: Arc<ConnShared>,
    /// Requests routed to a worker and not yet answered.
    owed: usize,
    /// The client shut down its writing half: read no more, but answer
    /// what was routed before closing.
    eof: bool,
    dead: bool,
    /// The epoll events registered for the socket.
    watching: u32,
}

impl Conn {
    fn new(stream: TcpStream, poller: &Arc<Poller>) -> std::io::Result<Conn> {
        let watching = EPOLLIN | EPOLLRDHUP;
        poller.add(stream.as_raw_fd(), watching)?;
        let (resp_tx, resp_rx) = queue::channel();
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_at: 0,
            resp_rx,
            shared: Arc::new(ConnShared { resp_tx, poller: Arc::clone(poller) }),
            owed: 0,
            eof: false,
            dead: false,
            watching,
        })
    }

    /// Whether the io thread is done with this connection: it failed, or
    /// the client hung up and is owed nothing more.
    fn finished(&self) -> bool {
        self.dead || (self.eof && self.owed == 0 && self.out_at == self.out.len())
    }

    /// The write buffer, its consumed prefix dropped once all of it is.
    fn out_buf(&mut self) -> &mut Vec<u8> {
        if self.out_at > 0 && self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        &mut self.out
    }

    /// Answer a request on the io thread itself, behind what is buffered.
    fn answer(&mut self, resp: &Response) {
        encode_response(self.out_buf(), resp);
    }

    /// One sweep: write what is queued, then read and route what arrived
    /// (what the io thread answers itself goes out next sweep). On a
    /// 2-vCPU VM, writing first served 8 % more `serve_mixed` requests per
    /// second at saturation than reading first. Returns whether anything
    /// moved.
    fn sweep(
        &mut self,
        read_buf: &mut [u8],
        splits: &[u64],
        workers: &[Arc<WorkerHandle>],
        stats: &ServerStats,
    ) -> bool {
        let mut progressed = self.pump_out();
        if self.dead || self.eof {
            return progressed;
        }
        match self.stream.read(read_buf) {
            Ok(0) => {
                self.eof = true;
                progressed = true;
            }
            Ok(n) => {
                progressed = true;
                self.dec.extend(&read_buf[..n]);
                drain_frames(self, splits, workers, stats);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => self.dead = true,
        }
        progressed
    }

    /// Move queued responses into the write buffer and flush what the
    /// socket will take; returns whether any bytes moved.
    fn pump_out(&mut self) -> bool {
        let mut progressed = false;
        while let Some(frame) = self.resp_rx.recv() {
            self.owed -= 1;
            self.out_buf().extend_from_slice(&frame);
            progressed = true;
        }
        while self.out_at < self.out.len() {
            match self.stream.write(&self.out[self.out_at..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.out_at += n;
                    progressed = true;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        progressed
    }

    /// Register the events this connection now waits for: input until the
    /// client's end of stream (a socket at EOF stays readable, so watching
    /// it would never let the thread sleep), output while a tail is unwritten.
    fn watch(&mut self, poller: &Poller) {
        let mut want = if self.eof { 0 } else { EPOLLIN | EPOLLRDHUP };
        if self.out_at < self.out.len() {
            want |= EPOLLOUT;
        }
        if want != self.watching && !self.dead {
            self.dead = poller.modify(self.stream.as_raw_fd(), want).is_err();
            self.watching = want;
        }
    }
}

/// Pick the shard worker for `key` from the cached split points (the
/// shard whose range holds the key, folded onto the worker set).
fn route(splits: &[u64], key: u64, workers: usize) -> usize {
    splits.partition_point(|s| *s <= key) % workers
}

/// Take every connection the acceptor handed over; returns whether any.
/// A socket epoll refuses is dropped, which closes it.
fn adopt(
    new_conns: &mut queue::Receiver<TcpStream>,
    conns: &mut Vec<Conn>,
    poller: &Arc<Poller>,
) -> bool {
    let mut any = false;
    while let Some(stream) = new_conns.recv() {
        any = true;
        if let Ok(conn) = Conn::new(stream, poller) {
            conns.push(conn);
        }
    }
    any
}

fn io_loop(
    map: Arc<Map>,
    mut new_conns: queue::Receiver<TcpStream>,
    poller: Arc<Poller>,
    workers: Arc<Vec<Arc<WorkerHandle>>>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut splits: Vec<u64> = map.splits();
    let mut iter = 0u64;
    let mut idle_streak = 0u32;
    let mut read_buf = vec![0u8; 64 * 1024];
    loop {
        if shutdown.load(Ordering::Acquire) {
            return; // drops (closes) every owned connection
        }
        iter += 1;
        if iter % 64 == 0 {
            // Refresh routing affinity: cheap relative to 64 polls, and
            // keeps batches single-shard across live splits/merges.
            splits = map.splits();
        }
        let mut progressed = adopt(&mut new_conns, &mut conns, &poller);
        for conn in conns.iter_mut() {
            progressed |= conn.sweep(&mut read_buf, &splits, &workers, &stats);
            conn.watch(&poller);
        }
        conns.retain(|c| !c.finished());
        if progressed {
            idle_streak = 0;
            continue;
        }
        idle_streak += 1;
        if idle_streak <= IO_SPIN {
            std::thread::yield_now();
            continue;
        }
        // Declare sleep, then look once more at every queue a producer
        // rings about: what it enqueued before seeing the flag is found
        // here (ARCHITECTURE.md, "Io-thread readiness").
        poller.prepare_to_sleep();
        let mut found = adopt(&mut new_conns, &mut conns, &poller);
        for conn in conns.iter_mut() {
            found |= conn.pump_out();
        }
        if found {
            poller.wake_up();
        } else {
            poller.sleep(IO_BACKSTOP);
        }
        idle_streak = 0;
    }
}

/// Decode every complete frame buffered on `conn` and route it.
fn drain_frames(
    conn: &mut Conn,
    splits: &[u64],
    workers: &[Arc<WorkerHandle>],
    stats: &ServerStats,
) {
    loop {
        match conn.dec.next_frame() {
            Ok(None) => return,
            Ok(Some(payload)) => match decode_request(&payload) {
                Ok(req) => route_request(conn, req, splits, workers, stats),
                Err(_) => {
                    // Framing is intact — reject this request, keep the
                    // connection. Echo the id when it was readable.
                    let id = payload
                        .get(..8)
                        .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                        .unwrap_or(0);
                    conn.answer(&Response::Error { id });
                }
            },
            Err(WireError::BadLength(_)) | Err(WireError::Malformed(_)) => {
                // Unsynchronized stream: best-effort error, then close
                // this connection only — the event loop and its other
                // connections are unaffected.
                conn.answer(&Response::Error { id: 0 });
                conn.pump_out();
                conn.dead = true;
                return;
            }
        }
    }
}

/// Send `req` where it executes: point ops, scans and transactions to a
/// shard worker (affinity-routed); `Stats` answered inline — counters
/// are monotonic and order against nothing.
fn route_request(
    conn: &mut Conn,
    req: Request,
    splits: &[u64],
    workers: &[Arc<WorkerHandle>],
    stats: &ServerStats,
) {
    let w = match &req {
        Request::Get { key, .. } | Request::Put { key, .. } | Request::Remove { key, .. } => {
            route(splits, *key, workers.len())
        }
        Request::Scan { lo, .. } => route(splits, *lo, workers.len()),
        Request::Txn { ops, .. } => {
            route(splits, ops.first().map(|(k, _)| *k).unwrap_or(0), workers.len())
        }
        Request::Stats { id } => {
            conn.answer(&Response::Stats { id: *id, stats: stats.snapshot() });
            return;
        }
    };
    conn.owed += 1;
    workers[w].send(Ingress { conn: Arc::clone(&conn.shared), req });
}

/// Encode and enqueue one response on the connection's response queue,
/// then wake its io thread if it sleeps. A worker's only way to answer.
fn respond(conn: &ConnShared, resp: &Response) {
    let mut buf = Vec::with_capacity(resp.frame_len());
    encode_response(&mut buf, resp);
    conn.resp_tx.send(buf);
    conn.poller.notify();
}

/// Unwrap a durable write's result, reporting (not panicking on) disk
/// failure — the client gets an error response, the server keeps going.
/// Serving on is safe because a failed flush *poisons* its WAL stripe
/// (`jiffy-dur`): every later write routed there errors too instead of
/// acking on top of a possibly-torn log, so acked ⇒ durable holds even
/// across transient disk errors. Reads and unaffected stripes proceed.
fn durably<T>(r: std::io::Result<T>) -> Option<T> {
    match r {
        Ok(v) => Some(v),
        Err(e) => {
            eprintln!("jiffy-server: durable write failed: {e}");
            None
        }
    }
}

fn worker_loop(
    map: Arc<Map>,
    durable: Option<Arc<DurableStore>>,
    mut rx: queue::Receiver<Ingress>,
    stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    sleeping: Arc<AtomicBool>,
) {
    // The coalescing run: queued single-key puts awaiting one batch.
    let mut run_ops: Vec<BatchOp<u64, u64>> = Vec::new();
    let mut run_resps: Vec<(Arc<ConnShared>, u64)> = Vec::new();

    let flush = |run_ops: &mut Vec<BatchOp<u64, u64>>,
                 run_resps: &mut Vec<(Arc<ConnShared>, u64)>| {
        let ok = match run_ops.len() {
            0 => return,
            1 => {
                // A lone put gains nothing from the batch protocol.
                let Some(BatchOp::Put(k, v)) = run_ops.pop() else { unreachable!() };
                stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                match &durable {
                    Some(d) => durably(d.put(k, v)).is_some(),
                    None => {
                        map.put(k, v);
                        true
                    }
                }
            }
            n => {
                // N queued puts -> ONE Jiffy batch (§3.3.2 install; the
                // elastic map runs cross-shard sets through two-phase).
                // Under durability this is also ONE WAL append per
                // touched stripe and — under `fsync` — one group-commit
                // sync covering all n puts.
                stats.installed_batches.fetch_add(1, Ordering::Relaxed);
                stats.coalesced_puts.fetch_add(n as u64, Ordering::Relaxed);
                let batch = Batch::new(std::mem::take(run_ops));
                match &durable {
                    Some(d) => durably(d.batch_update(batch)).is_some(),
                    None => {
                        map.batch_update(batch);
                        true
                    }
                }
            }
        };
        // Respond only after the writes are installed (and, under
        // `fsync`, synced): the response is the client's linearization
        // witness — and under `fsync` its durability witness too.
        for (conn, id) in run_resps.drain(..) {
            let resp = if ok { Response::Put { id } } else { Response::Error { id } };
            respond(&conn, &resp);
        }
    };

    // A message taken by the pre-park re-check, handled next iteration.
    let mut carried: Option<Ingress> = None;
    loop {
        match carried.take().or_else(|| rx.recv()) {
            Some(Ingress { conn, req }) => match req {
                Request::Put { id, key, val } => {
                    run_ops.push(BatchOp::Put(key, val));
                    run_resps.push((conn, id));
                    if run_ops.len() >= COALESCE_MAX {
                        flush(&mut run_ops, &mut run_resps);
                    }
                }
                Request::Get { id, key } => {
                    flush(&mut run_ops, &mut run_resps);
                    let val = map.get(&key);
                    stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                    respond(&conn, &Response::Get { id, val });
                }
                Request::Remove { id, key } => {
                    flush(&mut run_ops, &mut run_resps);
                    stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                    let resp = match &durable {
                        Some(d) => match durably(d.remove(&key)) {
                            Some(had) => Response::Remove { id, had },
                            None => Response::Error { id },
                        },
                        None => Response::Remove { id, had: map.remove(&key) },
                    };
                    respond(&conn, &resp);
                }
                Request::Scan { id, lo, limit } => {
                    flush(&mut run_ops, &mut run_resps);
                    let entries = map.scan_collect(&lo, limit as usize);
                    stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                    respond(&conn, &Response::Scan { id, entries });
                }
                Request::Txn { id, ops } => {
                    flush(&mut run_ops, &mut run_resps);
                    stats.txns.fetch_add(1, Ordering::Relaxed);
                    let ok = if ops.is_empty() {
                        true
                    } else {
                        let batch = Batch::new(
                            ops.into_iter()
                                .map(|(k, v)| match v {
                                    Some(v) => BatchOp::Put(k, v),
                                    None => BatchOp::Remove(k),
                                })
                                .collect(),
                        );
                        match &durable {
                            Some(d) => durably(d.batch_update(batch)).is_some(),
                            None => {
                                map.batch_update(batch);
                                true
                            }
                        }
                    };
                    let resp = if ok { Response::Txn { id } } else { Response::Error { id } };
                    respond(&conn, &resp);
                }
                Request::Stats { id } => {
                    flush(&mut run_ops, &mut run_resps);
                    respond(&conn, &Response::Stats { id, stats: stats.snapshot() });
                }
            },
            None => {
                // Queue drained: install what we coalesced, then sleep
                // until a producer wakes us. The flag + park protocol is
                // deliberate: blocking in `std`'s `recv_timeout` instead
                // measured 7 % slower end to end (ARCHITECTURE.md,
                // "Worker parking").
                flush(&mut run_ops, &mut run_resps);
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
                sleeping.store(true, Ordering::Release);
                // Re-check after publishing `sleeping`: a producer that
                // enqueued before seeing the flag owes us no unpark.
                carried = rx.recv();
                if carried.is_none() {
                    // Timeout bounds a lost wake (producer checked
                    // `sleeping` before we set it).
                    std::thread::park_timeout(Duration::from_millis(1));
                }
                sleeping.store(false, Ordering::Release);
            }
        }
    }
}
