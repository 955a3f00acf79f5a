//! The server proper: an acceptor plus thread-per-core event loops that
//! run every request to completion against one shared [`ElasticJiffy`].
//!
//! # Thread architecture
//!
//! ```text
//! acceptor ──round-robin──▶ io-thread 0..I   (nonblocking sockets, frame
//!    │       (new-connection    │              reassembly, execution,
//!    ▼        queue + eventfd)  │              response writes)
//!  TcpListener                  ▼
//!                 Arc<ElasticJiffy<u64, u64>>  (through DurableMap when
//!                                               durability is on)
//! ```
//!
//! Each **event-loop thread** owns a set of connections outright
//! (`std::net` nonblocking sockets) and sleeps in the kernel until there
//! is work: it blocks in `epoll_wait` on its sockets plus an eventfd that
//! the acceptor rings when it hands over a new connection (`poll.rs`,
//! ARCHITECTURE.md "Io-thread readiness"). Awake, it *sweeps*: it reads
//! every connection, decodes what arrived and executes each request
//! itself — gets, scans, removes, transactions and `Stats` at once, their
//! responses encoded straight into the connection's write buffer — then
//! installs the sweep's puts and writes every buffer. It sweeps again
//! until a sweep finds nothing to do, then declares itself asleep,
//! re-checks its new-connection queue and blocks.
//!
//! A sweep's single-key puts, across all of the thread's connections,
//! *coalesce* into one run that becomes ONE Jiffy batch (`Batch::new` +
//! `batch_update` — the paper's §3.3.2 batch install, one pending-version
//! protocol for N client writes; the elastic map runs a run that spans
//! shards through its two-phase path). Under durability the run is one
//! WAL append per touched stripe and, under `fsync`, one group-commit
//! sync for puts from many connections. A put is acknowledged only
//! *after* its batch installs (and syncs), so a client-observed ack is
//! always a linearization witness.
//!
//! # Ordering
//!
//! Anything but a put, from a connection whose put is still in the run,
//! installs the run first: a connection always sees its own writes, so a
//! pipelined `put k; get k` reads the put's value. Other connections'
//! requests run at once; they are concurrent with the unacknowledged put,
//! and either answer is linearizable. Once a write is *acknowledged*, it
//! is visible to every subsequent request on every connection. The
//! protocol promises no order on the wire: pipelined clients match
//! responses by request id.
//!
//! A client that shuts down its writing half still gets every response
//! it is owed: the io thread stops reading that socket and closes it
//! once every byte is written.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The durable wrapper the io threads write through when durability is on.
pub type DurableStore = DurableMap<Arc<Map>>;

/// Install a sweep's run once it reaches this many puts, even if more
/// are decoded (bounds per-batch latency and memory).
const COALESCE_MAX: usize = 128;

/// While requests keep arriving, an idle io thread wakes at least this
/// often. On a VM a core that halts wakes at once only while the host
/// still polls it — KVM's default halt-polling window is 200 µs — and
/// after that the host deschedules it: the wake then comes tens of µs
/// late, by however much the host's other load makes it, and is most of
/// a lone request's latency. A tick of 100 µs (plus the kernel's 50 µs
/// timer slack) keeps every halt inside the window; with a 1 ms tick the
/// light-phase p90s moved with the host's load from run to run. A tick
/// with nothing ready
/// re-checks the new-connection queue and sleeps again, without a sweep.
const IO_TICK: Duration = Duration::from_micros(100);

/// How long after its last productive sweep an io thread keeps ticking;
/// then it sleeps until there is work, or for [`IO_BACKSTOP`].
const IO_LINGER: Duration = Duration::from_millis(10);

/// The longest an io thread blocks in `epoll_wait`. Only a backstop
/// against a lost wake-up: the acceptor rings the eventfd after every
/// hand-over and epoll reports every socket event, so no correct wait
/// reaches it. At least 100 ms, so that an idle server stays idle; a
/// whole second, so that a wait which does reach it stands out in any
/// latency test instead of passing as scheduling noise.
const IO_BACKSTOP: Duration = Duration::from_secs(1);

/// Tuning knobs for [`serve`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Event-loop threads (thread-per-core; connections are assigned
    /// round-robin at accept time and never migrate). Each executes the
    /// requests of the connections it owns.
    pub io_threads: usize,
    /// Write durability. [`Durability::None`] (the default) keeps the
    /// RAM-only hot path with no WAL at all; `batch` logs with a
    /// bounded loss window; `fsync` defers every write's ack until its
    /// WAL stripe is synced — riding the coalescer, so one fsync still
    /// covers a whole sweep's puts from every connection of an io
    /// thread (group commit).
    pub durability: Durability,
    /// Where the WAL + checkpoints live. Required (and created) when
    /// `durability != None`; ignored otherwise. Existing state under
    /// the directory is recovered into the map before serving.
    pub data_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig { io_threads: 2, durability: Durability::None, data_dir: None }
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
            // The io threads have exited; a final barrier makes a clean
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

    // Event-loop threads, each with its new-connection queue and poller.
    let mut io = Vec::new();
    for (i, poller) in pollers.iter().enumerate() {
        let (tx, rx) = queue::channel::<TcpStream>();
        let poller = Arc::clone(poller);
        io.push((tx, Arc::clone(&poller)));
        let exec = Executor::new(Arc::clone(&map), durable.clone(), Arc::clone(&stats));
        let shutdown = Arc::clone(&shutdown);
        threads.push(
            std::thread::Builder::new()
                .name(format!("jfs-io-{i}"))
                .spawn(move || io_loop(exec, rx, poller, shutdown))
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
    /// The client shut down its writing half: read no more, but write
    /// what it is owed before closing.
    eof: bool,
    dead: bool,
    /// The epoll events registered for the socket.
    watching: u32,
}

impl Conn {
    fn new(stream: TcpStream, poller: &Poller) -> std::io::Result<Conn> {
        let watching = EPOLLIN | EPOLLRDHUP;
        poller.add(stream.as_raw_fd(), watching)?;
        Ok(Conn {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            out_at: 0,
            eof: false,
            dead: false,
            watching,
        })
    }

    /// Whether the io thread is done with this connection: it failed, or
    /// the client hung up and every response is written. Checked only
    /// between sweeps, when no put of the connection awaits its ack.
    fn finished(&self) -> bool {
        self.dead || (self.eof && self.out_at == self.out.len())
    }

    /// Encode `resp` behind what is buffered, dropping the consumed
    /// prefix of the write buffer first once all of it is.
    fn answer(&mut self, resp: &Response) {
        if self.out_at > 0 && self.out_at == self.out.len() {
            self.out.clear();
            self.out_at = 0;
        }
        encode_response(&mut self.out, resp);
    }

    /// Read what arrived and execute every complete request in it (the
    /// responses are written later in the sweep). Returns whether
    /// anything moved.
    fn read(&mut self, idx: usize, read_buf: &mut [u8], exec: &mut Executor) -> bool {
        if self.dead || self.eof {
            return false;
        }
        match self.stream.read(read_buf) {
            Ok(0) => {
                self.eof = true;
                true
            }
            Ok(n) => {
                self.dec.extend(&read_buf[..n]);
                self.drain_frames(idx, exec);
                true
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => false,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => false,
            Err(_) => {
                self.dead = true;
                false
            }
        }
    }

    /// Decode every complete frame buffered and execute it.
    fn drain_frames(&mut self, idx: usize, exec: &mut Executor) {
        loop {
            match self.dec.next_frame() {
                Ok(None) => return,
                Ok(Some(payload)) => match decode_request(&payload) {
                    Ok(req) => {
                        if let Some(resp) = exec.execute(idx, req) {
                            self.answer(&resp);
                        }
                    }
                    Err(_) => {
                        // Framing is intact — reject this request, keep the
                        // connection. Echo the id when it was readable.
                        let id = payload
                            .get(..8)
                            .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                            .unwrap_or(0);
                        self.answer(&Response::Error { id });
                    }
                },
                Err(WireError::BadLength(_)) | Err(WireError::Malformed(_)) => {
                    // Unsynchronized stream: best-effort error, then close
                    // this connection only — the event loop and its other
                    // connections are unaffected.
                    self.answer(&Response::Error { id: 0 });
                    self.pump_out();
                    self.dead = true;
                    return;
                }
            }
        }
    }

    /// Write what the socket will take of the buffered responses;
    /// returns whether any bytes moved.
    fn pump_out(&mut self) -> bool {
        let mut progressed = false;
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

/// What an io thread executes requests against, and the run of puts its
/// current sweep has decoded.
struct Executor {
    map: Arc<Map>,
    durable: Option<Arc<DurableStore>>,
    stats: Arc<ServerStats>,
    /// The sweep's puts, across all connections, awaiting one batch.
    run: Vec<BatchOp<u64, u64>>,
    /// Per put in `run`: its connection's index and its request id.
    run_ids: Vec<(usize, u64)>,
    /// Installed puts' acks, by connection index, added to the write
    /// buffers once the sweep ends (no two connections borrowed at once;
    /// the wire promises no order, so an ack may follow later replies).
    acks: Vec<(usize, Response)>,
}

impl Executor {
    fn new(map: Arc<Map>, durable: Option<Arc<DurableStore>>, stats: Arc<ServerStats>) -> Self {
        Executor { map, durable, stats, run: Vec::new(), run_ids: Vec::new(), acks: Vec::new() }
    }

    /// Execute one request from the sweep's connection `idx`: a put joins
    /// the run (its ack comes with the run's install); anything else runs
    /// now and its response is returned.
    fn execute(&mut self, idx: usize, req: Request) -> Option<Response> {
        // The barrier: this connection's puts still in the run install
        // before anything else it sent. A connection's puts sit at the
        // end of the run while it is read, so the last one tells.
        let owes_puts = self.run_ids.last().is_some_and(|&(c, _)| c == idx);
        if owes_puts && !matches!(req, Request::Put { .. }) {
            self.flush();
        }
        let resp = match req {
            Request::Put { id, key, val } => {
                self.run.push(BatchOp::Put(key, val));
                self.run_ids.push((idx, id));
                if self.run.len() >= COALESCE_MAX {
                    self.flush();
                }
                return None;
            }
            Request::Get { id, key } => {
                self.stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                Response::Get { id, val: self.map.get(&key) }
            }
            Request::Remove { id, key } => {
                self.stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                match &self.durable {
                    Some(d) => match durably(d.remove(&key)) {
                        Some(had) => Response::Remove { id, had },
                        None => Response::Error { id },
                    },
                    None => Response::Remove { id, had: self.map.remove(&key) },
                }
            }
            Request::Scan { id, lo, limit } => {
                self.stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                Response::Scan { id, entries: self.map.scan_collect(&lo, limit as usize) }
            }
            Request::Txn { id, ops } => {
                self.stats.txns.fetch_add(1, Ordering::Relaxed);
                let ops: Vec<_> = ops
                    .into_iter()
                    .map(|(k, v)| match v {
                        Some(v) => BatchOp::Put(k, v),
                        None => BatchOp::Remove(k),
                    })
                    .collect();
                if ops.is_empty() || self.install(Batch::new(ops)) {
                    Response::Txn { id }
                } else {
                    Response::Error { id }
                }
            }
            Request::Stats { id } => Response::Stats { id, stats: self.stats.snapshot() },
        };
        Some(resp)
    }

    /// Install the run — a plain put for a run of one, else ONE Jiffy
    /// batch (under durability also one WAL append per touched stripe
    /// and, under `fsync`, one group-commit sync) — and only then ack its
    /// puts into `acks`. The ack is the client's linearization witness,
    /// and under `fsync` its durability witness too.
    fn flush(&mut self) {
        let ok = match self.run.len() {
            0 => return,
            1 => {
                // A lone put gains nothing from the batch protocol.
                let Some(BatchOp::Put(k, v)) = self.run.pop() else { unreachable!() };
                self.stats.direct_ops.fetch_add(1, Ordering::Relaxed);
                match &self.durable {
                    Some(d) => durably(d.put(k, v)).is_some(),
                    None => {
                        self.map.put(k, v);
                        true
                    }
                }
            }
            n => {
                self.stats.installed_batches.fetch_add(1, Ordering::Relaxed);
                self.stats.coalesced_puts.fetch_add(n as u64, Ordering::Relaxed);
                // Drained, not taken: the run keeps its capacity.
                let batch = Batch::new(self.run.drain(..).collect());
                self.install(batch)
            }
        };
        for (c, id) in self.run_ids.drain(..) {
            let resp = if ok { Response::Put { id } } else { Response::Error { id } };
            self.acks.push((c, resp));
        }
    }

    /// Install `batch` atomically (the elastic map runs a cross-shard
    /// set through two-phase), logged when durability is on; whether
    /// the log took it.
    fn install(&self, batch: Batch<u64, u64>) -> bool {
        match &self.durable {
            Some(d) => durably(d.batch_update(batch)).is_some(),
            None => {
                self.map.batch_update(batch);
                true
            }
        }
    }
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

/// Take every connection the acceptor handed over; returns whether any.
/// A socket epoll refuses is dropped, which closes it.
fn adopt(
    new_conns: &mut queue::Receiver<TcpStream>,
    conns: &mut Vec<Conn>,
    poller: &Poller,
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
    mut exec: Executor,
    mut new_conns: queue::Receiver<TcpStream>,
    poller: Arc<Poller>,
    shutdown: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut last_busy = Instant::now();
    loop {
        if shutdown.load(Ordering::Acquire) {
            return; // drops (closes) every owned connection
        }
        // One sweep: read and execute everything that arrived, install
        // the run and ack it, then write.
        let mut progressed = adopt(&mut new_conns, &mut conns, &poller);
        for (idx, conn) in conns.iter_mut().enumerate() {
            progressed |= conn.read(idx, &mut read_buf, &mut exec);
        }
        exec.flush();
        for (idx, resp) in exec.acks.drain(..) {
            conns[idx].answer(&resp);
        }
        for conn in conns.iter_mut() {
            progressed |= conn.pump_out();
            conn.watch(&poller);
        }
        conns.retain(|c| !c.finished());
        if progressed {
            last_busy = Instant::now();
            continue;
        }
        loop {
            // Declare sleep, then look once more at the one queue a
            // producer rings about: a connection handed over before the
            // acceptor saw the flag is found here (ARCHITECTURE.md,
            // "Io-thread readiness").
            poller.prepare_to_sleep();
            if adopt(&mut new_conns, &mut conns, &poller) {
                poller.wake_up();
                break;
            }
            let ticking = last_busy.elapsed() < IO_LINGER;
            if poller.sleep(if ticking { IO_TICK } else { IO_BACKSTOP }) || !ticking {
                break;
            }
        }
    }
}
