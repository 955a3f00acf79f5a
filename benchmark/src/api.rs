//! Every call from the benchmark into the repo's crates goes through
//! this file, and through public functions only. The surface used:
//!
//! * `JiffyMap::new`, `JiffyMap::snapshot`, `JiffyMap::debug_stats`,
//!   `jiffy::counters::take` (feature `counters`)
//! * the `OrderedIndex` methods (`get`, `put`, `remove`, `scan_from`,
//!   `scan_collect`, `batch_update`) with `Batch::new` / `BatchOp`
//! * `ElasticJiffy::{with_router, split_at, merge_at, splits}`,
//!   `Router::range_uniform`, `JiffyConfig::default()`
//! * `DurableMap::{open, put, batch_update, checkpoint, sync,
//!   attach_obs}`, `DurOptions { mode, ..Default::default() }`
//! * `jiffy_server::{serve, ServerConfig { durability, data_dir,
//!   ..Default::default() }}`, `ServerHandle::{addr, map, durable,
//!   stats, shutdown}`, `protocol::*`, `queue::channel`
//! * `jiffy_clock::DefaultClock`
//!
//! Defaults are kept on purpose: a later change to a default is measured
//! the way users meet it.

use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

pub use index_api::OrderedIndex;
use index_api::{Batch, BatchOp};
use jiffy::{JiffyConfig, JiffyMap};
use jiffy_clock::{DefaultClock, VersionClock};
use jiffy_dur::{DurOptions, Durability, DurableMap};
pub use jiffy_server::protocol::{
    decode_request, decode_response, encode_request, encode_response, FrameDecoder, Request,
    Response, StatsSnapshot,
};
use jiffy_server::{serve, ServerConfig, ServerHandle};
use jiffy_shard::{ElasticJiffy, Router};

pub type Bare = JiffyMap<u64, u64>;
pub type Elastic = ElasticJiffy<u64, u64>;

// How many of each serving-side object this process has created. The
// engine workloads assert these are all zero: their "should not move"
// cells hold by construction, not by measurement.
static SERVERS: AtomicUsize = AtomicUsize::new(0);
static QUEUES: AtomicUsize = AtomicUsize::new(0);
static DURABLE_ROOTS: AtomicUsize = AtomicUsize::new(0);

/// Panics if this process ever bound a server socket, created an ingress
/// queue or opened a WAL.
pub fn assert_engine_only() {
    assert_eq!(SERVERS.load(Ordering::Relaxed), 0, "an engine run started a server");
    assert_eq!(QUEUES.load(Ordering::Relaxed), 0, "an engine run created a queue");
    assert_durability_unused();
}

/// Panics if this process ever opened a durability root.
pub fn assert_durability_unused() {
    assert_eq!(DURABLE_ROOTS.load(Ordering::Relaxed), 0, "a RAM-only run opened a WAL");
}

pub fn bare_map() -> Bare {
    JiffyMap::new()
}

pub fn elastic_map(shards: usize, keys: u64) -> Arc<Elastic> {
    Arc::new(ElasticJiffy::with_router(Router::range_uniform(shards, keys), JiffyConfig::default()))
}

pub fn splits(map: &Elastic) -> Vec<u64> {
    map.splits()
}

/// Split the shard that owns `at`, then merge it back; returns the two
/// durations in seconds.
pub fn split_then_merge(map: &Elastic, at: u64) -> (f64, f64) {
    let t0 = std::time::Instant::now();
    map.split_at(at).expect("split of a range-routed map at an interior key");
    let split_s = t0.elapsed().as_secs_f64();
    let left = map.splits().iter().position(|s| *s == at).expect("the new split point");
    let t1 = std::time::Instant::now();
    map.merge_at(left).expect("merge of the two halves just split");
    (split_s, t1.elapsed().as_secs_f64())
}

/// One atomic batch of puts.
pub fn put_batch(index: &impl OrderedIndex<u64, u64>, puts: &[(u64, u64)]) {
    index.batch_update(to_batch(puts));
}

fn to_batch(puts: &[(u64, u64)]) -> Batch<u64, u64> {
    Batch::new(puts.iter().map(|&(k, v)| BatchOp::Put(k, v)).collect())
}

/// Acquire and drop one snapshot.
pub fn snapshot_once(map: &Bare) {
    std::hint::black_box(map.snapshot().version());
}

/// `(nodes, mean_revision_size, max_revision_depth)`.
pub fn shape(map: &Bare) -> (f64, f64, f64) {
    let s = map.debug_stats();
    (s.nodes as f64, s.mean_revision_size, s.max_revision_depth as f64)
}

/// A reader of the version clock every Jiffy write stamps itself with.
pub fn version_clock() -> impl Fn() -> u64 {
    let clock = DefaultClock::default();
    move || clock.now()
}

/// This thread's op-cost counters since the last call, or `None` in a
/// binary built without the `counters` feature.
#[derive(Default, Clone, Copy)]
pub struct OpCosts {
    pub descents: u64,
    pub nodes_visited: u64,
    pub revisions_walked: u64,
    pub locate_retries: u64,
    pub help_iterations: u64,
    pub backoff_waits: u64,
    pub fastpath_attempts: u64,
    pub fastpath_hits: u64,
}

impl OpCosts {
    pub fn add(&mut self, o: &OpCosts) {
        self.descents += o.descents;
        self.nodes_visited += o.nodes_visited;
        self.revisions_walked += o.revisions_walked;
        self.locate_retries += o.locate_retries;
        self.help_iterations += o.help_iterations;
        self.backoff_waits += o.backoff_waits;
        self.fastpath_attempts += o.fastpath_attempts;
        self.fastpath_hits += o.fastpath_hits;
    }
}

#[cfg(feature = "counters")]
pub fn take_op_costs() -> Option<OpCosts> {
    let c = jiffy::counters::take();
    Some(OpCosts {
        descents: c.descents,
        nodes_visited: c.nodes_visited,
        revisions_walked: c.revisions_walked,
        locate_retries: c.locate_retries,
        help_iterations: c.help_iterations,
        backoff_waits: c.backoff_waits,
        fastpath_attempts: c.fastpath_attempts,
        fastpath_hits: c.fastpath_hits,
    })
}

#[cfg(not(feature = "counters"))]
pub fn take_op_costs() -> Option<OpCosts> {
    None
}

/// The hand-rolled MPSC ingress queue.
pub fn queue_channel<T: Send>() -> (jiffy_server::queue::Sender<T>, jiffy_server::queue::Receiver<T>)
{
    QUEUES.fetch_add(1, Ordering::Relaxed);
    jiffy_server::queue::channel()
}

/// WAL sync count and median sync time (ns) so far.
#[derive(Clone, Copy, Default)]
pub struct SyncStats {
    pub syncs: u64,
    pub p50_ns: u64,
}

fn sync_stats<I>(dur: &DurableMap<I>) -> SyncStats
where
    I: OrderedIndex<u64, u64> + index_api::BulkLoad<u64, u64>,
{
    let mut snap = jiffy_obs::ObsSnapshot::default();
    dur.attach_obs(&mut snap);
    snap.histograms
        .iter()
        .find(|(name, _)| name == "dur.sync_nanos")
        .map(|(_, h)| SyncStats { syncs: h.count, p50_ns: h.p50 })
        .unwrap_or_default()
}

/// What recovery loaded when a durability root was opened.
#[derive(Clone, Copy, Default)]
pub struct Recovered {
    pub checkpoint_entries: u64,
    pub replayed: u64,
}

/// A `DurableMap` over an elastic map, opened directly (the ladder's
/// `dur.*` rungs).
pub struct Durable(DurableMap<Arc<Elastic>>);

impl Durable {
    pub fn open(
        inner: Arc<Elastic>,
        dir: &Path,
        fsync: bool,
    ) -> std::io::Result<(Durable, Recovered)> {
        DURABLE_ROOTS.fetch_add(1, Ordering::Relaxed);
        let mode = if fsync { Durability::Fsync } else { Durability::Batch };
        let (map, report) =
            DurableMap::open(inner, dir, DurOptions { mode, ..Default::default() })?;
        let recovered =
            Recovered { checkpoint_entries: report.checkpoint_entries, replayed: report.replayed };
        Ok((Durable(map), recovered))
    }

    pub fn put(&self, key: u64, val: u64) -> std::io::Result<()> {
        self.0.put(key, val)
    }

    pub fn put_batch(&self, puts: &[(u64, u64)]) -> std::io::Result<()> {
        self.0.batch_update(to_batch(puts))
    }

    /// Returns the number of entries written.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        self.0.checkpoint().map(|r| r.entries)
    }

    pub fn sync(&self) -> std::io::Result<()> {
        self.0.sync()
    }
}

/// An in-process `jiffy-server` on an ephemeral loopback port.
pub struct Server(ServerHandle);

impl Server {
    /// `data_dir = Some(..)` serves with `Durability::Batch` over that
    /// root (recovering what it holds): every write is logged before it
    /// is applied, and the log is fsynced every 64 KiB per stripe, at a
    /// checkpoint and at shutdown. `None` serves from RAM.
    pub fn start(map: Arc<Elastic>, data_dir: Option<&Path>) -> std::io::Result<Server> {
        SERVERS.fetch_add(1, Ordering::Relaxed);
        let cfg = match data_dir {
            Some(dir) => {
                DURABLE_ROOTS.fetch_add(1, Ordering::Relaxed);
                ServerConfig {
                    durability: Durability::Batch,
                    data_dir: Some(dir.to_path_buf()),
                    ..Default::default()
                }
            }
            None => ServerConfig::default(),
        };
        serve(map, "127.0.0.1:0", cfg).map(Server)
    }

    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    pub fn map(&self) -> &Arc<Elastic> {
        self.0.map()
    }

    pub fn stats(&self) -> StatsSnapshot {
        self.0.stats().snapshot()
    }

    /// Writes `puts` as one atomic batch through the durable store when
    /// there is one (so it is logged), else straight into the map.
    pub fn load(&self, puts: &[(u64, u64)]) -> std::io::Result<()> {
        match self.0.durable() {
            Some(d) => d.batch_update(to_batch(puts)),
            None => {
                put_batch(&**self.0.map(), puts);
                Ok(())
            }
        }
    }

    /// Checkpoints the durable store; entries written.
    pub fn checkpoint(&self) -> std::io::Result<u64> {
        let d = self.0.durable().expect("checkpoint of a server that has a durable store");
        d.checkpoint().map(|r| r.entries)
    }

    pub fn sync_stats(&self) -> SyncStats {
        self.0.durable().map(|d| sync_stats(d)).unwrap_or_default()
    }

    pub fn shutdown(self) {
        self.0.shutdown()
    }
}
