//! The four workloads: their names, why each exists, and their sizes.
//! `serve.rs` and `engine.rs` run them.

use crate::gen::{BatchStream, Mix, OpSource, PointStream, ScanStream, ServeStream};

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    ServeMixed,
    ServeDurable,
    EnginePoint,
    EngineBatchScan,
}

/// Connections of a serving workload = generator lanes = key owners.
pub const CONNS: u64 = 2;
/// Threads of an engine workload.
pub const THREADS: u64 = 2;
/// Range shards behind the server (its users' default shape).
pub const SERVE_SHARDS: usize = 2;
/// Range shards of `engine_batch_scan`.
pub const BATCH_SCAN_SHARDS: usize = 4;

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ServeMixed,
        Workload::ServeDurable,
        Workload::EnginePoint,
        Workload::EngineBatchScan,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMixed => "serve_mixed",
            Workload::ServeDurable => "serve_durable",
            Workload::EnginePoint => "engine_point",
            Workload::EngineBatchScan => "engine_batch_scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn why(self) -> &'static str {
        match self {
            Workload::ServeMixed => "loopback TCP, RAM only, cache-resident keys: the io loop, protocol, ingress queue and put coalescing do the work; jiffy does little",
            Workload::ServeDurable => "same server logging every write to a WAL, write-heavy, with a checkpoint and a timed restart that audits every acknowledged write: jiffy-dur does most of the work here and none anywhere else",
            Workload::EnginePoint => "the paper's update/lookup scenario on a bare JiffyMap far larger than a core's cache: descent, get fast path and clock only; no socket, queue, shard or WAL code runs",
            Workload::EngineBatchScan => "the paper's headline: 100-op atomic batches (single-shard and cross-shard) beside short and long consistent scans over 4 range shards",
        }
    }

    pub fn is_serving(self) -> bool {
        matches!(self, Workload::ServeMixed | Workload::ServeDurable)
    }

    /// Size of the key space. `quick` shrinks the engine maps for smoke
    /// runs; the serving maps are small already.
    pub fn keys(self, quick: bool) -> u64 {
        match self {
            Workload::ServeMixed | Workload::ServeDurable => 100_000,
            Workload::EnginePoint if quick => 200_000,
            Workload::EnginePoint => 2_000_000,
            Workload::EngineBatchScan if quick => 100_000,
            Workload::EngineBatchScan => 1_000_000,
        }
    }

    /// Range shards under the workload's map (1 = a bare `JiffyMap`).
    pub fn shards(self) -> usize {
        match self {
            Workload::ServeMixed | Workload::ServeDurable => SERVE_SHARDS,
            Workload::EnginePoint => 1,
            Workload::EngineBatchScan => BATCH_SCAN_SHARDS,
        }
    }

    pub fn mix(self) -> Mix {
        match self {
            // The mix `mkbench client` was introduced with.
            Workload::ServeMixed => Mix { put: 45, get: 35, scan: 10, txn: 10 },
            Workload::ServeDurable => Mix { put: 70, get: 20, scan: 0, txn: 10 },
            _ => unreachable!("engine workloads have no request mix"),
        }
    }

    /// Open-loop rates, requests per second over all connections:
    /// `(light, heavy)`. See the README for the calibration behind them.
    pub fn rates(self) -> (u64, u64) {
        match self {
            Workload::ServeMixed => (2_000, 60_000),
            Workload::ServeDurable => (2_000, 30_000),
            _ => unreachable!("engine workloads are closed loops"),
        }
    }

    /// Lane `lane`'s op stream (a connection or a thread).
    pub fn source(self, seed: u64, lane: u64, quick: bool) -> Box<dyn OpSource> {
        let keys = self.keys(quick);
        match self {
            Workload::ServeMixed | Workload::ServeDurable => {
                Box::new(ServeStream::new(seed, lane, CONNS, keys, SERVE_SHARDS as u64, self.mix()))
            }
            Workload::EnginePoint => Box::new(PointStream::new(seed, lane, THREADS, keys)),
            Workload::EngineBatchScan if lane == 0 => Box::new(BatchStream::new(seed, keys)),
            Workload::EngineBatchScan => {
                Box::new(ScanStream::new(seed, keys, BATCH_SCAN_SHARDS as u64))
            }
        }
    }
}

/// How one run is asked for.
#[derive(Clone, Copy)]
pub struct RunOpts {
    pub seed: u64,
    /// Length of the measured part (warm-up and set-up come on top).
    pub seconds: f64,
    /// Record spans and per-layer counts.
    pub trace: bool,
    /// Smoke mode: small engine maps.
    pub quick: bool,
}

/// What one run of a workload produced.
pub struct Outcome {
    pub metrics: crate::metrics::MetricSet,
    pub check: crate::check::Checker,
    pub spans: Vec<crate::trace::Span>,
    /// Free-form lines for the human report.
    pub notes: Vec<String>,
}

/// The workload ran on its first set-up, which took `first` seconds;
/// `again` sets up and tears down once more and returns the time. Runs
/// it until there are at least three timings and about a second of them,
/// and returns their median and count: one slow round (a page-fault
/// storm, a slow bind) then does not set the number. The extra rounds
/// come after the measured part, so that the garbage they leave in the
/// allocator is not in the run's peak memory.
pub fn median_set_up(first: f64, mut again: impl FnMut() -> f64) -> (f64, u64) {
    let mut times = vec![first];
    while times.len() < 3 || (times.iter().sum::<f64>() < 1.0 && times.len() < 21) {
        times.push(again());
    }
    let rounds = times.len() as u64;
    (crate::hist::median(&mut times), rounds)
}
