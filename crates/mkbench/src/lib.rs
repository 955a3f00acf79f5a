//! The paper's custom microbenchmark (§4.2) as a reusable harness.
//!
//! Threads have fixed roles (update / lookup / scan) where the thread
//! count allows it, and interleave roles by ratio where it does not (so
//! a 1-thread "75 % lookup" cell really runs 75 % lookups); updates are
//! plain put/remove or 10-/100-op batches (sequential or random); keys
//! come from a uniform or Zipfian(0.99) distribution over a configurable
//! key space; the dataset is prefilled to ~50 % density (the paper's
//! 10 M entries over 20 M keys). Throughput is reported in basic
//! operations per second, *as verified by the index*: "a scan over 10
//! key-value entries counts as 10 get operations" — counted via the scan
//! sink, not assumed from the requested length — and a batch of `B`
//! unique updates counts as `B`. Per-role latency percentiles
//! (p50/p95/p99/max) come from hand-rolled log-bucketed histograms, and
//! `compare` diffs two `BENCH_*.json` reports as a regression gate.

pub mod artifacts;
pub mod compare;
pub mod hist;
pub mod json;
pub mod registry;
pub mod report;
pub mod runner;

pub use artifacts::{prepare_artifact_dir, resolve_under};
pub use compare::{compare, parse_report, BenchReport, BenchRow, Comparison};
pub use hist::LogHistogram;
pub use registry::{indices_for_figure, make_index_u32, make_index_u64, IndexKind, DEFAULT_SHARDS};
pub use report::{write_csv, write_json, LatencySummary, Measurement, OpCosts, Row, RunMeta};
pub use runner::{
    last_worker_panic, parse_inject_panic, run_scenario, with_panic_context, BenchKey, RunConfig,
};
