//! The metrics registry: always-on cheap counters and gauges, plus the
//! typed [`ObsSnapshot`] that folds the workspace's previously scattered
//! `debug_stats()` / `RevisionStats` plumbing into one structure.
//!
//! Counters are the flight recorder's per-kind tallies: recording an
//! event bumps a per-thread, single-writer counter (plain load + store,
//! no RMW — same discipline as `jiffy`'s `perf_count!` layer), and
//! [`event_totals`] sums across threads on the rare read path. Gauges
//! (node/entry/revision-shape numbers) are *fed* by each structure —
//! `JiffyMap` and `ElasticJiffy` expose `obs_stats()`
//! methods returning a [`StructureStats`] that callers attach with
//! [`ObsSnapshot::add_structure`]. Latency distributions come from
//! [`LogHistogram`]s summarized via
//! [`HistogramSummary`].

use crate::event::{EventKind, ALL_KINDS, KIND_COUNT};
use crate::hist::LogHistogram;
use crate::recorder;

/// Sum of every thread's per-kind event counters, indexed by the
/// [`EventKind`] discriminant. Always-on: these tally even when the
/// event itself has rotated out of the ring.
pub fn event_totals() -> [u64; KIND_COUNT] {
    let mut totals = [0u64; KIND_COUNT];
    for ring in recorder::rings() {
        for (k, t) in totals.iter_mut().enumerate() {
            *t += ring.kind_count(k);
        }
    }
    totals
}

/// Shape-and-load gauges for one indexed structure (a `JiffyMap`, or a
/// sharded/elastic wrapper), folding what `debug_stats()` and
/// `RevisionStats` used to report through per-crate ad-hoc types.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StructureStats {
    /// Caller-chosen label (e.g. `"elastic-jiffy"`).
    pub label: String,
    /// Live nodes (for sharded structures: summed over shards).
    pub nodes: u64,
    /// Live entries.
    pub entries: u64,
    /// Mean revision-list length across nodes (0 when unknown).
    pub mean_revision_size: f64,
    /// Deepest revision list observed (0 when unknown).
    pub max_revision_depth: u64,
    /// Per-shard breakdown; empty for an unsharded map.
    pub shards: Vec<ShardObs>,
}

/// One shard's slice of a [`StructureStats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardObs {
    /// Reads routed to this shard since creation.
    pub reads: u64,
    /// Updates routed to this shard since creation.
    pub updates: u64,
    /// Live nodes in this shard (0 when the backend cannot say).
    pub nodes: u64,
    /// Live entries in this shard (0 when the backend cannot say).
    pub entries: u64,
    /// Mean revision-list length in this shard (0 when unknown).
    pub mean_revision_size: f64,
    /// Deepest revision list in this shard (0 when unknown).
    pub max_revision_depth: u64,
}

/// A percentile summary of one [`LogHistogram`] (the full bucket array
/// stays with its owner; snapshots carry the tail that matters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Median, in the histogram's unit (nanoseconds by convention).
    pub p50: u64,
    /// 95th percentile.
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Exact maximum.
    pub max: u64,
}

impl HistogramSummary {
    /// Summarize a histogram.
    pub fn of(h: &LogHistogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            p50: h.percentile(50.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            max: h.max(),
        }
    }
}

/// One coherent observability snapshot: recorder counters plus whatever
/// gauges and histograms the caller feeds in. Produced by
/// [`snapshot`](crate::snapshot); rendered by the dump path and by
/// `mkbench trace`.
#[derive(Debug, Clone, Default)]
pub struct ObsSnapshot {
    /// `(kind, total)` for every kind with a nonzero tally, in
    /// discriminant order.
    pub event_counts: Vec<(EventKind, u64)>,
    /// Events ever recorded across all threads (ring wraparound does
    /// not lower this).
    pub total_events: u64,
    /// Recorder threads registered so far.
    pub threads: u32,
    /// Structure gauges fed via [`ObsSnapshot::add_structure`].
    pub structures: Vec<StructureStats>,
    /// Named latency summaries fed via [`ObsSnapshot::add_histogram`].
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl ObsSnapshot {
    /// Capture the recorder-side half (counters, thread count); gauges
    /// and histograms start empty.
    pub fn capture() -> ObsSnapshot {
        let totals = event_totals();
        let rings = recorder::rings();
        ObsSnapshot {
            event_counts: ALL_KINDS
                .iter()
                .map(|&k| (k, totals[k as usize]))
                .filter(|&(_, n)| n > 0)
                .collect(),
            total_events: rings.iter().map(|r| r.recorded()).sum(),
            threads: rings.len() as u32,
            structures: Vec::new(),
            histograms: Vec::new(),
        }
    }

    /// Attach one structure's gauges.
    pub fn add_structure(&mut self, stats: StructureStats) -> &mut Self {
        self.structures.push(stats);
        self
    }

    /// Attach a named latency summary.
    pub fn add_histogram(&mut self, name: impl Into<String>, h: &LogHistogram) -> &mut Self {
        self.histograms.push((name.into(), HistogramSummary::of(h)));
        self
    }
}
