//! **Jiffy** — a lock-free, linearizable ordered key-value index with
//! atomic batch updates and consistent snapshots.
//!
//! This crate is a from-scratch Rust reproduction of
//! *"Jiffy: A Lock-free Skip List with Batch Updates and Snapshots"*
//! (Kobus, Kokociński, Wojciechowski — PPoPP 2022; arXiv:2102.01044).
//!
//! # Architecture (paper §3)
//!
//! Jiffy is a multiversioned skip list. Each node of the lowest-level
//! list manages a contiguous key range and stores a list of immutable
//! *revisions* — snapshots of the node's entries, newest first, each
//! tagged with a version number read from a cheap machine-wide clock
//! (the CPU's TSC on x86_64; see [`jiffy_clock`]). Updates CAS a new
//! revision onto the head; readers pick the newest finalized revision at
//! or below their snapshot version. The index grows by *splitting* nodes
//! towards higher keys and shrinks by *merging* nodes towards lower keys,
//! both streamlined with the updates that trigger them, and an
//! autoscaling policy tunes revision sizes to the observed read/update
//! mix (§3.3.6).
//!
//! # Quick start
//!
//! ```
//! use jiffy::{Batch, BatchOp, JiffyMap};
//!
//! let map: JiffyMap<u64, String> = JiffyMap::new();
//! map.put(10, "ten".into());
//! map.put(20, "twenty".into());
//!
//! // Atomic batch: both changes become visible at one instant.
//! map.batch(Batch::new(vec![
//!     BatchOp::Put(30, "thirty".into()),
//!     BatchOp::Remove(10),
//! ]));
//!
//! let snap = map.snapshot();
//! assert_eq!(snap.get(&30).as_deref(), Some("thirty"));
//! assert_eq!(snap.get(&10), None);
//! ```
//!
//! # Memory reclamation
//!
//! The paper's Java implementation leans on the JVM GC; here, epoch-based
//! reclamation (`crossbeam-epoch`) frees unlinked nodes/revisions, while
//! Jiffy's own snapshot-driven revision GC (§3.3.4) decides *when* a
//! revision becomes unreachable — exactly as in the paper.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

/// Bump a per-thread op-cost counter field. Expands to nothing unless
/// the `perf-counters` feature is on, so hot-path call sites cost zero
/// in default builds.
macro_rules! perf_count {
    ($field:ident) => {
        perf_count!($field, 1)
    };
    ($field:ident, $n:expr) => {
        #[cfg(feature = "perf-counters")]
        {
            crate::counters::bump(|c| c.$field += $n as u64);
        }
        #[cfg(not(feature = "perf-counters"))]
        {
            // Evaluate nothing; keep `$n` syntactically reachable so the
            // call site type-checks identically with the feature off.
            let _ = || $n;
        }
    };
}

mod api;
mod autoscale;
mod backoff;
mod batch;
mod batch_exec;
mod config;
#[cfg(feature = "perf-counters")]
pub mod counters;
mod gc;
mod inner;
mod iter;
mod list;
mod locate;
mod map;
mod merge;
mod node;
mod ops;
mod read;
mod revision;
mod scan;
mod snapshot;
mod split;
mod two_phase;
mod version;

pub use config::JiffyConfig;
pub use inner::{MapKey, MapValue};
pub use iter::SnapshotIter;
pub use map::{JiffyMap, MapStats, Snapshot};
pub use two_phase::{BatchPhase, BatchResolver, TwoPhasePrepared, TwoPhaseTicket};

// Re-export the shared index API types so users need only this crate.
pub use index_api::{Batch, BatchOp, BulkLoad, OrderedIndex};
// Re-export the clocks for ablation experiments.
#[cfg(target_arch = "x86_64")]
pub use jiffy_clock::TscClock;
pub use jiffy_clock::{AtomicClock, DefaultClock, MonotonicClock, VersionClock};
