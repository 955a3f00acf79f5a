//! Per-thread op-cost counters (feature `perf-counters`).
//!
//! The cache-conscious hot-path work (descent prefetching, helping
//! backoff) is mostly invisible to
//! wall-clock benchmarks on 1-core hardware: a prefetch that hides a
//! miss the core would have stalled on anyway buys nothing when there
//! is no memory-level parallelism to exploit. These counters measure
//! the *structural* cost of each operation instead — pointer hops,
//! chain lengths, retries, duplicated helping — quantities that
//! multicore hardware cashes in directly.
//!
//! Counting is thread-local (a plain `Cell`, no atomics, no sharing),
//! so the measurement layer cannot perturb the contention behaviour it
//! observes. Harnesses call [`take`] on each worker thread at the
//! recording-window boundaries and aggregate the deltas themselves.
//! The whole module compiles away when the feature is off: call sites
//! go through the crate-internal `perf_count!` macro, which expands to
//! nothing without `perf-counters`.

use std::cell::Cell;

/// Cumulative op-cost counters for one thread.
///
/// All fields are event totals since the last [`take`]; derive rates
/// (e.g. nodes visited *per descent*) by also counting the base events
/// in the harness, or use the companion fields here
/// (`descents` / `fastpath_attempts`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCostCounters {
    /// Level-0/tower descents started (one per `find_node_for_key`).
    pub descents: u64,
    /// Skip-list nodes stepped through during descents (tower hops +
    /// level-0 hops).
    pub nodes_visited: u64,
    /// Revisions inspected while walking revision lists in `get` /
    /// `get_at` / scan window resolution.
    pub revisions_walked: u64,
    /// Locate-loop restarts (stale `next`, terminated node, coverage
    /// re-check failure, merge-terminator helping detour).
    pub locate_retries: u64,
    /// Iterations of batch-helping loops (`help_batch` passes,
    /// including ones that end up duplicating another thread's work).
    pub help_iterations: u64,
    /// Bounded exponential-backoff waits taken in helping loops
    /// instead of immediately duplicating an owner's work.
    pub backoff_waits: u64,
    /// Point reads (`get` and snapshot `get`). The name predates the
    /// read path having one implementation; it counts every point read.
    pub fastpath_attempts: u64,
    /// Point reads answered by the head revision their locate returned:
    /// no older revision walked to and no restart.
    pub fastpath_hits: u64,
}

impl OpCostCounters {
    /// All-zero counters (`const` so the thread-local can be
    /// const-initialized).
    pub const ZERO: OpCostCounters = OpCostCounters {
        descents: 0,
        nodes_visited: 0,
        revisions_walked: 0,
        locate_retries: 0,
        help_iterations: 0,
        backoff_waits: 0,
        fastpath_attempts: 0,
        fastpath_hits: 0,
    };

    /// Field-wise sum (harness aggregation across worker threads).
    pub fn add(&mut self, other: &OpCostCounters) {
        self.descents += other.descents;
        self.nodes_visited += other.nodes_visited;
        self.revisions_walked += other.revisions_walked;
        self.locate_retries += other.locate_retries;
        self.help_iterations += other.help_iterations;
        self.backoff_waits += other.backoff_waits;
        self.fastpath_attempts += other.fastpath_attempts;
        self.fastpath_hits += other.fastpath_hits;
    }

    /// Share of point reads answered by the head, in `[0, 1]`, or `None`
    /// if no reads ran.
    pub fn fastpath_hit_rate(&self) -> Option<f64> {
        if self.fastpath_attempts == 0 {
            None
        } else {
            Some(self.fastpath_hits as f64 / self.fastpath_attempts as f64)
        }
    }
}

thread_local! {
    static COUNTERS: Cell<OpCostCounters> = const { Cell::new(OpCostCounters::ZERO) };
}

/// Apply a mutation to this thread's counters (crate-internal; call
/// sites use the `perf_count!` macro so they vanish without the
/// feature).
#[inline]
pub(crate) fn bump(f: impl FnOnce(&mut OpCostCounters)) {
    COUNTERS.with(|c| {
        let mut v = c.get();
        f(&mut v);
        c.set(v);
    });
}

/// This thread's counters since the last [`take`], without resetting.
pub fn snapshot() -> OpCostCounters {
    COUNTERS.with(|c| c.get())
}

/// Return and reset this thread's counters.
pub fn take() -> OpCostCounters {
    COUNTERS.with(|c| c.replace(OpCostCounters::ZERO))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bump_snapshot_take_roundtrip() {
        take();
        bump(|c| c.nodes_visited += 3);
        bump(|c| {
            c.descents += 1;
            c.fastpath_attempts += 2;
            c.fastpath_hits += 1;
        });
        let s = snapshot();
        assert_eq!(s.nodes_visited, 3);
        assert_eq!(s.descents, 1);
        assert_eq!(s.fastpath_hit_rate(), Some(0.5));
        let t = take();
        assert_eq!(t, s);
        assert_eq!(snapshot(), OpCostCounters::ZERO);
    }

    #[test]
    fn add_is_fieldwise() {
        let mut a = OpCostCounters { nodes_visited: 1, help_iterations: 2, ..OpCostCounters::ZERO };
        let b = OpCostCounters { nodes_visited: 10, backoff_waits: 4, ..OpCostCounters::ZERO };
        a.add(&b);
        assert_eq!(a.nodes_visited, 11);
        assert_eq!(a.help_iterations, 2);
        assert_eq!(a.backoff_waits, 4);
    }

    #[test]
    fn hit_rate_none_without_attempts() {
        assert_eq!(OpCostCounters::ZERO.fastpath_hit_rate(), None);
    }
}
