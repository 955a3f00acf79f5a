//! `jiffy-obs` — the observability substrate for the Jiffy workspace:
//! a version-stamped **flight recorder** plus a **metrics registry**,
//! always compiled, with feature-tunable verbosity.
//!
//! # Why a flight recorder fits Jiffy specifically
//!
//! Every hard bug in this repo's history (the locate-coverage race, the
//! merge-completed-latch UAF, the adoption-ABA livelock — see
//! ROADMAP.md) was diagnosed with ad-hoc forensics. Jiffy's shared
//! version clock (paper §3.3.4) changes the economics: every write
//! already carries a position in one global order, so a *per-thread*
//! event trace stamped with clock versions is *globally mergeable* for
//! free — sort by stamp and the interleaving that produced a failure
//! reads top to bottom. No other synchronization between recorder
//! threads is needed, and none is used.
//!
//! # The two parts
//!
//! * [`recorder`] — per-thread fixed-capacity ring buffers of typed
//!   lifecycle events ([`EventKind`]), written via [`trace_event!`]
//!   (a handful of plain stores, no RMW — the `perf_count!`
//!   discipline), merged on demand by [`recorder::merged_trace`].
//! * [`metrics`] — always-on per-kind counters, structure gauges and
//!   log-bucketed latency histograms ([`hist::LogHistogram`], lifted
//!   from `mkbench` and re-exported back), captured into one typed
//!   [`ObsSnapshot`] by [`snapshot`].
//!
//! Failure paths call [`dump::dump_on_failure`]; the mkbench panic
//! harness, the audit-sched explorer and the debug-only livelock
//! tripwires all route through it, so the next multi-week flake hunt
//! starts from a trace instead of a core dump.

#![warn(missing_docs)]

pub mod dump;
pub mod event;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod window;

pub use dump::{dump_on_failure, DUMP_FOOTER, DUMP_HEADER};
pub use event::{EventKind, TraceEvent, ALL_KINDS, KIND_COUNT};
pub use hist::LogHistogram;
pub use metrics::{HistogramSummary, ObsSnapshot, ShardObs, StructureStats};
pub use recorder::{merged_trace, stamp_hint, RING_CAP};
pub use window::{CounterWindow, WindowCrossing, WindowEdge, WindowGate};

/// Whether high-frequency (`verbose:`) events are compiled in. Driven
/// by this crate's `verbose` feature; consumer crates expose a
/// `trace-verbose` passthrough, and cargo feature unification turns it
/// on workspace-wide.
pub const VERBOSE: bool = cfg!(feature = "verbose");

/// Capture the recorder-side [`ObsSnapshot`] (event counters, thread
/// count). Structure gauges and histograms are attached by the caller:
/// `JiffyMap` and `ElasticJiffy` each expose an `obs_stats()` feeding [`ObsSnapshot::add_structure`].
pub fn snapshot() -> ObsSnapshot {
    ObsSnapshot::capture()
}

/// Record one flight-recorder event: a kind from [`EventKind`], the
/// version stamp it was observed under, and up to two payload words.
///
/// Expands to a plain function call that performs a handful of relaxed
/// stores into the calling thread's ring — no RMW, no shared cache
/// line — mirroring `jiffy`'s `perf_count!`. The `verbose:` form
/// compiles to nothing unless the `verbose` feature is enabled
/// somewhere in the build graph. The `hint:` form is for
/// instrumentation points with **no clock in scope**: it stamps the
/// event with [`stamp_hint`] and marks it *hinted*, so the merged
/// trace sorts it after any clock-exact event with the same stamp
/// (never before the event the stamp was borrowed from).
///
/// ```
/// use jiffy_obs::trace_event;
/// trace_event!(GateQuiesce, 42i64, 7u64);
/// trace_event!(hint: GateQuiesce, 7u64, 3u64);
/// trace_event!(verbose: hint: BackoffRamp, 1u64, 2u64);
/// assert!(jiffy_obs::merged_trace().iter().any(|e| e.stamp == 42));
/// ```
#[macro_export]
macro_rules! trace_event {
    (verbose: hint: $kind:ident $(, $p:expr)* $(,)?) => {
        if $crate::VERBOSE {
            $crate::trace_event!(hint: $kind $(, $p)*);
        }
    };
    (verbose: $kind:ident, $stamp:expr $(, $p:expr)* $(,)?) => {
        if $crate::VERBOSE {
            $crate::trace_event!($kind, $stamp $(, $p)*);
        }
    };
    (hint: $kind:ident $(,)?) => {
        $crate::recorder::record_hinted($crate::EventKind::$kind, 0, 0)
    };
    (hint: $kind:ident, $a:expr $(,)?) => {
        $crate::recorder::record_hinted($crate::EventKind::$kind, ($a) as u64, 0)
    };
    (hint: $kind:ident, $a:expr, $b:expr $(,)?) => {
        $crate::recorder::record_hinted(
            $crate::EventKind::$kind,
            ($a) as u64,
            ($b) as u64,
        )
    };
    ($kind:ident, $stamp:expr $(,)?) => {
        $crate::recorder::record($crate::EventKind::$kind, ($stamp) as i64, 0, 0)
    };
    ($kind:ident, $stamp:expr, $a:expr $(,)?) => {
        $crate::recorder::record($crate::EventKind::$kind, ($stamp) as i64, ($a) as u64, 0)
    };
    ($kind:ident, $stamp:expr, $a:expr, $b:expr $(,)?) => {
        $crate::recorder::record(
            $crate::EventKind::$kind,
            ($stamp) as i64,
            ($a) as u64,
            ($b) as u64,
        )
    };
}
