//! The flight recorder: per-thread fixed-capacity ring buffers of
//! version-stamped events, mergeable into one globally ordered trace.
//!
//! # Design
//!
//! Recording must cost almost nothing on the paths it instruments, and
//! must never serialize recorder threads against each other — the whole
//! point of Jiffy's TSC clock (§3.2, footnote 3) is that stamping does
//! not contend, and the recorder inherits that discipline:
//!
//! * each thread owns one ring; a recorded event is a handful of
//!   **plain (relaxed) stores** into slots only that thread ever writes
//!   — no RMW, no shared cache line, mirroring the `perf_count!`
//!   thread-local counter design in `jiffy`;
//! * dumping is the rare path and pays all the cost: it snapshots every
//!   registered ring (readable cross-thread), validates each slot with
//!   a seqlock-style check so a concurrently overwritten slot is
//!   *skipped rather than torn*, and sorts the union by
//!   `(stamp, hinted, thread, seq)`.
//!
//! # Slot publication protocol
//!
//! Writer (ring owner only), for the slot at `head % CAP`:
//!
//! 1. `seq.store(0, Relaxed)` — invalidate;
//! 2. `fence(Release)` — orders the invalidation before the payload
//!    stores below, as observed through any reader's Acquire fence;
//! 3. payload stores (`stamp`, `kind`, `a`, `b`), all Relaxed;
//! 4. `seq.store(head + 1, Release)` — publish (slot seq is the
//!    1-based absolute event number, so every lap writes a distinct
//!    non-zero value);
//! 5. `head.store(head + 1, Release)` — advance the window bound.
//!
//! Reader (any thread): load `seq` (Acquire) — zero means mid-write,
//! skip; load the payload (Relaxed); `fence(Acquire)`; re-load `seq`
//! (Relaxed) and accept the slot only if both reads returned the
//! expected absolute event number. A reader that observed any payload
//! store from lap *n+1* must, through the writer's step-2 fence and its
//! own Acquire fence, also observe the step-1 invalidation of lap
//! *n+1* (or a later value) on the re-read — so a half-overwritten slot
//! can never validate against lap *n*'s number. See the `obs-trace`
//! invariant in `AUDIT.toml`.

use std::cell::OnceCell;
use std::sync::atomic::{fence, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::event::{EventKind, TraceEvent, KIND_COUNT};

/// Events retained per thread (power of two; newest win on wraparound).
pub const RING_CAP: usize = 512;

struct Slot {
    /// 0 = empty or mid-write; otherwise the 1-based absolute event
    /// number of the event the slot holds.
    seq: AtomicU64,
    stamp: AtomicI64,
    /// `EventKind` discriminant in the low 16 bits; bit 16
    /// ([`HINTED_BIT`]) marks a stamp borrowed via [`stamp_hint`].
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

/// Bit in [`Slot::kind`] marking a hinted (borrowed) stamp. Kind
/// discriminants are `u16`, so bit 16 can never collide with one.
const HINTED_BIT: u64 = 1 << 16;

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            stamp: AtomicI64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// One thread's ring. Owned (written) by exactly one thread; readable
/// by any thread through the seqlock protocol above. Registered rings
/// are kept alive by the global registry after their thread exits, so a
/// dump still sees the tail of a dead worker.
pub struct ThreadRing {
    thread: u32,
    name: String,
    /// Events ever recorded by this thread (the ring holds the last
    /// `RING_CAP` of them).
    head: AtomicU64,
    /// The newest *clock-exact* stamp this thread recorded (feeds
    /// [`stamp_hint`]; hinted events do not advance it).
    last_stamp: AtomicI64,
    /// Per-kind always-on counters; single-writer plain stores, summed
    /// cross-thread by `metrics::event_totals`.
    kind_counts: [AtomicU64; KIND_COUNT],
    slots: Box<[Slot]>,
}

impl ThreadRing {
    fn new(thread: u32, name: String) -> ThreadRing {
        ThreadRing {
            thread,
            name,
            head: AtomicU64::new(0),
            last_stamp: AtomicI64::new(0),
            kind_counts: std::array::from_fn(|_| AtomicU64::new(0)),
            slots: (0..RING_CAP).map(|_| Slot::empty()).collect(),
        }
    }

    /// Recorder thread id (dense registration order).
    pub fn thread_id(&self) -> u32 {
        self.thread
    }

    /// The OS thread name captured at registration.
    pub fn thread_name(&self) -> &str {
        &self.name
    }

    /// Events ever recorded by this ring's owner.
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Owner-only write path; see the module docs for the protocol.
    fn push(&self, kind: EventKind, stamp: i64, a: u64, b: u64, hinted: bool) {
        let n = self.head.load(Ordering::Relaxed);
        let slot = &self.slots[(n as usize) & (RING_CAP - 1)];
        slot.seq.store(0, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.stamp.store(stamp, Ordering::Relaxed);
        slot.kind.store(kind as u64 | if hinted { HINTED_BIT } else { 0 }, Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        #[cfg(feature = "audit-sched")]
        jiffy_audit::sched::probe("obs::record-mid");
        slot.seq.store(n + 1, Ordering::Release);
        self.head.store(n + 1, Ordering::Release);
        if !hinted {
            // A borrowed stamp must not feed future hints: `last_stamp`
            // stays the newest *clock-exact* stamp this thread saw.
            self.last_stamp.store(stamp, Ordering::Relaxed);
        }
        let c = &self.kind_counts[kind as usize];
        c.store(c.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
    }

    /// Snapshot this ring's valid window from any thread. Slots being
    /// overwritten concurrently fail seqlock validation and are
    /// skipped; the result contains only whole events.
    pub fn collect(&self) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let lo = head.saturating_sub(RING_CAP as u64);
        let mut out = Vec::with_capacity((head - lo) as usize);
        for n in lo..head {
            let slot = &self.slots[(n as usize) & (RING_CAP - 1)];
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 != n + 1 {
                continue; // mid-write (0) or already overwritten by a newer lap
            }
            let stamp = slot.stamp.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s2 != n + 1 {
                continue; // overwritten while we read: reject, never tear
            }
            let hinted = kind & HINTED_BIT != 0;
            let Some(kind) = EventKind::from_u16(kind as u16) else {
                continue;
            };
            out.push(TraceEvent { stamp, hinted, thread: self.thread, seq: n + 1, kind, a, b });
        }
        out
    }

    pub(crate) fn kind_count(&self, k: usize) -> u64 {
        self.kind_counts[k].load(Ordering::Relaxed)
    }

    pub(crate) fn last_stamp(&self) -> i64 {
        self.last_stamp.load(Ordering::Relaxed)
    }
}

static REGISTRY: Mutex<Vec<Arc<ThreadRing>>> = Mutex::new(Vec::new());

thread_local! {
    static LOCAL: OnceCell<Arc<ThreadRing>> = const { OnceCell::new() };
}

fn register_current_thread() -> Arc<ThreadRing> {
    let name = std::thread::current().name().unwrap_or("?").to_string();
    let mut reg = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let ring = Arc::new(ThreadRing::new(reg.len() as u32, name));
    reg.push(Arc::clone(&ring));
    ring
}

/// Record one event on the calling thread's ring (registering the ring
/// on first use). This is the function the [`trace_event!`] macro
/// expands to; prefer the macro at call sites.
///
/// Silently drops the event if the thread-local is already torn down
/// (thread-exit destructors) — the recorder must never panic.
///
/// [`trace_event!`]: crate::trace_event
#[inline]
pub fn record(kind: EventKind, stamp: i64, a: u64, b: u64) {
    let _ = LOCAL.try_with(|cell| {
        cell.get_or_init(register_current_thread).push(kind, stamp, a, b, false);
    });
}

/// Record one event with a **borrowed** stamp: the instrumentation
/// point has no version clock in scope, so the event is stamped with
/// [`stamp_hint`] and marked `hinted` — in the merged trace it sorts
/// *after* any clock-exact event carrying the same stamp (see
/// [`TraceEvent::order_key`]). This is the function the
/// `trace_event!(hint: ...)` macro form expands to.
#[inline]
pub fn record_hinted(kind: EventKind, a: u64, b: u64) {
    let stamp = stamp_hint();
    let _ = LOCAL.try_with(|cell| {
        cell.get_or_init(register_current_thread).push(kind, stamp, a, b, true);
    });
}

/// Snapshot every registered ring and merge into one trace, totally
/// ordered by `(stamp, hinted, thread, seq)` — the shared-clock stamp
/// first, clock-exact before hinted at equal stamps, then a
/// deterministic tiebreak.
pub fn merged_trace() -> Vec<TraceEvent> {
    let rings: Vec<Arc<ThreadRing>> = REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone();
    let mut out = Vec::new();
    for ring in &rings {
        out.extend(ring.collect());
    }
    out.sort_by_key(TraceEvent::order_key);
    out
}

/// Registered rings, for callers that need per-thread attribution
/// (names, recorded counts) alongside [`merged_trace`].
pub fn rings() -> Vec<Arc<ThreadRing>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

/// The newest version stamp any thread has recorded — a *borrowed*
/// stamp for instrumentation points that have no clock in scope (the
/// reshard writer gate, helping backoff). Events
/// stamped this way sort adjacent to the activity that surrounded
/// them, which is what a forensic trace needs; they make no claim of
/// clock-exact placement. Record such events through [`record_hinted`]
/// (the `trace_event!(hint: ...)` form), which marks them `hinted` so
/// the merge never places them *before* the clock-exact event their
/// stamp was borrowed from.
pub fn stamp_hint() -> i64 {
    REGISTRY
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|r| r.last_stamp())
        .max()
        .unwrap_or(0)
}
