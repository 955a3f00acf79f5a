//! Bounded exponential backoff for the helping loops (and their
//! debug-build livelock [`Tripwire`]).
//!
//! Jiffy's helping protocol (§3.3.3) makes every thread that encounters
//! a pending revision drive the owning operation to completion. Under
//! all-shard contention that turns one slow batch into a thundering
//! herd: N threads duplicate the same group installations and slam the
//! same head CAS, and throughput *drops* as threads are added. The fix
//! is an *ownership hint*: the installing thread already publishes its
//! progress (the descriptor's `progress` counter, or the version cell
//! flipping non-negative), so a would-be helper can watch that signal
//! and spin-wait briefly — duplicating work only once the owner looks
//! genuinely stalled.
//!
//! Lock-freedom is preserved because the wait is bounded in both
//! directions: a helper spins at most [`HelpBackoff::MAX_STEP`]
//! exponentially-growing rounds per *observation* (same rival, same
//! progress), after which it helps unconditionally; and re-arming the
//! ramp requires having observed the rival advance, which is itself
//! system-wide progress.

/// Per-call-site exponential backoff state. Create one outside a
/// helping loop and consult [`should_wait`](HelpBackoff::should_wait)
/// each time the loop is about to duplicate another thread's work.
pub(crate) struct HelpBackoff {
    /// Identity + published progress of the rival operation at the last
    /// observation (`None` until the first encounter).
    last: Option<(usize, usize)>,
    /// Current ramp position; spins `1 << step` times per wait.
    step: u32,
}

impl HelpBackoff {
    /// Ramp cap: the final wait spins `1 << MAX_STEP` times, and the
    /// total budget per observation is `2^(MAX_STEP+1) - 2` spin hints
    /// (~a few hundred ns), after which the helper must help.
    const MAX_STEP: u32 = 6;

    pub(crate) fn new() -> Self {
        HelpBackoff { last: None, step: 0 }
    }

    /// About to help the operation identified by `rival` (any stable
    /// address) whose published progress reads `progress`. Returns
    /// `true` after spin-waiting — the caller should re-read shared
    /// state instead of helping, because the owner was recently seen
    /// moving (or has not been given its grace period yet). Returns
    /// `false` once this exact `(rival, progress)` observation has
    /// exhausted the ramp: the owner looks stalled, help now.
    pub(crate) fn should_wait(&mut self, rival: usize, progress: usize) -> bool {
        match self.last {
            Some((r, p)) if r == rival && p == progress => {
                if self.step >= Self::MAX_STEP {
                    return false;
                }
                self.step += 1;
                jiffy_obs::trace_event!(verbose: hint: BackoffRamp, rival, progress);
            }
            _ => {
                // New rival, or the owner advanced since we last looked:
                // restart the ramp (observing progress is what re-arms
                // the wait, so a stalled owner can never starve us).
                self.last = Some((rival, progress));
                self.step = 1;
            }
        }
        for _ in 0..(1u32 << self.step) {
            std::hint::spin_loop();
        }
        true
    }
}

/// Debug-build livelock tripwire for the helping loops. They are
/// lock-free by argument, not by construction, so a broken argument
/// shows up as a loop that never exits; after 30 M iterations a debug
/// build dumps the flight recorder and panics by name instead. Release
/// builds compile [`tick`](Tripwire::tick) to nothing.
pub(crate) struct Tripwire {
    what: &'static str,
    spins: u64,
}

impl Tripwire {
    #[inline]
    pub(crate) fn new(what: &'static str) -> Self {
        Tripwire { what, spins: 0 }
    }

    /// Count one loop iteration; `detail` is evaluated only for the
    /// panic message.
    #[inline]
    pub(crate) fn tick(&mut self, detail: impl FnOnce() -> String) {
        if cfg!(debug_assertions) {
            self.spins += 1;
            if self.spins > 30_000_000 {
                jiffy_obs::dump_on_failure(&format!("{} livelock tripwire", self.what), 64);
                panic!("{} livelock {}", self.what, detail());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalled_rival_exhausts_the_ramp() {
        let mut b = HelpBackoff::new();
        let mut waits = 0;
        while b.should_wait(0x1000, 7) {
            waits += 1;
            assert!(waits < 64, "budget must be bounded");
        }
        assert_eq!(waits as u32, HelpBackoff::MAX_STEP);
        // Still stalled: no more grace.
        assert!(!b.should_wait(0x1000, 7));
    }

    #[test]
    fn progress_rearms_the_ramp() {
        let mut b = HelpBackoff::new();
        while b.should_wait(0x1000, 1) {}
        // The owner advanced: the helper backs off again.
        assert!(b.should_wait(0x1000, 2));
        // A different rival also restarts the ramp.
        while b.should_wait(0x1000, 2) {}
        assert!(b.should_wait(0x2000, 2));
    }
}
