//! Shared helpers for the cross-crate system tests.

use std::sync::Arc;

use baselines::catree::{AvlContainer, ImmContainer, SkipContainer};
use baselines::snaptree::SingleShard;
use baselines::{CaTree, Cslm, KaryTree, LfcaTree, SnapTree};
use index_api::OrderedIndex;
use jiffy_shard::{ElasticJiffy, Router};

/// Split points for the sharded test fixtures: chosen *inside* the key
/// ranges the conformance tests exercise (hundreds to tens of
/// thousands), so sequential sweeps, boundary scans, and concurrent
/// churn all genuinely straddle shard boundaries.
pub fn test_shard_splits() -> Vec<u64> {
    vec![64, 512, 4096]
}

/// Every index in the evaluation, as trait objects over (u64, u64) —
/// including the sharded map that ships (`ElasticJiffy`, reported as
/// `elastic-jiffy`).
pub fn all_indices() -> Vec<Arc<dyn OrderedIndex<u64, u64> + Send + Sync>> {
    vec![
        Arc::new(jiffy::JiffyMap::<u64, u64>::new()),
        Arc::new(Cslm::<u64, u64>::new()),
        Arc::new(CaTree::<u64, u64, AvlContainer<u64, u64>>::new()),
        Arc::new(CaTree::<u64, u64, SkipContainer<u64, u64>>::new()),
        Arc::new(CaTree::<u64, u64, ImmContainer<u64, u64>>::new()),
        Arc::new(LfcaTree::<u64, u64>::new()),
        Arc::new(KaryTree::<u64, u64>::new()),
        Arc::new(SnapTree::<u64, u64, SingleShard>::new()),
        Arc::new(ElasticJiffy::<u64, u64>::with_router(
            Router::range(test_shard_splits()),
            jiffy::JiffyConfig::default(),
        )),
    ]
}

/// The subset with linearizable scans (everything but CSLM).
pub fn consistent_scan_indices() -> Vec<Arc<dyn OrderedIndex<u64, u64> + Send + Sync>> {
    all_indices().into_iter().filter(|i| i.supports_consistent_scan()).collect()
}

/// The subset with atomic batches (Jiffy, CA-AVL, CA-SL).
pub fn atomic_batch_indices() -> Vec<Arc<dyn OrderedIndex<u64, u64> + Send + Sync>> {
    all_indices().into_iter().filter(|i| i.supports_atomic_batch()).collect()
}

/// A deterministic xorshift rng for test workloads.
pub struct XorShift(pub u64);

impl XorShift {
    #[allow(clippy::should_implement_trait)] // deliberate rng-style name
    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Raises a stop flag when dropped, so a worker looping on it is
/// released on every way out of the scope that started it — a panicking
/// assertion included (`std::thread::scope` would otherwise wait on the
/// worker forever).
pub struct StopOnDrop<'a>(pub &'a std::sync::atomic::AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
    }
}

/// Run `body` on its own thread under a wall-clock ceiling. A body that
/// has not returned after `secs` seconds fails the calling test by name
/// — after dumping the `jiffy-obs` flight recorder — instead of hanging
/// the whole test binary until the job is killed. The stuck thread is
/// left behind; the process still exits when the harness finishes.
pub fn with_deadline(name: &str, secs: u64, body: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    let worker = std::thread::Builder::new()
        .name(name.to_string())
        .spawn(move || {
            body();
            let _ = done_tx.send(());
        })
        .expect("spawn the test body's thread");
    if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
        done_rx.recv_timeout(std::time::Duration::from_secs(secs))
    {
        jiffy_obs::dump_on_failure(&format!("{name}: still running after {secs} s"), 256);
        panic!("{name} exceeded its {secs} s deadline (livelock or deadlock)");
    }
    // Finished, or panicked (the sender dropped unsent): surface a panic
    // with its original payload.
    if let Err(payload) = worker.join() {
        std::panic::resume_unwind(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::with_deadline;

    #[test]
    fn deadline_passes_a_body_that_returns() {
        with_deadline("quick", 5, || assert_eq!(1 + 1, 2));
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn deadline_propagates_the_bodys_own_panic() {
        with_deadline("panicky", 5, || panic!("boom"));
    }

    #[test]
    #[should_panic(expected = "stuck exceeded its 1 s deadline")]
    fn deadline_names_a_body_that_hangs() {
        with_deadline("stuck", 1, || std::thread::sleep(std::time::Duration::from_secs(3)));
    }
}
