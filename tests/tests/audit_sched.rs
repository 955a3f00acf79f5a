//! Seeded randomized schedule fuzzing over the churn and reshard
//! workloads (see `jiffy_audit::sched::install_explorer`).
//!
//! Each round installs the PCT-style explorer with a known seed and runs
//! a short adversarial workload; any panic (debug assert, consistency
//! sweep failure, livelock watchdog) is reported **with the seed that
//! produced it**, so the failure replays with
//! `AUDIT_SCHED_SEED=<seed> cargo test -p system-tests --features audit-sched --test audit_sched`.
//! When `AUDIT_SCHED_SEED` is set, only that seed runs — the replay
//! entry point the other harnesses print.
#![cfg(feature = "audit-sched")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use index_api::OrderedIndex;
use jiffy::{JiffyConfig, JiffyMap};
use jiffy_audit::sched::{self, ExplorerConfig};
use jiffy_shard::{ElasticJiffy, Router};

/// Merge/split-prone map configuration.
fn tiny_config() -> JiffyConfig {
    JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    }
}

/// Seeds for one smoke entry point: the env-provided replay seed if set,
/// otherwise a fixed CI set offset by `salt` so the two smokes explore
/// different schedules.
fn seeds(salt: u64) -> Vec<u64> {
    match sched::config_from_env() {
        Some(cfg) => vec![cfg.seed],
        None => (1u64..=3).map(|i| i.wrapping_mul(0x9E37_79B9).wrapping_add(salt)).collect(),
    }
}

/// Run `round` under the explorer at `seed`; on panic, print the seed
/// and re-raise.
fn explore(seed: u64, round: impl FnOnce(&sched::Scope) + std::panic::UnwindSafe) {
    let cfg = ExplorerConfig { horizon: 20_000, ..ExplorerConfig::with_seed(seed) };
    let handle = sched::install_explorer(cfg);
    // The round's driver thread is perturbed too, not only its workers.
    sched::enroll(&handle);
    let result = std::panic::catch_unwind(|| round(&handle));
    drop(handle);
    if let Err(payload) = result {
        eprintln!(
            "audit-sched: FAILING SEED {seed} — replay with AUDIT_SCHED_SEED={seed} \
             cargo test -p system-tests --features audit-sched --test audit_sched"
        );
        std::panic::resume_unwind(payload);
    }
}

/// Merge/split churn on a single Jiffy map: remove-then-repopulate keeps
/// nodes oscillating around the merge threshold while snapshot readers
/// force constant helping. The value protocol (always `k`) turns any
/// torn merge into a visible corruption.
fn jiffy_churn_round(scope: &sched::Scope) {
    const KEYS: u64 = 48;
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for k in 0..KEYS {
        map.put(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..4u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(sched::spawn(scope, move || {
            let mut x = 0x9E37 ^ (t + 1);
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % KEYS;
                match t % 3 {
                    0 => {
                        map.remove(&k);
                        map.put(k, k);
                    }
                    1 => {
                        map.put(k, k);
                    }
                    _ => {
                        let snap = map.snapshot();
                        if let Some(v) = snap.get(&k) {
                            assert_eq!(v, k, "snapshot read tore a merge");
                        }
                    }
                }
            }
        }));
    }
    std::thread::sleep(Duration::from_millis(300));
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Consistency sweep: point reads, scan, and snapshot must agree.
    let mut scanned = Vec::new();
    map.scan_from(&0, usize::MAX, &mut |k, v| scanned.push((*k, *v)));
    for (k, v) in &scanned {
        assert_eq!(*v, *k, "scan surfaced a foreign value");
        assert_eq!(map.get(k), Some(*v), "get/scan disagreement at {k}");
    }
}

/// Writers churn through live shard splits and merges on an elastic
/// sharded map — the workload behind the historical <1/200 steady-state
/// reshard flake. Lost writes surface in the final sweep.
fn reshard_churn_round(scope: &sched::Scope) {
    const KEYS: u64 = 4_000;
    let map: Arc<ElasticJiffy<u64, u64>> =
        Arc::new(ElasticJiffy::with_router(Router::range(vec![KEYS / 2]), JiffyConfig::default()));
    for k in 0..KEYS {
        map.put(k, k);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let mut handles = Vec::new();
    for t in 0..3u64 {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        handles.push(sched::spawn(scope, move || {
            let mut x = 0xA24B ^ (t + 1);
            while !stop.load(Ordering::Relaxed) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let k = x % KEYS;
                if x & 4 == 0 {
                    map.remove(&k);
                    map.put(k, k);
                } else {
                    assert!(
                        map.get(&k).map_or(true, |v| v == k),
                        "foreign value surfaced mid-reshard"
                    );
                }
            }
        }));
    }
    // Drive splits and merges while the writers run.
    for round in 0..3u64 {
        let at = KEYS / 4 + round * (KEYS / 8);
        let _ = map.split_at(at);
        let _ = map.merge_at(0);
    }
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    // Every key present exactly once with its own value (churn always
    // re-puts after removing, so steady state is all keys live).
    for k in 0..KEYS {
        assert_eq!(map.get(&k), Some(k), "write lost across a reshard cutover");
    }
    let scanned = map.scan_collect(&0, usize::MAX);
    assert_eq!(scanned.len() as u64, KEYS, "scan lost entries across shards");
}

#[test]
fn seeded_explorer_jiffy_churn_smoke() {
    for seed in seeds(0) {
        explore(seed, jiffy_churn_round);
    }
}

#[test]
fn seeded_explorer_reshard_churn_smoke() {
    for seed in seeds(0x5348_4152) {
        explore(seed, reshard_churn_round);
    }
}
