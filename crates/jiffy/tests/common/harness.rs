//! The conformance and Wing–Gong history checks behind
//! `linearizability.rs` and `fastpath_off.rs`: a sequential model
//! comparison, concurrent histories over tiny revisions, and snapshot
//! reads against a model. The two binaries run them over disjoint seeds.
//!
//! Not a test binary itself: it lives under `tests/common/` and is
//! pulled in with `#[path]` by the two binaries.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

use jiffy::{Batch, BatchOp, JiffyConfig, JiffyMap};
use linearize::{check_bounded, Event, Op, Outcome};

/// Tiny revisions so the histories cross splits and merges constantly.
pub fn tiny_config() -> JiffyConfig {
    JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    }
}

struct XorShift(u64);
impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

/// Sequential conformance against a `BTreeMap` model: puts, removes,
/// point gets, and snapshot scans over a key space small enough to keep
/// splits and merges churning.
pub fn sequential_model_equivalence(seed: u64) {
    let map: JiffyMap<u64, u64> = JiffyMap::with_config(tiny_config());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = XorShift(seed | 1);
    for i in 0..4000u64 {
        let k = rng.next() % 512;
        match rng.next() % 4 {
            0 => {
                assert_eq!(map.remove(&k), model.remove(&k), "remove({k}) @ {i}");
            }
            1 => {
                let base = rng.next() % 500;
                let ops: Vec<BatchOp<u64, u64>> = (0..6)
                    .map(|j| {
                        let bk = base + j * 3;
                        if j % 3 == 0 {
                            BatchOp::Remove(bk)
                        } else {
                            BatchOp::Put(bk, i)
                        }
                    })
                    .collect();
                for op in &ops {
                    match op {
                        BatchOp::Put(bk, v) => {
                            model.insert(*bk, *v);
                        }
                        BatchOp::Remove(bk) => {
                            model.remove(bk);
                        }
                    }
                }
                map.batch(Batch::new(ops));
            }
            _ => {
                map.put(k, i);
                model.insert(k, i);
            }
        }
        assert_eq!(map.get(&k), model.get(&k).copied(), "get({k}) @ {i}");
        if i % 256 == 0 {
            let lo = rng.next() % 512;
            let got = map.snapshot().range(&lo, 40);
            let want: Vec<(u64, u64)> = model.range(lo..).take(40).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(got, want, "scan from {lo} @ {i}");
        }
    }
    let got = map.snapshot().range(&0, usize::MAX);
    let want: Vec<(u64, u64)> = model.iter().map(|(k, v)| (*k, *v)).collect();
    assert_eq!(got, want, "final full scan");
}

/// Record one small concurrent history against a fresh map and return
/// it for the Wing–Gong checker. A shared atomic counter provides the
/// invocation/response timestamps; each worker records its own events
/// locally.
fn record_history(seed: u64, threads: usize, ops_per_thread: usize) -> Vec<Event> {
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    let clock = AtomicU64::new(0);
    const KEYS: u64 = 4; // tiny key space: operations actually contend
    let mut events: Vec<Event> = Vec::new();
    thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads as u64 {
            let map = Arc::clone(&map);
            let clock = &clock;
            handles.push(s.spawn(move || {
                let mut rng = XorShift(seed.wrapping_mul(0x9E3779B97F4A7C15) ^ (t + 1));
                let mut local = Vec::with_capacity(ops_per_thread);
                for i in 0..ops_per_thread as u64 {
                    let k = rng.next() % KEYS;
                    let invoke = clock.fetch_add(1, Ordering::Relaxed);
                    let op = match rng.next() % 5 {
                        0 => {
                            let present = map.remove(&k).is_some();
                            Op::Remove(k, present)
                        }
                        1 => {
                            let hi = KEYS - 1;
                            let entries: Vec<(u64, u64)> = map
                                .snapshot()
                                .range(&0, usize::MAX)
                                .into_iter()
                                .filter(|(ek, _)| *ek <= hi)
                                .collect();
                            Op::Scan(0, hi, entries)
                        }
                        2 => {
                            let k2 = (k + 1) % KEYS;
                            let v = t * 1000 + i;
                            map.batch(Batch::new(vec![BatchOp::Put(k, v), BatchOp::Put(k2, v)]));
                            Op::Batch(vec![(k.min(k2), Some(v)), (k.max(k2), Some(v))])
                        }
                        3 => {
                            let v = t * 1000 + i;
                            map.put(k, v);
                            Op::Put(k, v)
                        }
                        _ => Op::Get(k, map.get(&k)),
                    };
                    let respond = clock.fetch_add(1, Ordering::Relaxed);
                    local.push(Event { invoke, respond, op });
                }
                local
            }));
        }
        for h in handles {
            events.extend(h.join().expect("history worker must not panic"));
        }
    });
    events
}

/// Run the histories recorded from each of `seeds` through the checker;
/// every one must linearize (Inconclusive is a failure too — the
/// histories are sized so the bounded search always finishes).
pub fn concurrent_histories_linearize(seeds: std::ops::Range<u64>) {
    for round in seeds {
        let history = record_history(round, 3, 7);
        match check_bounded(&history, 2_000_000) {
            Outcome::Linearizable(_) => {}
            Outcome::NotLinearizable => {
                panic!("round {round}: history not linearizable: {history:#?}")
            }
            Outcome::Inconclusive => {
                panic!("round {round}: checker budget exhausted (shrink the history)")
            }
        }
    }
}

/// Snapshot (`get_at`) conformance: a snapshot taken mid-stream must
/// keep answering from its own version while the map moves on.
pub fn snapshot_reads_match_model(seed: u64) {
    let map: JiffyMap<u64, u64> = JiffyMap::with_config(tiny_config());
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut rng = XorShift(seed | 1);
    for i in 0..600u64 {
        let k = rng.next() % 128;
        map.put(k, i);
        model.insert(k, i);
    }
    let snap = map.snapshot();
    let frozen = model.clone();
    for i in 0..600u64 {
        let k = rng.next() % 128;
        if i % 3 == 0 {
            map.remove(&k);
        } else {
            map.put(k, i + 10_000);
        }
    }
    for k in 0..128u64 {
        assert_eq!(snap.get(&k), frozen.get(&k).copied(), "snapshot get({k})");
    }
}
