//! Concurrent stress tests: hammer the lock-free machinery (splits,
//! merges, batch helping, snapshot GC) from many threads and check the
//! paper's consistency guarantees — linearizable single-key ops, atomic
//! batches, consistent snapshots.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use jiffy::{Batch, BatchOp, JiffyConfig, JiffyMap};

fn tiny_config() -> JiffyConfig {
    JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    }
}

fn threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().max(4)).unwrap_or(4)
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

#[test]
fn concurrent_disjoint_inserts() {
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    let n = threads();
    let per = 3000u64;
    thread::scope(|s| {
        for t in 0..n as u64 {
            let map = &map;
            s.spawn(move || {
                for i in 0..per {
                    let k = t * per + i;
                    map.put(k, k * 2);
                }
            });
        }
    });
    for k in 0..(n as u64 * per) {
        assert_eq!(map.get(&k), Some(k * 2), "key {k}");
    }
    assert_eq!(map.len_approx(), n * per as usize);
    let snap = map.snapshot();
    assert_eq!(snap.len(), n * per as usize);
}

#[test]
fn concurrent_interleaved_inserts_same_range() {
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    let n = threads();
    let keys = 4000u64;
    thread::scope(|s| {
        for t in 0..n as u64 {
            let map = &map;
            s.spawn(move || {
                let mut rng = XorShift(0x9E3779B97F4A7C15 ^ (t + 1));
                for _ in 0..keys {
                    let k = rng.next() % keys;
                    map.put(k, t);
                }
            });
        }
    });
    // Every key that was written holds some thread's id.
    let snap = map.snapshot();
    let all = snap.range(&0, usize::MAX);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "scan sorted & unique");
    for (_, v) in &all {
        assert!((*v as usize) < n);
    }
}

#[test]
fn concurrent_put_remove_churn() {
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    let n = threads();
    let key_space = 256u64; // small: constant splits AND merges
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        for t in 0..n as u64 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = XorShift(0xDEADBEEF ^ (t + 1));
                while !stop.load(Ordering::Relaxed) {
                    let r = rng.next();
                    let k = r % key_space;
                    if (r >> 32) % 2 == 0 {
                        map.put(k, r);
                    } else {
                        map.remove(&k);
                    }
                }
            });
        }
        thread::sleep(Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
    });
    // Structure must be intact afterwards: sorted unique scan, gets agree
    // with scan.
    let snap = map.snapshot();
    let all = snap.range(&0, usize::MAX);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
    for (k, v) in &all {
        assert_eq!(map.get(k), Some(*v), "get({k}) disagrees with scan");
    }
    for k in 0..key_space {
        if map.get(&k).is_some() {
            assert!(all.iter().any(|(ak, _)| ak == &k), "get sees {k}, scan missed it");
        }
    }
}

#[test]
fn readers_see_monotonic_single_key_history() {
    // A single key is incremented by one writer; concurrent readers must
    // never observe the value going backwards (linearizability of get).
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    map.put(7, 0);
    // Surround the key so splits/merges happen around it.
    for k in 0..64 {
        map.put(k * 10 + 1000, 0);
    }
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let map_w = &map;
        let stop_r = &stop;
        s.spawn(move || {
            for i in 1..=50_000u64 {
                map_w.put(7, i);
            }
            stop_r.store(true, Ordering::Relaxed);
        });
        for _ in 0..threads().saturating_sub(1).max(1) {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut last = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = map.get(&7).expect("key 7 never removed");
                    assert!(v >= last, "value went backwards: {last} -> {v}");
                    last = v;
                }
            });
        }
    });
    assert_eq!(map.get(&7), Some(50_000));
}

#[test]
fn batches_are_atomic_to_concurrent_snapshots() {
    // Writers move units between cells of their own stripe via batch
    // updates; the stripe total is invariant. Readers take snapshots of
    // the whole map and verify every stripe's total. Catches torn batches
    // across node boundaries, splits, merges and helping.
    const STRIPE: u64 = 32;
    let n = threads().min(6);
    let map: Arc<JiffyMap<u64, i64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for t in 0..n as u64 {
        for i in 0..STRIPE {
            map.put(t * STRIPE + i, 0);
        }
    }
    let stop = AtomicBool::new(false);
    let batches_done = AtomicU64::new(0);
    thread::scope(|s| {
        for t in 0..n as u64 {
            let map = &map;
            let stop = &stop;
            let batches_done = &batches_done;
            s.spawn(move || {
                let mut rng = XorShift(0xABCDEF ^ (t + 1));
                while !stop.load(Ordering::Relaxed) {
                    let a = t * STRIPE + rng.next() % STRIPE;
                    let b = t * STRIPE + rng.next() % STRIPE;
                    if a == b {
                        continue;
                    }
                    let va = map.get(&a).unwrap_or(0);
                    let vb = map.get(&b).unwrap_or(0);
                    map.batch(Batch::new(vec![BatchOp::Put(a, va - 5), BatchOp::Put(b, vb + 5)]));
                    batches_done.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        // Reader threads verify snapshot consistency.
        for _ in 0..2 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let snap = map.snapshot();
                    let all = snap.range(&0, usize::MAX);
                    let mut sums = vec![0i64; n];
                    for (k, v) in &all {
                        sums[(k / STRIPE) as usize] += v;
                    }
                    for (t, sum) in sums.iter().enumerate() {
                        // Writers of stripe t run ops sequentially, so a
                        // consistent snapshot always shows total 0.
                        assert_eq!(*sum, 0, "torn batch in stripe {t}");
                    }
                }
            });
        }
        thread::sleep(Duration::from_millis(2000));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(batches_done.load(Ordering::Relaxed) > 100, "writers made no progress");
    // Final totals also zero.
    let snap = map.snapshot();
    let total: i64 = snap.range(&0, usize::MAX).iter().map(|(_, v)| *v).sum();
    assert_eq!(total, 0);
}

#[test]
fn concurrent_overlapping_batches_serialize() {
    // All threads batch-update the SAME keys; after the dust settles every
    // key must hold the value from one single batch (no mixing), because
    // batches on identical key sets are totally ordered (§3.1 rule 3).
    const KEYS: u64 = 40;
    let n = threads().min(6);
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for k in 0..KEYS {
        map.put(k, u64::MAX);
    }
    thread::scope(|s| {
        for t in 0..n as u64 {
            let map = &map;
            s.spawn(move || {
                for round in 0..200u64 {
                    let stamp = t * 1_000_000 + round;
                    let ops: Vec<BatchOp<u64, u64>> =
                        (0..KEYS).map(|k| BatchOp::Put(k, stamp)).collect();
                    map.batch(Batch::new(ops));
                }
            });
        }
    });
    let snap = map.snapshot();
    let all = snap.range(&0, usize::MAX);
    assert_eq!(all.len(), KEYS as usize);
    let first = all[0].1;
    for (k, v) in &all {
        assert_eq!(*v, first, "key {k}: batches interleaved non-atomically");
    }
}

#[test]
fn snapshot_gc_under_churn_keeps_old_reads_valid() {
    // Hold a snapshot while writers churn; the inner GC must not reclaim
    // revisions the snapshot needs.
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for k in 0..512 {
        map.put(k, 1);
    }
    let snap = map.snapshot();
    let expected: Vec<(u64, u64)> = (0..512).map(|k| (k, 1)).collect();
    thread::scope(|s| {
        for t in 0..threads() as u64 {
            let map = &map;
            s.spawn(move || {
                let mut rng = XorShift(0x5ca1ab1e ^ (t + 1));
                for i in 0..30_000u64 {
                    let k = rng.next() % 512;
                    if i % 3 == 0 {
                        map.remove(&k);
                    } else {
                        map.put(k, i + 2);
                    }
                }
            });
        }
        // Read through the old snapshot concurrently with the churn.
        for _ in 0..4 {
            let got = snap.range(&0, usize::MAX);
            assert_eq!(got, expected, "old snapshot changed under churn");
        }
    });
    assert_eq!(snap.range(&0, usize::MAX), expected);
}

#[test]
fn merge_helper_races_keep_ranges_disjoint() {
    // Targeted stress for the reproduced ~1/40 debug-suite flake (the
    // `concat` "merge ranges must be adjacent and ordered" assert out of
    // `help_merge_terminator`, see CHANGES.md PR 4): a helper that read
    // the predecessor's head while stalled in merge phase 1 could build
    // a SECOND merge revision after the real one was adopted, completed,
    // and buried under fresh revisions — duplicating the merged node's
    // range, with stale history born-visible. The fix revalidates
    // `merge_rev` after reading the head; this test recreates the
    // conditions as hard as possible: constant merges (tiny revisions,
    // small key space, remove-heavy churn), constant helping (snapshot
    // readers + writers on the same nodes), and 3x oversubscription so
    // helpers get preempted inside the phase-1 window. In debug builds
    // the concat/adoption asserts police the invariant directly; the
    // final sweep checks get/scan agreement either way.
    // A dozen keys over 3-6 nodes: every merge, helper, and follow-up
    // put collides on the same few heads.
    const KEYS: u64 = 12;
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for k in 0..KEYS {
        map.put(k, 1);
    }
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let n = 3 * threads();
        for t in 0..n as u64 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = XorShift(0x9E37 ^ (t + 1));
                let mut i = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    let k = rng.next() % KEYS;
                    if t % 3 == 2 {
                        // Helper traffic: snapshot reads resolve pending
                        // merges/updates on whatever node covers k.
                        let snap = map.snapshot();
                        std::hint::black_box(snap.get(&k));
                    } else {
                        // Merge-heavy churn: remove then immediately
                        // repopulate, so nodes oscillate around the
                        // merge threshold and freshly merged heads grow
                        // new revisions at once (the racy window).
                        map.remove(&k);
                        map.put(k, i);
                        i += 1;
                    }
                    if i % 128 == 0 {
                        thread::yield_now();
                    }
                }
            });
        }
        thread::sleep(Duration::from_millis(2000));
        stop.store(true, Ordering::Relaxed);
    });
    // Structure intact: sorted unique scan, and gets agree with it.
    let snap = map.snapshot();
    let all = snap.range(&0, usize::MAX);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "duplicate or unsorted keys after churn");
    for (k, v) in &all {
        assert_eq!(map.get(k), Some(*v), "get({k}) disagrees with scan");
    }
}

#[test]
fn snapshot_registration_races_gc_floor_under_preemption() {
    // Targeted §3.3.4 stress for the GC-floor race fixed in PR 4 (one of
    // the defects found while root-causing the ~1/40 full-suite flake;
    // see CHANGES.md): the floor (`SnapRegistry::min_version`) used to
    // read its no-snapshot fallback clock *after* walking the slot list
    // and never capped slot-derived minima, so a floor scanner
    // descheduled mid-walk could publish a floor ABOVE a snapshot
    // registered during the walk — licensing the revision GC to cut
    // history that snapshot still needs (observable as a fresh snapshot
    // missing keys that were never removed).
    //
    // Reproduce the conditions deliberately: maximal floor-publication
    // frequency (the revision GC rescans the registry on every update
    // whose head is newer than the floor — the default), 3x thread
    // oversubscription, and yield injection around snapshot
    // registration so the preemption the 1-core box produced by accident
    // happens by design.
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    }));
    const KEYS: u64 = 64;
    for k in 0..KEYS {
        map.put(k, 1);
    }
    let stop = AtomicBool::new(false);
    let snapshots_taken = AtomicU64::new(0);
    let oversubscribed = 3 * threads();
    thread::scope(|s| {
        // Writers: hot churn over a small key space; puts only, so every
        // key stays present forever — any snapshot missing one read
        // through a GC overshoot.
        for t in 0..oversubscribed as u64 / 2 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = XorShift(0xF100D ^ (t + 1));
                let mut i = 2u64;
                while !stop.load(Ordering::Relaxed) {
                    map.put(rng.next() % KEYS, i);
                    i += 1;
                    if i % 64 == 0 {
                        thread::yield_now();
                    }
                }
            });
        }
        // Snapshotters: short-lived snapshots, registered as fast as
        // possible, with yields stretching the registration window the
        // floor race needs.
        for t in 0..(oversubscribed as u64 / 2).max(1) {
            let map = &map;
            let stop = &stop;
            let snapshots_taken = &snapshots_taken;
            s.spawn(move || {
                let mut rng = XorShift(0x5EE ^ (t + 1));
                while !stop.load(Ordering::Relaxed) {
                    thread::yield_now();
                    let snap = map.snapshot();
                    thread::yield_now();
                    for _ in 0..4 {
                        let k = rng.next() % KEYS;
                        assert!(
                            snap.get(&k).is_some(),
                            "key {k} (never removed) vanished from a fresh snapshot: \
                             the GC floor passed a live registration"
                        );
                    }
                    snapshots_taken.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        thread::sleep(Duration::from_millis(1500));
        stop.store(true, Ordering::Relaxed);
    });
    assert!(snapshots_taken.load(Ordering::Relaxed) > 100, "snapshotters made no progress");
}

#[test]
fn mixed_workload_smoke() {
    // Everything at once: puts, removes, gets, scans, batches, snapshots.
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(tiny_config()));
    for k in 0..1000 {
        map.put(k, k);
    }
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let roles = threads().max(4);
        for t in 0..roles as u64 {
            let map = &map;
            let stop = &stop;
            s.spawn(move || {
                let mut rng = XorShift(0xfeedface ^ (t + 1));
                while !stop.load(Ordering::Relaxed) {
                    match t % 4 {
                        0 => {
                            let k = rng.next() % 2000;
                            map.put(k, k + 1);
                            let k2 = rng.next() % 2000;
                            map.remove(&k2);
                        }
                        1 => {
                            let k = rng.next() % 2000;
                            let _ = map.get(&k);
                        }
                        2 => {
                            let lo = rng.next() % 2000;
                            let snap = map.snapshot();
                            let r = snap.range(&lo, 50);
                            assert!(r.windows(2).all(|w| w[0].0 < w[1].0));
                        }
                        _ => {
                            let base = rng.next() % 1900;
                            let ops: Vec<BatchOp<u64, u64>> = (0..10)
                                .map(|i| {
                                    if i % 3 == 0 {
                                        BatchOp::Remove(base + i * 7)
                                    } else {
                                        BatchOp::Put(base + i * 7, i)
                                    }
                                })
                                .collect();
                            map.batch(Batch::new(ops));
                        }
                    }
                }
            });
        }
        thread::sleep(Duration::from_millis(2000));
        stop.store(true, Ordering::Relaxed);
    });
    let snap = map.snapshot();
    let all = snap.range(&0, usize::MAX);
    assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
}
