//! Conformance: every index in the evaluation must implement the common
//! map semantics correctly — sequentially (vs `BTreeMap`) and under
//! concurrent churn (structural invariants).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};

use index_api::{Batch, BatchOp};
use system_tests::{all_indices, atomic_batch_indices, consistent_scan_indices, XorShift};

#[test]
fn sequential_model_equivalence_all_indices() {
    for index in all_indices() {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = XorShift(0xA11CE ^ 7);
        for i in 0..15_000u64 {
            let r = rng.next();
            let k = r % 777;
            match (r >> 32) % 4 {
                0 => {
                    let removed = index.remove(&k);
                    assert_eq!(
                        removed,
                        model.remove(&k).is_some(),
                        "{}: remove {k} @ {i}",
                        index.name()
                    );
                }
                _ => {
                    index.put(k, i);
                    model.insert(k, i);
                }
            }
            if i % 2048 == 0 {
                for probe in (0..777).step_by(31) {
                    assert_eq!(
                        index.get(&probe),
                        model.get(&probe).copied(),
                        "{}: get {probe} @ {i}",
                        index.name()
                    );
                }
            }
        }
        // Final state: full sweep + ordered scan.
        for k in 0..777 {
            assert_eq!(index.get(&k), model.get(&k).copied(), "{}: final get {k}", index.name());
        }
        let scanned = index.scan_collect(&0, usize::MAX);
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(scanned, want, "{}: final scan", index.name());
    }
}

#[test]
fn scan_visits_exactly_min_n_entries_all_indices() {
    // The benchmark harness credits scans by what the sink saw, so that
    // accounting is only as honest as scan_from itself: for every index,
    // scan_from(lo, n) must visit exactly min(n, #entries >= lo) entries
    // — the right entries, in order — including starts near the top of
    // the key space and in sparse regions.
    for index in all_indices() {
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = XorShift(0xBEEF ^ 3);
        // Irregular, clustered key set over a sparse space.
        for _ in 0..3_000 {
            let r = rng.next();
            let k = (r % 5_000) * ((r >> 40) % 4 + 1);
            index.put(k, r);
            model.insert(k, r);
        }
        // Includes the sharded fixtures' split points (64/512/4096) and
        // their predecessors, so limited scans straddle shard boundaries
        // mid-flight and start exactly on them.
        let lows = [
            0u64,
            1,
            17,
            63,
            64,
            511,
            512,
            4_096,
            4_999,
            5_000,
            9_999,
            10_000,
            19_999,
            20_000,
            u64::MAX,
        ];
        let limits = [0usize, 1, 7, 100, 2_999, 3_000, 50_000, usize::MAX];
        for lo in lows {
            for n in limits {
                let got = index.scan_collect(&lo, n);
                let want: Vec<(u64, u64)> =
                    model.range(lo..).take(n).map(|(k, v)| (*k, *v)).collect();
                assert_eq!(
                    got.len(),
                    want.len(),
                    "{}: scan_from({lo}, {n}) visited {} entries, expected min(n, entries >= lo) = {}",
                    index.name(),
                    got.len(),
                    want.len()
                );
                assert_eq!(got, want, "{}: scan_from({lo}, {n}) content", index.name());
            }
        }
    }
}

#[test]
fn scan_limits_and_bounds_all_indices() {
    for index in all_indices() {
        for k in (0..1000).step_by(2) {
            index.put(k, k + 1);
        }
        let first5 = index.scan_collect(&0, 5);
        assert_eq!(first5.len(), 5, "{}", index.name());
        assert_eq!(first5[0], (0, 1), "{}", index.name());
        let mid = index.scan_collect(&501, 3);
        assert_eq!(mid[0].0, 502, "{}", index.name());
        assert!(index.scan_collect(&10_000, 5).is_empty(), "{}", index.name());
        assert!(index.scan_collect(&0, 0).is_empty(), "{}", index.name());
    }
}

#[test]
fn batch_semantics_all_indices() {
    // All indices apply batches *correctly* (content-wise); only some
    // apply them atomically — checked separately below.
    for index in all_indices() {
        for k in 0..50 {
            index.put(k, 0);
        }
        index.batch_update(Batch::new(vec![
            BatchOp::Put(10, 99),
            BatchOp::Remove(20),
            BatchOp::Put(60, 1),
            BatchOp::Remove(61), // absent key: must be a no-op
        ]));
        assert_eq!(index.get(&10), Some(99), "{}", index.name());
        assert_eq!(index.get(&20), None, "{}", index.name());
        assert_eq!(index.get(&60), Some(1), "{}", index.name());
        assert_eq!(index.get(&61), None, "{}", index.name());
    }
}

#[test]
fn concurrent_churn_structural_invariants_all_indices() {
    for index in all_indices() {
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let index = &index;
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = XorShift(t * 31 + 5);
                    while !stop.load(Ordering::Relaxed) {
                        let r = rng.next();
                        let k = r % 512;
                        if (r >> 32) & 1 == 0 {
                            index.put(k, r);
                        } else {
                            index.remove(&k);
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(600));
            stop.store(true, Ordering::Relaxed);
        });
        // Sorted, duplicate-free scan; gets agree with the scan.
        let entries = index.scan_collect(&0, usize::MAX);
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "{}: scan unsorted/duplicated",
            index.name()
        );
        for (k, v) in &entries {
            assert_eq!(index.get(k), Some(*v), "{}: get/scan disagree on {k}", index.name());
        }
    }
}

#[test]
fn consistent_scans_see_atomic_key_pairs() {
    // Writers keep key pairs (2i, 2i+1) in lockstep by writing both with
    // the same stamp via two puts... that is NOT atomic, so instead
    // exercise: insert+remove of odd keys around a stable even set. A
    // consistent scan must always see exactly the evens in order, plus
    // possibly some odd keys — but never a *missing* even.
    for index in consistent_scan_indices() {
        for k in 0..800 {
            index.put(k * 2, 7);
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let index = &index;
                let stop = &stop;
                s.spawn(move || {
                    let mut rng = XorShift(t + 42);
                    while !stop.load(Ordering::Relaxed) {
                        let k = (rng.next() % 800) * 2 + 1;
                        index.put(k, 1);
                        index.remove(&k);
                    }
                });
            }
            for _ in 0..30 {
                let entries = index.scan_collect(&0, usize::MAX);
                let evens = entries.iter().filter(|(k, _)| k % 2 == 0).count();
                assert_eq!(evens, 800, "{}: consistent scan lost evens", index.name());
                assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "{}", index.name());
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

#[test]
fn atomic_batches_never_tear() {
    // The §4.2 batch test at correctness level: each batch writes the
    // same stamp to an entire column of keys; scans must never observe
    // two different stamps within a column.
    const COLS: u64 = 4;
    const ROWS: u64 = 32;
    for index in atomic_batch_indices() {
        for c in 0..COLS {
            let ops = (0..ROWS).map(|r| BatchOp::Put(c * ROWS + r, 0)).collect();
            index.batch_update(Batch::new(ops));
        }
        let stop = AtomicBool::new(false);
        std::thread::scope(|s| {
            for c in 0..COLS {
                let index = &index;
                let stop = &stop;
                s.spawn(move || {
                    let mut stamp = 1u64;
                    while !stop.load(Ordering::Relaxed) {
                        let ops = (0..ROWS).map(|r| BatchOp::Put(c * ROWS + r, stamp)).collect();
                        index.batch_update(Batch::new(ops));
                        stamp += 1;
                    }
                });
            }
            for _ in 0..50 {
                let entries = index.scan_collect(&0, usize::MAX);
                assert_eq!(entries.len(), (COLS * ROWS) as usize, "{}", index.name());
                for c in 0..COLS {
                    let col: Vec<u64> =
                        entries.iter().filter(|(k, _)| k / ROWS == c).map(|(_, v)| *v).collect();
                    assert!(
                        col.windows(2).all(|w| w[0] == w[1]),
                        "{}: torn batch in column {c}: {col:?}",
                        index.name()
                    );
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    }
}

/// Probe one index for batch tearing: concurrent writers stamp whole
/// columns atomically (they believe); scanners look for a column showing
/// two different stamps. Returns true if a torn batch was observed.
fn probe_batch_tearing(index: &dyn index_api::OrderedIndex<u64, u64>) -> bool {
    const COLS: u64 = 2;
    const ROWS: u64 = 24;
    for c in 0..COLS {
        let ops = (0..ROWS).map(|r| BatchOp::Put(c * ROWS + r, 0)).collect();
        index.batch_update(Batch::new(ops));
    }
    let stop = AtomicBool::new(false);
    let mut torn = false;
    std::thread::scope(|s| {
        for c in 0..COLS {
            let stop = &stop;
            let index = &index;
            s.spawn(move || {
                let mut stamp = 1u64;
                while !stop.load(Ordering::Relaxed) {
                    let ops = (0..ROWS).map(|r| BatchOp::Put(c * ROWS + r, stamp)).collect();
                    index.batch_update(Batch::new(ops));
                    stamp += 1;
                }
            });
        }
        for _ in 0..200 {
            let entries = index.scan_collect(&0, usize::MAX);
            for c in 0..COLS {
                let col: Vec<u64> =
                    entries.iter().filter(|(k, _)| k / ROWS == c).map(|(_, v)| *v).collect();
                if col.windows(2).any(|w| w[0] != w[1]) {
                    torn = true;
                }
            }
            if torn {
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    torn
}

/// Probe one index for scan inconsistency: writers churn odd keys around a
/// fixed even-key set; a linearizable scan must always see every even key.
/// Returns true if a scan missed part of the stable set.
fn probe_scan_inconsistency(index: &dyn index_api::OrderedIndex<u64, u64>) -> bool {
    const EVENS: u64 = 400;
    for k in 0..EVENS {
        index.put(k * 2, 7);
    }
    let stop = AtomicBool::new(false);
    let mut inconsistent = false;
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let stop = &stop;
            let index = &index;
            s.spawn(move || {
                let mut rng = XorShift(t + 99);
                while !stop.load(Ordering::Relaxed) {
                    let k = (rng.next() % EVENS) * 2 + 1;
                    index.put(k, 1);
                    index.remove(&k);
                }
            });
        }
        for _ in 0..100 {
            let entries = index.scan_collect(&0, usize::MAX);
            let evens = entries.iter().filter(|(k, _)| k % 2 == 0).count();
            if evens != EVENS as usize {
                inconsistent = true;
                break;
            }
        }
        stop.store(true, Ordering::Relaxed);
    });
    inconsistent
}

#[test]
fn capability_flags_match_observed_behavior() {
    // The §4.1 satellite check: an index's advertised capabilities must
    // hold up under an adversarial probe. The falsifiable direction —
    // "claims it, must never be caught violating it" — is asserted for
    // every index; for the known-weak CSLM scan path the probe is still
    // run so a future accidental strengthening or weakening of a flag
    // shows up here as drift between flag and behavior.
    for index in all_indices() {
        let torn = probe_batch_tearing(&*index);
        assert!(
            !(index.supports_atomic_batch() && torn),
            "{} advertises atomic batches but a scan observed a torn batch",
            index.name()
        );
    }
    for index in all_indices() {
        let inconsistent = probe_scan_inconsistency(&*index);
        assert!(
            !(index.supports_consistent_scan() && inconsistent),
            "{} advertises consistent scans but a scan missed stable keys",
            index.name()
        );
    }
}

#[test]
fn index_capability_flags_match_paper() {
    // §4.1: all tested indices have linearizable scans except CSLM;
    // batch updates only in Jiffy, CA-AVL, CA-SL. The sharded map keeps
    // both flags.
    let names_consistent: Vec<&str> = consistent_scan_indices().iter().map(|i| i.name()).collect();
    assert!(!names_consistent.contains(&"cslm"));
    assert!(names_consistent.contains(&"jiffy"));
    assert_eq!(names_consistent.iter().filter(|n| **n == "elastic-jiffy").count(), 1);
    let names_batch: Vec<&str> = atomic_batch_indices().iter().map(|i| i.name()).collect();
    // The paper's batch-capable set; our CA-imm shares the CA trees' 2PL
    // batch machinery, so it also qualifies (a strict superset is fine).
    assert!(names_batch.contains(&"jiffy"));
    assert!(names_batch.contains(&"ca-avl"));
    assert!(names_batch.contains(&"ca-sl"));
    assert_eq!(names_batch.iter().filter(|n| **n == "elastic-jiffy").count(), 1);
    for unsupported in ["cslm", "lfca", "k-ary", "snaptree"] {
        assert!(!names_batch.contains(&unsupported), "{unsupported} must not claim atomic batches");
    }
}
