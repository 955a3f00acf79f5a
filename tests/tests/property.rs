//! Property-style tests: random operation sequences keep every index
//! equivalent to `BTreeMap`, and core generators/invariants hold across
//! wide swaths of their input space.
//!
//! The build environment vendors no `proptest`, so these use a
//! deterministic seeded generator: every failure reproduces from the
//! printed seed, and coverage comes from running many independent cases.

use std::collections::BTreeMap;

use index_api::{Batch, BatchOp};
use system_tests::{all_indices, XorShift};

#[derive(Clone, Debug)]
enum MapOp {
    Put(u64, u64),
    Remove(u64),
    Get(u64),
    Batch(Vec<(u64, Option<u64>)>),
    Scan(u64, usize),
}

fn gen_op(rng: &mut XorShift) -> MapOp {
    let r = rng.next();
    match r % 10 {
        0..=2 => MapOp::Put(rng.next() % 200, rng.next()),
        3..=4 => MapOp::Remove(rng.next() % 200),
        5..=6 => MapOp::Get(rng.next() % 200),
        7..=8 => {
            let len = 1 + (rng.next() % 19) as usize;
            let entries = (0..len)
                .map(|_| {
                    let k = rng.next() % 200;
                    let v = if rng.next() & 1 == 0 { Some(rng.next()) } else { None };
                    (k, v)
                })
                .collect();
            MapOp::Batch(entries)
        }
        _ => MapOp::Scan(rng.next() % 200, (rng.next() % 50) as usize),
    }
}

fn gen_ops(rng: &mut XorShift, max_len: u64) -> Vec<MapOp> {
    let len = 1 + (rng.next() % max_len) as usize;
    (0..len).map(|_| gen_op(rng)).collect()
}

/// Fold a canonical batch into the model exactly like the index will.
fn apply_batch_to_model(batch: &Batch<u64, u64>, model: &mut BTreeMap<u64, u64>) {
    for op in batch.ops() {
        match op {
            BatchOp::Put(k, v) => {
                model.insert(*k, *v);
            }
            BatchOp::Remove(k) => {
                model.remove(k);
            }
        }
    }
}

/// Every index agrees with BTreeMap on arbitrary op sequences.
#[test]
fn indices_match_model() {
    for case in 0..24u64 {
        let mut rng = XorShift(0x9D1CE5 ^ (case.wrapping_mul(0x9E3779B97F4A7C15) | 1));
        let ops = gen_ops(&mut rng, 120);
        for index in all_indices() {
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for op in &ops {
                match op {
                    MapOp::Put(k, v) => {
                        index.put(*k, *v);
                        model.insert(*k, *v);
                    }
                    MapOp::Remove(k) => {
                        let got = index.remove(k);
                        assert_eq!(
                            got,
                            model.remove(k).is_some(),
                            "case {case}: {} remove {k}",
                            index.name()
                        );
                    }
                    MapOp::Get(k) => {
                        assert_eq!(
                            index.get(k),
                            model.get(k).copied(),
                            "case {case}: {} get {k}",
                            index.name()
                        );
                    }
                    MapOp::Batch(entries) => {
                        let ops: Vec<BatchOp<u64, u64>> = entries
                            .iter()
                            .map(|(k, v)| match v {
                                Some(v) => BatchOp::Put(*k, *v),
                                None => BatchOp::Remove(*k),
                            })
                            .collect();
                        let batch = Batch::new(ops);
                        apply_batch_to_model(&batch, &mut model);
                        index.batch_update(batch);
                    }
                    MapOp::Scan(lo, n) => {
                        let want: Vec<(u64, u64)> =
                            model.range(lo..).take(*n).map(|(k, v)| (*k, *v)).collect();
                        let ctx = format!("case {case}: {} scan from {lo}", index.name());
                        // All three scan surfaces agree, whether the index
                        // overrides them or inherits the adapters.
                        assert_eq!(index.scan_collect(lo, *n), want, "{ctx}");
                        let mut got = Vec::new();
                        index.scan_from(lo, *n, &mut |k, v| got.push((*k, *v)));
                        assert_eq!(got, want, "{ctx} (scan_from)");
                        let runs = gather_runs(*lo, *n, |sink| index.scan_runs(lo, *n, sink));
                        assert_eq!(runs.concat(), want, "{ctx} (scan_runs)");
                    }
                }
            }
        }
    }
}

/// Jiffy with pathologically small revisions (max structure churn) still
/// matches the model, including snapshots taken mid-sequence.
#[test]
fn jiffy_tiny_revisions_with_snapshots() {
    for case in 0..24u64 {
        let mut rng = XorShift(0x7A11 ^ (case.wrapping_mul(0xD1B54A32D192ED03) | 1));
        let ops = gen_ops(&mut rng, 150);
        let snap_at = (rng.next() % 100) as usize;
        let map: jiffy::JiffyMap<u64, u64> = jiffy::JiffyMap::with_config(jiffy::JiffyConfig {
            min_revision_size: 2,
            max_revision_size: 6,
            fixed_revision_size: Some(2),
            ..Default::default()
        });
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut snapshot = None;
        let mut snap_model = BTreeMap::new();
        for (i, op) in ops.iter().enumerate() {
            if i == snap_at {
                snapshot = Some(map.snapshot());
                snap_model = model.clone();
            }
            match op {
                MapOp::Put(k, v) => {
                    map.put(*k, *v);
                    model.insert(*k, *v);
                }
                MapOp::Remove(k) => {
                    assert_eq!(map.remove(k).is_some(), model.remove(k).is_some(), "case {case}");
                }
                MapOp::Get(k) => {
                    assert_eq!(map.get(k), model.get(k).copied(), "case {case}");
                }
                MapOp::Batch(entries) => {
                    let ops: Vec<BatchOp<u64, u64>> = entries
                        .iter()
                        .map(|(k, v)| match v {
                            Some(v) => BatchOp::Put(*k, *v),
                            None => BatchOp::Remove(*k),
                        })
                        .collect();
                    let batch = Batch::new(ops);
                    apply_batch_to_model(&batch, &mut model);
                    map.batch(batch);
                }
                MapOp::Scan(lo, n) => {
                    let snap = map.snapshot();
                    let got = snap.range(lo, *n);
                    let want: Vec<(u64, u64)> =
                        model.range(lo..).take(*n).map(|(k, v)| (*k, *v)).collect();
                    assert_eq!(got, want, "case {case}");
                }
            }
        }
        // The old snapshot still reflects the state at `snap_at`.
        if let Some(snap) = snapshot {
            let got = snap.range(&0, usize::MAX);
            let want: Vec<(u64, u64)> = snap_model.into_iter().collect();
            assert_eq!(got, want, "case {case}: snapshot drifted");
        }
    }
}

// --- The run contract (`scan_runs`) -------------------------------------

/// Gather the runs a scan from `lo` limited to `n` emits, checking the
/// contract on the way: no empty run, keys and values paired, keys `>=
/// lo` and strictly ascending within and across runs, at most `n`
/// entries in total.
fn gather_runs(
    lo: u64,
    n: usize,
    scan: impl FnOnce(&mut dyn FnMut(&[u64], &[u64])),
) -> Vec<Vec<(u64, u64)>> {
    let mut runs: Vec<Vec<(u64, u64)>> = Vec::new();
    scan(&mut |ks, vs| {
        assert!(!ks.is_empty(), "empty run");
        assert_eq!(ks.len(), vs.len(), "keys and values must pair up");
        runs.push(ks.iter().copied().zip(vs.iter().copied()).collect());
    });
    let keys: Vec<u64> = runs.iter().flatten().map(|(k, _)| *k).collect();
    assert!(keys.windows(2).all(|w| w[0] < w[1]), "keys must ascend across runs: {keys:?}");
    assert!(keys.iter().all(|k| *k >= lo), "a key below lo = {lo}: {keys:?}");
    assert!(keys.len() <= n, "{} entries for a limit of {n}", keys.len());
    runs
}

/// The `tiny_config` shape of the engine's own suites: revisions of ~4
/// entries, so a few hundred keys cross splits and merges constantly.
fn tiny_map() -> jiffy::JiffyMap<u64, u64> {
    jiffy::JiffyMap::with_config(jiffy::JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    })
}

fn model_range(model: &BTreeMap<u64, u64>, lo: u64, n: usize) -> Vec<(u64, u64)> {
    model.range(lo..).take(n).map(|(k, v)| (*k, *v)).collect()
}

/// For random `lo`/`n` over a structure churned by splits and merges,
/// the concatenation of `scan_runs` equals `scan_from` equals the model
/// — with `lo` on, inside, between and above the revisions, `n` cutting
/// a run in the middle, and the bounded consumers (`range_bounded`,
/// `export_range`, `len`, `iter_from`) clipping at `hi` the same way.
#[test]
fn scan_runs_match_scan_from_and_model() {
    for case in 0..12u64 {
        let mut rng = XorShift(0x5CA9 ^ (case.wrapping_mul(0x9E3779B97F4A7C15) | 1));
        let map = tiny_map();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        // Keys are multiples of 3, so two in three probes fall between.
        for i in 0..3000u64 {
            let k = (rng.next() % 400) * 3;
            if rng.next() % 3 == 0 {
                assert_eq!(map.remove(&k), model.remove(&k), "case {case}");
            } else {
                map.put(k, i);
                model.insert(k, i);
            }
        }
        let snap = map.snapshot();
        let all = gather_runs(0, usize::MAX, |sink| snap.scan_runs(&0, usize::MAX, sink));
        assert_eq!(all.concat(), model_range(&model, 0, usize::MAX), "case {case}: full scan");
        assert!(all.len() > 8, "case {case}: churn must leave many nodes, got {}", all.len());
        assert!(all.iter().any(|r| r.len() > 1), "case {case}: runs must be real slices");
        assert_eq!(snap.len(), model.len(), "case {case}: len sums the runs");
        assert!(!snap.is_empty());

        // `lo` at every run's first key, one past it (inside, or between
        // revisions when the run has one entry), and just below it
        // (between keys): the first run is clipped by lo, the rest whole.
        // `n` one short of the first run cuts it in the middle; one past
        // it takes a single entry of the next.
        for run in all.iter().step_by(3) {
            for lo in [run[0].0, run[0].0 + 1, run[0].0.saturating_sub(1)] {
                let got = gather_runs(lo, usize::MAX, |sink| snap.scan_runs(&lo, usize::MAX, sink));
                assert_eq!(
                    got.concat(),
                    model_range(&model, lo, usize::MAX),
                    "case {case} lo {lo}"
                );
                let Some(first) = got.first().map(Vec::len) else { continue };
                for n in [first - 1, first, first + 1] {
                    let cut = gather_runs(lo, n, |sink| snap.scan_runs(&lo, n, sink));
                    assert_eq!(
                        cut.concat(),
                        model_range(&model, lo, n),
                        "case {case} lo {lo} n {n}"
                    );
                    let want_runs = match n.cmp(&first) {
                        std::cmp::Ordering::Less => usize::from(n > 0),
                        std::cmp::Ordering::Equal => 1,
                        std::cmp::Ordering::Greater => got.len().min(2),
                    };
                    assert_eq!(cut.len(), want_runs, "case {case} lo {lo} n {n}: run boundaries");
                }
            }
        }
        // Above every revision, and the zero limit.
        assert!(gather_runs(1200, 9, |sink| snap.scan_runs(&1200, 9, sink)).is_empty());
        assert!(gather_runs(0, 0, |sink| snap.scan_runs(&0, 0, sink)).is_empty());

        for _ in 0..200 {
            let lo = rng.next() % 1300;
            let n = match rng.next() % 4 {
                0 => usize::MAX,
                1 => (rng.next() % 8) as usize,
                _ => (rng.next() % 300) as usize,
            };
            let want = model_range(&model, lo, n);
            let runs = gather_runs(lo, n, |sink| snap.scan_runs(&lo, n, sink));
            assert_eq!(runs.concat(), want, "case {case}: runs from {lo} limit {n}");
            let mut per_entry = Vec::new();
            snap.scan_from(&lo, n, &mut |k, v| per_entry.push((*k, *v)));
            assert_eq!(per_entry, want, "case {case}: scan_from {lo} limit {n}");
            assert_eq!(snap.range(&lo, n), want);
            assert_eq!(snap.iter_from(&lo).take(n).collect::<Vec<_>>(), want);

            // The upper bound clips by binary search inside whichever
            // window it falls into — on a key, between keys, at or
            // below `lo` (empty), past the end.
            let hi = rng.next() % 1300;
            let bounded: Vec<(u64, u64)> =
                model.range(lo..).take_while(|(k, _)| **k < hi).map(|(k, v)| (*k, *v)).collect();
            assert_eq!(snap.range_bounded(&lo, &hi), bounded, "case {case}: [{lo}, {hi})");
            let mut exported = Vec::new();
            snap.export_range(Some(&lo), Some(&hi), &mut |k, v| exported.push((*k, *v)));
            assert_eq!(exported, bounded, "case {case}: export [{lo}, {hi})");
            let mut below = Vec::new();
            snap.export_range(None, Some(&hi), &mut |k, v| below.push((*k, *v)));
            assert_eq!(below, model.range(..hi).map(|(k, v)| (*k, *v)).collect::<Vec<_>>());
        }
    }
}

/// A snapshot taken *before* nodes merge keeps reading the pre-merge
/// revisions: the resolver skips the merge revision (its version is
/// above the snapshot) and recurses into both branches with the window
/// split at the merged-away node's key — two runs for one node.
#[test]
fn scan_runs_split_the_window_under_a_skipped_merge() {
    let map = tiny_map();
    for k in 0..400u64 {
        map.put(k, k);
    }
    let before = map.snapshot();
    let want: Vec<(u64, u64)> = (0..400u64).map(|k| (k, k)).collect();
    let runs_before = gather_runs(0, usize::MAX, |s| before.scan_runs(&0, usize::MAX, s));
    assert_eq!(runs_before.concat(), want);
    // Empty most of the map: the survivors' nodes merge towards lower keys.
    for k in (0..400u64).filter(|k| k % 16 != 0) {
        map.remove(&k);
    }
    let nodes_now = map.debug_stats().nodes;
    assert!(nodes_now < runs_before.len(), "the removals must have merged nodes");
    // The old snapshot still reads its own instant, run by run...
    let runs = gather_runs(0, usize::MAX, |s| before.scan_runs(&0, usize::MAX, s));
    assert_eq!(runs.concat(), want, "a pre-merge snapshot drifted");
    // ...and more runs than there are nodes left means some node's
    // window was split below a skipped merge revision.
    assert!(
        runs.len() > nodes_now,
        "{} runs over {nodes_now} nodes: no window was split at a merge",
        runs.len()
    );
    // Limits and bounds land inside the split windows too.
    for (lo, n) in [(0u64, 7usize), (13, 40), (200, 1), (399, 5)] {
        let got = gather_runs(lo, n, |s| before.scan_runs(&lo, n, s)).concat();
        assert_eq!(got, want[lo as usize..(lo as usize + n).min(400)], "lo {lo} n {n}");
    }
    assert_eq!(before.range_bounded(&5, &300), want[5..300]);
    // A fresh snapshot sees only the survivors.
    let live = gather_runs(0, usize::MAX, |s| map.snapshot().scan_runs(&0, usize::MAX, s));
    assert_eq!(live.concat(), (0..400u64).step_by(16).map(|k| (k, k)).collect::<Vec<_>>());
}

/// A snapshot's runs never change: while a writer overwrites, removes
/// and batches across the whole key space (splitting and merging nodes
/// under the scanner), every scan of one snapshot reads the same map.
#[test]
fn scan_runs_of_a_snapshot_are_stable_under_a_writer() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Barrier;

    let map = tiny_map();
    for k in 0..600u64 {
        map.put(k * 2, 0);
    }
    let stop = AtomicBool::new(false);
    let started = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            let mut rng = XorShift(0xB17E);
            started.wait();
            let mut stamp = 1u64;
            while !stop.load(Ordering::Relaxed) {
                let k = rng.next() % 1200;
                match rng.next() % 4 {
                    0 => {
                        map.remove(&k);
                    }
                    1 => map.batch(Batch::new(
                        (0..6).map(|j| BatchOp::Put((k + j * 97) % 1200, stamp)).collect(),
                    )),
                    _ => {
                        map.put(k, stamp);
                    }
                }
                stamp += 1;
            }
        });
        // Stop the writer even if an assertion below unwinds.
        let _stop = system_tests::StopOnDrop(&stop);
        started.wait();
        let mut rng = XorShift(0x5EED);
        for round in 0..40 {
            let snap = map.snapshot();
            let frozen: BTreeMap<u64, u64> =
                gather_runs(0, usize::MAX, |sink| snap.scan_runs(&0, usize::MAX, sink))
                    .concat()
                    .into_iter()
                    .collect();
            for _ in 0..25 {
                let lo = rng.next() % 1250;
                let n = (rng.next() % 400) as usize;
                let got = gather_runs(lo, n, |sink| snap.scan_runs(&lo, n, sink)).concat();
                assert_eq!(got, model_range(&frozen, lo, n), "round {round}: snapshot moved");
            }
        }
    });
}

/// The zipfian sampler stays in range for arbitrary key spaces.
#[test]
fn zipf_in_range() {
    let mut rng = XorShift(0x21F);
    for _ in 0..40 {
        let n = 1 + rng.next() % 5_000_000;
        let z = workload::Zipfian::new(n);
        for _ in 0..50 {
            assert!(z.sample(rng.next()) < n, "zipf out of range for n={n}");
        }
    }
}

/// Key16 embeddings preserve order for arbitrary u64 pairs.
#[test]
fn key16_order_preserving() {
    let mut rng = XorShift(0xF00D);
    for _ in 0..10_000 {
        let (a, b) = (rng.next(), rng.next());
        let ka = workload::Key16::from(a);
        let kb = workload::Key16::from(b);
        assert_eq!(a.cmp(&b), ka.cmp(&kb));
        assert_eq!(ka.as_u64(), a);
    }
}

/// Batch canonicalization: sorted, unique, last-write-wins.
#[test]
fn batch_canonical() {
    let mut rng = XorShift(0xBA7C4);
    for _ in 0..200 {
        let len = (rng.next() % 60) as usize;
        let entries: Vec<(u64, u64)> = (0..len).map(|_| (rng.next() % 50, rng.next())).collect();
        let ops: Vec<BatchOp<u64, u64>> =
            entries.iter().map(|(k, v)| BatchOp::Put(*k, *v)).collect();
        let batch = Batch::new(ops);
        let keys: Vec<u64> = batch.ops().iter().map(|o| *o.key()).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "sorted + unique");
        // Last write wins.
        for op in batch.ops() {
            if let BatchOp::Put(k, v) = op {
                let last = entries.iter().rev().find(|(ek, _)| ek == k).unwrap().1;
                assert_eq!(*v, last);
            }
        }
    }
}
