//! Deterministic replays of historical races through the engine's
//! `audit-sched` probes (see `jiffy_audit::sched`): the merge-adoption
//! race (`merge::adopt-recheck`) and the stale-batch-group race
//! (`locate::validated`, ROADMAP F1).
//!
//! The merge-adoption bug (the ~1/40 debug-suite flake fixed in PR 4): a
//! merge helper preempted in phase 1 — predecessor chosen, head not yet
//! read — while a racing helper installed, adopted, and completed the
//! real merge revision. Waking up, the stalled helper reads a
//! predecessor head that already *contains* the merged node's data;
//! without the `merge_rev` re-check it builds a second merge revision
//! over it, duplicating the range with stale history born-visible. The
//! probe lets this test park a helper in exactly that window and drive
//! the racing completion to a fixed point before releasing it.
#![cfg(feature = "audit-sched")]

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use jiffy::{JiffyConfig, JiffyMap};

/// The flight recorder is process-wide and each replay reads its own
/// events back out of it by recorder thread id: one replay at a time.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn merge_adopt_recheck_probe_replays_the_duplicate_merge_revision_race() {
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // Recorder thread ids are dense in registration order; this test's
    // threads (this one included — it records nothing before the
    // prefill) register from here on.
    let recorders_before = jiffy_obs::snapshot().threads;
    // Tiny revisions: every few removes triggers a merge.
    let config = JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(4),
        ..Default::default()
    };
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(config));
    const KEYS: u64 = 64;
    for k in 0..KEYS {
        map.put(k, k);
    }

    let armed = Arc::new(AtomicBool::new(true));
    let (tx_win, rx_win) = mpsc::channel::<()>();
    let (tx_go, rx_go) = mpsc::channel::<()>();
    let rx_go = Mutex::new(rx_go);
    let h_armed = Arc::clone(&armed);
    // One-shot hook: the FIRST helper to reach the phase-1 window parks
    // there; every later arrival (the racing helpers this test drives)
    // passes straight through.
    let _h = jiffy_audit::sched::install(Arc::new(move |site| {
        if site == "merge::adopt-recheck" && h_armed.swap(false, Ordering::SeqCst) {
            tx_win.send(()).unwrap();
            rx_go.lock().unwrap().recv().unwrap();
        }
    }));

    let remover = {
        let map = Arc::clone(&map);
        std::thread::spawn(move || (0..KEYS).map(|k| map.remove(&k)).collect::<Vec<_>>())
    };
    // A merge helper is now parked between "predecessor chosen" and
    // "predecessor head read".
    rx_win
        .recv_timeout(Duration::from_secs(30))
        .expect("no merge reached the probe window (config no longer merge-prone?)");
    // Complete the merge underneath it: reads help pending merges on
    // every node they touch, so a full sweep is guaranteed to finish the
    // one in flight.
    for k in 0..KEYS {
        let _ = map.get(&k);
    }
    // Release the parked helper. It now re-reads a head that already
    // contains the merged data; only the merge_rev re-check keeps it
    // from installing a duplicate merge revision (in debug builds the
    // concat/adoption asserts fire on the buggy path; in release the
    // sweeps below catch the duplicated range).
    tx_go.send(()).unwrap();
    let removed = remover.join().unwrap();

    assert!(jiffy_audit::sched::hits("merge::adopt-recheck") >= 1);
    // Every key was removed exactly once, by the remover.
    for (k, r) in removed.iter().enumerate() {
        assert_eq!(*r, Some(k as u64), "remove({k}) observed corrupted merge state");
    }
    for k in 0..KEYS {
        assert_eq!(map.get(&k), None, "key {k} resurrected by a duplicated merge revision");
    }
    let mut live = Vec::new();
    map.scan_from(&0, usize::MAX, &mut |k, v| live.push((*k, *v)));
    assert!(live.is_empty(), "scan found resurrected entries: {live:?}");

    // Golden flight-recorder trace. The contested (first) merge's
    // lifecycle, read off the merged, version-ordered trace, must match
    // the checked-in fixture — in particular exactly one MergeAdopt:
    // the released helper's re-check adopting a second revision at the
    // same version IS the historical bug.
    let golden =
        read_golden(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/fixtures/merge_adopt_race.golden"));
    let trace = jiffy_obs::merged_trace();
    assert!(
        trace
            .windows(2)
            .all(|w| (w[0].stamp, w[0].thread, w[0].seq) <= (w[1].stamp, w[1].thread, w[1].seq)),
        "merged trace must be totally ordered by (stamp, thread, seq)"
    );
    let merges: Vec<&jiffy_obs::TraceEvent> = trace
        .iter()
        .filter(|e| e.thread >= recorders_before && e.kind.name().starts_with("Merge"))
        .collect();
    assert!(!merges.is_empty(), "the replay must record merge lifecycle events");
    // Build/Adopt carry the terminator's version, Complete/Cleanup the
    // merge revision's (later) one, so one merge's lifecycle is four
    // contiguous events in version order; the contested merge is the
    // first. The payload links agree: Build/Adopt/Complete share the
    // merge-revision pointer in `a`.
    let lifecycle: Vec<&str> = merges.iter().take(4).map(|e| e.kind.name()).collect();
    assert_eq!(lifecycle, golden, "contested-merge lifecycle diverged from the golden trace");
    assert_eq!(merges[0].a, merges[1].a, "Build and Adopt must share the merge revision");
    assert_eq!(merges[1].a, merges[2].a, "Adopt and Complete must share the merge revision");
}

/// The F1 race through the `locate::validated` probe.
///
/// F1's window lies between a batch helper's read of the descriptor's
/// `progress` and its read of the head it will CAS against. The probe
/// marks the *end* of a locate, so the replay opens the window with a
/// help detour: the node of the batch's last group carries the pending
/// head of a third, stalled batch, the helper's locate goes off to help
/// that one, and is parked at the probe of the *nested* locate — after
/// `progress` was read, before the outer head is. Meanwhile the owner
/// finishes the stalled batch, installs its own last group (a merge)
/// and finalizes, and a later `put` brings back the key that group
/// removed. Released, the helper reads that put's finalized head, which
/// looks like any other; without the validate-after-read rule in
/// `help_batch` it installs the group a second time, on top of the
/// later write: the key is removed again, though the last acknowledged
/// operation on it was the put. (Had the put not come, the head would be
/// the batch's own revision, which `help_batch` tells by its descriptor;
/// before F1 was fixed it told by `is_pending()`, saw "finalized", and
/// re-installed there too — on a merge revision at the split threshold,
/// a split whose right half is never published. That is the shape
/// `tests/tests/batch_vs_scan.rs` catches on the parent commit.)
#[test]
fn locate_validated_probe_replays_the_stale_batch_group_race() {
    use jiffy::{Batch, BatchOp};
    let _serial = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());

    // Fixed target 8: a node splits at 16 entries and merges at 2.
    let config = JiffyConfig {
        min_revision_size: 2,
        max_revision_size: 8,
        fixed_revision_size: Some(8),
        ..Default::default()
    };
    let map: Arc<JiffyMap<u64, u64>> = Arc::new(JiffyMap::with_config(config));
    // Four nodes of eight keys: [0..70] (base), [80..150], [160..230],
    // [240..310]. Grow the base node to 14 and shrink its right
    // neighbour to 3, so that neighbour's next remove merges it away
    // into a 16-entry node.
    for k in (0..320).step_by(10) {
        map.put(k, k);
    }
    for k in [5, 15, 25, 35, 45, 55] {
        map.put(k, k);
    }
    for k in [110, 120, 130, 140, 150] {
        assert_eq!(map.remove(&k), Some(k));
    }
    let mut model: Vec<(u64, u64)> = Vec::new();
    map.scan_from(&0, usize::MAX, &mut |k, v| model.push((*k, *v)));
    assert_eq!(model.len(), 33);
    // Everything from here on is recorded by the threads spawned below
    // (this thread registered during the prefill's splits).
    let recorders_before = jiffy_obs::snapshot().threads;

    // The script, by thread name and per-thread hit count of the probe.
    // Each parked thread announces itself on `tx_at` and waits for its
    // own release.
    let hits = Mutex::new(std::collections::HashMap::<String, u32>::new());
    let (tx_at, rx_at) = mpsc::channel::<&'static str>();
    let tx_at = Mutex::new(tx_at);
    let mut release = std::collections::HashMap::new();
    let mut parked = std::collections::HashMap::new();
    for who in ["staller", "owner", "helper"] {
        let (tx, rx) = mpsc::channel::<()>();
        release.insert(who, tx);
        parked.insert(who, Mutex::new(rx));
    }
    let _h = jiffy_audit::sched::install(Arc::new(move |site| {
        if site != "locate::validated" {
            return;
        }
        let thread = std::thread::current();
        let Some(name) = thread.name() else { return };
        let nth = {
            let mut hits = hits.lock().unwrap();
            let n = hits.entry(name.to_string()).or_insert(0);
            *n += 1;
            *n
        };
        let who = match (name, nth) {
            // Group 0 (key 90) installed, about to install group 1.
            ("staller", 2) => "staller",
            // Own group 0 (key 240) installed; this is the nested locate
            // of helping the staller out of the way of group 1.
            ("owner", 2) => "owner",
            // Its `put` met the owner's pending group 0, read
            // `progress == 1`, and is in the same nested locate.
            ("helper", 1) => "helper",
            _ => return,
        };
        tx_at.lock().unwrap().send(who).unwrap();
        parked[who].lock().unwrap().recv().unwrap();
    }));
    let spawn = |name: &str, body: fn(&JiffyMap<u64, u64>)| {
        let map = Arc::clone(&map);
        std::thread::Builder::new().name(name.into()).spawn(move || body(&map)).unwrap()
    };
    let wait_for = |who: &str| {
        assert_eq!(rx_at.recv_timeout(Duration::from_secs(30)).as_deref(), Ok(who));
    };

    // Highest key first in every batch.
    let staller = spawn("staller", |map| {
        map.batch(Batch::new(vec![BatchOp::Put(90, 9), BatchOp::Put(5, 9)]))
    });
    wait_for("staller");
    // Group 0 is the put on [240..310], group 1 the remove that merges
    // [80..100] into the base node.
    let owner = spawn("owner", |map| {
        map.batch(Batch::new(vec![BatchOp::Put(240, 1), BatchOp::Remove(100)]))
    });
    wait_for("owner");
    let helper = spawn("helper", |map| {
        map.put(250, 2);
    });
    wait_for("helper");
    release["owner"].send(()).unwrap();
    owner.join().unwrap();
    // A later write over the batch's (now final) merge revision: 17
    // entries, so it splits the node, and key 100 lives on.
    assert_eq!(map.put(100, 5), None);
    release["helper"].send(()).unwrap();
    helper.join().unwrap();
    release["staller"].send(()).unwrap();
    staller.join().unwrap();

    for e in model.iter_mut() {
        match e.0 {
            5 | 90 => e.1 = 9,
            240 => e.1 = 1,
            250 => e.1 = 2,
            _ => {}
        }
    }
    model.iter_mut().find(|e| e.0 == 100).unwrap().1 = 5;
    let mut live = Vec::new();
    map.scan_from(&0, usize::MAX, &mut |k, v| live.push((*k, *v)));
    assert_eq!(live, model, "a stale helper re-installed the finalized batch group");
    for (k, v) in &model {
        assert_eq!(map.get(k), Some(*v));
    }

    // Golden flight-recorder trace: the structure events the three
    // threads recorded are exactly the one merge's lifecycle (the later
    // put's split is this thread's). F1's tell was a `SplitBuild`
    // carrying the batch's already-final version.
    let golden = read_golden(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/batch_stale_group_race.golden"
    ));
    let trace = jiffy_obs::merged_trace();
    let structure: Vec<&str> = trace
        .iter()
        .filter(|e| e.thread >= recorders_before)
        .map(|e| e.kind.name())
        .filter(|n| n.starts_with("Merge") || n.starts_with("Split"))
        .collect();
    assert_eq!(structure, golden, "structure events diverged from the golden trace");
}

/// Fixture lines, comments and blanks stripped.
fn read_golden(path: &str) -> Vec<String> {
    std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("golden fixture {path}: {e}"))
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect()
}
