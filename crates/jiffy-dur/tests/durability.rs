//! The corruption matrix and the recovery roundtrips: every way a WAL
//! or checkpoint can arrive damaged, each must recover cleanly to the
//! last valid prefix (or the previous checkpoint) — never panic, never
//! tear. The crash-injection family (process-death at failpoints) lives
//! in the workspace `system-tests` crate; this file owns the
//! file-surgery half.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use index_api::{Batch, BatchOp, BulkLoad, OrderedIndex};
use jiffy::JiffyMap;
use jiffy_dur::{corrupt, wal, DurOptions, Durability, DurableMap};

type Inner = JiffyMap<u64, u64>;
type Dur = DurableMap<Inner>;

fn tmp(name: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("jiffy-dur-it-{}-{}", std::process::id(), name));
    let _ = fs::remove_dir_all(&d);
    d
}

fn opts() -> DurOptions {
    DurOptions { mode: Durability::Fsync, stripes: 3, chunk_entries: 8, ..Default::default() }
}

fn open(dir: &Path) -> (Dur, jiffy_dur::RecoveryReport) {
    DurableMap::open(JiffyMap::new(), dir, opts()).expect("open durable map")
}

fn contents(m: &Dur) -> Vec<(u64, u64)> {
    m.scan_collect(&0, usize::MAX)
}

/// Every stripe's segment files, sorted, for surgical corruption.
fn seg_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for i in 0..opts().stripes {
        let sd = wal::stripe_dir(dir, i);
        if let Ok(rd) = fs::read_dir(&sd) {
            for e in rd.flatten() {
                out.push(e.path());
            }
        }
    }
    out.sort();
    out
}

#[test]
fn wal_roundtrip_puts_removes_batches() {
    let dir = tmp("roundtrip");
    {
        let (m, rep) = open(&dir);
        assert_eq!(rep.replayed, 0);
        for k in 0..40u64 {
            m.put(k, k * 10).unwrap();
        }
        m.remove(&7).unwrap();
        m.batch_update(Batch::new(vec![
            BatchOp::Put(100, 1),
            BatchOp::Put(200, 2),
            BatchOp::Remove(5),
            BatchOp::Put(300, 3),
        ]))
        .unwrap();
        m.put(100, 4).unwrap(); // overwrite after the batch
    }
    let (m2, rep) = open(&dir);
    assert!(rep.replayed > 0, "everything should come back via replay: {rep:?}");
    assert_eq!(rep.checkpoint, None);
    assert_eq!(m2.get(&7), None);
    assert_eq!(m2.get(&5), None);
    assert_eq!(m2.get(&100), Some(4));
    assert_eq!(m2.get(&200), Some(2));
    assert_eq!(m2.get(&300), Some(3));
    assert_eq!(contents(&m2).len(), 40 - 2 + 3);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_then_tail_replay_and_pruning() {
    let dir = tmp("ckpt-tail");
    let before;
    {
        let (m, _) = open(&dir);
        for k in 0..100u64 {
            m.put(k, k).unwrap();
        }
        let r1 = m.checkpoint().unwrap();
        assert!(r1.chunks >= 2, "chunk_entries=8 must force multiple chunks: {r1:?}");
        assert_eq!(r1.entries, 100);
        for k in 0..50u64 {
            m.put(k, k + 1000).unwrap(); // tail past the checkpoint
        }
        // A second checkpoint makes the first prunable-but-retained.
        let r2 = m.checkpoint().unwrap();
        assert_eq!(r2.id, r1.id + 1);
        for k in 200..220u64 {
            m.put(k, k).unwrap();
        }
        before = contents(&m);
    }
    let (m2, rep) = open(&dir);
    assert_eq!(rep.checkpoint, Some(2));
    assert_eq!(rep.checkpoint_entries, 100);
    assert_eq!(rep.replayed, 20, "only the post-checkpoint tail replays: {rep:?}");
    assert_eq!(contents(&m2), before);
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn reopen_with_wrong_stripe_count_is_refused() {
    let dir = tmp("stripe-mismatch");
    {
        let (m, _) = open(&dir);
        m.put(1, 1).unwrap();
    }
    let bad = DurOptions { stripes: 5, ..opts() };
    let err = match DurableMap::open(Inner::new(), &dir, bad) {
        Err(e) => e,
        Ok(_) => panic!("stripe-count mismatch must be refused"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    let _ = fs::remove_dir_all(&dir);
}

// ---- the corruption matrix -------------------------------------------------

/// Torn tail record: the last segment loses its final bytes mid-record.
/// Recovery keeps the valid prefix and repairs the file.
#[test]
fn corruption_torn_tail_record() {
    let dir = tmp("torn-tail");
    {
        let (m, _) = open(&dir);
        for k in 0..30u64 {
            m.put(k, k).unwrap();
        }
    }
    // Cut 5 bytes off every stripe's newest segment: each stripe loses
    // exactly its last record (the rest decode clean).
    for f in seg_files(&dir) {
        let len = corrupt::len_of(&f).unwrap();
        if len > wal::SEG_HEADER as u64 + 5 {
            corrupt::truncate_to(&f, len - 5).unwrap();
        }
    }
    let (m2, rep) = open(&dir);
    assert!(rep.torn_stripes >= 1, "{rep:?}");
    let got = contents(&m2).len();
    assert!(got >= 30 - opts().stripes && got < 30, "lost exactly the torn tails, got {got}");
    // The repaired log must reopen clean and keep accepting writes.
    {
        let m3 = m2;
        m3.put(999, 999).unwrap();
    }
    let (m4, rep) = open(&dir);
    assert_eq!(rep.torn_stripes, 0, "repair must leave a clean log: {rep:?}");
    assert_eq!(m4.get(&999), Some(999));
    let _ = fs::remove_dir_all(&dir);
}

/// Bad checksum mid-log: a bit flip in an early record. The stripe
/// recovers to the prefix before the flip; no panic.
#[test]
fn corruption_bad_checksum_mid_log() {
    let dir = tmp("midlog-flip");
    {
        let (m, _) = open(&dir);
        for k in 0..60u64 {
            m.put(k, k).unwrap();
        }
    }
    let files = seg_files(&dir);
    // Flip a bit early in the record area of the first stripe file.
    corrupt::flip_bit(&files[0], wal::SEG_HEADER as u64 + 12, 3).unwrap();
    let (m2, rep) = open(&dir);
    assert!(rep.torn_stripes >= 1, "{rep:?}");
    let got = contents(&m2);
    assert!(got.len() < 60, "the flipped stripe must lose its suffix");
    for (k, v) in got {
        assert_eq!(k, v, "surviving records are intact");
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Truncated length prefix: the tail ends inside the 8-byte frame
/// header. Recovery stops at the boundary before it.
#[test]
fn corruption_truncated_length_prefix() {
    let dir = tmp("trunc-len");
    {
        let (m, _) = open(&dir);
        for k in 0..12u64 {
            m.put(k, k).unwrap();
        }
    }
    for f in seg_files(&dir) {
        let len = corrupt::len_of(&f).unwrap();
        if len > wal::SEG_HEADER as u64 + 3 {
            // Leave 3 bytes of a frame header dangling.
            let keep = wal::SEG_HEADER as u64 + 3;
            corrupt::truncate_to(&f, keep).unwrap();
        }
    }
    let (m2, rep) = open(&dir);
    assert!(rep.torn_stripes >= 1, "{rep:?}");
    assert_eq!(contents(&m2), vec![], "3 dangling bytes decode to zero records");
    let _ = fs::remove_dir_all(&dir);
}

/// An absurd length prefix (garbage appended as a frame header) must
/// not make the reader allocate or read gigabytes.
#[test]
fn corruption_absurd_length_prefix() {
    let dir = tmp("absurd-len");
    {
        let (m, _) = open(&dir);
        m.put(1, 1).unwrap();
    }
    for f in seg_files(&dir) {
        corrupt::append_garbage(&f, &u32::MAX.to_le_bytes()).unwrap();
        corrupt::append_garbage(&f, &[0xab; 12]).unwrap();
    }
    let (m2, rep) = open(&dir);
    assert!(rep.torn_stripes >= 1);
    assert_eq!(m2.get(&1), Some(1));
    let _ = fs::remove_dir_all(&dir);
}

/// Duplicate-version records (replay overlap): the same encoded record
/// appended twice decodes as a non-monotone seq and is skipped, not
/// re-applied and not fatal.
#[test]
fn corruption_duplicate_version_records() {
    let dir = tmp("dup-seq");
    {
        let (m, _) = open(&dir);
        m.put(10, 1).unwrap();
        m.put(10, 2).unwrap();
    }
    // Duplicate the whole record area of each stripe file onto its own
    // tail: every record now appears twice, old seqs after new ones.
    for f in seg_files(&dir) {
        let bytes = fs::read(&f).unwrap();
        let area = bytes[wal::SEG_HEADER..].to_vec();
        if !area.is_empty() {
            corrupt::append_garbage(&f, &area).unwrap();
        }
    }
    let (m2, rep) = open(&dir);
    assert_eq!(m2.get(&10), Some(2), "stale duplicate must not overwrite the newer value");
    assert!(rep.skipped_stale >= 2, "duplicates must be counted as stale: {rep:?}");
    assert_eq!(rep.torn_stripes, 0, "duplicated valid bytes are not a tear");
    let _ = fs::remove_dir_all(&dir);
}

/// A corrupt chunk in the newest checkpoint: recovery falls back to the
/// previous checkpoint plus a longer WAL tail, losing nothing.
#[test]
fn corruption_checkpoint_chunk_falls_back() {
    let dir = tmp("ckpt-fallback");
    let before;
    {
        let (m, _) = open(&dir);
        for k in 0..64u64 {
            m.put(k, k).unwrap();
        }
        m.checkpoint().unwrap(); // ck-1: survives
        for k in 0..64u64 {
            m.put(k, k + 500).unwrap();
        }
        m.checkpoint().unwrap(); // ck-2: about to be corrupted
        m.put(1000, 1000).unwrap();
        before = contents(&m);
    }
    let ck2 = jiffy_dur::checkpoint::ckpt_dir(&dir, 2);
    corrupt::flip_bit(&jiffy_dur::checkpoint::chunk_path(&ck2, 0), 20, 1).unwrap();
    let (m2, rep) = open(&dir);
    assert_eq!(rep.checkpoint, Some(1), "must fall back to ck-1: {rep:?}");
    assert!(rep.checkpoints_rejected >= 1);
    assert_eq!(contents(&m2), before, "fallback + longer replay loses nothing");
    let _ = fs::remove_dir_all(&dir);
}

/// A checkpoint directory with no manifest (a crashed attempt) is
/// ignored entirely.
#[test]
fn corruption_manifestless_checkpoint_ignored() {
    let dir = tmp("no-manifest");
    let before;
    {
        let (m, _) = open(&dir);
        for k in 0..20u64 {
            m.put(k, k).unwrap();
        }
        m.checkpoint().unwrap(); // ck-1
        before = contents(&m);
    }
    // Fake an aborted ck-2: chunks but no MANIFEST.
    let ck2 = jiffy_dur::checkpoint::ckpt_dir(&dir, 2);
    fs::create_dir_all(&ck2).unwrap();
    jiffy_dur::checkpoint::write_chunk(&ck2, 0, &[(9999, 1)]).unwrap();
    let (m2, rep) = open(&dir);
    assert_eq!(rep.checkpoint, Some(1));
    assert_eq!(m2.get(&9999), None, "the aborted attempt's data must not leak in");
    assert_eq!(contents(&m2), before);
    let _ = fs::remove_dir_all(&dir);
}

/// A failed flush poisons its stripe: no later write on it can ack on
/// top of the possibly-torn prefix the failure left behind (a retried
/// flush would re-append the whole buffer after that prefix, and
/// recovery's truncate-at-first-invalid-byte would then discard records
/// later syncs acked). Other stripes keep working; a restart re-scans,
/// repairs the tear and resumes.
#[test]
fn sync_failure_poisons_stripe_until_restart() {
    let dir = tmp("poison");
    // Keys co-resident on one stripe, plus one on a different stripe.
    let (m, _) = open(&dir);
    let st = m.stripe_of(1);
    let mut same = Vec::new();
    let mut other_key = 0u64;
    for k in 2..1000u64 {
        if m.stripe_of(k) == st && same.len() < 3 {
            same.push(k);
        } else if m.stripe_of(k) != st {
            other_key = k;
        }
    }
    let (k2, k3, k4) = (same[0], same[1], same[2]);

    m.put(1, 10).unwrap(); // acked ⇒ durable (fsync mode)
    m.inject_sync_error(st, 3); // next flush: 3-byte torn prefix, then error
    assert!(m.put(k2, 20).is_err(), "the failing flush must not ack");
    let err = m.put(k3, 30).expect_err("poisoned stripe must refuse new writes");
    assert!(err.to_string().contains("poisoned"), "{err}");
    assert_eq!(m.get(&k3), None, "a refused write must not install either");
    m.put(other_key, 99).unwrap(); // unaffected stripe keeps acking
    assert!(m.sync().is_err(), "a barrier over a poisoned stripe must fail");
    drop(m);

    let (m2, rep) = open(&dir);
    assert_eq!(rep.torn_stripes, 1, "the torn prefix is repaired: {rep:?}");
    assert_eq!(m2.get(&1), Some(10), "acked before the failure ⇒ recovered");
    assert_eq!(m2.get(&other_key), Some(99));
    assert_eq!(m2.get(&k2), None, "unacked may vanish");
    m2.put(k4, 40).unwrap(); // the reopened stripe accepts writes again
    drop(m2);
    let (m3, rep) = open(&dir);
    assert_eq!(rep.torn_stripes, 0, "{rep:?}");
    assert_eq!(m3.get(&k4), Some(40), "acks after restart are durable again");
    let _ = fs::remove_dir_all(&dir);
}

/// Corruption in a sealed *non-final* generation is media rot, not a
/// crash tail (rotation fully syncs before the next generation
/// exists). Auto-truncating there would discard every later durable —
/// possibly acked — record in the stripe, so recovery must refuse with
/// an explicit error instead.
#[test]
fn mid_generation_corruption_refuses_recovery() {
    let dir = tmp("mid-gen");
    {
        let (m, _) = open(&dir);
        for k in 0..30u64 {
            m.put(k, k).unwrap();
        }
        m.checkpoint().unwrap(); // ck-1: rotates every stripe to gen 2
        for k in 0..30u64 {
            m.put(k, k + 100).unwrap(); // gen-2 records on every stripe
        }
        m.checkpoint().unwrap(); // ck-2: rotates to gen 3, prunes gen 1
        for k in 0..30u64 {
            m.put(k, k + 200).unwrap(); // gen-3 records
        }
    }
    let gen2 = wal::stripe_dir(&dir, 0).join("seg-000002.log");
    assert!(gen2.exists(), "test setup: sealed non-final generation must exist");
    corrupt::flip_bit(&gen2, wal::SEG_HEADER as u64 + 10, 2).unwrap();
    let err = match DurableMap::open(Inner::new(), &dir, opts()) {
        Err(e) => e,
        Ok(_) => panic!("mid-generation corruption must fail recovery, not drop the suffix"),
    };
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("sealed generation"), "{err}");
    let _ = fs::remove_dir_all(&dir);
}

/// A manifest-readable but chunk-corrupt checkpoint must not occupy a
/// retention slot: with keep = 2, the pruner has to keep the genuinely
/// loadable older checkpoint *and* its WAL tail, or a second corruption
/// later leaves recovery with nothing — the redundancy the default is
/// documented to provide.
#[test]
fn corrupt_checkpoint_occupies_no_retention_slot() {
    let dir = tmp("retention");
    let before;
    {
        let (m, _) = open(&dir);
        for k in 0..40u64 {
            m.put(k, k).unwrap();
        }
        m.checkpoint().unwrap(); // ck-1: the loadable fallback
        for k in 0..40u64 {
            m.put(k, k + 100).unwrap();
        }
        m.checkpoint().unwrap(); // ck-2: about to be corrupted
        let ck2 = jiffy_dur::checkpoint::ckpt_dir(&dir, 2);
        corrupt::flip_bit(&jiffy_dur::checkpoint::chunk_path(&ck2, 0), 20, 1).unwrap();
        for k in 0..40u64 {
            m.put(k, k + 200).unwrap();
        }
        m.checkpoint().unwrap(); // ck-3: pruning must skip ck-2's slot
        m.put(777, 777).unwrap();
        before = contents(&m);
    }
    let ck1 = jiffy_dur::checkpoint::ckpt_dir(&dir, 1);
    assert!(ck1.join("MANIFEST").exists(), "chunk-corrupt ck-2 must not evict loadable ck-1");
    // Second corruption: the newest checkpoint dies too. Recovery must
    // still find ck-1 and its (unpruned) WAL tail, losing nothing.
    let ck3 = jiffy_dur::checkpoint::ckpt_dir(&dir, 3);
    corrupt::flip_bit(&jiffy_dur::checkpoint::chunk_path(&ck3, 0), 20, 1).unwrap();
    let (m2, rep) = open(&dir);
    assert_eq!(rep.checkpoint, Some(1), "must fall back to ck-1: {rep:?}");
    assert_eq!(contents(&m2), before, "fallback + replay must lose nothing");
    let _ = fs::remove_dir_all(&dir);
}

/// Batch parts are counted in u16; a stripe count that would truncate
/// it is refused up front.
#[test]
fn stripe_count_over_u16_max_refused() {
    let dir = tmp("stripes-u16");
    let bad = DurOptions { stripes: u16::MAX as usize + 1, ..opts() };
    match DurableMap::open(Inner::new(), &dir, bad) {
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
        Ok(_) => panic!("stripes > u16::MAX must be refused"),
    }
    let _ = fs::remove_dir_all(&dir);
}

/// Batch atomicity across loss: if one stripe's part of a batch is
/// gone, no part applies — but later singles on the surviving stripes
/// still do.
#[test]
fn incomplete_batch_parts_drop_whole() {
    let dir = tmp("incomplete-batch");
    // Find two keys on different stripes, plus their stripes' files.
    let (m, _) = open(&dir);
    let a = 0u64;
    let mut b = 1u64;
    while m.stripe_of(a) == m.stripe_of(b) {
        b += 1;
    }
    m.batch_update(Batch::new(vec![BatchOp::Put(a, 11), BatchOp::Put(b, 22)])).unwrap();
    let stripe_b = m.stripe_of(b);
    drop(m);
    // Wipe stripe B's record area: its part of the batch is lost.
    let sd = wal::stripe_dir(&dir, stripe_b);
    for e in fs::read_dir(&sd).unwrap().flatten() {
        corrupt::truncate_to(&e.path(), wal::SEG_HEADER as u64).unwrap();
    }
    let (m2, rep) = open(&dir);
    assert_eq!(rep.incomplete_batches, 1, "{rep:?}");
    assert_eq!(m2.get(&a), None, "torn batch must vanish whole");
    assert_eq!(m2.get(&b), None);
    let _ = fs::remove_dir_all(&dir);
}

/// A `JiffyMap` that counts how often its `scan_collect` override runs.
#[derive(Default)]
struct CountingMap {
    map: Inner,
    collects: std::sync::atomic::AtomicUsize,
}

impl OrderedIndex<u64, u64> for CountingMap {
    fn get(&self, key: &u64) -> Option<u64> {
        self.map.get(key)
    }
    fn put(&self, key: u64, value: u64) {
        self.map.put(key, value);
    }
    fn remove(&self, key: &u64) -> bool {
        self.map.remove(key).is_some()
    }
    fn scan_from(&self, lo: &u64, n: usize, sink: &mut dyn FnMut(&u64, &u64)) {
        self.map.scan_from(lo, n, sink)
    }
    fn scan_collect(&self, lo: &u64, n: usize) -> Vec<(u64, u64)> {
        self.collects.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        OrderedIndex::scan_collect(&self.map, lo, n)
    }
    fn batch_update(&self, batch: Batch<u64, u64>) {
        self.map.batch(batch)
    }
    fn name(&self) -> &'static str {
        "counting-jiffy"
    }
}

impl BulkLoad<u64, u64> for CountingMap {
    fn bulk_load(&self, entries: Vec<(u64, u64)>) {
        self.map.bulk_load(entries)
    }
}

/// The server and the benchmark hold the map as `DurableMap<Arc<Map>>`:
/// its scans and its checkpoint chunk loop must reach the map's own
/// `scan_collect`, not the trait default on the `Arc` handle.
#[test]
fn scans_and_checkpoints_reach_the_maps_scan_override_through_arc() {
    let dir = tmp("arc-forwarding");
    let inner = Arc::new(CountingMap::default());
    let (m, _) = DurableMap::open(Arc::clone(&inner), &dir, opts()).expect("open durable map");
    for k in 0..20u64 {
        m.put(k, k).unwrap();
    }
    let count = || inner.collects.load(std::sync::atomic::Ordering::Relaxed);
    assert_eq!(m.scan_collect(&5, 3), vec![(5, 5), (6, 6), (7, 7)]);
    assert_eq!(count(), 1, "DurableMap::scan_collect bypassed the override");
    let report = m.checkpoint().unwrap();
    assert_eq!(report.entries, 20);
    // 20 entries in chunks of 8: three scans, the short last one ends it.
    assert_eq!(count(), 4, "the checkpoint chunk loop bypassed the override");
    let _ = fs::remove_dir_all(&dir);
}
