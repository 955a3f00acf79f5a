//! The crash-injection test family: proof that `jiffy-dur` keeps its
//! promise — **acked writes survive any crash; unacked writes may be
//! lost but never torn**.
//!
//! # Harness shape
//!
//! Every crash round is a *subprocess* experiment. The parent (the
//! ordinary `#[test]` functions here) re-executes its own test binary
//! filtered down to [`crash_child`], arming a [`jiffy_dur::failpoint`]
//! through the environment. The child runs a seeded workload on a
//! `DurableMap<Arc<ElasticJiffy<u64, u64>>>` in `Fsync` mode, writing a
//! **witness file** per writer thread — an intent line *before* each
//! operation and an ack line *after* the durable call returns — until
//! the failpoint hard-stops the process (or the workload finishes). The
//! parent then recovers the durability root in-process and checks the
//! surviving state against the witness model:
//!
//! - **point keys** (each owned by one thread, so per-key ops are
//!   sequential): the recovered value must equal the state after some
//!   *prefix* of that key's issued ops, at least covering every acked
//!   op — acked ⇒ present, unacked ⇒ present-or-absent;
//! - **batch keys** (each thread's batches always touch the same fixed
//!   key set, hence the same WAL stripe set, so durable batches form a
//!   prefix of issued batches): all keys in the set must recover to the
//!   *same* batch — the never-torn check — and that batch must be no
//!   older than the last acked one.
//!
//! Witness lines are written with a single `write_all` each, so a crash
//! can tear at most the final line; the parser drops a torn tail, which
//! only ever *weakens* the assertion (an op whose intent line died with
//! the page cache was never issued; an op whose ack line tore is
//! checked as if unacked — conservative both ways).
//!
//! On top of the deterministic rounds (crash at a WAL sync, torn tail,
//! mid-checkpoint, mid-reshard) sits a seeded fuzz loop over the whole
//! failpoint site matrix. A failing round prints
//! `FAILING SEED n — replay with JIFFY_CRASH_SEED=n`; round count is
//! `JIFFY_CRASH_ROUNDS` (default 12 so plain `cargo test` stays quick —
//! CI and the acceptance run turn it up).
//!
//! The final test is the satellite: checkpoint during a live split and
//! merge, with the *recovered* state folded back into the concurrent
//! history as post-hoc reads (Wing–Gong style: the final gets are
//! appended after every other event's response) and the whole history
//! handed to the `linearize` checker.

use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use index_api::{Batch, BatchOp, OrderedIndex as _};
use jiffy::JiffyConfig;
use jiffy_dur::{failpoint, DurOptions, Durability, DurableMap, RecoveryReport};
use jiffy_shard::{ElasticJiffy, Router};
use system_tests::with_deadline;

/// The wall-clock ceiling of every test in this file: a hang becomes a
/// named failure with a flight-recorder dump instead of a killed job.
const DEADLINE_SECS: u64 = 300;

type DMap = DurableMap<Arc<ElasticJiffy<u64, u64>>>;

/// Stripe count shared by child and recovering parent (the root pins it).
const STRIPES: usize = 3;
/// Writer threads in the child workload.
const WRITERS: u64 = 2;
/// Point keys owned by each writer.
const POINT_KEYS: u64 = 6;
/// Fixed batch key set per writer (same keys every batch ⇒ same stripe
/// set ⇒ durable batches form a prefix — the never-torn argument).
const BATCH_KEYS: u64 = 4;
/// Initial router boundary of the elastic map under test.
const SPLIT0: u64 = 2048;

fn dur_opts() -> DurOptions {
    DurOptions {
        mode: Durability::Fsync,
        stripes: STRIPES,
        // Small chunks so even the tiny test dataset spans checkpoint
        // machinery (multiple chunks once batches land past 4096).
        chunk_entries: 64,
        keep_checkpoints: 2,
        ..DurOptions::default()
    }
}

fn point_key(t: u64, i: u64) -> u64 {
    t * 64 + i
}

fn batch_key(t: u64, i: u64) -> u64 {
    4096 + t * 64 + i
}

fn fresh_map() -> Arc<ElasticJiffy<u64, u64>> {
    Arc::new(ElasticJiffy::with_router(Router::range(vec![SPLIT0]), JiffyConfig::default()))
}

fn xorshift(s: &mut u64) -> u64 {
    *s ^= *s << 13;
    *s ^= *s >> 7;
    *s ^= *s << 17;
    s.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

// ---------------------------------------------------------------- child

/// The crash victim. Inert under plain `cargo test` (the env gate is
/// absent); the drivers below re-exec this binary with
/// `crash_child --exact` and the environment armed.
#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("JIFFY_CRASH_DIR") else { return };
    let witness = PathBuf::from(std::env::var("JIFFY_CRASH_WITNESS").expect("witness dir"));
    let seed: u64 = std::env::var("JIFFY_CRASH_SEED").expect("seed").parse().expect("seed u64");
    let ops: u64 = std::env::var("JIFFY_CRASH_OPS").expect("ops").parse().expect("ops u64");
    let ckpt_churn = std::env::var("JIFFY_CRASH_CKPT").is_ok();
    let reshard_churn = std::env::var("JIFFY_CRASH_RESHARD").is_ok();

    fs::create_dir_all(&witness).expect("witness dir");
    fs::write(witness.join("started"), b"1").expect("start marker");

    let map = fresh_map();
    let (dur, _report) =
        DurableMap::open(Arc::clone(&map), Path::new(&dir), dur_opts()).expect("child open");
    let dur = Arc::new(dur);

    let stop = Arc::new(AtomicBool::new(false));
    let mut aux = Vec::new();
    if ckpt_churn {
        let d = Arc::clone(&dur);
        let s = Arc::clone(&stop);
        aux.push(std::thread::spawn(move || {
            while !s.load(Ordering::Relaxed) {
                let _ = d.checkpoint();
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }));
    }
    if reshard_churn {
        let m = Arc::clone(&map);
        let s = Arc::clone(&stop);
        aux.push(std::thread::spawn(move || {
            let mut at = 512u64;
            while !s.load(Ordering::Relaxed) {
                let _ = m.split_at(at);
                std::thread::sleep(std::time::Duration::from_micros(200));
                let _ = m.merge_at(0);
                at = 256 + (at.wrapping_mul(3)) % 3500;
            }
        }));
    }

    let mut writers = Vec::new();
    for t in 0..WRITERS {
        let d = Arc::clone(&dur);
        let path = witness.join(format!("w{t}.log"));
        writers.push(std::thread::spawn(move || child_writer(&d, t, seed, ops, &path)));
    }
    for w in writers {
        w.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    for a in aux {
        a.join().expect("churn thread");
    }
    dur.sync().expect("final sync");
}

fn child_writer(dur: &DMap, t: u64, seed: u64, ops: u64, witness: &Path) {
    let mut log =
        fs::OpenOptions::new().create(true).append(true).open(witness).expect("witness file");
    // One write_all per line: a crash tears at most the final line.
    let mut line = move |s: String| log.write_all(s.as_bytes()).expect("witness write");
    let mut rng = seed ^ (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for idx in 0..ops {
        match xorshift(&mut rng) % 100 {
            0..=54 => {
                let k = point_key(t, xorshift(&mut rng) % POINT_KEYS);
                line(format!("I P {k} {idx}\n"));
                dur.put(k, idx).expect("durable put");
                line(format!("A P {k} {idx}\n"));
            }
            55..=74 => {
                let k = point_key(t, xorshift(&mut rng) % POINT_KEYS);
                line(format!("I R {k} {idx}\n"));
                dur.remove(&k).expect("durable remove");
                line(format!("A R {k} {idx}\n"));
            }
            _ => {
                line(format!("I B {idx}\n"));
                let puts: Vec<BatchOp<u64, u64>> =
                    (0..BATCH_KEYS).map(|i| BatchOp::Put(batch_key(t, i), idx)).collect();
                dur.batch_update(Batch::new(puts)).expect("durable batch");
                line(format!("A B {idx}\n"));
            }
        }
    }
}

// --------------------------------------------------------------- driver

struct Round {
    dir: PathBuf,
    witness: PathBuf,
}

fn round_dirs(name: &str) -> Round {
    let base = std::env::temp_dir().join(format!("jiffy-crash-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&base);
    Round { dir: base.join("dur"), witness: base.join("witness") }
}

/// Re-exec this test binary as the crash victim. `Ok(true)` = the armed
/// failpoint killed it (stderr marker verified); `Ok(false)` = the
/// workload outlived the countdown and exited cleanly. Any *other*
/// death is an error — a real child bug must not pass as a crash round.
fn spawn_child(
    r: &Round,
    seed: u64,
    ops: u64,
    fp: Option<&str>,
    ckpt: bool,
    reshard: bool,
) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["crash_child", "--exact", "--nocapture", "--test-threads=1"])
        .env("JIFFY_CRASH_DIR", &r.dir)
        .env("JIFFY_CRASH_WITNESS", &r.witness)
        .env("JIFFY_CRASH_SEED", seed.to_string())
        .env("JIFFY_CRASH_OPS", ops.to_string())
        .env_remove("JIFFY_CRASH_CKPT")
        .env_remove("JIFFY_CRASH_RESHARD")
        .env_remove(failpoint::ENV);
    if let Some(spec) = fp {
        cmd.env(failpoint::ENV, spec);
    }
    if ckpt {
        cmd.env("JIFFY_CRASH_CKPT", "1");
    }
    if reshard {
        cmd.env("JIFFY_CRASH_RESHARD", "1");
    }
    let out = cmd.output().map_err(|e| format!("spawn child: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !r.witness.join("started").exists() {
        return Err(format!("child never started (status {:?}): {stderr}", out.status));
    }
    if out.status.success() {
        Ok(false)
    } else if stderr.contains("jiffy-dur-failpoint: crashing at") {
        Ok(true)
    } else {
        Err(format!(
            "child died without the failpoint marker (status {:?})\nstdout: {}\nstderr: {stderr}",
            out.status,
            String::from_utf8_lossy(&out.stdout),
        ))
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum WKind {
    Put,
    Remove,
    Batch,
}

struct WOp {
    kind: WKind,
    key: u64,
    idx: u64,
    acked: bool,
}

/// Parse one writer's witness. Bytes after the final newline are a torn
/// last line (single `write_all` per line) and are dropped; anything
/// malformed *before* that is a harness bug and fails the round.
fn parse_witness(path: &Path) -> Result<Vec<WOp>, String> {
    let text = match fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("{}: {e}", path.display())),
    };
    let complete = text.rfind('\n').map(|i| &text[..i]).unwrap_or("");
    let mut ops: Vec<WOp> = Vec::new();
    for line in complete.split('\n') {
        if line.is_empty() {
            continue;
        }
        let bad = || format!("bad witness line {line:?} in {}", path.display());
        let fields: Vec<&str> = line.split(' ').collect();
        let (phase, kind, key, idx) = match fields.as_slice() {
            [p, "P", k, i] => (*p, WKind::Put, k.parse().map_err(|_| bad())?, i),
            [p, "R", k, i] => (*p, WKind::Remove, k.parse().map_err(|_| bad())?, i),
            [p, "B", i] => (*p, WKind::Batch, 0, i),
            _ => return Err(bad()),
        };
        let idx: u64 = idx.parse().map_err(|_| bad())?;
        match phase {
            "I" => ops.push(WOp { kind, key, idx, acked: false }),
            "A" => match ops.last_mut() {
                Some(last)
                    if last.kind == kind && last.key == key && last.idx == idx && !last.acked =>
                {
                    last.acked = true
                }
                _ => return Err(bad()),
            },
            _ => return Err(bad()),
        }
    }
    Ok(ops)
}

/// The crash model check. See the module docs for the argument; every
/// violation message names the key and the witness interval so a
/// failing fuzz seed is diagnosable from the log alone.
fn check_recovery(map: &Arc<ElasticJiffy<u64, u64>>, witness: &Path) -> Result<(), String> {
    for t in 0..WRITERS {
        let ops = parse_witness(&witness.join(format!("w{t}.log")))?;

        for i in 0..POINT_KEYS {
            let k = point_key(t, i);
            let key_ops: Vec<&WOp> =
                ops.iter().filter(|o| o.kind != WKind::Batch && o.key == k).collect();
            // states[j] = the key's value after its first j issued ops.
            let mut states: Vec<Option<u64>> = vec![None];
            for o in &key_ops {
                states.push(match o.kind {
                    WKind::Put => Some(o.idx),
                    _ => None,
                });
            }
            // Everything acked must survive: the durable prefix extends
            // at least through the last acked op on this key.
            let min_j = key_ops.iter().rposition(|o| o.acked).map(|p| p + 1).unwrap_or(0);
            let got = map.get(&k);
            if !states[min_j..].contains(&got) {
                return Err(format!(
                    "acked-write loss on key {k} (thread {t}): recovered {got:?}, \
                     valid states {:?} ({} issued ops, last acked at index {min_j})",
                    &states[min_j..],
                    states.len() - 1,
                ));
            }
        }

        let batches: Vec<&WOp> = ops.iter().filter(|o| o.kind == WKind::Batch).collect();
        let got: Vec<Option<u64>> = (0..BATCH_KEYS).map(|i| map.get(&batch_key(t, i))).collect();
        if got.windows(2).any(|w| w[0] != w[1]) {
            return Err(format!("torn batch recovery for thread {t}: key set recovered {got:?}"));
        }
        let last_acked = batches.iter().rev().find(|o| o.acked).map(|o| o.idx);
        match (got[0], last_acked) {
            (None, Some(a)) => {
                return Err(format!("acked batch {a} of thread {t} lost (keys absent)"))
            }
            (None, None) => {}
            (Some(b), la) => {
                if !batches.iter().any(|o| o.idx == b) {
                    return Err(format!("thread {t} batch keys recovered to {b}, never issued"));
                }
                if la.is_some_and(|a| b < a) {
                    return Err(format!(
                        "thread {t} batch keys recovered to batch {b}, older than acked {:?}",
                        la
                    ));
                }
            }
        }
    }
    Ok(())
}

/// One full crash/recover round: spawn, (maybe) die, recover in-process,
/// model-check, clean up on success (failures leave the root on disk
/// for inspection).
fn run_round(
    name: &str,
    seed: u64,
    ops: u64,
    fp: Option<&str>,
    ckpt: bool,
    reshard: bool,
) -> Result<(bool, RecoveryReport), String> {
    let r = round_dirs(name);
    let crashed = spawn_child(&r, seed, ops, fp, ckpt, reshard)?;
    let map = fresh_map();
    let (_dur, report) = DurableMap::open(Arc::clone(&map), &r.dir, dur_opts())
        .map_err(|e| format!("recovery failed: {e}"))?;
    check_recovery(&map, &r.witness)?;
    if let Some(base) = r.dir.parent() {
        let _ = fs::remove_dir_all(base);
    }
    Ok((crashed, report))
}

// ---------------------------------------------------- deterministic rounds

#[test]
fn crash_at_wal_sync_preserves_acked_writes() {
    with_deadline("crash_at_wal_sync_preserves_acked_writes", DEADLINE_SECS, || {
        let (crashed, report) =
            run_round("wal-sync", 11, 240, Some("wal-sync:25"), false, false).expect("round");
        assert!(crashed, "countdown 25 must land inside a 480-op fsync workload");
        assert!(report.replayed > 0, "synced records must replay: {report:?}");
    });
}

#[test]
fn torn_wal_tail_repairs_on_recovery() {
    with_deadline("torn_wal_tail_repairs_on_recovery", DEADLINE_SECS, || {
        let (crashed, report) =
            run_round("torn-tail", 12, 240, Some("wal-sync:40:torn:7"), false, false)
                .expect("round");
        assert!(crashed, "countdown 40 must land inside the workload");
        assert!(report.replayed > 0, "the valid prefix must replay: {report:?}");
    });
}

#[test]
fn crash_mid_checkpoint_recovers() {
    with_deadline("crash_mid_checkpoint_recovers", DEADLINE_SECS, || {
        // The churn thread checkpoints continuously; the third chunk write
        // dies mid-checkpoint, leaving complete earlier checkpoints plus
        // live WAL tails for recovery to stitch together.
        let (crashed, report) =
            run_round("mid-ckpt", 13, 300, Some("ckpt-chunk:3"), true, false).expect("round");
        assert!(crashed, "checkpoint churn must reach the third chunk write");
        assert!(report.checkpoint.is_some(), "an earlier complete checkpoint survives: {report:?}");
    });
}

#[test]
fn crash_mid_reshard_recovers() {
    with_deadline("crash_mid_reshard_recovers", DEADLINE_SECS, || {
        // Split/merge churn keeps a migration in flight while the WAL dies;
        // stripes are routing-independent, so the model check must hold.
        let (crashed, _report) =
            run_round("mid-reshard", 14, 300, Some("wal-sync:60"), false, true).expect("round");
        assert!(crashed, "countdown 60 must land inside the workload");
    });
}

// ------------------------------------------------------------- fuzz rounds

/// Satellite 1: the seeded crash fuzz. Each seed derives a failpoint
/// site, countdown, torn-ness and churn mix; `JIFFY_CRASH_ROUNDS` sets
/// the budget and `JIFFY_CRASH_SEED` replays one failing seed exactly.
#[test]
fn crash_fuzz_recovers_acked_writes() {
    with_deadline("crash_fuzz_recovers_acked_writes", DEADLINE_SECS, || {
        let rounds: u64 =
            std::env::var("JIFFY_CRASH_ROUNDS").ok().and_then(|s| s.parse().ok()).unwrap_or(12);
        let seeds: Vec<u64> =
            match std::env::var("JIFFY_CRASH_SEED").ok().and_then(|s| s.parse().ok()) {
                Some(one) => vec![one],
                None => (0..rounds).map(|i| 0xC0FF_EE00 + i).collect(),
            };
        let mut crashes = 0u64;
        for &seed in &seeds {
            let mut rng = seed ^ 0xD1CE;
            let scenario = xorshift(&mut rng) % 9;
            let c_sync = 1 + xorshift(&mut rng) % 220;
            let c_app = 1 + xorshift(&mut rng) % 300;
            let c_ck = 1 + xorshift(&mut rng) % 4;
            let (fp, ckpt): (Option<String>, bool) = match scenario {
                0 => (None, false), // clean run: recovery of a clean log
                1 => (Some(format!("wal-append:{c_app}")), false),
                2 => (Some(format!("wal-sync:{c_sync}")), false),
                3 => (Some(format!("wal-sync:{c_sync}:torn:{seed}")), false),
                4 => (Some(format!("ckpt-begin:{c_ck}")), true),
                5 => (Some(format!("ckpt-chunk:{c_ck}")), true),
                6 => (Some(format!("ckpt-manifest:{c_ck}:torn:{seed}")), true),
                7 => (Some(format!("ckpt-rotate:{c_ck}")), true),
                _ => (Some("wal-prune:1".to_string()), true),
            };
            let reshard = xorshift(&mut rng) % 3 == 0;
            match run_round(&format!("fuzz-{seed}"), seed, 200, fp.as_deref(), ckpt, reshard) {
                Ok((crashed, _)) => crashes += crashed as u64,
                Err(msg) => {
                    eprintln!(
                        "crash-fuzz: FAILING SEED {seed} — replay with JIFFY_CRASH_SEED={seed}"
                    );
                    panic!("crash-fuzz round failed (seed {seed}, site {fp:?}): {msg}");
                }
            }
        }
        eprintln!("crash-fuzz: {} rounds, {crashes} induced crashes, zero violations", seeds.len());
    });
}

// ------------------------------------------- checkpoint vs. reshard satellite

/// Satellite 3: checkpoint during a live split *and* merge, with the
/// recovered state appended to the concurrent history as final reads
/// (Wing–Gong) and the whole thing checked for linearizability.
#[test]
fn checkpoint_during_split_merge_is_linearizable() {
    with_deadline("checkpoint_during_split_merge_is_linearizable", DEADLINE_SECS, || {
        use linearize::{check_bounded, Event, Op, Outcome};

        const KEYS: [u64; 4] = [10, 20, 30, 40];
        let base = std::env::temp_dir().join(format!("jiffy-crash-wg-{}", std::process::id()));
        let _ = fs::remove_dir_all(&base);

        let map = fresh_map();
        let (dur, _) = DurableMap::open(Arc::clone(&map), &base, dur_opts()).expect("open");
        let dur = Arc::new(dur);
        let ts = Arc::new(AtomicU64::new(0));
        let events = Arc::new(std::sync::Mutex::new(Vec::<Event>::new()));

        let mut handles = Vec::new();
        for t in 0..3u64 {
            let d = Arc::clone(&dur);
            let ts = Arc::clone(&ts);
            let ev = Arc::clone(&events);
            handles.push(std::thread::spawn(move || {
                let mut rng = 0x1234_5678 ^ (t + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
                for i in 0..8u64 {
                    let ki = (xorshift(&mut rng) % 4) as usize;
                    let k = KEYS[ki];
                    let v = t * 1000 + i + 1; // globally unique values
                    let invoke = ts.fetch_add(1, Ordering::Relaxed);
                    let op = match xorshift(&mut rng) % 10 {
                        0..=4 => {
                            d.put(k, v).expect("put");
                            Op::Put(k, v)
                        }
                        5..=6 => Op::Remove(k, d.remove(&k).expect("remove")),
                        7..=8 => Op::Get(k, d.get(&k)),
                        _ => {
                            let k2 = KEYS[(ki + 1) % 4];
                            d.batch_update(Batch::new(vec![
                                BatchOp::Put(k, v),
                                BatchOp::Put(k2, v),
                            ]))
                            .expect("batch");
                            Op::Batch(vec![(k, Some(v)), (k2, Some(v))])
                        }
                    };
                    let respond = ts.fetch_add(1, Ordering::Relaxed);
                    ev.lock().unwrap().push(Event { invoke, respond, op });
                }
            }));
        }

        // Concurrent topology churn + checkpoints while the writers run.
        let _ = map.split_at(25);
        dur.checkpoint().expect("checkpoint during split");
        let _ = map.merge_at(0);
        dur.checkpoint().expect("checkpoint during merge");
        for h in handles {
            h.join().expect("writer");
        }
        dur.sync().expect("sync");
        drop(dur);

        let map2 = fresh_map();
        let (_dur2, report) =
            DurableMap::open(Arc::clone(&map2), &base, dur_opts()).expect("recover");
        assert!(report.checkpoint.is_some(), "a committed checkpoint must recover: {report:?}");

        let mut history = Arc::try_unwrap(events).expect("threads joined").into_inner().unwrap();
        for k in KEYS {
            // Post-recovery reads, appended after every concurrent event.
            let t = ts.fetch_add(1, Ordering::Relaxed);
            history.push(Event { invoke: t, respond: t, op: Op::Get(k, map2.get(&k)) });
        }
        match check_bounded(&history, 4_000_000) {
            Outcome::Linearizable(_) => {}
            other => {
                panic!(
                    "recovered history is not linearizable: {other:?} over {} events",
                    history.len()
                )
            }
        }
        let _ = fs::remove_dir_all(&base);
    });
}
