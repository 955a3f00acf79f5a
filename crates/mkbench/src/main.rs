//! `mkbench` — regenerate the paper's evaluation (Figures 5–10 plus the
//! §4.3 headline numbers and the design ablations).
//!
//! ```text
//! mkbench figure <5..=10> [--threads 1,2,4] [--secs 0.5] [--keys 100000] [--out results/figN.csv] [--json BENCH_figN.json]
//! mkbench quick          [--threads N] [--indices a,b,c] [--json BENCH_prN.json]  # update/lookup/scan cells, compact lineup
//! mkbench compare OLD.json NEW.json [--tolerance PCT]            # perf gate: exit 1 on throughput regression
//! mkbench sharding       [--threads N] [--shards N] [--keys K]   # jiffy vs sharded-jiffy, uniform vs shard-skewed
//! mkbench reshard        [--threads N] [--shards N] [--keys K]   # throughput through live shard split/merge (elastic-jiffy)
//! mkbench speedup        [--threads N] [--secs S] [--keys K]     # §4.3: Jiffy vs CA-AVL/CA-SL, 100-op random batches
//! mkbench autoscale      [--secs S] [--keys K]                   # §4.3: revision sizes under write-only vs update-lookup
//! mkbench ablation clock|hash|revsize [--threads ...] [--secs S] # A1/A2/A3
//! mkbench trace          [--threads N] [--secs S] [--keys K] [--json FILE]  # merged flight-recorder trace + obs snapshot as JSON
//!
//! All subcommands accept `--dir ARTIFACTS`: an artifact root, created
//! and probed writable up front (exit 2 otherwise), under which
//! relative `--out`/`--json` paths are placed.
//! ```
//!
//! Observability hooks: every subcommand runs with the `jiffy-obs`
//! flight recorder live; a worker panic dumps the merged,
//! version-ordered event tail plus a metrics snapshot to stderr.
//! `MKBENCH_INJECT_PANIC=<n>` (reshard only) deliberately crashes one
//! worker after `n` ops in the mid-migration window, to exercise that
//! dump path end to end.
//!
//! Absolute numbers depend on the machine; the *shapes* (who wins, by
//! roughly what factor, where lock-based batching collapses) are the
//! reproduction targets — see EXPERIMENTS.md.

use std::sync::Arc;
use std::time::Duration;

/// Epoch-based reclamation frees garbage on whichever thread collects it;
/// under glibc malloc those cross-thread frees serialize on the owning
/// arena's lock and flatten write scalability (the JVM's GC gives the
/// paper this for free). mimalloc handles cross-thread frees without
/// arena locks — see DESIGN.md §6.
#[global_allocator]
static GLOBAL: mimalloc::MiMalloc = mimalloc::MiMalloc;

use mkbench::{
    indices_for_figure, make_index_u32, make_index_u64, run_scenario, IndexKind, Measurement, Row,
    RunConfig,
};
use workload::{figure_scenarios, BatchMode, KeyDist, KvShape, Scenario, ThreadMix};

struct Args {
    threads: Vec<usize>,
    secs: f64,
    warmup: f64,
    keys: u64,
    out: Option<String>,
    json: Option<String>,
    /// Raw `--indices` names; resolved against `shards` after all flags
    /// are parsed (so `--shards` works in any position).
    indices: Option<Vec<String>>,
    /// Default shard count for `sharded-*` indices named without `:<n>`.
    shards: usize,
    /// `--dir`: artifact root. Created + probed writable at parse time
    /// (exit 2 if not); relative `--out`/`--json` paths resolve under it.
    dir: Option<std::path::PathBuf>,
}

impl Args {
    fn meta(&self, label: impl Into<String>) -> mkbench::RunMeta {
        mkbench::RunMeta {
            label: label.into(),
            threads: self.threads.clone(),
            secs: self.secs,
            warmup: self.warmup,
            key_space: self.keys,
            created_unix: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(0),
        }
    }

    /// The `--indices` lineup, resolved with the `--shards` default;
    /// malformed names are exit-2 usage errors.
    fn lineup(&self, default: impl FnOnce() -> Vec<IndexKind>) -> Vec<IndexKind> {
        match &self.indices {
            None => default(),
            Some(names) => names
                .iter()
                .map(|s| {
                    IndexKind::parse_with_default_shards(s, self.shards)
                        .unwrap_or_else(|msg| usage_error(&msg))
                })
                .collect(),
        }
    }

    fn write_reports(&self, label: &str, rows: &[Row]) {
        if let Some(out) = &self.out {
            let path = mkbench::resolve_under(self.dir.as_deref(), out);
            mkbench::write_csv(&path, rows).expect("write csv");
            eprintln!("wrote {}", path.display());
        }
        if let Some(json) = &self.json {
            let path = mkbench::resolve_under(self.dir.as_deref(), json);
            mkbench::write_json(&path, &self.meta(label), rows).expect("write json");
            eprintln!("wrote {}", path.display());
        }
    }
}

/// Parse `--dir`: the artifact root must exist (or be creatable) and be
/// writable *now* — a typo'd CI path is an exit-2 usage error before
/// any benchmark time is spent.
fn parse_artifact_dir(rest: &[String], i: &mut usize) -> std::path::PathBuf {
    let raw = flag_value(rest, i, "--dir");
    mkbench::prepare_artifact_dir(std::path::Path::new(raw)).unwrap_or_else(|msg| usage_error(&msg))
}

/// Next flag value, or a clean usage error if it is missing.
fn flag_value<'a>(rest: &'a [String], i: &mut usize, flag: &str) -> &'a str {
    *i += 1;
    rest.get(*i).unwrap_or_else(|| usage_error(&format!("{flag} requires a value"))).as_str()
}

fn parse_flags(rest: &[String]) -> Args {
    let mut args = Args {
        threads: vec![1, 2, 4],
        secs: 0.5,
        warmup: 0.75,
        keys: 100_000,
        out: None,
        json: None,
        indices: None,
        shards: mkbench::DEFAULT_SHARDS,
        dir: None,
    };
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--threads" => {
                args.threads = flag_value(rest, &mut i, "--threads")
                    .split(',')
                    .map(|s| {
                        s.parse()
                            .ok()
                            .filter(|t| *t >= 1)
                            .unwrap_or_else(|| usage_error("--threads takes e.g. 1,2,4"))
                    })
                    .collect();
            }
            "--secs" => {
                args.secs = flag_value(rest, &mut i, "--secs")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage_error("--secs takes a positive float"));
            }
            "--warmup" => {
                args.warmup = flag_value(rest, &mut i, "--warmup")
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .unwrap_or_else(|| usage_error("--warmup takes a non-negative float"));
            }
            "--keys" => {
                args.keys = flag_value(rest, &mut i, "--keys")
                    .parse()
                    .ok()
                    .filter(|k| *k >= 2)
                    .unwrap_or_else(|| usage_error("--keys takes an integer >= 2"));
            }
            "--out" => {
                args.out = Some(flag_value(rest, &mut i, "--out").to_string());
            }
            "--dir" => {
                args.dir = Some(parse_artifact_dir(rest, &mut i));
            }
            "--json" => {
                args.json = Some(flag_value(rest, &mut i, "--json").to_string());
            }
            "--indices" => {
                args.indices = Some(
                    flag_value(rest, &mut i, "--indices").split(',').map(String::from).collect(),
                );
            }
            "--shards" => {
                args.shards = flag_value(rest, &mut i, "--shards")
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .unwrap_or_else(|| usage_error("--shards takes an integer >= 1"));
            }
            other => usage_error(&format!("unknown flag `{other}`")),
        }
        i += 1;
    }
    args
}

fn cfg_for(args: &Args, threads: usize) -> RunConfig {
    RunConfig {
        threads,
        duration: Duration::from_secs_f64(args.secs),
        warmup: Duration::from_secs_f64(args.warmup),
        key_space: args.keys,
        prefill_density: 0.5,
        seed: 0xC0FFEE,
    }
}

/// Run one scenario cell for one index at one thread count. The
/// scenario's key distribution feeds the sharded kinds' split selection.
fn run_cell(shape: KvShape, kind: IndexKind, scenario: &Scenario, cfg: &RunConfig) -> Measurement {
    match shape {
        // 16 B keys / 100 B values: u64-derived keys with Arc'd payloads
        // (footnote 7: reference semantics keep copies payload-independent).
        KvShape::K16V100 => {
            let idx = make_index_u64::<std::sync::Arc<[u8]>>(kind, cfg.key_space, scenario.dist);
            run_scenario(idx, scenario, cfg)
        }
        KvShape::K4V4 => {
            let idx = make_index_u32::<u32>(kind, cfg.key_space, scenario.dist);
            run_scenario(idx, scenario, cfg)
        }
    }
}

fn cmd_figure(figure: u8, args: &Args) {
    let spec = figure_scenarios(figure)
        .unwrap_or_else(|| usage_error(&format!("no figure {figure} (the paper has 5-10)")));
    let mut rows: Vec<Row> = Vec::new();
    for scenario in spec.scenarios() {
        let batch_row = scenario.batch != BatchMode::Single;
        let lineup = args.lineup(|| indices_for_figure(batch_row));
        for kind in lineup {
            for &threads in &args.threads {
                let cfg = cfg_for(args, threads);
                let m = run_cell(spec.shape, kind, &scenario, &cfg);
                eprintln!(
                    "[fig{figure}] {} {} t={threads}: {:.3} Mops/s (upd {:.3})",
                    scenario.id,
                    kind.label(),
                    m.total_mops,
                    m.update_mops
                );
                rows.push(Row { scenario: scenario.id.clone(), index: kind.label(), threads, m });
            }
        }
    }
    println!("{}", mkbench::report::render_table(&rows));
    args.write_reports(&format!("figure{figure}"), &rows);
}

/// The paper's three op classes (update, lookup, scan) over a compact
/// index lineup — fast enough for CI smoke runs and perf-baseline
/// snapshots (`BENCH_*.json`), yet every class is actually exercised and
/// recorded (the seed's single update-lookup cell left scans unmeasured).
fn cmd_quick(args: &Args) {
    let scenarios = [
        (
            "update",
            Scenario::new(
                KvShape::K4V4,
                KeyDist::Uniform,
                ThreadMix::UPDATE_ONLY,
                0,
                BatchMode::Single,
            ),
        ),
        (
            "lookup",
            Scenario::new(
                KvShape::K4V4,
                KeyDist::Uniform,
                ThreadMix::UPDATE_LOOKUP,
                0,
                BatchMode::Single,
            ),
        ),
        (
            "scan",
            Scenario::new(
                KvShape::K4V4,
                KeyDist::Uniform,
                ThreadMix::MIXED,
                100,
                BatchMode::Single,
            ),
        ),
    ];
    // The sharded rows (2 and 8 shards) ride along by default: they are
    // unmatched-informational under `compare` against a baseline that
    // lacks them, so the gate is unaffected.
    let lineup = args.lineup(|| {
        vec![
            IndexKind::Jiffy,
            IndexKind::Cslm,
            IndexKind::CaAvl,
            IndexKind::Lfca,
            IndexKind::Sharded(2),
            IndexKind::Sharded(8),
        ]
    });
    let mut rows: Vec<Row> = Vec::new();
    for (class, scenario) in &scenarios {
        for kind in &lineup {
            for &threads in &args.threads {
                let cfg = cfg_for(args, threads);
                let m = run_cell(KvShape::K4V4, *kind, scenario, &cfg);
                let p99 = [m.update_lat, m.lookup_lat, m.scan_lat]
                    .iter()
                    .flatten()
                    .map(|l| l.p99_ns)
                    .max()
                    .unwrap_or(0);
                eprintln!(
                    "[quick/{class}] {} t={threads}: {:.3} Mops/s (upd {:.3}, read {:.3}, scan {:.3}; worst p99 {p99} ns)",
                    kind.label(),
                    m.total_mops,
                    m.update_mops,
                    m.read_mops,
                    m.scan_mops
                );
                rows.push(Row { scenario: scenario.id.clone(), index: kind.label(), threads, m });
            }
        }
    }
    println!("{}", mkbench::report::render_table(&rows));
    args.write_reports("quick", &rows);
}

/// Diff two `BENCH_*.json` reports; exit 1 on a throughput regression
/// beyond the tolerance (the CI perf-trajectory gate).
fn cmd_compare(argv: &[String]) {
    let (mut old_path, mut new_path) = (None, None);
    let mut tolerance = 10.0f64;
    let mut i = 0;
    while i < argv.len() {
        match argv[i].as_str() {
            "--tolerance" => {
                tolerance = flag_value(argv, &mut i, "--tolerance")
                    .parse()
                    .ok()
                    .filter(|t: &f64| t.is_finite() && *t >= 0.0)
                    .unwrap_or_else(|| usage_error("--tolerance takes a non-negative percent"));
            }
            flag if flag.starts_with("--") => usage_error(&format!("unknown flag `{flag}`")),
            path if old_path.is_none() => old_path = Some(path.to_string()),
            path if new_path.is_none() => new_path = Some(path.to_string()),
            other => usage_error(&format!("unexpected compare argument `{other}`")),
        }
        i += 1;
    }
    let (Some(old_path), Some(new_path)) = (old_path, new_path) else {
        usage_error("compare takes OLD.json NEW.json [--tolerance PCT]")
    };
    let load = |path: &str| -> mkbench::BenchReport {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| usage_error(&format!("cannot read {path}: {e}")));
        mkbench::parse_report(&text)
            .unwrap_or_else(|e| usage_error(&format!("cannot parse {path}: {e}")))
    };
    let old = load(&old_path);
    let new = load(&new_path);
    eprintln!(
        "comparing {old_path} ({}, \"{}\") -> {new_path} ({}, \"{}\")",
        old.schema, old.label, new.schema, new.label
    );
    let outcome = mkbench::compare(&old, &new, tolerance);
    print!("{}", outcome.render());
    if !outcome.passed() {
        std::process::exit(1);
    }
}

/// The `cross-batch` contention scenario: every batch touches every
/// shard, in two shapes. *overlapping*: all writers hammer the same key
/// per shard (max conflict: helping storms). *disjoint*: each writer
/// owns its keys (zero logical conflict; the two-phase protocol commits
/// these independently — the shape it exists for).
fn cmd_sharding_cross_batch(args: &Args) {
    use index_api::OrderedIndex as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    // Honor --shards; a cross-shard batch needs at least two shards to
    // exist, so 1 bumps to the minimum meaningful count (announced in
    // the header line below).
    let shards = args.shards.max(2);
    println!("## cross-batch contention (all-shard batches, {shards} shards, two-phase)");
    for disjoint in [false, true] {
        println!("# {} writers", if disjoint { "disjoint-key" } else { "overlapping-key" });
        for &t in &args.threads {
            let map = jiffy_shard::ElasticJiffy::<u64, u64>::with_router(
                jiffy_shard::Router::range_uniform(shards, args.keys),
                jiffy::JiffyConfig::default(),
            );
            // The router splits [0, keys) into `shards` equal ranges
            // of exactly this width.
            let span = (args.keys / shards as u64).max(1);
            // One key per shard per writer, so every batch crosses
            // all shards; disjoint mode spreads writers inside each
            // shard's range. Offsets are clamped strictly inside the
            // span so the all-shard premise survives any --keys
            // value (disjointness additionally needs span > t + 2,
            // true at any realistic key-space size).
            let keys_for = |w: u64| -> Vec<u64> {
                (0..shards as u64)
                    .map(|s| {
                        let offset = if disjoint {
                            1 + (w + 1) * span.saturating_sub(1) / (t as u64 + 2)
                        } else {
                            span / 2
                        };
                        s * span + offset.min(span - 1)
                    })
                    .collect()
            };
            for w in 0..t as u64 {
                map.batch_update(workload_batch(&keys_for(w), 0));
            }
            let stop = AtomicBool::new(false);
            let commits = AtomicU64::new(0);
            std::thread::scope(|s| {
                for w in 0..t as u64 {
                    let keys = keys_for(w);
                    let (map, stop, commits) = (&map, &stop, &commits);
                    s.spawn(move || {
                        mkbench::with_panic_context(
                            || format!("cross-batch writer {w}/{t}"),
                            || {
                                let mut stamp = w + 1;
                                while !stop.load(Ordering::Relaxed) {
                                    map.batch_update(workload_batch(&keys, stamp));
                                    commits.fetch_add(1, Ordering::Relaxed);
                                    stamp += t as u64;
                                }
                            },
                        );
                    });
                }
                std::thread::sleep(Duration::from_secs_f64(args.secs));
                stop.store(true, Ordering::Relaxed);
            });
            let rate = commits.load(Ordering::Relaxed) as f64 / args.secs;
            println!("t={t:<2}  two-phase: {rate:>10.0} batches/s");
        }
    }
}

fn workload_batch(keys: &[u64], stamp: u64) -> index_api::Batch<u64, u64> {
    index_api::Batch::new(keys.iter().map(|k| index_api::BatchOp::Put(*k, stamp)).collect())
}

/// Where sharding wins and where skew kills it: the update-heavy
/// scenario over uniform vs shard-skewed traffic, unsharded Jiffy vs
/// `sharded-jiffy` at 2 and 8 shards. Splits are chosen per distribution
/// (`workload::shard_splits`), so the skewed run shows how much of the
/// damage distribution-aware splitting can undo.
fn cmd_sharding(args: &Args) {
    let threads = *args.threads.iter().max().unwrap();
    println!(
        "# sharding: update-only single ops, t={threads}, keys {} (skew: {}% of traffic to the bottom 1/{} of the key space)",
        args.keys,
        workload::HOT_TRAFFIC_PCT,
        workload::HOT_SPAN_DIV
    );
    let lineup =
        args.lineup(|| vec![IndexKind::Jiffy, IndexKind::Sharded(2), IndexKind::Sharded(8)]);
    for (label, dist) in [("uniform", KeyDist::Uniform), ("shard-skewed", KeyDist::HotRange)] {
        let scenario =
            Scenario::new(KvShape::K4V4, dist, ThreadMix::UPDATE_ONLY, 0, BatchMode::Single);
        println!("## {label} ({})", scenario.id);
        let mut baseline: Option<f64> = None;
        for kind in &lineup {
            let cfg = cfg_for(args, threads);
            let m = run_cell(KvShape::K4V4, *kind, &scenario, &cfg);
            let base = *baseline.get_or_insert(m.total_mops);
            println!(
                "{:<16} {:>8.3} Mops/s  ({:.2}x vs {})",
                kind.label(),
                m.total_mops,
                m.total_mops / base.max(1e-9),
                lineup[0].label()
            );
        }
    }
    cmd_sharding_cross_batch(args);
}

/// `mkbench reshard` — throughput through **live shard migrations**: the
/// paper's snapshot machinery (§3.4) plus the two-phase batch path
/// (§3.3.2–§3.3.3) lifted to whole shards (`jiffy_shard::ElasticJiffy`).
/// Three measured windows under the mixed workload (25% update / 50%
/// lookup / 25% scans of 100):
///
/// 1. steady state on the starting layout (`--shards`, min 2);
/// 2. a window with migrations continuously in flight — the widest shard
///    is split and immediately re-merged, in a loop;
/// 3. steady state after splitting every starting shard (2× the shards).
///
/// Each op (a scan counts as one) increments one relaxed counter, the
/// same cost in every window, so the three numbers are comparable.
fn cmd_reshard(args: &Args) {
    use index_api::OrderedIndex as _;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    if args.indices.is_some() {
        usage_error("reshard always runs elastic-jiffy; --indices is not accepted");
    }
    let threads = *args.threads.iter().max().unwrap();
    let shards = args.shards.max(2);
    let key_space = args.keys;
    // MKBENCH_INJECT_PANIC=<n>: deliberately panic the worker whose op
    // takes the mid-migration window's counter to exactly n, so CI can
    // smoke the dump-on-panic path (the panic-context wrapper prints the
    // merged flight-recorder tail before re-raising). An unparsable
    // value exits 2 rather than silently disarming the smoke.
    let inject_panic: Option<u64> = std::env::var("MKBENCH_INJECT_PANIC")
        .ok()
        .and_then(|v| mkbench::parse_inject_panic(&v).unwrap_or_else(|msg| usage_error(&msg)));
    let map = Arc::new(jiffy_shard::ElasticJiffy::<u64, u64>::with_router(
        jiffy_shard::Router::range_uniform(shards, key_space),
        jiffy::JiffyConfig::default(),
    ));
    for i in 0..key_space / 2 {
        map.put(workload::permute(i, key_space), i);
    }
    println!(
        "# reshard: elastic-jiffy, mixed workload (25u/50l/25s, scan 100), t={threads}, keys {key_space}, {shards} shards to start"
    );

    let measure = |label: &str, during: Option<&dyn Fn(&AtomicBool)>| -> f64 {
        let stop = AtomicBool::new(false);
        let ops = AtomicU64::new(0);
        // Arm the deliberate crash only while migrations are in flight,
        // so the dumped tail actually contains reshard lifecycle events.
        let armed = inject_panic.filter(|_| label.starts_with("mid-migration"));
        let plans = workload::ThreadMix::MIXED.plan(threads);
        std::thread::scope(|s| {
            for (tid, plan) in plans.iter().enumerate() {
                let map = Arc::clone(&map);
                let (stop, ops) = (&stop, &ops);
                let mut sched = workload::RoleSchedule::new(*plan);
                let window = label.to_string();
                s.spawn(move || {
                    // The rare reshard flake re-raises through
                    // `thread::scope` with its payload flattened; capture
                    // which window/worker died while it is still known.
                    let ctx = format!(
                        "reshard window '{window}', worker {tid}/{threads}, {} shards",
                        map.shard_count()
                    );
                    mkbench::with_panic_context(
                        || ctx.clone(),
                        || {
                            let mut gen = workload::KeyGen::new(
                                workload::KeyDist::Uniform,
                                key_space,
                                tid as u64 + 1,
                            );
                            while !stop.load(Ordering::Relaxed) {
                                let k = gen.next_key();
                                match sched.next_role() {
                                    workload::Role::Update => {
                                        if gen.next_raw() & 1 == 0 {
                                            map.put(k, k);
                                        } else {
                                            map.remove(&k);
                                        }
                                    }
                                    workload::Role::Lookup => {
                                        std::hint::black_box(map.get(&k));
                                    }
                                    workload::Role::Scan => {
                                        std::hint::black_box(map.scan_collect(&k, 100));
                                    }
                                }
                                let n = ops.fetch_add(1, Ordering::Relaxed) + 1;
                                // fetch_add hands out unique values, so
                                // exactly one worker crosses the trigger.
                                if armed == Some(n) {
                                    panic!("deliberate MKBENCH_INJECT_PANIC crash after {n} ops");
                                }
                            }
                        },
                    );
                });
            }
            let start = std::time::Instant::now();
            match during {
                None => std::thread::sleep(Duration::from_secs_f64(args.secs)),
                Some(f) => f(&stop),
            }
            let elapsed = start.elapsed();
            stop.store(true, Ordering::Relaxed);
            let mops = ops.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64() / 1e6;
            println!("{label:<34} {mops:>8.3} Mops/s  ({} shards now)", map.shard_count());
            mops
        })
    };

    let steady_before = measure(&format!("steady @ {shards} shards"), None);

    // Mid-migration window: split the widest shard at its midpoint and
    // merge it straight back, continuously, so a migration is live for
    // as much of the window as the cutovers allow.
    let migrations = AtomicU64::new(0);
    let churn = |_stop: &AtomicBool| {
        let deadline = std::time::Instant::now() + Duration::from_secs_f64(args.secs);
        while std::time::Instant::now() < deadline {
            let mut bounds = vec![0u64];
            bounds.extend(map.splits());
            bounds.push(key_space);
            let widest = bounds
                .windows(2)
                .enumerate()
                .max_by_key(|(_, w)| w[1] - w[0])
                .map(|(i, w)| (i, w[0] + (w[1] - w[0]) / 2))
                .expect("at least one shard");
            let (left, mid) = widest;
            if map.split_at(mid).is_ok() {
                map.merge_at(left).expect("the boundary just inserted can be removed");
                migrations.fetch_add(2, Ordering::Relaxed);
            }
        }
    };
    let mid = measure("mid-migration (split+merge loop)", Some(&churn));
    println!(
        "{:<34} {} migrations committed in the window",
        "",
        migrations.load(Ordering::Relaxed)
    );

    // Split every starting shard at its midpoint: the elastic end state.
    let mut bounds = vec![0u64];
    bounds.extend(map.splits());
    bounds.push(key_space);
    for w in bounds.windows(2) {
        let mid = w[0] + (w[1] - w[0]) / 2;
        if mid > w[0] {
            map.split_at(mid).unwrap_or_else(|e| usage_error(&format!("split at {mid}: {e}")));
        }
    }
    let steady_after = measure(&format!("steady @ {} shards", map.shard_count()), None);
    println!(
        "mid-migration/steady: {:.2}x   post-split/steady: {:.2}x",
        mid / steady_before.max(1e-9),
        steady_after / steady_before.max(1e-9)
    );
}

/// `mkbench trace` — exercise every traced subsystem briefly (single
/// and 10-op batched updates, lookups, scans, plus one live shard
/// split+merge on an elastic-jiffy map), then emit the merged,
/// version-ordered flight-recorder trace and the metrics snapshot as
/// JSON (schema `jiffy-obs-trace/v1`). `--json FILE` writes a file;
/// default is stdout. Build with `--features trace-verbose` to include
/// the high-frequency events (e.g. `BackoffRamp`).
fn cmd_trace(args: &Args) {
    use index_api::OrderedIndex as _;
    if args.indices.is_some() {
        usage_error("trace always runs elastic-jiffy; --indices is not accepted");
    }
    let threads = (*args.threads.iter().max().unwrap()).max(2);
    let key_space = args.keys;
    let map = Arc::new(jiffy_shard::ElasticJiffy::<u64, u64>::with_router(
        jiffy_shard::Router::range_uniform(2, key_space),
        jiffy::JiffyConfig::default(),
    ));
    for i in 0..key_space / 2 {
        map.put(workload::permute(i, key_space), i);
    }
    let stop = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let map = Arc::clone(&map);
            let stop = &stop;
            s.spawn(move || {
                let mut gen =
                    workload::KeyGen::new(workload::KeyDist::Uniform, key_space, tid as u64 + 1);
                let mut buf: Vec<index_api::BatchOp<u64, u64>> = Vec::new();
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let k = gen.next_key();
                    match gen.next_raw() & 3 {
                        0 => {
                            buf.clear();
                            for _ in 0..10 {
                                let k = gen.next_key();
                                if gen.next_raw() & 1 == 0 {
                                    buf.push(index_api::BatchOp::Put(k, k));
                                } else {
                                    buf.push(index_api::BatchOp::Remove(k));
                                }
                            }
                            map.batch_update(index_api::Batch::new(std::mem::take(&mut buf)));
                        }
                        1 => {
                            map.put(k, k);
                        }
                        2 => {
                            std::hint::black_box(map.get(&k));
                        }
                        _ => {
                            std::hint::black_box(map.scan_collect(&k, 50));
                        }
                    }
                }
            });
        }
        // One live split and merge mid-run, so the trace holds the full
        // reshard lifecycle (Stage → GateQuiesce → Drain → Cutover)
        // interleaved with the per-shard events.
        let run = Duration::from_secs_f64(args.secs.max(0.3));
        std::thread::sleep(run / 3);
        let first_boundary = map.splits().first().copied().unwrap_or(key_space);
        let mid_key = first_boundary / 2;
        if mid_key > 0 && map.split_at(mid_key).is_ok() {
            map.merge_at(0).expect("the boundary just inserted can be removed");
        }
        std::thread::sleep(run / 3);
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    let trace = jiffy_obs::merged_trace();
    let mut snap = jiffy_obs::snapshot();
    snap.add_structure(map.obs_stats());
    let meta = args.meta("trace");
    let text = mkbench::report::render_trace_json("trace", meta.created_unix, &trace, &snap);
    match &args.json {
        Some(path) => {
            std::fs::write(path, &text).expect("write trace json");
            eprintln!("wrote {path} ({} events, {} recorder threads)", trace.len(), snap.threads);
        }
        None => print!("{text}"),
    }
}

/// §4.3 headline: large random batches, Jiffy vs the lock-based CA trees.
fn cmd_speedup(args: &Args) {
    let threads = *args.threads.iter().max().unwrap();
    let cfg = cfg_for(args, threads);
    let scenario = Scenario::new(
        KvShape::K4V4,
        KeyDist::Uniform,
        ThreadMix::UPDATE_ONLY,
        0,
        BatchMode::BatchRand { size: 100 },
    );
    let mut results = Vec::new();
    for kind in [IndexKind::Jiffy, IndexKind::CaAvl, IndexKind::CaSl] {
        let m = run_cell(KvShape::K4V4, kind, &scenario, &cfg);
        println!("{:<8} {:.3} Mops/s", kind.name(), m.total_mops);
        results.push((kind, m.total_mops));
    }
    let jiffy = results[0].1;
    for (kind, mops) in &results[1..] {
        println!(
            "speedup jiffy vs {}: {:.2}x  (paper: 4.9x-7.4x for random 100-op batches)",
            kind.name(),
            jiffy / mops.max(1e-9)
        );
    }
}

/// §4.3 revision-size observation: the autoscaler should choose small
/// revisions in write-only workloads and larger ones with many readers.
fn cmd_autoscale(args: &Args) {
    let secs = args.secs.max(2.0);
    for (label, mix) in [
        ("write-only", ThreadMix::UPDATE_ONLY),
        ("update-lookup (25/75)", ThreadMix::UPDATE_LOOKUP),
    ] {
        let map = Arc::new(jiffy::JiffyMap::<u64, u64>::new());
        for k in 0..args.keys / 2 {
            map.put(k * 2, k);
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        // plan(), not assign(): at small thread counts assign() would run
        // a 100% update workload under the "update-lookup (25/75)" label
        // (the printed comparison would then be write-only vs write-only
        // and say nothing about the autoscaler).
        let plans = mix.plan(*args.threads.iter().max().unwrap());
        std::thread::scope(|s| {
            for (tid, plan) in plans.iter().enumerate() {
                let map = Arc::clone(&map);
                let stop = &stop;
                let keys = args.keys;
                let mut sched = workload::RoleSchedule::new(*plan);
                s.spawn(move || {
                    let mut gen = workload::KeyGen::new(KeyDist::Uniform, keys, tid as u64 + 1);
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        let k = gen.next_key();
                        match sched.next_role() {
                            workload::Role::Update => {
                                if gen.next_raw() & 1 == 0 {
                                    map.put(k, k);
                                } else {
                                    map.remove(&k);
                                }
                            }
                            _ => {
                                std::hint::black_box(map.get(&k));
                            }
                        }
                    }
                });
            }
            std::thread::sleep(Duration::from_secs_f64(secs));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let stats = map.debug_stats();
        println!(
            "{label:<24} nodes={:<6} entries={:<8} mean revision size = {:.1} (paper: ~35 write-only vs ~130 update-lookup)",
            stats.nodes, stats.entries, stats.mean_revision_size
        );
    }
}

fn cmd_ablation(which: &str, args: &Args) {
    match which {
        "clock" => {
            // A1: TSC-style clock vs shared atomic counter, update-only.
            let scenario = Scenario::new(
                KvShape::K4V4,
                KeyDist::Uniform,
                ThreadMix::UPDATE_ONLY,
                0,
                BatchMode::Single,
            );
            println!("# A1 clock ablation (update-only): versions via TSC vs shared counter");
            for &threads in &args.threads {
                let cfg = cfg_for(args, threads);
                let tsc = run_cell(KvShape::K4V4, IndexKind::Jiffy, &scenario, &cfg);
                let atomic = run_cell(KvShape::K4V4, IndexKind::JiffyAtomicClock, &scenario, &cfg);
                println!(
                    "t={threads}: jiffy(tsc) {:.3} Mops/s, jiffy(atomic-counter) {:.3} Mops/s ({:.2}x)",
                    tsc.total_mops,
                    atomic.total_mops,
                    tsc.total_mops / atomic.total_mops.max(1e-9)
                );
            }
        }
        "hash" => {
            // A2: in-revision hash index vs pure binary search, read-heavy.
            let scenario = Scenario::new(
                KvShape::K4V4,
                KeyDist::Uniform,
                ThreadMix::UPDATE_LOOKUP,
                0,
                BatchMode::Single,
            );
            println!("# A2 hash-index ablation (25% update / 75% lookup)");
            for &threads in &args.threads {
                let cfg = cfg_for(args, threads);
                let with = run_cell(KvShape::K4V4, IndexKind::Jiffy, &scenario, &cfg);
                let without = run_cell(KvShape::K4V4, IndexKind::JiffyNoHash, &scenario, &cfg);
                println!(
                    "t={threads}: hash-index {:.3} Mops/s, binary-search {:.3} Mops/s ({:.2}x)",
                    with.total_mops,
                    without.total_mops,
                    with.total_mops / without.total_mops.max(1e-9)
                );
            }
        }
        "revsize" => {
            // A3: fixed revision sizes vs the adaptive policy, two mixes.
            println!("# A3 revision-size ablation");
            for (label, mix, scan) in [
                ("update-only", ThreadMix::UPDATE_ONLY, 0usize),
                ("mixed+scans", ThreadMix::MIXED, 100),
            ] {
                let scenario =
                    Scenario::new(KvShape::K4V4, KeyDist::Uniform, mix, scan, BatchMode::Single);
                let threads = *args.threads.iter().max().unwrap();
                let cfg = cfg_for(args, threads);
                print!("{label:<12}");
                for kind in [
                    IndexKind::JiffyFixed(8),
                    IndexKind::JiffyFixed(64),
                    IndexKind::JiffyFixed(256),
                    IndexKind::Jiffy,
                ] {
                    let m = run_cell(KvShape::K4V4, kind, &scenario, &cfg);
                    let tag = match kind {
                        IndexKind::JiffyFixed(n) => format!("fixed{n}"),
                        _ => "adaptive".into(),
                    };
                    print!("  {tag}={:.3}", m.total_mops);
                }
                println!(" (Mops/s)");
            }
        }
        other => usage_error(&format!("unknown ablation `{other}` (clock|hash|revsize)")),
    }
}

/// Print a CLI usage error and exit 2 (no panic backtrace for typos).
fn usage_error(msg: &str) -> ! {
    eprintln!("mkbench: {msg}");
    std::process::exit(2);
}

fn main() {
    // With the `audit-sched` feature, AUDIT_SCHED_SEED=<n> runs the
    // whole benchmark under the seeded race explorer (perturbed, NOT
    // representative of performance — a correctness stress mode).
    #[cfg(feature = "audit-sched")]
    let _explorer = jiffy_audit::sched::config_from_env().map(|cfg| {
        eprintln!("mkbench: audit-sched explorer installed (seed {})", cfg.seed);
        // A failure found by the explorer is worthless without the seed
        // *and* the interleaving: dump the flight-recorder tail with the
        // seed attached before the default hook prints the backtrace.
        let seed = cfg.seed;
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            jiffy_obs::dump_on_failure(&format!("audit-sched explorer failure (seed {seed})"), 64);
            prev(info);
        }));
        jiffy_audit::sched::install_explorer(cfg)
    });
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!(
            "usage: mkbench <figure N|quick|compare OLD NEW|sharding|reshard|speedup|autoscale|ablation WHICH|trace> [flags]"
        );
        eprintln!("flags: --threads 1,2,4  --secs S  --warmup S  --keys K  --indices a,b,c");
        eprintln!("       --shards N (default for sharded-* indices named without :<n>)");
        eprintln!("       --out results.csv  --json BENCH_label.json  --tolerance PCT (compare)");
        eprintln!(
            "       --dir ARTIFACTS (root for relative --out/--json; created, must be writable)"
        );
        std::process::exit(2);
    };
    match cmd.as_str() {
        "quick" => {
            let args = parse_flags(&argv[1..]);
            cmd_quick(&args);
        }
        "sharding" => {
            let args = parse_flags(&argv[1..]);
            cmd_sharding(&args);
        }
        "reshard" => {
            let args = parse_flags(&argv[1..]);
            cmd_reshard(&args);
        }
        "trace" => {
            let args = parse_flags(&argv[1..]);
            cmd_trace(&args);
        }
        "compare" => {
            cmd_compare(&argv[1..]);
        }
        "figure" => {
            let n: u8 = argv
                .get(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| usage_error("`figure` takes a figure number 5-10"));
            let args = parse_flags(&argv[2..]);
            cmd_figure(n, &args);
        }
        "speedup" => {
            let args = parse_flags(&argv[1..]);
            cmd_speedup(&args);
        }
        "autoscale" => {
            let args = parse_flags(&argv[1..]);
            cmd_autoscale(&args);
        }
        "ablation" => {
            let which = argv.get(1).expect("ablation name").clone();
            let args = parse_flags(&argv[2..]);
            cmd_ablation(&which, &args);
        }
        other => {
            eprintln!("unknown command {other}");
            std::process::exit(2);
        }
    }
}
