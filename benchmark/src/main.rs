//! `jiffy-bench`: the repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! jiffy-bench run    <workload|all> [--seed N] [--seconds S] [--quick]
//! jiffy-bench trace  <workload|all> [--seed N] [--seconds S] [--quick]
//! jiffy-bench repeat --sets N [--seed N] [--seconds S]
//! jiffy-bench manifest
//! jiffy-bench --workload W --seed N --seconds S --trace 0|1     (the driver's form)
//! ```

mod api;
mod check;
mod engine;
mod gen;
mod hist;
mod json;
mod ladder;
mod loadgen;
mod metrics;
mod proc;
mod repeat;
mod serve;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

#[cfg(feature = "counters")]
#[global_allocator]
static ALLOC: proc::heap::Counting = proc::heap::Counting;

use metrics::{MetricSet, END_TO_END, PER_LAYER, RUN_SECONDS};
use workloads::{Outcome, RunOpts, Workload};

/// Everything the benchmark writes goes under `benchmark/results/`.
pub fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

fn e2e_names() -> impl Iterator<Item = &'static str> {
    END_TO_END.iter().map(|m| m.name)
}

fn layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|m| m.name)
}

/// One run of one workload, in this process.
fn run_workload(workload: Workload, opts: &RunOpts) -> Outcome {
    let (steal0, ticks0) = proc::steal_ticks();
    let mut out = match workload {
        Workload::ServeMixed | Workload::ServeDurable => serve::run(workload, opts),
        Workload::EnginePoint => engine::run_point(opts),
        Workload::EngineBatchScan => engine::run_batch_scan(opts),
    };
    // How much of the run the hypervisor gave to someone else: a run with
    // more than a few percent here measured the host, not the program.
    let (steal1, ticks1) = proc::steal_ticks();
    let steal = (steal1 - steal0) as f64 / (ticks1 - ticks0).max(1) as f64;
    out.metrics.set("diag.steal_frac", steal, 0);
    if opts.trace {
        let scratch =
            results_dir().join(format!("ladder-{}-{}", workload.name(), std::process::id()));
        let (ladder, spans) = ladder::run(workload, opts, &scratch);
        let run_metrics = std::mem::take(&mut out.metrics);
        out.metrics = ladder;
        out.metrics.absorb(run_metrics);
        out.spans.extend(spans);
        residual(workload, &mut out.metrics);
    }
    out
}

/// What of the heavy-phase read latency the ladder's rungs do not
/// account for: waiting, wake-ups, the socket and the io loop.
fn residual(workload: Workload, m: &mut MetricSet) {
    if !workload.is_serving() {
        return;
    }
    let ns = |name| m.get(name).unwrap_or(0.0);
    let proto = ns("proto.req_encode_ns")
        + ns("proto.req_decode_ns")
        + ns("proto.resp_encode_ns")
        + ns("proto.resp_decode_ns");
    // Two queue hops: request to the worker, response to the io thread.
    let accounted = proto + 2.0 * ns("queue.xfer_ns_2p") + ns("shard.get_ns");
    m.set("server.residual_p50_us", ns("diag.read_p50_us") - accounted / 1e3, 0);
}

/// Prints the human report of one run and, when traced, writes the spans.
fn report(workload: Workload, opts: &RunOpts, out: &Outcome) {
    println!(
        "== {} seed {} seconds {} cores {}{}",
        workload.name(),
        opts.seed,
        opts.seconds,
        proc::cores(),
        if opts.quick { " QUICK" } else { "" }
    );
    println!("end-to-end:");
    print!("{}", out.metrics.table(e2e_names()));
    println!(
        "  {:<34} {:>16.6} {:<8} n={}",
        "fail_frac",
        out.check.fail_frac(),
        "ratio",
        out.check.attempted
    );
    println!(
        "per-layer{}:",
        if opts.trace { "" } else { " (the run's own only; `trace` adds the ladder)" }
    );
    print!(
        "{}",
        out.metrics.table(layer_names().filter(|n| opts.trace || out.metrics.get(n).is_some()))
    );
    for note in out.notes.iter().chain(&out.check.notes) {
        println!("  note: {note}");
    }
    if opts.trace {
        if !cfg!(feature = "counters") {
            println!(
                "  note: built without `--features counters`: the jiffy.*_per_* counts read 0"
            );
        }
        println!("spans (self = duration minus children):");
        for s in trace::summarize(&out.spans) {
            println!(
                "  {:<34} n={:<9} p50 {:>12.0} ns   self p50 {:>12.0} ns",
                s.name, s.count, s.p50_ns, s.self_p50_ns
            );
        }
        let path = results_dir().join(format!("{}.trace.jsonl", workload.name()));
        match trace::write_jsonl(&path, &out.spans) {
            Ok(n) => println!("wrote {n} of {} spans to {}", out.spans.len(), path.display()),
            Err(e) => println!("could not write {}: {e}", path.display()),
        }
    }
}

/// The result line the driver reads: the last line of standard output.
fn result_line(out: &Outcome, trace: bool) -> String {
    let metrics =
        if trace { out.metrics.json(layer_names()) } else { out.metrics.json(e2e_names()) };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.check.failed == 0,
        out.check.attempted.max(1),
        out.check.failed,
        metrics
    )
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { positional: Vec::new(), flags: Vec::new(), quick: false };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.strip_prefix("--") {
            Some("quick") => args.quick = true,
            Some(flag) => {
                let value = it.next().ok_or_else(|| format!("--{flag} needs a value"))?;
                args.flags.push((flag.to_string(), value));
            }
            None => args.positional.push(a),
        }
    }
    Ok(args)
}

impl Args {
    fn flag<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(f, _)| f == name) {
            Some((_, v)) => v.parse().map_err(|_| format!("--{name} {v}: not a valid value")),
            None => Ok(default),
        }
    }

    fn opts(&self, trace: bool) -> Result<RunOpts, String> {
        let default_seconds = if self.quick { 3.0 } else { RUN_SECONDS as f64 };
        let opts = RunOpts {
            seed: self.flag("seed", 1)?,
            seconds: self.flag("seconds", default_seconds)?,
            trace,
            quick: self.quick,
        };
        if !(opts.seconds >= 1.0 && opts.seconds <= 60.0) {
            return Err(format!("--seconds {} is outside 1..=60", opts.seconds));
        }
        Ok(opts)
    }

    fn workloads(&self) -> Result<Vec<Workload>, String> {
        match self.positional.get(1).map(String::as_str) {
            Some("all") => Ok(Workload::ALL.to_vec()),
            Some(name) => Workload::parse(name)
                .map(|w| vec![w])
                .ok_or_else(|| format!("unknown workload {name}")),
            None => Err("which workload? (or `all`)".into()),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    match args.positional.first().map(String::as_str) {
        // The driver's form: one workload, here, result line last.
        None => {
            let name: String = args.flag("workload", String::new())?;
            let workload =
                Workload::parse(&name).ok_or_else(|| format!("--workload {name:?}: unknown"))?;
            let opts = args.opts(args.flag::<u8>("trace", 0)? != 0)?;
            let out = run_workload(workload, &opts);
            report(workload, &opts, &out);
            println!("{}", result_line(&out, opts.trace));
            Ok(true)
        }
        Some(cmd @ ("run" | "trace")) => {
            let opts = args.opts(cmd == "trace")?;
            let workloads = args.workloads()?;
            let mut ok = true;
            for w in &workloads {
                // `all` runs each workload in a process of its own: peak
                // memory is per process, and so are the engine-only
                // assertions.
                ok &= if workloads.len() > 1 {
                    repeat::child(*w, &opts, true)?.correct
                } else {
                    let out = run_workload(*w, &opts);
                    report(*w, &opts, &out);
                    out.check.failed == 0
                };
            }
            println!("{}", if ok { "all outputs correct" } else { "FAILED: fail_frac > 0" });
            Ok(ok)
        }
        Some("repeat") => repeat::run(args.flag("sets", 5)?, &args.opts(false)?),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(true)
        }
        Some(other) => Err(format!("unknown command {other}")),
    }
}

fn main() -> ExitCode {
    proc::keep_freed_memory();
    proc::cpus_at_start(); // before any thread is confined to some of them
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("jiffy-bench: {msg}");
            ExitCode::from(2)
        }
    }
}
