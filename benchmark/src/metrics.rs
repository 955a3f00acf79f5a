//! The metrics this benchmark declares — the single source that
//! `BENCHMARK.json` is generated from (`jiffy-bench manifest`) and that
//! every run's output is checked against — and the container a run
//! fills.

use crate::hist::{quantile, Windowed};
use crate::workloads::Workload;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better, bound }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer { name, unit, better }
}

/// Reported by every workload of an untraced run. See the README for
/// what each one binds to per workload and for the evidence behind the
/// bounds.
pub const END_TO_END: &[EndToEnd] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_s", "op/s", "higher", 0.25),
    e2e("entries_s", "entry/s", "higher", 0.25),
    e2e("read_p90_us", "us", "lower", 0.25),
    e2e("write_p90_us", "us", "lower", 0.25),
    e2e("rss_mb", "MiB", "lower", 0.25),
];

/// Reported by every workload of a traced run; zero where the workload
/// does not run the layer or phase the metric belongs to.
pub const PER_LAYER: &[PerLayer] = &[
    // protocol: the workload's ops as frames, codec calls alone.
    layer("proto.req_encode_ns", "ns", "lower"),
    layer("proto.req_decode_ns", "ns", "lower"),
    layer("proto.resp_encode_ns", "ns", "lower"),
    layer("proto.resp_decode_ns", "ns", "lower"),
    layer("proto.req_bytes", "B", "lower"),
    layer("proto.resp_bytes", "B", "lower"),
    // queue: the ingress queue and two reference queues, same messages.
    layer("queue.xfer_ns_1p", "ns", "lower"),
    layer("queue.xfer_ns_2p", "ns", "lower"),
    layer("queue.std_mpsc_xfer_ns_2p", "ns", "lower"),
    layer("queue.mutex_deque_xfer_ns_2p", "ns", "lower"),
    // server: io loop + workers.
    layer("server.ops_per_batch", "count", "higher"),
    layer("server.coalesced_frac_heavy", "ratio", "higher"),
    layer("server.coalesced_frac_sat", "ratio", "higher"),
    layer("server.io_cpu_frac_light", "ratio", "lower"),
    layer("server.io_cpu_frac_heavy", "ratio", "lower"),
    layer("server.worker_cpu_frac_light", "ratio", "lower"),
    layer("server.worker_cpu_frac_heavy", "ratio", "lower"),
    layer("server.stats_rtt_p50_us", "us", "lower"),
    layer("server.get_rtt_p50_us", "us", "lower"),
    layer("server.worker_hop_p50_us", "us", "lower"),
    layer("server.residual_p50_us", "us", "lower"),
    layer("server.conn_setup_us", "us", "lower"),
    // jiffy-dur.
    layer("dur.put_ns_batch", "ns", "lower"),
    layer("dur.put_ns_fsync", "ns", "lower"),
    layer("dur.batch_ns_per_op_fsync", "ns", "lower"),
    layer("dur.tax_put_ns", "ns", "lower"),
    layer("dur.wal_bytes_per_user_byte", "ratio", "lower"),
    layer("dur.fsyncs_per_kwrite", "count", "lower"),
    layer("dur.sync_p50_us", "us", "lower"),
    layer("dur.checkpoint_s", "s", "lower"),
    layer("dur.checkpoint_bytes_per_entry", "B", "lower"),
    layer("dur.recover_s", "s", "lower"),
    layer("dur.recover_records_s", "1/s", "higher"),
    // jiffy-shard.
    layer("shard.get_ns", "ns", "lower"),
    layer("shard.put_ns", "ns", "lower"),
    layer("shard.batch_ns_per_op", "ns", "lower"),
    layer("shard.scan_ns_per_entry", "ns", "lower"),
    layer("shard.tax_get_ns", "ns", "lower"),
    layer("shard.tax_batch_ns_per_op", "ns", "lower"),
    layer("shard.tax_scan_ns_per_entry", "ns", "lower"),
    layer("shard.cross_batch_frac", "ratio", "lower"),
    layer("shard.split_s", "s", "lower"),
    layer("shard.merge_s", "s", "lower"),
    // jiffy.
    layer("jiffy.get_ns", "ns", "lower"),
    layer("jiffy.put_ns", "ns", "lower"),
    layer("jiffy.remove_ns", "ns", "lower"),
    layer("jiffy.batch_ns_per_op", "ns", "lower"),
    layer("jiffy.scan_ns_per_entry", "ns", "lower"),
    layer("jiffy.snapshot_ns", "ns", "lower"),
    layer("jiffy.nodes_per_descent", "count", "lower"),
    layer("jiffy.revisions_per_get", "count", "lower"),
    layer("jiffy.fastpath_hit_rate", "ratio", "higher"),
    layer("jiffy.locate_retries_per_kop", "count", "lower"),
    layer("jiffy.help_iters_per_kop", "count", "lower"),
    layer("jiffy.backoff_waits_per_kop", "count", "lower"),
    layer("jiffy.nodes", "count", "lower"),
    layer("jiffy.mean_revision_size", "count", "higher"),
    layer("jiffy.max_revision_depth", "count", "lower"),
    layer("jiffy.bytes_per_entry", "B", "lower"),
    // jiffy-clock.
    layer("clock.now_ns", "ns", "lower"),
    // generator and tracing: validity of the serving numbers.
    layer("gen.lag_p99_us", "us", "lower"),
    layer("gen.cpu_frac", "ratio", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    // Latencies seen by a user that not every workload has, or whose
    // run-to-run spread is too wide for a bound.
    layer("diag.read_p50_us", "us", "lower"),
    layer("diag.read_p99_us", "us", "lower"),
    layer("diag.write_p50_us", "us", "lower"),
    layer("diag.write_p99_us", "us", "lower"),
    layer("diag.scan_p50_us", "us", "lower"),
    layer("diag.scan_p99_us", "us", "lower"),
    layer("diag.heavy_p50_us", "us", "lower"),
    layer("diag.heavy_p99_us", "us", "lower"),
    layer("diag.ops_s_mean", "op/s", "higher"),
    layer("diag.cpu_ms_per_kop", "ms", "lower"),
    layer("diag.slo_miss_frac", "ratio", "lower"),
    layer("diag.steal_frac", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map(|(_, unit)| unit)
        .unwrap_or_else(|| panic!("metric {name} is not declared in metrics.rs"))
}

#[derive(Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    /// How many samples the value summarizes (0 = a single reading).
    pub samples: u64,
}

/// What one run measured, by declared name.
#[derive(Default, Clone)]
pub struct MetricSet(pub Vec<Metric>);

impl MetricSet {
    pub fn set(&mut self, name: &'static str, value: f64, samples: u64) {
        unit_of(name); // panics on an undeclared name
        let value = if value.is_finite() { value } else { 0.0 };
        match self.0.iter_mut().find(|m| m.name == name) {
            Some(m) => *m = Metric { name, value, samples },
            None => self.0.push(Metric { name, value, samples }),
        }
    }

    /// A workload's read latency: the bounded 90th percentile (of the
    /// quiet windows, see `QUIET`) and, beside it, the whole run's median
    /// and 99th.
    pub fn read_latency(&mut self, h: &Windowed) {
        self.latency(["read_p90_us", "diag.read_p50_us", "diag.read_p99_us"], h);
    }

    /// A workload's write latency, likewise.
    pub fn write_latency(&mut self, h: &Windowed) {
        self.latency(["write_p90_us", "diag.write_p50_us", "diag.write_p99_us"], h);
    }

    fn latency(&mut self, [p90, p50, p99]: [&'static str; 3], w: &Windowed) {
        let mut p90s = w.p90s.clone();
        self.set(p90, quantile(&mut p90s, QUIET) / 1e3, p90s.len() as u64);
        let h = &w.all;
        self.set(p50, h.p50() / 1e3, h.count());
        self.set(p99, h.p99() / 1e3, h.count());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    pub fn absorb(&mut self, other: MetricSet) {
        for m in other.0 {
            self.set(m.name, m.value, m.samples);
        }
    }

    /// The human-readable table: every metric by name, value, unit and
    /// sample count.
    pub fn table(&self, names: impl Iterator<Item = &'static str>) -> String {
        let mut out = String::new();
        for name in names {
            let m = self.0.iter().find(|m| m.name == name);
            let (value, samples) = m.map(|m| (m.value, m.samples)).unwrap_or((0.0, 0));
            let n = if samples > 0 { format!("n={samples}") } else { String::new() };
            out.push_str(&format!("  {name:<34} {value:>16.4} {:<8} {n}\n", unit_of(name)));
        }
        out
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}` over exactly `names`;
    /// a name the run did not set reads 0.
    pub fn json(&self, names: impl Iterator<Item = &'static str>) -> String {
        let fields: Vec<String> = names
            .map(|name| {
                let v = self.get(name).unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{}\"}}", unit_of(name))
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// How long one measured run is; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 26;

/// The host is shared, and what it does to a run is one-sided: it slows
/// stretches of it down, by a share that differs from run to run. So a
/// run is cut into windows, and its bounded throughput is the window that
/// nine in ten fall short of, its bounded latency the 90th percentile of
/// the window that nine in ten exceed: the tenth of the run the host
/// disturbed least. The means over the whole run are reported beside
/// them, unbounded (`diag.ops_s_mean`, `diag.*_p50_us`, `diag.*_p99_us`).
pub const QUIET: f64 = 0.10;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let workloads: Vec<String> = Workload::ALL
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name(), w.why()))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn legal_name(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        name.len() <= 64
            && name.chars().all(ok)
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn names_are_legal_unique_and_within_the_caps() {
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(Workload::ALL.iter().map(|w| w.name()))
            .collect();
        assert!(names.iter().all(|n| legal_name(n)), "{names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(Workload::ALL.iter().all(|w| w.why().len() <= 200 && !w.why().contains('\n')));
    }

    /// The committed `BENCHMARK.json` is exactly what this crate emits.
    #[test]
    fn committed_manifest_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(text, manifest(), "regenerate with `jiffy-bench manifest > BENCHMARK.json`");
        let doc = Json::parse(&text).expect("valid JSON");
        let names = |key: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::items)
                .expect("an array")
                .iter()
                .map(|m| m.get("name").and_then(Json::text).expect("a name").to_string())
                .collect()
        };
        assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(names("workloads"), Workload::ALL.iter().map(|w| w.name()).collect::<Vec<_>>());
    }

    /// What a run prints is the declared set, whatever the run filled in.
    #[test]
    fn emitted_names_equal_declared_names() {
        let mut set = MetricSet::default();
        set.set("ops_s", 12.5, 3);
        let doc = Json::parse(&set.json(END_TO_END.iter().map(|m| m.name))).unwrap();
        let emitted: Vec<&str> = doc.fields().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(emitted, END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
        assert_eq!(
            doc.get("ops_s").and_then(|m| m.get("value")).and_then(Json::number),
            Some(12.5)
        );
        let doc = Json::parse(&set.json(PER_LAYER.iter().map(|m| m.name))).unwrap();
        assert_eq!(doc.fields().unwrap().len(), PER_LAYER.len());
    }
}
