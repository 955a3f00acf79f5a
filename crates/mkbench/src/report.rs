//! Measurement records, table rendering, and CSV output — one row per
//! (scenario, index, thread count), matching the series of the paper's
//! figures.

use std::fmt::Write as _;
use std::io::Write as _;

use workload::ThreadMix;

/// Percentile summary of one role's per-operation latency (a batch or a
/// scan counts as one operation here; throughput columns count basic
/// ops). Derived from the runner's log-bucketed histograms.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    pub p50_ns: u64,
    pub p95_ns: u64,
    pub p99_ns: u64,
    pub max_ns: u64,
    /// Latency samples taken (sampled, not one per op).
    pub samples: u64,
}

/// Aggregated per-thread op-cost counters from `jiffy`'s
/// `perf-counters` feature layer, summed over the recording window
/// across all worker threads. Purely informational v2 columns: the
/// compare gate never looks at them, but they are what proves a
/// cache-conscious change did its job when 1-core wall clock cannot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCosts {
    /// Skip-list descents (`find_node_for_key` calls).
    pub descents: u64,
    /// Nodes stepped through during those descents.
    pub nodes_visited: u64,
    /// Revisions inspected by lookup/scan chain walks.
    pub revisions_walked: u64,
    /// Locate-loop restarts.
    pub locate_retries: u64,
    /// Batch-helping loop iterations.
    pub help_iterations: u64,
    /// Bounded backoff waits taken instead of duplicating helping work.
    pub backoff_waits: u64,
    /// Point reads (every `get`, newest or snapshot).
    pub fastpath_attempts: u64,
    /// Point reads answered by the head revision their locate returned.
    pub fastpath_hits: u64,
}

impl OpCosts {
    /// Mean nodes visited per descent (`None` if no descents ran).
    pub fn nodes_per_descent(&self) -> Option<f64> {
        (self.descents > 0).then(|| self.nodes_visited as f64 / self.descents as f64)
    }

    /// Share of point reads answered by the head, in `[0, 1]` (`None` if
    /// no reads ran).
    pub fn fastpath_hit_rate(&self) -> Option<f64> {
        (self.fastpath_attempts > 0)
            .then(|| self.fastpath_hits as f64 / self.fastpath_attempts as f64)
    }
}

/// Throughput of one run, in millions of basic ops per second, plus the
/// v2 fields: effective mix and per-role latency percentiles.
#[derive(Clone, Copy, Debug, Default)]
pub struct Measurement {
    pub total_mops: f64,
    pub update_mops: f64,
    pub read_mops: f64,
    pub scan_mops: f64,
    /// The op-weight mix the run's threads were *scheduled to issue*
    /// (aggregate of the per-thread plans), recorded so a row can never
    /// claim a mixed scenario while scheduling update-only (the seed
    /// baseline's `t=1` lie). Note this is issue-weight, not op-count
    /// share: roles differ in per-op cost, so the share of ops each
    /// role completed is what the `*_mops` columns report. (v2)
    pub mix: ThreadMix,
    /// Per-role latency, present only for roles the run exercised (v2).
    pub update_lat: Option<LatencySummary>,
    pub lookup_lat: Option<LatencySummary>,
    pub scan_lat: Option<LatencySummary>,
    /// Op-cost counters, present only when the harness was built with
    /// `perf-counters` and the index reported any activity (v2,
    /// informational — additive like `latency_ns`, so v1/v2 consumers
    /// and the compare gate are unaffected).
    pub op_costs: Option<OpCosts>,
    /// Flight-recorder event counts (one slot per `jiffy_obs::EventKind`
    /// discriminant) accumulated inside the measurement window, present
    /// only when the run emitted any events. Additive like `op_costs`;
    /// the compare gate ignores it.
    pub trace_events: Option<[u64; jiffy_obs::KIND_COUNT]>,
}

/// One output row.
#[derive(Clone, Debug)]
pub struct Row {
    pub scenario: String,
    pub index: String,
    pub threads: usize,
    pub m: Measurement,
}

/// Render rows grouped by scenario as an aligned text table (the
/// "same rows/series the paper reports": one series per index, one
/// column per thread count).
pub fn render_table(rows: &[Row]) -> String {
    let mut out = String::new();
    let mut scenarios: Vec<&str> = rows.iter().map(|r| r.scenario.as_str()).collect();
    scenarios.dedup();
    let mut threads: Vec<usize> = rows.iter().map(|r| r.threads).collect();
    threads.sort_unstable();
    threads.dedup();
    for sc in scenarios {
        let _ = writeln!(out, "\n# {sc}  (Mops/s total | update)");
        let _ = write!(out, "{:<10}", "index");
        for t in &threads {
            let _ = write!(out, "{:>20}", format!("{t} thr"));
        }
        let _ = writeln!(out);
        let mut indices: Vec<&str> =
            rows.iter().filter(|r| r.scenario == sc).map(|r| r.index.as_str()).collect();
        indices.dedup();
        for idx in indices {
            let _ = write!(out, "{idx:<10}");
            for t in &threads {
                if let Some(r) =
                    rows.iter().find(|r| r.scenario == sc && r.index == idx && r.threads == *t)
                {
                    let _ = write!(
                        out,
                        "{:>20}",
                        format!("{:8.3} | {:7.3}", r.m.total_mops, r.m.update_mops)
                    );
                } else {
                    let _ = write!(out, "{:>20}", "-");
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Metadata describing one harness invocation, embedded in JSON reports.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// What was run ("figure6", "speedup", ...).
    pub label: String,
    pub threads: Vec<usize>,
    pub secs: f64,
    pub warmup: f64,
    pub key_space: u64,
    /// Unix seconds at report time.
    pub created_unix: u64,
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

fn latency_json(role: &str, lat: &Option<LatencySummary>) -> Option<String> {
    lat.map(|l| {
        format!(
            "\"{role}\": {{ \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {}, \"samples\": {} }}",
            l.p50_ns, l.p95_ns, l.p99_ns, l.max_ns, l.samples
        )
    })
}

/// Render rows as a `BENCH_*.json`-schema report (hand-rolled: the build
/// environment vendors no serde). Schema `jiffy-mkbench/v2`:
/// `{schema, label, created_unix, config{...}, rows[{scenario, index,
/// threads, total_mops, update_mops, read_mops, scan_mops,
/// effective_mix{update, lookup, scan}, latency_ns{<role>{p50, p95, p99,
/// max, samples}, ...}}]}`. The four v1 throughput columns are carried
/// unchanged so v1 consumers (and `mkbench compare` against v1
/// baselines) keep working; `latency_ns` holds only roles the run
/// actually exercised, and `op_costs` (raw counter totals plus derived
/// `nodes_per_descent` / `fastpath_hit_rate`) appears only on rows
/// measured with the `perf-counters` feature. `trace_events` (nonzero
/// flight-recorder kind → window count) appears only on rows whose run
/// recorded any events.
pub fn render_json(meta: &RunMeta, rows: &[Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"jiffy-mkbench/v2\",");
    let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(&meta.label));
    let _ = writeln!(out, "  \"created_unix\": {},", meta.created_unix);
    let threads: Vec<String> = meta.threads.iter().map(|t| t.to_string()).collect();
    let _ = writeln!(
        out,
        "  \"config\": {{ \"threads\": [{}], \"secs\": {}, \"warmup\": {}, \"key_space\": {} }},",
        threads.join(", "),
        meta.secs,
        meta.warmup,
        meta.key_space
    );
    let _ = writeln!(out, "  \"rows\": [");
    for (i, r) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = write!(
            out,
            "    {{ \"scenario\": \"{}\", \"index\": \"{}\", \"threads\": {}, \
             \"total_mops\": {:.6}, \"update_mops\": {:.6}, \"read_mops\": {:.6}, \
             \"scan_mops\": {:.6}, \"effective_mix\": {{ \"update\": {:.6}, \
             \"lookup\": {:.6}, \"scan\": {:.6} }}",
            json_escape(&r.scenario),
            json_escape(&r.index),
            r.threads,
            r.m.total_mops,
            r.m.update_mops,
            r.m.read_mops,
            r.m.scan_mops,
            r.m.mix.update,
            r.m.mix.lookup,
            r.m.mix.scan
        );
        let lat: Vec<String> = [
            latency_json("update", &r.m.update_lat),
            latency_json("lookup", &r.m.lookup_lat),
            latency_json("scan", &r.m.scan_lat),
        ]
        .into_iter()
        .flatten()
        .collect();
        if !lat.is_empty() {
            let _ = write!(out, ", \"latency_ns\": {{ {} }}", lat.join(", "));
        }
        if let Some(c) = &r.m.op_costs {
            let _ = write!(
                out,
                ", \"op_costs\": {{ \"descents\": {}, \"nodes_visited\": {}, \
                 \"revisions_walked\": {}, \"locate_retries\": {}, \"help_iterations\": {}, \
                 \"backoff_waits\": {}, \"fastpath_attempts\": {}, \"fastpath_hits\": {}, \
                 \"nodes_per_descent\": {:.3}, \"fastpath_hit_rate\": {:.4} }}",
                c.descents,
                c.nodes_visited,
                c.revisions_walked,
                c.locate_retries,
                c.help_iterations,
                c.backoff_waits,
                c.fastpath_attempts,
                c.fastpath_hits,
                c.nodes_per_descent().unwrap_or(0.0),
                c.fastpath_hit_rate().unwrap_or(0.0)
            );
        }
        if let Some(ev) = &r.m.trace_events {
            let named: Vec<String> = jiffy_obs::ALL_KINDS
                .iter()
                .map(|k| (k.name(), ev[*k as usize]))
                .filter(|(_, n)| *n > 0)
                .map(|(name, n)| format!("\"{name}\": {n}"))
                .collect();
            let _ = write!(out, ", \"trace_events\": {{ {} }}", named.join(", "));
        }
        let _ = writeln!(out, " }}{comma}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Render a merged flight-recorder trace plus an observability snapshot
/// as JSON (hand-rolled, like [`render_json`]). Schema
/// `jiffy-obs-trace/v1`: `{schema, label, created_unix, events[{stamp,
/// thread, seq, kind, a, b}], snapshot{total_events, threads,
/// event_counts{<kind>: n}, histograms{<name>{count, p50, p95, p99,
/// max}}, structures[{label, nodes, entries, mean_revision_size,
/// max_revision_depth, shards[...]}]}}`. Events arrive already sorted
/// by `(stamp, thread, seq)` from `jiffy_obs::merged_trace`.
pub fn render_trace_json(
    label: &str,
    created_unix: u64,
    trace: &[jiffy_obs::TraceEvent],
    snap: &jiffy_obs::ObsSnapshot,
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"jiffy-obs-trace/v1\",");
    let _ = writeln!(out, "  \"label\": \"{}\",", json_escape(label));
    let _ = writeln!(out, "  \"created_unix\": {created_unix},");
    let _ = writeln!(out, "  \"events\": [");
    for (i, e) in trace.iter().enumerate() {
        let comma = if i + 1 < trace.len() { "," } else { "" };
        // `hinted` is emitted only when set: borrowed-stamp events are
        // rare and the column stays additive for existing consumers.
        let hinted = if e.hinted { ", \"hinted\": true" } else { "" };
        let _ = writeln!(
            out,
            "    {{ \"stamp\": {}, \"thread\": {}, \"seq\": {}, \"kind\": \"{}\", \
             \"a\": {}, \"b\": {}{hinted} }}{comma}",
            e.stamp,
            e.thread,
            e.seq,
            e.kind.name(),
            e.a,
            e.b
        );
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"snapshot\": {{");
    let _ = writeln!(out, "    \"total_events\": {},", snap.total_events);
    let _ = writeln!(out, "    \"threads\": {},", snap.threads);
    let counts: Vec<String> =
        snap.event_counts.iter().map(|(k, n)| format!("\"{}\": {n}", k.name())).collect();
    let _ = writeln!(out, "    \"event_counts\": {{ {} }},", counts.join(", "));
    let hists: Vec<String> = snap
        .histograms
        .iter()
        .map(|(name, h)| {
            format!(
                "\"{}\": {{ \"count\": {}, \"p50\": {}, \"p95\": {}, \"p99\": {}, \"max\": {} }}",
                json_escape(name),
                h.count,
                h.p50,
                h.p95,
                h.p99,
                h.max
            )
        })
        .collect();
    let _ = writeln!(out, "    \"histograms\": {{ {} }},", hists.join(", "));
    let _ = writeln!(out, "    \"structures\": [");
    for (i, st) in snap.structures.iter().enumerate() {
        let comma = if i + 1 < snap.structures.len() { "," } else { "" };
        let _ = write!(
            out,
            "      {{ \"label\": \"{}\", \"nodes\": {}, \"entries\": {}, \
             \"mean_revision_size\": {:.3}, \"max_revision_depth\": {}",
            json_escape(&st.label),
            st.nodes,
            st.entries,
            st.mean_revision_size,
            st.max_revision_depth
        );
        if !st.shards.is_empty() {
            let shards: Vec<String> = st
                .shards
                .iter()
                .map(|s| {
                    format!(
                        "{{ \"reads\": {}, \"updates\": {}, \"nodes\": {}, \"entries\": {}, \
                         \"mean_revision_size\": {:.3}, \"max_revision_depth\": {} }}",
                        s.reads,
                        s.updates,
                        s.nodes,
                        s.entries,
                        s.mean_revision_size,
                        s.max_revision_depth
                    )
                })
                .collect();
            let _ = write!(out, ", \"shards\": [{}]", shards.join(", "));
        }
        let _ = writeln!(out, " }}{comma}");
    }
    let _ = writeln!(out, "    ]");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Write rows as a `BENCH_*.json`-schema report (see [`render_json`]).
pub fn write_json(path: &std::path::Path, meta: &RunMeta, rows: &[Row]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir)?;
        }
    }
    std::fs::write(path, render_json(meta, rows))
}

/// Write rows as CSV (one line per row; stable column order).
pub fn write_csv(path: &std::path::Path, rows: &[Row]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "scenario,index,threads,total_mops,update_mops,read_mops,scan_mops")?;
    for r in rows {
        writeln!(
            f,
            "{},{},{},{:.6},{:.6},{:.6},{:.6}",
            r.scenario,
            r.index,
            r.threads,
            r.m.total_mops,
            r.m.update_mops,
            r.m.read_mops,
            r.m.scan_mops
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(sc: &str, idx: &str, t: usize, total: f64) -> Row {
        Row {
            scenario: sc.into(),
            index: idx.into(),
            threads: t,
            m: Measurement { total_mops: total, update_mops: total / 2.0, ..Default::default() },
        }
    }

    #[test]
    fn table_contains_series() {
        let rows = vec![
            row("plot_x_a", "jiffy", 1, 1.0),
            row("plot_x_a", "jiffy", 2, 1.8),
            row("plot_x_a", "cslm", 1, 1.2),
        ];
        let t = render_table(&rows);
        assert!(t.contains("plot_x_a"));
        assert!(t.contains("jiffy"));
        assert!(t.contains("cslm"));
        assert!(t.contains("1 thr"));
        assert!(t.contains("2 thr"));
    }

    #[test]
    fn json_schema_and_escaping() {
        let meta = RunMeta {
            label: "fig\"6\"".into(),
            threads: vec![1, 2],
            secs: 0.5,
            warmup: 0.25,
            key_space: 1000,
            created_unix: 42,
        };
        let mut rows = vec![row("s1", "jiffy", 1, 1.5), row("s1", "cslm", 2, 0.5)];
        rows[0].m.mix = ThreadMix { update: 0.25, lookup: 0.75, scan: 0.0 };
        rows[0].m.update_lat =
            Some(LatencySummary { p50_ns: 100, p95_ns: 200, p99_ns: 400, max_ns: 900, samples: 7 });
        let text = render_json(&meta, &rows);
        assert!(text.contains("\"schema\": \"jiffy-mkbench/v2\""));
        assert!(text.contains("\"label\": \"fig\\\"6\\\"\""));
        assert!(text.contains("\"threads\": [1, 2]"));
        assert!(text.contains("\"index\": \"jiffy\""));
        assert!(text.contains("\"total_mops\": 1.500000"));
        // v2 fields: effective mix on every row, latency only for roles
        // that actually ran.
        assert!(text.contains("\"effective_mix\": { \"update\": 0.250000"));
        assert!(text.contains("\"latency_ns\": { \"update\": { \"p50\": 100, \"p95\": 200"));
        assert_eq!(text.matches("latency_ns").count(), 1, "empty roles must be omitted");
        // Balanced braces (structurally valid JSON object).
        let braces = text.matches('{').count();
        assert_eq!(braces, text.matches('}').count());
    }

    #[test]
    fn json_op_costs_only_when_present() {
        let meta = RunMeta {
            label: "counters".into(),
            threads: vec![1],
            secs: 0.1,
            warmup: 0.0,
            key_space: 10,
            created_unix: 1,
        };
        let mut rows = vec![row("s1", "jiffy", 1, 1.0), row("s1", "cslm", 1, 1.0)];
        rows[0].m.op_costs = Some(OpCosts {
            descents: 10,
            nodes_visited: 35,
            revisions_walked: 12,
            locate_retries: 1,
            help_iterations: 2,
            backoff_waits: 3,
            fastpath_attempts: 8,
            fastpath_hits: 6,
        });
        let text = render_json(&meta, &rows);
        // Counter columns are additive and appear only on the row that
        // actually measured them (like latency_ns).
        assert_eq!(text.matches("op_costs").count(), 1);
        assert!(text.contains("\"nodes_visited\": 35"));
        assert!(text.contains("\"nodes_per_descent\": 3.500"));
        assert!(text.contains("\"fastpath_hit_rate\": 0.7500"));
        let braces = text.matches('{').count();
        assert_eq!(braces, text.matches('}').count());
    }

    #[test]
    fn json_trace_events_only_nonzero_kinds() {
        let meta = RunMeta {
            label: "trace".into(),
            threads: vec![1],
            secs: 0.1,
            warmup: 0.0,
            key_space: 10,
            created_unix: 1,
        };
        let mut rows = vec![row("s1", "jiffy", 1, 1.0), row("s1", "cslm", 1, 1.0)];
        let mut ev = [0u64; jiffy_obs::KIND_COUNT];
        ev[jiffy_obs::EventKind::SplitPublish as usize] = 4;
        ev[jiffy_obs::EventKind::GcFloorAdvance as usize] = 9;
        rows[0].m.trace_events = Some(ev);
        let text = render_json(&meta, &rows);
        assert_eq!(text.matches("trace_events").count(), 1, "baseline row must omit the column");
        assert!(text.contains("\"SplitPublish\": 4"), "{text}");
        assert!(text.contains("\"GcFloorAdvance\": 9"), "{text}");
        assert!(!text.contains("TwoPhasePrepare"), "zero kinds must be omitted");
        let braces = text.matches('{').count();
        assert_eq!(braces, text.matches('}').count());
    }

    #[test]
    fn op_costs_derived_rates() {
        let z = OpCosts::default();
        assert_eq!(z.nodes_per_descent(), None);
        assert_eq!(z.fastpath_hit_rate(), None);
    }

    #[test]
    fn trace_json_schema_and_balance() {
        let trace = vec![
            jiffy_obs::TraceEvent {
                stamp: 10,
                hinted: false,
                thread: 0,
                seq: 1,
                kind: jiffy_obs::EventKind::ReshardStage,
                a: 2,
                b: 4,
            },
            jiffy_obs::TraceEvent {
                stamp: 12,
                hinted: true,
                thread: 1,
                seq: 1,
                kind: jiffy_obs::EventKind::ReshardCutover,
                a: 4,
                b: 2,
            },
        ];
        let mut snap = jiffy_obs::ObsSnapshot {
            event_counts: vec![(jiffy_obs::EventKind::ReshardStage, 1)],
            total_events: 2,
            threads: 2,
            ..Default::default()
        };
        snap.add_structure(jiffy_obs::StructureStats {
            label: "elastic \"x\"".into(),
            nodes: 3,
            entries: 9,
            mean_revision_size: 3.0,
            max_revision_depth: 2,
            shards: vec![jiffy_obs::ShardObs { reads: 5, updates: 7, ..Default::default() }],
        });
        let text = render_trace_json("trace", 42, &trace, &snap);
        assert!(text.contains("\"schema\": \"jiffy-obs-trace/v1\""));
        assert!(text.contains("\"kind\": \"ReshardStage\""));
        assert!(text.contains("\"kind\": \"ReshardCutover\""));
        // Hinted stamps are marked; clock-exact events omit the column.
        assert!(text.contains("\"b\": 2, \"hinted\": true"), "{text}");
        assert!(!text.contains("\"b\": 4, \"hinted\""), "{text}");
        assert!(text.contains("\"event_counts\": { \"ReshardStage\": 1 }"));
        assert!(text.contains("\"label\": \"elastic \\\"x\\\"\""));
        assert!(text.contains("\"shards\": [{ \"reads\": 5, \"updates\": 7"));
        let braces = text.matches('{').count();
        assert_eq!(braces, text.matches('}').count());
        assert_eq!(text.matches('[').count(), text.matches(']').count());
    }

    #[test]
    fn json_roundtrip_to_disk() {
        let dir = std::env::temp_dir().join("mkbench-json-test");
        let path = dir.join("BENCH_test.json");
        let meta = RunMeta {
            label: "smoke".into(),
            threads: vec![1],
            secs: 0.1,
            warmup: 0.0,
            key_space: 10,
            created_unix: 0,
        };
        write_json(&path, &meta, &[row("s", "jiffy", 1, 2.0)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('{'));
        assert!(text.trim_end().ends_with('}'));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("mkbench-test");
        let path = dir.join("out.csv");
        let rows = vec![row("s", "jiffy", 2, 3.5)];
        write_csv(&path, &rows).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("scenario,index,threads"));
        assert!(text.contains("s,jiffy,2,3.5"));
        let _ = std::fs::remove_dir_all(dir);
    }
}
