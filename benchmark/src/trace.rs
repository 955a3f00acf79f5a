//! Spans recorded by the traced run, from the benchmark's own files,
//! around the calls into each layer. Threads collect spans locally; the
//! run keeps them in memory and writes them out once, when it ends.
//!
//! A request's root span `req` (due → response checked) has the
//! children `gen.wait` (due → bytes written), `wire+server` (written →
//! response bytes read) and `client.decode`, all sharing the request id.
//! A ladder span covers a chunk of consecutive calls into one rung and
//! carries the index of the chunk's first op.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;

use crate::hist::Hist;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// `""` for a root span.
    pub parent: &'static str,
    /// Request id or op index; spans of one request share it.
    pub id: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span file holds at most this many spans (the first ones of the
/// run); the summary always covers all of them.
const FILE_CAP: usize = 400_000;

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let kept = &spans[..spans.len().min(FILE_CAP)];
    for s in kept {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"parent\":\"{}\",\"id\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.parent, s.id, s.start_ns, s.end_ns
        )?;
    }
    out.flush()?;
    Ok(kept.len())
}

pub struct SpanSummary {
    pub name: &'static str,
    pub count: u64,
    pub p50_ns: f64,
    /// Median of the span's duration minus the part its children cover.
    pub self_p50_ns: f64,
}

/// Per span name: count, median duration, median self time. Children
/// are matched to their parent by `(parent name, id)`.
pub fn summarize(spans: &[Span]) -> Vec<SpanSummary> {
    let mut child_ns: BTreeMap<(&str, u64), u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| !s.parent.is_empty()) {
        *child_ns.entry((s.parent, s.id)).or_insert(0) += s.end_ns.saturating_sub(s.start_ns);
    }
    let mut by_name: BTreeMap<&'static str, (Hist, Hist)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns.saturating_sub(s.start_ns);
        let covered = child_ns.get(&(s.name, s.id)).copied().unwrap_or(0);
        let (all, own) = by_name.entry(s.name).or_default();
        all.record(total);
        own.record(total.saturating_sub(covered));
    }
    by_name
        .into_iter()
        .map(|(name, (all, own))| SpanSummary {
            name,
            count: all.count(),
            p50_ns: all.p50(),
            self_p50_ns: own.p50(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let span = |name, parent, id, start_ns, end_ns| Span { name, parent, id, start_ns, end_ns };
        let spans = [
            // Durations below 128 ns, which the histogram holds exactly.
            span("req", "", 1, 0, 100),
            span("gen.wait", "req", 1, 0, 10),
            span("wire+server", "req", 1, 10, 90),
            span("req", "", 2, 0, 100), // no children recorded
        ];
        let sum = summarize(&spans);
        let req = sum.iter().find(|s| s.name == "req").unwrap();
        assert_eq!(req.count, 2);
        assert_eq!(req.p50_ns, 100.0);
        assert_eq!(req.self_p50_ns, 10.0); // the lower of {10, 100}
        let wire = sum.iter().find(|s| s.name == "wire+server").unwrap();
        assert_eq!((wire.p50_ns, wire.self_p50_ns), (80.0, 80.0));
    }
}
