//! The load generator for the serving workloads: one pipelined TCP
//! connection per lane, driven either open loop (a fixed arrival
//! schedule, each request timed **from its due time**, so a stall is
//! charged to every request it delays — no coordinated omission) or
//! closed loop (a fixed number in flight, each timed from its send).
//!
//! An open-loop lane is two threads on one socket: `gen-tx` sleeps to
//! each due time and writes, `gen-rx` blocks in `read` and so wakes the
//! moment a response arrives. Request `i` of a phase has id
//! `id_base + i` and is due at `t0 + i * interval`, so the receiver
//! needs no table shared with the sender to time or check a response.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::api::{decode_response, encode_request, FrameDecoder, Request};
use crate::check::{Checker, ScanRule};
use crate::gen::{Op, OpSource, SplitMix};
use crate::hist::{quantile, Hist, Windowed};
use crate::metrics::QUIET;
use crate::proc::{now_ns, this_thread_cpu_ns};
use crate::trace::Span;

/// Latency limit of the open-loop phases.
pub const SLO_NS: u64 = 5_000_000;
/// How long after a phase's last due time its responses are awaited.
const GRACE_NS: u64 = 2_000_000_000;
/// Length of a throughput window of a closed loop.
pub const WINDOW_NS: u64 = 100_000_000;
/// Length of a latency window of an open loop: at 1 000 requests per
/// second and lane, some 170 gets and 270 writes.
const LATENCY_WINDOW_NS: u64 = 500_000_000;

pub const GET: usize = 0;
pub const PUT: usize = 1;
pub const SCAN: usize = 2;
pub const TXN: usize = 3;

pub fn kind(op: &Op) -> usize {
    match op {
        Op::Get(_) => GET,
        Op::Put(..) | Op::Remove(_) => PUT,
        Op::Scan { .. } => SCAN,
        Op::Batch(_) => TXN,
    }
}

pub fn to_request(id: u64, op: &Op) -> Request {
    match op {
        Op::Get(k) => Request::Get { id, key: *k },
        Op::Put(k, v) => Request::Put { id, key: *k, val: *v },
        Op::Remove(k) => Request::Remove { id, key: *k },
        Op::Scan { lo, limit } => Request::Scan { id, lo: *lo, limit: *limit },
        Op::Batch(puts) => {
            Request::Txn { id, ops: puts.iter().map(|&(k, v)| (k, Some(v))).collect() }
        }
    }
}

/// What one lane measured in one phase.
#[derive(Default)]
pub struct LaneOut {
    /// Latency per request kind.
    pub lat: [Hist; 4],
    /// Open loop: latency of gets, and of puts and transactions, cut into
    /// windows of `LATENCY_WINDOW_NS` by the time of the answer.
    pub reads: Windowed,
    pub writes: Windowed,
    /// Open loop: bytes-written time minus due time.
    pub lag: Hist,
    pub sent: u64,
    pub answered: u64,
    /// Open loop: requests in flight at the phase's last due time.
    pub inflight_at_end: u64,
    /// Open loop: answered later than `SLO_NS` after their due time.
    pub slow: u64,
    /// Closed loop: `(ops, entries)` completed per 1-s window.
    pub windows: Vec<(u64, u64)>,
    /// CPU time the lane's generator threads used.
    pub gen_cpu_ns: u64,
    pub check: Checker,
    pub spans: Vec<Span>,
}

impl LaneOut {
    pub fn merge(&mut self, o: LaneOut) {
        for (a, b) in self.lat.iter_mut().zip(&o.lat) {
            a.merge(b);
        }
        self.reads.merge(&o.reads);
        self.writes.merge(&o.writes);
        self.lag.merge(&o.lag);
        self.sent += o.sent;
        self.answered += o.answered;
        self.inflight_at_end += o.inflight_at_end;
        self.slow += o.slow;
        self.gen_cpu_ns += o.gen_cpu_ns;
        add_windows(&mut self.windows, &o.windows);
        self.check.merge(o.check);
        self.spans.extend(o.spans);
    }

    pub fn point_lat(&self) -> Hist {
        let mut h = self.lat[GET].clone();
        h.merge(&self.lat[PUT]);
        h
    }
}

/// Settings shared by every lane of a phase.
#[derive(Clone, Copy)]
pub struct PhaseCtx {
    pub rule: ScanRule,
    /// Record spans (the traced run).
    pub trace: bool,
}

/// An open-loop phase of one lane: a fixed arrival schedule, made from
/// the seed, of one request per `interval` on average.
///
/// Requests arrive in bursts (of one, at rates a sleeping thread can
/// pace request by request), and the gaps between bursts are drawn
/// uniformly from 0.5 to 1.5 times their mean: a strictly periodic
/// schedule beats against the server's own 200 µs idle nap, and the
/// latency it measures then depends on the phase the run happened to
/// start in.
pub struct OpenPlan<'a> {
    pub ops: &'a [Op],
    pub id_base: u64,
    /// When each burst is due, ascending.
    burst_due: Vec<u64>,
    burst: u64,
}

/// A generator thread cannot be woken more precisely than this.
const MIN_BURST_GAP_NS: u64 = 200_000;

impl<'a> OpenPlan<'a> {
    pub fn new(
        ops: &'a [Op],
        id_base: u64,
        t0: u64,
        interval: u64,
        rng: &mut SplitMix,
    ) -> OpenPlan<'a> {
        let burst = MIN_BURST_GAP_NS.div_ceil(interval);
        let gap = burst * interval;
        let mut at = t0;
        let burst_due = (0..=ops.len() as u64 / burst)
            .map(|_| {
                at += gap / 2 + rng.below(gap);
                at
            })
            .collect();
        OpenPlan { ops, id_base, burst_due, burst }
    }

    /// When request `i` is due.
    pub fn due(&self, i: u64) -> u64 {
        self.burst_due[(i / self.burst) as usize]
    }

    /// When the phase's last request is due.
    fn end(&self) -> u64 {
        *self.burst_due.last().expect("a plan has at least one burst")
    }
}

/// Sleeps until `due`: the coarse part in the kernel, the last stretch
/// yielding. With the timer slack at its minimum a sleep still overshoots
/// by some 50 µs here; the margin absorbs that, and what it costs in CPU
/// is part of `gen.cpu_frac`.
fn wait_until(due: u64) {
    const MARGIN_NS: u64 = 60_000;
    loop {
        let now = now_ns();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > MARGIN_NS {
            std::thread::sleep(Duration::from_nanos(left - MARGIN_NS));
        } else {
            std::thread::yield_now();
        }
    }
}

pub fn open_loop(stream: &TcpStream, plan: &OpenPlan, ctx: PhaseCtx) -> LaneOut {
    let n = plan.ops.len() as u64;
    let sent = AtomicU64::new(0);
    // Traced runs only: when each request's bytes were written.
    let written: Vec<AtomicU64> =
        if ctx.trace { (0..n).map(|_| AtomicU64::new(0)).collect() } else { Vec::new() };
    let mut tx_stream = stream.try_clone().expect("clone a TCP stream for the sender");
    let mut rx_stream = stream.try_clone().expect("clone a TCP stream for the receiver");
    std::thread::scope(|s| {
        let tx = std::thread::Builder::new()
            .name("gen-tx".into())
            .spawn_scoped(s, || {
                crate::proc::precise_sleeps();
                let mut lag = Hist::default();
                let mut buf = Vec::with_capacity(4096);
                let mut i = 0u64;
                while i < n {
                    wait_until(plan.due(i));
                    let now = now_ns();
                    let first = i;
                    buf.clear();
                    while i < n && plan.due(i) <= now {
                        encode_request(
                            &mut buf,
                            &to_request(plan.id_base + i, &plan.ops[i as usize]),
                        );
                        i += 1;
                    }
                    if tx_stream.write_all(&buf).is_err() {
                        break; // the receiver reports what went unanswered
                    }
                    let wrote = now_ns();
                    for j in first..i {
                        lag.record(wrote.saturating_sub(plan.due(j)));
                        if ctx.trace {
                            written[j as usize].store(wrote, Ordering::Release);
                        }
                    }
                    sent.store(i, Ordering::Release);
                }
                (lag, this_thread_cpu_ns())
            })
            .expect("spawn gen-tx");
        let rx = std::thread::Builder::new()
            .name("gen-rx".into())
            .spawn_scoped(s, || {
                let mut out = LaneOut::default();
                let mut window = 0;
                let last_due = plan.end();
                let mut saw_end = false;
                let mut dec = FrameDecoder::new();
                let mut buf = vec![0u8; 64 * 1024];
                rx_stream
                    .set_read_timeout(Some(Duration::from_millis(20)))
                    .expect("set a read timeout");
                while out.answered < n {
                    let got = match rx_stream.read(&mut buf) {
                        Ok(0) => break,
                        Ok(got) => got,
                        Err(e) if is_timeout(&e) => 0,
                        Err(_) => break,
                    };
                    let read_at = now_ns();
                    if !saw_end && read_at >= last_due {
                        saw_end = true;
                        out.inflight_at_end =
                            sent.load(Ordering::Acquire).saturating_sub(out.answered);
                    }
                    if got == 0 {
                        if read_at > last_due + GRACE_NS {
                            break;
                        }
                        continue;
                    }
                    dec.extend(&buf[..got]);
                    while let Ok(Some(payload)) = dec.next_frame() {
                        let Ok(resp) = decode_response(&payload) else {
                            out.check.attempted += 1;
                            out.check.fail(|| "undecodable response".into());
                            continue;
                        };
                        let i = resp.id().wrapping_sub(plan.id_base);
                        if i >= n {
                            out.check.attempted += 1;
                            out.check
                                .fail(|| format!("response id {} matches no request", resp.id()));
                            continue;
                        }
                        let op = &plan.ops[i as usize];
                        out.check.response(op, &resp, ctx.rule);
                        let done = now_ns();
                        let due = plan.due(i);
                        let lat = done.saturating_sub(due);
                        out.lat[kind(op)].record(lat);
                        if done.saturating_sub(plan.due(0)) / LATENCY_WINDOW_NS != window {
                            window = (done - plan.due(0)) / LATENCY_WINDOW_NS;
                            out.reads.roll();
                            out.writes.roll();
                        }
                        match kind(op) {
                            GET => out.reads.record(lat),
                            PUT | TXN => out.writes.record(lat),
                            _ => {}
                        }
                        out.slow += u64::from(lat > SLO_NS);
                        out.answered += 1;
                        if ctx.trace {
                            let wrote = written[i as usize].load(Ordering::Acquire);
                            let span = |name, parent, start_ns, end_ns| Span {
                                name,
                                parent,
                                id: resp.id(),
                                start_ns,
                                end_ns,
                            };
                            out.spans.push(span("req", "", due, done));
                            out.spans.push(span("gen.wait", "req", due, wrote));
                            out.spans.push(span("wire+server", "req", wrote, read_at));
                            out.spans.push(span("client.decode", "req", read_at, done));
                        }
                    }
                }
                out.reads.roll();
                out.writes.roll();
                out.gen_cpu_ns = this_thread_cpu_ns();
                out
            })
            .expect("spawn gen-rx");
        let (lag, tx_cpu_ns) = tx.join().expect("gen-tx panicked");
        let mut out = rx.join().expect("gen-rx panicked");
        out.lag = lag;
        out.gen_cpu_ns += tx_cpu_ns;
        out.sent = sent.load(Ordering::Acquire);
        out.check.lost(n - out.answered, "open-loop");
        out
    })
}

fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// A closed-loop phase of one lane: `depth` requests in flight from `t0`
/// until `end`, each timed from its send. `on_send` sees every op before
/// it goes out (the caller keeps its last-write table with it). Uses the
/// ids from `id_base` up to `id_base + sent * depth`.
pub fn closed_loop(
    stream: &mut TcpStream,
    source: &mut dyn OpSource,
    mut on_send: impl FnMut(&Op),
    id_base: u64,
    depth: usize,
    (t0, end): (u64, u64),
    ctx: PhaseCtx,
) -> LaneOut {
    let mut out = LaneOut::default();
    // In-flight requests `(id, op, sent at)`; a slot is reused only once
    // its request was answered. Request number `n` in slot `s` has id
    // `id_base + n * depth + s`, so a response names its slot.
    let mut flying: Vec<Option<(u64, Op, u64)>> = (0..depth).map(|_| None).collect();
    let mut free: Vec<usize> = (0..depth).rev().collect();
    let mut sent = 0u64;
    let mut wbuf = Vec::with_capacity(4096);
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut dec = FrameDecoder::new();
    stream.set_read_timeout(Some(Duration::from_secs(5))).expect("set a read timeout");
    wait_until(t0);
    loop {
        let now = now_ns();
        if now < end {
            wbuf.clear();
            while let Some(slot) = free.pop() {
                let op = source.next_op();
                on_send(&op);
                let id = id_base + sent * depth as u64 + slot as u64;
                encode_request(&mut wbuf, &to_request(id, &op));
                flying[slot] = Some((id, op, now));
                sent += 1;
            }
            if !wbuf.is_empty() && stream.write_all(&wbuf).is_err() {
                break;
            }
        }
        if free.len() == depth {
            break; // past `end` and everything answered
        }
        let got = match stream.read(&mut rbuf) {
            Ok(0) | Err(_) => break,
            Ok(got) => got,
        };
        let read_at = now_ns();
        dec.extend(&rbuf[..got]);
        while let Ok(Some(payload)) = dec.next_frame() {
            let resp = decode_response(&payload).ok();
            let slot = resp.as_ref().and_then(|r| {
                let slot = (r.id().wrapping_sub(id_base) % depth as u64) as usize;
                flying[slot].as_ref().is_some_and(|(id, ..)| *id == r.id()).then_some(slot)
            });
            let (Some(resp), Some(slot)) = (resp, slot) else {
                out.check.attempted += 1;
                out.check.fail(|| "a response that matches no request in flight".into());
                continue;
            };
            let (id, op, sent_at) = flying[slot].take().expect("slot found occupied");
            free.push(slot);
            let entries = out.check.response(&op, &resp, ctx.rule);
            let done = now_ns();
            out.lat[kind(&op)].record(done.saturating_sub(sent_at));
            out.answered += 1;
            if done >= t0 && done < end {
                let w = ((done - t0) / WINDOW_NS) as usize;
                if out.windows.len() <= w {
                    out.windows.resize(w + 1, (0, 0));
                }
                out.windows[w].0 += 1;
                out.windows[w].1 += entries;
            }
            if ctx.trace {
                let span =
                    |name, parent, start_ns, end_ns| Span { name, parent, id, start_ns, end_ns };
                out.spans.push(span("req", "", sent_at, done));
                out.spans.push(span("wire+server", "req", sent_at, read_at));
                out.spans.push(span("client.decode", "req", read_at, done));
            }
        }
    }
    out.sent = sent;
    out.check.lost(flying.iter().flatten().count() as u64, "closed-loop");
    // The last window is partial unless the phase is a whole number of
    // seconds long; only full windows count.
    out.windows.truncate(((end - t0) / WINDOW_NS) as usize);
    out
}

/// Adds one thread's per-window `(ops, entries)` counts to a total.
pub fn add_windows(total: &mut Vec<(u64, u64)>, part: &[(u64, u64)]) {
    if total.len() < part.len() {
        total.resize(part.len(), (0, 0));
    }
    for (a, b) in total.iter_mut().zip(part) {
        a.0 += b.0;
        a.1 += b.1;
    }
}

/// `(ops, entries)` per second of a closed loop: of its full windows, the
/// one that nine in ten fall short of (see `metrics::QUIET`), and beside
/// it the mean `ops` per second over all of them.
pub fn per_second(windows: &[(u64, u64)]) -> (f64, f64, f64) {
    let scale = 1e9 / WINDOW_NS as f64;
    let mut ops: Vec<f64> = windows.iter().map(|w| w.0 as f64 * scale).collect();
    let mut entries: Vec<f64> = windows.iter().map(|w| w.1 as f64 * scale).collect();
    let mean = ops.iter().sum::<f64>() / ops.len().max(1) as f64;
    (quantile(&mut ops, 1.0 - QUIET), quantile(&mut entries, 1.0 - QUIET), mean)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{decode_request, encode_response, Response};
    use crate::gen::tagged;
    use std::net::TcpListener;

    /// A stub server: answers every put in order, and stalls once for
    /// 50 ms before answering request `stall_at`.
    fn stub(stall_at: u64) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut dec = FrameDecoder::new();
            let mut buf = [0u8; 4096];
            let mut seen = 0u64;
            loop {
                let n = match conn.read(&mut buf) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => n,
                };
                dec.extend(&buf[..n]);
                let mut out = Vec::new();
                while let Ok(Some(p)) = dec.next_frame() {
                    let id = decode_request(&p).unwrap().id();
                    if seen == stall_at {
                        conn.write_all(&out).unwrap();
                        out.clear();
                        std::thread::sleep(Duration::from_millis(50));
                    }
                    seen += 1;
                    encode_response(&mut out, &Response::Put { id });
                }
                if conn.write_all(&out).is_err() {
                    return;
                }
            }
        });
        (addr, handle)
    }

    struct Puts(u64);
    impl OpSource for Puts {
        fn next_op(&mut self) -> Op {
            self.0 += 1;
            Op::Put(self.0, tagged(self.0, 0))
        }
    }

    /// A 50 ms server stall delays the ~100 requests due during it. Timed
    /// from their due times (open loop) they show in p99; a closed loop,
    /// timing from the send it held back, sees one slow request.
    #[test]
    fn a_stall_shows_in_open_loop_p99_but_not_under_send_time_accounting() {
        let rule = ScanRule { dense: u64::MAX, atomic_even_groups: false };
        let ctx = PhaseCtx { rule, trace: false };
        let mut src = Puts(0);
        let ops: Vec<Op> = (0..2000).map(|_| src.next_op()).collect();

        let (addr, server) = stub(500);
        let stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let plan = OpenPlan::new(&ops, 0, now_ns() + 1_000_000, 500_000, &mut SplitMix::new(1, 0));
        let open = open_loop(&stream, &plan, ctx);
        drop(stream);
        server.join().unwrap();
        assert_eq!((open.answered, open.check.failed), (2000, 0));
        let p99_ms = open.lat[PUT].p99() / 1e6;
        assert!(p99_ms > 25.0, "open-loop p99 {p99_ms} ms hides a 50 ms stall");
        assert!(open.slow >= 80, "{} requests over the limit", open.slow);

        let (addr, server) = stub(500);
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_nodelay(true).unwrap();
        let t0 = now_ns();
        let closed =
            closed_loop(&mut stream, &mut Puts(0), |_| {}, 0, 1, (t0, t0 + 1_000_000_000), ctx);
        drop(stream);
        server.join().unwrap();
        assert!(closed.answered > 500 && closed.check.failed == 0);
        let p99_ms = closed.lat[PUT].p99() / 1e6;
        assert!(p99_ms < 25.0, "closed-loop p99 {p99_ms} ms: the stall is one sample of many");
    }
}
