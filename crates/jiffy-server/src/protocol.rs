//! The wire protocol: length-prefixed binary frames with request ids
//! for pipelining.
//!
//! # Framing
//!
//! Every message (both directions) is one frame:
//!
//! ```text
//! u32 LE payload length | payload
//! ```
//!
//! The length covers the payload only, must be at least
//! [`MIN_PAYLOAD`] (id + opcode) and at most [`MAX_FRAME`]. A length
//! outside those bounds means the stream is unsynchronized — the server
//! answers with a `Malformed` error and closes that connection (other
//! connections on the same event loop are unaffected). A *well-framed*
//! payload that fails to decode (unknown opcode, truncated body) is
//! rejected with an error response on the same connection, which stays
//! open: framing intact means the next frame boundary is still known.
//!
//! # Requests and responses
//!
//! ```text
//! request  = u64 LE id | u8 opcode | body
//! response = u64 LE id | u8 status | body
//! ```
//!
//! Request ids are chosen by the client and echoed verbatim; responses
//! to pipelined requests may arrive in any order, so the id is the
//! only correlation. Keys and values are `u64` — the shape every
//! in-repo driver and the Wing–Gong checker use.

use std::fmt;

/// Hard ceiling on a frame's payload size. Generous for the largest
/// legal response (a full scan reply) yet small enough that a garbage
/// length prefix is rejected instead of allocating gigabytes.
pub const MAX_FRAME: usize = 1 << 20;

/// Smallest meaningful payload: id (8) + opcode/status (1).
pub const MIN_PAYLOAD: usize = 9;

/// Cap on entries a single scan request may ask for (fits comfortably
/// in [`MAX_FRAME`]: 64 Ki entries × 16 B = 1 MiB would not, so half).
pub const MAX_SCAN: u32 = 32 * 1024;

/// Cap on operations in one multi-key transaction.
pub const MAX_TXN_OPS: u32 = 4096;

const OP_GET: u8 = 1;
const OP_PUT: u8 = 2;
const OP_REMOVE: u8 = 3;
const OP_SCAN: u8 = 4;
const OP_TXN: u8 = 5;
const OP_STATS: u8 = 6;

const TXN_PUT: u8 = 0;
const TXN_REMOVE: u8 = 1;

/// Response status: success.
pub const ST_OK: u8 = 0;
/// Response status: the request decoded but was rejected (unknown
/// opcode, over-limit scan/txn, truncated body).
pub const ST_BAD_REQUEST: u8 = 1;

/// One decoded client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Point lookup.
    Get {
        /// Client-chosen correlation id, echoed in the response.
        id: u64,
        /// Key to look up.
        key: u64,
    },
    /// Point insert/overwrite.
    Put {
        /// Correlation id.
        id: u64,
        /// Key to write.
        key: u64,
        /// Value to write.
        val: u64,
    },
    /// Point delete.
    Remove {
        /// Correlation id.
        id: u64,
        /// Key to delete.
        key: u64,
    },
    /// Ascending range scan.
    Scan {
        /// Correlation id.
        id: u64,
        /// First key of the range (inclusive).
        lo: u64,
        /// Maximum entries to return (≤ [`MAX_SCAN`]).
        limit: u32,
    },
    /// Multi-key atomic transaction: `Some(v)` = put, `None` = remove.
    Txn {
        /// Correlation id.
        id: u64,
        /// The operations, applied atomically as one Jiffy batch.
        ops: Vec<(u64, Option<u64>)>,
    },
    /// Server counter snapshot (coalescing statistics).
    Stats {
        /// Correlation id.
        id: u64,
    },
}

impl Request {
    /// The request's correlation id.
    pub fn id(&self) -> u64 {
        match *self {
            Request::Get { id, .. }
            | Request::Put { id, .. }
            | Request::Remove { id, .. }
            | Request::Scan { id, .. }
            | Request::Txn { id, .. }
            | Request::Stats { id } => id,
        }
    }
}

/// Server counters carried by a [`Response::Stats`] reply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Jiffy batches installed by coalescing runs of puts.
    pub installed_batches: u64,
    /// Single-key puts that were folded into those batches.
    pub coalesced_puts: u64,
    /// Point ops executed outside a batch (gets, removes).
    pub direct_ops: u64,
    /// Multi-key transactions routed through the two-phase path.
    pub txns: u64,
}

impl StatsSnapshot {
    /// Mean single-key puts per installed batch — the coalescing
    /// effectiveness headline (> 1 means coalescing is active).
    pub fn ops_per_batch(&self) -> f64 {
        if self.installed_batches == 0 {
            0.0
        } else {
            self.coalesced_puts as f64 / self.installed_batches as f64
        }
    }
}

/// One decoded server response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Response {
    /// Reply to [`Request::Get`].
    Get {
        /// Echoed correlation id.
        id: u64,
        /// The value, if the key was present.
        val: Option<u64>,
    },
    /// Reply to [`Request::Put`].
    Put {
        /// Echoed correlation id.
        id: u64,
    },
    /// Reply to [`Request::Remove`].
    Remove {
        /// Echoed correlation id.
        id: u64,
        /// Whether the key was present.
        had: bool,
    },
    /// Reply to [`Request::Scan`].
    Scan {
        /// Echoed correlation id.
        id: u64,
        /// Up to `limit` entries from `lo`, ascending.
        entries: Vec<(u64, u64)>,
    },
    /// Reply to [`Request::Txn`].
    Txn {
        /// Echoed correlation id.
        id: u64,
    },
    /// Reply to [`Request::Stats`].
    Stats {
        /// Echoed correlation id.
        id: u64,
        /// The counter snapshot.
        stats: StatsSnapshot,
    },
    /// The request was rejected (status [`ST_BAD_REQUEST`]).
    Error {
        /// Echoed correlation id (0 when the id itself was unreadable).
        id: u64,
    },
}

impl Response {
    /// The echoed correlation id.
    pub fn id(&self) -> u64 {
        match *self {
            Response::Get { id, .. }
            | Response::Put { id }
            | Response::Remove { id, .. }
            | Response::Scan { id, .. }
            | Response::Txn { id }
            | Response::Stats { id, .. }
            | Response::Error { id } => id,
        }
    }
}

/// Why a frame or payload was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Length prefix outside `[MIN_PAYLOAD, MAX_FRAME]`: the stream is
    /// unsynchronized and the connection must be closed.
    BadLength(usize),
    /// A well-framed payload that does not decode (unknown opcode,
    /// truncated or over-limit body). The connection can continue.
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadLength(n) => write!(f, "frame length {n} outside legal bounds"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

// ---- primitive readers ----------------------------------------------

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, at: 0 }
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let v = *self.buf.get(self.at).ok_or(WireError::Malformed("truncated u8"))?;
        self.at += 1;
        Ok(v)
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        let end = self.at + 4;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Malformed("truncated u32"))?;
        self.at = end;
        Ok(u32::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        let end = self.at + 8;
        let bytes = self.buf.get(self.at..end).ok_or(WireError::Malformed("truncated u64"))?;
        self.at = end;
        Ok(u64::from_le_bytes(bytes.try_into().unwrap()))
    }

    fn done(&self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes"))
        }
    }
}

// ---- request codec --------------------------------------------------

/// Append one request as a length-prefixed frame.
pub fn encode_request(out: &mut Vec<u8>, req: &Request) {
    let mark = begin_frame(out);
    out.extend_from_slice(&req.id().to_le_bytes());
    match req {
        Request::Get { key, .. } => {
            out.push(OP_GET);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Put { key, val, .. } => {
            out.push(OP_PUT);
            out.extend_from_slice(&key.to_le_bytes());
            out.extend_from_slice(&val.to_le_bytes());
        }
        Request::Remove { key, .. } => {
            out.push(OP_REMOVE);
            out.extend_from_slice(&key.to_le_bytes());
        }
        Request::Scan { lo, limit, .. } => {
            out.push(OP_SCAN);
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&limit.to_le_bytes());
        }
        Request::Txn { ops, .. } => {
            out.push(OP_TXN);
            out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
            for (k, v) in ops {
                match v {
                    Some(v) => {
                        out.push(TXN_PUT);
                        out.extend_from_slice(&k.to_le_bytes());
                        out.extend_from_slice(&v.to_le_bytes());
                    }
                    None => {
                        out.push(TXN_REMOVE);
                        out.extend_from_slice(&k.to_le_bytes());
                    }
                }
            }
        }
        Request::Stats { .. } => out.push(OP_STATS),
    }
    end_frame(out, mark);
}

/// Decode one frame payload as a request.
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let op = c.u8()?;
    let req = match op {
        OP_GET => Request::Get { id, key: c.u64()? },
        OP_PUT => Request::Put { id, key: c.u64()?, val: c.u64()? },
        OP_REMOVE => Request::Remove { id, key: c.u64()? },
        OP_SCAN => {
            let lo = c.u64()?;
            let limit = c.u32()?;
            if limit > MAX_SCAN {
                return Err(WireError::Malformed("scan limit over MAX_SCAN"));
            }
            Request::Scan { id, lo, limit }
        }
        OP_TXN => {
            let n = c.u32()?;
            if n > MAX_TXN_OPS {
                return Err(WireError::Malformed("txn op count over MAX_TXN_OPS"));
            }
            let mut ops = Vec::with_capacity(n as usize);
            for _ in 0..n {
                match c.u8()? {
                    TXN_PUT => ops.push((c.u64()?, Some(c.u64()?))),
                    TXN_REMOVE => ops.push((c.u64()?, None)),
                    _ => return Err(WireError::Malformed("unknown txn op tag")),
                }
            }
            Request::Txn { id, ops }
        }
        OP_STATS => Request::Stats { id },
        _ => return Err(WireError::Malformed("unknown opcode")),
    };
    c.done()?;
    Ok(req)
}

// ---- response codec -------------------------------------------------

/// Append one response as a length-prefixed frame.
pub fn encode_response(out: &mut Vec<u8>, resp: &Response) {
    let mark = begin_frame(out);
    out.extend_from_slice(&resp.id().to_le_bytes());
    match resp {
        Response::Get { val, .. } => {
            out.push(ST_OK);
            out.push(OP_GET);
            match val {
                Some(v) => {
                    out.push(1);
                    out.extend_from_slice(&v.to_le_bytes());
                }
                None => out.push(0),
            }
        }
        Response::Put { .. } => {
            out.push(ST_OK);
            out.push(OP_PUT);
        }
        Response::Remove { had, .. } => {
            out.push(ST_OK);
            out.push(OP_REMOVE);
            out.push(u8::from(*had));
        }
        Response::Scan { entries, .. } => {
            out.push(ST_OK);
            out.push(OP_SCAN);
            out.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (k, v) in entries {
                out.extend_from_slice(&k.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        Response::Txn { .. } => {
            out.push(ST_OK);
            out.push(OP_TXN);
        }
        Response::Stats { stats, .. } => {
            out.push(ST_OK);
            out.push(OP_STATS);
            out.extend_from_slice(&stats.installed_batches.to_le_bytes());
            out.extend_from_slice(&stats.coalesced_puts.to_le_bytes());
            out.extend_from_slice(&stats.direct_ops.to_le_bytes());
            out.extend_from_slice(&stats.txns.to_le_bytes());
        }
        Response::Error { .. } => out.push(ST_BAD_REQUEST),
    }
    end_frame(out, mark);
}

/// Decode one frame payload as a response.
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut c = Cursor::new(payload);
    let id = c.u64()?;
    let status = c.u8()?;
    if status == ST_BAD_REQUEST {
        c.done()?;
        return Ok(Response::Error { id });
    }
    if status != ST_OK {
        return Err(WireError::Malformed("unknown status"));
    }
    let resp = match c.u8()? {
        OP_GET => Response::Get { id, val: if c.u8()? == 1 { Some(c.u64()?) } else { None } },
        OP_PUT => Response::Put { id },
        OP_REMOVE => Response::Remove { id, had: c.u8()? == 1 },
        OP_SCAN => {
            let n = c.u32()?;
            if n > MAX_SCAN {
                return Err(WireError::Malformed("scan reply over MAX_SCAN"));
            }
            let mut entries = Vec::with_capacity(n as usize);
            for _ in 0..n {
                entries.push((c.u64()?, c.u64()?));
            }
            Response::Scan { id, entries }
        }
        OP_TXN => Response::Txn { id },
        OP_STATS => Response::Stats {
            id,
            stats: StatsSnapshot {
                installed_batches: c.u64()?,
                coalesced_puts: c.u64()?,
                direct_ops: c.u64()?,
                txns: c.u64()?,
            },
        },
        _ => return Err(WireError::Malformed("unknown response opcode")),
    };
    c.done()?;
    Ok(resp)
}

/// Reserve a length prefix; returns the mark to pass to [`end_frame`].
fn begin_frame(out: &mut Vec<u8>) -> usize {
    out.extend_from_slice(&[0; 4]);
    out.len()
}

/// Backpatch the length prefix reserved by [`begin_frame`].
fn end_frame(out: &mut [u8], mark: usize) {
    let len = (out.len() - mark) as u32;
    out[mark - 4..mark].copy_from_slice(&len.to_le_bytes());
}

// ---- incremental frame decoder --------------------------------------

/// Incremental frame reassembly over arbitrary read boundaries: feed
/// bytes as they arrive, take complete payloads out. One decoder per
/// connection per direction.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Consumed prefix of `buf` (compacted opportunistically).
    at: usize,
}

impl FrameDecoder {
    /// A fresh decoder with empty buffers.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Feed newly read bytes.
    pub fn extend(&mut self, bytes: &[u8]) {
        // Compact before growing: keeps the buffer bounded by the
        // largest in-flight frame rather than the connection's history.
        if self.at > 0 && (self.at == self.buf.len() || self.at >= MAX_FRAME) {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Take the next complete frame payload, `Ok(None)` if more bytes
    /// are needed, or [`WireError::BadLength`] if the length prefix is
    /// illegal (the stream cannot be re-synchronized; close it).
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, WireError> {
        let avail = &self.buf[self.at..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap()) as usize;
        if !(MIN_PAYLOAD..=MAX_FRAME).contains(&len) {
            return Err(WireError::BadLength(len));
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let payload = avail[4..4 + len].to_vec();
        self.at += 4 + len;
        Ok(Some(payload))
    }

    /// Bytes buffered but not yet consumed (tests, backpressure heuristics).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requests() -> Vec<Request> {
        vec![
            Request::Get { id: 1, key: 42 },
            Request::Put { id: 2, key: 7, val: 99 },
            Request::Remove { id: 3, key: 8 },
            Request::Scan { id: 4, lo: 100, limit: 50 },
            Request::Txn { id: 5, ops: vec![(1, Some(10)), (2, None), (3, Some(30))] },
            Request::Stats { id: 6 },
        ]
    }

    fn all_responses() -> Vec<Response> {
        vec![
            Response::Get { id: 1, val: Some(42) },
            Response::Get { id: 2, val: None },
            Response::Put { id: 3 },
            Response::Remove { id: 4, had: true },
            Response::Scan { id: 5, entries: vec![(1, 2), (3, 4)] },
            Response::Txn { id: 6 },
            Response::Stats {
                id: 7,
                stats: StatsSnapshot {
                    installed_batches: 10,
                    coalesced_puts: 55,
                    direct_ops: 3,
                    txns: 2,
                },
            },
            Response::Error { id: 8 },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for req in all_requests() {
            let mut buf = Vec::new();
            encode_request(&mut buf, &req);
            let mut dec = FrameDecoder::new();
            dec.extend(&buf);
            let payload = dec.next_frame().unwrap().expect("one whole frame");
            assert_eq!(decode_request(&payload).unwrap(), req);
            assert_eq!(dec.next_frame().unwrap(), None);
        }
    }

    #[test]
    fn response_roundtrip() {
        for resp in all_responses() {
            let mut buf = Vec::new();
            encode_response(&mut buf, &resp);
            let mut dec = FrameDecoder::new();
            dec.extend(&buf);
            let payload = dec.next_frame().unwrap().expect("one whole frame");
            assert_eq!(decode_response(&payload).unwrap(), resp);
        }
    }

    /// The edge the event loop actually hits: reads split anywhere,
    /// including inside the length prefix — feed one byte at a time and
    /// every frame must still come out whole and in order.
    #[test]
    fn one_byte_at_a_time_reassembly() {
        let mut stream = Vec::new();
        for req in all_requests() {
            encode_request(&mut stream, &req);
        }
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &stream {
            dec.extend(std::slice::from_ref(b));
            while let Some(p) = dec.next_frame().unwrap() {
                got.push(decode_request(&p).unwrap());
            }
        }
        assert_eq!(got, all_requests());
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn oversized_and_undersized_lengths_are_fatal() {
        let mut dec = FrameDecoder::new();
        dec.extend(&((MAX_FRAME as u32 + 1).to_le_bytes()));
        assert_eq!(dec.next_frame(), Err(WireError::BadLength(MAX_FRAME + 1)));
        let mut dec = FrameDecoder::new();
        dec.extend(&3u32.to_le_bytes()); // below MIN_PAYLOAD
        assert_eq!(dec.next_frame(), Err(WireError::BadLength(3)));
    }

    #[test]
    fn garbage_payloads_are_rejected_not_panicked() {
        // Unknown opcode.
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(0xEE);
        assert!(matches!(decode_request(&payload), Err(WireError::Malformed(_))));
        // Truncated body.
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(OP_PUT);
        payload.extend_from_slice(&1u32.to_le_bytes()); // half a key
        assert!(matches!(decode_request(&payload), Err(WireError::Malformed(_))));
        // Trailing junk after a valid body.
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Get { id: 1, key: 2 });
        let mut payload = buf[4..].to_vec();
        payload.push(0);
        assert!(matches!(decode_request(&payload), Err(WireError::Malformed(_))));
        // Over-limit scan and txn.
        let mut payload = 9u64.to_le_bytes().to_vec();
        payload.push(OP_SCAN);
        payload.extend_from_slice(&0u64.to_le_bytes());
        payload.extend_from_slice(&(MAX_SCAN + 1).to_le_bytes());
        assert!(matches!(decode_request(&payload), Err(WireError::Malformed(_))));
    }

    #[test]
    fn decoder_compacts_consumed_prefix() {
        let mut dec = FrameDecoder::new();
        let mut buf = Vec::new();
        encode_request(&mut buf, &Request::Get { id: 1, key: 2 });
        for _ in 0..1000 {
            dec.extend(&buf);
            assert!(dec.next_frame().unwrap().is_some());
        }
        // After a fully consumed buffer the next extend compacts.
        dec.extend(&[]);
        assert_eq!(dec.pending(), 0);
        assert!(dec.buf.len() < 2 * buf.len(), "buffer must not grow with history");
    }
}
