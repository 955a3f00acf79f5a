//! A small blocking client for the jiffy-server wire protocol.
//!
//! Two usage modes share one [`Client`]:
//!
//! * **Synchronous** — the convenience methods ([`Client::get`],
//!   [`Client::put`], …) send one request and block for its response.
//! * **Pipelined** — callers issue [`Client::send`] repeatedly (frames
//!   accumulate in a write buffer), [`Client::flush`], then collect
//!   responses with [`Client::recv_response`]. Responses must be
//!   **matched by request id**: the protocol promises no order on the
//!   wire. A connection always reads its own earlier writes.
//!
//! The benchmark driver in `mkbench` uses its own nonblocking
//! connection state machine for load generation; this client is the
//! correctness-test and tooling path.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};

use crate::protocol::{
    decode_response, encode_request, FrameDecoder, Request, Response, StatsSnapshot, WireError,
};

/// A blocking connection to a jiffy-server.
pub struct Client {
    stream: TcpStream,
    dec: FrameDecoder,
    out: Vec<u8>,
    next_id: u64,
    read_buf: Vec<u8>,
}

/// Client-side failures: transport errors or protocol violations.
#[derive(Debug)]
pub enum ClientError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The server sent bytes that do not decode as a response.
    Wire(WireError),
    /// The server closed the connection mid-response.
    Disconnected,
    /// The server answered this request id with [`Response::Error`].
    Rejected(u64),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Wire(e) => write!(f, "wire error: {e}"),
            ClientError::Disconnected => write!(f, "server disconnected"),
            ClientError::Rejected(id) => write!(f, "server rejected request {id}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> ClientError {
        ClientError::Wire(e)
    }
}

impl Client {
    /// Connect to `addr` (blocking socket, `TCP_NODELAY` on).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Client {
            stream,
            dec: FrameDecoder::new(),
            out: Vec::new(),
            next_id: 1,
            read_buf: vec![0u8; 16 * 1024],
        })
    }

    /// Claim the next request id (monotonic per connection).
    pub fn next_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Buffer `req` for sending; call [`Client::flush`] to put it on
    /// the wire. Returns the request's id.
    pub fn send(&mut self, req: &Request) -> u64 {
        encode_request(&mut self.out, req);
        req.id()
    }

    /// Write all buffered frames to the socket.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.stream.write_all(&self.out)?;
        self.out.clear();
        Ok(())
    }

    /// Block until one complete response arrives.
    pub fn recv_response(&mut self) -> Result<Response, ClientError> {
        loop {
            if let Some(payload) = self.dec.next_frame()? {
                return Ok(decode_response(&payload)?);
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                return Err(ClientError::Disconnected);
            }
            self.dec.extend(&self.read_buf[..n]);
        }
    }

    /// Send one request and block for its (order-matched) response.
    fn call(&mut self, req: Request) -> Result<Response, ClientError> {
        let id = self.send(&req);
        self.flush()?;
        let resp = self.recv_response()?;
        if let Response::Error { id } = resp {
            return Err(ClientError::Rejected(id));
        }
        debug_assert_eq!(resp.id(), id, "server broke per-connection ordering");
        Ok(resp)
    }

    /// Point lookup.
    pub fn get(&mut self, key: u64) -> Result<Option<u64>, ClientError> {
        let id = self.next_id();
        match self.call(Request::Get { id, key })? {
            Response::Get { val, .. } => Ok(val),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }

    /// Insert or overwrite `key`.
    pub fn put(&mut self, key: u64, val: u64) -> Result<(), ClientError> {
        let id = self.next_id();
        match self.call(Request::Put { id, key, val })? {
            Response::Put { .. } => Ok(()),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }

    /// Remove `key`; returns whether it was present.
    pub fn remove(&mut self, key: u64) -> Result<bool, ClientError> {
        let id = self.next_id();
        match self.call(Request::Remove { id, key })? {
            Response::Remove { had, .. } => Ok(had),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }

    /// Range scan: up to `limit` entries starting at `lo`.
    pub fn scan(&mut self, lo: u64, limit: u32) -> Result<Vec<(u64, u64)>, ClientError> {
        let id = self.next_id();
        match self.call(Request::Scan { id, lo, limit })? {
            Response::Scan { entries, .. } => Ok(entries),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }

    /// Atomic multi-key transaction: `Some(v)` puts, `None` removes.
    pub fn txn(&mut self, ops: Vec<(u64, Option<u64>)>) -> Result<(), ClientError> {
        let id = self.next_id();
        match self.call(Request::Txn { id, ops })? {
            Response::Txn { .. } => Ok(()),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }

    /// Fetch the server's coalescing counters.
    pub fn stats(&mut self) -> Result<StatsSnapshot, ClientError> {
        let id = self.next_id();
        match self.call(Request::Stats { id })? {
            Response::Stats { stats, .. } => Ok(stats),
            _ => Err(ClientError::Wire(WireError::Malformed("response kind mismatch"))),
        }
    }
}
