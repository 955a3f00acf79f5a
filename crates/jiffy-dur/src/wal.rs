//! The per-stripe write-ahead log: record format, the stripe writer
//! (with its simulated page cache — the crash model's load-bearing
//! piece), and the prefix-validating reader.
//!
//! # Record format
//!
//! ```text
//! record  := len:u32le | crc:u32le | payload
//! payload := seq:u64le | kind:u8 | body
//! body    := Put      -> key:u64le val:u64le                    (kind 1)
//!          | Remove   -> key:u64le                              (kind 2)
//!          | BatchPart-> part:u16le parts:u16le n:u32le n*op    (kind 3)
//! op      := tag:u8 key:u64le [val:u64le when tag = 1]
//! ```
//!
//! `len` counts `payload` bytes; `crc` is CRC-32 (Castagnoli polynomial)
//! over `payload`. Every record carries `seq`, a process-wide version
//! stamp drawn under the stripe lock — it is the replay dedup key and,
//! per stripe, strictly increasing. A batch spanning several stripes is
//! logged as one `BatchPart` per touched stripe, all sharing the batch's
//! `seq`; recovery applies a multi-part batch only when *every* part is
//! present (the never-torn rule).
//!
//! # The crash model
//!
//! [`Stripe::append`] buffers encoded records in `pending` — the
//! simulated OS page cache. Only [`Stripe::sync`] moves bytes into the
//! real file (and `sync_data`s them). A process crash (the failpoint
//! layer's `abort`) therefore loses exactly the un-synced suffix, and a
//! `torn` failpoint persists a byte-accurate prefix of one flush — the
//! two loss shapes a real power cut produces, reproduced at process
//! granularity so a subprocess driver can test them.
//!
//! # Segments
//!
//! A stripe is a directory of segment files `seg-NNNNNN.log` (numbered
//! by generation), each starting with a [`SEG_MAGIC`] header. Segments
//! seal at checkpoint rotation or when they outgrow [`SEG_BYTES`];
//! sealed segments wholly at-or-below the oldest retained checkpoint's
//! watermark are pruned. The reader walks generations in order; an
//! invalid byte in the **newest** generation ends the stripe at the
//! last valid prefix (the crash-tail shape — rotation fully syncs
//! before the next generation exists, so a crash can only tear the
//! newest segment), while corruption in a sealed earlier generation is
//! media rot and fails the scan rather than discarding the durable
//! suffix behind it.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use jiffy_obs::{trace_event, LogHistogram};

use crate::failpoint;

/// Segment-file header: magic, stripe id, generation.
pub const SEG_MAGIC: &[u8; 5] = b"JWAL1";
/// Header length: magic + stripe:u32 + gen:u64.
pub const SEG_HEADER: usize = 5 + 4 + 8;
/// Seal a segment once its file exceeds this (checked at sync time).
pub const SEG_BYTES: u64 = 4 << 20;
/// Sanity bound on one record's payload (a torn length prefix must not
/// ask the reader for gigabytes).
pub const MAX_PAYLOAD: u32 = 1 << 20;

/// CRC-32C (Castagnoli), bitwise — no table, the WAL is not the hot
/// path (records are tens of bytes and the cost is dwarfed by fsync).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0x82f6_3b78 & mask);
        }
    }
    !crc
}

/// One op inside a batch part: `Some(v)` puts, `None` removes.
pub type PartOp = (u64, Option<u64>);

/// A decoded WAL record body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Payload {
    /// A single put.
    Put {
        /// Key written.
        key: u64,
        /// Value written.
        val: u64,
    },
    /// A single remove.
    Remove {
        /// Key removed.
        key: u64,
    },
    /// This stripe's slice of one atomic batch.
    BatchPart {
        /// This part's index in `0..parts`.
        part: u16,
        /// Total parts the batch was split into (one per touched stripe).
        parts: u16,
        /// The ops owned by this stripe.
        ops: Vec<PartOp>,
    },
}

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Process-wide version stamp, drawn under the stripe lock(s).
    pub seq: u64,
    /// What was logged.
    pub payload: Payload,
}

impl Record {
    /// Encode into `out` (appends one full framed record).
    pub fn encode(&self, out: &mut Vec<u8>) {
        let start = out.len();
        out.extend_from_slice(&[0u8; 8]); // len + crc placeholders
        out.extend_from_slice(&self.seq.to_le_bytes());
        match &self.payload {
            Payload::Put { key, val } => {
                out.push(1);
                out.extend_from_slice(&key.to_le_bytes());
                out.extend_from_slice(&val.to_le_bytes());
            }
            Payload::Remove { key } => {
                out.push(2);
                out.extend_from_slice(&key.to_le_bytes());
            }
            Payload::BatchPart { part, parts, ops } => {
                out.push(3);
                out.extend_from_slice(&part.to_le_bytes());
                out.extend_from_slice(&parts.to_le_bytes());
                out.extend_from_slice(&(ops.len() as u32).to_le_bytes());
                for (k, v) in ops {
                    match v {
                        Some(v) => {
                            out.push(1);
                            out.extend_from_slice(&k.to_le_bytes());
                            out.extend_from_slice(&v.to_le_bytes());
                        }
                        None => {
                            out.push(0);
                            out.extend_from_slice(&k.to_le_bytes());
                        }
                    }
                }
            }
        }
        let payload_len = (out.len() - start - 8) as u32;
        let crc = crc32(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&payload_len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Why a stripe's readable prefix ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tail {
    /// Every byte decoded; the log ends at a record boundary.
    Clean,
    /// The prefix ended early (torn tail, bad checksum, truncated or
    /// absurd length, malformed body). `offset` is the first invalid
    /// byte relative to the segment's record area.
    Torn {
        /// First invalid byte (past the header) in the segment.
        offset: usize,
        /// Human-readable reason, for reports and tests.
        why: &'static str,
    },
}

/// Decode a segment's record area. Returns the records of the longest
/// valid prefix, the byte length of that prefix, and how it ended.
/// Never panics: every malformation maps to a [`Tail::Torn`].
pub fn decode_records(bytes: &[u8]) -> (Vec<Record>, usize, Tail) {
    let mut recs = Vec::new();
    let mut at = 0usize;
    loop {
        if at == bytes.len() {
            return (recs, at, Tail::Clean);
        }
        let Some(head) = bytes.get(at..at + 8) else {
            return (recs, at, Tail::Torn { offset: at, why: "truncated length prefix" });
        };
        let len = u32::from_le_bytes(head[0..4].try_into().unwrap());
        let crc = u32::from_le_bytes(head[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return (recs, at, Tail::Torn { offset: at, why: "absurd length prefix" });
        }
        let Some(payload) = bytes.get(at + 8..at + 8 + len as usize) else {
            return (recs, at, Tail::Torn { offset: at, why: "torn tail record" });
        };
        if crc32(payload) != crc {
            return (recs, at, Tail::Torn { offset: at, why: "checksum mismatch" });
        }
        match decode_payload(payload) {
            Some(rec) => recs.push(rec),
            None => return (recs, at, Tail::Torn { offset: at, why: "malformed body" }),
        }
        at += 8 + len as usize;
    }
}

fn decode_payload(p: &[u8]) -> Option<Record> {
    let seq = u64::from_le_bytes(p.get(0..8)?.try_into().ok()?);
    let kind = *p.get(8)?;
    let body = &p[9..];
    let payload = match kind {
        1 => {
            if body.len() != 16 {
                return None;
            }
            Payload::Put {
                key: u64::from_le_bytes(body[0..8].try_into().ok()?),
                val: u64::from_le_bytes(body[8..16].try_into().ok()?),
            }
        }
        2 => {
            if body.len() != 8 {
                return None;
            }
            Payload::Remove { key: u64::from_le_bytes(body[0..8].try_into().ok()?) }
        }
        3 => {
            let part = u16::from_le_bytes(body.get(0..2)?.try_into().ok()?);
            let parts = u16::from_le_bytes(body.get(2..4)?.try_into().ok()?);
            let n = u32::from_le_bytes(body.get(4..8)?.try_into().ok()?) as usize;
            if part >= parts {
                return None;
            }
            let mut ops = Vec::with_capacity(n.min(1024));
            let mut at = 8usize;
            for _ in 0..n {
                let tag = *body.get(at)?;
                let key = u64::from_le_bytes(body.get(at + 1..at + 9)?.try_into().ok()?);
                at += 9;
                let val = match tag {
                    0 => None,
                    1 => {
                        let v = u64::from_le_bytes(body.get(at..at + 8)?.try_into().ok()?);
                        at += 8;
                        Some(v)
                    }
                    _ => return None,
                };
                ops.push((key, val));
            }
            if at != body.len() {
                return None;
            }
            Payload::BatchPart { part, parts, ops }
        }
        _ => return None,
    };
    Some(Record { seq, payload })
}

/// A sealed (rotated) segment the live writer still tracks for pruning.
#[derive(Debug, Clone, Copy)]
pub struct SegInfo {
    /// Generation number (its file is `seg-<gen>.log`).
    pub gen: u64,
    /// Seq of the last record it holds (0 if none ever appended).
    pub last_seq: u64,
}

/// Path of stripe `id` under a durability root.
pub fn stripe_dir(root: &Path, id: usize) -> PathBuf {
    root.join("wal").join(format!("stripe-{id:03}"))
}

/// Path of generation `gen`'s segment file in a stripe dir.
pub fn seg_path(dir: &Path, gen: u64) -> PathBuf {
    dir.join(format!("seg-{gen:06}.log"))
}

fn seg_header(stripe: usize, gen: u64) -> [u8; SEG_HEADER] {
    let mut h = [0u8; SEG_HEADER];
    h[..5].copy_from_slice(SEG_MAGIC);
    h[5..9].copy_from_slice(&(stripe as u32).to_le_bytes());
    h[9..17].copy_from_slice(&gen.to_le_bytes());
    h
}

/// Parse and validate a segment header; `None` on mismatch.
pub fn check_seg_header(bytes: &[u8], stripe: usize) -> Option<u64> {
    let h = bytes.get(..SEG_HEADER)?;
    if &h[..5] != SEG_MAGIC {
        return None;
    }
    if u32::from_le_bytes(h[5..9].try_into().ok()?) != stripe as u32 {
        return None;
    }
    Some(u64::from_le_bytes(h[9..17].try_into().ok()?))
}

/// The live writer state for one stripe. All methods are called under
/// the owning `Mutex` in [`crate::DurableMap`]; holding that lock across
/// append **and** the in-memory map install is what makes per-stripe
/// log order equal per-key install order (the recovery ordering
/// invariant — see ARCHITECTURE.md "Durability").
pub struct Stripe {
    id: usize,
    dir: PathBuf,
    gen: u64,
    file: File,
    file_len: u64,
    /// The simulated page cache: appended, not yet in the real file.
    pending: Vec<u8>,
    last_seq: u64,
    synced_seq: u64,
    sealed: Vec<SegInfo>,
    /// Set by the first failed flush; a poisoned stripe refuses every
    /// later append and sync until restart. A failed `write_all` may
    /// have persisted any prefix of `pending`; retrying would append
    /// the full buffer *after* that torn prefix, and recovery truncates
    /// at the first invalid byte — silently discarding every record a
    /// later, successful sync acked as durable. Refusing is the only
    /// answer that keeps acked ⇒ durable without tracking file offsets.
    poisoned: bool,
    /// Test hook (set via [`Stripe::inject_sync_error`]): the next
    /// flush persists only this prefix, then fails.
    inject_error_cut: Option<usize>,
    /// fsync latency, fed to `ObsSnapshot` via `DurableMap::attach_obs`.
    pub hist_sync: LogHistogram,
}

impl Stripe {
    /// Create or continue a stripe, starting a **fresh** generation
    /// (recovery never appends to a file a crash may have torn).
    pub fn open(root: &Path, id: usize, gen: u64, last_seq: u64) -> io::Result<Stripe> {
        let dir = stripe_dir(root, id);
        fs::create_dir_all(&dir)?;
        let mut file = OpenOptions::new().create_new(true).write(true).open(seg_path(&dir, gen))?;
        file.write_all(&seg_header(id, gen))?;
        file.sync_data()?;
        Ok(Stripe {
            id,
            dir,
            gen,
            file,
            file_len: SEG_HEADER as u64,
            pending: Vec::new(),
            last_seq,
            synced_seq: last_seq,
            sealed: Vec::new(),
            poisoned: false,
            inject_error_cut: None,
            hist_sync: LogHistogram::new(),
        })
    }

    /// `Err` if an earlier flush failure poisoned this stripe (see the
    /// `poisoned` field for why a poisoned stripe must refuse work).
    /// Callers check this before appending; [`Stripe::sync`] checks it
    /// itself.
    pub fn check_usable(&self) -> io::Result<()> {
        if self.poisoned {
            Err(io::Error::other(format!(
                "WAL stripe {} poisoned by an earlier sync failure; restart to recover",
                self.id
            )))
        } else {
            Ok(())
        }
    }

    /// Test hook (the corruption matrix's transient-disk-error case):
    /// the next flush persists only the first `cut` bytes of the
    /// buffer — exactly what a partial `write_all` leaves behind — and
    /// then fails.
    #[doc(hidden)]
    pub fn inject_sync_error(&mut self, cut: usize) {
        self.inject_error_cut = Some(cut);
    }

    /// Seq of the last record appended (== install watermark: its map
    /// install completed before the stripe lock was released).
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// Seq through which records are on the real file (durable under
    /// the crash model).
    pub fn synced_seq(&self) -> u64 {
        self.synced_seq
    }

    /// Bytes buffered in the simulated page cache.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Buffer one record (write-ahead: callers install into the map
    /// *after* this, still under the stripe lock). Infallible — only
    /// [`Stripe::sync`] touches the file system.
    pub fn append(&mut self, rec: &Record) {
        failpoint::hit("wal-append");
        debug_assert!(rec.seq > self.last_seq, "per-stripe seqs must be monotone");
        let before = self.pending.len();
        rec.encode(&mut self.pending);
        self.last_seq = rec.seq;
        trace_event!(verbose: hint: WalAppend, self.id as u64, (self.pending.len() - before) as u64);
    }

    /// Flush the simulated page cache to the real file and `sync_data`
    /// it — the group-commit point: one call covers every record
    /// buffered so far, whoever appended it. Seals the segment when it
    /// outgrew [`SEG_BYTES`]. Any failure **poisons** the stripe: a
    /// partial flush may have left a torn prefix on disk, so the only
    /// safe continuation is refusing further work until a restart
    /// re-scans the file and resumes in a fresh generation.
    pub fn sync(&mut self) -> io::Result<()> {
        self.check_usable()?;
        if !self.pending.is_empty() {
            let t0 = std::time::Instant::now();
            if let Some(cut) = failpoint::write_cut("wal-sync", self.pending.len()) {
                // Torn write: a prefix reaches the file, then the
                // process dies. sync_data keeps the simulation honest
                // even though process-death alone would preserve it.
                let _ = self.file.write_all(&self.pending[..cut]);
                let _ = self.file.sync_data();
                failpoint::crash_after_cut("wal-sync");
            }
            if let Some(cut) = self.inject_error_cut.take() {
                let cut = cut.min(self.pending.len());
                let _ = self.file.write_all(&self.pending[..cut]);
                let _ = self.file.sync_data();
                self.poisoned = true;
                return Err(io::Error::other("injected sync failure"));
            }
            if let Err(e) = self.file.write_all(&self.pending).and_then(|()| self.file.sync_data())
            {
                self.poisoned = true;
                return Err(e);
            }
            self.file_len += self.pending.len() as u64;
            // Keep the capacity: the next 64 KiB of appends reuse it
            // instead of regrowing by doubling from empty.
            let n = self.pending.len();
            self.pending.clear();
            self.synced_seq = self.last_seq;
            self.hist_sync.record(t0.elapsed().as_nanos() as u64);
            trace_event!(hint: WalSync, self.id as u64, n as u64);
        } else {
            self.synced_seq = self.last_seq;
        }
        if self.file_len > SEG_BYTES {
            self.rotate()?;
        }
        Ok(())
    }

    /// Seal the current segment (after a full [`Stripe::sync`]) and
    /// start the next generation. Called by the checkpointer so pruning
    /// has whole segments to drop, and by `sync` on overgrowth. A
    /// failure poisons the stripe: a half-created next segment cannot
    /// be retried (`create_new` would refuse), and recovery repairs it
    /// as a header-torn final generation.
    pub fn rotate(&mut self) -> io::Result<()> {
        if !self.pending.is_empty() {
            self.sync()?;
        }
        self.check_usable()?;
        let next = self.gen + 1;
        let opened = (|| -> io::Result<File> {
            let mut file =
                OpenOptions::new().create_new(true).write(true).open(seg_path(&self.dir, next))?;
            file.write_all(&seg_header(self.id, next))?;
            file.sync_data()?;
            Ok(file)
        })();
        match opened {
            Ok(file) => {
                self.sealed.push(SegInfo { gen: self.gen, last_seq: self.last_seq });
                self.gen = next;
                self.file = file;
                self.file_len = SEG_HEADER as u64;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// Delete sealed segments wholly covered by `watermark` (every
    /// record at or below it is reflected in a retained checkpoint).
    /// Returns how many files were removed.
    pub fn prune(&mut self, watermark: u64) -> io::Result<usize> {
        failpoint::hit("wal-prune");
        let mut removed = 0usize;
        self.sealed.retain(|seg| {
            if seg.last_seq <= watermark {
                if fs::remove_file(seg_path(&self.dir, seg.gen)).is_ok() {
                    removed += 1;
                }
                false
            } else {
                true
            }
        });
        if removed > 0 {
            trace_event!(hint: WalPrune, self.id as u64, removed as u64);
        }
        Ok(removed)
    }
}

/// One stripe's decoded on-disk state, as recovery sees it.
pub struct StripeScan {
    /// Records of the valid prefix, in append (= install) order.
    pub records: Vec<Record>,
    /// Highest generation present (recovery resumes at `max_gen + 1`).
    pub max_gen: u64,
    /// `Some` if the newest generation's prefix ended early; recovery
    /// repairs it by truncating to the valid prefix (a crash can only
    /// tear the newest segment — rotation fully syncs before creating
    /// the next generation).
    pub torn: Option<Tail>,
}

/// Read one stripe directory: every segment in generation order, each
/// truncated to its valid prefix. A tear is auto-repairable **only in
/// the newest generation** (the crash-tail shape); `repair` physically
/// truncates it so the *next* recovery sees a clean log. Corruption in
/// a sealed earlier generation is not a crash tail — it is media rot —
/// and truncating there would discard every later durable (possibly
/// acked) record in the stripe, so it fails the scan with an explicit
/// error instead.
pub fn scan_stripe(root: &Path, id: usize, repair: bool) -> io::Result<StripeScan> {
    let dir = stripe_dir(root, id);
    let mut gens: Vec<u64> = Vec::new();
    match fs::read_dir(&dir) {
        Ok(entries) => {
            for e in entries {
                let name = e?.file_name();
                let name = name.to_string_lossy().into_owned();
                if let Some(g) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".log")) {
                    if let Ok(g) = g.parse::<u64>() {
                        gens.push(g);
                    }
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {
            return Ok(StripeScan { records: Vec::new(), max_gen: 0, torn: None });
        }
        Err(e) => return Err(e),
    }
    gens.sort_unstable();
    let max_gen = gens.last().copied().unwrap_or(0);
    let mut records = Vec::new();
    let mut torn = None;
    let mid_rot = |gen: u64, why: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "WAL stripe {id}: {why} in sealed generation {gen} with later generations \
                 present — not a crash tail; refusing to discard the durable suffix \
                 (restore the segment or remove the stripe directory to accept the loss)"
            ),
        )
    };
    for (i, &gen) in gens.iter().enumerate() {
        let newest = i + 1 == gens.len();
        let path = seg_path(&dir, gen);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if check_seg_header(&bytes, id) != Some(gen) {
            if !newest {
                return Err(mid_rot(gen, "bad segment header"));
            }
            // A header is written and synced before any record, so a
            // header-torn file holds none; deleting it (under `repair`)
            // unblocks future scans instead of pinning the stripe here.
            if repair {
                let _ = fs::remove_file(&path);
            }
            torn = Some(Tail::Torn { offset: 0, why: "bad segment header" });
        } else {
            let (mut recs, valid, tail) = decode_records(&bytes[SEG_HEADER..]);
            if let Tail::Torn { why, .. } = tail {
                if !newest {
                    return Err(mid_rot(gen, why));
                }
                if repair {
                    let f = OpenOptions::new().write(true).open(&path)?;
                    f.set_len((SEG_HEADER + valid) as u64)?;
                    f.sync_data()?;
                }
                torn = Some(tail);
            }
            records.append(&mut recs);
        }
    }
    Ok(StripeScan { records, max_gen, torn })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seq: u64, key: u64, val: u64) -> Record {
        Record { seq, payload: Payload::Put { key, val } }
    }

    #[test]
    fn roundtrip_every_payload_kind() {
        let recs = vec![
            rec(1, 7, 70),
            Record { seq: 2, payload: Payload::Remove { key: 9 } },
            Record {
                seq: 3,
                payload: Payload::BatchPart {
                    part: 1,
                    parts: 3,
                    ops: vec![(1, Some(10)), (2, None), (u64::MAX, Some(u64::MAX))],
                },
            },
        ];
        let mut buf = Vec::new();
        for r in &recs {
            r.encode(&mut buf);
        }
        let (out, valid, tail) = decode_records(&buf);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(valid, buf.len());
        assert_eq!(out, recs);
    }

    #[test]
    fn empty_batch_part_roundtrips() {
        let r = Record { seq: 5, payload: Payload::BatchPart { part: 0, parts: 1, ops: vec![] } };
        let mut buf = Vec::new();
        r.encode(&mut buf);
        let (out, _, tail) = decode_records(&buf);
        assert_eq!(tail, Tail::Clean);
        assert_eq!(out, vec![r]);
    }

    #[test]
    fn crc_catches_any_single_bit_flip() {
        let mut buf = Vec::new();
        rec(1, 0xdead, 0xbeef).encode(&mut buf);
        for bit in 0..buf.len() * 8 {
            let mut b = buf.clone();
            b[bit / 8] ^= 1 << (bit % 8);
            let (out, _, tail) = decode_records(&b);
            // A flip in the len prefix may shorten/grow the frame; any
            // flip must leave us with either zero records or a torn
            // tail — never the original record accepted as valid AND
            // never a panic.
            if tail == Tail::Clean {
                assert_ne!(out, vec![rec(1, 0xdead, 0xbeef)], "bit {bit} undetected");
            }
        }
    }
}
