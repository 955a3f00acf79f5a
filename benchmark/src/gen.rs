//! The benchmark's own seeded generator: splitmix64 and the four op
//! streams. The program under test only ever sees generated inputs; the
//! same `(workload, seed, lane)` always yields the same stream.
//!
//! Every written value carries its key as a tag (`val >> TAG_SHIFT ==
//! key`), so any value a read returns can be checked without knowing
//! which write produced it, and a key is only ever written by the lane
//! that owns it (`key % writers == lane`), so each lane knows the exact
//! final value of its keys.

/// Low bits of a value hold a stamp, the rest hold the key.
pub const TAG_SHIFT: u32 = 20;
const STAMP_MASK: u64 = (1 << TAG_SHIFT) - 1;

/// Keys per aligned group in `engine_batch_scan` (= ops per batch).
pub const GROUP: u64 = 100;

pub fn tagged(key: u64, stamp: u64) -> u64 {
    (key << TAG_SHIFT) | (stamp & STAMP_MASK)
}

pub fn stamp_of(val: u64) -> u64 {
    val & STAMP_MASK
}

/// The dense prefill `(k, tagged(k, 0))` for `k` in `0..keys`, in chunks
/// of 1 000 — one atomic batch each.
pub fn dense_chunks(keys: u64) -> impl Iterator<Item = Vec<(u64, u64)>> {
    (0..keys)
        .step_by(1000)
        .map(move |lo| (lo..(lo + 1000).min(keys)).map(|k| (k, tagged(k, 0))).collect())
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// splitmix64.
#[derive(Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream per `(seed, lane)`.
    pub fn new(seed: u64, lane: u64) -> SplitMix {
        SplitMix(mix(seed ^ mix(lane.wrapping_add(0x9e37_79b9_7f4a_7c15))))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// One generated operation. Batches hold puts only: no workload removes
/// through a batch, which keeps dense key spaces dense.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    Get(u64),
    Put(u64, u64),
    Remove(u64),
    Scan { lo: u64, limit: u32 },
    Batch(Vec<(u64, u64)>),
}

impl Op {
    /// The key that routes the op (a batch's first, a scan's lower bound).
    pub fn key(&self) -> u64 {
        match self {
            Op::Get(k) | Op::Put(k, _) | Op::Remove(k) => *k,
            Op::Scan { lo, .. } => *lo,
            Op::Batch(puts) => puts[0].0,
        }
    }
}

pub trait OpSource {
    fn next_op(&mut self) -> Op;
}

/// Request mix of a serving workload, in percent.
#[derive(Clone, Copy)]
pub struct Mix {
    pub put: u64,
    pub get: u64,
    pub scan: u64,
    pub txn: u64,
}

pub const SCAN_LIMIT: u32 = 100;
pub const TXN_PUTS: usize = 4;

/// One connection's requests: uniform keys over a dense key space; puts
/// and 4-put transactions only to keys this connection owns.
///
/// A transaction's keys all lie in one range shard and a scan never
/// crosses a shard boundary. The server executes each request on the
/// worker of its (first) key's shard, so this way one thread at a time
/// touches a shard's map — see "Known defect" in the README for why the
/// workloads may not let a batch and a scan overlap inside one map.
#[derive(Clone)]
pub struct ServeStream {
    rng: SplitMix,
    mix: Mix,
    /// Keys per range shard.
    shard_keys: u64,
    shards: u64,
    writers: u64,
    lane: u64,
    seq: u64,
}

impl ServeStream {
    pub fn new(
        seed: u64,
        lane: u64,
        writers: u64,
        keys: u64,
        shards: u64,
        mix: Mix,
    ) -> ServeStream {
        assert_eq!(mix.put + mix.get + mix.scan + mix.txn, 100);
        assert!(keys.is_multiple_of(shards * writers), "shards must hold whole owner cycles");
        let shard_keys = keys / shards;
        ServeStream {
            rng: SplitMix::new(seed, lane),
            mix,
            shard_keys,
            shards,
            writers,
            lane,
            seq: 0,
        }
    }

    /// A key of `shard` that this lane owns.
    fn owned_key(&mut self, shard: u64) -> u64 {
        shard * self.shard_keys
            + self.rng.below(self.shard_keys / self.writers) * self.writers
            + self.lane
    }
}

impl OpSource for ServeStream {
    fn next_op(&mut self) -> Op {
        self.seq += 1;
        let pick = self.rng.below(100);
        let m = self.mix;
        let shard = self.rng.below(self.shards);
        if pick < m.put {
            let k = self.owned_key(shard);
            Op::Put(k, tagged(k, self.seq))
        } else if pick < m.put + m.get {
            Op::Get(shard * self.shard_keys + self.rng.below(self.shard_keys))
        } else if pick < m.put + m.get + m.scan {
            let lo =
                shard * self.shard_keys + self.rng.below(self.shard_keys - SCAN_LIMIT as u64 + 1);
            Op::Scan { lo, limit: SCAN_LIMIT }
        } else {
            let puts = (0..TXN_PUTS)
                .map(|_| {
                    let k = self.owned_key(shard);
                    (k, tagged(k, self.seq))
                })
                .collect();
            Op::Batch(puts)
        }
    }
}

/// `engine_point`: 75 % get over the whole key space, 25 % update
/// (put/remove 50/50) of keys this thread owns.
#[derive(Clone)]
pub struct PointStream {
    rng: SplitMix,
    space: u64,
    threads: u64,
    lane: u64,
    seq: u64,
}

impl PointStream {
    pub fn new(seed: u64, lane: u64, threads: u64, space: u64) -> PointStream {
        PointStream { rng: SplitMix::new(seed, lane), space, threads, lane, seq: 0 }
    }
}

impl OpSource for PointStream {
    #[inline]
    fn next_op(&mut self) -> Op {
        let r = self.rng.next();
        let pick = r % 8; // 6/8 get, 1/8 put, 1/8 remove
        if pick < 6 {
            Op::Get(self.rng.below(self.space))
        } else {
            self.seq += 1;
            let k = self.rng.below(self.space / self.threads) * self.threads + self.lane;
            if pick == 6 {
                Op::Put(k, tagged(k, self.seq))
            } else {
                Op::Remove(k)
            }
        }
    }
}

/// Whether `engine_point` prefills `key`: a seeded coin, so the map
/// starts half full like the paper's datasets.
pub fn point_prefilled(seed: u64, key: u64) -> bool {
    mix(key ^ mix(seed ^ 0x5bd1_e995)) & 1 == 0
}

/// `engine_batch_scan` thread 0: 100-put batches alternating between one
/// aligned even group (single shard, one stamp for the whole group) and
/// 100 uniform keys from odd groups (cross-shard, two-phase). All in the
/// lower half of the key space; the scans take the upper half (see
/// "Known defect" in the README).
#[derive(Clone)]
pub struct BatchStream {
    rng: SplitMix,
    groups: u64,
    seq: u64,
}

impl BatchStream {
    pub fn new(seed: u64, keys: u64) -> BatchStream {
        BatchStream { rng: SplitMix::new(seed, 0), groups: keys / 2 / GROUP, seq: 0 }
    }

    /// Whether the batch the *next* `next_op` call returns is sequential.
    pub fn next_is_sequential(&self) -> bool {
        self.seq.is_multiple_of(2)
    }
}

impl OpSource for BatchStream {
    fn next_op(&mut self) -> Op {
        let sequential = self.next_is_sequential();
        self.seq += 1;
        let stamp = self.seq;
        let puts = if sequential {
            let base = self.rng.below(self.groups / 2) * 2 * GROUP;
            (base..base + GROUP).map(|k| (k, tagged(k, stamp))).collect()
        } else {
            (0..GROUP)
                .map(|_| {
                    let g = self.rng.below(self.groups / 2) * 2 + 1;
                    let k = g * GROUP + self.rng.below(GROUP);
                    (k, tagged(k, stamp))
                })
                .collect()
        };
        Op::Batch(puts)
    }
}

pub const SHORT_SCAN: u32 = 100;
pub const LONG_SCAN: u32 = 10_000;

/// `engine_batch_scan` thread 1: scans of the upper half of the key
/// space, alternating limit 100 and 10 000; every 4th long scan starts
/// 5 000 below the shard boundary in that half so that it crosses it.
#[derive(Clone)]
pub struct ScanStream {
    rng: SplitMix,
    keys: u64,
    shards: u64,
    seq: u64,
}

impl ScanStream {
    pub fn new(seed: u64, keys: u64, shards: u64) -> ScanStream {
        ScanStream { rng: SplitMix::new(seed, 1), keys, shards, seq: 0 }
    }
}

impl OpSource for ScanStream {
    fn next_op(&mut self) -> Op {
        let n = self.seq;
        self.seq += 1;
        let half = self.keys / 2;
        if n.is_multiple_of(2) {
            return Op::Scan {
                lo: half + self.rng.below(half - SHORT_SCAN as u64),
                limit: SHORT_SCAN,
            };
        }
        let lo = if (n / 2) % 4 == 3 {
            let boundary = self.keys * (self.shards / 2 + 1 + self.rng.below(self.shards / 2 - 1))
                / self.shards;
            boundary - LONG_SCAN as u64 / 2
        } else {
            half + self.rng.below(half - LONG_SCAN as u64)
        };
        Op::Scan { lo, limit: LONG_SCAN }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;

    fn stream(w: Workload, seed: u64) -> String {
        let mut out = String::new();
        for lane in 0..2 {
            let mut src = w.source(seed, lane, false);
            for _ in 0..500 {
                out.push_str(&format!("{:?}\n", src.next_op()));
            }
        }
        out
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn writes_are_tagged_and_owned() {
        let mix = Mix { put: 45, get: 35, scan: 10, txn: 10 };
        for lane in 0..2u64 {
            let mut s = ServeStream::new(3, lane, 2, 1000, 2, mix);
            for _ in 0..2000 {
                match s.next_op() {
                    Op::Put(k, v) => assert!(k % 2 == lane && v >> TAG_SHIFT == k),
                    Op::Batch(puts) => {
                        assert!(puts.iter().all(|(k, v)| k % 2 == lane && v >> TAG_SHIFT == *k));
                        assert!(puts.iter().all(|(k, _)| k / 500 == puts[0].0 / 500), "one shard");
                    }
                    Op::Scan { lo, limit } => assert_eq!(lo / 500, (lo + limit as u64 - 1) / 500),
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn batch_stream_alternates_even_groups_and_odd_groups() {
        let mut s = BatchStream::new(1, 10_000);
        for i in 0..100 {
            let Op::Batch(puts) = s.next_op() else { panic!() };
            assert_eq!(puts.len() as u64, GROUP);
            assert!(puts.iter().all(|(k, _)| *k < 5_000), "batches stay in the lower half");
            let even = puts.iter().all(|(k, _)| (k / GROUP).is_multiple_of(2));
            let odd = puts.iter().all(|(k, _)| (k / GROUP) % 2 == 1);
            assert!(if i % 2 == 0 { even } else { odd });
            assert!(puts.iter().all(|(_, v)| stamp_of(*v) == stamp_of(puts[0].1)));
        }
    }
}
