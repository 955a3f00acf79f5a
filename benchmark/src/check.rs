//! The correctness checker. Every operation the benchmark issues is
//! counted as attempted and checked as far as its result can be: the key
//! tag on every value read, the shape of every scan, one stamp per even
//! group where batches promise atomicity, and at the end the exact state
//! of the map against what the generator last wrote. `failed / attempted`
//! is the run's `fail_frac`; anything above zero fails the run.

use crate::api::Response;
use crate::gen::{stamp_of, Op, GROUP, TAG_SHIFT};

#[derive(Default)]
pub struct Checker {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

/// How a scan's result is judged.
#[derive(Clone, Copy)]
pub struct ScanRule {
    /// Keys `0..dense` are all present and never removed, so a scan from
    /// `lo` returns exactly `min(limit, dense - lo)` consecutive keys.
    pub dense: u64,
    /// Even aligned groups of `GROUP` keys are only ever written whole,
    /// by one atomic batch: a fully covered one shows a single stamp.
    pub atomic_even_groups: bool,
}

impl Checker {
    pub fn fail(&mut self, note: impl FnOnce() -> String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note());
        }
    }

    pub fn merge(&mut self, other: Checker) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for n in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(n);
            }
        }
    }

    /// `lost` requests were never answered: each was attempted and failed.
    pub fn lost(&mut self, lost: u64, what: &str) {
        self.attempted += lost;
        if lost > 0 {
            self.failed += lost - 1;
            self.fail(|| format!("{lost} {what} requests went unanswered"));
        }
    }

    pub fn fail_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// A value read for `key` must carry `key` as its tag.
    pub fn value(&mut self, key: u64, val: u64) -> bool {
        let ok = val >> TAG_SHIFT == key;
        if !ok {
            self.fail(|| format!("key {key} returned value {val:#x} tagged {}", val >> TAG_SHIFT));
        }
        ok
    }

    /// One failure at most per scan: ascending, `>= lo`, tagged, full
    /// length, and atomic groups where promised.
    pub fn scan(&mut self, lo: u64, limit: u32, entries: &[(u64, u64)], rule: ScanRule) {
        let want = (limit as u64).min(rule.dense.saturating_sub(lo)) as usize;
        if entries.len() != want {
            return self
                .fail(|| format!("scan({lo}, {limit}) returned {} of {want}", entries.len()));
        }
        for (i, &(k, v)) in entries.iter().enumerate() {
            if k != lo + i as u64 || v >> TAG_SHIFT != k {
                return self.fail(|| format!("scan({lo}, {limit}) entry {i} is ({k}, {v:#x})"));
            }
        }
        if !rule.atomic_even_groups {
            return;
        }
        let end = lo + entries.len() as u64;
        let mut g = lo.div_ceil(GROUP);
        g += g % 2; // first even group starting at or after lo
        while (g + 1) * GROUP <= end {
            let at = (g * GROUP - lo) as usize;
            let group = &entries[at..at + GROUP as usize];
            let stamp = stamp_of(group[0].1);
            if group.iter().any(|(_, v)| stamp_of(*v) != stamp) {
                return self.fail(|| format!("scan({lo}, {limit}) saw group {g} half-written"));
            }
            g += 2;
        }
    }

    /// Judges a server response to `op`; returns the entries it moved.
    pub fn response(&mut self, op: &Op, resp: &Response, rule: ScanRule) -> u64 {
        self.attempted += 1;
        match (op, resp) {
            (Op::Get(k), Response::Get { val: Some(v), .. }) => {
                self.value(*k, *v);
                1
            }
            // Serving workloads never remove, so every key is present.
            (Op::Get(k), Response::Get { val: None, .. }) => {
                self.fail(|| format!("get({k}) found nothing in a dense key space"));
                1
            }
            (Op::Put(..), Response::Put { .. }) => 1,
            (Op::Batch(puts), Response::Txn { .. }) => puts.len() as u64,
            (Op::Scan { lo, limit }, Response::Scan { entries, .. }) => {
                self.scan(*lo, *limit, entries, rule);
                entries.len() as u64
            }
            _ => {
                self.fail(|| format!("{op:?} answered by {resp:?}"));
                0
            }
        }
    }

    /// Exact comparison of the map's final contents with what the
    /// generator last wrote; both ascending by key. One attempt per
    /// expected key, one failure per missing, extra or differing key.
    pub fn end_state(
        &mut self,
        actual: impl IntoIterator<Item = (u64, u64)>,
        expected: impl IntoIterator<Item = (u64, u64)>,
    ) {
        let mut actual = actual.into_iter().peekable();
        for (k, v) in expected {
            self.attempted += 1;
            while let Some(&(ak, av)) = actual.peek().filter(|(ak, _)| *ak < k) {
                self.fail(|| format!("end state holds ({ak}, {av:#x}), which was never written"));
                actual.next();
            }
            match actual.peek() {
                Some(&(ak, av)) if ak == k => {
                    if av != v {
                        self.fail(|| {
                            format!("end state of key {k} is {av:#x}, last write was {v:#x}")
                        });
                    }
                    actual.next();
                }
                _ => self.fail(|| format!("end state lost key {k}")),
            }
        }
        for (ak, av) in actual {
            self.fail(|| format!("end state holds ({ak}, {av:#x}), which was never written"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::tagged;

    const DENSE: ScanRule = ScanRule { dense: 1000, atomic_even_groups: true };

    fn run(lo: u64, limit: u32, stamp: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        (lo..(lo + limit as u64).min(1000)).map(|k| (k, tagged(k, stamp(k)))).collect()
    }

    #[test]
    fn scans_pass_and_fail_where_they_should() {
        let mut c = Checker::default();
        c.scan(150, 400, &run(150, 400, |k| k / GROUP), DENSE);
        c.scan(950, 100, &run(950, 100, |_| 0), DENSE); // clipped by the key space
        assert_eq!(c.failed, 0, "{:?}", c.notes);
        // Group 2 (keys 200..300) torn; group 3 (odd) may be torn freely.
        c.scan(150, 400, &run(150, 400, |k| if k == 250 { 9 } else { 1 }), DENSE);
        assert_eq!(c.failed, 1);
        c.scan(150, 400, &run(150, 400, |k| if k == 350 { 9 } else { 1 }), DENSE);
        assert_eq!(c.failed, 1);
        // A partially covered even group is not judged.
        c.scan(210, 80, &run(210, 80, |k| k), DENSE);
        assert_eq!(c.failed, 1);
        c.scan(0, 10, &run(0, 9, |_| 0), DENSE); // short
        c.scan(0, 2, &[(0, tagged(0, 0)), (2, tagged(2, 0))], DENSE); // gap
        c.scan(0, 1, &[(0, tagged(1, 0))], DENSE); // wrong tag
        assert_eq!(c.failed, 4);
    }

    #[test]
    fn end_state_counts_missing_extra_and_differing_keys() {
        let mut c = Checker::default();
        c.end_state([(1, 10), (2, 20), (3, 30)], [(1, 10), (2, 20), (3, 30)]);
        assert_eq!((c.attempted, c.failed), (3, 0));
        c.end_state([(0, 5), (2, 21), (4, 40)], [(1, 10), (2, 20), (3, 30)]);
        // extra 0, missing 1, differing 2, missing 3, extra 4
        assert_eq!(c.failed, 5);
    }
}
