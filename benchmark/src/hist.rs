//! Log-linear histogram of `u64` samples (nanoseconds by convention)
//! with 128 sub-buckets per octave: a bucket is at most 1/128 of its
//! lower bound wide, so a reported percentile is within 0.4 % of the
//! exact one. The workspace's 8-per-octave histogram cannot resolve a
//! 10 % regression bound; this one can.

const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Hist {
    fn default() -> Hist {
        Hist { counts: vec![0; BUCKETS], total: 0 }
    }
}

fn index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let top = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = top - SUB_BITS;
    ((shift as usize + 1) << SUB_BITS) + ((v >> shift) as usize & (SUB - 1))
}

/// Midpoint of bucket `i`.
fn value(i: usize) -> f64 {
    if i < SUB {
        return i as f64;
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    let lo = ((SUB + (i & (SUB - 1))) as u64) << shift;
    lo as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Hist {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[index(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.total = 0;
    }

    /// The `p`-th percentile (0 < p <= 100), 0.0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0 * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank is at most the total count")
    }

    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    pub fn p99(&self) -> f64 {
        self.percentile(99.0)
    }
}

/// A window with fewer samples than this has no 90th percentile worth
/// the name and is left out.
const MIN_WINDOW_SAMPLES: u64 = 30;

/// Latency of a run cut into windows: the histogram of the whole run and
/// the 90th percentile of every window on its own. The caller says when a
/// window ends. A run's bounded latency is a low quantile of the windows'
/// percentiles (`metrics::QUIET`): what the host does to the slowest
/// windows then does not reach it.
#[derive(Default, Clone)]
pub struct Windowed {
    pub all: Hist,
    cur: Hist,
    pub p90s: Vec<f64>,
}

impl Windowed {
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.cur.record(v);
    }

    /// Ends the window in progress.
    pub fn roll(&mut self) {
        if self.cur.count() >= MIN_WINDOW_SAMPLES {
            self.p90s.push(self.cur.percentile(90.0));
        }
        self.all.merge(&self.cur);
        self.cur.clear();
    }

    /// Adds another recorder's closed windows.
    pub fn merge(&mut self, other: &Windowed) {
        self.all.merge(&other.all);
        self.p90s.extend_from_slice(&other.p90s);
    }
}

/// The `q`-quantile (0..=1) of `v`, linear between neighbours; 0.0 when
/// empty. Sorts `v`.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let at = q * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The median of `v`; 0.0 when empty. Sorts `v`.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::SplitMix;

    #[test]
    fn percentiles_within_one_percent_of_exact_sort() {
        let mut rng = SplitMix::new(11, 0);
        // Log-uniform over 100 ns .. 100 ms, the range latencies live in.
        let mut exact: Vec<u64> = (0..200_000)
            .map(|_| {
                let octave = 7 + rng.below(20);
                (1u64 << octave) + rng.below(1u64 << octave)
            })
            .collect();
        let mut h = Hist::default();
        for v in &exact {
            h.record(*v);
        }
        exact.sort_unstable();
        for p in [1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0] {
            let rank = ((p / 100.0 * exact.len() as f64).ceil() as usize).max(1);
            let want = exact[rank - 1] as f64;
            let got = h.percentile(p);
            assert!((got - want).abs() <= 0.01 * want, "p{p}: hist {got} vs exact {want}");
        }
    }

    #[test]
    fn quantiles_interpolate_between_neighbours() {
        let mut v = [40.0, 10.0, 30.0, 20.0];
        assert_eq!(quantile(&mut v, 0.0), 10.0);
        assert_eq!(quantile(&mut v, 0.5), 25.0);
        assert_eq!(quantile(&mut v, 0.9), 37.0);
        assert_eq!(quantile(&mut v, 1.0), 40.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }

    /// A disturbed stretch moves the whole run's 90th percentile but not
    /// the windows it did not touch.
    #[test]
    fn windows_keep_a_disturbance_to_themselves() {
        let mut w = Windowed::default();
        for window in 0..20 {
            let slow = (5..9).contains(&window);
            for i in 0..1000u64 {
                w.record(if slow { 5000 + i } else { 1000 + i });
            }
            w.roll();
        }
        for _ in 0..MIN_WINDOW_SAMPLES - 1 {
            w.record(1); // too few for a percentile of their own
        }
        w.roll();
        assert_eq!(w.p90s.len(), 20);
        assert_eq!(w.all.count(), 20_000 + MIN_WINDOW_SAMPLES - 1);
        assert!(w.all.percentile(90.0) > 5000.0);
        let quiet = quantile(&mut w.p90s.clone(), 0.1);
        assert!((quiet - 1900.0).abs() < 20.0, "{quiet}");
    }

    #[test]
    fn small_values_are_exact_and_extremes_fit() {
        let mut h = Hist::default();
        for v in [0, 1, 127, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.percentile(25.0), 0.0);
        assert_eq!(h.percentile(75.0), 127.0);
        assert!(h.percentile(100.0) > 1.8e19);
    }
}
