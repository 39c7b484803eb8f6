//! Lock-free log-bucketed latency histograms.
//!
//! An HDR-style fixed layout: 128 `AtomicU64` buckets covering the full
//! `u64` range with two sub-buckets per power of two, so recording is one
//! `leading_zeros` plus three relaxed atomic adds — nanoseconds, no locks,
//! no allocation — and the worst-case quantile overestimate is bounded at
//! half an octave (≤ 50 % of the true value, typically ≤ 25 %).
//!
//! [`Histogram::snapshot`] freezes one into the only frozen form, the
//! sparse [`CompactHistogram`], so one scrape renders p50, p95 and p99
//! from the same consistent view, and the flight recorder retains exactly
//! what a scrape reads.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::recorder::CompactHistogram;

/// Number of buckets: value `0`, value `1`, then two sub-buckets for each
/// of the 63 remaining powers of two (`2*63 + 2 = 128`).
pub const BUCKETS: usize = 128;

/// Bucket index of a recorded value.
///
/// * `0` → bucket 0;
/// * `1` → bucket 1;
/// * otherwise with `e = floor(log2(v))` and `sub` the bit below the
///   leading one, index `2*e + sub` — monotone in `v`, and `u64::MAX`
///   lands in the last bucket (127).
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < 2 {
        return v as usize;
    }
    let e = 63 - v.leading_zeros() as usize;
    let sub = ((v >> (e - 1)) & 1) as usize;
    2 * e + sub
}

/// Largest value that falls into bucket `index` (inclusive upper bound).
///
/// Quantiles report this bound, so they never under-estimate the true
/// quantile of the recorded stream.
pub fn bucket_upper_bound(index: usize) -> u64 {
    assert!(index < BUCKETS, "bucket index out of range");
    match index {
        0 => 0,
        1 => 1,
        _ => {
            let e = index / 2;
            let sub = (index % 2) as u64;
            let base = 1u64 << e;
            let half = 1u64 << (e - 1);
            // Bucket covers [base + sub*half, base + (sub+1)*half); the
            // top bucket's bound wraps to exactly u64::MAX.
            base.wrapping_add((sub + 1).wrapping_mul(half))
                .wrapping_sub(1)
        }
    }
}

/// A fixed-size, lock-free log-bucketed histogram.
///
/// All methods take `&self`; recording from any number of threads is safe
/// and sums exactly (relaxed atomic increments never drop counts).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    /// Sum of recorded values (wraps on overflow past `u64::MAX` — at
    /// nanosecond resolution that is ~584 years of recorded latency).
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one value (typically a duration in nanoseconds).
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating).
    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Exact maximum recorded value (`0` when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time freeze of the non-empty buckets and the scalar
    /// tails; `count` is the sum of the frozen buckets, so quantiles of
    /// the freeze are self-consistent even while other threads record.
    pub fn snapshot(&self) -> CompactHistogram {
        let buckets: Vec<(usize, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let n = b.load(Ordering::Relaxed);
                (n != 0).then_some((i, n))
            })
            .collect();
        CompactHistogram {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_at_boundaries() {
        let mut last = 0usize;
        for e in 1..64u32 {
            for v in [
                (1u64 << e).wrapping_sub(1),
                1u64 << e,
                (1u64 << e) | (1u64 << (e - 1)),
            ] {
                let idx = bucket_index(v);
                assert!(idx >= last, "index regressed at {v}");
                assert!(idx < BUCKETS);
                assert!(v <= bucket_upper_bound(idx), "v above its bound: {v}");
                last = idx;
            }
        }
    }

    #[test]
    fn extremes_land_in_terminal_buckets() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper_bound(BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn quantiles_of_uniform_stream() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1000);
        assert_eq!(snap.max, 1000);
        let p50 = snap.quantile(0.5);
        // Log-bucket overestimate is bounded by half an octave.
        assert!((500..=767).contains(&p50), "p50 = {p50}");
        assert_eq!(snap.quantile(1.0), 1000);
        assert_eq!(snap.quantile(0.0), bucket_upper_bound(bucket_index(1)));
    }
}
