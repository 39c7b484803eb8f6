//! Flight recorder: a fixed-memory ring of periodic telemetry snapshots.
//!
//! A scrape is a point in time; the recorder keeps *history*. A background
//! sampler (the server's `s2g-sampler` thread) periodically freezes every
//! counter, gauge and histogram into a [`Sample`] and pushes it into a
//! bounded ring, so operators can ask "what did p99 look like over the
//! last ten minutes" without an external Prometheus.
//!
//! Memory stays fixed: histograms are retained as [`CompactHistogram`]s —
//! sparse `(bucket index, count)` pairs over the 128-bucket log layout of
//! [`crate::hist`] — and the ring drops its oldest sample once
//! `retention` samples are held.
//!
//! Because every retained histogram is *cumulative* (process-lifetime
//! counts at sample time), any two samples subtract into a **windowed**
//! histogram via [`CompactHistogram::delta`]: per-bucket count
//! subtraction yields exact bucket counts for the interval between the
//! samples, and the usual nearest-rank walk then gives windowed
//! quantiles — rates over the last N samples, not lifetime averages.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::hist::{bucket_upper_bound, BUCKETS};

/// Why [`CompactHistogram::checked_delta`] refused to subtract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// The earlier freeze holds more counts than the later one — the
    /// instrument was reset between samples, or the two freezes belong
    /// to different schemas. `bucket` names the offending bucket index;
    /// `None` means the scalar totals regressed.
    Regressed {
        /// Bucket index where counts regressed, `None` for the totals.
        bucket: Option<usize>,
    },
    /// A bucket index is outside the fixed 128-bucket layout — the
    /// freeze came from an incompatible (wider) histogram.
    BucketOutOfRange {
        /// The out-of-range index.
        bucket: usize,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::Regressed { bucket: Some(i) } => {
                write!(f, "schema drift: bucket {i} regressed between samples")
            }
            DeltaError::Regressed { bucket: None } => {
                write!(f, "schema drift: total count regressed between samples")
            }
            DeltaError::BucketOutOfRange { bucket } => {
                write!(
                    f,
                    "bucket index {bucket} outside the {BUCKETS}-bucket layout"
                )
            }
        }
    }
}

impl std::error::Error for DeltaError {}

/// A histogram frozen into sparse `(bucket index, count)` pairs, plus the
/// scalar tails (`count`, `sum`, `max`) — the one frozen form:
/// [`crate::Histogram::snapshot`] returns it, scrapes render it, samples
/// retain it and the journal stores it. Indices follow the
/// [`crate::hist`] log-bucket layout and are strictly increasing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompactHistogram {
    /// Total recorded values at freeze time.
    pub count: u64,
    /// Sum of recorded values (wrapping, like the live histogram).
    pub sum: u64,
    /// Maximum recorded value. For a [`CompactHistogram::delta`] this is
    /// the upper bound of the highest bucket active in the window (capped
    /// by the later sample's exact max) — the live max is cumulative and
    /// cannot be subtracted.
    pub max: u64,
    /// Sparse non-empty buckets, `(index, count)`, indices ascending.
    pub buckets: Vec<(usize, u64)>,
}

impl CompactHistogram {
    /// An empty compact histogram.
    pub fn empty() -> Self {
        CompactHistogram {
            count: 0,
            sum: 0,
            max: 0,
            buckets: Vec::new(),
        }
    }

    /// The histogram of everything recorded *between* `earlier` and
    /// `self` — per-bucket saturating subtraction of two cumulative
    /// freezes. `max` becomes the upper bound of the highest bucket with
    /// activity in the window, capped by `self.max`.
    pub fn delta(&self, earlier: &CompactHistogram) -> CompactHistogram {
        let mut counts = [0u64; BUCKETS];
        for &(i, n) in &self.buckets {
            if i < BUCKETS {
                counts[i] = n;
            }
        }
        for &(i, n) in &earlier.buckets {
            if i < BUCKETS {
                counts[i] = counts[i].saturating_sub(n);
            }
        }
        self.windowed(&counts, earlier)
    }

    /// Like [`CompactHistogram::delta`], but *strict*: where the
    /// infallible form saturates a regressed bucket to zero (fine inside
    /// one process, where counters are monotone by construction), this
    /// one refuses. Offline journal forensics use it — two freezes from
    /// different boots or different schemas must surface as an error,
    /// not silently underflow into a plausible-looking window.
    pub fn checked_delta(
        &self,
        earlier: &CompactHistogram,
    ) -> Result<CompactHistogram, DeltaError> {
        if earlier.count > self.count {
            return Err(DeltaError::Regressed { bucket: None });
        }
        let mut counts = [0u64; BUCKETS];
        for &(i, n) in &self.buckets {
            if i >= BUCKETS {
                return Err(DeltaError::BucketOutOfRange { bucket: i });
            }
            counts[i] = n;
        }
        for &(i, n) in &earlier.buckets {
            if i >= BUCKETS {
                return Err(DeltaError::BucketOutOfRange { bucket: i });
            }
            if n > counts[i] {
                return Err(DeltaError::Regressed { bucket: Some(i) });
            }
            counts[i] -= n;
        }
        Ok(self.windowed(&counts, earlier))
    }

    /// The windowed freeze from the subtracted dense `counts`: the count
    /// re-summed from the buckets, `max` the upper bound of the highest
    /// active bucket capped by `self.max`.
    fn windowed(&self, counts: &[u64; BUCKETS], earlier: &CompactHistogram) -> CompactHistogram {
        let buckets = sparse(counts);
        CompactHistogram {
            count: buckets.iter().map(|&(_, n)| n).sum(),
            sum: self.sum.wrapping_sub(earlier.sum),
            max: buckets
                .last()
                .map_or(0, |&(i, _)| bucket_upper_bound(i).min(self.max)),
            buckets,
        }
    }

    /// Merges two freezes: per-bucket count addition over the union of
    /// their sparse buckets, summed totals, the larger max. Disjoint
    /// sparse buckets interleave by index.
    pub fn merge(&self, other: &CompactHistogram) -> CompactHistogram {
        let mut counts = [0u64; BUCKETS];
        for &(i, n) in self.buckets.iter().chain(&other.buckets) {
            if i < BUCKETS {
                counts[i] = counts[i].saturating_add(n);
            }
        }
        CompactHistogram {
            count: self.count.saturating_add(other.count),
            sum: self.sum.wrapping_add(other.sum),
            max: self.max.max(other.max),
            buckets: sparse(&counts),
        }
    }

    /// Mean of the retained values, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The nearest-rank `q`-quantile (`0.0 ..= 1.0`): the inclusive upper
    /// bound of the bucket holding the ranked element, capped by the exact
    /// `max` (so `quantile(1.0) == max` on a live freeze); `0` when empty.
    /// Never an under-estimate of the true quantile.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for &(i, n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// Non-empty buckets as `(inclusive upper bound, cumulative count)`
    /// pairs — the shape Prometheus `_bucket{le=...}` lines want.
    pub fn cumulative_buckets(&self) -> Vec<(u64, u64)> {
        let mut cum = 0u64;
        self.buckets
            .iter()
            .map(|&(i, n)| {
                cum += n;
                (bucket_upper_bound(i), cum)
            })
            .collect()
    }
}

/// The non-empty entries of a dense bucket array, indices ascending.
fn sparse(counts: &[u64; BUCKETS]) -> Vec<(usize, u64)> {
    counts
        .iter()
        .enumerate()
        .filter(|(_, &n)| n != 0)
        .map(|(i, &n)| (i, n))
        .collect()
}

/// The fixed, ordered naming of every series a [`Sample`] carries.
/// Positions in the schema vectors index the corresponding positions in
/// each sample, so samples store no names.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SeriesSchema {
    /// Monotonic counter names (requests by route/status, fits, …).
    pub counters: Vec<String>,
    /// Point-in-time gauge names (sessions open, resident bytes, …).
    pub gauges: Vec<String>,
    /// Histogram instrument names (per-route families, stage timers).
    pub histograms: Vec<String>,
}

/// One periodic freeze of the whole instrument registry, aligned to a
/// [`SeriesSchema`]. Counters and histograms are cumulative at `t_ns`;
/// gauges are point-in-time.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Monotonic capture time ([`crate::clock::now_ns`]).
    pub t_ns: u64,
    /// Counter values, positionally aligned to `SeriesSchema::counters`.
    pub counters: Vec<u64>,
    /// Gauge values, positionally aligned to `SeriesSchema::gauges`.
    pub gauges: Vec<u64>,
    /// Histogram freezes, aligned to `SeriesSchema::histograms`.
    pub histograms: Vec<CompactHistogram>,
}

/// The bounded snapshot ring. Pushing past `retention` drops the oldest
/// sample; readers get cheap `Arc` clones, never blocking the sampler for
/// longer than a ring rotation.
#[derive(Debug)]
pub struct Recorder {
    schema: SeriesSchema,
    interval_ms: u64,
    retention: usize,
    ring: Mutex<VecDeque<Arc<Sample>>>,
}

impl Recorder {
    /// A recorder holding at most `retention` samples taken every
    /// `interval_ms` milliseconds (both floored at 1 — a zero interval is
    /// the *caller's* signal to not start a sampler at all).
    pub fn new(schema: SeriesSchema, interval_ms: u64, retention: usize) -> Self {
        let retention = retention.max(1);
        Recorder {
            schema,
            interval_ms: interval_ms.max(1),
            retention,
            ring: Mutex::new(VecDeque::with_capacity(retention)),
        }
    }

    /// The schema every retained sample is aligned to.
    pub fn schema(&self) -> &SeriesSchema {
        &self.schema
    }

    /// Configured sampling interval in milliseconds.
    pub fn interval_ms(&self) -> u64 {
        self.interval_ms
    }

    /// Maximum number of retained samples.
    pub fn retention(&self) -> usize {
        self.retention
    }

    /// Number of samples currently held.
    pub fn len(&self) -> usize {
        self.ring.lock().unwrap().len()
    }

    /// `true` when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a sample, dropping the oldest once full. Panics (debug
    /// builds) if the sample is not aligned to the schema.
    pub fn push(&self, sample: Sample) {
        debug_assert_eq!(sample.counters.len(), self.schema.counters.len());
        debug_assert_eq!(sample.gauges.len(), self.schema.gauges.len());
        debug_assert_eq!(sample.histograms.len(), self.schema.histograms.len());
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.retention {
            ring.pop_front();
        }
        ring.push_back(Arc::new(sample));
    }

    /// The newest sample, if any.
    pub fn latest(&self) -> Option<Arc<Sample>> {
        self.ring.lock().unwrap().back().cloned()
    }

    /// Retained samples from the last `window_ns` nanoseconds (all of
    /// them when `window_ns == 0`), thinned to every `step`-th sample
    /// **counting back from the newest** so the newest sample is always
    /// included. Returned oldest-first.
    pub fn window(&self, window_ns: u64, step: usize) -> Vec<Arc<Sample>> {
        let step = step.max(1);
        let ring = self.ring.lock().unwrap();
        let Some(newest) = ring.back() else {
            return Vec::new();
        };
        let cutoff = if window_ns == 0 {
            0
        } else {
            newest.t_ns.saturating_sub(window_ns)
        };
        let mut picked: Vec<Arc<Sample>> = ring
            .iter()
            .rev()
            .filter(|s| s.t_ns >= cutoff)
            .step_by(step)
            .cloned()
            .collect();
        picked.reverse();
        picked
    }

    /// The oldest and newest in-window samples, for windowed deltas —
    /// `None` until two distinct samples are in the window.
    pub fn window_ends(&self, window_ns: u64) -> Option<(Arc<Sample>, Arc<Sample>)> {
        let samples = self.window(window_ns, 1);
        let first = samples.first()?;
        let last = samples.last()?;
        (!Arc::ptr_eq(first, last)).then(|| (first.clone(), last.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::Histogram;

    fn schema() -> SeriesSchema {
        SeriesSchema {
            counters: vec!["c".into()],
            gauges: vec!["g".into()],
            histograms: vec!["h".into()],
        }
    }

    fn sample(t_ns: u64, c: u64) -> Sample {
        Sample {
            t_ns,
            counters: vec![c],
            gauges: vec![c * 2],
            histograms: vec![CompactHistogram::empty()],
        }
    }

    #[test]
    fn ring_drops_oldest_past_retention() {
        let rec = Recorder::new(schema(), 100, 3);
        for i in 0..5 {
            rec.push(sample(i * 1_000, i));
        }
        assert_eq!(rec.len(), 3);
        let all = rec.window(0, 1);
        let ts: Vec<u64> = all.iter().map(|s| s.t_ns).collect();
        assert_eq!(ts, vec![2_000, 3_000, 4_000]);
        assert_eq!(rec.latest().unwrap().counters[0], 4);
    }

    #[test]
    fn window_filters_by_time_and_steps_from_newest() {
        let rec = Recorder::new(schema(), 100, 16);
        for i in 0..10 {
            rec.push(sample(i * 1_000, i));
        }
        // Window of 4 µs back from t=9000 keeps t >= 5000.
        let w = rec.window(4_000, 1);
        assert_eq!(w.first().unwrap().t_ns, 5_000);
        assert_eq!(w.last().unwrap().t_ns, 9_000);
        // Step 3 counts back from the newest: 9000, 6000 (reversed).
        let stepped = rec.window(4_000, 3);
        let ts: Vec<u64> = stepped.iter().map(|s| s.t_ns).collect();
        assert_eq!(ts, vec![6_000, 9_000]);
        // The newest sample always survives thinning.
        assert_eq!(stepped.last().unwrap().t_ns, rec.latest().unwrap().t_ns);
    }

    #[test]
    fn window_ends_need_two_samples() {
        let rec = Recorder::new(schema(), 100, 8);
        assert!(rec.window_ends(0).is_none());
        rec.push(sample(1_000, 1));
        assert!(rec.window_ends(0).is_none());
        rec.push(sample(2_000, 2));
        let (first, last) = rec.window_ends(0).unwrap();
        assert_eq!(first.t_ns, 1_000);
        assert_eq!(last.t_ns, 2_000);
    }

    #[test]
    fn snapshot_keeps_the_tails_and_the_cumulative_buckets() {
        let h = Histogram::new();
        for v in [1u64, 5, 5, 1_000, 123_456] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1 + 5 + 5 + 1_000 + 123_456);
        assert_eq!(snap.max, 123_456);
        assert_eq!(snap.quantile(1.0), 123_456);
        assert_eq!(snap.quantile(0.5), 5);
        let cumulative = snap.cumulative_buckets();
        assert_eq!(cumulative.len(), snap.buckets.len());
        assert_eq!(cumulative.last().unwrap().1, 5);
        for (&(le, _), &(i, _)) in cumulative.iter().zip(&snap.buckets) {
            assert_eq!(le, bucket_upper_bound(i));
        }
    }

    #[test]
    fn delta_recovers_the_windowed_histogram() {
        let h = Histogram::new();
        for v in 1..=2_000u64 {
            h.record(v);
        }
        let early = h.snapshot();
        for v in 10_000..10_500u64 {
            h.record(v);
        }
        let late = h.snapshot();
        let window = h.snapshot(); // cumulative; build expected directly
        let delta = late.delta(&early);
        assert_eq!(delta.count, 500);
        assert_eq!(delta.sum, (10_000..10_500u64).sum::<u64>());
        // Every windowed value lives in [10_000, 10_500): the windowed
        // p50 must land there even though the cumulative p50 is tiny.
        let p50 = delta.quantile(0.5);
        assert!(p50 >= 10_000, "windowed p50 = {p50}");
        assert!(window.quantile(0.5) < 10_000, "cumulative p50 stayed low");
        assert!(delta.max >= 10_499 && delta.max <= late.max);
    }

    #[test]
    fn delta_against_self_is_empty() {
        let h = Histogram::new();
        h.record(42);
        let c = h.snapshot();
        let d = c.delta(&c);
        assert_eq!(d.count, 0);
        assert_eq!(d.sum, 0);
        assert_eq!(d.max, 0);
        assert_eq!(d.quantile(0.99), 0);
        assert!(d.buckets.is_empty());
    }
}
