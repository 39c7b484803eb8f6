//! Acceptance tests of the histogram substrate — the edge cases the
//! serving stack leans on:
//!
//! * extreme durations (`0`, `u64::MAX`) and bucket-boundary values land
//!   in valid buckets whose bounds contain them;
//! * concurrent recording from 8 threads sums exactly (no dropped
//!   counts under contention);
//! * merging shard-local histograms equals recording into one shared
//!   histogram, bucket for bucket;
//! * quantiles are monotone in `q` and bounded by `[min bucket, max]`
//!   (property-tested over random value streams).

use std::sync::Arc;

use proptest::prelude::*;
use s2g_obs::hist::{bucket_index, bucket_upper_bound, Histogram, BUCKETS};
use s2g_obs::recorder::{CompactHistogram, DeltaError};

#[test]
fn zero_and_max_durations_are_recorded() {
    let h = Histogram::new();
    h.record(0);
    h.record(u64::MAX);
    assert_eq!(h.count(), 2);
    assert_eq!(h.max(), u64::MAX);
    // Sum wraps by contract: 0 + u64::MAX = u64::MAX exactly here.
    assert_eq!(h.sum(), u64::MAX);
    let snap = h.snapshot();
    assert_eq!(snap.quantile(0.0), 0);
    assert_eq!(snap.quantile(1.0), u64::MAX);
}

#[test]
fn bucket_boundaries_are_tight() {
    // Around every power of two and half-octave mark, the value must fall
    // inside its bucket's range: above the previous bucket's bound, at or
    // below its own.
    for e in 1..64u32 {
        let marks = [
            (1u64 << e).wrapping_sub(1),
            1u64 << e,
            (1u64 << e).wrapping_add(1),
            (1u64 << e) | (1u64 << (e - 1)),
        ];
        for v in marks {
            let idx = bucket_index(v);
            assert!(idx < BUCKETS);
            assert!(v <= bucket_upper_bound(idx));
            if idx > 0 {
                assert!(
                    v > bucket_upper_bound(idx - 1),
                    "{v} not above previous bucket bound"
                );
            }
        }
    }
}

#[test]
fn concurrent_recording_from_8_threads_sums_exactly() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                for i in 0..PER_THREAD {
                    // Spread values across many buckets, deterministic per thread.
                    h.record((t as u64 + 1) * 997 + i * 13);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(h.count(), total);
    let snap = h.snapshot();
    assert_eq!(snap.count, total);
    // The exact sum of the recorded arithmetic progressions.
    let expected_sum: u64 = (0..THREADS as u64)
        .map(|t| PER_THREAD * (t + 1) * 997 + 13 * (PER_THREAD * (PER_THREAD - 1) / 2))
        .sum();
    assert_eq!(h.sum(), expected_sum);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Quantiles are monotone in `q`, never exceed the exact max, and
    /// never undershoot the smallest recorded value's bucket.
    #[test]
    fn quantiles_are_monotone(values in prop::collection::vec(0u64..u64::MAX, 1..400)) {
        let h = Histogram::new();
        for &v in &values {
            h.record(v);
        }
        let snap = h.snapshot();
        let min = *values.iter().min().unwrap();
        let max = *values.iter().max().unwrap();
        let mut last = 0u64;
        for step in 0..=20u32 {
            let q = f64::from(step) / 20.0;
            let quantile = snap.quantile(q);
            prop_assert!(quantile >= last, "quantile regressed at q={q}");
            prop_assert!(quantile <= max);
            prop_assert!(quantile >= min.min(bucket_upper_bound(bucket_index(min))));
            last = quantile;
        }
        prop_assert_eq!(snap.quantile(1.0), max);
    }
}

// ---------------------------------------------------------------------------
// CompactHistogram edge cases: the freezes the flight recorder retains
// and the journal replays offline.
// ---------------------------------------------------------------------------

#[test]
fn checked_delta_rejects_schema_drift_instead_of_underflowing() {
    // The "later" freeze has *fewer* counts than the earlier one — what
    // offline forensics see when two samples straddle a process restart
    // or come from different schemas. The strict delta must error; the
    // infallible delta saturates (by design, for in-process monotone
    // counters) — pinning both contracts side by side.
    let later = CompactHistogram {
        count: 3,
        sum: 30,
        max: 16,
        buckets: vec![(4, 3)],
    };
    let earlier = CompactHistogram {
        count: 5,
        sum: 50,
        max: 16,
        buckets: vec![(4, 5)],
    };
    assert_eq!(
        later.checked_delta(&earlier),
        Err(DeltaError::Regressed { bucket: None })
    );
    let saturated = later.delta(&earlier);
    assert_eq!(saturated.count, 0);

    // Same total, but one bucket regressed (counts moved buckets): the
    // per-bucket check catches what the scalar check cannot.
    let later = CompactHistogram {
        count: 5,
        sum: 50,
        max: 16,
        buckets: vec![(2, 2), (4, 3)],
    };
    let earlier = CompactHistogram {
        count: 5,
        sum: 50,
        max: 16,
        buckets: vec![(4, 5)],
    };
    assert_eq!(
        later.checked_delta(&earlier),
        Err(DeltaError::Regressed { bucket: Some(4) })
    );
}

#[test]
fn checked_delta_rejects_buckets_outside_the_layout() {
    // A freeze from a hypothetical wider layout (bucket count larger
    // than BUCKETS) must be refused, not silently dropped the way the
    // infallible delta's bounds guard does.
    let alien = CompactHistogram {
        count: 1,
        sum: 1,
        max: 1,
        buckets: vec![(BUCKETS + 7, 1)],
    };
    let empty = CompactHistogram::empty();
    assert_eq!(
        alien.checked_delta(&empty),
        Err(DeltaError::BucketOutOfRange {
            bucket: BUCKETS + 7
        })
    );
    assert_eq!(
        empty.checked_delta(&alien),
        Err(DeltaError::Regressed { bucket: None })
    );
}

#[test]
fn empty_window_quantiles_are_zero() {
    // A delta over a quiet window (identical samples) is empty: every
    // quantile, the mean and the max must all be zero — not NaN, not a
    // leftover cumulative value.
    let h = Histogram::new();
    for v in [3u64, 900, 4_000_000] {
        h.record(v);
    }
    let frozen = h.snapshot();
    let empty = frozen.checked_delta(&frozen).expect("self-delta is valid");
    assert_eq!(empty.count, 0);
    assert!(empty.buckets.is_empty());
    for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
        assert_eq!(empty.quantile(q), 0, "q={q} on an empty window");
    }
    assert_eq!(empty.mean(), 0.0);
    assert_eq!(empty.max, 0);
    // Fully empty freezes behave the same.
    let nothing = CompactHistogram::empty();
    assert_eq!(nothing.quantile(0.99), 0);
    assert_eq!(nothing.mean(), 0.0);
}

#[test]
fn merge_interleaves_disjoint_sparse_buckets() {
    // Two freezes whose sparse buckets are fully disjoint (one recorded
    // only fast values, the other only slow ones) must merge into the
    // union with indices ascending — the same histogram one combined
    // recording stream would have produced.
    let fast = Histogram::new();
    let slow = Histogram::new();
    let both = Histogram::new();
    for v in [1u64, 2, 3, 6] {
        fast.record(v);
        both.record(v);
    }
    for v in [1_000_000u64, 2_000_000, 9_000_000] {
        slow.record(v);
        both.record(v);
    }
    let a = fast.snapshot();
    let b = slow.snapshot();
    // Disjointness is the premise of the test — check it holds.
    for (i, _) in &a.buckets {
        assert!(!b.buckets.iter().any(|(j, _)| j == i));
    }
    let merged = a.merge(&b);
    let expected = both.snapshot();
    assert_eq!(merged.count, expected.count);
    assert_eq!(merged.sum, expected.sum);
    assert_eq!(merged.max, expected.max);
    assert_eq!(merged.buckets, expected.buckets);
    let indices: Vec<usize> = merged.buckets.iter().map(|&(i, _)| i).collect();
    let mut sorted = indices.clone();
    sorted.sort_unstable();
    assert_eq!(indices, sorted, "merged indices must ascend");
    // Merge is symmetric.
    let ba = b.merge(&a);
    assert_eq!(ba.buckets, merged.buckets);
    assert_eq!(ba.quantile(0.5), merged.quantile(0.5));
}
