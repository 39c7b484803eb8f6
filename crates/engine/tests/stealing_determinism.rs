//! Work-stealing acceptance tests.
//!
//! The stealing scheduler moves batch tasks between workers; these tests
//! pin down that this can never move a single output bit:
//!
//! * skewed batches (one huge series among many tiny ones — the shape that
//!   defeats round-robin) score bit-identically to a sequential loop at
//!   every worker count, including counts that don't divide the job count;
//! * an adaptive (λ > 0) streaming session emits bit-identical results
//!   whether or not concurrent batch work is hammering the same pool;
//! * fitted models encode byte-identically to the pre-stealing seed build
//!   (golden trailer checksums captured from the seed binary).

use std::sync::Arc;

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::{codec, AdaptConfig, Engine, EngineConfig, ScoreJob, WorkerPool};
use s2g_timeseries::TimeSeries;

fn sine(n: usize, period: f64, phase: f64) -> TimeSeries {
    TimeSeries::from(
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period + phase).sin())
            .collect::<Vec<_>>(),
    )
}

/// One giant series followed by many tiny ones: under round-robin dispatch
/// every job sharing the giant's shard queues behind it; stealing drains
/// the tail across all workers.
fn skewed_fleet() -> Vec<TimeSeries> {
    let mut fleet = vec![sine(40_000, 80.0, 0.45)];
    fleet.extend((0..14).map(|i| sine(500 + 37 * i, 80.0, 0.1 * i as f64)));
    fleet
}

#[test]
fn skewed_batches_score_bit_identical_to_sequential() {
    let model = Arc::new(Series2Graph::fit(&sine(6000, 80.0, 0.0), &S2gConfig::new(40)).unwrap());
    let fleet = skewed_fleet();
    let sequential: Vec<Vec<f64>> = fleet
        .iter()
        .map(|s| model.anomaly_scores(s, 120).unwrap())
        .collect();

    for workers in [1usize, 2, 3, 4, 7] {
        let pool = WorkerPool::new(workers);
        let jobs: Vec<ScoreJob> = fleet
            .iter()
            .map(|s| ScoreJob {
                model: Arc::clone(&model),
                series: s.clone(),
                query_length: 120,
            })
            .collect();
        let pooled = pool.score_batch(jobs, None);
        for (idx, (p, s)) in pooled.iter().zip(&sequential).enumerate() {
            let p = p.as_ref().unwrap();
            assert_eq!(p.len(), s.len(), "job {idx}, {workers} workers");
            for (i, (a, b)) in p.iter().zip(s).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "job {idx} score {i} diverged with {workers} workers"
                );
            }
        }
        // Submission-order accounting: every task executed exactly once.
        let stats = pool.worker_stats();
        let executed: u64 = stats.iter().map(|s| s.executed).sum();
        assert_eq!(executed, fleet.len() as u64, "{workers} workers");
    }
}

#[test]
fn skewed_fit_batches_produce_identical_models() {
    let mut series = vec![sine(12_000, 90.0, 0.2)];
    series.extend((0..6).map(|i| sine(1500 + 100 * i, 90.0, 0.3 * i as f64)));

    let sequential: Vec<u64> = series
        .iter()
        .map(|s| codec::model_checksum(&Series2Graph::fit(s, &S2gConfig::new(45)).unwrap()))
        .collect();

    for workers in [2usize, 3, 7] {
        let pool = WorkerPool::new(workers);
        let jobs: Vec<s2g_engine::FitJob> = series
            .iter()
            .map(|s| s2g_engine::FitJob {
                series: s.clone(),
                config: S2gConfig::new(45),
            })
            .collect();
        let pooled = pool.fit_batch(jobs, None);
        for (idx, (result, expected)) in pooled.into_iter().zip(&sequential).enumerate() {
            let checksum = codec::model_checksum(&result.unwrap());
            assert_eq!(
                checksum, *expected,
                "fit {idx} encoded differently with {workers} workers"
            );
        }
    }
}

#[test]
fn adaptive_session_unchanged_by_concurrent_batch_load() {
    let train = sine(6000, 100.0, 0.0);
    let config = S2gConfig::new(50);
    let adapt = AdaptConfig {
        lambda: 0.1,
        ..AdaptConfig::default()
    };

    // The stream to replay: training-like so updates are accepted.
    let stream = sine(3000, 100.0, 0.15);

    // Baseline: adaptive session on a quiet engine.
    let quiet = Engine::new(EngineConfig::default().with_workers(3));
    quiet.fit_model("m", &train, &config, None).unwrap();
    quiet
        .open_adaptive_stream("s", "m", 150, adapt.clone())
        .unwrap();
    let mut baseline = Vec::new();
    for chunk in stream.values().chunks(97) {
        baseline.extend(quiet.push_stream("s", chunk, None).unwrap().0);
    }
    assert!(!baseline.is_empty());

    // Same session while score batches hammer the same pool from another
    // thread. The batch jobs pin their model Arc up front, so publishing
    // adapted snapshots cannot change what the load scores — and the load
    // must not change what the session emits.
    let loaded = Arc::new(Engine::new(EngineConfig::default().with_workers(3)));
    loaded.fit_model("m", &train, &config, None).unwrap();
    let load_model = loaded.model_handle("m", None).unwrap();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let hammer = {
        let engine = Arc::clone(&loaded);
        let stop = Arc::clone(&stop);
        let model = Arc::clone(&load_model);
        std::thread::spawn(move || {
            let mut rounds = 0u32;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let jobs: Vec<ScoreJob> = (0..6)
                    .map(|i| ScoreJob {
                        model: Arc::clone(&model),
                        series: sine(800 + 50 * i, 100.0, 0.01 * rounds as f64),
                        query_length: 150,
                    })
                    .collect();
                for result in engine.score_batch(jobs, None) {
                    result.unwrap();
                }
                rounds += 1;
            }
            rounds
        })
    };

    loaded
        .open_adaptive_stream("s", "m", 150, adapt.clone())
        .unwrap();
    let mut under_load = Vec::new();
    for chunk in stream.values().chunks(97) {
        under_load.extend(loaded.push_stream("s", chunk, None).unwrap().0);
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let rounds = hammer.join().unwrap();
    assert!(rounds > 0, "the load thread never ran a batch");

    assert_eq!(baseline.len(), under_load.len());
    for (i, ((s1, v1), (s2, v2))) in baseline.iter().zip(&under_load).enumerate() {
        assert_eq!(s1, s2, "window {i} start diverged under load");
        assert_eq!(
            v1.to_bits(),
            v2.to_bits(),
            "window {i} normality diverged under load"
        );
    }
}

/// The series the golden trailer checksums below were captured on, fitted
/// with the **pre-overhaul seed binary**. The generator is deliberately
/// libm-free — a triangle wave plus LCG jitter built from exact integer
/// conversions, powers of two, and basic `+ − × ÷` only, every one of
/// which IEEE 754 pins to the same bits on every platform (unlike
/// `sin`/`cos`, which vary by a ulp across libm implementations). Fitting
/// this series in-process must therefore reproduce the seed encodings
/// byte for byte anywhere — the contract that the CSR scoring view, the
/// materialization-free fit, and the stealing scheduler all change
/// *where* work happens, never *what* it computes.
fn golden_series() -> TimeSeries {
    let mut lcg: u64 = 0x9E3779B97F4A7C15;
    let mut values = Vec::with_capacity(8000);
    for i in 0..8000u64 {
        let phase = (i % 100) as f64;
        let tri = if phase < 50.0 {
            phase / 25.0 - 1.0
        } else {
            3.0 - phase / 25.0
        };
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let jitter = ((lcg >> 11) as f64) / (1u64 << 53) as f64;
        values.push(tri + 0.02 * (jitter - 0.5));
    }
    TimeSeries::from(values)
}

#[test]
fn fitted_models_encode_byte_identical_to_seed() {
    // Captured from the seed build (PR 4 head) via
    // `s2g fit --pattern-length 50` / `--pattern-length 64 --lambda 16
    // --no-smooth` on the golden series: last 8 bytes (LE) of the encoded
    // model, i.e. `codec::model_checksum`.
    const GOLDEN_L50: u64 = 0x957afd91a77f0c6c;
    const GOLDEN_L64: u64 = 0x67a40ffe0f65794a;

    let series = golden_series();
    let l50 = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
    assert_eq!(
        codec::model_checksum(&l50),
        GOLDEN_L50,
        "ℓ=50 fit no longer encodes byte-identically to the seed"
    );
    let l64 = Series2Graph::fit(
        &series,
        &S2gConfig::new(64).with_lambda(16).with_smoothing(false),
    )
    .unwrap();
    assert_eq!(
        codec::model_checksum(&l64),
        GOLDEN_L64,
        "ℓ=64 fit no longer encodes byte-identically to the seed"
    );
}
