//! Concurrency acceptance tests: scoring N series through the sharded worker
//! pool must match a sequential single-threaded loop exactly, for every pool
//! size, and concurrent callers must not interfere with each other.

use std::sync::Arc;

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::{Engine, EngineConfig, ScoreJob, WorkerPool};
use s2g_timeseries::TimeSeries;

fn fleet_series(idx: usize, n: usize) -> TimeSeries {
    // Phase-shifted sines with one injected burst at an index-dependent spot,
    // so every series has distinct values and a distinct anomaly location.
    let phase = idx as f64 * 0.41;
    let burst_at = 500 + 173 * idx;
    let mut values: Vec<f64> = (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0 + phase).sin())
        .collect();
    let end = (burst_at + 120).min(n);
    for (i, v) in values.iter_mut().enumerate().take(end).skip(burst_at) {
        *v = 0.75 * (std::f64::consts::TAU * i as f64 / 23.0).sin();
    }
    TimeSeries::from(values)
}

fn fitted_model() -> Arc<Series2Graph> {
    let train: Vec<f64> = (0..6000)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    Arc::new(Series2Graph::fit(&TimeSeries::from(train), &S2gConfig::new(50)).unwrap())
}

#[test]
fn pool_scoring_matches_sequential_exactly() {
    const N_SERIES: usize = 10; // ≥ 8 per the acceptance criteria
    const QUERY_LENGTH: usize = 150;

    let model = fitted_model();
    let fleet: Vec<TimeSeries> = (0..N_SERIES).map(|i| fleet_series(i, 3000)).collect();

    // Ground truth: sequential single-threaded scoring.
    let sequential: Vec<Vec<f64>> = fleet
        .iter()
        .map(|s| model.anomaly_scores(s, QUERY_LENGTH).unwrap())
        .collect();

    // The pool must reproduce it bit-for-bit at every worker count,
    // including worker counts that don't divide the series count.
    for workers in [1usize, 2, 3, 4, 7] {
        let pool = WorkerPool::new(workers);
        let jobs: Vec<ScoreJob> = fleet
            .iter()
            .map(|s| ScoreJob {
                model: Arc::clone(&model),
                series: s.clone(),
                query_length: QUERY_LENGTH,
            })
            .collect();
        let pooled: Vec<Vec<f64>> = pool
            .score_batch(jobs, None)
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(pooled.len(), sequential.len());
        for (idx, (p, s)) in pooled.iter().zip(&sequential).enumerate() {
            assert_eq!(p.len(), s.len(), "series {idx}, {workers} workers");
            for (i, (a, b)) in p.iter().zip(s).enumerate() {
                assert_eq!(
                    a.to_bits(),
                    b.to_bits(),
                    "series {idx} score {i} diverged with {workers} workers"
                );
            }
        }
    }
}

#[test]
fn engine_score_many_matches_sequential() {
    let engine = Engine::new(EngineConfig::default().with_workers(4));
    let train: Vec<f64> = (0..5000)
        .map(|i| (std::f64::consts::TAU * i as f64 / 90.0).sin())
        .collect();
    let (model, _) = engine
        .fit_model("fleet", &TimeSeries::from(train), &S2gConfig::new(45), None)
        .unwrap();

    let fleet: Vec<TimeSeries> = (0..8).map(|i| fleet_series(i, 2500)).collect();
    let pooled = engine
        .score_many("fleet", fleet.clone(), 135, None)
        .unwrap();
    for (series, result) in fleet.iter().zip(pooled) {
        let expected = model.anomaly_scores(series, 135).unwrap();
        assert_eq!(result.unwrap(), expected);
    }
}

#[test]
fn parallel_fit_batch_matches_sequential_fits() {
    let pool = WorkerPool::new(4);
    let jobs: Vec<s2g_engine::FitJob> = (0..6)
        .map(|i| s2g_engine::FitJob {
            series: fleet_series(i, 3000),
            config: S2gConfig::new(40),
        })
        .collect();
    let pooled = pool.fit_batch(jobs, None);

    for (i, result) in pooled.into_iter().enumerate() {
        let pooled_model = result.unwrap();
        let sequential_model =
            Series2Graph::fit(&fleet_series(i, 3000), &S2gConfig::new(40)).unwrap();
        // Fitting is deterministic, so the graphs must agree exactly.
        assert_eq!(pooled_model.node_count(), sequential_model.node_count());
        assert_eq!(
            pooled_model.graph().edge_count(),
            sequential_model.graph().edge_count()
        );
        assert_eq!(
            pooled_model.train_contributions(),
            sequential_model.train_contributions()
        );
        let probe = fleet_series(i + 100, 1500);
        assert_eq!(
            pooled_model.anomaly_scores(&probe, 120).unwrap(),
            sequential_model.anomaly_scores(&probe, 120).unwrap()
        );
    }
}

#[test]
fn concurrent_callers_share_one_engine() {
    // Many threads hammering the same engine: each gets exactly its own
    // results back (no cross-talk between reply channels).
    let engine = Arc::new(Engine::new(EngineConfig::default().with_workers(4)));
    let train: Vec<f64> = (0..4000)
        .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
        .collect();
    engine
        .fit_model(
            "shared",
            &TimeSeries::from(train),
            &S2gConfig::new(40),
            None,
        )
        .unwrap();

    let handles: Vec<_> = (0..6)
        .map(|caller| {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                let fleet: Vec<TimeSeries> = (0..4)
                    .map(|i| fleet_series(caller * 10 + i, 2000))
                    .collect();
                let results = engine
                    .score_many("shared", fleet.clone(), 120, None)
                    .unwrap();
                let model = engine.registry().require("shared").unwrap();
                for (series, result) in fleet.iter().zip(results) {
                    let expected = model.anomaly_scores(series, 120).unwrap();
                    assert_eq!(
                        result.unwrap(),
                        expected,
                        "caller {caller} got foreign results"
                    );
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }
}

#[test]
fn streaming_sessions_survive_interleaved_pushes() {
    let engine = Engine::new(EngineConfig::default().with_workers(3));
    let train: Vec<f64> = (0..4000)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    engine
        .fit_model("base", &TimeSeries::from(train), &S2gConfig::new(50), None)
        .unwrap();

    // Two sessions fed the same data via different chunkings must emit the
    // same windows as one uninterrupted push.
    engine.open_stream("a", "base", 150).unwrap();
    engine.open_stream("b", "base", 150).unwrap();
    let data = fleet_series(3, 1200);
    let mut a_emitted = Vec::new();
    for chunk in data.values().chunks(101) {
        a_emitted.extend(engine.push_stream("a", chunk, None).unwrap().0);
    }
    let (b_emitted, _) = engine.push_stream("b", data.values(), None).unwrap();
    assert_eq!(a_emitted, b_emitted);
    assert_eq!(engine.close_stream("a").unwrap(), 1200);
    assert_eq!(engine.close_stream("b").unwrap(), 1200);
}
