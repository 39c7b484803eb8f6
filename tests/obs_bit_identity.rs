//! Observability must be a pure *observer*: every engine and pool
//! operation takes an optional request span, and calling it with
//! `Some(&ctx)` on an instrumented engine must produce results
//! bit-identical to calling it with `None` on a bare one — fits
//! (checksums), registry lookups, batch scores, streamed session scores
//! and adapted-snapshot publication alike.

use std::sync::Arc;

use s2g_engine::{
    codec, AdaptConfig, Engine, EngineConfig, FitJob, S2gConfig, ScoreJob, Series2Graph, WorkerPool,
};
use s2g_obs::Obs;
use s2g_timeseries::TimeSeries;

fn series(n: usize, period: f64, phase: f64) -> TimeSeries {
    TimeSeries::from(
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period + phase).sin())
            .collect::<Vec<f64>>(),
    )
}

/// Four short probes plus one 8× longer one: the skewed batch shape that
/// makes the pool's idle worker steal the short tasks queued behind it.
fn probes() -> Vec<TimeSeries> {
    (0..4)
        .map(|k| series(900 + 41 * k, 64.0, 0.17 * k as f64))
        .chain(std::iter::once(series(7200, 64.0, 0.7)))
        .collect()
}

fn assert_bits_eq(traced: &[f64], bare: &[f64], what: &str) {
    assert_eq!(traced.len(), bare.len(), "{what}: length");
    for (t, b) in traced.iter().zip(bare) {
        assert_eq!(
            t.to_bits(),
            b.to_bits(),
            "{what}: results must be bit-identical"
        );
    }
}

fn assert_windows_eq(traced: &[(usize, f64)], bare: &[(usize, f64)], what: &str) {
    assert_eq!(traced.len(), bare.len(), "{what}: length");
    for ((ts, tv), (bs, bv)) in traced.iter().zip(bare) {
        assert_eq!(ts, bs, "{what}: window start");
        assert_eq!(
            tv.to_bits(),
            bv.to_bits(),
            "{what}: results must be bit-identical"
        );
    }
}

#[test]
fn engine_operations_are_bit_identical_with_and_without_a_span() {
    let train = series(3000, 80.0, 0.0);
    let config = S2gConfig::new(50);
    let stream: Vec<f64> = series(700, 72.0, 0.3).into_vec();
    let adapt = AdaptConfig::default()
        .with_lambda(0.05)
        .with_publish_interval(128);

    // Bare reference: no obs, every call with `None`.
    let bare = Engine::new(EngineConfig::default().with_workers(3));
    let (bare_model, bare_info) = bare.fit_model("m", &train, &config, None).unwrap();
    let bare_handle = bare.model_handle("m", None).unwrap();
    let bare_scores = bare.score_many("m", probes(), 150, None).unwrap();
    let bare_batch = bare.score_batch(score_jobs(&bare_handle), None);
    bare.open_stream("s", "m", 160).unwrap();
    let (bare_emitted, _) = bare.push_stream("s", &stream, None).unwrap();
    bare.open_adaptive_stream("a", "m", 160, adapt.clone())
        .unwrap();
    let (bare_adapted, bare_status) = bare.push_stream("a", &stream, None).unwrap();
    let bare_published = bare
        .publish_adapted("m", Arc::clone(&bare_model), None)
        .unwrap();

    // Instrumented run: obs attached, every call under a live span tree.
    let mut engine = Engine::new(EngineConfig::default().with_workers(3));
    let obs = Arc::new(Obs::new());
    engine.attach_obs(Arc::clone(&obs));
    let trace = obs.start_trace();
    let root = trace.begin("request", None);
    let ctx = root.ctx();

    let (model, info) = engine.fit_model("m", &train, &config, Some(&ctx)).unwrap();
    assert_eq!(
        codec::model_checksum(&model),
        codec::model_checksum(&bare_model),
        "traced fit must produce a bit-identical model"
    );
    assert_eq!(info.checksum, bare_info.checksum);

    let handle = engine.model_handle("m", Some(&ctx)).unwrap();
    assert_eq!(
        codec::model_checksum(&handle),
        codec::model_checksum(&bare_handle)
    );

    let scores = engine.score_many("m", probes(), 150, Some(&ctx)).unwrap();
    assert_eq!(scores.len(), bare_scores.len());
    for (traced, bare) in scores.iter().zip(&bare_scores) {
        assert_bits_eq(
            traced.as_ref().unwrap(),
            bare.as_ref().unwrap(),
            "score_many",
        );
    }

    let batch = engine.score_batch(score_jobs(&handle), Some(&ctx));
    for (traced, bare) in batch.iter().zip(&bare_batch) {
        assert_bits_eq(
            traced.as_ref().unwrap(),
            bare.as_ref().unwrap(),
            "score_batch",
        );
    }

    engine.open_stream("s", "m", 160).unwrap();
    let (emitted, _) = engine.push_stream("s", &stream, Some(&ctx)).unwrap();
    assert_windows_eq(&emitted, &bare_emitted, "frozen push_stream");

    engine.open_adaptive_stream("a", "m", 160, adapt).unwrap();
    let (adapted, status) = engine.push_stream("a", &stream, Some(&ctx)).unwrap();
    assert_windows_eq(&adapted, &bare_adapted, "adaptive push_stream");
    let (status, bare_status) = (status.unwrap(), bare_status.unwrap());
    assert_eq!(status.updates, bare_status.updates);
    assert!(
        status.published_checksum.is_some(),
        "the publish interval elapsed during the push"
    );
    assert_eq!(status.published_checksum, bare_status.published_checksum);

    let published = engine
        .publish_adapted("m", Arc::clone(&model), Some(&ctx))
        .unwrap();
    assert_eq!(published, bare_published);
    assert_eq!(published, Some(info.checksum));

    // The run really was instrumented: stage histograms and spans saw the
    // work.
    assert!(obs.fit.count() >= 1, "fit histogram must have recorded");
    assert!(obs.score.count() >= 8, "score histogram must have recorded");
    assert!(obs.pool_queue_wait.count() >= 1);
    let spans = trace.spans();
    for name in ["engine.fit", "pool.score", "pool.push", "engine.publish"] {
        assert!(
            spans.iter().any(|s| s.name == name),
            "no {name} span recorded"
        );
    }
}

#[test]
fn pool_operations_are_bit_identical_with_and_without_a_span() {
    let fits = || -> Vec<FitJob> {
        (0..3)
            .map(|k| FitJob {
                series: series(1800 + 150 * k, 70.0 + 5.0 * k as f64, 0.0),
                config: S2gConfig::new(40),
            })
            .collect()
    };
    let model = Arc::new(Series2Graph::fit(&series(3000, 80.0, 0.0), &S2gConfig::new(50)).unwrap());
    let stream: Vec<f64> = series(600, 80.0, 0.2).into_vec();

    let bare = WorkerPool::new(2);
    let bare_fits = bare.fit_batch(fits(), None);
    let bare_scores = bare.score_batch(score_jobs(&model), None);
    // The pool itself must be invisible: each slot equals the sequential
    // scoring of its series.
    assert_eq!(bare_scores.len(), probes().len());
    for (pooled, series) in bare_scores.iter().zip(probes()) {
        assert_bits_eq(
            pooled.as_ref().unwrap(),
            &model.anomaly_scores(&series, 150).unwrap(),
            "pool score_batch vs sequential anomaly_scores",
        );
    }
    bare.open_stream("s", Arc::clone(&model), 150).unwrap();
    let bare_push = bare.push_stream("s", &stream, None).unwrap();

    let pool = WorkerPool::new(2);
    let obs = Arc::new(Obs::new());
    pool.attach_obs(Arc::clone(&obs));
    let trace = obs.start_trace();
    let root = trace.begin("request", None);
    let ctx = root.ctx();

    let traced_fits = pool.fit_batch(fits(), Some(&ctx));
    for (traced, bare) in traced_fits.iter().zip(&bare_fits) {
        assert_eq!(
            codec::model_checksum(traced.as_ref().unwrap()),
            codec::model_checksum(bare.as_ref().unwrap()),
            "fit_batch: traced fit must produce a bit-identical model"
        );
    }
    let traced_scores = pool.score_batch(score_jobs(&model), Some(&ctx));
    for (traced, bare) in traced_scores.iter().zip(&bare_scores) {
        assert_bits_eq(
            traced.as_ref().unwrap(),
            bare.as_ref().unwrap(),
            "score_batch",
        );
    }
    pool.open_stream("s", Arc::clone(&model), 150).unwrap();
    let push = pool.push_stream("s", &stream, Some(&ctx)).unwrap();
    assert_windows_eq(&push.emitted, &bare_push.emitted, "push_stream");

    assert!(obs.fit.count() >= 3);
    assert!(obs.score.count() >= 4);
    assert!(obs.pool_execute.count() >= 8);
}

fn score_jobs(model: &Arc<Series2Graph>) -> Vec<ScoreJob> {
    probes()
        .into_iter()
        .map(|series| ScoreJob {
            model: Arc::clone(model),
            series,
            query_length: 150,
        })
        .collect()
}
