//! Pool robustness under injected faults: panicking tasks answer typed
//! errors while the worker survives, and tasks whose deadline expired in
//! the queue are answered without executing.
//!
//! Failpoint state is process-global, so every test that arms one (or
//! swaps the panic hook) runs under one mutex and disarms on entry.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use s2g_core::{S2gConfig, Series2Graph};
use s2g_engine::{Error, ScoreJob, WorkerPool};
use s2g_failpoints::{Action, Settings};
use s2g_obs::{SpanCtx, TraceHandle, TraceId};
use s2g_timeseries::TimeSeries;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    s2g_failpoints::disarm_all();
    guard
}

fn sine(n: usize, period: f64, phase: f64) -> TimeSeries {
    TimeSeries::from(
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period + phase).sin())
            .collect::<Vec<_>>(),
    )
}

fn fitted_model() -> Arc<Series2Graph> {
    Arc::new(Series2Graph::fit(&sine(3000, 80.0, 0.0), &S2gConfig::new(40)).unwrap())
}

fn score_jobs(model: &Arc<Series2Graph>, n: usize) -> Vec<ScoreJob> {
    (0..n)
        .map(|i| ScoreJob {
            model: Arc::clone(model),
            series: sine(800 + 10 * i, 80.0, 0.1 * i as f64),
            query_length: 120,
        })
        .collect()
}

/// Root span context with an absolute deadline, the way the serving layer
/// builds one from `X-S2g-Deadline-Ms`.
fn ctx_with_deadline(deadline: Option<Instant>) -> (TraceHandle, SpanCtx) {
    let trace = TraceHandle::new(TraceId(0x7e57));
    let root = trace.begin("request", None);
    let ctx = root.ctx().with_deadline(deadline);
    root.finish();
    (trace, ctx)
}

#[test]
fn panicking_task_answers_typed_error_and_worker_survives() {
    let _guard = lock();
    let model = fitted_model();
    let pool = WorkerPool::new(1);

    // Swallow the injected panic's default stderr report; the unwind
    // itself still happens and the worker must catch it.
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut settings = Settings::new(Action::Panic);
    settings.budget = Some(1);
    s2g_failpoints::arm("pool.task.panic", settings).unwrap();
    let results = pool.score_batch(score_jobs(&model, 1), None);
    s2g_failpoints::disarm_all();
    std::panic::set_hook(prev_hook);

    assert!(
        matches!(results[0], Err(Error::WorkerPanicked)),
        "expected WorkerPanicked, got {:?}",
        results[0]
    );
    assert_eq!(pool.task_panics(), 1);

    // The single worker caught the unwind and keeps serving.
    let after = pool.score_batch(score_jobs(&model, 3), None);
    assert!(after.iter().all(|r| r.is_ok()));
    assert_eq!(pool.pending_tasks(), 0);
}

#[test]
fn error_armed_failpoint_fails_only_budgeted_tasks() {
    let _guard = lock();
    let model = fitted_model();
    let pool = WorkerPool::new(2);
    let mut settings = Settings::new(Action::Error);
    settings.budget = Some(2);
    s2g_failpoints::arm("pool.task.panic", settings).unwrap();
    let results = pool.score_batch(score_jobs(&model, 6), None);
    s2g_failpoints::disarm_all();
    let failed = results
        .iter()
        .filter(|r| matches!(r, Err(Error::Io(_))))
        .count();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    assert_eq!(failed, 2, "budget of 2 must fail exactly 2 tasks");
    assert_eq!(ok, 4);
    assert_eq!(pool.task_panics(), 0, "error action must not count a panic");
}

#[test]
fn expired_deadline_rejects_queued_tasks_without_executing() {
    let _guard = lock();
    let model = fitted_model();
    let pool = WorkerPool::new(2);
    let (_trace, ctx) = ctx_with_deadline(Some(Instant::now() - Duration::from_millis(5)));
    let results = pool.score_batch(score_jobs(&model, 4), Some(&ctx));
    assert!(results
        .iter()
        .all(|r| matches!(r, Err(Error::DeadlineExceeded))));
    assert_eq!(pool.deadline_expired(), 4);
    let executed: u64 = pool.worker_stats().iter().map(|s| s.executed).sum();
    assert_eq!(executed, 0, "expired tasks must be skipped, not run");
    assert_eq!(pool.pending_tasks(), 0);
}

#[test]
fn live_deadline_leaves_results_bit_identical() {
    let _guard = lock();
    let model = fitted_model();
    let series = sine(900, 80.0, 0.3);
    let sequential = model.anomaly_scores(&series, 120).unwrap();
    let pool = WorkerPool::new(2);
    let (_trace, ctx) = ctx_with_deadline(Some(Instant::now() + Duration::from_secs(60)));
    let results = pool.score_batch(
        vec![ScoreJob {
            model: Arc::clone(&model),
            series,
            query_length: 120,
        }],
        Some(&ctx),
    );
    assert_eq!(results[0].as_ref().unwrap(), &sequential);
    assert_eq!(pool.deadline_expired(), 0);
}

#[test]
fn expired_stream_push_is_rejected_and_session_survives() {
    let _guard = lock();
    let model = fitted_model();
    let pool = WorkerPool::new(2);
    pool.open_stream("chaos", Arc::clone(&model), 120).unwrap();
    let chunk: Vec<f64> = sine(200, 80.0, 0.0).into_vec();

    let (_trace, ctx) = ctx_with_deadline(Some(Instant::now() - Duration::from_millis(1)));
    let expired = pool.push_stream("chaos", &chunk, Some(&ctx));
    assert!(matches!(expired, Err(Error::DeadlineExceeded)));
    assert_eq!(pool.deadline_expired(), 1);

    // The session never saw the expired chunk: a fresh push consumes from
    // point zero, exactly as if the expired push had never been sent.
    let live = pool.push_stream("chaos", &chunk, None).unwrap().emitted;
    assert_eq!(live.len(), 200 - 120 + 1);
    assert_eq!(pool.close_stream("chaos").unwrap(), 200);
}
