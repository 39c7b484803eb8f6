//! Self-watch: the server scoring its own telemetry for anomalies.
//!
//! Each sampler tick derives three operational signals from consecutive
//! flight-recorder samples — windowed external-request p99, windowed
//! pool queue-wait mean, store fault rate — and feeds them through
//! per-signal watchdogs. The first `watch_warmup` ticks are warm-up
//! telemetry: after them, each signal gets a `StreamingScorer` fitted on
//! its own warm-up series via `Engine::fit_watch_scorer` (Series2Graph
//! watching Series2Graph) — holdout-validated, and falling back to a
//! robust z-score watchdog when the warm-up series is too flat, short,
//! or unstructured to embed. Normality thresholds are calibrated from
//! the held-out warm-up scores, and the
//! `ok`/`degraded`/`anomalous` verdict of each signal advances through
//! the hysteresis machine in `s2g_obs::watch`, with every transition
//! logged (`warn!` when worsening).

use std::sync::Mutex;

use s2g_core::StreamingScorer;
use s2g_engine::Engine;
use s2g_obs::journal::{self, Journal, JournalEvent, WatchEvent};
use s2g_obs::recorder::{CompactHistogram, Recorder, Sample};
use s2g_obs::watch::{
    calibrate_threshold, overall, Hysteresis, RobustScorer, SignalScorer, SignalWatch,
};
use s2g_obs::Obs;

use crate::json::Json;
use crate::metrics;

/// The watched signals, in column order of the warm-up matrix.
const SIGNALS: [&str; 3] = [
    "request_p99_ms",
    "queue_wait_mean_ms",
    "store_fault_per_sec",
];

/// Window length ℓ of the tiny self-watch models.
const WATCH_PATTERN_LEN: usize = 8;
/// Streaming query length ℓq fed to the self-watch scorers.
const WATCH_QUERY_LEN: usize = 16;
/// Threshold margin in robust sigmas below the worst warm-up score.
const THRESHOLD_SIGMAS: f64 = 4.0;

/// A fitted `StreamingScorer` behind the core-free [`SignalScorer`]
/// trait: one raw signal value in per tick, the window's normality out.
struct S2gSignalScorer(StreamingScorer);

impl SignalScorer for S2gSignalScorer {
    fn push(&mut self, value: f64) -> Option<f64> {
        self.0.push(value).ok().flatten().map(|(_, score)| score)
    }

    fn kind(&self) -> &'static str {
        "s2g"
    }
}

struct Inner {
    /// Last derived value per signal — carried forward through ticks
    /// whose window saw no traffic, so an idle lull never reads as a
    /// latency collapse.
    last: [f64; 3],
    /// Warm-up telemetry, one row per tick, until the scorers are fitted.
    collected: Vec<[f64; 3]>,
    /// The fitted watch board; `None` while warming up.
    watches: Option<Vec<SignalWatch>>,
}

/// The per-server self-watch state, driven by the sampler thread and
/// read by `GET /watch` / `GET /healthz`.
pub(crate) struct SelfWatch {
    warmup_target: usize,
    /// Sample positions of the pool queue-wait and store-fault stages.
    queue_wait: usize,
    store_fault: usize,
    inner: Mutex<Inner>,
}

impl SelfWatch {
    /// A self-watch over samples of `obs`'s instruments that fits its
    /// scorers after `warmup` sampler ticks (floored at 8 — below that
    /// there is nothing to calibrate on).
    pub(crate) fn new(warmup: usize, obs: &Obs) -> Self {
        SelfWatch {
            warmup_target: warmup.max(8),
            queue_wait: metrics::stage_slot(obs, &obs.pool_queue_wait),
            store_fault: metrics::stage_slot(obs, &obs.store_fault),
            inner: Mutex::new(Inner {
                last: [0.0; 3],
                collected: Vec::new(),
                watches: None,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The healthz `watch` field: `warming` until the scorers are
    /// fitted, then the worst signal state.
    pub(crate) fn health_state(&self) -> &'static str {
        let inner = self.lock();
        match &inner.watches {
            None => "warming",
            Some(watches) => overall(watches).as_str(),
        }
    }

    /// One sampler tick: derive the signals from the delta between the
    /// previous and current flight-recorder samples, then either collect
    /// warm-up telemetry (fitting the scorers on `engine` once it is
    /// complete) or advance the watch board, journaling transitions.
    pub(crate) fn tick(
        &self,
        engine: &Engine,
        journal: Option<&Journal>,
        prev: Option<&Sample>,
        current: &Sample,
    ) {
        let Some(prev) = prev else {
            return; // first tick has no window yet
        };
        let mut inner = self.lock();
        let values = self.signal_values(prev, current, &inner.last);
        inner.last = values;
        if let Some(watches) = &mut inner.watches {
            for (watch, &value) in watches.iter_mut().zip(values.iter()) {
                if let Some(transition) = watch.observe(value) {
                    // Every transition becomes durable: the journal replays
                    // the board's history long after the process is gone.
                    if let Some(journal) = journal {
                        journal.publish(JournalEvent::Watch(WatchEvent {
                            wall_ms: journal::wall_ms_now(),
                            t_ns: s2g_obs::clock::now_ns(),
                            signal: watch.name().to_string(),
                            from: transition.from.as_str().to_string(),
                            to: transition.to.as_str().to_string(),
                            value,
                            score: watch.last_score().unwrap_or(f64::NAN),
                        }));
                    }
                    if transition.to > transition.from {
                        s2g_obs::warn!(
                            "selfwatch",
                            "signal {} {} -> {} (value {:.4}, score {:.4}, threshold {:.4})",
                            watch.name(),
                            transition.from,
                            transition.to,
                            value,
                            watch.last_score().unwrap_or(f64::NAN),
                            watch.threshold()
                        );
                    } else {
                        s2g_obs::info!(
                            "selfwatch",
                            "signal {} recovered: {} -> {}",
                            watch.name(),
                            transition.from,
                            transition.to
                        );
                    }
                }
            }
        } else {
            inner.collected.push(values);
            if inner.collected.len() >= self.warmup_target {
                let watches = fit_watches(engine, &inner.collected);
                for watch in &watches {
                    s2g_obs::info!(
                        "selfwatch",
                        "signal {} armed: scorer={} threshold={:.4}",
                        watch.name(),
                        watch.scorer_kind(),
                        watch.threshold()
                    );
                }
                inner.watches = Some(watches);
                inner.collected = Vec::new();
            }
        }
    }

    /// The watch board frozen for a postmortem: one [`WatchEvent`] per
    /// signal with `from == to` (a state *snapshot*, not a transition),
    /// carrying the last observed value and score. Warming boards report
    /// every signal as `"warming"`.
    pub(crate) fn postmortem_events(&self) -> Vec<WatchEvent> {
        let inner = self.lock();
        let wall_ms = journal::wall_ms_now();
        let t_ns = s2g_obs::clock::now_ns();
        match &inner.watches {
            None => SIGNALS
                .iter()
                .enumerate()
                .map(|(i, name)| WatchEvent {
                    wall_ms,
                    t_ns,
                    signal: (*name).to_string(),
                    from: "warming".to_string(),
                    to: "warming".to_string(),
                    value: inner.last[i],
                    score: f64::NAN,
                })
                .collect(),
            Some(watches) => watches
                .iter()
                .map(|watch| WatchEvent {
                    wall_ms,
                    t_ns,
                    signal: watch.name().to_string(),
                    from: watch.state().as_str().to_string(),
                    to: watch.state().as_str().to_string(),
                    value: watch.last_value().unwrap_or(f64::NAN),
                    score: watch.last_score().unwrap_or(f64::NAN),
                })
                .collect(),
        }
    }

    /// The `GET /watch` body.
    pub(crate) fn status_json(&self, recorder: &Recorder) -> Json {
        let inner = self.lock();
        let (state, collected) = match &inner.watches {
            None => ("warming".to_string(), inner.collected.len()),
            Some(watches) => (overall(watches).as_str().to_string(), self.warmup_target),
        };
        let signals: Vec<Json> = match &inner.watches {
            None => SIGNALS
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    Json::obj([
                        ("name", Json::from(*name)),
                        ("state", Json::from("warming")),
                        ("scorer", Json::Null),
                        ("threshold", Json::Null),
                        ("value", Json::from(inner.last[i])),
                        ("score", Json::Null),
                    ])
                })
                .collect(),
            Some(watches) => watches
                .iter()
                .map(|watch| {
                    Json::obj([
                        ("name", Json::from(watch.name())),
                        ("state", Json::from(watch.state().as_str())),
                        ("scorer", Json::from(watch.scorer_kind())),
                        ("threshold", Json::from(watch.threshold())),
                        ("value", watch.last_value().map_or(Json::Null, Json::from)),
                        ("score", watch.last_score().map_or(Json::Null, Json::from)),
                    ])
                })
                .collect(),
        };
        Json::obj([
            ("state", Json::from(state)),
            (
                "warmup",
                Json::obj([
                    ("target", Json::from(self.warmup_target)),
                    ("collected", Json::from(collected)),
                    ("complete", Json::from(inner.watches.is_some())),
                ]),
            ),
            (
                "sampler",
                Json::obj([
                    ("interval_ms", Json::from(recorder.interval_ms() as usize)),
                    ("retention", Json::from(recorder.retention())),
                    ("samples", Json::from(recorder.len())),
                ]),
            ),
            ("signals", Json::Arr(signals)),
        ])
    }

    /// Derives the three signal values from one sampler window. Windows
    /// with no traffic carry the previous value forward (`last`) instead
    /// of reading as zero latency.
    fn signal_values(&self, prev: &Sample, current: &Sample, last: &[f64; 3]) -> [f64; 3] {
        let dt_secs = current.t_ns.saturating_sub(prev.t_ns) as f64 / 1e9;
        if dt_secs <= 0.0 {
            return *last;
        }
        // Every external route's window, merged.
        let external = |sample: &Sample| {
            sample.histograms[metrics::EXTERNAL_SLOTS]
                .iter()
                .fold(CompactHistogram::empty(), |all, hist| all.merge(hist))
        };
        let requests = external(current).delta(&external(prev));
        let request_p99_ms = if requests.count > 0 {
            requests.quantile(0.99) as f64 / 1e6
        } else {
            last[0]
        };
        let stage = |slot: usize| current.histograms[slot].delta(&prev.histograms[slot]);
        let queue_wait = stage(self.queue_wait);
        let queue_wait_mean_ms = if queue_wait.count > 0 {
            queue_wait.mean() / 1e6
        } else {
            last[1]
        };
        let store_fault_per_sec = stage(self.store_fault).count as f64 / dt_secs;
        [request_p99_ms, queue_wait_mean_ms, store_fault_per_sec]
    }
}

/// Fits one watchdog per signal on the warm-up telemetry: Series2Graph
/// when the series embeds, robust z-score otherwise, threshold
/// calibrated from the warm-up scores either way.
fn fit_watches(engine: &Engine, collected: &[[f64; 3]]) -> Vec<SignalWatch> {
    SIGNALS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let column: Vec<f64> = collected.iter().map(|row| row[i]).collect();
            let (scorer, scores) = fit_signal_scorer(engine, name, &column);
            let threshold = calibrate_threshold(&scores, THRESHOLD_SIGMAS);
            SignalWatch::new(name, scorer, threshold, Hysteresis::default())
        })
        .collect()
}

/// One signal's scorer plus its calibration scores. Tries the S2G
/// streaming path first with **holdout validation**: the model is fitted
/// on the first 60% of the warm-up only, then must keep the held-out
/// 40% strictly normal (enough scores, all positive). Replaying the
/// training data always scores well — only unseen telemetry reveals
/// whether the signal has repeating structure for the graph to embed; a
/// signal that is pure jitter at the sampling timescale collapses to
/// zero-normality on fresh data and would false-alarm forever. Such
/// signals (and fit failures, e.g. a constant series) fall back to the
/// robust z watchdog.
fn fit_signal_scorer(
    engine: &Engine,
    name: &str,
    column: &[f64],
) -> (Box<dyn SignalScorer>, Vec<f64>) {
    let split = column.len() * 3 / 5;
    match engine.fit_watch_scorer(&column[..split], WATCH_PATTERN_LEN, WATCH_QUERY_LEN) {
        Ok(streaming) => {
            let mut scorer = S2gSignalScorer(streaming);
            // Warm the scorer through the training portion (scores over
            // fitted data are discarded), then score the holdout.
            for &value in &column[..split] {
                let _ = scorer.push(value);
            }
            let holdout: Vec<f64> = column[split..]
                .iter()
                .filter_map(|&v| scorer.push(v))
                .collect();
            if holdout.len() >= 4 && holdout.iter().all(|&s| s > 0.0) {
                return (Box::new(scorer), holdout);
            }
            s2g_obs::warn!(
                "selfwatch",
                "signal {name}: holdout rejected the streaming scorer \
                 ({} scores, min {:.4}), falling back to robust z",
                holdout.len(),
                holdout.iter().copied().fold(f64::INFINITY, f64::min)
            );
        }
        Err(e) => {
            s2g_obs::warn!(
                "selfwatch",
                "signal {name}: S2G warm-up fit failed ({e}), falling back to robust z"
            );
        }
    }
    let robust = RobustScorer::from_baseline(column)
        .unwrap_or_else(|| RobustScorer::from_baseline(&[0.0, 0.0, 0.0]).expect("3 values"));
    let mut probe = robust.clone();
    let scores: Vec<f64> = column.iter().filter_map(|&v| probe.push(v)).collect();
    (Box::new(robust), scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_engine::EngineConfig;
    use s2g_obs::Histogram;

    const TICK_NS: u64 = 25_000_000;

    /// A synthetic sampler: one live histogram per schema series, advanced
    /// tick by tick with deterministic traffic and frozen into
    /// schema-aligned samples — no sockets, no clock.
    struct Telemetry {
        obs: Obs,
        live: Vec<Histogram>,
        counters: usize,
        gauges: usize,
        t_ns: u64,
        seed: u64,
    }

    impl Telemetry {
        fn new() -> Self {
            let obs = Obs::new();
            let schema = metrics::schema(&obs);
            Telemetry {
                live: schema.histograms.iter().map(|_| Histogram::new()).collect(),
                counters: schema.counters.len(),
                gauges: schema.gauges.len(),
                obs,
                t_ns: 0,
                seed: 42,
            }
        }

        /// A deterministic draw in `[lo, hi)`.
        fn jitter(&mut self, lo: u64, hi: u64) -> u64 {
            self.seed = self
                .seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            lo + (self.seed >> 33) % (hi - lo)
        }

        /// One sampler window of steady traffic: 20 external requests of
        /// 0.8–1.2 ms, each queued 40–60 µs in the pool, plus `slow`
        /// requests of 20–40 ms. Returns the frozen sample.
        fn tick(&mut self, slow: usize) -> Sample {
            let queue_wait = metrics::stage_slot(&self.obs, &self.obs.pool_queue_wait);
            for _ in 0..20 {
                let latency = self.jitter(800_000, 1_200_000);
                self.live[metrics::EXTERNAL_SLOTS.start].record(latency);
                let wait = self.jitter(40_000, 60_000);
                self.live[queue_wait].record(wait);
            }
            for _ in 0..slow {
                let latency = self.jitter(20_000_000, 40_000_000);
                self.live[metrics::EXTERNAL_SLOTS.start].record(latency);
            }
            self.t_ns += TICK_NS;
            Sample {
                t_ns: self.t_ns,
                counters: vec![0; self.counters],
                gauges: vec![0; self.gauges],
                histograms: self.live.iter().map(Histogram::snapshot).collect(),
            }
        }
    }

    fn signal<'a>(status: &'a Json, name: &str) -> &'a Json {
        status
            .get("signals")
            .and_then(Json::as_array)
            .and_then(|signals| {
                signals
                    .iter()
                    .find(|s| s.get("name").and_then(Json::as_str) == Some(name))
            })
            .expect("signal on the board")
    }

    #[test]
    fn steady_traffic_stays_ok_and_a_p99_spike_turns_anomalous() {
        let engine = Engine::new(EngineConfig::default().with_workers(1));
        let mut telemetry = Telemetry::new();
        let watch = SelfWatch::new(40, &telemetry.obs);
        let recorder = Recorder::new(metrics::schema(&telemetry.obs), 25, 8);
        let mut prev: Option<Sample> = None;
        let mut advance = |telemetry: &mut Telemetry, slow: usize| {
            let current = telemetry.tick(slow);
            watch.tick(&engine, None, prev.as_ref(), &current);
            prev = Some(current);
        };

        // Warm-up: the first tick opens the window, 40 more fill it.
        for _ in 0..41 {
            assert_eq!(watch.health_state(), "warming");
            advance(&mut telemetry, 0);
        }
        let status = watch.status_json(&recorder);
        assert_eq!(
            status.get("warmup").unwrap().get("complete"),
            Some(&Json::Bool(true))
        );

        // Steady traffic after warm-up never leaves `ok`.
        for tick in 0..60 {
            advance(&mut telemetry, 0);
            let status = watch.status_json(&recorder);
            assert_eq!(
                status.get("state").unwrap().as_str(),
                Some("ok"),
                "steady tick {tick}: {}",
                status.encode()
            );
            assert_eq!(watch.health_state(), "ok");
            // The queue-wait signal reads the pool's queue-wait stage.
            let wait_ms = signal(&status, "queue_wait_mean_ms").get("value");
            let wait_ms = wait_ms.and_then(Json::as_f64).unwrap();
            assert!((0.04..0.06).contains(&wait_ms), "queue wait {wait_ms} ms");
        }

        // The spike: three 20–40 ms requests in every window put the
        // external p99 twenty times past its warm-up band. It must be
        // flagged within one streaming query window of ticks.
        let mut ticks = 0;
        while watch.health_state() != "anomalous" {
            assert!(
                ticks < WATCH_QUERY_LEN,
                "the spike was not flagged after {ticks} ticks: {}",
                watch.status_json(&recorder).encode()
            );
            advance(&mut telemetry, 3);
            ticks += 1;
        }
        let status = watch.status_json(&recorder);
        assert_eq!(status.get("state").unwrap().as_str(), Some("anomalous"));
        let p99 = signal(&status, "request_p99_ms");
        assert_eq!(
            p99.get("state").unwrap().as_str(),
            Some("anomalous"),
            "request_p99_ms must be the firing signal: {}",
            status.encode()
        );
        assert!(
            p99.get("value").unwrap().as_f64().unwrap() > 10.0,
            "spiked p99 must reflect the slow requests"
        );
    }
}
