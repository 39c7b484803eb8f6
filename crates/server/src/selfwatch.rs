//! Self-watch: the server watching its own telemetry for level shifts.
//!
//! Each sampler tick derives three operational signals from consecutive
//! flight-recorder samples — windowed external-request p99, windowed
//! pool queue-wait mean, store fault rate — and feeds them through
//! per-signal watchdogs. The first `watch_warmup` ticks are warm-up
//! telemetry: after them, each signal is scored as a robust z-score
//! against its own warm-up median and MAD, with the threshold calibrated
//! below the worst warm-up score. These signals fail by changing level,
//! which Series2Graph cannot see: its embedding keeps only the shape of
//! each subsequence. The `ok`/`degraded`/`anomalous` verdict of each
//! signal advances through the hysteresis machine in `s2g_obs::watch`,
//! with every transition logged (`warn!` when worsening).

use std::sync::Mutex;

use s2g_obs::journal::{self, Journal, JournalEvent, WatchEvent};
use s2g_obs::recorder::{CompactHistogram, Recorder, Sample};
use s2g_obs::watch::{calibrate_threshold, overall, Hysteresis, RobustScorer, SignalWatch};
use s2g_obs::Obs;

use crate::json::Json;
use crate::metrics;

/// The watched signals, in column order of the warm-up matrix.
const SIGNALS: [&str; 3] = [
    "request_p99_ms",
    "queue_wait_mean_ms",
    "store_fault_per_sec",
];

/// Threshold margin in robust sigmas below the worst warm-up score.
const THRESHOLD_SIGMAS: f64 = 4.0;

struct Inner {
    /// Last derived value per signal — carried forward through ticks
    /// whose window saw no traffic, so an idle lull never reads as a
    /// latency collapse.
    last: [f64; 3],
    /// Warm-up telemetry, one row per tick, until the watches are armed.
    collected: Vec<[f64; 3]>,
    /// The armed watch board; `None` while warming up.
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
    /// A self-watch over samples of `obs`'s instruments that arms its
    /// watches after `warmup` sampler ticks (floored at 8 — below that
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

    /// The healthz `watch` field: `warming` until the watches are
    /// armed, then the worst signal state.
    pub(crate) fn health_state(&self) -> &'static str {
        let inner = self.lock();
        match &inner.watches {
            None => "warming",
            Some(watches) => overall(watches).as_str(),
        }
    }

    /// One sampler tick: derive the signals from the delta between the
    /// previous and current flight-recorder samples, then either collect
    /// warm-up telemetry (arming the watches once it is complete) or
    /// advance the watch board, journaling transitions.
    pub(crate) fn tick(&self, journal: Option<&Journal>, prev: Option<&Sample>, current: &Sample) {
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
                let watches = arm_watches(&inner.collected);
                for watch in &watches {
                    s2g_obs::info!(
                        "selfwatch",
                        "signal {} armed: threshold={:.4}",
                        watch.name(),
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
                        ("scorer", Json::from("robust-z")),
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

/// Arms one watchdog per signal on the warm-up telemetry: a robust
/// z-score against the signal's warm-up median and MAD, its threshold
/// calibrated from the warm-up scores.
fn arm_watches(collected: &[[f64; 3]]) -> Vec<SignalWatch> {
    SIGNALS
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let column: Vec<f64> = collected.iter().map(|row| row[i]).collect();
            let scorer = RobustScorer::from_baseline(&column).expect("warm-up spans 8+ ticks");
            let scores: Vec<f64> = column.iter().map(|&v| scorer.push(v)).collect();
            let threshold = calibrate_threshold(&scores, THRESHOLD_SIGMAS);
            SignalWatch::new(name, scorer, threshold, Hysteresis::default())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
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

        /// One draw of `level`: uniform within its jitter band, or the
        /// centre itself when the band is empty.
        fn draw(&mut self, level: Level) -> u64 {
            let centre = level.ns as u64;
            let spread = (level.ns * level.jitter) as u64;
            if spread == 0 {
                return centre;
            }
            self.jitter(centre - spread, centre + spread)
        }

        /// One sampler window of steady traffic plus `slow` requests of
        /// 20–40 ms. Returns the frozen sample.
        fn tick(&mut self, slow: usize) -> Sample {
            self.window(Traffic { slow, ..STEADY })
        }

        /// One sampler window of `traffic`: 20 external requests, each
        /// queued in the pool, then the slow requests and the store
        /// faults. Returns the frozen sample.
        fn window(&mut self, traffic: Traffic) -> Sample {
            let queue_wait = metrics::stage_slot(&self.obs, &self.obs.pool_queue_wait);
            let store_fault = metrics::stage_slot(&self.obs, &self.obs.store_fault);
            for _ in 0..20 {
                let latency = self.draw(traffic.latency);
                self.live[metrics::EXTERNAL_SLOTS.start].record(latency);
                let wait = self.draw(traffic.queue_wait);
                self.live[queue_wait].record(wait);
            }
            for _ in 0..traffic.slow {
                let latency = self.jitter(20_000_000, 40_000_000);
                self.live[metrics::EXTERNAL_SLOTS.start].record(latency);
            }
            for _ in 0..traffic.faults {
                self.live[store_fault].record(1_000_000);
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

    /// A signal's level in one window and how far each draw strays from it.
    #[derive(Clone, Copy, Debug)]
    struct Level {
        /// Centre, in ns.
        ns: f64,
        /// Relative half-width of the uniform draws: `0.2` is ±20 %, `0.0`
        /// holds every draw at the centre.
        jitter: f64,
    }

    /// One sampler window's traffic.
    #[derive(Clone, Copy, Debug)]
    struct Traffic {
        /// External request latency.
        latency: Level,
        /// Pool queue wait of each request.
        queue_wait: Level,
        /// Store faults in the window.
        faults: usize,
        /// Requests of 20–40 ms on top of the 20 steady ones.
        slow: usize,
    }

    /// Steady traffic: 1 ms requests queued 50 µs, both ±20 %, no faults.
    const STEADY: Traffic = Traffic {
        latency: Level {
            ns: 1e6,
            jitter: 0.2,
        },
        queue_wait: Level {
            ns: 5e4,
            jitter: 0.2,
        },
        faults: 0,
        slow: 0,
    };

    /// Steady traffic whose levels swing ±60 % over a 10-tick period.
    fn periodic(t: usize) -> Traffic {
        let swing = 1.0 + 0.6 * (std::f64::consts::TAU * t as f64 / 10.0).sin();
        let scale = |level: Level| Level {
            ns: level.ns * swing,
            ..level
        };
        Traffic {
            latency: scale(STEADY.latency),
            queue_wait: scale(STEADY.queue_wait),
            ..STEADY
        }
    }

    /// Traffic by tick index.
    type Schedule = fn(usize) -> Traffic;

    /// The two warm-ups: today's jittered traffic and the periodic swing.
    const WARMUPS: [(&str, Schedule); 2] = [("jittered", |_| STEADY), ("periodic", periodic)];

    /// `base` with signal `signal` (in [`SIGNALS`] order) scaled by
    /// `factor`, keeping its jitter and swing — or, when `held`, every
    /// draw held flat at `factor` times the steady level. The store-fault
    /// signal gets `factor` faults per window.
    fn shifted(base: Traffic, signal: usize, factor: f64, held: bool) -> Traffic {
        let scale = |level: Level, steady: Level| {
            if held {
                Level {
                    ns: steady.ns * factor,
                    jitter: 0.0,
                }
            } else {
                Level {
                    ns: level.ns * factor,
                    ..level
                }
            }
        };
        match signal {
            0 => Traffic {
                latency: scale(base.latency, STEADY.latency),
                ..base
            },
            1 => Traffic {
                queue_wait: scale(base.queue_wait, STEADY.queue_wait),
                ..base
            },
            _ => Traffic {
                faults: factor.round() as usize,
                ..base
            },
        }
    }

    /// Warm-up length of the level-shift cases, in ticks.
    const WARMUP: usize = 60;

    /// Warms a fresh self-watch on `traffic(t)`, then feeds
    /// `onset(i, traffic(t))` for `ticks` ticks, with `t` counted on
    /// through the onset and `i` counted from it. Returns every signal's
    /// state after each onset tick.
    fn states_after_onset(
        traffic: Schedule,
        onset: impl Fn(usize, Traffic) -> Traffic,
        ticks: usize,
    ) -> Vec<[String; 3]> {
        let mut telemetry = Telemetry::new();
        let watch = SelfWatch::new(WARMUP, &telemetry.obs);
        let recorder = Recorder::new(metrics::schema(&telemetry.obs), 25, 8);
        let mut prev: Option<Sample> = None;
        let mut states = Vec::with_capacity(ticks);
        // The first tick opens the window, `WARMUP` more fill it.
        for t in 0..=WARMUP + ticks {
            let onset_tick = t.checked_sub(WARMUP + 1);
            let current = telemetry.window(match onset_tick {
                Some(i) => onset(i, traffic(t)),
                None => traffic(t),
            });
            watch.tick(None, prev.as_ref(), &current);
            prev = Some(current);
            if onset_tick.is_some() {
                let status = watch.status_json(&recorder);
                states.push(SIGNALS.map(|name| {
                    let state = signal(&status, name).get("state").and_then(Json::as_str);
                    state.unwrap_or_default().to_string()
                }));
            }
        }
        states
    }

    /// The onset tick at which `signal` first read `anomalous`.
    fn first_anomalous(states: &[[String; 3]], signal: usize) -> Option<usize> {
        states.iter().position(|board| board[signal] == "anomalous")
    }

    /// Shifts each signal in turn, after either warm-up, with
    /// `shift(signal, onset tick, base traffic)`. The shifted signal must
    /// read `anomalous` within `within` ticks of the onset, and the others
    /// must never read it in 60 ticks.
    fn assert_each_signal_flagged(shift: impl Fn(usize, usize, Traffic) -> Traffic, within: usize) {
        for (warmup, traffic) in WARMUPS {
            for (signal, name) in SIGNALS.iter().enumerate() {
                let states = states_after_onset(traffic, |i, base| shift(signal, i, base), 60);
                let first = first_anomalous(&states, signal);
                assert!(
                    first.is_some_and(|tick| tick < within),
                    "{warmup} warm-up: {name} first anomalous at onset tick {first:?}, not within {within}"
                );
                for (other, other_name) in SIGNALS.iter().enumerate() {
                    if other != signal {
                        let flagged = first_anomalous(&states, other);
                        assert_eq!(
                            flagged, None,
                            "{warmup} warm-up, {name} shifted: {other_name} flagged"
                        );
                    }
                }
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
        let mut telemetry = Telemetry::new();
        let watch = SelfWatch::new(40, &telemetry.obs);
        let recorder = Recorder::new(metrics::schema(&telemetry.obs), 25, 8);
        let mut prev: Option<Sample> = None;
        let mut advance = |telemetry: &mut Telemetry, slow: usize| {
            let current = telemetry.tick(slow);
            watch.tick(None, prev.as_ref(), &current);
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
        // flagged within 16 ticks.
        let mut ticks = 0;
        while watch.health_state() != "anomalous" {
            assert!(
                ticks < 16,
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

    #[test]
    fn a_level_step_held_flat_is_flagged_within_four_ticks() {
        assert_each_signal_flagged(|signal, _, base| shifted(base, signal, 30.0, true), 4);
    }

    #[test]
    fn a_level_step_keeping_the_warm_up_jitter_is_flagged_within_four_ticks() {
        assert_each_signal_flagged(|signal, _, base| shifted(base, signal, 3.0, false), 4);
    }

    #[test]
    fn a_slow_ramp_is_flagged_within_fifteen_ticks() {
        let ramp =
            |signal, tick, base| shifted(base, signal, 1.0 + 29.0 * tick as f64 / 100.0, false);
        assert_each_signal_flagged(ramp, 15);
    }

    #[test]
    fn a_steady_run_after_a_periodic_warm_up_stays_ok() {
        let states = states_after_onset(periodic, |_, base| base, 60);
        for (tick, board) in states.iter().enumerate() {
            assert!(
                board.iter().all(|state| state == "ok"),
                "steady tick {tick}: {board:?}"
            );
        }
    }
}
