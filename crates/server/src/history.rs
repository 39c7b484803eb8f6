//! Flight-recorder rendering: how retained history is served on the wire.
//!
//! The recorder itself (ring, compact histograms, windowed-delta math)
//! lives in `s2g_obs::recorder`; what each sample freezes, and the schema
//! it is aligned to, is declared once in the instrument registry
//! ([`crate::metrics`]).

use s2g_obs::recorder::Recorder;

use crate::json::Json;
use crate::metrics::summary_json;

/// `GET /metrics/history?window=&step=`: the retained series, oldest
/// first. Counters and histogram summaries are cumulative at each
/// sample's capture time (`GET /metrics/delta` serves the windowed
/// view); gauges are point-in-time.
pub(crate) fn history_json(recorder: &Recorder, window_secs: u64, step: usize) -> Json {
    let schema = recorder.schema();
    let samples = recorder.window(window_secs.saturating_mul(1_000_000_000), step);
    let series: Vec<Json> = samples
        .iter()
        .map(|sample| {
            Json::obj([
                ("t_ns", Json::from(sample.t_ns as usize)),
                (
                    "counters",
                    Json::Arr(
                        sample
                            .counters
                            .iter()
                            .map(|&v| Json::from(v as usize))
                            .collect(),
                    ),
                ),
                (
                    "gauges",
                    Json::Arr(
                        sample
                            .gauges
                            .iter()
                            .map(|&v| Json::from(v as usize))
                            .collect(),
                    ),
                ),
                (
                    "histograms",
                    Json::Arr(sample.histograms.iter().map(summary_json).collect()),
                ),
            ])
        })
        .collect();
    let names = |list: &[String]| -> Json {
        Json::Arr(list.iter().map(|n| Json::from(n.clone())).collect())
    };
    Json::obj([
        ("interval_ms", Json::from(recorder.interval_ms() as usize)),
        ("retention", Json::from(recorder.retention())),
        ("samples", Json::from(series.len())),
        (
            "schema",
            Json::obj([
                ("counters", names(&schema.counters)),
                ("gauges", names(&schema.gauges)),
                ("histograms", names(&schema.histograms)),
            ]),
        ),
        ("series", Json::Arr(series)),
    ])
}

/// `GET /metrics/delta?window=`: rates and windowed latency over the
/// last `window` seconds of retained samples — counters as
/// `delta`/`per_sec`, histograms as windowed summaries with a `per_sec`
/// arrival rate. `ready` is `false` (and the maps empty) until two
/// samples span the window.
pub(crate) fn delta_json(recorder: &Recorder, window_secs: u64) -> Json {
    let schema = recorder.schema();
    let window_ns = window_secs.saturating_mul(1_000_000_000);
    let Some((first, last)) = recorder.window_ends(window_ns) else {
        return Json::obj([
            ("ready", Json::from(false)),
            ("samples", Json::from(recorder.window(window_ns, 1).len())),
            ("seconds", Json::from(0.0)),
            ("counters", Json::Obj(Vec::new())),
            ("histograms", Json::Obj(Vec::new())),
        ]);
    };
    let seconds = last.t_ns.saturating_sub(first.t_ns) as f64 / 1e9;
    let rate = |delta: u64| -> f64 {
        if seconds > 0.0 {
            delta as f64 / seconds
        } else {
            0.0
        }
    };
    let counters: Vec<(String, Json)> = schema
        .counters
        .iter()
        .zip(last.counters.iter().zip(first.counters.iter()))
        .filter_map(|(name, (&now, &then))| {
            let delta = now.saturating_sub(then);
            (delta > 0).then(|| {
                (
                    name.clone(),
                    Json::obj([
                        ("delta", Json::from(delta as usize)),
                        ("per_sec", Json::from(rate(delta))),
                    ]),
                )
            })
        })
        .collect();
    let histograms: Vec<(String, Json)> = schema
        .histograms
        .iter()
        .zip(last.histograms.iter().zip(first.histograms.iter()))
        .filter_map(|(name, (now, then))| {
            let delta = now.delta(then);
            (delta.count > 0).then(|| {
                let mut summary = summary_json(&delta);
                if let Json::Obj(pairs) = &mut summary {
                    pairs.push(("per_sec".to_string(), Json::from(rate(delta.count))));
                }
                (name.clone(), summary)
            })
        })
        .collect();
    Json::obj([
        ("ready", Json::from(true)),
        ("samples", Json::from(recorder.window(window_ns, 1).len())),
        ("from_t_ns", Json::from(first.t_ns as usize)),
        ("to_t_ns", Json::from(last.t_ns as usize)),
        ("seconds", Json::from(seconds)),
        ("counters", Json::Obj(counters)),
        ("histograms", Json::Obj(histograms)),
    ])
}
