//! Acceptance tests for the flight recorder and self-watch layer:
//! `/metrics/history` retention and its agreement with the live
//! `/metrics/json` snapshot, `/metrics/delta` windowing, the
//! `/metrics/json` golden shape, `X-S2g-Trace` on error responses,
//! bit-identical scoring with the sampler enabled, and the self-watch
//! wiring: warm-up completes over live traffic, and the `healthz`
//! `watch` field mirrors `/watch`.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use s2g_server::{Client, Json, Server, ServerConfig, ShutdownHandle};

fn start(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn sine_csv(n: usize, period: f64) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / period).sin()))
        .collect()
}

/// Sends raw bytes (not necessarily valid HTTP) and returns the whole
/// response text, so tests can exercise the unparsed-request path and
/// inspect response headers.
fn raw_exchange(addr: &str, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(wire).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    String::from_utf8(response).unwrap()
}

fn raw_request(addr: &str, method: &str, target: &str, body: &str) -> String {
    raw_exchange(
        addr,
        format!(
            "{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )
}

/// The value of `header` in a raw response, if present.
fn header_value(response: &str, header: &str) -> Option<String> {
    let head = response.split("\r\n\r\n").next()?;
    head.lines().find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.eq_ignore_ascii_case(header)
            .then(|| value.trim().to_string())
    })
}

/// Polls `probe` every 25 ms until it returns `Some`, panicking with
/// `what` after `timeout`.
fn wait_for<T>(timeout: Duration, what: &str, mut probe: impl FnMut() -> Option<T>) -> T {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(value) = probe() {
            return value;
        }
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn history_last_sample_matches_live_metrics_snapshot() {
    let (addr, handle, server_thread) = start(ServerConfig::default().with_sample_interval_ms(100));
    let client = Client::new(addr);

    // 50 external requests; scrapes below stay in the internal family,
    // so the external cumulative state is frozen from here on.
    for _ in 0..50 {
        client.list_models().unwrap();
    }

    // Wait until the recorder has taken a sample *after* the traffic
    // finished: two retained samples and the full request count in the
    // newest one.
    let route_series = "s2g_request_duration_ns{route=\"GET /models\"}";
    let (last_summary, sample_count) = wait_for(
        Duration::from_secs(10),
        "a post-traffic flight-recorder sample",
        || {
            let history = client.metrics_history(0, 1).unwrap();
            let series = history.get("series")?.as_array()?;
            if series.len() < 2 {
                return None;
            }
            let schema = history.get("schema")?.get("histograms")?.as_array()?;
            let index = schema
                .iter()
                .position(|n| n.as_str() == Some(route_series))?;
            let last = series.last()?.get("histograms")?.as_array()?.get(index)?;
            (last.get("count")?.as_usize()? == 50).then(|| (last.clone(), series.len()))
        },
    );
    assert!(sample_count >= 2, "at least two samples retained");

    // The newest sample's cumulative summary must agree exactly with the
    // live snapshot — same histogram, frozen since traffic stopped.
    let live = client.metrics_json().unwrap();
    let live_route = live.get("requests").unwrap().get("GET /models").unwrap();
    for field in ["count", "sum_ns", "max_ns", "p50_ns", "p95_ns", "p99_ns"] {
        assert_eq!(
            last_summary.get(field).unwrap().as_usize(),
            live_route.get(field).unwrap().as_usize(),
            "history last sample and live /metrics/json disagree on {field}"
        );
    }

    // The windowed-delta endpoint becomes ready once samples span it and
    // reports the same total over an all-covering window.
    let delta = wait_for(Duration::from_secs(10), "delta readiness", || {
        let delta = client.metrics_delta(3600).unwrap();
        (delta.get("ready") == Some(&Json::Bool(true))).then_some(delta)
    });
    let windowed = delta.get("histograms").unwrap().get(route_series);
    if let Some(windowed) = windowed {
        assert!(windowed.get("count").unwrap().as_usize().unwrap() <= 50);
        assert!(windowed.get("per_sec").unwrap().as_f64().unwrap() > 0.0);
    }

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn metrics_json_golden_shape() {
    // Pin the top-level field names and JSON types of /metrics/json so
    // dashboards can rely on them; additions belong at the end, renames
    // are breaking.
    let (addr, handle, server_thread) = start(
        ServerConfig::default()
            .with_sample_interval_ms(200)
            .with_trace_ring(64)
            .with_slow_ring(8),
    );
    let client = Client::new(addr);
    client
        .fit_model("shape", "pattern_length=40", &sine_csv(2000, 80.0))
        .unwrap();

    let json = client.metrics_json().unwrap();
    let Json::Obj(pairs) = &json else {
        panic!("metrics_json must be an object");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "gauges",
            "requests",
            "internal",
            "stages",
            "slow_threshold_ms",
            "trace_ring",
            "slow_ring",
            "sampler"
        ],
        "top-level key set and order are pinned"
    );
    assert!(matches!(json.get("gauges"), Some(Json::Obj(_))));
    assert!(matches!(json.get("requests"), Some(Json::Obj(_))));
    assert!(matches!(json.get("internal"), Some(Json::Obj(_))));
    assert!(matches!(json.get("stages"), Some(Json::Obj(_))));
    assert!(matches!(
        json.get("slow_threshold_ms"),
        Some(Json::Null | Json::Num(_))
    ));
    // Satellite: configured ring sizes are reported.
    assert_eq!(json.get("trace_ring").unwrap().as_usize(), Some(64));
    assert_eq!(json.get("slow_ring").unwrap().as_usize(), Some(8));
    let sampler = json.get("sampler").unwrap();
    assert_eq!(sampler.get("interval_ms").unwrap().as_usize(), Some(200));
    assert!(sampler.get("retention").unwrap().as_usize().unwrap() >= 2);
    assert!(sampler.get("samples").is_some());

    // Every gauge the schema promises is present, numeric, and includes
    // the queue-depth gauge the recorder retains.
    let Some(Json::Obj(gauges)) = json.get("gauges") else {
        panic!("gauges must be an object");
    };
    for name in [
        "s2g_models_registered",
        "s2g_models_stored",
        "s2g_store_resident_bytes",
        "s2g_store_residency_evictions_total",
        "s2g_sessions_open",
        "s2g_workers",
        "s2g_pool_queue_depth_total",
        "s2g_accept_slots",
        "s2g_accept_slots_in_use",
        "s2g_accept_waiting",
        "s2g_uptime_seconds",
    ] {
        let value = gauges.iter().find(|(k, _)| k == name);
        assert!(
            matches!(value, Some((_, Json::Num(_)))),
            "gauge {name} missing or non-numeric"
        );
    }
    // Histogram summaries keep their 7-field shape.
    let fit_route = json
        .get("requests")
        .unwrap()
        .get("PUT /models/{name}")
        .unwrap();
    let Json::Obj(fields) = fit_route else {
        panic!("route summary must be an object");
    };
    let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        names,
        ["count", "sum_ns", "max_ns", "mean_ns", "p50_ns", "p95_ns", "p99_ns"],
        "histogram summary field set and order are pinned"
    );

    // Sampler disabled: the key stays, the value is null.
    handle.shutdown();
    server_thread.join().unwrap();
    let (addr, handle, server_thread) = start(ServerConfig::default().with_sample_interval_ms(0));
    let client = Client::new(addr);
    let json = client.metrics_json().unwrap();
    assert_eq!(json.get("sampler"), Some(&Json::Null));
    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn every_response_carries_a_trace_header_even_on_errors() {
    let (addr, handle, server_thread) = start(ServerConfig::default());

    // 404 unknown route.
    let response = raw_request(&addr, "GET", "/no-such-endpoint", "");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(
        header_value(&response, "X-S2g-Trace").is_some(),
        "404 must carry a trace header:\n{response}"
    );

    // 405 method not allowed.
    let response = raw_request(&addr, "DELETE", "/healthz", "");
    assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    assert!(header_value(&response, "X-S2g-Trace").is_some());

    // 404 on a model that does not exist (handler-level error).
    let response = raw_request(&addr, "GET", "/models/ghost", "");
    assert!(response.starts_with("HTTP/1.1 404"), "{response}");
    assert!(header_value(&response, "X-S2g-Trace").is_some());

    // Unparseable request line: the server answers 400 from the
    // pre-routing branch — historically the one path with no trace.
    let response = raw_exchange(&addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"), "{response}");
    let trace_id =
        header_value(&response, "X-S2g-Trace").expect("unparsed requests must mint a trace");
    assert_eq!(trace_id.len(), 16);

    // The minted trace is retained and resolvable like any other.
    let client = Client::new(addr);
    let trace = client.trace(&trace_id).unwrap();
    assert_eq!(trace.get("route").unwrap().as_str(), Some("(unparsed)"));
    assert_eq!(trace.get("status").unwrap().as_usize(), Some(400));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn scoring_is_bit_identical_with_recorder_enabled() {
    let csv = sine_csv(2000, 80.0);
    let probe: Vec<f64> = (0..600)
        .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
        .collect();
    let mut outputs = Vec::new();
    for interval_ms in [0, 50] {
        let (addr, handle, server_thread) =
            start(ServerConfig::default().with_sample_interval_ms(interval_ms));
        let client = Client::new(addr);
        client.fit_model("bits", "pattern_length=40", &csv).unwrap();
        let results = client
            .score("bits", 120, std::slice::from_ref(&probe))
            .unwrap();
        outputs.push(results[0].as_ref().unwrap().clone());
        handle.shutdown();
        server_thread.join().unwrap();
    }
    assert_eq!(outputs[0].len(), outputs[1].len());
    for (i, (a, b)) in outputs[0].iter().zip(outputs[1].iter()).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "score {i} differs with the sampler enabled: {a} vs {b}"
        );
    }
}

#[test]
fn history_watch_and_sleep_are_gated() {
    // Sampling off: the history/delta/watch endpoints 404.
    let (addr, handle, server_thread) = start(ServerConfig::default().with_sample_interval_ms(0));
    let client = Client::new(addr.clone());
    for call in [
        client.metrics_history(0, 1),
        client.metrics_delta(60),
        client.watch(),
    ] {
        let err = call.unwrap_err();
        let s2g_server::ClientError::Api { status, .. } = err else {
            panic!("expected Api error, got {err:?}");
        };
        assert_eq!(status, 404);
    }
    let health = client.health().unwrap();
    assert_eq!(health.get("watch").unwrap().as_str(), Some("disabled"));
    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn self_watch_warms_up_over_the_wire() {
    // Fast sampling so warm-up completes quickly: 25 ms ticks, a 40-tick
    // warm-up (~1 s). The verdicts themselves (steady traffic stays ok, a
    // p99 spike turns anomalous) are pinned without sockets or clocks by
    // the self-watch unit tests; this drill checks the wiring.
    let (addr, handle, server_thread) = start(
        ServerConfig::default()
            .with_sample_interval_ms(25)
            .with_watch_warmup(40),
    );

    // Background traffic keeps the sampler windows populated, so the
    // watches are armed on live telemetry.
    let stop = Arc::new(AtomicBool::new(false));
    let driver = {
        let stop = Arc::clone(&stop);
        let addr = addr.clone();
        thread::spawn(move || {
            let client = Client::new(addr);
            while !stop.load(Ordering::Relaxed) {
                let _ = client.list_models();
                thread::sleep(Duration::from_millis(2));
            }
        })
    };

    let client = Client::new(addr.clone());
    let status = wait_for(Duration::from_secs(30), "self-watch warm-up", || {
        let status = client.watch().unwrap();
        (status.get("warmup").unwrap().get("complete") == Some(&Json::Bool(true))).then_some(status)
    });
    let signals = status.get("signals").unwrap().as_array().unwrap();
    assert_eq!(signals.len(), 3);
    for signal in signals {
        let scorer = signal.get("scorer").unwrap().as_str().unwrap();
        assert_eq!(scorer, "robust-z", "unexpected scorer {scorer}");
    }
    // Arming the watches fits no model: the fit histogram counts the
    // fits this test made, which is none.
    // `/metrics/json` lists only the stages that recorded something.
    let metrics = client.metrics_json().unwrap();
    let stages = metrics.get("stages").expect("stages object");
    let fits = stages
        .get("s2g_fit_duration_ns")
        .map_or(0.0, |fit| fit.get("count").and_then(Json::as_f64).unwrap());
    assert_eq!(fits, 0.0, "{}", metrics.encode());

    // healthz mirrors the watch verdict, whatever it is: compared between
    // two /watch reads that agree, so a sampler tick landing in between
    // cannot make them differ.
    let state = |status: Json| status.get("state").unwrap().as_str().unwrap().to_string();
    wait_for(Duration::from_secs(30), "a stable board", || {
        let before = state(client.watch().unwrap());
        let health = client.health().unwrap();
        let after = state(client.watch().unwrap());
        (before == after).then(|| {
            assert_eq!(health.get("watch").unwrap().as_str(), Some(after.as_str()));
        })
    });

    stop.store(true, Ordering::Relaxed);
    driver.join().unwrap();
    handle.shutdown();
    server_thread.join().unwrap();
}
