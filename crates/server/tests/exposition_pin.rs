//! Pins the observable instrument set: a fixed request script runs
//! against a server with the flight recorder on, then the test compares,
//! with every value masked,
//!
//! * the ordered `/metrics` series identities (name plus labels; the
//!   value-dependent `le` bucket bounds are masked and collapsed);
//! * the key paths of `/metrics/json`, in document order;
//! * the `/metrics/history` schema (counter, gauge and histogram names,
//!   in order — the positions every retained sample and journal segment
//!   is aligned to).
//!
//! The expected lists are the exposition as it stood before the
//! instruments were declared in one registry; any rename, reorder,
//! addition or removal shows up here first.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;

use s2g_server::{Client, EngineConfig, Json, Server, ServerConfig};

fn sine_csv(n: usize, period: f64) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / period).sin()))
        .collect()
}

/// Sends raw bytes and reads the reply to EOF (the server closes after
/// every error response).
fn raw_exchange(addr: &str, wire: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(wire).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    String::from_utf8(response).unwrap()
}

/// `name{labels}` of one exposition line, with the bucket bound masked.
fn series_identity(line: &str) -> String {
    let (series, _value) = line.rsplit_once(' ').expect("`name value` line");
    let bound = series
        .find("{le=\"")
        .or_else(|| series.find(",le=\""))
        .map(|at| at + ",le=\"".len());
    match bound {
        Some(start) if !series[start..].starts_with("+Inf") => {
            let end = start + series[start..].find('"').expect("closed label");
            format!("{}*{}", &series[..start], &series[end..])
        }
        _ => series.to_string(),
    }
}

/// Leaf key paths of a JSON document, `.`-joined, in document order.
fn key_paths(json: &Json, prefix: &str, out: &mut Vec<String>) {
    match json {
        Json::Obj(pairs) if !pairs.is_empty() => {
            for (key, value) in pairs {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                key_paths(value, &path, out);
            }
        }
        _ => out.push(prefix.to_string()),
    }
}

fn names(json: &Json) -> Vec<String> {
    json.as_array()
        .unwrap()
        .iter()
        .map(|n| n.as_str().unwrap().to_string())
        .collect()
}

#[test]
fn exposition_series_keys_and_schema_are_pinned() {
    let server = Server::bind(
        ServerConfig::default()
            .with_addr("127.0.0.1:0")
            .with_engine(EngineConfig::default().with_workers(2))
            .with_sample_interval_ms(50),
    )
    .unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let server_thread = thread::spawn(move || server.run().unwrap());
    let client = Client::new(addr.clone());

    // The script: a fit, a score, a probe, an unknown path (404), a
    // wrong method (405) and a request that does not parse (400).
    client
        .fit_model("pin", "pattern_length=40", &sine_csv(2000, 80.0))
        .unwrap();
    let probe: Vec<f64> = (0..600)
        .map(|i| (std::f64::consts::TAU * i as f64 / 70.0).sin())
        .collect();
    client.score("pin", 120, &[probe]).unwrap();
    client.health().unwrap();
    assert_eq!(
        client
            .request("GET", "/no-such-endpoint", b"")
            .unwrap()
            .status,
        404
    );
    assert_eq!(
        client.request("DELETE", "/healthz", b"").unwrap().status,
        405
    );
    assert!(raw_exchange(&addr, b"THIS IS NOT HTTP\r\n\r\n").starts_with("HTTP/1.1 400"));

    // Scrapes, in a fixed order: each one lands in the internal family
    // the later ones report.
    let json = client.metrics_json().unwrap();
    let history = client.metrics_history(0, 1).unwrap();
    let text = client.metrics().unwrap();

    let mut series: Vec<String> = text.iter().map(|line| series_identity(line)).collect();
    series.dedup();
    let mut paths = Vec::new();
    key_paths(&json, "", &mut paths);
    let schema = history.get("schema").unwrap();

    assert_eq!(series, EXPECTED_SERIES, "/metrics series identities");
    assert_eq!(paths, EXPECTED_JSON_PATHS, "/metrics/json key paths");
    assert_eq!(
        names(schema.get("counters").unwrap()),
        EXPECTED_COUNTERS,
        "history schema counters"
    );
    assert_eq!(
        names(schema.get("gauges").unwrap()),
        EXPECTED_GAUGES,
        "history schema gauges"
    );
    assert_eq!(
        names(schema.get("histograms").unwrap()),
        EXPECTED_HISTOGRAMS,
        "history schema histograms"
    );

    handle.shutdown();
    server_thread.join().unwrap();
}

const EXPECTED_SERIES: &[&str] = &[
    "s2g_requests_total{route=\"GET /healthz\",status=\"200\"}",
    "s2g_requests_total{route=\"GET /metrics/json\",status=\"200\"}",
    "s2g_requests_total{route=\"GET /metrics/history\",status=\"200\"}",
    "s2g_requests_total{route=\"PUT /models/{name}\",status=\"200\"}",
    "s2g_requests_total{route=\"POST /models/{name}/score\",status=\"200\"}",
    "s2g_requests_total{route=\"(method_not_allowed)\",status=\"405\"}",
    "s2g_requests_total{route=\"(unparsed)\",status=\"400\"}",
    "s2g_requests_total{route=\"(other)\",status=\"404\"}",
    "s2g_fits_total",
    "s2g_scored_series_total",
    "s2g_sessions_opened_total",
    "s2g_adapt_updates_total",
    "s2g_adapt_refits_total",
    "s2g_adapt_published_total",
    "s2g_models_registered",
    "s2g_models_stored",
    "s2g_store_resident_bytes",
    "s2g_store_residency_evictions_total",
    "s2g_sessions_open",
    "s2g_workers",
    "s2g_pool_queue_depth_total",
    "s2g_pool_tasks_pending",
    "s2g_store_degraded",
    "s2g_accept_slots",
    "s2g_accept_slots_in_use",
    "s2g_accept_waiting",
    "s2g_uptime_seconds",
    "s2g_pool_tasks_executed_total{worker=\"0\"}",
    "s2g_pool_tasks_stolen_total{worker=\"0\"}",
    "s2g_pool_queue_depth{worker=\"0\"}",
    "s2g_pool_tasks_executed_total{worker=\"1\"}",
    "s2g_pool_tasks_stolen_total{worker=\"1\"}",
    "s2g_pool_queue_depth{worker=\"1\"}",
    "s2g_pool_task_panics_total",
    "s2g_pool_deadline_expired_total",
    "s2g_admission_shed_total",
    "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.5\"}",
    "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.95\"}",
    "s2g_request_duration_ns{route=\"PUT /models/{name}\",quantile=\"0.99\"}",
    "s2g_request_duration_ns_count{route=\"PUT /models/{name}\"}",
    "s2g_request_duration_ns_sum{route=\"PUT /models/{name}\"}",
    "s2g_request_duration_ns_max{route=\"PUT /models/{name}\"}",
    "s2g_request_duration_ns_bucket{route=\"PUT /models/{name}\",le=\"*\"}",
    "s2g_request_duration_ns_bucket{route=\"PUT /models/{name}\",le=\"+Inf\"}",
    "s2g_request_duration_ns{route=\"POST /models/{name}/score\",quantile=\"0.5\"}",
    "s2g_request_duration_ns{route=\"POST /models/{name}/score\",quantile=\"0.95\"}",
    "s2g_request_duration_ns{route=\"POST /models/{name}/score\",quantile=\"0.99\"}",
    "s2g_request_duration_ns_count{route=\"POST /models/{name}/score\"}",
    "s2g_request_duration_ns_sum{route=\"POST /models/{name}/score\"}",
    "s2g_request_duration_ns_max{route=\"POST /models/{name}/score\"}",
    "s2g_request_duration_ns_bucket{route=\"POST /models/{name}/score\",le=\"*\"}",
    "s2g_request_duration_ns_bucket{route=\"POST /models/{name}/score\",le=\"+Inf\"}",
    "s2g_request_duration_ns{route=\"(other)\",quantile=\"0.5\"}",
    "s2g_request_duration_ns{route=\"(other)\",quantile=\"0.95\"}",
    "s2g_request_duration_ns{route=\"(other)\",quantile=\"0.99\"}",
    "s2g_request_duration_ns_count{route=\"(other)\"}",
    "s2g_request_duration_ns_sum{route=\"(other)\"}",
    "s2g_request_duration_ns_max{route=\"(other)\"}",
    "s2g_request_duration_ns_bucket{route=\"(other)\",le=\"*\"}",
    "s2g_request_duration_ns_bucket{route=\"(other)\",le=\"+Inf\"}",
    "s2g_internal_request_duration_ns{route=\"GET /healthz\",quantile=\"0.5\"}",
    "s2g_internal_request_duration_ns{route=\"GET /healthz\",quantile=\"0.95\"}",
    "s2g_internal_request_duration_ns{route=\"GET /healthz\",quantile=\"0.99\"}",
    "s2g_internal_request_duration_ns_count{route=\"GET /healthz\"}",
    "s2g_internal_request_duration_ns_sum{route=\"GET /healthz\"}",
    "s2g_internal_request_duration_ns_max{route=\"GET /healthz\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /healthz\",le=\"*\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /healthz\",le=\"+Inf\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/json\",quantile=\"0.5\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/json\",quantile=\"0.95\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/json\",quantile=\"0.99\"}",
    "s2g_internal_request_duration_ns_count{route=\"GET /metrics/json\"}",
    "s2g_internal_request_duration_ns_sum{route=\"GET /metrics/json\"}",
    "s2g_internal_request_duration_ns_max{route=\"GET /metrics/json\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /metrics/json\",le=\"*\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /metrics/json\",le=\"+Inf\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/history\",quantile=\"0.5\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/history\",quantile=\"0.95\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/history\",quantile=\"0.99\"}",
    "s2g_internal_request_duration_ns_count{route=\"GET /metrics/history\"}",
    "s2g_internal_request_duration_ns_sum{route=\"GET /metrics/history\"}",
    "s2g_internal_request_duration_ns_max{route=\"GET /metrics/history\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /metrics/history\",le=\"*\"}",
    "s2g_internal_request_duration_ns_bucket{route=\"GET /metrics/history\",le=\"+Inf\"}",
    "s2g_fit_duration_ns{quantile=\"0.5\"}",
    "s2g_fit_duration_ns{quantile=\"0.95\"}",
    "s2g_fit_duration_ns{quantile=\"0.99\"}",
    "s2g_fit_duration_ns_count",
    "s2g_fit_duration_ns_sum",
    "s2g_fit_duration_ns_max",
    "s2g_fit_duration_ns_bucket{le=\"*\"}",
    "s2g_fit_duration_ns_bucket{le=\"+Inf\"}",
    "s2g_score_duration_ns{quantile=\"0.5\"}",
    "s2g_score_duration_ns{quantile=\"0.95\"}",
    "s2g_score_duration_ns{quantile=\"0.99\"}",
    "s2g_score_duration_ns_count",
    "s2g_score_duration_ns_sum",
    "s2g_score_duration_ns_max",
    "s2g_score_duration_ns_bucket{le=\"*\"}",
    "s2g_score_duration_ns_bucket{le=\"+Inf\"}",
    "s2g_pool_queue_wait_ns{quantile=\"0.5\"}",
    "s2g_pool_queue_wait_ns{quantile=\"0.95\"}",
    "s2g_pool_queue_wait_ns{quantile=\"0.99\"}",
    "s2g_pool_queue_wait_ns_count",
    "s2g_pool_queue_wait_ns_sum",
    "s2g_pool_queue_wait_ns_max",
    "s2g_pool_queue_wait_ns_bucket{le=\"*\"}",
    "s2g_pool_queue_wait_ns_bucket{le=\"+Inf\"}",
    "s2g_pool_execute_ns{quantile=\"0.5\"}",
    "s2g_pool_execute_ns{quantile=\"0.95\"}",
    "s2g_pool_execute_ns{quantile=\"0.99\"}",
    "s2g_pool_execute_ns_count",
    "s2g_pool_execute_ns_sum",
    "s2g_pool_execute_ns_max",
    "s2g_pool_execute_ns_bucket{le=\"*\"}",
    "s2g_pool_execute_ns_bucket{le=\"+Inf\"}",
];
const EXPECTED_JSON_PATHS: &[&str] = &[
    "gauges.s2g_models_registered",
    "gauges.s2g_models_stored",
    "gauges.s2g_store_resident_bytes",
    "gauges.s2g_store_residency_evictions_total",
    "gauges.s2g_sessions_open",
    "gauges.s2g_workers",
    "gauges.s2g_pool_queue_depth_total",
    "gauges.s2g_pool_tasks_pending",
    "gauges.s2g_store_degraded",
    "gauges.s2g_accept_slots",
    "gauges.s2g_accept_slots_in_use",
    "gauges.s2g_accept_waiting",
    "gauges.s2g_uptime_seconds",
    "requests.PUT /models/{name}.count",
    "requests.PUT /models/{name}.sum_ns",
    "requests.PUT /models/{name}.max_ns",
    "requests.PUT /models/{name}.mean_ns",
    "requests.PUT /models/{name}.p50_ns",
    "requests.PUT /models/{name}.p95_ns",
    "requests.PUT /models/{name}.p99_ns",
    "requests.POST /models/{name}/score.count",
    "requests.POST /models/{name}/score.sum_ns",
    "requests.POST /models/{name}/score.max_ns",
    "requests.POST /models/{name}/score.mean_ns",
    "requests.POST /models/{name}/score.p50_ns",
    "requests.POST /models/{name}/score.p95_ns",
    "requests.POST /models/{name}/score.p99_ns",
    "requests.(other).count",
    "requests.(other).sum_ns",
    "requests.(other).max_ns",
    "requests.(other).mean_ns",
    "requests.(other).p50_ns",
    "requests.(other).p95_ns",
    "requests.(other).p99_ns",
    "internal.GET /healthz.count",
    "internal.GET /healthz.sum_ns",
    "internal.GET /healthz.max_ns",
    "internal.GET /healthz.mean_ns",
    "internal.GET /healthz.p50_ns",
    "internal.GET /healthz.p95_ns",
    "internal.GET /healthz.p99_ns",
    "stages.s2g_fit_duration_ns.count",
    "stages.s2g_fit_duration_ns.sum_ns",
    "stages.s2g_fit_duration_ns.max_ns",
    "stages.s2g_fit_duration_ns.mean_ns",
    "stages.s2g_fit_duration_ns.p50_ns",
    "stages.s2g_fit_duration_ns.p95_ns",
    "stages.s2g_fit_duration_ns.p99_ns",
    "stages.s2g_score_duration_ns.count",
    "stages.s2g_score_duration_ns.sum_ns",
    "stages.s2g_score_duration_ns.max_ns",
    "stages.s2g_score_duration_ns.mean_ns",
    "stages.s2g_score_duration_ns.p50_ns",
    "stages.s2g_score_duration_ns.p95_ns",
    "stages.s2g_score_duration_ns.p99_ns",
    "stages.s2g_pool_queue_wait_ns.count",
    "stages.s2g_pool_queue_wait_ns.sum_ns",
    "stages.s2g_pool_queue_wait_ns.max_ns",
    "stages.s2g_pool_queue_wait_ns.mean_ns",
    "stages.s2g_pool_queue_wait_ns.p50_ns",
    "stages.s2g_pool_queue_wait_ns.p95_ns",
    "stages.s2g_pool_queue_wait_ns.p99_ns",
    "stages.s2g_pool_execute_ns.count",
    "stages.s2g_pool_execute_ns.sum_ns",
    "stages.s2g_pool_execute_ns.max_ns",
    "stages.s2g_pool_execute_ns.mean_ns",
    "stages.s2g_pool_execute_ns.p50_ns",
    "stages.s2g_pool_execute_ns.p95_ns",
    "stages.s2g_pool_execute_ns.p99_ns",
    "slow_threshold_ms",
    "trace_ring",
    "slow_ring",
    "sampler.interval_ms",
    "sampler.retention",
    "sampler.samples",
];
const EXPECTED_COUNTERS: &[&str] = &[
    "s2g_requests_total{route=\"GET /healthz\"}",
    "s2g_requests_total{route=\"GET /metrics\"}",
    "s2g_requests_total{route=\"GET /metrics/json\"}",
    "s2g_requests_total{route=\"GET /metrics/history\"}",
    "s2g_requests_total{route=\"GET /metrics/delta\"}",
    "s2g_requests_total{route=\"GET /metrics/journal\"}",
    "s2g_requests_total{route=\"GET /watch\"}",
    "s2g_requests_total{route=\"GET /debug/trace/{id}\"}",
    "s2g_requests_total{route=\"GET /debug/slow\"}",
    "s2g_requests_total{route=\"POST /debug/failpoint\"}",
    "s2g_requests_total{route=\"GET /debug/failpoint\"}",
    "s2g_requests_total{route=\"GET /models\"}",
    "s2g_requests_total{route=\"PUT /models/{name}\"}",
    "s2g_requests_total{route=\"GET /models/{name}\"}",
    "s2g_requests_total{route=\"DELETE /models/{name}\"}",
    "s2g_requests_total{route=\"POST /models/{name}/score\"}",
    "s2g_requests_total{route=\"POST /sessions\"}",
    "s2g_requests_total{route=\"POST /sessions/{id}/push\"}",
    "s2g_requests_total{route=\"DELETE /sessions/{id}\"}",
    "s2g_requests_total{route=\"POST /admin/shutdown\"}",
    "s2g_requests_total{route=\"(method_not_allowed)\"}",
    "s2g_requests_total{route=\"(unparsed)\"}",
    "s2g_requests_total{route=\"(other)\"}",
    "s2g_request_errors_total",
    "s2g_fits_total",
    "s2g_scored_series_total",
    "s2g_sessions_opened_total",
    "s2g_adapt_updates_total",
    "s2g_adapt_refits_total",
    "s2g_adapt_published_total",
];
const EXPECTED_GAUGES: &[&str] = &[
    "s2g_models_registered",
    "s2g_models_stored",
    "s2g_store_resident_bytes",
    "s2g_store_residency_evictions_total",
    "s2g_sessions_open",
    "s2g_workers",
    "s2g_pool_queue_depth_total",
    "s2g_pool_tasks_pending",
    "s2g_store_degraded",
    "s2g_accept_slots",
    "s2g_accept_slots_in_use",
    "s2g_accept_waiting",
    "s2g_uptime_seconds",
];
const EXPECTED_HISTOGRAMS: &[&str] = &[
    "s2g_request_duration_ns{route=\"GET /models\"}",
    "s2g_request_duration_ns{route=\"PUT /models/{name}\"}",
    "s2g_request_duration_ns{route=\"GET /models/{name}\"}",
    "s2g_request_duration_ns{route=\"DELETE /models/{name}\"}",
    "s2g_request_duration_ns{route=\"POST /models/{name}/score\"}",
    "s2g_request_duration_ns{route=\"POST /sessions\"}",
    "s2g_request_duration_ns{route=\"POST /sessions/{id}/push\"}",
    "s2g_request_duration_ns{route=\"DELETE /sessions/{id}\"}",
    "s2g_request_duration_ns{route=\"POST /admin/shutdown\"}",
    "s2g_internal_request_duration_ns{route=\"GET /healthz\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/json\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/history\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/delta\"}",
    "s2g_internal_request_duration_ns{route=\"GET /watch\"}",
    "s2g_internal_request_duration_ns{route=\"GET /debug/trace/{id}\"}",
    "s2g_internal_request_duration_ns{route=\"GET /debug/slow\"}",
    "s2g_internal_request_duration_ns{route=\"GET /metrics/journal\"}",
    "s2g_internal_request_duration_ns{route=\"POST /debug/failpoint\"}",
    "s2g_internal_request_duration_ns{route=\"GET /debug/failpoint\"}",
    "s2g_fit_duration_ns",
    "s2g_score_duration_ns",
    "s2g_pool_queue_wait_ns",
    "s2g_pool_execute_ns",
    "s2g_store_fault_ns",
    "s2g_store_write_ns",
    "s2g_adapt_push_ns",
];
