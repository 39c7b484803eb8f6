//! Wire-level chaos drills: failpoint injection, deadline budgets,
//! admission shedding, and degraded-mode serving, all exercised over real
//! sockets against in-process servers.
//!
//! The headline drill is the ISSUE acceptance scenario: with
//! `store.write.enospc` armed under concurrent scoring load, score routes
//! must keep answering bit-identical results (zero non-503 errors), fits
//! must degrade to typed 503s, no torn files may remain, and every
//! degradation/recovery/trigger must be visible in `/metrics`.
//!
//! Failpoint state is process-global, so every drill takes one shared
//! lock and starts from a clean all-disarmed slate.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use s2g_server::{Client, ClientError, Json, RetryPolicy, Server, ServerConfig, ShutdownHandle};

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    s2g_failpoints::disarm_all();
    guard
}

fn start_server(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s2g_chaos_{}_{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn sine_csv(n: usize) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / 80.0).sin()))
        .collect()
}

fn probe_series(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
        .collect()
}

/// Arms (or disarms) one failpoint through the drill endpoint and returns
/// the resulting status object.
fn set_failpoint(client: &Client, pairs: &[(&str, Json)]) -> Json {
    let body = Json::obj(pairs.iter().map(|(k, v)| (*k, v.clone())));
    client
        .request_ok("POST", "/debug/failpoint", body.encode().as_bytes())
        .unwrap()
        .json_line(0)
        .unwrap()
}

/// First `/metrics` exposition line matching `name` (exact, labels and
/// all), parsed as an integer.
fn metric(lines: &[String], name: &str) -> Option<u64> {
    lines.iter().find_map(|line| {
        let (n, v) = line.rsplit_once(' ')?;
        (n == name).then(|| v.trim().parse().ok()).flatten()
    })
}

/// One raw HTTP/1.1 request with caller-controlled extra headers — the
/// `Client` never sets `X-S2g-Deadline-Ms`, the deadline drills must.
fn raw_request(
    addr: &str,
    method: &str,
    target: &str,
    headers: &[(&str, String)],
    body: &[u8],
) -> (u16, Vec<String>) {
    let mut stream = TcpStream::connect(addr).unwrap();
    let mut head = format!(
        "{method} {target} HTTP/1.1\r\nHost: chaos\r\nConnection: close\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).unwrap();
    let text = String::from_utf8_lossy(&response);
    let (head, body) = text.split_once("\r\n\r\n").unwrap();
    let status: u16 = head.split_whitespace().nth(1).unwrap().parse().unwrap();
    (status, body.lines().map(str::to_string).collect())
}

fn store_mode(client: &Client) -> String {
    client
        .health()
        .unwrap()
        .get("store_mode")
        .and_then(Json::as_str)
        .unwrap()
        .to_string()
}

/// Polls until `healthz` reports the wanted store mode or the deadline
/// passes (the recovery probe runs on a 100 ms cadence).
fn wait_for_store_mode(client: &Client, wanted: &str, timeout: Duration) {
    let deadline = Instant::now() + timeout;
    loop {
        if store_mode(client) == wanted {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "store never reached mode {wanted:?}"
        );
        thread::sleep(Duration::from_millis(20));
    }
}

fn temp_debris(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|entry| {
            let path = entry.unwrap().path();
            (path.extension().and_then(|e| e.to_str()) == Some("tmp"))
                .then(|| path.file_name().unwrap().to_string_lossy().into_owned())
        })
        .collect()
}

// ---------------------------------------------------------------------------
// the acceptance drill: ENOSPC mid-save under concurrent scoring load
// ---------------------------------------------------------------------------

#[test]
fn store_enospc_drill_serves_bit_identical_scores_while_degraded() {
    let _guard = lock();
    let dir = test_dir("enospc");
    let (addr, handle, server_thread) = start_server(
        ServerConfig::default()
            .with_data_dir(&dir)
            .with_failpoints("on"),
    );
    let client = Client::new(addr.clone());

    let train = sine_csv(2000);
    client
        .fit_model("drill", "pattern_length=40", &train)
        .unwrap();
    let probe = probe_series(500);
    let baseline = client
        .score("drill", 160, std::slice::from_ref(&probe))
        .unwrap()[0]
        .clone()
        .unwrap();
    assert_eq!(store_mode(&client), "read_write");

    // Every compiled failpoint is listed, disarmed, untriggered.
    let listing = client
        .request_ok("GET", "/debug/failpoint", b"")
        .unwrap()
        .json_line(0)
        .unwrap();
    let points = listing.get("failpoints").and_then(Json::as_array).unwrap();
    assert_eq!(points.len(), s2g_failpoints::NAMES.len());
    assert!(points
        .iter()
        .all(|p| p.get("action").and_then(Json::as_str) == Some("off")));

    // Concurrent score load running through the whole degraded window:
    // zero tolerated errors, every result bit-identical to the baseline.
    let stop = Arc::new(AtomicBool::new(false));
    let scored = Arc::new(AtomicU64::new(0));
    let loaders: Vec<_> = (0..3)
        .map(|_| {
            let client = Client::new(addr.clone());
            let probe = probe.clone();
            let baseline = baseline.clone();
            let stop = Arc::clone(&stop);
            let scored = Arc::clone(&scored);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let got = client
                        .score("drill", 160, std::slice::from_ref(&probe))
                        .unwrap();
                    assert_eq!(
                        got[0].as_ref().unwrap(),
                        &baseline,
                        "a degraded store must not change scores"
                    );
                    scored.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();

    // The disk "dies": every store write now fails with ENOSPC mid-save.
    set_failpoint(
        &client,
        &[
            ("name", Json::from("store.write.enospc")),
            ("action", Json::from("error")),
        ],
    );

    // The first fit that reaches the disk trips the fault and flips the
    // store read-only; it surfaces as a server-side error, never a hang
    // or a torn file.
    let first = client.fit_model("casualty", "pattern_length=40", &train);
    assert!(first.is_err(), "a fit over a dead disk must not succeed");
    wait_for_store_mode(&client, "degraded", Duration::from_secs(5));

    // While degraded, fits are refused up-front with a typed 503.
    match client.fit_model("casualty2", "pattern_length=40", &train) {
        Err(ClientError::Unavailable { status, code, .. }) => {
            assert_eq!(status, 503);
            assert_eq!(code, "store_degraded");
        }
        other => panic!("expected 503 store_degraded, got {other:?}"),
    }

    // Resident models keep scoring through the outage (the loader threads
    // are asserting bit-identity on every response as this runs).
    thread::sleep(Duration::from_millis(300));
    let during = client
        .score("drill", 160, std::slice::from_ref(&probe))
        .unwrap()[0]
        .clone()
        .unwrap();
    assert_eq!(during, baseline);

    // `/watch` mirrors the healthz mode for dashboards.
    let watch = client.watch().unwrap();
    assert_eq!(
        watch.get("store_mode").and_then(Json::as_str),
        Some("degraded")
    );

    // The disk "recovers": disarm, and the background probe re-arms
    // writes within its 100 ms cadence.
    set_failpoint(
        &client,
        &[
            ("name", Json::from("store.write.enospc")),
            ("action", Json::from("off")),
        ],
    );
    wait_for_store_mode(&client, "read_write", Duration::from_secs(5));

    // Fits work again, and scoring never wavered.
    client
        .fit_model("recovered", "pattern_length=40", &train)
        .unwrap();
    stop.store(true, Ordering::Relaxed);
    for loader in loaders {
        loader.join().unwrap();
    }
    assert!(scored.load(Ordering::Relaxed) > 0, "load never scored");
    let after = client.score("drill", 160, &[probe]).unwrap()[0]
        .clone()
        .unwrap();
    assert_eq!(after, baseline);

    // Every phase of the drill is accounted for in `/metrics`.
    let lines = client.metrics().unwrap();
    assert!(
        metric(
            &lines,
            "s2g_failpoint_triggers_total{name=\"store.write.enospc\"}"
        )
        .unwrap()
            >= 1
    );
    assert!(metric(&lines, "s2g_store_degradations_total").unwrap() >= 1);
    assert!(metric(&lines, "s2g_store_recoveries_total").unwrap() >= 1);

    // No torn files: the failed save and the probe left no temp debris,
    // and the surviving models reopen bit-identically after a restart.
    handle.shutdown();
    server_thread.join().unwrap();
    assert_eq!(temp_debris(&dir), Vec::<String>::new());

    let (addr2, handle2, thread2) = start_server(ServerConfig::default().with_data_dir(&dir));
    let client2 = Client::new(addr2);
    let names: Vec<String> = client2
        .list_models()
        .unwrap()
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    assert!(names.contains(&"drill".to_string()));
    assert!(names.contains(&"recovered".to_string()));
    assert!(
        !names.contains(&"casualty".to_string()),
        "the torn fit must not resurface from the manifest"
    );
    let reopened = client2.score("drill", 160, &[probe_series(500)]).unwrap()[0]
        .clone()
        .unwrap();
    assert_eq!(reopened, baseline);
    handle2.shutdown();
    thread2.join().unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------------
// deadlines: X-S2g-Deadline-Ms through the pool
// ---------------------------------------------------------------------------

#[test]
fn expired_deadline_skips_queued_work_and_is_counted() {
    let _guard = lock();
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr.clone());
    client
        .fit_model("dl", "pattern_length=40", &sine_csv(2000))
        .unwrap();
    let probe = probe_series(500);
    let baseline = client
        .score("dl", 160, std::slice::from_ref(&probe))
        .unwrap()[0]
        .clone()
        .unwrap();

    let body: String = probe
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",");

    // Already-expired budget: the task is skipped unrun and the slot
    // answers `deadline_exceeded`.
    let (status, lines) = raw_request(
        &addr,
        "POST",
        "/models/dl/score?query_length=160",
        &[("X-S2g-Deadline-Ms", "0".to_string())],
        body.as_bytes(),
    );
    assert_eq!(status, 200);
    let slot = Json::parse(&lines[0]).unwrap();
    assert_eq!(
        slot.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    // A session push with an expired budget answers a whole-request 503.
    let session = client.open_session("dl", 160).unwrap();
    let (status, lines) = raw_request(
        &addr,
        "POST",
        &format!("/sessions/{session}/push"),
        &[("X-S2g-Deadline-Ms", "0".to_string())],
        sine_csv(200).as_bytes(),
    );
    assert_eq!(status, 503);
    let error = Json::parse(&lines[0]).unwrap();
    assert_eq!(
        error.get("error").and_then(Json::as_str),
        Some("deadline_exceeded")
    );

    // A generous budget changes nothing: bit-identical to no header.
    let (status, lines) = raw_request(
        &addr,
        "POST",
        "/models/dl/score?query_length=160",
        &[("X-S2g-Deadline-Ms", "60000".to_string())],
        body.as_bytes(),
    );
    assert_eq!(status, 200);
    let slot = Json::parse(&lines[0]).unwrap();
    let scores: Vec<f64> = slot
        .get("scores")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .map(|v| v.as_f64().unwrap())
        .collect();
    assert_eq!(scores, baseline);

    let lines = client.metrics().unwrap();
    assert!(metric(&lines, "s2g_pool_deadline_expired_total").unwrap() >= 2);

    handle.shutdown();
    server_thread.join().unwrap();
}

// ---------------------------------------------------------------------------
// admission gate: bounded queue, 429 + Retry-After, client retries
// ---------------------------------------------------------------------------

#[test]
fn admission_gate_sheds_with_retry_after_and_retrying_client_recovers() {
    let _guard = lock();
    let (addr, handle, server_thread) = start_server(
        ServerConfig::default()
            .with_engine(s2g_server::EngineConfig {
                workers: 1,
                ..Default::default()
            })
            .with_failpoints("on")
            .with_admission_queue(1),
    );
    let client = Client::new(addr.clone());
    client
        .fit_model("gate", "pattern_length=40", &sine_csv(2000))
        .unwrap();
    let probe = probe_series(500);

    // Slow every pool task down (the panic failpoint armed as `delay`
    // sleeps instead of unwinding), so a small batch holds a backlog the
    // single worker drains slowly and the gate has something to shed.
    set_failpoint(
        &client,
        &[
            ("name", Json::from("pool.task.panic")),
            ("action", Json::from("delay")),
            ("delay_ms", Json::from(300usize)),
        ],
    );
    let background = {
        let client = Client::new(addr.clone());
        let series: Vec<Vec<f64>> = (0..6).map(|_| probe.clone()).collect();
        thread::spawn(move || client.score("gate", 160, &series).unwrap())
    };
    // Probe only once the batch is admitted and queued: a probe admitted
    // first would make the gate shed the batch instead. `/metrics` is not
    // admission-gated, so polling it cannot itself be shed.
    let deadline = Instant::now() + Duration::from_secs(20);
    while metric(&client.metrics().unwrap(), "s2g_pool_tasks_pending").unwrap() < 1 {
        assert!(
            Instant::now() < deadline,
            "the background batch never queued"
        );
        thread::sleep(Duration::from_millis(5));
    }

    // While the backlog sits queued, further pool-bound work is shed at
    // the door with `429 Retry-After` — a typed error, not a hang.
    let mut shed_seen = false;
    for _ in 0..100 {
        match client.score("gate", 160, std::slice::from_ref(&probe)) {
            Err(ClientError::Unavailable {
                status,
                code,
                retry_after,
                ..
            }) => {
                assert_eq!(status, 429);
                assert_eq!(code, "overloaded");
                assert_eq!(retry_after, Some(Duration::from_secs(1)));
                shed_seen = true;
                break;
            }
            Ok(_) => thread::sleep(Duration::from_millis(10)),
            Err(other) => panic!("expected 429 overloaded, got {other:?}"),
        }
    }
    assert!(shed_seen, "the admission gate never shed");

    // A retry-enabled client rides out the backlog: fits are PUT
    // (idempotent), so sheds are retried with backoff until admitted.
    let patient = Client::new(addr.clone()).with_retry(RetryPolicy {
        max_retries: 10,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_secs(1),
        budget: Duration::from_secs(20),
    });
    patient
        .fit_model("gate2", "pattern_length=40", &sine_csv(2000))
        .unwrap();

    set_failpoint(
        &client,
        &[
            ("name", Json::from("pool.task.panic")),
            ("action", Json::from("off")),
        ],
    );
    let background_scores = background.join().unwrap();
    assert!(background_scores.iter().all(Result::is_ok));

    let lines = client.metrics().unwrap();
    assert!(metric(&lines, "s2g_admission_shed_total").unwrap() >= 1);

    handle.shutdown();
    server_thread.join().unwrap();
}

// ---------------------------------------------------------------------------
// pool panic injection: typed error, surviving worker
// ---------------------------------------------------------------------------

#[test]
fn injected_task_panic_answers_typed_error_and_worker_survives() {
    let _guard = lock();
    let (addr, handle, server_thread) = start_server(ServerConfig::default().with_failpoints("on"));
    let client = Client::new(addr.clone());
    client
        .fit_model("boom", "pattern_length=40", &sine_csv(2000))
        .unwrap();
    let probe = probe_series(500);
    let baseline = client
        .score("boom", 160, std::slice::from_ref(&probe))
        .unwrap()[0]
        .clone()
        .unwrap();

    // Exactly one task panics (budget 1), then the failpoint disarms
    // itself.
    set_failpoint(
        &client,
        &[
            ("name", Json::from("pool.task.panic")),
            ("action", Json::from("panic")),
            ("budget", Json::from(1usize)),
        ],
    );
    let results = client
        .score("boom", 160, &[probe.clone(), probe.clone()])
        .unwrap();
    let panicked: Vec<&(String, String)> =
        results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(panicked.len(), 1, "exactly one slot should have panicked");
    assert_eq!(panicked[0].0, "worker_panicked");
    let survived: Vec<&Vec<f64>> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
    assert_eq!(survived, vec![&baseline]);

    // The worker survived: the very next batch scores fully, identically.
    let again = client.score("boom", 160, &[probe]).unwrap();
    assert_eq!(again[0].as_ref().unwrap(), &baseline);

    let lines = client.metrics().unwrap();
    assert_eq!(metric(&lines, "s2g_pool_task_panics_total"), Some(1));
    assert!(
        metric(
            &lines,
            "s2g_failpoint_triggers_total{name=\"pool.task.panic\"}"
        )
        .unwrap()
            >= 1
    );

    handle.shutdown();
    server_thread.join().unwrap();
}

// ---------------------------------------------------------------------------
// drill endpoint gating, validation, and connection-level faults
// ---------------------------------------------------------------------------

#[test]
fn failpoint_endpoints_are_gated_validated_and_stall_budget_self_disarms() {
    let _guard = lock();

    // Without `--failpoints`, the drill surface does not exist.
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let closed = Client::new(addr);
    let response = closed.request("GET", "/debug/failpoint", b"").unwrap();
    assert_eq!(response.status, 404);
    handle.shutdown();
    server_thread.join().unwrap();

    let (addr, handle, server_thread) = start_server(ServerConfig::default().with_failpoints("on"));
    let client = Client::new(addr.clone());

    // Unknown names are a typed 422, not a silent no-op.
    let response = client
        .request(
            "POST",
            "/debug/failpoint",
            Json::obj([
                ("name", Json::from("no.such.failpoint")),
                ("action", Json::from("error")),
            ])
            .encode()
            .as_bytes(),
        )
        .unwrap();
    assert_eq!(response.status, 422);
    assert!(response.lines[0].contains("unknown_failpoint"));

    // A budgeted connection-level fault: exactly one subsequent request
    // has its connection dropped mid-read, then the stall self-disarms.
    set_failpoint(
        &client,
        &[
            ("name", Json::from("net.read.stall")),
            ("action", Json::from("error")),
            ("budget", Json::from(1usize)),
        ],
    );
    // The drop closes the socket without a response; a fresh client makes
    // the failure deterministic (no pooled-connection retry masking it).
    let victim = Client::new(addr.clone());
    assert!(victim.health().is_err(), "the stalled request must fail");
    // Budget exhausted: service is back, and the trigger was counted.
    let healthy = Client::new(addr);
    assert_eq!(
        healthy
            .health()
            .unwrap()
            .get("status")
            .and_then(Json::as_str),
        Some("ok")
    );
    let status = healthy
        .request_ok("GET", "/debug/failpoint", b"")
        .unwrap()
        .json_line(0)
        .unwrap();
    let stall = status
        .get("failpoints")
        .and_then(Json::as_array)
        .unwrap()
        .iter()
        .find(|p| p.get("name").and_then(Json::as_str) == Some("net.read.stall"))
        .cloned()
        .unwrap();
    assert_eq!(stall.get("triggers").and_then(Json::as_usize), Some(1));
    assert_eq!(stall.get("action").and_then(Json::as_str), Some("off"));

    handle.shutdown();
    server_thread.join().unwrap();
}
