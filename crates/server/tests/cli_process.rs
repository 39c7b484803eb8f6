//! Cross-process CLI acceptance tests: `s2g fit` in one process writes a
//! model file that a *separate* `s2g score` process loads and scores with
//! results identical to an in-process fit+score; and an `s2g serve` process
//! is driven end-to-end by `s2g client` / `s2g models` processes, ending
//! with a remote graceful shutdown.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

use s2g_core::{S2gConfig, Series2Graph};
use s2g_timeseries::{io, TimeSeries};

fn tmp(name: &str) -> std::path::PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("s2g_cli_process_{}_{name}", std::process::id()));
    dir
}

fn burst_series(n: usize, burst_at: usize) -> TimeSeries {
    let mut values: Vec<f64> = (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
        .collect();
    let end = (burst_at + 150).min(n);
    for (i, v) in values.iter_mut().enumerate().take(end).skip(burst_at) {
        *v = (std::f64::consts::TAU * i as f64 / 25.0).sin();
    }
    TimeSeries::from(values)
}

#[test]
fn separate_fit_and_score_processes_match_in_process_results() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let input = tmp("input.csv");
    let model_path = tmp("model.s2g");
    let scores_path = tmp("scores.csv");

    let series = burst_series(4000, 2600);
    io::write_series(&input, &series).unwrap();

    // Process 1: fit + persist.
    let fit = Command::new(s2g)
        .args([
            "fit",
            "--input",
            input.to_str().unwrap(),
            "--output",
            model_path.to_str().unwrap(),
            "--pattern-length",
            "50",
        ])
        .output()
        .unwrap();
    assert!(
        fit.status.success(),
        "fit failed: {}",
        String::from_utf8_lossy(&fit.stderr)
    );

    // Process 2: load + score.
    let score = Command::new(s2g)
        .args([
            "score",
            "--model",
            model_path.to_str().unwrap(),
            "--query-length",
            "150",
            "--top-k",
            "1",
            "--scores-out",
            scores_path.to_str().unwrap(),
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        score.status.success(),
        "score failed: {}",
        String::from_utf8_lossy(&score.stderr)
    );

    // Reference: everything in this process, no persistence involved.
    let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
    let expected = model.anomaly_scores(&series, 150).unwrap();

    let text = std::fs::read_to_string(&scores_path).unwrap();
    let written: Vec<f64> = text
        .lines()
        .skip(1)
        .map(|line| line.split(',').nth(1).unwrap().parse().unwrap())
        .collect();
    assert_eq!(written.len(), expected.len());
    for (i, (w, e)) in written.iter().zip(&expected).enumerate() {
        assert_eq!(
            w.to_bits(),
            e.to_bits(),
            "score {i} differs between cross-process and in-process runs"
        );
    }

    // The reported top anomaly must be the injected burst.
    let stdout = String::from_utf8_lossy(&score.stdout);
    let top_line = stdout.lines().next().expect("score printed no detections");
    let start: i64 = top_line.split('\t').nth(2).unwrap().parse().unwrap();
    assert!(
        (start - 2600).abs() < 250,
        "top anomaly at {start}, expected near 2600 (stdout: {stdout})"
    );

    // Corrupted model files must fail the process with a runtime error.
    let mut corrupt = std::fs::read(&model_path).unwrap();
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0x40;
    std::fs::write(&model_path, &corrupt).unwrap();
    let broken = Command::new(s2g)
        .args([
            "score",
            "--model",
            model_path.to_str().unwrap(),
            "--query-length",
            "150",
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(broken.status.code(), Some(1));
    assert!(
        String::from_utf8_lossy(&broken.stderr).contains("corrupted"),
        "stderr should name the corruption: {}",
        String::from_utf8_lossy(&broken.stderr)
    );

    for p in [&input, &model_path, &scores_path] {
        std::fs::remove_file(p).ok();
    }
}

/// Spawns `s2g serve` on an ephemeral port and waits for its readiness
/// line, returning the child process and the bound address.
fn spawn_server(s2g: &str) -> (Child, String) {
    spawn_server_with(s2g, &[])
}

/// Like [`spawn_server`], with extra `serve` flags appended.
fn spawn_server_with(s2g: &str, extra: &[&str]) -> (Child, String) {
    let mut child = Command::new(s2g)
        .args(["serve", "--addr", "127.0.0.1:0", "--workers", "2"])
        .args(extra)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let stdout = child.stdout.take().unwrap();
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).unwrap();
    // "s2g-server listening on 127.0.0.1:PORT"
    let addr = line
        .rsplit(' ')
        .next()
        .expect("readiness line with address")
        .trim()
        .to_string();
    (child, addr)
}

#[test]
fn serve_and_client_processes_roundtrip_and_shut_down() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let input = tmp("serve_input.csv");
    let series = burst_series(3000, 1900);
    io::write_series(&input, &series).unwrap();

    let (mut server, addr) = spawn_server(s2g);

    // Fit remotely from a third process.
    let fit = Command::new(s2g)
        .args([
            "client",
            "fit",
            "--addr",
            &addr,
            "--name",
            "remote",
            "--input",
            input.to_str().unwrap(),
            "--pattern-length",
            "50",
        ])
        .output()
        .unwrap();
    assert!(
        fit.status.success(),
        "client fit failed: {}",
        String::from_utf8_lossy(&fit.stderr)
    );

    // `s2g models` sees the registered model.
    let models = Command::new(s2g)
        .args(["models", "--addr", &addr])
        .output()
        .unwrap();
    assert!(models.status.success());
    assert!(String::from_utf8_lossy(&models.stdout).contains("remote"));

    // Remote scoring finds the injected burst, exactly like a local score.
    let score = Command::new(s2g)
        .args([
            "client",
            "score",
            "--addr",
            &addr,
            "--name",
            "remote",
            "--query-length",
            "150",
            "--top-k",
            "1",
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        score.status.success(),
        "client score failed: {}",
        String::from_utf8_lossy(&score.stderr)
    );
    let stdout = String::from_utf8_lossy(&score.stdout);
    let top_line = stdout.lines().next().expect("no detections printed");
    let start: i64 = top_line.split('\t').nth(2).unwrap().parse().unwrap();
    assert!(
        (start - 1900).abs() < 250,
        "remote top anomaly at {start}, expected near 1900"
    );

    // Remote graceful shutdown: the serve process exits cleanly.
    let stop = Command::new(s2g)
        .args(["client", "shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(stop.status.success());
    let status = server.wait().unwrap();
    assert!(status.success(), "serve process exited with {status:?}");

    std::fs::remove_file(&input).ok();
}

#[test]
fn serve_with_data_dir_persists_models_across_server_processes() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let input = tmp("persist_input.csv");
    let data_dir = tmp("persist_store");
    std::fs::remove_dir_all(&data_dir).ok();
    let series = burst_series(2500, 1600);
    io::write_series(&input, &series).unwrap();
    let dir_arg = data_dir.to_str().unwrap().to_string();

    // Life 1: fit over the wire, then shut down.
    let (mut server, addr) = spawn_server_with(s2g, &["--data-dir", &dir_arg]);
    let fit = Command::new(s2g)
        .args([
            "client",
            "fit",
            "--addr",
            &addr,
            "--name",
            "durable",
            "--input",
            input.to_str().unwrap(),
            "--pattern-length",
            "50",
        ])
        .output()
        .unwrap();
    assert!(
        fit.status.success(),
        "client fit failed: {}",
        String::from_utf8_lossy(&fit.stderr)
    );
    let stop = Command::new(s2g)
        .args(["client", "shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(stop.status.success());
    assert!(server.wait().unwrap().success());

    // Offline: the store subcommands see the persisted model.
    let ls = Command::new(s2g)
        .args(["store", "ls", "--data-dir", &dir_arg, "--json"])
        .output()
        .unwrap();
    assert!(ls.status.success());
    let listing = String::from_utf8_lossy(&ls.stdout);
    assert!(
        listing.contains("\"name\":\"durable\""),
        "store ls --json lacks the model: {listing}"
    );
    let verify = Command::new(s2g)
        .args(["store", "verify", "--data-dir", &dir_arg])
        .output()
        .unwrap();
    assert!(
        verify.status.success(),
        "store verify failed: {}",
        String::from_utf8_lossy(&verify.stderr)
    );

    // Life 2: a fresh serve process on the same directory scores the model
    // without any refit, and `s2g models --json` lists it.
    let (mut server, addr) = spawn_server_with(s2g, &["--data-dir", &dir_arg]);
    let models = Command::new(s2g)
        .args(["models", "--addr", &addr, "--json"])
        .output()
        .unwrap();
    assert!(models.status.success());
    assert!(String::from_utf8_lossy(&models.stdout).contains("\"name\":\"durable\""));
    let score = Command::new(s2g)
        .args([
            "client",
            "score",
            "--addr",
            &addr,
            "--name",
            "durable",
            "--query-length",
            "150",
            "--top-k",
            "1",
            input.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        score.status.success(),
        "post-restart score failed: {}",
        String::from_utf8_lossy(&score.stderr)
    );
    let stdout = String::from_utf8_lossy(&score.stdout);
    let start: i64 = stdout
        .lines()
        .next()
        .expect("no detections printed")
        .split('\t')
        .nth(2)
        .unwrap()
        .parse()
        .unwrap();
    assert!(
        (start - 1600).abs() < 250,
        "post-restart top anomaly at {start}, expected near 1600"
    );
    let stop = Command::new(s2g)
        .args(["client", "shutdown", "--addr", &addr])
        .output()
        .unwrap();
    assert!(stop.status.success());
    assert!(server.wait().unwrap().success());

    std::fs::remove_file(&input).ok();
    std::fs::remove_dir_all(&data_dir).ok();
}

#[test]
fn usage_errors_exit_with_code_two() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let bad = Command::new(s2g).args(["frobnicate"]).output().unwrap();
    assert_eq!(bad.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&bad.stderr).contains("USAGE"));

    let help = Command::new(s2g).args(["help"]).output().unwrap();
    assert!(help.status.success());
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(
        help.contains("\n    s2g fit "),
        "local usage lines stay indented"
    );
    assert!(
        help.contains("s2g eval"),
        "help lists the local eval subcommand"
    );
    assert!(!help.contains("bench-throughput"));
}

/// One raw HTTP/1.1 request over a fresh connection; returns the full
/// response text ("" if the server dropped the connection mid-request).
fn raw_request(addr: &str, method: &str, target: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let wire =
        format!("{method} {target} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: 0\r\nConnection: close\r\n\r\n");
    stream.write_all(wire.as_bytes()).unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).ok();
    String::from_utf8_lossy(&response).into_owned()
}

fn obs(s2g: &str, args: &[&str]) -> String {
    let out = Command::new(s2g).arg("obs").args(args).output().unwrap();
    assert!(
        out.status.success(),
        "obs {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8_lossy(&out.stdout).into_owned()
}

/// The crash drill: a journaled server is killed with SIGKILL mid-traffic,
/// and the offline `s2g obs` forensics still reconstruct the final window
/// from whatever reached disk — torn tails flagged, never fatal.
#[test]
fn crash_drill_obs_forensics_survive_sigkill() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let data_dir = tmp("crash_drill");
    std::fs::remove_dir_all(&data_dir).ok();
    let dir = data_dir.to_str().unwrap().to_string();
    let (mut server, addr) = spawn_server_with(
        s2g,
        &[
            "--data-dir",
            &dir,
            "--sample-interval-ms",
            "5",
            "--slow-request-ms",
            "0",
            "--journal-segment-kb",
            "4",
        ],
    );

    // Paced so the 5 ms sampler ticks many times while traffic is live —
    // otherwise a release build answers all 50 requests inside one tick
    // and there are no samples to reconstruct.
    for _ in 0..50 {
        let response = raw_request(&addr, "GET", "/healthz");
        assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        std::thread::sleep(std::time::Duration::from_millis(3));
    }
    // SIGKILL mid-traffic: no shutdown path runs, no writer flush, no
    // segment finalisation — whatever the journal fsynced is all there is.
    server.kill().unwrap();
    server.wait().unwrap();

    let ls = obs(s2g, &["ls", "--data-dir", &dir]);
    assert!(ls.contains("segment"), "{ls}");

    let report = obs(s2g, &["report", "--data-dir", &dir, "--window", "60"]);
    assert!(report.contains("journal report"), "{report}");
    // The sampler ticked every 5 ms across 50 requests: the retained
    // samples reconstruct the crash window's counters and percentiles.
    assert!(report.contains("sample(s) spanning"), "{report}");
    assert!(report.contains("GET /healthz"), "{report}");

    // Every trace survived with its route; grep narrows by substring.
    let grep = obs(
        s2g,
        &[
            "grep",
            "--data-dir",
            &dir,
            "--kind",
            "trace",
            "--route",
            "healthz",
        ],
    );
    assert!(grep.contains("GET /healthz"), "{grep}");

    // Export emits one JSON object per event.
    let export = obs(s2g, &["export", "--data-dir", &dir]);
    assert!(export
        .lines()
        .all(|l| l.starts_with('{') && l.ends_with('}')));
    assert!(export.contains("\"kind\":\"sample\""));
    assert!(export.contains("\"kind\":\"trace\""));

    std::fs::remove_dir_all(&data_dir).ok();
}

/// The panic drill: a pool task panic injected by the `pool.task.panic`
/// failpoint leaves a postmortem journal holding the panic and the
/// in-flight trace of the request it hit — and the server keeps serving.
#[test]
fn panic_drill_writes_postmortem_with_in_flight_trace() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let data_dir = tmp("panic_drill");
    std::fs::remove_dir_all(&data_dir).ok();
    let dir = data_dir.to_str().unwrap().to_string();
    let (mut server, addr) = spawn_server_with(
        s2g,
        &[
            "--data-dir",
            &dir,
            "--registry-capacity",
            "1",
            "--failpoints",
            "pool.task.panic=panic;budget=1",
        ],
    );

    // Wire fits run inline, off the pool. Fitting `b` evicts `a` from the
    // one-model registry, so scoring `a` faults it back in from the store
    // (a finished `store.load` span) and then runs the first pool task,
    // which panics. The panic hook runs before unwinding, draining the
    // in-flight trace into a postmortem file.
    let client = s2g_server::Client::new(addr.clone());
    let series = burst_series(2_000, 1_200);
    let csv: Vec<String> = series.values().iter().map(f64::to_string).collect();
    let csv = csv.join("\n");
    client.fit_model("a", "pattern_length=50", &csv).unwrap();
    client.fit_model("b", "pattern_length=50", &csv).unwrap();
    let results = client.score("a", 150, &[series.values().to_vec()]).unwrap();
    let Err((code, _)) = &results[0] else {
        panic!("the injected panic scored: {results:?}");
    };
    assert_eq!(code, "worker_panicked");

    let obs_dir = data_dir.join("obs");
    let postmortem_written = || {
        std::fs::read_dir(&obs_dir)
            .map(|entries| {
                entries
                    .flatten()
                    .any(|e| e.file_name().to_string_lossy().starts_with("postmortem-"))
            })
            .unwrap_or(false)
    };
    for _ in 0..100 {
        if postmortem_written() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    assert!(postmortem_written(), "no postmortem file appeared");

    // One task panicked; the server is still up for everyone else.
    assert!(raw_request(&addr, "GET", "/healthz").starts_with("HTTP/1.1 200"));
    server.kill().unwrap();
    server.wait().unwrap();

    // The postmortem names the panic and carries the in-flight trace of
    // the very request it hit, spans included.
    let files = s2g_obs::journal::read_dir_all(&obs_dir).unwrap();
    let postmortem = files
        .iter()
        .find(|f| f.postmortem)
        .expect("postmortem segment");
    let mut saw_panic = false;
    let mut saw_in_flight = false;
    for event in &postmortem.events {
        match event {
            s2g_obs::journal::JournalEvent::Panic(p) => {
                assert!(p.message.contains("injected panic"), "{}", p.message);
                assert!(p.location.contains("failpoints"), "{}", p.location);
                saw_panic = true;
            }
            s2g_obs::journal::JournalEvent::Trace(t) if t.in_flight => {
                // In-flight traces are registered before routing, under
                // the raw request path.
                assert_eq!(t.route, "POST /models/a/score");
                assert!(t.spans.iter().any(|s| s.name == "store.load"));
                saw_in_flight = true;
            }
            _ => {}
        }
    }
    assert!(saw_panic, "postmortem missing the panic event");
    assert!(saw_in_flight, "postmortem missing the in-flight trace");

    // `obs grep --kind panic` surfaces it offline too.
    let grep = obs(
        s2g,
        &[
            "grep",
            "--journal-dir",
            obs_dir.to_str().unwrap(),
            "--kind",
            "panic",
        ],
    );
    assert!(grep.contains("injected panic"), "{grep}");

    std::fs::remove_dir_all(&data_dir).ok();
}

/// `s2g top --once` with NO_COLOR set (or stdout piped, as here) renders a
/// plain frame: no ANSI clear/home escapes anywhere in the output.
#[test]
fn top_once_honors_no_color() {
    let s2g = env!("CARGO_BIN_EXE_s2g");
    let (mut server, addr) = spawn_server(s2g);

    let top = Command::new(s2g)
        .args(["top", "--addr", &addr, "--once"])
        .env("NO_COLOR", "1")
        .output()
        .unwrap();
    assert!(
        top.status.success(),
        "top failed: {}",
        String::from_utf8_lossy(&top.stderr)
    );
    let frame = String::from_utf8_lossy(&top.stdout);
    assert!(!frame.contains('\x1b'), "ANSI escapes despite NO_COLOR");
    assert!(!frame.is_empty());

    server.kill().unwrap();
    server.wait().unwrap();
}
