//! Error-path coverage for every protocol failure class documented in
//! `docs/PROTOCOL.md`: malformed framing, oversized bodies, unknown
//! resources, semantically invalid inputs, and session idle eviction.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use s2g_server::{Client, ClientError, Server, ServerConfig, ShutdownHandle};

fn start_server(config: ServerConfig) -> (String, ShutdownHandle, thread::JoinHandle<()>) {
    let server = Server::bind(config.with_addr("127.0.0.1:0")).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = thread::spawn(move || server.run().unwrap());
    (addr, handle, thread)
}

fn sine_csv(n: usize) -> String {
    (0..n)
        .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / 80.0).sin()))
        .collect()
}

/// Writes raw bytes to the server and returns the full response text.
fn raw_exchange(addr: &str, payload: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(payload).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn api_error(result: Result<impl std::fmt::Debug, ClientError>) -> (u16, String) {
    match result {
        Err(ClientError::Api { status, code, .. }) => (status, code),
        other => panic!("expected ClientError::Api, got {other:?}"),
    }
}

#[test]
fn malformed_request_lines_get_400() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());

    let response = raw_exchange(&addr, b"THIS IS NOT HTTP\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400 Bad Request"));
    assert!(response.contains("\"error\":\"malformed_request\""));

    let response = raw_exchange(&addr, b"GET /models SPDY/99\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 400"));

    // An unknown method gets 405 before routing.
    let response = raw_exchange(&addr, b"BREW /models HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405"));
    assert!(response.contains("\"error\":\"method_not_allowed\""));

    // A known path with the wrong method also gets 405, from the router.
    let response = raw_exchange(&addr, b"DELETE /healthz HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 405"));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn oversized_bodies_are_rejected_with_413() {
    let config = ServerConfig::default().with_max_body_bytes(1024);
    let (addr, handle, server_thread) = start_server(config);

    // Declared Content-Length beyond the cap: rejected before the body is
    // read — the client never needs to send the 1 MiB.
    let head = "PUT /models/big?pattern_length=50 HTTP/1.1\r\nContent-Length: 1048576\r\n\r\n";
    let response = raw_exchange(&addr, head.as_bytes());
    assert!(response.starts_with("HTTP/1.1 413 Payload Too Large"));
    assert!(response.contains("\"error\":\"body_too_large\""));

    // Under the cap still works end to end (the cap, not the code path,
    // rejected the big one). 1000 bytes of CSV fit fine.
    let client = Client::new(addr);
    let result = client.fit_model("small", "pattern_length=50", &sine_csv(40));
    // Too short to *fit*, but accepted as a body: proves the 413 boundary.
    let (status, code) = api_error(result);
    assert_eq!((status, code.as_str()), (422, "series_too_short"));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn unknown_models_and_endpoints_get_404() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr.clone());

    let (status, code) = api_error(client.score("ghost", 100, &[vec![0.0; 500]]));
    assert_eq!((status, code.as_str()), (404, "unknown_model"));

    let (status, code) = api_error(client.model_info("ghost"));
    assert_eq!((status, code.as_str()), (404, "unknown_model"));

    let (status, code) = api_error(client.delete_model("ghost"));
    assert_eq!((status, code.as_str()), (404, "unknown_model"));

    let (status, code) = api_error(client.open_session("ghost", 100));
    assert_eq!((status, code.as_str()), (404, "unknown_model"));

    let response = raw_exchange(&addr, b"GET /nope/nothing HTTP/1.1\r\n\r\n");
    assert!(response.starts_with("HTTP/1.1 404"));
    assert!(response.contains("\"error\":\"not_found\""));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn invalid_inputs_get_400_or_422() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr.clone());
    client
        .fit_model("model", "pattern_length=50", &sine_csv(2000))
        .unwrap();

    // Scoring a series shorter than the model window (ℓ = 50): the
    // per-series slot reports the semantic error, in order.
    let results = client
        .score("model", 150, &[vec![0.0; 20], sine_csv_values(600)])
        .unwrap();
    let (code, _) = results[0].as_ref().unwrap_err();
    assert_eq!(code, "series_too_short");
    assert!(results[1].is_ok());

    // A query length below the pattern length is rejected per series too.
    let results = client.score("model", 10, &[sine_csv_values(600)]).unwrap();
    let (code, _) = results[0].as_ref().unwrap_err();
    assert_eq!(code, "query_too_short");

    // Missing / unparseable parameters.
    let response = client.request("PUT", "/models/m2", sine_csv(2000).as_bytes());
    let (status, code) = api_error(response.unwrap().into_result());
    assert_eq!((status, code.as_str()), (400, "bad_request"));

    let response = client.request("POST", "/models/model/score", b"1\n2\n");
    assert_eq!(response.unwrap().status, 400);

    // Unparseable CSV body.
    let result = client.fit_model("m3", "pattern_length=50", "1.0\nnot-a-number\n");
    let (status, code) = api_error(result);
    assert_eq!((status, code.as_str()), (400, "invalid_csv"));

    // A header line is tolerated by score exactly as it is by fit; an
    // unparseable value past line 1 is not.
    let with_header = format!(
        "value\n{}\n",
        sine_csv_values(600)
            .iter()
            .map(f64::to_string)
            .collect::<Vec<_>>()
            .join(",")
    );
    let response = client
        .request(
            "POST",
            "/models/model/score?query_length=150",
            with_header.as_bytes(),
        )
        .unwrap()
        .into_result()
        .unwrap();
    assert_eq!(response.lines.len(), 1, "header line must not score");
    let response = client.request(
        "POST",
        "/models/model/score?query_length=150",
        b"1,2\n3,oops\n",
    );
    let (status, code) = api_error(response.unwrap().into_result());
    assert_eq!((status, code.as_str()), (400, "invalid_csv"));

    // A first line whose first field is a number is data, not a header: a
    // bad token on it is refused, naming line 1 and the token, instead of
    // the line being dropped and every later result renumbered.
    let body = b"1.5,abc,2.0\n3,4,5\n";
    let response = raw_exchange(
        &addr,
        &[
            format!(
                "POST /models/model/score?query_length=150 HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                body.len()
            )
            .as_bytes(),
            body,
        ]
        .concat(),
    );
    assert!(response.starts_with("HTTP/1.1 400 "), "{response}");
    assert!(response.contains(r#""error":"invalid_csv""#), "{response}");
    assert!(
        response.contains(r#"cannot parse \"abc\" as a number on line 1"#),
        "{response}"
    );

    // An empty series is refused client-side before it can desynchronise
    // the batch indexing.
    let err = client
        .score("model", 150, &[vec![], sine_csv_values(600)])
        .unwrap_err();
    assert!(matches!(err, ClientError::Protocol(_)));

    // Invalid model names: 422, since they can never be registered or
    // stored (names double as store file names).
    for target in [
        "/models/bad%20name?pattern_length=50",
        "/models/..?pattern_length=50",
    ] {
        let response = client.request("PUT", target, b"1\n");
        let (status, code) = api_error(response.unwrap().into_result());
        assert_eq!((status, code.as_str()), (422, "invalid_name"), "{target}");
    }

    // Malformed session body.
    let response = client.request("POST", "/sessions", b"{not json");
    let (status, code) = api_error(response.unwrap().into_result());
    assert_eq!((status, code.as_str()), (400, "bad_request"));

    handle.shutdown();
    server_thread.join().unwrap();
}

#[test]
fn non_finite_values_get_422_on_fit_score_and_push() {
    let (addr, handle, server_thread) = start_server(ServerConfig::default());
    let client = Client::new(addr);
    client
        .fit_model("model", "pattern_length=40", &sine_csv(2000))
        .unwrap();
    let session = client.open_session("model", 160).unwrap();

    let expect_422 = |method: &str, target: &str, body: String, line: &str, token: &str| {
        let response = client.request(method, target, body.as_bytes()).unwrap();
        match response.into_result() {
            Err(ClientError::Api {
                status,
                code,
                message,
            }) => {
                assert_eq!(
                    (status, code.as_str()),
                    (422, "non_finite_value"),
                    "{target}"
                );
                assert!(
                    message.contains(line) && message.contains(token),
                    "{target}: message {message:?} must name {line} and {token:?}"
                );
            }
            other => panic!("{target}: expected 422 non_finite_value, got {other:?}"),
        }
    };

    // Fit: a `nan` on line 1 is a value, not a header row.
    expect_422(
        "PUT",
        "/models/poisoned?pattern_length=40",
        format!("nan\n{}", sine_csv(2000)),
        "line 1",
        "nan",
    );
    // Score: one comma-separated series per line.
    let clean: Vec<String> = sine_csv_values(600).iter().map(f64::to_string).collect();
    let mut poisoned = clean.clone();
    poisoned[300] = "inf".to_string();
    expect_422(
        "POST",
        "/models/model/score?query_length=150",
        format!("{}\n{}\n", clean.join(","), poisoned.join(",")),
        "line 2",
        "inf",
    );
    // Push: one value per line, like fit.
    expect_422(
        "POST",
        &format!("/sessions/{session}/push"),
        "0.1\n-inf\n0.3\n".to_string(),
        "line 2",
        "-inf",
    );
    assert!(
        client.model_info("poisoned").is_err(),
        "a rejected fit must register nothing"
    );

    handle.shutdown();
    server_thread.join().unwrap();
}

fn sine_csv_values(n: usize) -> Vec<f64> {
    (0..n)
        .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
        .collect()
}

#[test]
fn idle_sessions_are_evicted_and_push_gets_404() {
    let config = ServerConfig::default().with_session_idle(Some(Duration::from_millis(80)));
    let (addr, handle, server_thread) = start_server(config);
    let client = Client::new(addr);
    client
        .fit_model("model", "pattern_length=40", &sine_csv(2000))
        .unwrap();

    // An active session survives as long as pushes keep arriving.
    let session = client.open_session("model", 160).unwrap();
    for _ in 0..3 {
        thread::sleep(Duration::from_millis(30));
        client.push_session(&session, &[0.1, 0.2]).unwrap();
    }

    // Once idle past the timeout, the sweeper evicts it and a later push
    // reports unknown_session.
    thread::sleep(Duration::from_millis(400));
    let (status, code) = api_error(client.push_session(&session, &[0.3]));
    assert_eq!((status, code.as_str()), (404, "unknown_session"));
    let health = client.health().unwrap();
    assert_eq!(health.get("sessions").unwrap().as_usize(), Some(0));

    handle.shutdown();
    server_thread.join().unwrap();
}
