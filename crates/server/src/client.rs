//! A minimal blocking client for the `s2g-server` protocol.
//!
//! [`Client`] writes protocol requests and parses NDJSON responses over
//! **persistent** connections: it sends `Connection: keep-alive`, frames
//! responses by `Content-Length`, and when the server agrees to keep the
//! socket open, pools it for the next request — one TCP + one round-trip
//! saved per call. A pooled socket the server has since idle-closed is
//! detected on reuse and transparently replaced by a fresh connection.
//! The typed helpers cover every endpoint; [`Client::request`] is the raw
//! escape hatch.
//!
//! Float fidelity: score values cross the wire as JSON numbers in Rust's
//! shortest round-trip formatting, so the `f64`s this client returns are
//! **bit-identical** to the ones the server computed.

use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::{self, Json, JsonError};

/// Errors produced by the client.
#[derive(Debug)]
pub enum ClientError {
    /// Connecting, writing or reading the socket failed.
    Io(std::io::Error),
    /// The response was not parseable as the expected protocol shape.
    Protocol(String),
    /// The server answered with an error status; carries the protocol
    /// `error` code and `message` fields.
    Api {
        /// HTTP status of the error response.
        status: u16,
        /// Stable protocol error code (e.g. `"unknown_model"`).
        code: String,
        /// Human-readable server message.
        message: String,
    },
    /// The server is temporarily unable to take the request (`429` from
    /// the admission gate, `503` from a degraded store, an expired
    /// deadline, or a closing pool) — retrying later may succeed, and
    /// [`RetryPolicy`] does so automatically for idempotent requests.
    Unavailable {
        /// HTTP status (`429` or `503`).
        status: u16,
        /// Stable protocol error code (e.g. `"overloaded"`,
        /// `"store_degraded"`, `"deadline_exceeded"`).
        code: String,
        /// Human-readable server message.
        message: String,
        /// The server's `Retry-After` hint, when it sent one.
        retry_after: Option<Duration>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Api {
                status,
                code,
                message,
            } => write!(f, "server error {status} ({code}): {message}"),
            ClientError::Unavailable {
                status,
                code,
                message,
                retry_after,
            } => {
                write!(f, "server unavailable {status} ({code}): {message}")?;
                if let Some(after) = retry_after {
                    write!(f, " (retry after {} s)", after.as_secs())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Protocol(e.to_string())
    }
}

/// A raw protocol response: HTTP status plus the NDJSON body lines.
#[derive(Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Non-empty body lines, one JSON document each.
    pub lines: Vec<String>,
    /// The `Retry-After` header in seconds, when the server sent one
    /// (load-shed `429`s do).
    pub retry_after: Option<u64>,
}

impl ClientResponse {
    /// Parses body line `index` as JSON.
    ///
    /// # Errors
    /// [`ClientError::Protocol`] when the line is missing or not JSON.
    pub fn json_line(&self, index: usize) -> Result<Json, ClientError> {
        let line = self
            .lines
            .get(index)
            .ok_or_else(|| ClientError::Protocol(format!("missing response line {index}")))?;
        Ok(Json::parse(line)?)
    }

    /// Converts an error-status response into a typed error; returns
    /// `self` unchanged for 2xx statuses.
    ///
    /// # Errors
    /// [`ClientError::Unavailable`] for `429`/`503` (carrying the
    /// `Retry-After` hint), [`ClientError::Api`] for every other non-2xx
    /// status.
    pub fn into_result(self) -> Result<ClientResponse, ClientError> {
        if (200..300).contains(&self.status) {
            return Ok(self);
        }
        let (code, message) = match self.json_line(0) {
            Ok(body) => (
                body.get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown")
                    .to_string(),
                body.get("message")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            ),
            Err(_) => ("unknown".to_string(), self.lines.join(" ")),
        };
        if matches!(self.status, 429 | 503) {
            return Err(ClientError::Unavailable {
                status: self.status,
                code,
                message,
                retry_after: self.retry_after.map(Duration::from_secs),
            });
        }
        Err(ClientError::Api {
            status: self.status,
            code,
            message,
        })
    }
}

/// How a [`Client`] retries unavailability responses (`429`/`503`).
///
/// Only **idempotent** requests (GET, PUT, DELETE) are ever retried —
/// resending a session push or a shutdown could execute it twice. Each
/// wait is exponential backoff with jitter (so a shed fleet does not
/// re-arrive in lockstep), floored by the server's `Retry-After` hint
/// when one was sent, and the total time spent waiting is capped by
/// `budget`.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Maximum retry attempts after the initial request.
    pub max_retries: u32,
    /// Base backoff: attempt `n` waits a jittered value of roughly
    /// `base_delay * 2^n`.
    pub base_delay: Duration,
    /// Ceiling on any single backoff wait (the `Retry-After` floor may
    /// still exceed it).
    pub max_delay: Duration,
    /// Total wait budget across all retries of one request; once spent,
    /// the unavailability error surfaces to the caller.
    pub budget: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(50),
            max_delay: Duration::from_secs(2),
            budget: Duration::from_secs(10),
        }
    }
}

impl RetryPolicy {
    /// The wait before retry `attempt` (0-based): jittered exponential
    /// backoff, floored by the server's `Retry-After` hint.
    fn delay(&self, attempt: u32, retry_after: Option<Duration>) -> Duration {
        let exp = self
            .base_delay
            .saturating_mul(1u32 << attempt.min(16).min(31));
        // Jitter across [exp/2, exp]: desynchronises a shed fleet without
        // ever waiting less than half the intended backoff.
        let nanos = u64::try_from(exp.as_nanos()).unwrap_or(u64::MAX);
        let half = nanos / 2;
        let span = nanos - half + 1;
        let wait = Duration::from_nanos(half + jitter() % span).min(self.max_delay);
        match retry_after {
            Some(hint) => wait.max(hint),
            None => wait,
        }
    }
}

/// A jitter draw seeded from the wall clock — good enough to spread a
/// retrying fleet, with no RNG dependency.
fn jitter() -> u64 {
    let mut x = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0x9e37_79b9, |d| u64::from(d.subsec_nanos()))
        | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

/// Socket read and write timeout of every request.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);

/// A blocking client addressing one `s2g-server` instance.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    /// When set, [`Client::request_ok`] retries unavailability responses
    /// for idempotent requests under this policy.
    retry: Option<RetryPolicy>,
    /// The keep-alive socket left over from the previous request, if the
    /// server kept it open. One exchange *takes* the socket out under the
    /// lock, so concurrent requests through clones never serialise on each
    /// other — they simply open fresh connections.
    pooled: Arc<Mutex<Option<TcpStream>>>,
}

impl Client {
    /// Creates a client for `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Client {
        Client {
            addr: addr.into(),
            retry: None,
            pooled: Arc::new(Mutex::new(None)),
        }
    }

    /// Enables automatic retries of `429`/`503` responses for idempotent
    /// requests (see [`RetryPolicy`]; off by default).
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.retry = Some(policy);
        self
    }

    fn take_pooled(&self) -> Option<TcpStream> {
        self.pooled.lock().unwrap_or_else(|e| e.into_inner()).take()
    }

    fn store_pooled(&self, stream: Option<TcpStream>) {
        *self.pooled.lock().unwrap_or_else(|e| e.into_inner()) = stream;
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Sends one request and reads the full response. `target` is the path
    /// plus optional query string, e.g. `/models/m/score?query_length=150`.
    ///
    /// # Errors
    /// [`ClientError::Io`] on socket failures, [`ClientError::Protocol`] on
    /// responses outside the protocol subset. Error *statuses* are returned
    /// as `Ok` — use [`ClientResponse::into_result`] to surface them.
    pub fn request(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        // Reuse the pooled keep-alive socket first. A pooled socket may
        // have been idle-closed by the server while it sat in the pool —
        // the classic keep-alive race. The common form of the race is
        // caught *before any bytes are sent*: the server's FIN is already
        // in the socket, so a cheap liveness probe detects it and a fresh
        // connection is used instead — always safe, nothing was sent.
        //
        // A stale-looking failure *after* the request went out (EOF/reset
        // with zero response bytes) is silently retried only for GET:
        // a server that died after executing but before responding is
        // indistinguishable from one that closed before reading, and
        // resending a non-idempotent request (a session push, a delete)
        // could execute it twice — those surface to the caller instead.
        if let Some(stream) = self.take_pooled().filter(pooled_socket_alive) {
            match self.exchange(stream, method, target, body) {
                Ok((response, reusable)) => {
                    self.store_pooled(reusable);
                    return Ok(response);
                }
                Err(e) if method != "GET" || !stale_socket_error(&e) => return Err(e),
                Err(_) => {} // stale pooled socket under GET: reconnect
            }
        }
        let stream = TcpStream::connect(&self.addr)?;
        let (response, reusable) = self.exchange(stream, method, target, body)?;
        self.store_pooled(reusable);
        Ok(response)
    }

    /// Runs one request/response exchange on `stream`. Returns the parsed
    /// response plus the stream itself when the server kept the connection
    /// open (`Connection: keep-alive` on a fully successful exchange).
    fn exchange(
        &self,
        mut stream: TcpStream,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<(ClientResponse, Option<TcpStream>), ClientError> {
        stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
        stream.set_write_timeout(Some(REQUEST_TIMEOUT))?;
        // One write per request (and no Nagle): on a reused connection a
        // separate body segment would wait out the server's delayed ACK.
        let _ = stream.set_nodelay(true);
        let mut wire = format!(
            "{method} {target} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\nConnection: keep-alive\r\n\r\n",
            self.addr,
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(body);
        let write_result = stream.write_all(&wire).and_then(|()| stream.flush());

        // A failed write does not end the exchange: the server may have
        // rejected the request early (e.g. 413 before reading an over-cap
        // body) and its response can still be readable — prefer that
        // response over the local broken-pipe error. A half-written
        // request never leaves the socket reusable.
        match read_framed_response(&mut stream) {
            Ok((response, server_keeps)) => {
                let reusable = write_result.is_ok() && server_keeps;
                Ok((response, reusable.then_some(stream)))
            }
            Err(read_error) => {
                write_result?;
                Err(read_error)
            }
        }
    }

    /// Like [`Client::request`], turning error statuses into typed errors
    /// ([`ClientError::Unavailable`] for `429`/`503`, [`ClientError::Api`]
    /// otherwise). With a [`RetryPolicy`] configured, unavailability
    /// responses to **idempotent** requests (GET, PUT, DELETE) are retried
    /// under it; everything else surfaces immediately.
    ///
    /// # Errors
    /// See [`Client::request`] and [`ClientResponse::into_result`].
    pub fn request_ok(
        &self,
        method: &str,
        target: &str,
        body: &[u8],
    ) -> Result<ClientResponse, ClientError> {
        let idempotent = matches!(method, "GET" | "PUT" | "DELETE");
        let mut attempt = 0u32;
        let mut spent = Duration::ZERO;
        loop {
            let error = match self.request(method, target, body)?.into_result() {
                Err(e @ ClientError::Unavailable { .. }) => e,
                other => return other,
            };
            let Some(policy) = self.retry.as_ref().filter(|_| idempotent) else {
                return Err(error);
            };
            if attempt >= policy.max_retries {
                return Err(error);
            }
            let retry_after = match &error {
                ClientError::Unavailable { retry_after, .. } => *retry_after,
                _ => None,
            };
            let wait = policy.delay(attempt, retry_after);
            if spent + wait > policy.budget {
                return Err(error);
            }
            std::thread::sleep(wait);
            spent += wait;
            attempt += 1;
        }
    }

    // -- typed endpoint helpers --------------------------------------------

    /// `GET /healthz`.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn health(&self) -> Result<Json, ClientError> {
        self.request_ok("GET", "/healthz", b"")?.json_line(0)
    }

    /// `GET /metrics`: the plain-text exposition lines
    /// (`name{labels} value`), verbatim.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn metrics(&self) -> Result<Vec<String>, ClientError> {
        Ok(self.request_ok("GET", "/metrics", b"")?.lines)
    }

    /// `GET /metrics/json`: the machine-readable metrics summary —
    /// gauges plus per-route and per-stage latency histograms
    /// (count/sum/max/mean and p50/p95/p99).
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn metrics_json(&self) -> Result<Json, ClientError> {
        self.request_ok("GET", "/metrics/json", b"")?.json_line(0)
    }

    /// `GET /metrics/history?window=&step=`: the flight recorder's
    /// retained telemetry series (cumulative per-sample summaries plus
    /// the series schema). `window` is in seconds, `0` = everything
    /// retained; `step` keeps every Nth sample.
    ///
    /// # Errors
    /// [`ClientError`] on connection or protocol errors; `404 not_found`
    /// surfaces as [`ClientError::Api`] when sampling is disabled.
    pub fn metrics_history(&self, window_secs: u64, step: usize) -> Result<Json, ClientError> {
        let target = format!("/metrics/history?window={window_secs}&step={step}");
        self.request_ok("GET", &target, b"")?.json_line(0)
    }

    /// `GET /metrics/delta?window=`: counter rates and windowed latency
    /// summaries over the last `window` seconds of retained samples.
    ///
    /// # Errors
    /// [`ClientError`] on connection or protocol errors; `404 not_found`
    /// surfaces as [`ClientError::Api`] when sampling is disabled.
    pub fn metrics_delta(&self, window_secs: u64) -> Result<Json, ClientError> {
        let target = format!("/metrics/delta?window={window_secs}");
        self.request_ok("GET", &target, b"")?.json_line(0)
    }

    /// `GET /watch`: the self-watch board — overall state, warm-up
    /// progress, and per-signal scorer/threshold/score.
    ///
    /// # Errors
    /// [`ClientError`] on connection or protocol errors; `404 not_found`
    /// surfaces as [`ClientError::Api`] when sampling is disabled.
    pub fn watch(&self) -> Result<Json, ClientError> {
        self.request_ok("GET", "/watch", b"")?.json_line(0)
    }

    /// `GET /metrics/journal`: writer health of the durable telemetry
    /// journal — segments, bytes on disk, events written/shed, rotations.
    ///
    /// # Errors
    /// [`ClientError`] on connection or protocol errors; `404 not_found`
    /// surfaces as [`ClientError::Api`] when journaling is disabled.
    pub fn metrics_journal(&self) -> Result<Json, ClientError> {
        self.request_ok("GET", "/metrics/journal", b"")?
            .json_line(0)
    }

    /// `GET /debug/trace/{id}`: the span tree of one retained trace
    /// (ids come from the `X-S2g-Trace` response header or
    /// [`Client::slow_traces`]).
    ///
    /// # Errors
    /// [`ClientError`] on connection or protocol errors; `404 not_found`
    /// surfaces as [`ClientError::Api`] when the trace is no longer
    /// retained.
    pub fn trace(&self, id: &str) -> Result<Json, ClientError> {
        self.request_ok("GET", &format!("/debug/trace/{id}"), b"")?
            .json_line(0)
    }

    /// `GET /debug/slow`: the retained slow-request traces and the active
    /// threshold.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn slow_traces(&self) -> Result<Json, ClientError> {
        self.request_ok("GET", "/debug/slow", b"")?.json_line(0)
    }

    /// `PUT /models/{name}?{query}` with a CSV body (one value per line):
    /// fits and registers a model server-side. Returns the metadata object
    /// (including the `"checksum"` fingerprint).
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn fit_model(&self, name: &str, query: &str, csv_body: &str) -> Result<Json, ClientError> {
        let target = format!("/models/{name}?{query}");
        self.request_ok("PUT", &target, csv_body.as_bytes())?
            .json_line(0)
    }

    /// `GET /models`: metadata for every registered model.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn list_models(&self) -> Result<Vec<Json>, ClientError> {
        let body = self.request_ok("GET", "/models", b"")?.json_line(0)?;
        let models = body
            .get("models")
            .and_then(Json::as_array)
            .ok_or_else(|| ClientError::Protocol("response lacks \"models\" array".into()))?;
        Ok(models.to_vec())
    }

    /// `GET /models/{name}`: metadata for one model.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn model_info(&self, name: &str) -> Result<Json, ClientError> {
        self.request_ok("GET", &format!("/models/{name}"), b"")?
            .json_line(0)
    }

    /// `DELETE /models/{name}`.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn delete_model(&self, name: &str) -> Result<(), ClientError> {
        self.request_ok("DELETE", &format!("/models/{name}"), b"")?;
        Ok(())
    }

    /// `POST /models/{name}/score?query_length=…`: scores a batch of series
    /// (one per line, comma-separated) and returns one result per series in
    /// submission order. Per-series failures surface as `Err` slots with
    /// the protocol error code.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or request-level server
    /// errors (e.g. an unknown model).
    #[allow(clippy::type_complexity)]
    pub fn score(
        &self,
        name: &str,
        query_length: usize,
        series: &[Vec<f64>],
    ) -> Result<Vec<Result<Vec<f64>, (String, String)>>, ClientError> {
        let mut body = String::new();
        for (index, values) in series.iter().enumerate() {
            if values.is_empty() {
                // An empty series would serialize to a blank line, which
                // the server skips — shifting every later result onto the
                // wrong series. Refuse it up front instead.
                return Err(ClientError::Protocol(format!("series {index} is empty")));
            }
            for (i, v) in values.iter().enumerate() {
                if i > 0 {
                    body.push(',');
                }
                let _ = write!(body, "{v}");
            }
            body.push('\n');
        }
        let target = format!("/models/{name}/score?query_length={query_length}");
        let response = self.request_ok("POST", &target, body.as_bytes())?;
        if response.lines.len() != series.len() {
            return Err(ClientError::Protocol(format!(
                "scored {} series but received {} result lines",
                series.len(),
                response.lines.len()
            )));
        }
        (0..response.lines.len())
            .map(|index| score_result(&response, index))
            .collect()
    }

    /// `POST /sessions`: opens a pinned streaming session, returning its id.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn open_session(&self, model: &str, query_length: usize) -> Result<String, ClientError> {
        self.open_session_with(model, query_length, None)
    }

    /// `POST /sessions` with adaptation options: `adapt` is the value of
    /// the body's `"adapt"` member — `Json::Bool(true)` for server
    /// defaults, or an object overriding fields (`lambda`,
    /// `normal_quantile`, `drift_window`, `drift_threshold`,
    /// `publish_interval`, `refit_buffer`, `refit_cooldown`).
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn open_session_with(
        &self,
        model: &str,
        query_length: usize,
        adapt: Option<Json>,
    ) -> Result<String, ClientError> {
        let mut pairs = vec![
            ("model".to_string(), Json::from(model)),
            ("query_length".to_string(), Json::from(query_length)),
        ];
        if let Some(adapt) = adapt {
            pairs.push(("adapt".to_string(), adapt));
        }
        let body = Json::Obj(pairs).encode();
        let response = self.request_ok("POST", "/sessions", body.as_bytes())?;
        let id = response
            .json_line(0)?
            .get("session")
            .and_then(Json::as_str)
            .ok_or_else(|| ClientError::Protocol("response lacks \"session\" id".into()))?
            .to_string();
        Ok(id)
    }

    /// `POST /sessions/{id}/push`: feeds values (one per line over the
    /// wire), returning the emitted `(window_start, normality)` pairs.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors (including
    /// `unknown_session` after idle eviction).
    pub fn push_session(&self, id: &str, values: &[f64]) -> Result<Vec<(usize, f64)>, ClientError> {
        Ok(self.push_session_detailed(id, values)?.0)
    }

    /// Like [`Client::push_session`], additionally returning the session's
    /// `"adapt"` status object (updates, refits, action, drift stats,
    /// published checksum) — present for adaptive sessions, `None` for
    /// frozen ones.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    #[allow(clippy::type_complexity)]
    pub fn push_session_detailed(
        &self,
        id: &str,
        values: &[f64],
    ) -> Result<(Vec<(usize, f64)>, Option<Json>), ClientError> {
        let mut body = String::new();
        for v in values {
            let _ = writeln!(body, "{v}");
        }
        let target = format!("/sessions/{id}/push");
        let response = self.request_ok("POST", &target, body.as_bytes())?;
        response
            .lines
            .first()
            .and_then(|line| json::decode_push_reply(line))
            .ok_or_else(|| ClientError::Protocol("malformed push reply".into()))
    }

    /// `DELETE /sessions/{id}`: closes a session, returning how many points
    /// it consumed.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn close_session(&self, id: &str) -> Result<usize, ClientError> {
        let response = self.request_ok("DELETE", &format!("/sessions/{id}"), b"")?;
        response
            .json_line(0)?
            .get("consumed")
            .and_then(Json::as_usize)
            .ok_or_else(|| ClientError::Protocol("response lacks \"consumed\"".into()))
    }

    /// `POST /admin/shutdown`: asks the server to stop.
    ///
    /// # Errors
    /// [`ClientError`] on connection, protocol or server errors.
    pub fn shutdown_server(&self) -> Result<(), ClientError> {
        self.request_ok("POST", "/admin/shutdown", b"")?;
        Ok(())
    }
}

/// `true` when a just-unpooled socket is still usable: no EOF, no error,
/// no unsolicited bytes waiting (a non-blocking peek). Detects the common
/// stale-keep-alive case — the server idle-closed the pooled socket, its
/// FIN already delivered — before anything is sent, which is the only
/// point where switching to a fresh connection is unconditionally safe.
fn pooled_socket_alive(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return false;
    }
    let alive = match stream.peek(&mut [0u8; 1]) {
        Ok(0) => false,                                               // EOF: server closed
        Ok(_) => false, // unsolicited bytes: protocol state unknown, drop it
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true, // quiet and open
        Err(_) => false,
    };
    alive && stream.set_nonblocking(false).is_ok()
}

/// `true` when a request failure shows the peer closed or reset the
/// connection **before any byte of a response arrived** — the keep-alive
/// race a client may retry on a fresh connection for idempotent requests.
/// Timeouts and partial responses are deliberately excluded: there the
/// request may have been executed, and a resend would double
/// non-idempotent operations. (The zero-byte signature itself cannot
/// distinguish "never read the request" from "died after executing it",
/// which is why even this retry is restricted to GET by the caller.)
fn stale_socket_error(e: &ClientError) -> bool {
    matches!(
        e,
        ClientError::Io(io) if matches!(
            io.kind(),
            std::io::ErrorKind::UnexpectedEof
                | std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
                | std::io::ErrorKind::NotConnected
        )
    )
}

/// Reads exactly one `Content-Length`-framed response from a (possibly
/// persistent) connection. Returns the parsed response and whether the
/// server advertised `Connection: keep-alive` — i.e. whether the socket can
/// carry another request.
fn read_framed_response(stream: &mut TcpStream) -> Result<(ClientResponse, bool), ClientError> {
    const MAX_HEAD: usize = 64 * 1024;
    let mut raw = Vec::new();
    let mut chunk = [0u8; 2048];
    let header_end = loop {
        if let Some(pos) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        if raw.len() > MAX_HEAD {
            return Err(ClientError::Protocol("response head too large".into()));
        }
        let n = match stream.read(&mut chunk) {
            Ok(n) => n,
            // Once any response byte has arrived the server has started
            // executing/answering the request, so a subsequent failure
            // (reset, timeout) must NOT look like the stale-socket race —
            // map it to Protocol so the caller never silently retries a
            // request that may have been executed.
            Err(e) if !raw.is_empty() => {
                return Err(ClientError::Protocol(format!(
                    "connection broken mid-response: {e}"
                )));
            }
            Err(e) => return Err(ClientError::Io(e)),
        };
        if n == 0 && raw.is_empty() {
            // Clean close before any response byte: the stale-pooled-socket
            // signature ([`stale_socket_error`]), kept distinguishable from
            // a mid-response truncation.
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed before any response byte",
            )));
        }
        if n == 0 {
            return Err(ClientError::Protocol(
                "connection closed before a full response head".into(),
            ));
        }
        raw.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| ClientError::Protocol("non-UTF-8 response head".into()))?;
    let mut content_length: Option<usize> = None;
    let mut keep_alive = false;
    for line in head.lines().skip(1) {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.trim().parse().ok();
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = value.trim().eq_ignore_ascii_case("keep-alive");
        }
    }
    let content_length = content_length
        .ok_or_else(|| ClientError::Protocol("response without Content-Length".into()))?;

    // Pull in exactly the declared body (part of it may already sit in
    // `raw` behind the head).
    let body_start = header_end + 4;
    let have = raw.len() - body_start;
    if have < content_length {
        let old_len = raw.len();
        raw.resize(body_start + content_length, 0);
        // The head already arrived, so a body-read failure is mid-response
        // by definition — never the retriable stale-socket race.
        stream
            .read_exact(&mut raw[old_len..])
            .map_err(|e| ClientError::Protocol(format!("connection broken mid-response: {e}")))?;
    } else {
        raw.truncate(body_start + content_length);
    }
    // `raw` may have reallocated since the head was validated; re-slice it.
    let head = std::str::from_utf8(&raw[..header_end])
        .map_err(|_| ClientError::Protocol("non-UTF-8 response head".into()))?;
    Ok((assemble_response(head, &raw[body_start..])?, keep_alive))
}

/// Builds a [`ClientResponse`] from an already-split head and body — the
/// single place status lines and NDJSON bodies are parsed, shared by the
/// framed reader above and [`parse_response`].
fn assemble_response(head: &str, body: &[u8]) -> Result<ClientResponse, ClientError> {
    let status_line = head
        .lines()
        .next()
        .ok_or_else(|| ClientError::Protocol("empty response".into()))?;
    // `HTTP/1.1 200 OK`
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Protocol(format!("bad status line {status_line:?}")))?;
    let retry_after = head.lines().skip(1).find_map(|line| {
        let (name, value) = line.split_once(':')?;
        name.trim()
            .eq_ignore_ascii_case("retry-after")
            .then(|| value.trim().parse().ok())
            .flatten()
    });
    let body = std::str::from_utf8(body)
        .map_err(|_| ClientError::Protocol("non-UTF-8 response body".into()))?;
    let lines = body
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(str::to_string)
        .collect();
    Ok(ClientResponse {
        status,
        lines,
        retry_after,
    })
}

/// Decodes result line `index` of a score response: the series' scores, or
/// the `(code, message)` of an error line. Only an error line is parsed
/// into a [`Json`] tree.
#[allow(clippy::type_complexity)]
fn score_result(
    response: &ClientResponse,
    index: usize,
) -> Result<Result<Vec<f64>, (String, String)>, ClientError> {
    if let Some(scores) = response
        .lines
        .get(index)
        .and_then(|l| json::decode_score_line(l))
    {
        return Ok(Ok(scores));
    }
    let line = response.json_line(index)?;
    let code = line
        .get("error")
        .and_then(Json::as_str)
        .ok_or_else(|| ClientError::Protocol(format!("malformed score result line {index}")))?;
    let message = line.get("message").and_then(Json::as_str).unwrap_or("");
    Ok(Err((code.to_string(), message.to_string())))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a complete raw response buffer (head terminator included)
    /// via [`assemble_response`].
    fn parse_response(raw: &[u8]) -> Result<ClientResponse, ClientError> {
        let header_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| ClientError::Protocol("response without header terminator".into()))?;
        let head = std::str::from_utf8(&raw[..header_end])
            .map_err(|_| ClientError::Protocol("non-UTF-8 response head".into()))?;
        assemble_response(head, &raw[header_end + 4..])
    }

    #[test]
    fn parse_response_splits_status_and_lines() {
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Type: application/x-ndjson\r\nContent-Length: 20\r\n\r\n{\"error\":\"x\"}\n";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.status, 404);
        assert_eq!(response.lines, vec!["{\"error\":\"x\"}".to_string()]);
        assert!(matches!(
            response.into_result(),
            Err(ClientError::Api { status: 404, .. })
        ));
    }

    #[test]
    fn score_results_decode_scores_and_error_lines() {
        let response = ClientResponse {
            status: 200,
            retry_after: None,
            lines: vec![
                r#"{"index":0,"scores":[-0,5e-324,1.5]}"#.to_string(),
                r#"{"index":1,"error":"series_too_short","message":"too short"}"#.to_string(),
                r#"{"index":2}"#.to_string(),
                r#"{"index":3,"scores":[NaN]}"#.to_string(),
            ],
        };
        let scores = score_result(&response, 0).unwrap().unwrap();
        let bits: Vec<u64> = scores.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, [(-0.0f64).to_bits(), 1, 1.5f64.to_bits()]);
        assert_eq!(
            score_result(&response, 1).unwrap(),
            Err(("series_too_short".to_string(), "too short".to_string()))
        );
        // Neither a score line nor an error line; and not JSON at all.
        for index in [2, 3, 4] {
            assert!(matches!(
                score_result(&response, index),
                Err(ClientError::Protocol(_))
            ));
        }
    }

    #[test]
    fn parse_response_rejects_garbage() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn unavailability_statuses_surface_typed_with_retry_after() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 3\r\nContent-Length: 46\r\n\r\n{\"error\":\"overloaded\",\"message\":\"queue full\"}\n";
        let response = parse_response(raw).unwrap();
        assert_eq!(response.retry_after, Some(3));
        match response.into_result() {
            Err(ClientError::Unavailable {
                status,
                code,
                retry_after,
                ..
            }) => {
                assert_eq!(status, 429);
                assert_eq!(code, "overloaded");
                assert_eq!(retry_after, Some(Duration::from_secs(3)));
            }
            other => panic!("expected Unavailable, got {other:?}"),
        }
        // 503 without a hint is still Unavailable; 404 stays Api.
        let raw = b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 49\r\n\r\n{\"error\":\"store_degraded\",\"message\":\"disk full\"}\n";
        assert!(matches!(
            parse_response(raw).unwrap().into_result(),
            Err(ClientError::Unavailable {
                status: 503,
                retry_after: None,
                ..
            })
        ));
        let raw = b"HTTP/1.1 404 Not Found\r\nContent-Length: 40\r\n\r\n{\"error\":\"not_found\",\"message\":\"nope\"}\n";
        assert!(matches!(
            parse_response(raw).unwrap().into_result(),
            Err(ClientError::Api { status: 404, .. })
        ));
    }

    #[test]
    fn retry_policy_backs_off_and_honors_retry_after() {
        let policy = RetryPolicy {
            max_retries: 3,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_millis(250),
            budget: Duration::from_secs(5),
        };
        for _ in 0..20 {
            // Attempt 0 jitters within [base/2, base].
            let d = policy.delay(0, None);
            assert!(d >= Duration::from_millis(50) && d <= Duration::from_millis(100));
            // Attempt 2 would be 400 ms — clamped to max_delay.
            assert!(policy.delay(2, None) <= Duration::from_millis(250));
            // The server's hint floors the wait, even past max_delay.
            assert_eq!(
                policy.delay(0, Some(Duration::from_secs(2))),
                Duration::from_secs(2)
            );
        }
    }
}
