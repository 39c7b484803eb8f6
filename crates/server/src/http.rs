//! Minimal HTTP/1.1 subset: request parsing and response writing.
//!
//! The server speaks just enough HTTP to be driven by any stock HTTP client
//! (`curl` included) while staying dependency-free:
//!
//! * request line `METHOD SP /path[?query] SP HTTP/1.1`, CRLF line endings;
//! * headers until an empty line; `Content-Length` and `Connection` are
//!   interpreted, the rest are skipped;
//! * bodies require an explicit `Content-Length` (no chunked encoding);
//! * connections are **persistent** by default for HTTP/1.1
//!   (`Connection: close` opts out) and close by default for HTTP/1.0
//!   (`Connection: keep-alive` opts in). Error responses (status ≥ 400)
//!   always close. The response's `Connection` header states what the
//!   server actually did.
//!
//! Hard limits protect the server from hostile or broken peers: an
//! over-long request line or header section is rejected with `400`, a body
//! larger than the configured cap with `413` — *before* the body is read
//! into memory. See `docs/PROTOCOL.md` for the full wire contract.

use std::io::{BufRead, Write};

/// Maximum accepted request-line length in bytes.
pub const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Maximum accepted size of one header line in bytes.
pub const MAX_HEADER_LINE: usize = 8 * 1024;
/// Maximum accepted number of headers.
pub const MAX_HEADERS: usize = 64;

/// The request methods the server understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// `GET`
    Get,
    /// `PUT`
    Put,
    /// `POST`
    Post,
    /// `DELETE`
    Delete,
}

impl Method {
    fn from_token(token: &str) -> Option<Method> {
        match token {
            "GET" => Some(Method::Get),
            "PUT" => Some(Method::Put),
            "POST" => Some(Method::Post),
            "DELETE" => Some(Method::Delete),
            _ => None,
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Method::Get => "GET",
            Method::Put => "PUT",
            Method::Post => "POST",
            Method::Delete => "DELETE",
        })
    }
}

/// A parsed request: method, path split into segments, query pairs, body.
#[derive(Debug)]
pub struct Request {
    /// The request method.
    pub method: Method,
    /// The raw path as sent (before the `?`), e.g. `/models/turbine`.
    pub path: String,
    /// Path split on `/` with empty segments dropped,
    /// e.g. `["models", "turbine"]`.
    pub segments: Vec<String>,
    /// `key=value` pairs from the query string, in order.
    pub query: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the peer asked to keep the connection open after the
    /// response: HTTP/1.1 unless `Connection: close`, HTTP/1.0 only with
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
    /// Request deadline budget from the `X-S2g-Deadline-Ms` header, in
    /// milliseconds from arrival. Work still queued when the budget runs
    /// out is answered `503 deadline_exceeded` without executing.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// First value of a query parameter, if present.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 text.
    ///
    /// # Errors
    /// [`ParseError::Malformed`] when the body is not valid UTF-8.
    pub fn body_text(&self) -> Result<&str, ParseError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| ParseError::Malformed("request body is not valid UTF-8"))
    }
}

/// Why a request could not be parsed.
#[derive(Debug, PartialEq, Eq)]
pub enum ParseError {
    /// The peer closed the connection before sending a request line.
    /// Not an error worth responding to (e.g. a health probe connecting
    /// and hanging up); the connection is simply dropped.
    ConnectionClosed,
    /// The request violates the accepted HTTP subset; the message says how.
    Malformed(&'static str),
    /// The method token is not one of GET/PUT/POST/DELETE.
    UnknownMethod,
    /// The declared `Content-Length` exceeds the configured cap.
    BodyTooLarge {
        /// Declared body size in bytes.
        declared: usize,
        /// Configured maximum body size in bytes.
        limit: usize,
    },
    /// The underlying socket failed mid-request.
    Io(std::io::ErrorKind),
}

/// Reads and parses one request from a buffered stream.
///
/// The reader is taken as [`BufRead`] (not wrapped internally) so that a
/// **persistent connection can keep one buffer across requests**: any
/// bytes of a pipelined next request that read-ahead pulls in survive in
/// the caller's `BufReader` instead of being dropped with a throwaway one,
/// which would desynchronise the connection.
///
/// `max_body_bytes` caps the accepted `Content-Length`; a larger declared
/// body is rejected as [`ParseError::BodyTooLarge`] without reading it.
///
/// # Example
///
/// ```
/// use s2g_server::http::{read_request, Method};
///
/// let raw: &[u8] = b"PUT /models/pump-7?pattern_length=50 HTTP/1.1\r\n\
///                    Content-Length: 4\r\n\r\n1\n2\n";
/// let request = read_request(raw, 1024).unwrap();
/// assert_eq!(request.method, Method::Put);
/// assert_eq!(request.segments, vec!["models", "pump-7"]);
/// assert_eq!(request.query_param("pattern_length"), Some("50"));
/// assert_eq!(request.body_text().unwrap(), "1\n2\n");
/// ```
///
/// # Errors
/// [`ParseError`] describing the first violation encountered.
pub fn read_request<R: BufRead>(
    mut reader: R,
    max_body_bytes: usize,
) -> Result<Request, ParseError> {
    let request_line = read_crlf_line(&mut reader, MAX_REQUEST_LINE)?;
    if request_line.is_empty() {
        return Err(ParseError::ConnectionClosed);
    }
    let mut parts = request_line.split(' ');
    let (Some(method_token), Some(target), Some(version), None) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Err(ParseError::Malformed(
            "request line must be `METHOD SP TARGET SP VERSION`",
        ));
    };
    let method = Method::from_token(method_token).ok_or(ParseError::UnknownMethod)?;
    if !matches!(version, "HTTP/1.1" | "HTTP/1.0") {
        return Err(ParseError::Malformed("unsupported HTTP version"));
    }
    if !target.starts_with('/') {
        return Err(ParseError::Malformed("request target must start with '/'"));
    }

    // Headers: Content-Length and Connection are interpreted, the rest are
    // skipped. Persistence defaults follow the HTTP version: 1.1 keeps the
    // connection unless told otherwise, 1.0 closes unless told otherwise.
    let mut content_length: usize = 0;
    let mut keep_alive = version == "HTTP/1.1";
    let mut deadline_ms: Option<u64> = None;
    for _ in 0..MAX_HEADERS {
        let line = read_crlf_line(&mut reader, MAX_HEADER_LINE)?;
        if line.is_empty() {
            let body = read_body(&mut reader, content_length, max_body_bytes)?;
            return Ok(build_request(method, target, body, keep_alive, deadline_ms));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ParseError::Malformed("header line without ':'"));
        };
        let name = name.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| ParseError::Malformed("unparseable Content-Length"))?;
        } else if name.eq_ignore_ascii_case("x-s2g-deadline-ms") {
            deadline_ms = Some(
                value
                    .trim()
                    .parse()
                    .map_err(|_| ParseError::Malformed("unparseable X-S2g-Deadline-Ms"))?,
            );
        } else if name.eq_ignore_ascii_case("connection") {
            // Token list; the tokens we honor are `close` and `keep-alive`.
            for token in value.split(',') {
                let token = token.trim();
                if token.eq_ignore_ascii_case("close") {
                    keep_alive = false;
                } else if token.eq_ignore_ascii_case("keep-alive") {
                    keep_alive = true;
                }
            }
        }
    }
    Err(ParseError::Malformed("too many headers"))
}

fn read_body<R: BufRead>(
    reader: &mut R,
    content_length: usize,
    max_body_bytes: usize,
) -> Result<Vec<u8>, ParseError> {
    if content_length > max_body_bytes {
        return Err(ParseError::BodyTooLarge {
            declared: content_length,
            limit: max_body_bytes,
        });
    }
    let mut body = vec![0u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|e| ParseError::Io(e.kind()))?;
    Ok(body)
}

fn build_request(
    method: Method,
    target: &str,
    body: Vec<u8>,
    keep_alive: bool,
    deadline_ms: Option<u64>,
) -> Request {
    let (path, query_text) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let segments = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect();
    let query = query_text
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();
    Request {
        method,
        path: path.to_string(),
        segments,
        query,
        body,
        keep_alive,
        deadline_ms,
    }
}

/// Reads one CRLF-terminated line (the CRLF is stripped; a bare LF is
/// tolerated). Returns an empty string for a blank line *or* a cleanly
/// closed stream — callers distinguish via context.
fn read_crlf_line<R: BufRead>(reader: &mut R, max_len: usize) -> Result<String, ParseError> {
    let mut line = Vec::new();
    loop {
        let mut byte = [0u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => break, // EOF
            Ok(_) => {
                if byte[0] == b'\n' {
                    break;
                }
                line.push(byte[0]);
                if line.len() > max_len {
                    return Err(ParseError::Malformed("line too long"));
                }
            }
            Err(e) => return Err(ParseError::Io(e.kind())),
        }
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| ParseError::Malformed("non-UTF-8 header bytes"))
}

/// An HTTP response about to be written: status code plus a body — NDJSON
/// lines for the API endpoints, plain text for `/metrics`.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code (200, 400, 404, …).
    pub status: u16,
    /// Body lines; each is one JSON document (or one plain-text line),
    /// joined with `\n`.
    pub lines: Vec<String>,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// When set, emitted as an `X-S2g-Trace` response header — the id to
    /// feed `GET /debug/trace/{id}` for the request's span tree.
    pub trace_id: Option<String>,
    /// When set, emitted as a `Retry-After: <seconds>` response header —
    /// load-shed responses (`429`) tell the client when to come back.
    pub retry_after: Option<u64>,
}

/// Content type of the NDJSON API responses.
pub const CONTENT_TYPE_NDJSON: &str = "application/x-ndjson";
/// Content type of plain-text responses (`/metrics`).
pub const CONTENT_TYPE_TEXT: &str = "text/plain; charset=utf-8";

impl Response {
    /// A `200 OK` response with the given NDJSON lines.
    pub fn ok(lines: Vec<String>) -> Response {
        Response {
            status: 200,
            lines,
            content_type: CONTENT_TYPE_NDJSON,
            trace_id: None,
            retry_after: None,
        }
    }

    /// A `200 OK` plain-text response (one string per line).
    pub fn plain_text(lines: Vec<String>) -> Response {
        Response {
            status: 200,
            lines,
            content_type: CONTENT_TYPE_TEXT,
            trace_id: None,
            retry_after: None,
        }
    }

    /// The canonical reason phrase for the status codes the server emits.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            429 => "Too Many Requests",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response head + body with `Connection: close`
    /// (the non-persistent form; see [`Response::write_to_conn`]).
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to<W: Write>(&self, w: W) -> std::io::Result<()> {
        self.write_to_conn(w, false)
    }

    /// Serializes the response head + body, advertising in the
    /// `Connection` header whether the server keeps the connection open
    /// (`keep_alive`) for the next request on the same socket.
    ///
    /// # Errors
    /// Propagates socket write failures.
    pub fn write_to_conn<W: Write>(&self, mut w: W, keep_alive: bool) -> std::io::Result<()> {
        // The body is the lines joined with `\n`, plus a final `\n` when
        // that join is not empty; it is copied once, straight after the head.
        let joined_len =
            self.lines.iter().map(String::len).sum::<usize>() + self.lines.len().saturating_sub(1);
        let connection = if keep_alive { "keep-alive" } else { "close" };
        let body_len = if joined_len == 0 { 0 } else { joined_len + 1 };
        let trace_header = match &self.trace_id {
            Some(id) => format!("X-S2g-Trace: {id}\r\n"),
            None => String::new(),
        };
        let retry_header = match self.retry_after {
            Some(secs) => format!("Retry-After: {secs}\r\n"),
            None => String::new(),
        };
        // Head and body go out in a single write: on a persistent
        // connection a trailing small segment would otherwise sit in the
        // kernel behind Nagle's algorithm until the peer's delayed ACK
        // (tens of milliseconds) — the old close-per-request design never
        // noticed because the FIN flushed it.
        let mut wire = format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: {connection}\r\n{trace_header}{retry_header}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            body_len,
        )
        .into_bytes();
        wire.reserve_exact(body_len);
        for (i, line) in self.lines.iter().enumerate() {
            if i > 0 {
                wire.push(b'\n');
            }
            wire.extend_from_slice(line.as_bytes());
        }
        if body_len > 0 {
            wire.push(b'\n');
        }
        w.write_all(&wire)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &[u8]) -> Result<Request, ParseError> {
        read_request(raw, 1024)
    }

    #[test]
    fn parses_full_request() {
        let raw = b"POST /models/m-1/score?query_length=150&top_k=3 HTTP/1.1\r\nHost: x\r\nContent-Length: 8\r\n\r\n1\n2\n3.5\n";
        let req = parse(raw).unwrap();
        assert_eq!(req.method, Method::Post);
        assert_eq!(req.path, "/models/m-1/score");
        assert_eq!(req.segments, vec!["models", "m-1", "score"]);
        assert_eq!(req.query_param("query_length"), Some("150"));
        assert_eq!(req.query_param("top_k"), Some("3"));
        assert_eq!(req.query_param("missing"), None);
        assert_eq!(req.body_text().unwrap(), "1\n2\n3.5\n");
    }

    #[test]
    fn parses_bodyless_get() {
        let req = parse(b"GET /models HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, Method::Get);
        assert!(req.body.is_empty());
        assert!(req.query.is_empty());
    }

    #[test]
    fn connection_persistence_follows_version_and_header() {
        // HTTP/1.1 defaults to keep-alive…
        assert!(parse(b"GET /models HTTP/1.1\r\n\r\n").unwrap().keep_alive);
        // …unless the peer opts out.
        assert!(
            !parse(b"GET /models HTTP/1.1\r\nConnection: close\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        // HTTP/1.0 defaults to close…
        assert!(!parse(b"GET /models HTTP/1.0\r\n\r\n").unwrap().keep_alive);
        // …unless the peer opts in (any case, token lists allowed).
        assert!(
            parse(b"GET /models HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n")
                .unwrap()
                .keep_alive
        );
        assert!(
            !parse(b"GET /models HTTP/1.1\r\nConnection: foo, CLOSE\r\n\r\n")
                .unwrap()
                .keep_alive
        );
    }

    #[test]
    fn response_advertises_keep_alive() {
        let mut out = Vec::new();
        Response::ok(vec!["{}".to_string()])
            .write_to_conn(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Connection: keep-alive\r\n"));
    }

    #[test]
    fn response_body_is_the_newline_joined_lines() {
        for lines in [&[][..], &[""], &["", ""], &["a"], &["{\"a\":1}", "", "b"]] {
            let mut out = Vec::new();
            Response::ok(lines.iter().map(|l| l.to_string()).collect())
                .write_to_conn(&mut out, false)
                .unwrap();
            let text = String::from_utf8(out).unwrap();
            let (head, body) = text.split_once("\r\n\r\n").unwrap();
            let joined = lines.join("\n");
            let expected = if joined.is_empty() {
                joined
            } else {
                joined + "\n"
            };
            assert_eq!(body, expected, "{lines:?}");
            assert!(head.contains(&format!("Content-Length: {}\r\n", expected.len())));
        }
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert!(matches!(
            parse(b"GARBAGE\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(parse(b""), Err(ParseError::ConnectionClosed)));
        assert!(matches!(
            parse(b"BREW /models HTTP/1.1\r\n\r\n"),
            Err(ParseError::UnknownMethod)
        ));
        assert!(matches!(
            parse(b"GET /models HTTP/0.9\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET models HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"GET /a b /c HTTP/1.1\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_oversized_bodies_by_declared_length() {
        let raw = b"PUT /models/big HTTP/1.1\r\nContent-Length: 2048\r\n\r\n";
        assert!(matches!(
            parse(raw),
            Err(ParseError::BodyTooLarge {
                declared: 2048,
                limit: 1024
            })
        ));
    }

    #[test]
    fn rejects_bad_content_length_and_truncated_bodies() {
        assert!(matches!(
            parse(b"PUT /m HTTP/1.1\r\nContent-Length: abc\r\n\r\n"),
            Err(ParseError::Malformed(_))
        ));
        assert!(matches!(
            parse(b"PUT /m HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ParseError::Io(_))
        ));
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        Response::ok(vec!["{\"a\":1}".to_string()])
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 8\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}\n"));
    }
}
