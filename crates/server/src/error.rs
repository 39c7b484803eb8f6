//! Error handling of the serving layer: every failure maps to one HTTP
//! status plus a machine-readable error code, exactly as specified in
//! `docs/PROTOCOL.md`.

use crate::http::{ParseError, Response};
use crate::json::Json;

/// An API-level failure: HTTP status, stable error code, human message.
///
/// The `code` strings are part of the wire protocol (clients may switch on
/// them); the `message` is free-form diagnostic text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status the error is reported with.
    pub status: u16,
    /// Stable machine-readable error code (e.g. `"unknown_model"`).
    pub code: &'static str,
    /// Human-readable diagnostic message.
    pub message: String,
    /// When set, the response carries a `Retry-After: <seconds>` header
    /// (load-shed `429`s tell the client when to come back).
    pub retry_after: Option<u64>,
}

impl ApiError {
    /// Builds an error from its parts.
    pub fn new(status: u16, code: &'static str, message: impl Into<String>) -> ApiError {
        ApiError {
            status,
            code,
            message: message.into(),
            retry_after: None,
        }
    }

    /// This error with a `Retry-After` hint of `secs` seconds.
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> ApiError {
        self.retry_after = Some(secs);
        self
    }

    /// `429 overloaded` with a `Retry-After` hint — the admission gate's
    /// load-shed response.
    pub fn overloaded(message: impl Into<String>, retry_after_secs: u64) -> ApiError {
        ApiError::new(429, "overloaded", message).with_retry_after(retry_after_secs)
    }

    /// `400 bad_request`.
    pub fn bad_request(message: impl Into<String>) -> ApiError {
        ApiError::new(400, "bad_request", message)
    }

    /// `404 not_found`.
    pub fn not_found(message: impl Into<String>) -> ApiError {
        ApiError::new(404, "not_found", message)
    }

    /// The error rendered as its protocol JSON line,
    /// `{"error":code,"message":text}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("error", Json::from(self.code)),
            ("message", Json::from(self.message.clone())),
        ])
    }

    /// The error rendered as a complete HTTP response.
    pub fn to_response(&self) -> Response {
        Response {
            status: self.status,
            lines: vec![self.to_json().encode()],
            content_type: crate::http::CONTENT_TYPE_NDJSON,
            trace_id: None,
            retry_after: self.retry_after,
        }
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}: {}", self.status, self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

impl From<ParseError> for ApiError {
    fn from(e: ParseError) -> Self {
        match e {
            ParseError::ConnectionClosed => {
                // Callers drop the connection instead of responding; this
                // mapping exists only for completeness.
                ApiError::bad_request("connection closed before a request was sent")
            }
            ParseError::Malformed(what) => ApiError::new(
                400,
                "malformed_request",
                format!("malformed request: {what}"),
            ),
            ParseError::UnknownMethod => {
                ApiError::new(405, "method_not_allowed", "unsupported request method")
            }
            ParseError::BodyTooLarge { declared, limit } => ApiError::new(
                413,
                "body_too_large",
                format!("declared body of {declared} bytes exceeds the {limit}-byte limit"),
            ),
            ParseError::Io(kind) => ApiError::new(
                400,
                "malformed_request",
                format!("request i/o failed: {kind:?}"),
            ),
        }
    }
}

impl From<s2g_engine::Error> for ApiError {
    fn from(e: s2g_engine::Error) -> Self {
        use s2g_engine::Error as E;
        match &e {
            E::UnknownModel(name) => {
                ApiError::new(404, "unknown_model", format!("no model named {name:?}"))
            }
            E::UnknownStream(id) => ApiError::new(
                404,
                "unknown_session",
                format!("no open session {id:?} (it may have been evicted)"),
            ),
            E::StreamExists(id) => ApiError::new(
                409,
                "session_exists",
                format!("session {id:?} already open"),
            ),
            E::Core(core) => ApiError::from_core(core, e.to_string()),
            E::PoolClosed => ApiError::new(503, "pool_closed", e.to_string()),
            // The queued work expired before a worker picked it up; the
            // client chose the budget, so this is unavailability, not a
            // client mistake.
            E::DeadlineExceeded => ApiError::new(503, "deadline_exceeded", e.to_string()),
            // The store refuses writes until its disk recovers; reads (and
            // therefore scoring) keep working, so only write routes see it.
            E::StoreDegraded => ApiError::new(503, "store_degraded", e.to_string()),
            // The task's compute panicked; the worker survived and the
            // request gets a clean 500 instead of a dropped connection.
            E::WorkerPanicked => ApiError::new(500, "worker_panicked", e.to_string()),
            // The name is syntactically fine HTTP but semantically unusable
            // as a model/store identifier.
            E::InvalidName(_) => ApiError::new(422, "invalid_name", e.to_string()),
            // Store failures (I/O, corrupt file discovered at fault time)
            // are server-side conditions, not client mistakes.
            E::Io(_) | E::Storage(_) => ApiError::new(500, "storage", e.to_string()),
            _ => ApiError::new(500, "internal", e.to_string()),
        }
    }
}

impl ApiError {
    fn from_core(core: &s2g_core::Error, message: String) -> ApiError {
        use s2g_core::Error as C;
        match core {
            // The posted data cannot produce / be scored by a model:
            // semantically invalid input rather than a malformed request.
            C::SeriesTooShort { .. } => ApiError::new(422, "series_too_short", message),
            C::QueryShorterThanPattern { .. } => ApiError::new(422, "query_too_short", message),
            C::DegenerateEmbedding(_) => ApiError::new(422, "degenerate_series", message),
            C::NonFiniteValue { .. } => ApiError::new(422, "non_finite_value", message),
            C::InvalidConfig(_) => ApiError::new(400, "invalid_config", message),
            _ => ApiError::new(500, "internal", message),
        }
    }
}

impl From<s2g_core::Error> for ApiError {
    fn from(e: s2g_core::Error) -> Self {
        let message = e.to_string();
        ApiError::from_core(&e, message)
    }
}

impl From<s2g_timeseries::Error> for ApiError {
    fn from(e: s2g_timeseries::Error) -> Self {
        let (status, code) = match e {
            // The body parsed, but to values no model can fit or score.
            s2g_timeseries::Error::NonFinite { .. } => (422, "non_finite_value"),
            _ => (400, "invalid_csv"),
        };
        ApiError::new(status, code, format!("could not parse series body: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_errors_map_to_protocol_statuses() {
        let e = ApiError::from(s2g_engine::Error::UnknownModel("m".into()));
        assert_eq!((e.status, e.code), (404, "unknown_model"));
        let e = ApiError::from(s2g_engine::Error::UnknownStream("s".into()));
        assert_eq!((e.status, e.code), (404, "unknown_session"));
        let e = ApiError::from(s2g_engine::Error::Core(
            s2g_core::Error::QueryShorterThanPattern {
                query_length: 10,
                pattern_length: 50,
            },
        ));
        assert_eq!((e.status, e.code), (422, "query_too_short"));
        let e = ApiError::from(s2g_core::Error::SeriesTooShort {
            series_len: 3,
            required: 100,
        });
        assert_eq!((e.status, e.code), (422, "series_too_short"));
    }

    #[test]
    fn error_json_shape() {
        let line = ApiError::not_found("nope").to_json().encode();
        assert_eq!(line, r#"{"error":"not_found","message":"nope"}"#);
    }
}
