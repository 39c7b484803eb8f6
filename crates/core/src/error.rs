//! Error type for the Series2Graph core.

use std::fmt;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced while fitting or querying a Series2Graph model.
#[derive(Debug)]
pub enum Error {
    /// The input series is too short for the requested pattern length.
    SeriesTooShort {
        /// Length of the input series.
        series_len: usize,
        /// Minimum length required.
        required: usize,
    },
    /// A configuration parameter is invalid.
    InvalidConfig(String),
    /// The query length is smaller than the pattern length used to build the graph.
    QueryShorterThanPattern {
        /// Requested query length `ℓ_q`.
        query_length: usize,
        /// Pattern length `ℓ` of the fitted model.
        pattern_length: usize,
    },
    /// The series holds a `NaN` or `±inf`, which has no place in the
    /// embedding.
    NonFiniteValue {
        /// 0-based index of the first non-finite value.
        index: usize,
    },
    /// The embedding space degenerated (e.g. constant series with no shape
    /// information), so no nodes could be extracted.
    DegenerateEmbedding(&'static str),
    /// An error bubbled up from the linear-algebra layer.
    Linalg(s2g_linalg::Error),
    /// An error bubbled up from the time-series layer.
    TimeSeries(s2g_timeseries::Error),
    /// An error bubbled up from the graph layer.
    Graph(s2g_graph::Error),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::SeriesTooShort { series_len, required } => write!(
                f,
                "series of length {series_len} is too short; at least {required} points are required"
            ),
            Error::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            Error::QueryShorterThanPattern { query_length, pattern_length } => write!(
                f,
                "query length {query_length} must be at least the pattern length {pattern_length}"
            ),
            Error::NonFiniteValue { index } => {
                write!(f, "series holds a non-finite value at index {index}")
            }
            Error::DegenerateEmbedding(msg) => write!(f, "degenerate embedding: {msg}"),
            Error::Linalg(e) => write!(f, "linear algebra error: {e}"),
            Error::TimeSeries(e) => write!(f, "time series error: {e}"),
            Error::Graph(e) => write!(f, "graph error: {e}"),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Linalg(e) => Some(e),
            Error::TimeSeries(e) => Some(e),
            Error::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<s2g_linalg::Error> for Error {
    fn from(e: s2g_linalg::Error) -> Self {
        Error::Linalg(e)
    }
}

impl From<s2g_timeseries::Error> for Error {
    fn from(e: s2g_timeseries::Error) -> Self {
        Error::TimeSeries(e)
    }
}

impl From<s2g_graph::Error> for Error {
    fn from(e: s2g_graph::Error) -> Self {
        Error::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = Error::SeriesTooShort {
            series_len: 10,
            required: 100,
        };
        assert!(e.to_string().contains("10") && e.to_string().contains("100"));
        let e = Error::QueryShorterThanPattern {
            query_length: 40,
            pattern_length: 80,
        };
        assert!(e.to_string().contains("40"));
        let e = Error::InvalidConfig("lambda too big".into());
        assert!(e.to_string().contains("lambda"));
    }

    #[test]
    fn conversions_preserve_source() {
        use std::error::Error as _;
        let e: Error = s2g_linalg::Error::EmptyMatrix.into();
        assert!(e.source().is_some());
        let e: Error = s2g_graph::Error::UnknownNode(1).into();
        assert!(e.source().is_some());
    }
}
