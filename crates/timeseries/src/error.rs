//! Error type shared by the time-series substrate.

use std::fmt;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the time-series substrate.
#[derive(Debug)]
pub enum Error {
    /// A subsequence request fell outside the series bounds.
    OutOfBounds {
        /// Requested start offset.
        start: usize,
        /// Requested length.
        len: usize,
        /// Length of the series the request was made against.
        series_len: usize,
    },
    /// Two sequences that must have equal length did not.
    LengthMismatch {
        /// Length of the left operand.
        left: usize,
        /// Length of the right operand.
        right: usize,
    },
    /// An operation that requires a non-empty input received an empty one.
    Empty(&'static str),
    /// A window/subsequence length parameter was invalid (zero or larger than the series).
    InvalidLength {
        /// Offending length value.
        len: usize,
        /// Human-readable description of the parameter.
        what: &'static str,
    },
    /// A sequence had (near-)zero standard deviation where normalisation was required.
    ZeroVariance,
    /// An I/O error occurred while reading or writing a series.
    Io(std::io::Error),
    /// A value could not be parsed as a floating point number.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// The raw token that failed to parse.
        token: String,
    },
    /// A value parsed, but as `NaN` or `±inf`, which no series may hold.
    NonFinite {
        /// 1-based line number of the offending record.
        line: usize,
        /// The raw token that parsed to a non-finite value.
        token: String,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::OutOfBounds { start, len, series_len } => write!(
                f,
                "subsequence [{start}, {start}+{len}) is out of bounds for series of length {series_len}"
            ),
            Error::LengthMismatch { left, right } => {
                write!(f, "sequence length mismatch: {left} vs {right}")
            }
            Error::Empty(what) => write!(f, "{what} must not be empty"),
            Error::InvalidLength { len, what } => write!(f, "invalid {what}: {len}"),
            Error::ZeroVariance => write!(f, "sequence has zero variance; cannot z-normalise"),
            Error::Io(e) => write!(f, "I/O error: {e}"),
            Error::Parse { line, token } => {
                write!(f, "cannot parse {token:?} as a number on line {line}")
            }
            Error::NonFinite { line, token } => {
                write!(f, "non-finite value {token:?} on line {line}")
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_out_of_bounds() {
        let e = Error::OutOfBounds {
            start: 10,
            len: 5,
            series_len: 12,
        };
        let s = e.to_string();
        assert!(s.contains("10"));
        assert!(s.contains("12"));
    }

    #[test]
    fn display_length_mismatch() {
        let e = Error::LengthMismatch { left: 3, right: 4 };
        assert!(e.to_string().contains("3 vs 4"));
    }

    #[test]
    fn io_error_source_is_preserved() {
        use std::error::Error as _;
        let e = Error::from(std::io::Error::new(std::io::ErrorKind::NotFound, "gone"));
        assert!(e.source().is_some());
    }

    #[test]
    fn display_parse() {
        let e = Error::Parse {
            line: 7,
            token: "abc".into(),
        };
        let s = e.to_string();
        assert!(s.contains("abc") && s.contains('7'));
    }
}
