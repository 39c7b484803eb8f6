//! Error type for the graph model.

use std::fmt;

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced by the graph model.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// A node id referenced by an operation does not exist in the graph.
    UnknownNode(usize),
    /// An edge list holds an edge no graph can: an endpoint out of range,
    /// a weight that is not finite and non-negative, or a `(from, to)` pair
    /// that does not strictly follow its predecessor.
    InvalidEdge {
        /// Position of the offending edge in the list.
        index: usize,
        /// What is wrong with it.
        reason: String,
    },
    /// A reweighting factor outside the accepted `[0, 1)` range.
    InvalidWeight(f64),
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::UnknownNode(id) => write!(f, "unknown node id {id}"),
            Error::InvalidEdge { index, reason } => write!(f, "edge[{index}]: {reason}"),
            Error::InvalidWeight(lambda) => {
                write!(f, "reweighting factor {lambda} is outside [0, 1)")
            }
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(Error::UnknownNode(3).to_string().contains('3'));
        let e = Error::InvalidEdge {
            index: 4,
            reason: "weight NaN".into(),
        };
        assert_eq!(e.to_string(), "edge[4]: weight NaN");
    }
}
