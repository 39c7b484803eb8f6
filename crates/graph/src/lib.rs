//! # s2g-graph
//!
//! Directed weighted graph model underlying Series2Graph.
//!
//! The graph produced by Series2Graph has one node per recurrent pattern
//! (extracted from the embedding space) and one weighted directed edge per
//! observed transition between consecutive patterns in the input series. Two
//! quantities drive anomaly detection:
//!
//! * the **edge weight** `w(e)` — how many times the transition occurred, and
//! * the **node degree** `deg(N)` — how many distinct edges touch the node.
//!
//! This crate provides:
//!
//! * [`DiGraph`] — the transition graph, stored once as compressed sparse
//!   rows with a precomputed per-node degree factor: the fit builds it from
//!   transition counts, scoring reads it with a binary search per gap, and
//!   online adaptation reweights one row in place,
//! * [`normality`] — θ-Normality / θ-Anomaly subgraph extraction following
//!   Definitions 3–5 of the paper,
//! * [`dot`] — GraphViz export used by the figure harnesses for inspection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod digraph;
pub mod dot;
pub mod error;
pub mod normality;

pub use digraph::{DiGraph, EdgeRef, NodeId};
pub use error::{Error, Result};
