//! # series2graph
//!
//! A Rust implementation of **Series2Graph** (Boniol & Palpanas, VLDB 2020):
//! unsupervised, domain-agnostic subsequence anomaly detection for univariate
//! data series, together with the complete evaluation substrate of the paper
//! (dataset generators, baseline detectors, evaluation metrics).
//!
//! This facade crate re-exports the workspace crates under one roof:
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`core`] | `s2g-core` | the Series2Graph model (`fit` → `score` → `top-k`) |
//! | [`adapt`] | `s2g-adapt` | online graph adaptation: decayed edge updates, drift detection, adaptive policy, versioned snapshots |
//! | [`engine`] | `s2g-engine` | concurrent multi-series serving: model registry, persistence, sharded worker pool |
//! | [`store`] | `s2g-store` | durable model store: crash-safe directory, manifest, lazy section residency |
//! | [`server`] | `s2g-server` | TCP/HTTP front-end over the engine, protocol client, `s2g` CLI |
//! | [`obs`] | `s2g-obs` | observability: lock-free latency histograms, request tracing, leveled logging |
//! | [`timeseries`] | `s2g-timeseries` | series container, distances, windows, filters, CSV I/O |
//! | [`linalg`] | `s2g-linalg` | PCA, rotations, KDE |
//! | [`graph`] | `s2g-graph` | weighted digraph, θ-Normality subgraphs |
//! | [`datasets`] | `s2g-datasets` | synthetic equivalents of the paper's evaluation corpus |
//! | [`baselines`] | `s2g-baselines` | STOMP, discords/DAD, LOF, Isolation Forest, GrammarViz-style, forecasting |
//! | [`eval`] | `s2g-eval` | Top-k accuracy, precision/recall, AUC, result tables, the scenario gauntlet (`s2g eval`) |
//!
//! ## Quick start
//!
//! ```
//! use series2graph::prelude::*;
//!
//! // A periodic signal with a burst of different shape in the middle.
//! let mut values: Vec<f64> = (0..6000)
//!     .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
//!     .collect();
//! for (offset, v) in values[3000..3150].iter_mut().enumerate() {
//!     *v = (std::f64::consts::TAU * offset as f64 / 30.0).sin();
//! }
//! let series = TimeSeries::from(values);
//!
//! // Fit the graph with pattern length ℓ = 50 and score windows of length 150.
//! let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
//! let scores = model.anomaly_scores(&series, 150).unwrap();
//! let detections = model.top_k_anomalies(&scores, 1, 150);
//! assert!((2900..3200).contains(&detections[0]));
//! ```
//!
//! ## Serving many series: the engine
//!
//! Fitting is the expensive step; scoring is cheap. The [`engine`] module
//! turns that asymmetry into a serving layer: a thread-safe
//! [`engine::ModelRegistry`] of named, `Arc`-shared models with LRU
//! eviction; a versioned binary codec ([`engine::codec`]) that round-trips a
//! fitted model **bit-identically** so one process can train and many can
//! score; a sharded worker pool ([`engine::WorkerPool`]) fanning batched
//! fit/score jobs and pinned streaming sessions across threads with
//! deterministic, submission-ordered results; and the `s2g` binary exposing
//! `fit`, `score`, `stream` and `eval` over CSV files:
//!
//! ```bash
//! s2g fit   --input traffic.csv --output traffic.s2g --pattern-length 50
//! s2g score --model traffic.s2g --query-length 150 --top-k 3 day1.csv day2.csv
//! ```
//!
//! The [`server`] module puts the engine on the network: `s2g serve` runs a
//! hand-rolled TCP/HTTP front-end over a shared registry, and `s2g client`
//! fits/scores/streams against it remotely with bit-identical results (wire
//! format: `docs/PROTOCOL.md`):
//!
//! ```bash
//! s2g serve --addr 127.0.0.1:7878
//! s2g client fit   --addr 127.0.0.1:7878 --name traffic --input traffic.csv --pattern-length 50
//! s2g client score --addr 127.0.0.1:7878 --name traffic --query-length 150 day1.csv
//! ```
//!
//! ```
//! use series2graph::prelude::*;
//!
//! let engine = Engine::new(EngineConfig::default().with_workers(2));
//! let train: Vec<f64> = (0..3000)
//!     .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
//!     .collect();
//! engine
//!     .fit_model("line-7", &TimeSeries::from(train), &S2gConfig::new(50), None)
//!     .unwrap();
//! let fleet = vec![TimeSeries::from(
//!     (0..800)
//!         .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
//!         .collect::<Vec<f64>>(),
//! )];
//! let profiles = engine.score_many("line-7", fleet, 150, None).unwrap();
//! assert_eq!(profiles[0].as_ref().unwrap().len(), 800 - 150 + 1);
//! ```
//!
//! ## Measuring accuracy: the scenario gauntlet
//!
//! `s2g eval` runs Series2Graph (frozen and adaptive) plus eight baseline
//! detectors over a registry of labelled scenarios — periodic anomalies,
//! noise, training contamination, long discords, concept drift — and scores
//! every run with AUC-ROC / AUC-PR / precision@k / top-k accuracy. With a
//! fixed `--seed` the `--json` output is byte-identical across runs; the
//! committed trajectory lives in `BENCH_ACCURACY.json` and the protocol in
//! `docs/EVALUATION.md`:
//!
//! ```bash
//! s2g eval --seed 42 --check          # human table + win-condition check
//! s2g eval --seed 42 --rev pr7 --json # deterministic BENCH_ACCURACY lines
//! ```
//!
//! See the `examples/` directory for complete scenarios (ECG monitoring,
//! variable-length anomalies, method comparison, prefix/streaming models,
//! an `engine_fleet` serving walkthrough) and the `s2g-bench` crate for the
//! harness regenerating every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The Series2Graph model (re-export of `s2g-core`).
pub use s2g_core as core;

/// Online graph adaptation (re-export of `s2g-adapt`).
pub use s2g_adapt as adapt;

/// Concurrent multi-series detection engine (re-export of `s2g-engine`).
pub use s2g_engine as engine;

/// Durable, lazily-loaded model store (re-export of `s2g-store`).
pub use s2g_store as store;

/// TCP/HTTP serving front-end over the engine (re-export of `s2g-server`).
pub use s2g_server as server;

/// Latency histograms, request tracing and leveled logging (re-export of
/// `s2g-obs`). See `docs/OBSERVABILITY.md` for the serving-stack wiring.
pub use s2g_obs as obs;

/// Time-series substrate (re-export of `s2g-timeseries`).
pub use s2g_timeseries as timeseries;

/// Linear-algebra kernels (re-export of `s2g-linalg`).
pub use s2g_linalg as linalg;

/// Graph model (re-export of `s2g-graph`).
pub use s2g_graph as graph;

/// Dataset generators (re-export of `s2g-datasets`).
pub use s2g_datasets as datasets;

/// Baseline detectors (re-export of `s2g-baselines`).
pub use s2g_baselines as baselines;

/// Evaluation metrics (re-export of `s2g-eval`).
pub use s2g_eval as eval;

/// The most commonly used types, importable with one `use`.
pub mod prelude {
    pub use s2g_adapt::{AdaptAction, AdaptConfig, AdaptiveScorer, DriftStats};
    pub use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph, StreamingScorer};
    pub use s2g_datasets::{AnomalyKind, AnomalyRange, Dataset, LabeledSeries};
    pub use s2g_engine::{Engine, EngineConfig, ModelRegistry};
    pub use s2g_eval::topk::{top_k_accuracy, GroundTruth};
    pub use s2g_eval::{run_gauntlet, GauntletConfig, Scenario};
    pub use s2g_obs::{Histogram, Obs, TraceId};
    pub use s2g_store::{ModelStore, StoreConfig};
    pub use s2g_timeseries::TimeSeries;
}
