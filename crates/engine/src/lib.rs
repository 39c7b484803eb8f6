//! # s2g-engine — concurrent multi-series detection engine
//!
//! The serving layer above `s2g-core`: where the core crate fits and scores
//! one in-memory model, this crate manages **fleets** of models and series —
//! the workload shape of a production anomaly-detection service.
//!
//! Three building blocks, plus a CLI:
//!
//! * [`ModelRegistry`] — fits, stores and evicts named [`Series2Graph`]
//!   models behind [`std::sync::Arc`]-shared handles (LRU eviction when
//!   bounded);
//! * [`codec`] — a versioned, checksummed binary format that round-trips a
//!   fitted model **bit-identically**, so training once and scoring many
//!   times across processes works (`train → save → load → score` equals
//!   `train → score` exactly);
//! * [`WorkerPool`] — a sharded `std::thread` pool fanning batched fit/score
//!   jobs across workers with channel-based plumbing, plus pinned
//!   per-session [`s2g_core::StreamingScorer`] state for incremental
//!   ingestion; batch results are reassembled in submission order, making
//!   parallel output identical to sequential output;
//! * [`cli`] — the `s2g` binary (`fit`, `score`, `stream`, `eval`)
//!   driving all of the above over CSV files.
//!
//! [`Engine`] ties the registry and the pool together into one long-lived,
//! thread-safe object.
//!
//! ## Example
//!
//! ```
//! use s2g_engine::{Engine, EngineConfig};
//! use s2g_core::S2gConfig;
//! use s2g_timeseries::TimeSeries;
//!
//! let engine = Engine::new(EngineConfig::default().with_workers(2));
//!
//! // Fit a model on a clean signal and register it under a name.
//! let train: Vec<f64> = (0..3000)
//!     .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
//!     .collect();
//! engine
//!     .fit_model("turbine", &TimeSeries::from(train), &S2gConfig::new(50), None)
//!     .unwrap();
//!
//! // Score a fleet of series against it, in parallel, deterministically.
//! let fleet: Vec<TimeSeries> = (0..4)
//!     .map(|k| {
//!         TimeSeries::from(
//!             (0..1000)
//!                 .map(|i| (std::f64::consts::TAU * (i + 25 * k) as f64 / 100.0).sin())
//!                 .collect::<Vec<f64>>(),
//!         )
//!     })
//!     .collect();
//! let profiles = engine.score_many("turbine", fleet, 150, None).unwrap();
//! assert_eq!(profiles.len(), 4);
//! assert!(profiles.iter().all(|p| p.as_ref().unwrap().len() == 1000 - 150 + 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod codec;
pub mod engine;
pub mod error;
pub mod pool;
pub mod registry;
pub mod storage;
mod util;

pub use engine::{AdaptStatus, Engine, EngineConfig};
pub use error::{Error, Result};
pub use pool::{AdaptReport, FitJob, ScoreJob, StreamPush, WorkerPool, WorkerStats};
pub use registry::{validate_model_name, ModelInfo, ModelRegistry};
pub use storage::{ModelStorage, StoreMode, StoredModelMeta};

// Re-exported so downstream users of the engine see the model types it
// serves and the adaptation vocabulary its streams speak.
pub use s2g_adapt::{AdaptAction, AdaptConfig, AdaptiveScorer, DriftStats};
pub use s2g_core::{AdaptationLineage, S2gConfig, Series2Graph, StreamingScorer};
