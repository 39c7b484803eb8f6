//! # s2g-server — TCP/HTTP serving front-end over the detection engine
//!
//! [`s2g_engine`] manages fleets of Series2Graph models in one process;
//! this crate puts them on the network. A [`Server`] owns an
//! [`Engine`] — model registry, sharded worker pool,
//! pinned streaming sessions — and exposes its full surface over a
//! hand-rolled HTTP/1.1 subset (the workspace is offline, so listener,
//! request parser, router, JSON codec and client are all written in-repo
//! on `std::net` alone):
//!
//! | Endpoint | Meaning |
//! |---|---|
//! | `PUT /models/{name}` | fit a model from posted CSV values |
//! | `GET /models` / `GET /models/{name}` | registry listing / metadata + checksum |
//! | `DELETE /models/{name}` | unregister |
//! | `POST /models/{name}/score` | batch-score series, submission-ordered |
//! | `POST /sessions`, `POST /sessions/{id}/push`, `DELETE /sessions/{id}` | pinned streaming sessions with idle eviction |
//! | `GET /healthz`, `POST /admin/shutdown` | status (uptime, residency, model counts), remote stop |
//!
//! With [`ServerConfig::data_dir`] set, the engine mounts an `s2g-store`
//! model store: fitted models persist across restarts (save-on-fit,
//! manifest preload, lazy load-through on first score) and `DELETE`
//! removes the stored file too. See `docs/STORAGE.md`.
//!
//! The wire contract — framing, error codes, worked byte-level example —
//! is specified in `docs/PROTOCOL.md`; the crate layering in
//! `docs/ARCHITECTURE.md`.
//!
//! Two properties carry over from the engine untouched:
//!
//! * **Determinism** — posted CSV bodies are decoded by the same parser as
//!   local files, scores travel as shortest-round-trip JSON numbers, and
//!   batch scoring reassembles worker-pool results in submission order, so
//!   a fit/score over the socket is **bit-identical** to the same fit/score
//!   in-process.
//! * **Data stays put** — models are fitted and kept server-side; only
//!   values in and scores out cross the wire.
//!
//! ## Example: in-process server, remote fit and score
//!
//! ```
//! use s2g_server::{Client, Server, ServerConfig};
//!
//! // Bind on an ephemeral port and serve in the background.
//! let server = Server::bind(ServerConfig::default().with_addr("127.0.0.1:0")).unwrap();
//! let addr = server.local_addr();
//! let handle = server.shutdown_handle();
//! let thread = std::thread::spawn(move || server.run().unwrap());
//!
//! // A remote client fits a model from CSV text and scores against it.
//! let client = Client::new(addr.to_string());
//! let csv: String = (0..2000)
//!     .map(|i| format!("{}\n", (std::f64::consts::TAU * i as f64 / 80.0).sin()))
//!     .collect();
//! let info = client.fit_model("turbine", "pattern_length=40", &csv).unwrap();
//! assert_eq!(info.get("train_len").unwrap().as_usize(), Some(2000));
//!
//! let probe: Vec<f64> = (0..500)
//!     .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
//!     .collect();
//! let results = client.score("turbine", 160, &[probe]).unwrap();
//! assert_eq!(results[0].as_ref().unwrap().len(), 500 - 160 + 1);
//!
//! // SIGTERM-equivalent: flag + connect-to-self wakeup, then join.
//! handle.shutdown();
//! thread.join().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod client;
pub mod error;
mod history;
pub mod http;
pub mod json;
mod metrics;
mod obscli;
mod selfwatch;
pub mod server;
pub mod sessions;
mod top;

pub use client::{Client, ClientError, ClientResponse, RetryPolicy};
pub use error::ApiError;
pub use json::Json;
pub use server::{Server, ServerConfig, ShutdownHandle};
pub use sessions::SessionTable;

// Re-exported so server embedders see the engine types they configure.
pub use s2g_engine::{Engine, EngineConfig};
// Re-exported so embedders can mount / inspect the durable model store
// without a direct s2g-store dependency.
pub use s2g_store::{ModelStore, StoreConfig};
