//! # s2g-obs — observability substrate for the serving stack
//!
//! Std-only, dependency-free instrumentation threaded through every layer
//! of the serving stack (server → engine → worker pool → model store):
//!
//! * [`hist`] — lock-free log-bucketed latency [`Histogram`]s (128
//!   `AtomicU64` buckets, nanosecond recording cost) with exact
//!   max and bounded-error p50/p95/p99;
//! * [`trace`] — request-scoped tracing: a [`TraceId`] minted per request,
//!   [`Span`]s propagated across threads via [`SpanCtx`], finished traces
//!   kept in a fixed-size [`TraceSink`] ring with slow-request retention;
//! * [`log`] — structured leveled logging (`error!`/`warn!`/`info!`/
//!   `debug!`) with monotonic timestamps and optional JSON lines;
//! * [`recorder`] — the flight recorder: a fixed-memory ring of periodic
//!   telemetry snapshots ([`Sample`]s of every counter, gauge and
//!   histogram as sparse [`CompactHistogram`]s), with windowed-delta
//!   math for rate-over-window views instead of lifetime averages;
//! * [`watch`] — self-watch: [`SignalWatch`] hysteresis state machines
//!   scoring derived telemetry series with a [`RobustScorer`], a median/MAD
//!   level watchdog;
//! * [`journal`] — the black box: samples, slow/error traces, watch
//!   transitions and warn/error log lines streamed by a shedding writer
//!   thread into append-only, checksummed, size-bounded segment files
//!   that survive `kill -9`, plus atomic panic postmortems;
//! * [`Obs`] — the instruments the engine, worker pool and model store
//!   record into: one histogram per stage (fit, score, pool queue-wait,
//!   pool execute, store fault, store write, adaptation push, listed once
//!   by [`Obs::stages`]), the trace sink, the in-flight traces and the
//!   trace-id mint. Request counters, per-route latency and gauges belong
//!   to the server, whose instrument registry (`crates/server/src/
//!   metrics.rs`) declares each route, counter and gauge once.
//!
//! The cardinal rule: **observability never perturbs outputs**. Recording
//! is wait-free on the hot path, and every instrument is behind an
//! `Option`/`Arc` so an unattached engine runs the exact code it ran
//! before this crate existed (the engine's bit-identity test pins that
//! down).
//!
//! ```
//! use s2g_obs::Obs;
//!
//! let obs = Obs::new();
//! obs.score.record_duration(std::time::Duration::from_micros(250));
//! assert_eq!(obs.score.snapshot().count, 1);
//! let trace = obs.start_trace();
//! let root = trace.begin("request", None);
//! root.finish();
//! let (finished, _slow) = obs
//!     .traces
//!     .finish(&trace, "GET /example", 200, 1_500_000);
//! assert_eq!(finished.spans.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hist;
pub mod journal;
pub mod log;
pub mod recorder;
pub mod trace;
pub mod watch;

pub use hist::{Histogram, BUCKETS};
pub use journal::{
    Journal, JournalConfig, JournalEvent, JournalStats, LogEvent, PanicEvent, SampleEvent,
    SegmentData, SegmentMeta, TraceEvent, WatchEvent,
};
pub use log::Level;
pub use recorder::{CompactHistogram, DeltaError, Recorder, Sample, SeriesSchema};
pub use trace::{
    ActiveTraces, FinishedTrace, Span, SpanCtx, SpanRecord, TraceHandle, TraceId, TraceScope,
    TraceSink,
};
pub use watch::{Hysteresis, RobustScorer, SignalWatch, WatchState, WatchTransition};

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic process clock: nanoseconds since the first observation.
pub mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    static START: OnceLock<Instant> = OnceLock::new();

    /// Nanoseconds of monotonic time since the process clock was first
    /// read. Cheap, never goes backwards, safe from any thread.
    pub fn now_ns() -> u64 {
        let start = *START.get_or_init(Instant::now);
        u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The stage instruments shared by server, engine, worker pool and model
/// store (one per server; attached via `Engine::attach_obs` /
/// `ModelStore::attach_obs`), plus request tracing.
#[derive(Debug)]
pub struct Obs {
    /// Model fit execution time.
    pub fit: Histogram,
    /// Per-series score execution time (on the worker that ran it).
    pub score: Histogram,
    /// Pool task queue wait: submit → a worker picks the task up.
    pub pool_queue_wait: Histogram,
    /// Pool task execute time: pickup → result ready.
    pub pool_execute: Histogram,
    /// Store fault latency: bytes → resident model on first touch.
    pub store_fault: Histogram,
    /// Store write latency: encode + crash-safe write on save.
    pub store_write: Histogram,
    /// Adaptation push latency (per streaming push on adaptive sessions).
    pub adapt_push: Histogram,
    /// Finished traces: lookup ring + slow-request retention.
    pub traces: TraceSink,
    /// In-flight traces, registered per request so the panic hook can
    /// drain what was running when the process died.
    pub active: ActiveTraces,
    nonce: u64,
    counter: AtomicU64,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new()
    }
}

impl Obs {
    /// Default trace-ring capacity (`recent` lookup window).
    pub const TRACE_RING: usize = 256;
    /// Default slow-trace retention depth.
    pub const SLOW_KEEP: usize = 32;
    /// Bound on concurrently registered in-flight traces.
    pub const ACTIVE_CAP: usize = 1024;

    /// Empty stage histograms and default-size trace rings
    /// ([`Obs::TRACE_RING`] / [`Obs::SLOW_KEEP`]).
    pub fn new() -> Self {
        Self::with_rings(Self::TRACE_RING, Self::SLOW_KEEP)
    }

    /// Like [`Obs::new`] with explicit trace-ring sizes (`serve
    /// --trace-ring` / `--slow-ring`); both are floored at 1.
    pub fn with_rings(trace_ring: usize, slow_keep: usize) -> Self {
        // Process nonce: the pid, FNV-mixed so two quick restarts get
        // visibly different high bits. Deterministic within a process.
        let mut nonce = 0xcbf2_9ce4_8422_2325u64 ^ u64::from(std::process::id());
        nonce = nonce.wrapping_mul(0x0000_0100_0000_01b3);
        Obs {
            fit: Histogram::new(),
            score: Histogram::new(),
            pool_queue_wait: Histogram::new(),
            pool_execute: Histogram::new(),
            store_fault: Histogram::new(),
            store_write: Histogram::new(),
            adapt_push: Histogram::new(),
            traces: TraceSink::new(trace_ring, slow_keep),
            active: ActiveTraces::new(Self::ACTIVE_CAP),
            nonce: nonce & 0xffff_ffff,
            counter: AtomicU64::new(1),
        }
    }

    /// Mints the next [`TraceId`]: process nonce in the high 32 bits, a
    /// monotone counter in the low 32.
    pub fn next_trace_id(&self) -> TraceId {
        let seq = self.counter.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
        TraceId((self.nonce << 32) | seq)
    }

    /// Starts a new trace with a freshly minted id.
    pub fn start_trace(&self) -> TraceHandle {
        TraceHandle::new(self.next_trace_id())
    }

    /// Every stage histogram with its series name, in exposition and
    /// sample order — the only list of stage instruments.
    pub fn stages(&self) -> [(&'static str, &Histogram); 7] {
        [
            ("s2g_fit_duration_ns", &self.fit),
            ("s2g_score_duration_ns", &self.score),
            ("s2g_pool_queue_wait_ns", &self.pool_queue_wait),
            ("s2g_pool_execute_ns", &self.pool_execute),
            ("s2g_store_fault_ns", &self.store_fault),
            ("s2g_store_write_ns", &self.store_write),
            ("s2g_adapt_push_ns", &self.adapt_push),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_and_share_the_nonce() {
        let obs = Obs::new();
        let a = obs.next_trace_id();
        let b = obs.next_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.0 >> 32, b.0 >> 32);
    }

    #[test]
    fn clock_is_monotone() {
        let a = clock::now_ns();
        let b = clock::now_ns();
        assert!(b >= a);
    }
}
