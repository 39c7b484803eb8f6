//! The TCP listener, request router and endpoint handlers.
//!
//! One [`Server`] owns one [`Engine`] (model registry + worker pool) and one
//! [`SessionTable`], and serves them over a hand-rolled HTTP/1.1 subset
//! (see [`crate::http`]). Connections are handled thread-per-client behind a
//! bounded accept semaphore: at most `max_clients` handler threads run at
//! once, and the accept loop blocks (TCP backlog backpressure) when all
//! slots are taken.
//!
//! Shutdown is cooperative: a [`ShutdownHandle`] flips an atomic flag and
//! wakes the accept loop by connecting to the server's own address, after
//! which `run` stops accepting, joins every in-flight handler and the
//! session sweeper, and returns. `POST /admin/shutdown` triggers the same
//! path remotely.
//!
//! The full wire contract — endpoints, framing, error codes, a worked
//! byte-level example — is specified in `docs/PROTOCOL.md`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Once, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use s2g_core::config::BandwidthRule;
use s2g_core::S2gConfig;
use s2g_engine::{AdaptConfig, Engine, EngineConfig, ModelInfo};
use s2g_obs::journal::{
    self, Journal, JournalConfig, JournalEvent, JournalThread, LogEvent, PanicEvent, TraceEvent,
};
use s2g_obs::{FinishedTrace, Obs, Recorder, SpanCtx, TraceId, TraceScope};
use s2g_store::{ModelStore, StoreConfig};
use s2g_timeseries::{io as ts_io, TimeSeries};

use crate::error::ApiError;
use crate::history;
use crate::http::{read_request, Method, ParseError, Request, Response};
use crate::json::{self, Json};
use crate::metrics::{self, Metrics, RouteId};
use crate::selfwatch::SelfWatch;
use crate::sessions::SessionTable;

/// Construction parameters for a [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind, e.g. `127.0.0.1:7878`. Port `0` picks an ephemeral
    /// port (query it via [`Server::local_addr`]).
    pub addr: String,
    /// Configuration of the owned [`Engine`] (worker count, registry cap).
    pub engine: EngineConfig,
    /// Maximum concurrently served connections; further accepts wait.
    pub max_clients: usize,
    /// Maximum accepted request-body size in bytes (`413` beyond it).
    pub max_body_bytes: usize,
    /// Streaming sessions idle longer than this are evicted
    /// (`None` = never).
    pub session_idle: Option<Duration>,
    /// Per-connection socket read timeout (stalled peers are dropped).
    pub read_timeout: Duration,
    /// When set, a durable [`ModelStore`] is mounted at this directory:
    /// models already stored there are served without refitting
    /// (preload), every fit is persisted, and deletes remove the stored
    /// file too. `None` keeps the engine memory-only.
    pub data_dir: Option<PathBuf>,
    /// Residency budget of the mounted store in bytes (`0` = unbounded);
    /// only meaningful with `data_dir`.
    pub store_budget_bytes: u64,
    /// Process-wide log verbosity (`serve --log-level`).
    pub log_level: s2g_obs::Level,
    /// Emit JSON log lines instead of the human format
    /// (`serve --log-json`).
    pub log_json: bool,
    /// Requests at least this slow are retained in the slow-trace log and
    /// emitted as `warn` lines (`serve --slow-request-ms`); `None`
    /// disables slow-request capture.
    pub slow_request_ms: Option<u64>,
    /// Flight-recorder sampling interval in milliseconds
    /// (`serve --sample-interval-ms`); `0` disables the sampler thread,
    /// `/metrics/history` and the self-watch entirely.
    pub sample_interval_ms: u64,
    /// Maximum retained flight-recorder samples
    /// (`serve --history-retention`); memory stays fixed past it.
    pub history_retention: usize,
    /// Sampler ticks of warm-up telemetry collected before the
    /// self-watch watches are armed (`serve --watch-warmup`).
    pub watch_warmup: usize,
    /// Trace-ring capacity — how many finished traces
    /// `GET /debug/trace/{id}` can look up (`serve --trace-ring`).
    pub trace_ring: usize,
    /// Slow-trace retention depth (`serve --slow-ring`).
    pub slow_ring: usize,
    /// Streams telemetry (flight-recorder samples, slow/error traces,
    /// self-watch transitions, warn/error log lines) into the durable
    /// journal under `data_dir/obs/` (`serve --no-journal` turns it
    /// off). Only effective with [`ServerConfig::data_dir`] set — the
    /// journal shares the store's directory and durability discipline.
    pub journal: bool,
    /// Journal segment size in KiB: a segment rotates once it grows past
    /// this (`serve --journal-segment-kb`).
    pub journal_segment_kb: u64,
    /// Retained journal segments; the oldest is reclaimed past this
    /// (`serve --journal-segments`). Bounds disk to roughly
    /// `journal_segment_kb * journal_segments` KiB.
    pub journal_segments: usize,
    /// Failpoint spec applied at startup (`serve --failpoints`, or the
    /// `S2G_FAILPOINTS` env var), in the
    /// `name=action[;p=..][;budget=..]` grammar of
    /// [`s2g_failpoints::apply_spec`]; the literal `"on"` arms nothing.
    /// `Some` also enables the `POST /debug/failpoint` /
    /// `GET /debug/failpoint` drill endpoints; `None` (the default) keeps
    /// failure injection off and those routes answering 404.
    pub failpoints: Option<String>,
    /// Admission gate (`serve --admission-queue`): when greater than zero
    /// and the pool backlog (tasks admitted but not yet claimed by a
    /// worker) is at least this deep, pool-bound routes shed with
    /// `429 Retry-After` instead of queueing more work. `0` disables the
    /// gate.
    pub admission_queue: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:7878".to_string(),
            engine: EngineConfig::default(),
            max_clients: 64,
            max_body_bytes: 16 * 1024 * 1024,
            session_idle: Some(Duration::from_secs(300)),
            read_timeout: Duration::from_secs(30),
            data_dir: None,
            store_budget_bytes: 0,
            log_level: s2g_obs::Level::Info,
            log_json: false,
            slow_request_ms: None,
            sample_interval_ms: 1_000,
            history_retention: 600,
            watch_warmup: 60,
            trace_ring: Obs::TRACE_RING,
            slow_ring: Obs::SLOW_KEEP,
            journal: true,
            journal_segment_kb: 1024,
            journal_segments: 8,
            failpoints: None,
            admission_queue: 0,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address.
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the concurrent-connection cap (minimum 1).
    pub fn with_max_clients(mut self, max_clients: usize) -> Self {
        self.max_clients = max_clients.max(1);
        self
    }

    /// Sets the request-body size cap in bytes.
    pub fn with_max_body_bytes(mut self, max_body_bytes: usize) -> Self {
        self.max_body_bytes = max_body_bytes;
        self
    }

    /// Sets the session idle timeout (`None` disables eviction).
    pub fn with_session_idle(mut self, session_idle: Option<Duration>) -> Self {
        self.session_idle = session_idle;
        self
    }

    /// Mounts a durable model store at `data_dir` (see
    /// [`ServerConfig::data_dir`]).
    pub fn with_data_dir(mut self, data_dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(data_dir.into());
        self
    }

    /// Sets the store residency budget in bytes (`0` = unbounded).
    pub fn with_store_budget_bytes(mut self, bytes: u64) -> Self {
        self.store_budget_bytes = bytes;
        self
    }

    /// Sets the process-wide log verbosity.
    pub fn with_log_level(mut self, level: s2g_obs::Level) -> Self {
        self.log_level = level;
        self
    }

    /// Switches log output to JSON lines.
    pub fn with_log_json(mut self, json: bool) -> Self {
        self.log_json = json;
        self
    }

    /// Sets the slow-request threshold in milliseconds (`None` disables
    /// slow-trace retention).
    pub fn with_slow_request_ms(mut self, ms: Option<u64>) -> Self {
        self.slow_request_ms = ms;
        self
    }

    /// Sets the flight-recorder sampling interval (`0` disables the
    /// sampler, history and self-watch).
    pub fn with_sample_interval_ms(mut self, ms: u64) -> Self {
        self.sample_interval_ms = ms;
        self
    }

    /// Sets the flight-recorder retention in samples (minimum 2).
    pub fn with_history_retention(mut self, samples: usize) -> Self {
        self.history_retention = samples.max(2);
        self
    }

    /// Sets the self-watch warm-up length in sampler ticks.
    pub fn with_watch_warmup(mut self, ticks: usize) -> Self {
        self.watch_warmup = ticks;
        self
    }

    /// Sets the trace-ring capacity (minimum 1).
    pub fn with_trace_ring(mut self, capacity: usize) -> Self {
        self.trace_ring = capacity.max(1);
        self
    }

    /// Sets the slow-trace retention depth (minimum 1).
    pub fn with_slow_ring(mut self, depth: usize) -> Self {
        self.slow_ring = depth.max(1);
        self
    }

    /// Enables or disables the durable telemetry journal (on by default;
    /// effective only with a `data_dir`).
    pub fn with_journal(mut self, enabled: bool) -> Self {
        self.journal = enabled;
        self
    }

    /// Sets the journal segment size in KiB (minimum 4).
    pub fn with_journal_segment_kb(mut self, kb: u64) -> Self {
        self.journal_segment_kb = kb.max(4);
        self
    }

    /// Sets the journal segment retention count (minimum 2).
    pub fn with_journal_segments(mut self, segments: usize) -> Self {
        self.journal_segments = segments.max(2);
        self
    }

    /// Enables failpoints with the given spec (see
    /// [`ServerConfig::failpoints`]); `"on"` enables the drill endpoints
    /// without arming anything.
    pub fn with_failpoints(mut self, spec: impl Into<String>) -> Self {
        self.failpoints = Some(spec.into());
        self
    }

    /// Sets the admission-gate backlog threshold (`0` disables shedding).
    pub fn with_admission_queue(mut self, depth: usize) -> Self {
        self.admission_queue = depth;
        self
    }
}

/// Counting semaphore bounding concurrent connection-handler threads.
pub(crate) struct Slots {
    pub(crate) capacity: usize,
    state: Mutex<SlotState>,
    available: Condvar,
}

struct SlotState {
    free: usize,
    /// Acquirers currently blocked in [`Slots::acquire`] — i.e. fresh
    /// connections actually starving, as opposed to slots merely being
    /// held by idle keep-alive peers.
    waiting: usize,
    /// Idle connections that have claimed a yield (hang-up in progress)
    /// whose slot has not been released yet. Caps concurrent yields at the
    /// number of waiters, so one starving acceptor triggers one hang-up —
    /// not a thundering herd of every idle connection at once.
    yielding: usize,
}

impl Slots {
    fn new(count: usize) -> Self {
        Slots {
            capacity: count.max(1),
            state: Mutex::new(SlotState {
                free: count.max(1),
                waiting: 0,
                yielding: 0,
            }),
            available: Condvar::new(),
        }
    }

    /// `(slots in use, acquirers currently blocked)` — the accept-slot
    /// occupancy gauges `/metrics` samples at scrape time.
    pub(crate) fn occupancy(&self) -> (usize, usize) {
        let state = self.lock();
        (self.capacity - state.free, state.waiting)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn acquire(&self) {
        let mut state = self.lock();
        while state.free == 0 {
            state.waiting += 1;
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            state.waiting -= 1;
        }
        state.free -= 1;
    }

    fn release(&self) {
        let mut state = self.lock();
        state.free += 1;
        // Any freed slot satisfies one waiter, so one outstanding yield
        // credit (if any) is no longer needed.
        state.yielding = state.yielding.saturating_sub(1);
        drop(state);
        self.available.notify_one();
    }

    /// Claims a yield: `true` when a fresh connection is blocked in
    /// [`Slots::acquire`] and not enough hang-ups are already in flight to
    /// satisfy the waiters. Idle persistent connections poll this and hang
    /// up on `true`, so keep-alive can never starve fresh connections for
    /// longer than one idle-poll tick — while a fleet of idle keep-alive
    /// peers that merely *holds* every slot, with nobody waiting, keeps
    /// its connections, and one waiter costs one hang-up, not a
    /// thundering herd of all idle peers.
    fn claim_yield(&self) -> bool {
        let mut state = self.lock();
        if state.waiting > state.yielding {
            state.yielding += 1;
            true
        } else {
            false
        }
    }
}

/// RAII guard for one accept slot: releases on drop, so slots survive
/// handler panics and thread-spawn failures alike.
struct SlotGuard(Arc<Shared>);

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.0.slots.release();
    }
}

/// RAII guard keeping one request in the in-flight trace registry for
/// exactly as long as it is being handled. Panic ordering is the point:
/// the panic hook runs *before* unwinding, so it still sees the trace
/// registered; the guard then unregisters during unwind, keeping the
/// bounded registry from silting up with dead entries.
struct ActiveGuard<'a> {
    shared: &'a Shared,
    id: TraceId,
}

impl Drop for ActiveGuard<'_> {
    fn drop(&mut self) {
        self.shared.obs.active.unregister(self.id);
    }
}

/// State shared by the accept loop, handler threads, the sampler and
/// shutdown handles. Crate-visible so the flight-recorder collection
/// ([`crate::history`]) and the self-watch ([`crate::selfwatch`]) can
/// read the live instruments without widening the public API.
pub(crate) struct Shared {
    pub(crate) engine: Engine,
    pub(crate) sessions: SessionTable,
    pub(crate) metrics: Metrics,
    pub(crate) obs: Arc<Obs>,
    max_body_bytes: usize,
    read_timeout: Duration,
    shutdown: AtomicBool,
    local_addr: SocketAddr,
    pub(crate) slots: Slots,
    pub(crate) started: Instant,
    /// The flight recorder; `None` when sampling is disabled
    /// (`sample_interval_ms = 0`).
    pub(crate) recorder: Option<Arc<Recorder>>,
    /// The self-watch board; present exactly when the recorder is.
    pub(crate) watch: Option<SelfWatch>,
    /// Whether `--failpoints` was given: gates the
    /// `POST`/`GET /debug/failpoint` drill endpoints.
    failpoints: bool,
    /// Admission-gate backlog threshold; `0` disables shedding.
    admission_queue: usize,
    /// Requests shed by the admission gate (`429 overloaded`).
    pub(crate) shed: AtomicU64,
    /// The durable telemetry journal; `None` without a `data_dir` or with
    /// journaling disabled. Publishing is try-send load shedding — the
    /// serving path never blocks on it.
    pub(crate) journal: Option<Journal>,
    /// The journal writer thread, joined at the end of [`Server::run`].
    journal_thread: Mutex<Option<JournalThread>>,
}

impl Shared {
    /// Flips the shutdown flag and wakes the (possibly blocked) accept loop
    /// by connecting to the server's own port. A wildcard bind address
    /// (`0.0.0.0` / `::`) is not connectable on every platform, so the
    /// wake-up always targets the matching loopback address instead.
    fn trigger_shutdown(&self) {
        s2g_obs::info!("server", "shutdown requested");
        self.shutdown.store(true, Ordering::SeqCst);
        let mut wake_addr = self.local_addr;
        if wake_addr.ip().is_unspecified() {
            let loopback: std::net::IpAddr = if wake_addr.is_ipv4() {
                std::net::Ipv4Addr::LOCALHOST.into()
            } else {
                std::net::Ipv6Addr::LOCALHOST.into()
            };
            wake_addr.set_ip(loopback);
        }
        let _ = TcpStream::connect(wake_addr);
    }
}

/// A cloneable handle that shuts a running [`Server`] down from another
/// thread — the in-process equivalent of delivering SIGTERM.
#[derive(Clone)]
pub struct ShutdownHandle {
    shared: Arc<Shared>,
}

impl ShutdownHandle {
    /// Requests shutdown: the accept loop stops, in-flight requests finish,
    /// and [`Server::run`] returns. Idempotent.
    pub fn shutdown(&self) {
        self.shared.trigger_shutdown();
    }
}

// ---------------------------------------------------------------------------
// Panic postmortems
// ---------------------------------------------------------------------------

/// Journaled servers registered for postmortem capture — weak, so a
/// dropped server never outlives its scope through the hook.
static PANIC_TARGETS: Mutex<Vec<Weak<Shared>>> = Mutex::new(Vec::new());
static PANIC_HOOK: Once = Once::new();

/// Registers a journaled server with the process-wide panic hook (chained
/// in front of the default hook, installed once per process).
fn register_panic_target(shared: &Arc<Shared>) {
    let mut targets = PANIC_TARGETS.lock().unwrap_or_else(|e| e.into_inner());
    targets.retain(|t| t.strong_count() > 0);
    targets.push(Arc::downgrade(shared));
    drop(targets);
    PANIC_HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            // A second panic inside the postmortem writer would abort the
            // process before the original panic even reports — swallow it
            // and let the chained hook speak.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                write_postmortems(info);
            }));
            previous(info);
        }));
    });
}

/// Drains the black box of every live journaled server into an atomic
/// `postmortem-<ts>.s2gj`: the panic itself, every in-flight trace (the
/// spans it had finished when the panic hit), the newest retained
/// flight-recorder samples, and the self-watch board.
fn write_postmortems(info: &std::panic::PanicHookInfo<'_>) {
    let message = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    let location = info.location().map_or_else(
        || "unknown".to_string(),
        |l| format!("{}:{}", l.file(), l.line()),
    );
    let targets: Vec<Weak<Shared>> = PANIC_TARGETS
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    for target in targets {
        let Some(shared) = target.upgrade() else {
            continue;
        };
        let Some(journal) = &shared.journal else {
            continue;
        };
        let mut events = vec![JournalEvent::Panic(PanicEvent {
            wall_ms: journal::wall_ms_now(),
            message: message.clone(),
            location: location.clone(),
        })];
        for (id, route, spans) in shared.obs.active.snapshot() {
            events.push(JournalEvent::Trace(TraceEvent::from_in_flight(
                id, &route, &spans,
            )));
        }
        if let Some(recorder) = &shared.recorder {
            // The newest few samples reconstruct the final window offline.
            let samples = recorder.window(u64::MAX, 1);
            let skip = samples.len().saturating_sub(8);
            for sample in samples.into_iter().skip(skip) {
                events.push(JournalEvent::sample((*sample).clone()));
            }
        }
        if let Some(watch) = &shared.watch {
            events.extend(
                watch
                    .postmortem_events()
                    .into_iter()
                    .map(JournalEvent::Watch),
            );
        }
        let _ = journal::write_postmortem(journal.dir(), &metrics::schema(&shared.obs), &events);
    }
}

/// A bound (but not yet running) detection server.
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the listener and builds the engine, without serving yet. When
    /// [`ServerConfig::data_dir`] is set, the durable model store is
    /// mounted first: every model already persisted there is immediately
    /// servable (listing from the manifest, payloads faulted in lazily on
    /// first score) — restart durability without refitting.
    ///
    /// # Errors
    /// Propagates socket bind errors and store-mount failures.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        s2g_obs::log::set_level(config.log_level);
        s2g_obs::log::set_json(config.log_json);
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        // The stage instruments and tracing, shared by every layer and
        // attached before the first request can arrive.
        let obs = Arc::new(Obs::with_rings(config.trace_ring, config.slow_ring));
        if let Some(ms) = config.slow_request_ms {
            obs.traces
                .set_slow_threshold_ns(ms.saturating_mul(1_000_000));
        }
        let mut engine = Engine::new(config.engine);
        engine.attach_obs(Arc::clone(&obs));
        if let Some(data_dir) = &config.data_dir {
            let store = ModelStore::open(
                data_dir,
                StoreConfig::default().with_resident_budget_bytes(config.store_budget_bytes),
            )
            .map_err(io::Error::other)?;
            store.attach_obs(Arc::clone(&obs));
            s2g_obs::info!(
                "server",
                "mounted model store at {} ({} model(s) on disk)",
                data_dir.display(),
                store.list().len()
            );
            engine.attach_storage(Arc::new(store));
        }
        s2g_obs::info!("server", "listening on {local_addr}");
        // Flight recorder + self-watch: both exist exactly when sampling
        // is on. The recorder's schema is frozen here, before the first
        // sample, so every retained sample stays positionally aligned.
        let (recorder, watch) = if config.sample_interval_ms > 0 {
            let recorder = Arc::new(Recorder::new(
                metrics::schema(&obs),
                config.sample_interval_ms,
                config.history_retention.max(2),
            ));
            s2g_obs::info!(
                "server",
                "flight recorder on: {} ms interval, {} samples retained, self-watch warmup {} ticks",
                recorder.interval_ms(),
                recorder.retention(),
                config.watch_warmup
            );
            (
                Some(recorder),
                Some(SelfWatch::new(config.watch_warmup, &obs)),
            )
        } else {
            (None, None)
        };
        // Durable telemetry journal: shares the store's directory (under
        // `obs/`) and its atomicity discipline. The schema frozen into
        // each segment is the same one the recorder uses, so offline
        // `s2g obs` forensics replay with positional alignment intact.
        let data_dir = config.journal.then(|| config.data_dir.clone()).flatten();
        let (journal, journal_thread) = if let Some(data_dir) = data_dir {
            let dir = data_dir.join("obs");
            let journal_config = JournalConfig {
                segment_bytes: config.journal_segment_kb.max(4) * 1024,
                max_segments: config.journal_segments.max(2),
                ..JournalConfig::new(&dir)
            };
            let (journal, thread) =
                Journal::open(journal_config, metrics::schema(&obs)).map_err(io::Error::other)?;
            s2g_obs::info!(
                "server",
                "telemetry journal on at {} ({} KiB segments, {} retained)",
                dir.display(),
                config.journal_segment_kb.max(4),
                config.journal_segments.max(2)
            );
            (Some(journal), Some(thread))
        } else {
            (None, None)
        };
        // Failpoints: apply the startup spec before the first request can
        // arrive, and tee every trigger into the logs (and, through the
        // log sink below, the journal) so no injected fault goes
        // unaccounted for.
        if let Some(spec) = &config.failpoints {
            s2g_failpoints::apply_spec(spec)
                .map_err(|e| io::Error::other(format!("--failpoints: {e}")))?;
            s2g_failpoints::set_trigger_hook(Arc::new(|name, kind| {
                s2g_obs::warn!("failpoints", "failpoint {name} fired ({kind})");
            }));
            s2g_obs::info!("server", "failpoints enabled (spec {spec:?})");
        }
        if config.admission_queue > 0 {
            s2g_obs::info!(
                "server",
                "admission gate on: shedding past {} queued pool tasks",
                config.admission_queue
            );
        }
        let shared = Arc::new(Shared {
            engine,
            sessions: SessionTable::new(config.session_idle),
            metrics: Metrics::default(),
            obs,
            max_body_bytes: config.max_body_bytes,
            read_timeout: config.read_timeout,
            shutdown: AtomicBool::new(false),
            local_addr,
            slots: Slots::new(config.max_clients),
            started: Instant::now(),
            recorder,
            watch,
            failpoints: config.failpoints.is_some(),
            admission_queue: config.admission_queue,
            shed: AtomicU64::new(0),
            journal,
            journal_thread: Mutex::new(journal_thread),
        });
        if let Some(journal) = shared.journal.clone() {
            // Tee warn/error log lines into the journal. The sink is
            // process-global (last journaled server wins); a sink holding
            // a closed journal sheds harmlessly.
            s2g_obs::log::set_sink(Some(Arc::new(
                move |level, target: &str, msg: &str, t_ns, trace: Option<TraceId>| {
                    journal.publish(JournalEvent::Log(LogEvent {
                        wall_ms: journal::wall_ms_now(),
                        t_ns,
                        level,
                        target: target.to_string(),
                        msg: msg.to_string(),
                        trace_id: trace.map_or(0, |t| t.0),
                    }));
                },
            )));
            register_panic_target(&shared);
        }
        Ok(Server { listener, shared })
    }

    /// The bound address (resolves port `0` to the actual ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The engine the server serves (e.g. to preload models before `run`).
    pub fn engine(&self) -> &Engine {
        &self.shared.engine
    }

    /// A handle that can stop [`Server::run`] from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Serves until shutdown is requested: accepts connections (at most
    /// `max_clients` in flight), dispatches each to a handler thread, and
    /// reaps idle sessions in a background sweeper. Returns after every
    /// in-flight handler has finished.
    ///
    /// # Errors
    /// Propagates fatal accept errors (transient per-connection errors are
    /// swallowed).
    pub fn run(&self) -> io::Result<()> {
        let sweeper = self.spawn_sweeper();
        let sampler = self.spawn_sampler();
        let mut handlers: Vec<JoinHandle<()>> = Vec::new();

        for stream in self.listener.incoming() {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(stream) => stream,
                Err(_) => continue, // transient accept failure
            };
            self.shared.slots.acquire();
            // The guard releases the slot when the handler thread ends —
            // including by panic — so a handler bug can never leak slots
            // and wedge the accept loop. It also covers spawn failure.
            let slot = SlotGuard(Arc::clone(&self.shared));
            let shared = Arc::clone(&self.shared);
            let handle = std::thread::Builder::new()
                .name("s2g-conn".to_string())
                .spawn(move || {
                    let _slot = slot;
                    handle_connection(&shared, stream);
                });
            if let Ok(handle) = handle {
                handlers.push(handle);
            }
            handlers.retain(|h| !h.is_finished());
        }

        for handle in handlers {
            let _ = handle.join();
        }
        if let Some(sweeper) = sweeper {
            let _ = sweeper.join();
        }
        if let Some(sampler) = sampler {
            let _ = sampler.join();
        }
        // Drain-then-exit: close the journal (publishes from here on shed)
        // and join the writer so every queued event reaches the segment
        // before run returns.
        if let Some(journal) = &self.shared.journal {
            journal.close();
        }
        if let Some(thread) = self
            .shared
            .journal_thread
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
        {
            thread.join();
        }
        Ok(())
    }

    /// Background thread reaping idle sessions until shutdown.
    fn spawn_sweeper(&self) -> Option<JoinHandle<()>> {
        let timeout = self.shared.sessions.idle_timeout()?;
        let shared = Arc::clone(&self.shared);
        let tick = (timeout / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        std::thread::Builder::new()
            .name("s2g-sweeper".to_string())
            .spawn(move || {
                while !shared.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    shared.sessions.evict_idle(&shared.engine);
                }
            })
            .ok()
    }

    /// Background sampler: every `sample_interval_ms` it freezes all
    /// instruments into the flight recorder and advances the self-watch.
    /// Runs entirely off the serving path — handlers never wait on it.
    fn spawn_sampler(&self) -> Option<JoinHandle<()>> {
        let recorder = Arc::clone(self.shared.recorder.as_ref()?);
        let shared = Arc::clone(&self.shared);
        let tick = Duration::from_millis(recorder.interval_ms());
        std::thread::Builder::new()
            .name("s2g-sampler".to_string())
            .spawn(move || {
                let mut prev: Option<Arc<s2g_obs::Sample>> = None;
                while !shared.shutdown.load(Ordering::SeqCst) {
                    std::thread::sleep(tick);
                    if shared.shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let sample = metrics::sample(&shared);
                    if let Some(journal) = &shared.journal {
                        journal.publish(JournalEvent::sample(sample.clone()));
                    }
                    recorder.push(sample);
                    let Some(current) = recorder.latest() else {
                        continue;
                    };
                    if let Some(watch) = &shared.watch {
                        watch.tick(shared.journal.as_ref(), prev.as_deref(), &current);
                    }
                    prev = Some(current);
                }
            })
            .ok()
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.shared.local_addr)
            .field("models", &self.shared.engine.registry().len())
            .field("sessions", &self.shared.sessions.len())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Connection handling and routing
// ---------------------------------------------------------------------------

/// What [`wait_for_request`] observed while a persistent connection sat
/// between requests.
enum IdleOutcome {
    /// Bytes of a next request are ready to be parsed.
    Ready,
    /// The peer closed, the idle timeout elapsed, the server is shutting
    /// down, or the socket failed — hang up either way.
    HangUp,
}

/// Parks a persistent connection until the next request arrives, the idle
/// timeout (`read_timeout`) elapses, the peer hangs up, or the server
/// starts shutting down. Polling with a short socket timeout keeps parked
/// keep-alive handlers from delaying shutdown by the full idle timeout.
///
/// `buffered` reports whether the connection's `BufReader` already holds
/// read-ahead bytes (a pipelined next request) — then there is nothing to
/// wait for and no socket to peek.
///
/// `yield_on_saturation` additionally hangs up when a fresh connection is
/// blocked waiting for an accept slot — set for parks *between* requests
/// (an idle keep-alive connection must not starve fresh connections),
/// never for a connection's first request (which must be served
/// regardless of contention).
fn wait_for_request(
    shared: &Shared,
    stream: &TcpStream,
    buffered: bool,
    yield_on_saturation: bool,
) -> IdleOutcome {
    if buffered {
        let _ = stream.set_read_timeout(Some(shared.read_timeout));
        return IdleOutcome::Ready;
    }
    let tick =
        (shared.read_timeout / 8).clamp(Duration::from_millis(20), Duration::from_millis(250));
    let deadline = Instant::now() + shared.read_timeout;
    let _ = stream.set_read_timeout(Some(tick));
    let mut probe = [0u8; 1];
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return IdleOutcome::HangUp;
        }
        match stream.peek(&mut probe) {
            Ok(0) => return IdleOutcome::HangUp, // peer closed cleanly
            Ok(_) => {
                // Restore the full per-request stall guard before parsing.
                let _ = stream.set_read_timeout(Some(shared.read_timeout));
                return IdleOutcome::Ready;
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if Instant::now() >= deadline {
                    return IdleOutcome::HangUp;
                }
                // Genuinely idle (the peek found nothing). When a fresh
                // connection is blocked waiting for a slot, an idle
                // slot-holding connection is pure starvation: give the
                // slot back (the peer's pooled client reconnects
                // transparently). Checked only after the peek so a
                // connection whose next request already arrived is served,
                // never dropped — and the claim caps hang-ups at the
                // number of actual waiters.
                if yield_on_saturation && shared.slots.claim_yield() {
                    return IdleOutcome::HangUp;
                }
            }
            Err(_) => return IdleOutcome::HangUp,
        }
    }
}

/// Serves one connection: a loop of request → response exchanges that
/// persists across requests for HTTP/1.1 peers (see `docs/PROTOCOL.md`).
/// The connection closes when the peer asks for it (`Connection: close`),
/// on any error response or unparseable request, after `read_timeout` of
/// idleness, or at server shutdown.
fn handle_connection(shared: &Shared, stream: TcpStream) {
    // Request/response exchanges are strictly serial per connection, so
    // Nagle buys nothing and costs delayed-ACK stalls between the segments
    // of consecutive exchanges on a persistent connection.
    let _ = stream.set_nodelay(true);
    // One read buffer for the connection's whole life: read-ahead bytes of
    // a pipelined next request survive between requests (see
    // [`read_request`]). Writes go straight to the stream.
    let mut reader = std::io::BufReader::new(&stream);
    let mut first = true;
    loop {
        let buffered = !reader.buffer().is_empty();
        match wait_for_request(shared, &stream, buffered, !first) {
            IdleOutcome::Ready => {}
            IdleOutcome::HangUp => return,
        }
        // `net.read.stall`: armed as a delay it stalls the read here (then
        // proceeds normally); armed as an error it drops the connection,
        // the way a dying NIC or middlebox would.
        if s2g_failpoints::hit("net.read.stall").is_some() {
            return;
        }
        let request = match read_request(&mut reader, shared.max_body_bytes) {
            Ok(request) => request,
            Err(ParseError::ConnectionClosed) => return, // probe; nothing to say
            Err(ParseError::Io(_)) if !first => return,  // stalled mid-keep-alive
            Err(e) => {
                // Even an unparseable request gets a trace: the error
                // response carries `X-S2g-Trace` like every routed
                // response, so failed requests stay debuggable through
                // `GET /debug/trace/{id}` too.
                let started = Instant::now();
                let trace = shared.obs.start_trace();
                let mut root = trace.begin("request", None);
                root.attr("error", "unparsed");
                let mut response = ApiError::from(e).to_response();
                root.finish();
                let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
                let route = RouteId::Unparsed;
                shared
                    .metrics
                    .record_request(route, response.status, total_ns);
                response.trace_id = Some(trace.id().to_string());
                let (finished, _) =
                    shared
                        .obs
                        .traces
                        .finish(&trace, route.pattern(), response.status, total_ns);
                if let Some(journal) = &shared.journal {
                    journal.publish(JournalEvent::Trace(TraceEvent::from_finished(&finished)));
                }
                let _ = response.write_to(&stream);
                return;
            }
        };
        first = false;
        // Per-request middleware: mint a trace, open the root span, time
        // the dispatch, and record the request under its route — whose
        // latency histogram keeps internal routes (probes, scrapes) out of
        // the serving percentiles. The trace id travels back in the `X-S2g-Trace`
        // header, ready for `GET /debug/trace/{id}`.
        let started = Instant::now();
        let trace = shared.obs.start_trace();
        // The scope makes the trace id ambient for the request: every log
        // line emitted while handling it (any thread-local depth) carries
        // the id, correlating logs with the span tree. The registry makes
        // the trace visible to the panic hook — a handler panic drains it
        // into the postmortem with the spans it had finished so far; the
        // guard unregisters on the way out, unwinding included.
        let _trace_scope = TraceScope::enter(trace.id());
        shared
            .obs
            .active
            .register(format!("{} {}", request.method, request.path), &trace);
        let _active_guard = ActiveGuard {
            shared,
            id: trace.id(),
        };
        let mut root = trace.begin("request", None);
        root.attr("method", request.method.to_string());
        root.attr("path", request.path.clone());
        // The client's latency budget (`X-S2g-Deadline-Ms`) counts from
        // request arrival; it rides the span context into the pool, where
        // queued work that expires answers 503 without executing.
        let ctx = root.ctx().with_deadline(
            request
                .deadline_ms
                .map(|ms| started + Duration::from_millis(ms)),
        );
        let (route, result) = route(shared, &request, &ctx);
        let mut response = match result {
            Ok(response) => response,
            Err(e) => e.to_response(),
        };
        root.finish();
        let total_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        shared
            .metrics
            .record_request(route, response.status, total_ns);
        response.trace_id = Some(trace.id().to_string());
        let (finished, slow) =
            shared
                .obs
                .traces
                .finish(&trace, route.pattern(), response.status, total_ns);
        // Slow and error traces are the forensically interesting ones —
        // they go to the journal (shedding, never blocking).
        if slow || response.status >= 400 {
            if let Some(journal) = &shared.journal {
                journal.publish(JournalEvent::Trace(TraceEvent::from_finished(&finished)));
            }
        }
        if slow {
            s2g_obs::warn!(
                "server",
                "slow request: {} {} -> {} in {:.3} ms (trace {})",
                request.method,
                request.path,
                response.status,
                total_ns as f64 / 1e6,
                trace.id()
            );
        } else {
            s2g_obs::debug!(
                "server",
                "{} {} -> {} in {:.3} ms (trace {})",
                request.method,
                request.path,
                response.status,
                total_ns as f64 / 1e6,
                trace.id()
            );
        }
        // Error responses always close: the connection state after a
        // rejected request is not worth trusting. Success responses honor
        // the peer's persistence preference unless shutdown began.
        let keep_alive =
            request.keep_alive && response.status < 400 && !shared.shutdown.load(Ordering::SeqCst);
        if response.write_to_conn(&stream, keep_alive).is_err() || !keep_alive {
            return;
        }
    }
}

/// Dispatches one parsed request to its endpoint handler. Returns the
/// handler outcome together with the [`RouteId`] the request resolved to
/// — the index that picks its counter cell, latency histogram and trace
/// name (names never leak into labels).
fn route(
    shared: &Shared,
    request: &Request,
    ctx: &SpanCtx,
) -> (RouteId, Result<Response, ApiError>) {
    use Method::{Delete, Get, Post, Put};
    use RouteId as R;
    let segments: Vec<&str> = request.segments.iter().map(String::as_str).collect();
    match (request.method, segments.as_slice()) {
        (Get, ["healthz"]) => (R::Healthz, handle_healthz(shared)),
        (Get, ["metrics"]) => (R::Metrics, handle_metrics(shared)),
        (Get, ["metrics", "json"]) => (R::MetricsJson, handle_metrics_json(shared)),
        (Get, ["metrics", "history"]) => {
            (R::MetricsHistory, handle_metrics_history(shared, request))
        }
        (Get, ["metrics", "delta"]) => (R::MetricsDelta, handle_metrics_delta(shared, request)),
        (Get, ["metrics", "journal"]) => (R::MetricsJournal, handle_metrics_journal(shared)),
        (Get, ["watch"]) => (R::Watch, handle_watch(shared)),
        (Get, ["debug", "trace", id]) => (R::DebugTrace, handle_debug_trace(shared, id)),
        (Get, ["debug", "slow"]) => (R::DebugSlow, handle_debug_slow(shared)),
        (Post, ["debug", "failpoint"]) => (R::FailpointSet, handle_failpoint_set(shared, request)),
        (Get, ["debug", "failpoint"]) => (R::FailpointList, handle_failpoint_list(shared)),
        (Get, ["models"]) => (R::ListModels, handle_list_models(shared)),
        (Put, ["models", name]) => (R::Fit, handle_fit(shared, name, request, ctx)),
        (Get, ["models", name]) => (R::ModelInfo, handle_model_info(shared, name)),
        (Delete, ["models", name]) => (R::DeleteModel, handle_delete_model(shared, name)),
        (Post, ["models", name, "score"]) => (R::Score, handle_score(shared, name, request, ctx)),
        (Post, ["sessions"]) => (R::OpenSession, handle_open_session(shared, request)),
        (Post, ["sessions", id, "push"]) => (
            R::PushSession,
            handle_push_session(shared, id, request, ctx),
        ),
        (Delete, ["sessions", id]) => (R::CloseSession, handle_close_session(shared, id)),
        (Post, ["admin", "shutdown"]) => (R::Shutdown, handle_shutdown(shared)),
        // Known resource, wrong method.
        (
            _,
            ["healthz" | "metrics" | "models" | "watch"]
            | ["metrics", ..]
            | ["debug", ..]
            | ["models", ..]
            | ["sessions", ..]
            | ["admin", "shutdown"],
        ) => (
            R::MethodNotAllowed,
            Err(ApiError::new(
                405,
                "method_not_allowed",
                format!("{} is not supported on {}", request.method, request.path),
            )),
        ),
        _ => (
            R::Other,
            Err(ApiError::not_found(format!(
                "no such endpoint: {}",
                request.path
            ))),
        ),
    }
}

/// Model names share the registry/store boundary rules
/// ([`s2g_engine::validate_model_name`]): 1–128 bytes of `[A-Za-z0-9._-]`,
/// not `"."`/`".."` — safe to reuse verbatim as store file names. A bad
/// name is a semantic (422) rejection on the wire.
fn validate_name(name: &str) -> Result<(), ApiError> {
    s2g_engine::validate_model_name(name)
        .map_err(|e| ApiError::new(422, "invalid_name", e.to_string()))
}

fn query_usize(request: &Request, key: &str) -> Result<Option<usize>, ApiError> {
    match request.query_param(key) {
        None => Ok(None),
        Some(raw) => raw.parse().map(Some).map_err(|_| {
            ApiError::bad_request(format!(
                "query parameter {key} expects an integer, got {raw:?}"
            ))
        }),
    }
}

fn required_query_usize(request: &Request, key: &str) -> Result<usize, ApiError> {
    query_usize(request, key)?
        .ok_or_else(|| ApiError::bad_request(format!("query parameter {key} is required")))
}

/// Builds an [`S2gConfig`] from `PUT /models/{name}` query parameters.
fn config_from_query(request: &Request) -> Result<S2gConfig, ApiError> {
    let pattern_length = required_query_usize(request, "pattern_length")?;
    let mut config = S2gConfig::new(pattern_length);
    if let Some(lambda) = query_usize(request, "lambda")? {
        config.lambda = lambda;
    }
    if let Some(rate) = query_usize(request, "rate")? {
        config.rate = rate;
    }
    if let Some(kde_grid) = query_usize(request, "kde_grid")? {
        config.kde_grid_points = kde_grid;
    }
    if let Some(raw) = request.query_param("sigma_ratio") {
        let ratio: f64 = raw.parse().map_err(|_| {
            ApiError::bad_request(format!("sigma_ratio expects a number, got {raw:?}"))
        })?;
        config.bandwidth = BandwidthRule::SigmaRatio(ratio);
    }
    if let Some(raw) = request.query_param("smooth") {
        config.smooth_scores = match raw {
            "true" | "1" => true,
            "false" | "0" => false,
            _ => {
                return Err(ApiError::bad_request(format!(
                    "smooth expects true|false, got {raw:?}"
                )))
            }
        };
    }
    config
        .validate()
        .map_err(|e| ApiError::new(400, "invalid_config", e.to_string()))?;
    Ok(config)
}

fn model_info_json(info: &ModelInfo) -> Json {
    Json::obj([
        ("name", Json::from(info.name.clone())),
        ("pattern_length", Json::from(info.pattern_length)),
        ("node_count", Json::from(info.node_count)),
        ("edge_count", Json::from(info.edge_count)),
        ("train_len", Json::from(info.train_len)),
        ("fitted_at", Json::from(info.fitted_at as usize)),
    ])
}

/// u64 checksums exceed what a JSON `f64` number can hold exactly, so the
/// protocol carries them as fixed-width hex strings.
fn checksum_string(checksum: u64) -> String {
    format!("{checksum:#018x}")
}

fn handle_metrics(shared: &Shared) -> Result<Response, ApiError> {
    Ok(Response::plain_text(metrics::render_text(shared)))
}

fn handle_metrics_json(shared: &Shared) -> Result<Response, ApiError> {
    Ok(Response::ok(vec![metrics::render_json(shared).encode()]))
}

/// `GET /metrics/history?window=&step=`: the flight recorder's retained
/// series (404 when sampling is disabled). `window` is in seconds
/// (0 / absent = everything retained); `step` keeps every Nth sample.
fn handle_metrics_history(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let Some(recorder) = &shared.recorder else {
        return Err(ApiError::not_found(
            "flight recorder disabled (serve with --sample-interval-ms > 0)",
        ));
    };
    let window = query_usize(request, "window")?.unwrap_or(0) as u64;
    let step = query_usize(request, "step")?.unwrap_or(1).max(1);
    Ok(Response::ok(vec![history::history_json(
        recorder, window, step,
    )
    .encode()]))
}

/// `GET /metrics/delta?window=`: rates and windowed latency summaries over
/// the last `window` seconds of retained samples (default 60).
fn handle_metrics_delta(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let Some(recorder) = &shared.recorder else {
        return Err(ApiError::not_found(
            "flight recorder disabled (serve with --sample-interval-ms > 0)",
        ));
    };
    let window = query_usize(request, "window")?.unwrap_or(60) as u64;
    Ok(Response::ok(vec![
        history::delta_json(recorder, window).encode()
    ]))
}

/// `GET /watch`: the self-watch board (404 when sampling is disabled).
fn handle_watch(shared: &Shared) -> Result<Response, ApiError> {
    let (Some(watch), Some(recorder)) = (&shared.watch, &shared.recorder) else {
        return Err(ApiError::not_found(
            "self-watch disabled (serve with --sample-interval-ms > 0)",
        ));
    };
    let mut body = watch.status_json(recorder);
    if let Json::Obj(pairs) = &mut body {
        pairs.push((
            "store_mode".to_string(),
            Json::from(
                shared
                    .engine
                    .storage()
                    .map_or("none", |s| s.mode().as_str()),
            ),
        ));
    }
    Ok(Response::ok(vec![body.encode()]))
}

/// One failpoint's live state as its wire JSON shape.
fn failpoint_status_json(status: &s2g_failpoints::Status) -> Json {
    Json::obj([
        ("name", Json::from(status.name)),
        ("action", Json::from(status.action)),
        ("delay_ms", Json::from(status.delay_ms as usize)),
        ("probability", Json::from(status.probability)),
        (
            "budget_remaining",
            status
                .budget_remaining
                .map_or(Json::Null, |b| Json::from(b as usize)),
        ),
        ("triggers", Json::from(status.triggers as usize)),
    ])
}

/// Both failpoint drill endpoints answer 404 unless `--failpoints` was
/// given — failure injection must be opted into, never reachable by
/// default.
fn require_failpoints(shared: &Shared) -> Result<(), ApiError> {
    if !shared.failpoints {
        return Err(ApiError::not_found(
            "failpoints disabled (serve with --failpoints)",
        ));
    }
    Ok(())
}

/// `GET /debug/failpoint`: live status of every compiled failpoint.
fn handle_failpoint_list(shared: &Shared) -> Result<Response, ApiError> {
    require_failpoints(shared)?;
    let points: Vec<Json> = s2g_failpoints::snapshot()
        .iter()
        .map(failpoint_status_json)
        .collect();
    let body = Json::obj([("failpoints", Json::Arr(points))]);
    Ok(Response::ok(vec![body.encode()]))
}

/// `POST /debug/failpoint`: arms (or disarms) one failpoint over the
/// wire. Body: `{"name":..., "action":"off|error|delay|panic"}` plus
/// optional `"delay_ms"` (required for `delay`), `"p"` (probability,
/// default 1) and `"budget"` (max triggers, default unlimited). Responds
/// with the failpoint's resulting status.
fn handle_failpoint_set(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    require_failpoints(shared)?;
    let body = Json::parse(request.body_text()?)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))?;
    let name = body
        .get("name")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("body must set \"name\" to a failpoint name"))?;
    let action = body.get("action").and_then(Json::as_str).ok_or_else(|| {
        ApiError::bad_request("body must set \"action\" to off|error|delay|panic")
    })?;
    let action = match action {
        "off" => s2g_failpoints::Action::Off,
        "error" => s2g_failpoints::Action::Error,
        "panic" => s2g_failpoints::Action::Panic,
        "delay" => {
            let ms = body
                .get("delay_ms")
                .and_then(Json::as_usize)
                .ok_or_else(|| {
                    ApiError::bad_request("action \"delay\" needs \"delay_ms\" (an integer)")
                })?;
            s2g_failpoints::Action::Delay(Duration::from_millis(ms as u64))
        }
        other => {
            return Err(ApiError::bad_request(format!(
                "unknown action {other:?} (off|error|delay|panic)"
            )))
        }
    };
    let mut settings = s2g_failpoints::Settings::new(action);
    if let Some(p) = body.get("p") {
        settings.probability = p
            .as_f64()
            .filter(|p| (0.0..=1.0).contains(p))
            .ok_or_else(|| ApiError::bad_request("\"p\" must be a probability in [0, 1]"))?;
    }
    if let Some(budget) = body.get("budget") {
        settings.budget = Some(
            budget
                .as_usize()
                .ok_or_else(|| ApiError::bad_request("\"budget\" must be a non-negative integer"))?
                as u64,
        );
    }
    s2g_failpoints::arm(name, settings)
        .map_err(|e| ApiError::new(422, "unknown_failpoint", e.to_string()))?;
    s2g_obs::warn!(
        "server",
        "failpoint {name} set to {} over the wire",
        action.kind()
    );
    let status = s2g_failpoints::status(name)
        .map_err(|e| ApiError::new(422, "unknown_failpoint", e.to_string()))?;
    Ok(Response::ok(vec![failpoint_status_json(&status).encode()]))
}

/// The admission gate: pool-bound routes call this before queueing work.
/// With the gate on and the pool backlog at the threshold, the request is
/// shed with `429 Retry-After` — refusing cheaply at the door beats
/// queueing work that will only expire.
fn admit(shared: &Shared) -> Result<(), ApiError> {
    let limit = shared.admission_queue;
    if limit > 0 && shared.engine.pending_tasks() >= limit as u64 {
        shared.shed.fetch_add(1, Ordering::Relaxed);
        return Err(ApiError::overloaded(
            format!("scoring backlog at {limit} queued tasks; retry shortly"),
            1,
        ));
    }
    Ok(())
}

/// `GET /metrics/journal`: writer health of the durable telemetry
/// journal — segment/byte footprint on disk, events written, events shed
/// (`dropped`; the writer never blocks the serving path), rotations, and
/// the live segment's sequence number. 404 when journaling is off.
fn handle_metrics_journal(shared: &Shared) -> Result<Response, ApiError> {
    let Some(journal) = &shared.journal else {
        return Err(ApiError::not_found(
            "journal disabled (serve with --data-dir, without --no-journal)",
        ));
    };
    let stats = journal.stats();
    let body = Json::obj([
        ("dir", Json::from(journal.dir().display().to_string())),
        ("segments", Json::from(stats.segments as usize)),
        ("bytes", Json::from(stats.bytes as usize)),
        ("written", Json::from(stats.written as usize)),
        ("dropped", Json::from(stats.dropped as usize)),
        ("rotations", Json::from(stats.rotations as usize)),
        ("current_seq", Json::from(stats.current_seq as usize)),
    ]);
    Ok(Response::ok(vec![body.encode()]))
}

/// One finished trace as its `/debug/trace/{id}` JSON rendering: the span
/// tree flattened to records with explicit `parent` ids.
fn finished_trace_json(trace: &FinishedTrace) -> Json {
    let spans: Vec<Json> = trace
        .spans
        .iter()
        .map(|span| {
            let attrs: Vec<(String, Json)> = span
                .attrs
                .iter()
                .map(|(k, v)| (k.to_string(), Json::from(v.clone())))
                .collect();
            Json::obj([
                ("id", Json::from(span.id as usize)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::from(p as usize)),
                ),
                ("name", Json::from(span.name)),
                ("start_ns", Json::from(span.start_ns as usize)),
                ("duration_ns", Json::from(span.duration_ns as usize)),
                ("attrs", Json::Obj(attrs)),
            ])
        })
        .collect();
    Json::obj([
        ("trace", Json::from(trace.id.to_string())),
        ("route", Json::from(trace.route)),
        ("status", Json::from(trace.status as usize)),
        ("total_ns", Json::from(trace.total_ns as usize)),
        ("spans", Json::Arr(spans)),
    ])
}

fn handle_debug_trace(shared: &Shared, id: &str) -> Result<Response, ApiError> {
    let id = TraceId::parse(id)
        .ok_or_else(|| ApiError::bad_request("trace id must be 16 lowercase hex digits"))?;
    let trace = shared.obs.traces.lookup(id).ok_or_else(|| {
        ApiError::not_found(format!(
            "no retained trace {id} (the ring keeps the last {} traces, plus slow ones)",
            shared.obs.traces.capacity()
        ))
    })?;
    Ok(Response::ok(vec![finished_trace_json(&trace).encode()]))
}

fn handle_debug_slow(shared: &Shared) -> Result<Response, ApiError> {
    let threshold = shared.obs.traces.slow_threshold_ns();
    let traces: Vec<Json> = shared
        .obs
        .traces
        .slow()
        .iter()
        .map(|t| {
            Json::obj([
                ("trace", Json::from(t.id.to_string())),
                ("route", Json::from(t.route)),
                ("status", Json::from(t.status as usize)),
                ("total_ns", Json::from(t.total_ns as usize)),
                ("spans", Json::from(t.spans.len())),
            ])
        })
        .collect();
    let body = Json::obj([
        (
            "slow_threshold_ms",
            if threshold == u64::MAX {
                Json::Null
            } else {
                Json::from((threshold / 1_000_000) as usize)
            },
        ),
        ("traces", Json::Arr(traces)),
    ]);
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_healthz(shared: &Shared) -> Result<Response, ApiError> {
    // The original liveness fields keep their names and meanings; the
    // status payload grew around them (uptime, persistence, residency).
    let storage = shared.engine.storage();
    let body = Json::obj([
        ("status", Json::from("ok")),
        ("models", Json::from(shared.engine.registry().len())),
        ("sessions", Json::from(shared.sessions.len())),
        ("workers", Json::from(shared.engine.workers())),
        (
            "uptime_secs",
            Json::from(shared.started.elapsed().as_secs() as usize),
        ),
        ("persistent", Json::from(storage.is_some())),
        (
            // `read_write` in health, `degraded` while the store's disk is
            // refusing writes (scoring still works), `none` memory-only.
            "store_mode",
            Json::from(storage.map_or("none", |s| s.mode().as_str())),
        ),
        (
            "stored_models",
            Json::from(storage.map_or(0, |s| s.stored())),
        ),
        (
            "resident_bytes",
            Json::from(storage.map_or(0, |s| s.resident_bytes()) as usize),
        ),
        (
            "watch",
            Json::from(match &shared.watch {
                None => "disabled",
                Some(watch) => watch.health_state(),
            }),
        ),
    ]);
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_list_models(shared: &Shared) -> Result<Response, ApiError> {
    let models: Vec<Json> = shared
        .engine
        .list_models()
        .iter()
        .map(model_info_json)
        .collect();
    let body = Json::obj([("models", Json::Arr(models))]);
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_fit(
    shared: &Shared,
    name: &str,
    request: &Request,
    ctx: &SpanCtx,
) -> Result<Response, ApiError> {
    admit(shared)?;
    validate_name(name)?;
    let config = config_from_query(request)?;
    // The posted CSV goes through the *same* parser as the file reader, so a
    // remote fit sees bit-identical values to a local fit on the same file.
    let series = ts_io::parse_series(request.body_text()?)?;
    if series.is_empty() {
        return Err(ApiError::bad_request("request body contains no values"));
    }
    // The info describes the model *this* request fitted (no registry
    // re-lookup a concurrent re-fit of the same name could race), and its
    // checksum was computed once at registration.
    let (_model, info) = shared.engine.fit_model(name, &series, &config, Some(ctx))?;
    shared.metrics.record_fit();
    let mut body = model_info_json(&info);
    if let Json::Obj(pairs) = &mut body {
        pairs.push((
            "checksum".to_string(),
            Json::from(checksum_string(info.checksum)),
        ));
    }
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_model_info(shared: &Shared, name: &str) -> Result<Response, ApiError> {
    let info = shared
        .engine
        .model_info(name)
        .ok_or_else(|| ApiError::new(404, "unknown_model", format!("no model named {name:?}")))?;
    let mut body = model_info_json(&info);
    if let Json::Obj(pairs) = &mut body {
        pairs.push((
            "checksum".to_string(),
            Json::from(checksum_string(info.checksum)),
        ));
        // Adapted snapshots expose their provenance; pristine fits omit
        // the key entirely.
        if let Some(lineage) = shared.engine.model_lineage(name) {
            pairs.push((
                "lineage".to_string(),
                Json::obj([
                    (
                        "parent_checksum",
                        Json::from(checksum_string(lineage.parent_checksum)),
                    ),
                    ("updates", Json::from(lineage.update_count as usize)),
                    ("lambda", Json::from(lineage.decay_lambda)),
                ]),
            ));
        }
    }
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_delete_model(shared: &Shared, name: &str) -> Result<Response, ApiError> {
    if !shared.engine.remove_model(name)? {
        return Err(ApiError::new(
            404,
            "unknown_model",
            format!("no model named {name:?}"),
        ));
    }
    let body = Json::obj([("deleted", Json::from(name))]);
    Ok(Response::ok(vec![body.encode()]))
}

/// Parses one comma-separated series line found on 1-based line `line`,
/// with the value rule of the file parser ([`ts_io::parse_value`]).
fn parse_series_line(line: usize, text: &str) -> Result<Vec<f64>, s2g_timeseries::Error> {
    let mut values = Vec::new();
    for token in text.split(',').map(str::trim) {
        if !token.is_empty() {
            values.push(ts_io::parse_value(line, token)?);
        }
    }
    Ok(values)
}

fn handle_score(
    shared: &Shared,
    name: &str,
    request: &Request,
    ctx: &SpanCtx,
) -> Result<Response, ApiError> {
    admit(shared)?;
    let query_length = required_query_usize(request, "query_length")?;
    let text = request.body_text()?;
    let mut series = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        // Mirror `parse_series`: a first line whose first field is not a
        // number is a header row and skipped, so the same CSV file is
        // accepted by fit and score alike. Any other bad token is an error.
        if lineno == 0 && ts_io::is_header(line) {
            continue;
        }
        series.push(TimeSeries::from(parse_series_line(lineno + 1, line)?));
    }
    if series.is_empty() {
        return Err(ApiError::bad_request("request body contains no series"));
    }

    // One line per input series, submission-ordered by the worker pool.
    let n_series = series.len() as u64;
    let results = shared
        .engine
        .score_many(name, series, query_length, Some(ctx))?;
    shared.metrics.record_scores(n_series);
    let lines = results
        .into_iter()
        .enumerate()
        .map(|(index, result)| match result {
            Ok(scores) => {
                // Up to 24 bytes per shortest-form f64 plus its comma.
                let mut line = String::with_capacity(32 + 25 * scores.len());
                json::write_score_line(&mut line, index, &scores);
                line
            }
            Err(e) => {
                let api = ApiError::from(e);
                Json::obj([
                    ("index", Json::from(index)),
                    ("error", Json::from(api.code)),
                    ("message", Json::from(api.message)),
                ])
                .encode()
            }
        })
        .collect();
    Ok(Response::ok(lines))
}

/// Parses the optional `"adapt"` member of a `POST /sessions` body:
/// absent or `false` → frozen session; `true` → adaptation with defaults;
/// an object → defaults overridden per key.
fn adapt_from_session_body(body: &Json) -> Result<Option<AdaptConfig>, ApiError> {
    let Some(adapt) = body.get("adapt") else {
        return Ok(None);
    };
    let mut config = AdaptConfig::default();
    match adapt {
        Json::Bool(false) => return Ok(None),
        Json::Bool(true) => {}
        Json::Obj(_) => {
            let f64_field = |key: &str| -> Result<Option<f64>, ApiError> {
                match adapt.get(key) {
                    None => Ok(None),
                    Some(v) => v.as_f64().map(Some).ok_or_else(|| {
                        ApiError::bad_request(format!("adapt.{key} expects a number"))
                    }),
                }
            };
            let usize_field = |key: &str| -> Result<Option<usize>, ApiError> {
                match adapt.get(key) {
                    None => Ok(None),
                    Some(v) => v.as_usize().map(Some).ok_or_else(|| {
                        ApiError::bad_request(format!("adapt.{key} expects an integer"))
                    }),
                }
            };
            if let Some(lambda) = f64_field("lambda")? {
                config.lambda = lambda;
            }
            if let Some(quantile) = f64_field("normal_quantile")? {
                config.normal_quantile = quantile;
            }
            if let Some(window) = usize_field("drift_window")? {
                config.drift_window = window;
            }
            if let Some(threshold) = f64_field("drift_threshold")? {
                config.drift_threshold = threshold;
            }
            if let Some(interval) = usize_field("publish_interval")? {
                config.publish_interval = interval as u64;
            }
            if let Some(buffer) = usize_field("refit_buffer")? {
                config.refit_buffer = buffer;
            }
            if let Some(cooldown) = usize_field("refit_cooldown")? {
                config.refit_cooldown = cooldown as u64;
            }
        }
        _ => {
            return Err(ApiError::bad_request(
                "\"adapt\" must be a boolean or an object",
            ))
        }
    }
    Ok(Some(config))
}

fn handle_open_session(shared: &Shared, request: &Request) -> Result<Response, ApiError> {
    let body = Json::parse(request.body_text()?)
        .map_err(|e| ApiError::bad_request(format!("invalid JSON body: {e}")))?;
    let model = body
        .get("model")
        .and_then(Json::as_str)
        .ok_or_else(|| ApiError::bad_request("body must set \"model\" to a string"))?;
    let query_length = body
        .get("query_length")
        .and_then(Json::as_usize)
        .ok_or_else(|| ApiError::bad_request("body must set \"query_length\" to an integer"))?;
    let adapt = adapt_from_session_body(&body)?;
    let adaptive = adapt.is_some();
    let id = shared
        .sessions
        .create(&shared.engine, model, query_length, adapt)?;
    shared.metrics.record_session_opened();
    let body = Json::obj([
        ("session", Json::from(id)),
        ("model", Json::from(model)),
        ("query_length", Json::from(query_length)),
        ("adaptive", Json::from(adaptive)),
    ]);
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_push_session(
    shared: &Shared,
    id: &str,
    request: &Request,
    ctx: &SpanCtx,
) -> Result<Response, ApiError> {
    admit(shared)?;
    shared.sessions.touch(&shared.engine, id)?;
    let series = ts_io::parse_series(request.body_text()?)?;
    let (emitted, status) = shared.engine.push_stream(id, series.values(), Some(ctx))?;
    let adapt = status.map(|status| {
        let (update_delta, refit_delta) =
            shared
                .sessions
                .record_adapt_progress(id, status.updates, status.refits);
        shared.metrics.record_adaptation(
            update_delta,
            refit_delta,
            status.published_checksum.is_some(),
        );
        let mut adapt = vec![
            ("updates".to_string(), Json::from(status.updates as usize)),
            ("refits".to_string(), Json::from(status.refits as usize)),
            ("action".to_string(), Json::from(status.action.name())),
            (
                "drift".to_string(),
                Json::obj([
                    ("shift", Json::from(status.drift.shift)),
                    ("drifting", Json::from(status.drift.drifting)),
                    ("live_mean", Json::from(status.drift.live_mean)),
                    ("baseline_mean", Json::from(status.drift.baseline_mean)),
                    ("window", Json::from(status.drift.window_len)),
                ]),
            ),
        ];
        if let Some(checksum) = status.published_checksum {
            adapt.push((
                "published_checksum".to_string(),
                Json::from(checksum_string(checksum)),
            ));
        }
        Json::Obj(adapt)
    });
    let mut body = String::with_capacity(64 + 32 * emitted.len());
    json::write_push_reply(&mut body, id, series.len(), &emitted, adapt.as_ref());
    Ok(Response::ok(vec![body]))
}

fn handle_close_session(shared: &Shared, id: &str) -> Result<Response, ApiError> {
    shared.sessions.forget(id);
    let consumed = shared.engine.close_stream(id)?;
    let body = Json::obj([
        ("session", Json::from(id)),
        ("consumed", Json::from(consumed)),
    ]);
    Ok(Response::ok(vec![body.encode()]))
}

fn handle_shutdown(shared: &Shared) -> Result<Response, ApiError> {
    shared.trigger_shutdown();
    let body = Json::obj([("status", Json::from("shutting-down"))]);
    Ok(Response::ok(vec![body.encode()]))
}
