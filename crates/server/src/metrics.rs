//! The server's instrument registry: every route, counter and gauge the
//! server exposes is declared here once, and the same declarations render
//! `GET /metrics` (the Prometheus text subset: `name{labels} value`
//! lines), `GET /metrics/json`, and the flight recorder's frozen
//! [`SeriesSchema`] and its [`Sample`]s.
//!
//! * **Routes** — [`RouteId`] indexes the route table. The router resolves
//!   each request to one `RouteId`; that index picks the request's
//!   `(route, status)` counter cell, its latency histogram and its trace's
//!   route name.
//! * **Counters** — the `(route, status)` grid plus [`COUNTERS`].
//! * **Gauges** — [`GAUGES`], sampled from the live server at scrape and
//!   sample time.
//! * **Stages** — `Obs::stages()`: the engine, pool and store record
//!   those.
//!
//! Recording is **wait-free**: the route patterns and status codes are
//! finite and known at compile time, so the `(route, status)` counters
//! live in a pre-registered flat `AtomicU64` grid, addressed by the route
//! index and a bounded scan of the status table — one relaxed
//! `fetch_add`, no lock, no allocation. Unknown statuses fall into a
//! catch-all cell instead of growing the grid, so cardinality stays
//! bounded no matter what traffic arrives.

use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};

use s2g_obs::recorder::{CompactHistogram, Sample, SeriesSchema};
use s2g_obs::{Histogram, Obs};

use crate::json::Json;
use crate::server::Shared;

/// Which latency histogram a route's requests are timed into. The
/// positions fix each route's place in the flight recorder's schema.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Latency {
    /// `s2g_request_duration_ns{route}`, at this position of the external
    /// (serving) block.
    External(usize),
    /// `s2g_internal_request_duration_ns{route}`, at this position of the
    /// internal block: probes, scrapes and debug endpoints, kept apart so
    /// a 1 Hz scraper never skews the serving percentiles it reports.
    Internal(usize),
    /// The external `(other)` catch-all: unknown paths and wrong methods.
    /// Exposed when it counted something, never sampled.
    CatchAll,
    /// Not timed: the request never parsed.
    Untimed,
}

use Latency::{CatchAll, External, Internal, Untimed};

struct Route {
    pattern: &'static str,
    latency: Latency,
}

/// Declares [`RouteId`] and the route table from one list, so a route's
/// name, pattern and latency histogram are written in one row.
macro_rules! routes {
    ($($id:ident => $pattern:literal, $latency:expr;)+) => {
        /// A route's index in the route table: the normalised pattern the
        /// router resolved a request to.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub(crate) enum RouteId {
            $(
                #[doc = $pattern]
                $id,
            )+
        }

        /// Every route the server can resolve, including the synthetic
        /// ones for unroutable and unparseable requests, in `(route,
        /// status)` grid order. Patterns are normalised (`PUT
        /// /models/{name}`), never raw paths, so labels stay bounded.
        const ROUTES: &[Route] = &[$(Route { pattern: $pattern, latency: $latency }),+];
    };
}

routes! {
    Healthz => "GET /healthz", Internal(0);
    Metrics => "GET /metrics", Internal(1);
    MetricsJson => "GET /metrics/json", Internal(2);
    MetricsHistory => "GET /metrics/history", Internal(3);
    MetricsDelta => "GET /metrics/delta", Internal(4);
    MetricsJournal => "GET /metrics/journal", Internal(8);
    Watch => "GET /watch", Internal(5);
    DebugTrace => "GET /debug/trace/{id}", Internal(6);
    DebugSlow => "GET /debug/slow", Internal(7);
    FailpointSet => "POST /debug/failpoint", Internal(9);
    FailpointList => "GET /debug/failpoint", Internal(10);
    ListModels => "GET /models", External(0);
    Fit => "PUT /models/{name}", External(1);
    ModelInfo => "GET /models/{name}", External(2);
    DeleteModel => "DELETE /models/{name}", External(3);
    Score => "POST /models/{name}/score", External(4);
    OpenSession => "POST /sessions", External(5);
    PushSession => "POST /sessions/{id}/push", External(6);
    CloseSession => "DELETE /sessions/{id}", External(7);
    Shutdown => "POST /admin/shutdown", External(8);
    MethodNotAllowed => "(method_not_allowed)", CatchAll;
    Unparsed => "(unparsed)", Untimed;
    Other => "(other)", CatchAll;
}

impl RouteId {
    /// The normalised route pattern: the `route` label and trace name.
    pub(crate) fn pattern(self) -> &'static str {
        ROUTES[self as usize].pattern
    }
}

/// Routes in each latency block.
const fn block_len(internal: bool) -> usize {
    let mut n = 0;
    let mut i = 0;
    while i < ROUTES.len() {
        match ROUTES[i].latency {
            External(_) if !internal => n += 1,
            Internal(_) if internal => n += 1,
            _ => {}
        }
        i += 1;
    }
    n
}

const EXTERNAL: usize = block_len(false);
/// Sampled latency histograms: the external block, then the internal one.
const TIMED: usize = EXTERNAL + block_len(true);
/// Latency slot of the `(other)` catch-all, after every sampled one.
const CATCH_ALL: usize = TIMED;

/// Positions of the external latency histograms in every [`Sample`].
pub(crate) const EXTERNAL_SLOTS: Range<usize> = 0..EXTERNAL;

impl Latency {
    fn slot(self) -> Option<usize> {
        match self {
            External(i) => Some(i),
            Internal(i) => Some(EXTERNAL + i),
            CatchAll => Some(CATCH_ALL),
            Untimed => None,
        }
    }
}

/// The series family of a latency slot.
fn latency_family(slot: usize) -> &'static str {
    if slot < EXTERNAL || slot == CATCH_ALL {
        "s2g_request_duration_ns"
    } else {
        "s2g_internal_request_duration_ns"
    }
}

/// The `route` label of a latency slot.
fn latency_route(slot: usize) -> &'static str {
    if slot == CATCH_ALL {
        return RouteId::Other.pattern();
    }
    ROUTES
        .iter()
        .find(|route| route.latency.slot() == Some(slot))
        .map(|route| route.pattern)
        .expect("every latency slot belongs to one route")
}

/// Latency slots of external traffic in exposition order: the external
/// block, then the catch-all.
fn external_exposition() -> impl Iterator<Item = usize> {
    EXTERNAL_SLOTS.chain([CATCH_ALL])
}

/// Every status code the server emits (see [`crate::http::Response::reason`]);
/// the trailing `0` cell catches anything outside the set and renders as
/// `status="other"`.
const STATUS_CODES: &[u16] = &[200, 400, 404, 405, 409, 413, 422, 429, 500, 503, 0];

fn status_slot(status: u16) -> usize {
    STATUS_CODES
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUS_CODES.len() - 1)
}

const REQUESTS_TOTAL: &str = "s2g_requests_total";
const REQUEST_ERRORS_TOTAL: &str = "s2g_request_errors_total";

/// A scalar counter: its series name and the atomic it reads.
type Counter = (&'static str, fn(&Metrics) -> &AtomicU64);

/// The scalar counters, in exposition and schema order.
const COUNTERS: &[Counter] = &[
    ("s2g_fits_total", |m| &m.fits),
    ("s2g_scored_series_total", |m| &m.scored_series),
    ("s2g_sessions_opened_total", |m| &m.sessions_opened),
    ("s2g_adapt_updates_total", |m| &m.adapt_updates),
    ("s2g_adapt_refits_total", |m| &m.adapt_refits),
    ("s2g_adapt_published_total", |m| &m.adapt_published),
];

/// A gauge: its series name and how to sample it from the live server.
type Gauge = (&'static str, fn(&Shared) -> u64);

/// The point-in-time gauges, in exposition and schema order.
const GAUGES: &[Gauge] = &[
    ("s2g_models_registered", |s| {
        s.engine.registry().len() as u64
    }),
    ("s2g_models_stored", |s| {
        s.engine.storage().map_or(0, |st| st.stored() as u64)
    }),
    ("s2g_store_resident_bytes", |s| {
        s.engine.storage().map_or(0, |st| st.resident_bytes())
    }),
    ("s2g_store_residency_evictions_total", |s| {
        s.engine.storage().map_or(0, |st| st.residency_evictions())
    }),
    ("s2g_sessions_open", |s| s.sessions.len() as u64),
    ("s2g_workers", |s| s.engine.workers() as u64),
    ("s2g_pool_queue_depth_total", |s| {
        s.engine.queue_depths().iter().sum()
    }),
    ("s2g_pool_tasks_pending", |s| s.engine.pending_tasks()),
    // 1 while the store's disk is refusing writes — an anomaly the
    // self-watch history makes legible after the fact.
    ("s2g_store_degraded", |s| {
        s.engine.storage().map_or(0, |st| {
            u64::from(st.mode() == s2g_engine::StoreMode::Degraded)
        })
    }),
    ("s2g_accept_slots", |s| s.slots.capacity as u64),
    ("s2g_accept_slots_in_use", |s| s.slots.occupancy().0 as u64),
    ("s2g_accept_waiting", |s| s.slots.occupancy().1 as u64),
    ("s2g_uptime_seconds", |s| s.started.elapsed().as_secs()),
];

/// Process-wide serving instruments (one instance per [`crate::Server`]).
#[derive(Debug)]
pub(crate) struct Metrics {
    /// Requests by `(route, status)`, flattened row-major over the route
    /// table × [`STATUS_CODES`].
    requests: Vec<AtomicU64>,
    /// Request latency by latency slot: the external block, the internal
    /// block, then the catch-all.
    latency: Vec<Histogram>,
    /// Successful model fits (`PUT /models/{name}`).
    fits: AtomicU64,
    /// Series scored by `POST /models/{name}/score` (one per input line).
    scored_series: AtomicU64,
    /// Streaming sessions opened.
    sessions_opened: AtomicU64,
    /// Accepted decayed edge updates across all adaptive sessions.
    adapt_updates: AtomicU64,
    /// Refits completed across all adaptive sessions.
    adapt_refits: AtomicU64,
    /// Adapted snapshots published (registered + persisted).
    adapt_published: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            requests: (0..ROUTES.len() * STATUS_CODES.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            latency: (0..=CATCH_ALL).map(|_| Histogram::new()).collect(),
            fits: AtomicU64::new(0),
            scored_series: AtomicU64::new(0),
            sessions_opened: AtomicU64::new(0),
            adapt_updates: AtomicU64::new(0),
            adapt_refits: AtomicU64::new(0),
            adapt_published: AtomicU64::new(0),
        }
    }
}

impl Metrics {
    /// Records one served request: its `(route, status)` cell and, unless
    /// the route is untimed, its latency.
    pub(crate) fn record_request(&self, route: RouteId, status: u16, total_ns: u64) {
        let index = route as usize;
        self.requests[index * STATUS_CODES.len() + status_slot(status)]
            .fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = ROUTES[index].latency.slot() {
            self.latency[slot].record(total_ns);
        }
    }

    /// Records one successful fit.
    pub(crate) fn record_fit(&self) {
        self.fits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` scored series.
    pub(crate) fn record_scores(&self, n: u64) {
        self.scored_series.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one opened streaming session.
    pub(crate) fn record_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one adaptive push's deltas into the adaptation counters.
    pub(crate) fn record_adaptation(&self, update_delta: u64, refit_delta: u64, published: bool) {
        self.adapt_updates
            .fetch_add(update_delta, Ordering::Relaxed);
        self.adapt_refits.fetch_add(refit_delta, Ordering::Relaxed);
        if published {
            self.adapt_published.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn cell(&self, route: usize, status: usize) -> u64 {
        self.requests[route * STATUS_CODES.len() + status].load(Ordering::Relaxed)
    }

    /// Counter values in schema order: one request total per route
    /// (summed over statuses), the global error total, then the scalar
    /// counters.
    fn counter_values(&self) -> Vec<u64> {
        let mut errors = 0u64;
        let mut values: Vec<u64> = (0..ROUTES.len())
            .map(|r| {
                let mut total = 0u64;
                for (s, &status) in STATUS_CODES.iter().enumerate() {
                    let count = self.cell(r, s);
                    total += count;
                    // The catch-all status cell (0) holds unknown codes —
                    // counted as errors to be safe.
                    if status >= 400 || status == 0 {
                        errors += count;
                    }
                }
                total
            })
            .collect();
        values.push(errors);
        values.extend(
            COUNTERS
                .iter()
                .map(|(_, counter)| counter(self).load(Ordering::Relaxed)),
        );
        values
    }
}

/// The frozen naming of everything a [`Sample`] retains: counters, gauges,
/// then the sampled latency histograms and `obs`'s stages.
pub(crate) fn schema(obs: &Obs) -> SeriesSchema {
    let stages = obs.stages();
    let counters = ROUTES
        .iter()
        .map(|route| format!("{REQUESTS_TOTAL}{{route=\"{}\"}}", route.pattern))
        .chain([REQUEST_ERRORS_TOTAL.to_string()])
        .chain(COUNTERS.iter().map(|(name, _)| name.to_string()));
    let histograms = (0..TIMED)
        .map(|slot| {
            format!(
                "{}{{route=\"{}\"}}",
                latency_family(slot),
                latency_route(slot)
            )
        })
        .chain(stages.iter().map(|(name, _)| name.to_string()));
    SeriesSchema {
        counters: counters.collect(),
        gauges: GAUGES.iter().map(|(name, _)| name.to_string()).collect(),
        histograms: histograms.collect(),
    }
}

/// Position of one of `obs`'s stage histograms in every [`Sample`].
pub(crate) fn stage_slot(obs: &Obs, stage: &Histogram) -> usize {
    let stages = obs.stages();
    let index = stages
        .iter()
        .position(|(_, hist)| std::ptr::eq(*hist, stage))
        .expect("a stage histogram of this Obs");
    TIMED + index
}

/// Freezes every live instrument into one [`schema`]-aligned [`Sample`].
pub(crate) fn sample(shared: &Shared) -> Sample {
    let latency = shared.metrics.latency[..TIMED].iter();
    let stages = shared.obs.stages();
    Sample {
        t_ns: s2g_obs::clock::now_ns(),
        counters: shared.metrics.counter_values(),
        gauges: GAUGES.iter().map(|(_, gauge)| gauge(shared)).collect(),
        histograms: latency
            .chain(stages.iter().map(|(_, hist)| *hist))
            .map(Histogram::snapshot)
            .collect(),
    }
}

/// One frozen histogram as the summary object every JSON surface uses
/// (`/metrics/json`, `/metrics/history`, `/metrics/delta`, `s2g obs
/// export`).
pub(crate) fn summary_json(hist: &CompactHistogram) -> Json {
    Json::obj([
        ("count", Json::from(hist.count as usize)),
        ("sum_ns", Json::from(hist.sum as usize)),
        ("max_ns", Json::from(hist.max as usize)),
        ("mean_ns", Json::from(hist.mean())),
        ("p50_ns", Json::from(hist.quantile(0.5) as usize)),
        ("p95_ns", Json::from(hist.quantile(0.95) as usize)),
        ("p99_ns", Json::from(hist.quantile(0.99) as usize)),
    ])
}

/// Appends one histogram's Prometheus-subset lines: `quantile` samples,
/// `_count`/`_sum`/`_max`, and cumulative `_bucket{le=...}` lines (only
/// non-empty buckets, closed by `le="+Inf"`). Empty histograms emit
/// nothing — a scrape never lists instruments that saw no traffic.
fn render_histogram(lines: &mut Vec<String>, name: &str, route: Option<&str>, hist: &Histogram) {
    let snap = hist.snapshot();
    if snap.count == 0 {
        return;
    }
    let labels = |extra: Option<(&str, String)>| -> String {
        let parts: Vec<String> = route
            .map(|route| ("route", route.to_string()))
            .into_iter()
            .chain(extra)
            .map(|(k, v)| format!("{k}=\"{v}\""))
            .collect();
        if parts.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", parts.join(","))
        }
    };
    for (q, tag) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
        lines.push(format!(
            "{name}{} {}",
            labels(Some(("quantile", tag.to_string()))),
            snap.quantile(q)
        ));
    }
    lines.push(format!("{name}_count{} {}", labels(None), snap.count));
    lines.push(format!("{name}_sum{} {}", labels(None), snap.sum));
    lines.push(format!("{name}_max{} {}", labels(None), snap.max));
    for (le, cum) in snap.cumulative_buckets() {
        lines.push(format!(
            "{name}_bucket{} {cum}",
            labels(Some(("le", le.to_string())))
        ));
    }
    lines.push(format!(
        "{name}_bucket{} {}",
        labels(Some(("le", "+Inf".to_string()))),
        snap.count
    ));
}

/// The `GET /metrics` exposition. Only `(route, status)` cells that
/// counted something are emitted, so the grid's size never bloats the
/// scrape.
pub(crate) fn render_text(shared: &Shared) -> Vec<String> {
    let metrics = &shared.metrics;
    let mut lines = Vec::new();
    for (r, route) in ROUTES.iter().enumerate() {
        for (s, &status) in STATUS_CODES.iter().enumerate() {
            let count = metrics.cell(r, s);
            if count == 0 {
                continue;
            }
            let status_label = if status == 0 {
                "other".to_string()
            } else {
                status.to_string()
            };
            lines.push(format!(
                "{REQUESTS_TOTAL}{{route=\"{}\",status=\"{status_label}\"}} {count}",
                route.pattern
            ));
        }
    }
    for (name, counter) in COUNTERS {
        lines.push(format!(
            "{name} {}",
            counter(metrics).load(Ordering::Relaxed)
        ));
    }
    for (name, gauge) in GAUGES {
        lines.push(format!("{name} {}", gauge(shared)));
    }
    // Pool scheduler balance: per-worker executed/stolen task counters and
    // current queue depth. `stolen > 0` means the work-stealing scheduler
    // rebalanced a skewed batch; worker cardinality is bounded by the pool
    // size.
    let depths = shared.engine.queue_depths();
    for (worker, stats) in shared.engine.worker_stats().iter().enumerate() {
        lines.push(format!(
            "s2g_pool_tasks_executed_total{{worker=\"{worker}\"}} {}",
            stats.executed
        ));
        lines.push(format!(
            "s2g_pool_tasks_stolen_total{{worker=\"{worker}\"}} {}",
            stats.stolen
        ));
        lines.push(format!(
            "s2g_pool_queue_depth{{worker=\"{worker}\"}} {}",
            depths.get(worker).copied().unwrap_or(0)
        ));
    }
    // Robustness accounting: panic-isolated tasks, queued work that
    // expired, requests shed at the admission gate, store disk health,
    // and per-failpoint injected-fault counts.
    lines.push(format!(
        "s2g_pool_task_panics_total {}",
        shared.engine.task_panics()
    ));
    lines.push(format!(
        "s2g_pool_deadline_expired_total {}",
        shared.engine.deadline_expired()
    ));
    lines.push(format!(
        "s2g_admission_shed_total {}",
        shared.shed.load(Ordering::Relaxed)
    ));
    if let Some(storage) = shared.engine.storage() {
        lines.push(format!(
            "s2g_store_degradations_total {}",
            storage.degradations()
        ));
        lines.push(format!(
            "s2g_store_recoveries_total {}",
            storage.recoveries()
        ));
    }
    for status in s2g_failpoints::snapshot() {
        if status.triggers > 0 {
            lines.push(format!(
                "s2g_failpoint_triggers_total{{name=\"{}\"}} {}",
                status.name, status.triggers
            ));
        }
    }
    // Latency histograms: external request latency (the catch-all last),
    // internal request latency, then the stage instruments.
    for slot in external_exposition().chain(EXTERNAL..TIMED) {
        render_histogram(
            &mut lines,
            latency_family(slot),
            Some(latency_route(slot)),
            &metrics.latency[slot],
        );
    }
    for (name, hist) in shared.obs.stages() {
        render_histogram(&mut lines, name, None, hist);
    }
    lines
}

/// The non-empty latency summaries of `slots`, keyed by route.
fn route_summaries(metrics: &Metrics, slots: impl Iterator<Item = usize>) -> Json {
    Json::Obj(
        slots
            .map(|slot| (latency_route(slot), metrics.latency[slot].snapshot()))
            .filter(|(_, snap)| snap.count > 0)
            .map(|(route, snap)| (route.to_string(), summary_json(&snap)))
            .collect(),
    )
}

/// The `GET /metrics/json` body: gauges, non-empty latency summaries by
/// route (external and internal apart) and by stage, and the trace and
/// sampler settings.
pub(crate) fn render_json(shared: &Shared) -> Json {
    let gauges = GAUGES
        .iter()
        .map(|(name, gauge)| (name.to_string(), Json::from(gauge(shared) as usize)));
    let stages = shared
        .obs
        .stages()
        .into_iter()
        .map(|(name, hist)| (name, hist.snapshot()))
        .filter(|(_, snap)| snap.count > 0)
        .map(|(name, snap)| (name.to_string(), summary_json(&snap)));
    let threshold = shared.obs.traces.slow_threshold_ns();
    let sampler = match &shared.recorder {
        None => Json::Null,
        Some(recorder) => Json::obj([
            ("interval_ms", Json::from(recorder.interval_ms() as usize)),
            ("retention", Json::from(recorder.retention())),
            ("samples", Json::from(recorder.len())),
        ]),
    };
    Json::obj([
        ("gauges", Json::Obj(gauges.collect())),
        (
            "requests",
            route_summaries(&shared.metrics, external_exposition()),
        ),
        (
            "internal",
            route_summaries(&shared.metrics, EXTERNAL..TIMED),
        ),
        ("stages", Json::Obj(stages.collect())),
        (
            "slow_threshold_ms",
            if threshold == u64::MAX {
                Json::Null
            } else {
                Json::from((threshold / 1_000_000) as usize)
            },
        ),
        ("trace_ring", Json::from(shared.obs.traces.capacity())),
        ("slow_ring", Json::from(shared.obs.traces.slow_keep())),
        ("sampler", sampler),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_latency_slot_belongs_to_exactly_one_route() {
        for slot in 0..TIMED {
            let owners = ROUTES
                .iter()
                .filter(|route| route.latency.slot() == Some(slot))
                .count();
            assert_eq!(owners, 1, "slot {slot}");
        }
        assert_eq!(EXTERNAL, 9);
        assert_eq!(TIMED, 20);
        assert_eq!(RouteId::Other.pattern(), "(other)");
        assert_eq!(
            ROUTES[RouteId::Score as usize].pattern,
            "POST /models/{name}/score"
        );
    }

    #[test]
    fn records_counters_and_latency_by_route_index() {
        let metrics = Metrics::default();
        metrics.record_request(RouteId::Healthz, 200, 10);
        metrics.record_request(RouteId::Healthz, 200, 10);
        metrics.record_request(RouteId::Fit, 422, 1_000);
        metrics.record_request(RouteId::Unparsed, 400, 5);
        metrics.record_request(RouteId::MethodNotAllowed, 405, 7);
        metrics.record_request(RouteId::Other, 404, 9);
        metrics.record_fit();
        metrics.record_scores(3);
        metrics.record_session_opened();
        metrics.record_adaptation(10, 1, true);
        metrics.record_adaptation(5, 0, false);

        let cell = |route: RouteId, status: u16| metrics.cell(route as usize, status_slot(status));
        assert_eq!(cell(RouteId::Healthz, 200), 2);
        assert_eq!(cell(RouteId::Fit, 422), 1);
        assert_eq!(cell(RouteId::Unparsed, 400), 1);
        // Healthz is internal, Fit external; both 404/405 share the
        // catch-all; an unparsed request is counted but never timed.
        let count = |slot: usize| metrics.latency[slot].count();
        assert_eq!(count(EXTERNAL), 2);
        assert_eq!(count(1), 1);
        assert_eq!(count(CATCH_ALL), 2);
        let timed: u64 = metrics.latency.iter().map(Histogram::count).sum();
        assert_eq!(timed, 5);

        let schema = schema(&Obs::new());
        let values = metrics.counter_values();
        assert_eq!(schema.counters.len(), values.len());
        let value_of = |name: &str| -> u64 {
            let i = schema.counters.iter().position(|n| n == name).expect(name);
            values[i]
        };
        assert_eq!(value_of("s2g_requests_total{route=\"GET /healthz\"}"), 2);
        assert_eq!(
            value_of("s2g_requests_total{route=\"PUT /models/{name}\"}"),
            1
        );
        assert_eq!(value_of("s2g_request_errors_total"), 4);
        assert_eq!(value_of("s2g_fits_total"), 1);
        assert_eq!(value_of("s2g_scored_series_total"), 3);
        assert_eq!(value_of("s2g_sessions_opened_total"), 1);
        assert_eq!(value_of("s2g_adapt_updates_total"), 15);
        assert_eq!(value_of("s2g_adapt_refits_total"), 1);
        assert_eq!(value_of("s2g_adapt_published_total"), 1);
    }

    #[test]
    fn unknown_statuses_fall_into_the_catch_all_cell() {
        let metrics = Metrics::default();
        metrics.record_request(RouteId::Healthz, 299, 1);
        let other = STATUS_CODES.len() - 1;
        assert_eq!(metrics.cell(RouteId::Healthz as usize, other), 1);
        // ... and count as errors.
        assert_eq!(metrics.counter_values()[ROUTES.len()], 1);
    }

    #[test]
    fn every_emitted_status_is_pre_registered() {
        // The grid must know every status `ApiError`/handlers can emit;
        // a new status code should be added to STATUS_CODES, not silently
        // merged into the catch-all.
        for status in [200, 400, 404, 405, 409, 413, 422, 429, 500, 503] {
            assert_ne!(status_slot(status), STATUS_CODES.len() - 1, "{status}");
        }
    }

    #[test]
    fn schema_lists_latency_blocks_then_stages() {
        let obs = Obs::new();
        let schema = schema(&obs);
        assert_eq!(schema.gauges.len(), GAUGES.len());
        assert_eq!(schema.histograms.len(), TIMED + obs.stages().len());
        assert_eq!(
            schema.histograms[0],
            "s2g_request_duration_ns{route=\"GET /models\"}"
        );
        assert_eq!(
            schema.histograms[EXTERNAL],
            "s2g_internal_request_duration_ns{route=\"GET /healthz\"}"
        );
        let queue_wait = stage_slot(&obs, &obs.pool_queue_wait);
        assert_eq!(schema.histograms[queue_wait], "s2g_pool_queue_wait_ns");
        let fault = stage_slot(&obs, &obs.store_fault);
        assert_eq!(schema.histograms[fault], "s2g_store_fault_ns");
    }
}
