//! What every workload shares: the in-process server, metric scrapes,
//! latency summaries, and the in-memory span log of a traced run.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use s2g_engine::EngineConfig;
use s2g_obs::trace::{Span, TraceHandle, TraceId};
use s2g_server::{Client, Json, Server, ServerConfig};

/// Pool workers of the server under test.
pub const WORKERS: usize = 2;

/// The production configuration with the knobs every workload shares: an
/// ephemeral port, two pool workers, and a quiet log.
pub fn server_config() -> ServerConfig {
    ServerConfig::default()
        .with_addr("127.0.0.1:0")
        .with_engine(EngineConfig::default().with_workers(WORKERS))
        .with_log_level(s2g_obs::Level::Error)
}

/// A server running on a background thread of this process.
pub struct Running {
    server: Arc<Server>,
    thread: Option<JoinHandle<io::Result<()>>>,
    pub addr: String,
}

impl Running {
    pub fn start(config: ServerConfig) -> io::Result<Running> {
        let server = Arc::new(Server::bind(config)?);
        let addr = server.local_addr().to_string();
        let runner = Arc::clone(&server);
        let thread = std::thread::Builder::new()
            .name("bench-server".into())
            .spawn(move || runner.run())?;
        Ok(Running {
            server,
            thread: Some(thread),
            addr,
        })
    }

    pub fn server(&self) -> &Server {
        &self.server
    }

    pub fn client(&self) -> Client {
        Client::new(self.addr.clone())
    }

    /// Stops the server and waits for every thread it started. The wait is
    /// mostly the sweeper's and sampler's one-second sleep ticks, so set-up
    /// timings exclude it.
    pub fn stop(mut self) -> io::Result<()> {
        self.server.shutdown_handle().shutdown();
        match self.thread.take().map(JoinHandle::join) {
            Some(Ok(result)) => result,
            Some(Err(_)) => Err(io::Error::other("server thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.server.shutdown_handle().shutdown();
            let _ = thread.join();
        }
    }
}

/// One read of `/metrics/json` plus the `/metrics` text lines.
pub struct Scrape {
    json: Json,
    text: Vec<String>,
}

impl Scrape {
    pub fn take(client: &Client) -> Result<Scrape, String> {
        let json = client
            .metrics_json()
            .map_err(|e| format!("metrics/json: {e}"))?;
        let text = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        Ok(Scrape { json, text })
    }

    /// `(count, sum_ns)` of one histogram under `section` (`requests` or
    /// `stages`); zeros when it saw no traffic yet.
    pub fn hist(&self, section: &str, name: &str) -> (f64, f64) {
        let h = self.json.get(section).and_then(|s| s.get(name));
        let field = |k: &str| {
            h.and_then(|h| h.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        (field("count"), field("sum_ns"))
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.json
            .get("gauges")
            .and_then(|g| g.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Sum of every `/metrics` text sample whose name is `name` (any labels).
    pub fn text_sum(&self, name: &str) -> f64 {
        self.text
            .iter()
            .filter(|line| {
                line.strip_prefix(name)
                    .is_some_and(|rest| rest.starts_with('{') || rest.starts_with(' '))
            })
            .filter_map(|line| line.rsplit(' ').next()?.parse::<f64>().ok())
            .sum()
    }
}

/// Differences of two scrapes taken around a window: exact means from
/// histogram sums and counts, not bucket quantiles.
pub struct Delta<'a> {
    pub before: &'a Scrape,
    pub after: &'a Scrape,
}

impl Delta<'_> {
    pub fn count(&self, section: &str, name: &str) -> f64 {
        self.after.hist(section, name).0 - self.before.hist(section, name).0
    }

    /// Mean in milliseconds over the window; 0 when nothing was recorded.
    pub fn mean_ms(&self, section: &str, name: &str) -> f64 {
        let (c1, s1) = self.after.hist(section, name);
        let (c0, s0) = self.before.hist(section, name);
        if c1 > c0 {
            (s1 - s0) / (c1 - c0) / 1e6
        } else {
            0.0
        }
    }

    pub fn gauge(&self, name: &str) -> f64 {
        self.after.gauge(name) - self.before.gauge(name)
    }

    pub fn text_sum(&self, name: &str) -> f64 {
        self.after.text_sum(name) - self.before.text_sum(name)
    }
}

/// Nearest-rank quantile of an ascending slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median over consecutive slices of at least `per_slice` samples
/// (in completion order) of each slice's `q`-quantile: a few seconds of
/// interference from other tenants of the host move it less than one
/// quantile over the whole window.
pub fn sliced_quantile(samples: &[(f64, f64)], per_slice: usize, q: f64) -> f64 {
    let mut ordered = samples.to_vec();
    ordered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let slices = (ordered.len() / per_slice).max(1);
    let per_slice: Vec<f64> = (0..slices)
        .map(|i| {
            let slice = &ordered[i * ordered.len() / slices..(i + 1) * ordered.len() / slices];
            let mut values: Vec<f64> = slice.iter().map(|&(_, v)| v).collect();
            values.sort_by(f64::total_cmp);
            quantile(&values, q)
        })
        .collect();
    median(&per_slice)
}

pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process (`VmHWM`) in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Lowers this process's `VmHWM` to its current resident size, so a later
/// `peak_rss_mb` leaves out the peaks of work done before. Returns false
/// where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Sent / succeeded / failed counts of one operation kind.
#[derive(Debug, Default, Clone, Copy)]
pub struct OpCount {
    pub sent: u64,
    pub ok: u64,
    pub failed: u64,
}

/// What one thread (or one whole window) observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client-observed latency of the workload's primary operation, with
    /// the seconds since the window began at which each completed.
    pub latencies_ms: Vec<(f64, f64)>,
    /// How late each request left relative to when it was due (open loop)
    /// or to the previous response (closed loop).
    pub lags_ms: Vec<f64>,
    /// `(seconds since the window began, points)` of each successful
    /// request: the points the server took in, for per-second throughput.
    pub completions: Vec<(f64, u64)>,
    /// Wall time from the window's start to its last response.
    pub elapsed_s: f64,
    /// Client-observed latency of fits sent during the window.
    pub fit_latencies_ms: Vec<f64>,
    /// Traced runs only: scored requests whose model was resident in the
    /// registry just before the request went out, of all probed.
    pub registry_hits: u64,
    pub registry_lookups: u64,
    /// How often each input of the workload's pool was sent.
    pub uses: BTreeMap<usize, u64>,
    /// `(session, push, fingerprint)` of each push, checked after the
    /// window against an in-process replay.
    pub pushes: Vec<(usize, usize, u64)>,
    pub ops: BTreeMap<&'static str, OpCount>,
    /// Output mismatches against the in-process reference.
    pub mismatches: Vec<String>,
}

impl Tally {
    pub fn sent(&mut self, op: &'static str) {
        self.ops.entry(op).or_default().sent += 1;
    }

    pub fn ok(&mut self, op: &'static str) {
        self.ops.entry(op).or_default().ok += 1;
    }

    pub fn failed(&mut self, op: &'static str, why: String) {
        let failed = &mut self.ops.entry(op).or_default().failed;
        *failed += 1;
        if *failed <= 20 {
            eprintln!("{op} failed: {why}");
        }
    }

    /// Counts `points` served by a request that completed at `done`.
    pub fn served(&mut self, start: Instant, done: Instant, points: u64) {
        self.completions
            .push(((done - start).as_secs_f64(), points));
    }

    /// Records the latency of one primary operation completed at `done`.
    pub fn latency(&mut self, start: Instant, done: Instant, latency_ms: f64) {
        self.latencies_ms
            .push(((done - start).as_secs_f64(), latency_ms));
    }

    /// Points per second in each of the window's one-second slices (its
    /// measured length split into whole slices of about a second).
    pub fn per_second(&self) -> Vec<f64> {
        let slices = self.elapsed_s.round().max(1.0);
        let width = self.elapsed_s / slices;
        let mut bins = vec![0.0; slices as usize];
        for &(t, points) in &self.completions {
            let bin = ((t / width) as usize).min(bins.len() - 1);
            bins[bin] += points as f64 / width;
        }
        bins
    }

    pub fn mismatch(&mut self, why: String) {
        if self.mismatches.len() < 20 {
            eprintln!("MISMATCH: {why}");
        }
        self.mismatches.push(why);
    }

    pub fn merge(&mut self, other: Tally) {
        self.latencies_ms.extend(other.latencies_ms);
        self.lags_ms.extend(other.lags_ms);
        self.completions.extend(other.completions);
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.fit_latencies_ms.extend(other.fit_latencies_ms);
        self.registry_hits += other.registry_hits;
        self.registry_lookups += other.registry_lookups;
        self.pushes.extend(other.pushes);
        for (input, n) in other.uses {
            *self.uses.entry(input).or_default() += n;
        }
        for (op, c) in other.ops {
            let mine = self.ops.entry(op).or_default();
            mine.sent += c.sent;
            mine.ok += c.ok;
            mine.failed += c.failed;
        }
        self.mismatches.extend(other.mismatches);
    }

    pub fn attempted(&self) -> u64 {
        self.ops.values().map(|c| c.sent).sum()
    }

    pub fn failures(&self) -> u64 {
        self.ops.values().map(|c| c.failed).sum()
    }

    pub fn successes(&self) -> u64 {
        self.ops.values().map(|c| c.ok).sum()
    }
}

/// Runs `body(thread, start, deadline)` on `threads` load threads and
/// merges what they saw. Each thread owns its own `Client`, so each holds
/// one keep-alive connection.
pub fn drive(
    threads: usize,
    seconds: f64,
    body: impl Fn(usize, Instant, Instant) -> Tally + Sync,
) -> Tally {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let mut total = Tally::default();
    std::thread::scope(|scope| {
        let body = &body;
        let handles: Vec<_> = (0..threads)
            .map(|t| scope.spawn(move || body(t, start, deadline)))
            .collect();
        for handle in handles {
            total.merge(handle.join().expect("a load thread panicked"));
        }
    });
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Spans of a traced run, held in memory and written out at the end.
#[derive(Default)]
pub struct SpanLog {
    traces: Mutex<Vec<TraceHandle>>,
    next: AtomicU64,
}

impl SpanLog {
    /// Opens a root span in a fresh trace.
    pub fn root(&self, name: &'static str) -> Span {
        let trace = TraceHandle::new(TraceId(self.next.fetch_add(1, Ordering::Relaxed) + 1));
        let span = trace.begin(name, None);
        self.traces
            .lock()
            .expect("span log poisoned by a panicking thread")
            .push(trace);
        span
    }

    /// Writes one JSON line per span.
    pub fn write(&self, path: &Path) -> io::Result<usize> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let mut written = 0;
        let traces = self
            .traces
            .lock()
            .map_err(|_| io::Error::other("span log poisoned"))?;
        for trace in traces.iter() {
            for span in trace.spans() {
                let line = Json::obj([
                    ("trace", Json::from(trace.id().0 as usize)),
                    ("span", Json::from(span.id)),
                    ("parent", span.parent.map_or(Json::Null, Json::from)),
                    ("name", Json::from(span.name)),
                    ("start_ns", Json::from(span.start_ns as usize)),
                    ("duration_ns", Json::from(span.duration_ns as usize)),
                ]);
                writeln!(out, "{}", line.encode())?;
                written += 1;
            }
        }
        out.flush()?;
        Ok(written)
    }
}

/// Opens a span only when tracing.
pub fn child(parent: Option<&Span>, name: &'static str) -> Option<Span> {
    parent.map(|p| p.ctx().child(name))
}
