//! `s2g-wirebench`: one command that runs an in-process s2g `Server`, drives
//! it over keep-alive sockets through `s2g_server::Client`, checks every
//! output against an in-process reference, and prints end-to-end metrics
//! (`--trace 0`) or the per-layer split (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload score-unseen --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is the result object; `NOTES.md` lists
//! the workloads, metrics and the layer → end-to-end map.

mod fleet_churn;
mod gen;
mod harness;
mod replay;
mod score_unseen;
mod stream_push;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use harness::{mean, median, quantile, sliced_quantile, Delta, Running, Scrape, SpanLog, Tally};
use replay::Layers;
use s2g_server::Json;

/// Scratch space for stores and replays, removed when a run ends.
const WORK_DIR: &str = ".bench_work";
/// Where traced runs write their spans.
const SPAN_DIR: &str = ".bench_out";

/// One benchmark workload.
pub trait Workload: Sync {
    /// The server state a window runs against.
    type Env;

    /// Route pattern of the workload's primary operation.
    fn route(&self) -> &'static str;

    /// Set-ups per untraced run; `setup_s` is their median.
    fn setup_reps(&self) -> usize;

    /// Builds the server state; returns it with the set-up seconds.
    fn setup(&self, work: &Path) -> Result<(Self::Env, f64), String>;

    fn running<'a>(&self, env: &'a Self::Env) -> &'a Running;

    /// Client latencies of the fits made during set-up.
    fn setup_fits_ms<'a>(&self, env: &'a Self::Env) -> &'a [f64];

    /// Drives load for `seconds`, checking each response as it arrives.
    /// With a span log, wraps each request in a span and probes the
    /// registry.
    fn window(&self, env: &Self::Env, seconds: f64, log: Option<&SpanLog>) -> Tally;

    /// Checks, after the window, the outputs that need a replay of the
    /// whole window to check.
    fn verify(&self, _tally: &mut Tally) {}

    fn teardown(&self, env: Self::Env, work: &Path) -> Result<(), String>;

    /// Per-layer replays on this run's inputs. Returns the replayed kernel
    /// milliseconds of one average pool task of the traced window.
    fn replay(&self, tally: &Tally, layers: &mut Layers, log: &SpanLog) -> Result<f64, String>;
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 30.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => seconds = value.parse().map_err(|_| bad())?,
            "--trace" => trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("usage: --workload score-unseen|stream-push|fleet-churn --seed N --seconds S --trace 0|1\n{e}");
            return ExitCode::from(2);
        }
    };
    let work = PathBuf::from(WORK_DIR).join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let outcome = match args.workload.as_str() {
        "score-unseen" => run(&score_unseen::ScoreUnseen::new(args.seed), &args, &work),
        "stream-push" => run(&stream_push::StreamPush::new(args.seed), &args, &work),
        "fleet-churn" => run(&fleet_churn::FleetChurn::new(args.seed), &args, &work),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    match outcome {
        Ok(result) => {
            println!("{}", result.line.encode());
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("wirebench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Outcome {
    line: Json,
    correct: bool,
}

/// One metric as the result object carries it.
fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::from(value)), ("unit", Json::from(unit))])
}

fn unit_of(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_ms") || n.contains("_ms_") => "ms",
        n if n.ends_with("_per_s") => "1/s",
        n if n.contains("_ns_") => "ns",
        n if n.ends_with("_frac") => "frac",
        n if n.ends_with("_ratio") => "ratio",
        _ => "count",
    }
}

/// Latency summary and throughput of one window. Each percentile is the
/// median over slices holding ten samples beyond it (p50 over slices of
/// 100 requests, p95 of 200); throughput is the median one-second slice.
struct WindowStats {
    p50: f64,
    p95: f64,
    mean: f64,
    points_per_s: f64,
}

fn window_stats(tally: &Tally) -> WindowStats {
    let all: Vec<f64> = tally.latencies_ms.iter().map(|&(_, l)| l).collect();
    WindowStats {
        p50: sliced_quantile(&tally.latencies_ms, 100, 0.5),
        p95: sliced_quantile(&tally.latencies_ms, 200, 0.95),
        mean: mean(&all),
        points_per_s: median(&tally.per_second()),
    }
}

/// The open-loop generator could not keep its schedule: its lag in the last
/// quarter of the window grew past the first quarter's, or stayed high.
fn unsustainable(lags_in_order: &[f64]) -> bool {
    let quarter = lags_in_order.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = median(&lags_in_order[..quarter]);
    let last = median(&lags_in_order[lags_in_order.len() - quarter..]);
    last - first > 2.0 || last > 10.0
}

fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The commit being measured, when run from a git work tree.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// A one-line record of what was run and sent, printed before the result.
fn print_record(args: &Args, tally: &Tally, extra: &[(&str, Json)]) {
    let ops = Json::Obj(
        tally
            .ops
            .iter()
            .map(|(op, c)| {
                let counts = Json::obj([
                    ("sent", Json::from(c.sent as usize)),
                    ("succeeded", Json::from(c.ok as usize)),
                    ("failed", Json::from(c.failed as usize)),
                ]);
                (op.to_string(), counts)
            })
            .collect(),
    );
    let mut pairs = vec![
        ("workload".to_string(), Json::from(args.workload.as_str())),
        ("seed".to_string(), Json::from(args.seed as usize)),
        ("trace".to_string(), Json::from(args.trace)),
        ("host_cores".to_string(), Json::from(host_cores())),
        ("git_rev".to_string(), Json::from(git_rev())),
        ("ops".to_string(), ops),
    ];
    pairs.extend(extra.iter().map(|(k, v)| (k.to_string(), v.clone())));
    println!("record {}", Json::Obj(pairs).encode());
}

fn run<W: Workload>(w: &W, args: &Args, work: &Path) -> Result<Outcome, String> {
    std::fs::create_dir_all(work).map_err(|e| format!("{}: {e}", work.display()))?;
    if args.trace {
        run_traced(w, args, work)
    } else {
        run_untraced(w, args, work)
    }
}

/// End-to-end metrics, tracing off.
fn run_untraced<W: Workload>(w: &W, args: &Args, work: &Path) -> Result<Outcome, String> {
    // From here the peak covers the set-ups, the server and the window, not
    // the transient peaks of building the reference.
    let peak_reset = harness::reset_peak_rss();
    // Half the set-ups run before the window and half after it, so one
    // stretch of interference from other tenants of the host cannot move
    // them all. Before the window each set-up is torn down before the next
    // is built, so only one server is alive at a time. After it, each is
    // shut down as soon as the next exists but joined only at the end: its
    // drain is the sweeper's and sampler's sleep ticks, which need not be
    // waited out in turn.
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..w.setup_reps().div_ceil(2) {
        if let Some(previous) = env.take() {
            w.teardown(previous, work)?;
        }
        let (fresh, seconds) = w.setup(work)?;
        setups.push(seconds);
        env = Some(fresh);
    }
    let env = env.ok_or("no set-up ran")?;
    let mut tally = w.window(&env, args.seconds, None);
    // Read before the checks, whose replay is not the system's memory.
    let peak_rss_mb = harness::peak_rss_mb();
    w.verify(&mut tally);
    let mut retired: Vec<W::Env> = Vec::new();
    let retire = |env: W::Env, retired: &mut Vec<W::Env>| {
        w.running(&env).server().shutdown_handle().shutdown();
        retired.push(env);
    };
    retire(env, &mut retired);
    while setups.len() < w.setup_reps() {
        let (fresh, seconds) = w.setup(work)?;
        setups.push(seconds);
        retire(fresh, &mut retired);
    }
    for env in retired {
        w.teardown(env, work)?;
    }

    let stats = window_stats(&tally);
    let attempted = tally.attempted();
    let failed = tally.failures();
    let unsustained = unsustainable(&tally.lags_ms);
    if unsustained {
        eprintln!(
            "UNSUSTAINABLE: the generator fell behind its schedule; latency is not steady-state"
        );
    }
    let correct = tally.mismatches.is_empty() && attempted > 0;
    print_record(
        args,
        &tally,
        &[
            ("setup_s_each", Json::arr(setups.iter().copied())),
            ("samples", Json::from(tally.latencies_ms.len())),
            ("points_each_second", Json::arr(tally.per_second())),
            ("unsustainable", Json::from(unsustained)),
            ("peak_rss_reset", Json::from(peak_reset)),
        ],
    );
    let ok_frac = tally.successes() as f64 / attempted.max(1) as f64;
    let metrics = Json::obj([
        ("setup_s", metric(median(&setups), "s")),
        ("peak_rss_mb", metric(peak_rss_mb, "MB")),
        ("ok_frac", metric(ok_frac, "frac")),
        ("p50_ms", metric(stats.p50, "ms")),
        ("p95_ms", metric(stats.p95, "ms")),
        ("points_per_s", metric(stats.points_per_s, "1/s")),
    ]);
    Ok(Outcome {
        line: result_line(correct, attempted, failed, metrics),
        correct,
    })
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Json) -> Json {
    Json::obj([
        ("correct", Json::from(correct)),
        ("attempted", Json::from(attempted as usize)),
        ("failed", Json::from(failed as usize)),
        ("metrics", metrics),
    ])
}

/// The per-layer split: an untraced window and a traced one on fresh
/// set-ups with the same seed, then replays of the layers without an
/// endpoint on the same inputs.
fn run_traced<W: Workload>(w: &W, args: &Args, work: &Path) -> Result<Outcome, String> {
    // Each window gets half the run, so a traced run takes no longer than
    // an untraced one.
    let half = args.seconds / 2.0;
    let (env, _) = w.setup(work)?;
    let mut plain = w.window(&env, half, None);
    w.verify(&mut plain);
    w.teardown(env, work)?;

    let log = SpanLog::default();
    let (env, _) = w.setup(work)?;
    let client = w.running(&env).client();
    let before = Scrape::take(&client)?;
    let mut tally = w.window(&env, half, Some(&log));
    let after = Scrape::take(&client)?;
    w.verify(&mut tally);
    let setup_fits = w.setup_fits_ms(&env).to_vec();
    drop(client);
    w.teardown(env, work)?;

    let delta = Delta {
        before: &before,
        after: &after,
    };
    let mut layers = Layers::default();
    let kernel_ms_per_task = w.replay(&tally, &mut layers, &log)?;

    let traced = window_stats(&tally);
    let untraced = window_stats(&plain);
    let route_ms = delta.mean_ms("requests", w.route());
    layers.insert("client.wire_ms_mean", traced.mean - route_ms);
    // p99 over both windows, the traced one after the untraced: one half
    // window of score-unseen holds too few requests. With fewer than 1 000
    // in all it is not measured and reads 0.
    let mut both = plain.latencies_ms.clone();
    both.extend(
        tally
            .latencies_ms
            .iter()
            .map(|&(t, l)| (plain.elapsed_s + t, l)),
    );
    let p99_measured = both.len() >= 1000;
    if !p99_measured {
        eprintln!(
            "client.p99_ms unmeasured: {} requests, fewer than 1000",
            both.len()
        );
    }
    layers.insert(
        "client.p99_ms",
        if p99_measured {
            sliced_quantile(&both, 1000, 0.99)
        } else {
            0.0
        },
    );
    layers.insert("server.route_ms_mean", route_ms);
    let (fits, fit_sum) = after.hist("requests", "PUT /models/{name}");
    layers.insert("server.fit_route_ms_mean", fit_sum / fits.max(1.0) / 1e6);
    // Fit latency as the client sees it: the window's refits where the
    // workload refits, else the set-up's fits.
    let fit_latencies = if tally.fit_latencies_ms.is_empty() {
        &setup_fits
    } else {
        &tally.fit_latencies_ms
    };
    layers.insert("client.fit_p50_ms", median(fit_latencies));
    layers.insert(
        "client.fits_per_s",
        tally.fit_latencies_ms.len() as f64 / tally.elapsed_s,
    );
    let execute_ms = delta.mean_ms("stages", "s2g_pool_execute_ns");
    layers.insert(
        "pool.queue_wait_ms_mean",
        delta.mean_ms("stages", "s2g_pool_queue_wait_ns"),
    );
    layers.insert("pool.execute_ms_mean", execute_ms);
    layers.insert("pool.tasks", delta.count("stages", "s2g_pool_execute_ns"));
    let executed = delta.text_sum("s2g_pool_tasks_executed_total");
    let stolen = delta.text_sum("s2g_pool_tasks_stolen_total");
    layers.insert(
        "pool.stolen_frac",
        if executed > 0.0 {
            stolen / executed
        } else {
            0.0
        },
    );
    layers.insert(
        "pool.contention_ratio",
        if kernel_ms_per_task > 0.0 {
            execute_ms / kernel_ms_per_task
        } else {
            0.0
        },
    );
    // The store's own instruments: 0 where the workload mounts no store.
    layers.insert(
        "store.write_ms_mean",
        delta.mean_ms("stages", "s2g_store_write_ns"),
    );
    layers.insert(
        "store.fault_ms_mean",
        delta.mean_ms("stages", "s2g_store_fault_ns"),
    );
    layers.insert("store.faults", delta.count("stages", "s2g_store_fault_ns"));
    layers.insert(
        "store.evictions",
        delta.gauge("s2g_store_residency_evictions_total"),
    );
    layers.insert(
        "registry.hit_frac",
        tally.registry_hits as f64 / tally.registry_lookups.max(1) as f64,
    );
    let mut lags = tally.lags_ms.clone();
    lags.sort_by(f64::total_cmp);
    layers.insert("gen.lag_p99_ms", quantile(&lags, 0.99));
    let unsustained = unsustainable(&tally.lags_ms) || unsustainable(&plain.lags_ms);
    layers.insert("gen.unsustainable", f64::from(u8::from(unsustained)));
    layers.insert("trace.overhead_frac", traced.mean / untraced.mean - 1.0);

    let spans_path =
        Path::new(SPAN_DIR).join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
    let spans = log
        .write(&spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    layers.insert("trace.spans", spans as f64);

    let mut merged = plain;
    merged.merge(tally);
    let (attempted, failed) = (merged.attempted(), merged.failures());
    let correct = merged.mismatches.is_empty() && attempted > 0;
    print_record(
        args,
        &merged,
        &[
            ("spans_file", Json::from(spans_path.display().to_string())),
            ("p99_samples", Json::from(both.len())),
        ],
    );
    let metrics = Json::Obj(
        PER_LAYER
            .iter()
            .map(|name| {
                let value = layers.get(name).copied().unwrap_or(0.0);
                (name.to_string(), metric(value, unit_of(name)))
            })
            .collect(),
    );
    Ok(Outcome {
        line: result_line(correct, attempted, failed, metrics),
        correct,
    })
}

/// Every per-layer metric, in report order (`BENCHMARK.json` `per_layer`).
const PER_LAYER: &[&str] = &[
    "client.wire_ms_mean",
    "client.p99_ms",
    "client.fit_p50_ms",
    "client.fits_per_s",
    "server.route_ms_mean",
    "server.fit_route_ms_mean",
    "json.encode_ns_per_score",
    "json.parse_ns_per_score",
    "io.parse_ns_per_point",
    "pool.queue_wait_ms_mean",
    "pool.execute_ms_mean",
    "pool.tasks",
    "pool.stolen_frac",
    "pool.contention_ratio",
    "core.project_ns_per_point",
    "core.assign_ns_per_point",
    "core.lookup_ns_per_point",
    "core.profile_ns_per_point",
    "core.stream_ns_per_point",
    "core.fit_embedding_ms",
    "core.fit_nodes_ms",
    "core.fit_edges_ms",
    "codec.encode_ms",
    "codec.decode_ms",
    "store.write_ms_mean",
    "store.fault_ms_mean",
    "store.faults",
    "store.evictions",
    "registry.hit_frac",
    "gen.lag_p99_ms",
    "gen.unsustainable",
    "trace.overhead_frac",
    "trace.spans",
];

/// Bit-for-bit equality of two score vectors.
pub fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Index of the largest score (first on ties).
pub fn argmax(scores: &[f64]) -> usize {
    scores
        .iter()
        .enumerate()
        .fold((0, f64::NEG_INFINITY), |best, (i, &s)| {
            if s > best.1 {
                (i, s)
            } else {
                best
            }
        })
        .0
}
