//! The full `s2g` command-line interface: serving and remote-client
//! subcommands from this crate, layered over the local subcommands
//! (`fit`, `score`, `stream`, `eval`) from [`s2g_engine::cli`], whose
//! usage lines ([`s2g_engine::local_usage!`]) this crate's help reuses.
//!
//! * `s2g serve` — run the detection server on a TCP address (with
//!   `--data-dir` for restart-durable model persistence),
//! * `s2g client <action>` — drive a running server (fit, score, stream,
//!   models, info, delete, health, shutdown),
//! * `s2g models` — shorthand for `s2g client models`,
//! * `s2g store <action>` — inspect and maintain a model store directory
//!   offline (ls, verify, gc, migrate),
//! * anything else — delegated to the engine CLI, unchanged.
//!
//! Argument parsing is hand-rolled (the workspace is offline; no `clap`)
//! and shares [`ParsedArgs`] with the engine CLI so flags behave
//! identically everywhere.

use std::time::Duration;

use s2g_engine::cli::{CliError, ParsedArgs};
use s2g_engine::EngineConfig;
use s2g_store::{ModelStore, StoreConfig, StoredModelMeta};
use s2g_timeseries::{io as ts_io, window};

use crate::client::{Client, ClientError};
use crate::json::Json;
use crate::server::{Server, ServerConfig};

/// Usage text printed by `s2g help` and on argument errors. Extends the
/// engine CLI's usage with the serving subcommands.
pub const USAGE: &str = concat!(
    "\
s2g — Series2Graph detection engine CLI

USAGE — local (in-process):
",
    s2g_engine::local_usage!(),
    "
USAGE — serving (over TCP, protocol in docs/PROTOCOL.md):
    s2g serve  [--addr <host:port>] [--workers <n>] [--registry-capacity <n>]
               [--max-clients <n>] [--max-body-bytes <n>]
               [--session-idle-secs <n>] [--data-dir <dir>]
               [--store-budget-mb <n>] [--log-level <error|warn|info|debug>]
               [--log-json] [--slow-request-ms <n>]
               [--sample-interval-ms <n>] [--history-retention <n>]
               [--watch-warmup <n>] [--trace-ring <n>] [--slow-ring <n>]
               [--no-journal] [--journal-segment-kb <n>]
               [--journal-segments <n>] [--failpoints <spec|on>]
               [--admission-queue <n>]
               (S2G_FAILPOINTS env = --failpoints; spec grammar in
                docs/ROBUSTNESS.md, e.g. store.write.enospc=error;budget=3)
    s2g top    [--addr <host:port>] [--window <secs>] [--refresh-ms <n>]
               [--once]   (NO_COLOR or a pipe disables ANSI redraws)
    s2g client fit      --addr <host:port> --name <model> --input <series.csv>
                        --pattern-length <n> [--lambda <n>] [--rate <n>]
                        [--kde-grid <n>] [--sigma-ratio <x>] [--seed <n>]
                        [--no-smooth]
    s2g client score    --addr <host:port> --name <model> --query-length <n>
                        [--top-k <k>] <input.csv> [<input.csv>...]
    s2g client stream   --addr <host:port> --name <model> --query-length <n>
                        [--chunk <n>] [--adapt] [--adapt-lambda <x>]
                        [--normal-quantile <x>] [--drift-window <n>]
                        [--drift-threshold <x>] [--refit-buffer <n>]
                        [--refit-cooldown <n>] [--publish-interval <n>]
                        <input.csv>
    s2g client info     --addr <host:port> --name <model>
    s2g client delete   --addr <host:port> --name <model>
    s2g client models   --addr <host:port> [--json]
    s2g client health   --addr <host:port>
    s2g client metrics  --addr <host:port> [--json]
    s2g client trace    --addr <host:port> <trace-id>
    s2g client shutdown --addr <host:port>
    s2g models          --addr <host:port> [--json]   (same as client models)
    s2g help

USAGE — model store maintenance (offline, docs/STORAGE.md):
    s2g store ls       --data-dir <dir> [--json]
    s2g store verify   --data-dir <dir>
    s2g store gc       --data-dir <dir>
    s2g store migrate  --data-dir <dir>

USAGE — telemetry journal forensics (offline, docs/OBSERVABILITY.md):
    s2g obs ls      (--data-dir <dir> | --journal-dir <dir>) [--json]
    s2g obs report  (--data-dir <dir> | --journal-dir <dir>) [--window <secs>]
    s2g obs grep    (--data-dir <dir> | --journal-dir <dir>) [--route <substr>]
                    [--trace <hex-id>] [--level <error|warn|info|debug>]
                    [--kind <sample|trace|watch|log|panic>]
    s2g obs export  (--data-dir <dir> | --journal-dir <dir>) [--json]

Series files are single-column CSVs (one value per line; `#` comments and a
header row are tolerated). Model files use the versioned `S2GMDL` binary
format. A model fitted over the wire scores bit-identically to the same fit
done in-process. With `serve --data-dir`, fitted models persist across
restarts: fit once, restart freely, keep scoring."
);

/// Entry point used by the `s2g` binary: runs and maps errors to exit codes
/// (0 success, 1 runtime failure, 2 usage error).
pub fn run(args: &[String]) -> i32 {
    match dispatch(args) {
        Ok(()) => 0,
        Err(CliError::Runtime(msg)) => {
            eprintln!("error: {msg}");
            1
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n\n{USAGE}");
            2
        }
    }
}

/// Runs one CLI invocation, returning a typed error instead of exiting.
/// Serving subcommands are handled here; everything else falls through to
/// [`s2g_engine::cli::dispatch`].
///
/// # Errors
/// [`CliError::Usage`] for bad arguments, [`CliError::Runtime`] for
/// failures of the command itself.
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".to_string()));
    };
    match command.as_str() {
        "serve" => cmd_serve(rest),
        "top" => crate::top::cmd_top(rest),
        "client" => cmd_client(rest),
        "models" => client_models(&ParsedArgs::parse(rest, &["--addr"], &["--json"])?),
        "store" => cmd_store(rest),
        "obs" => crate::obscli::cmd_obs(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        _ => s2g_engine::cli::dispatch(args),
    }
}

fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

// ---------------------------------------------------------------------------
// serve
// ---------------------------------------------------------------------------

fn cmd_serve(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--addr",
            "--workers",
            "--registry-capacity",
            "--max-clients",
            "--max-body-bytes",
            "--session-idle-secs",
            "--data-dir",
            "--store-budget-mb",
            "--log-level",
            "--slow-request-ms",
            "--sample-interval-ms",
            "--history-retention",
            "--watch-warmup",
            "--trace-ring",
            "--slow-ring",
            "--journal-segment-kb",
            "--journal-segments",
            "--failpoints",
            "--admission-queue",
        ],
        &["--log-json", "--no-journal"],
    )?;
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7878").to_string();
    let mut engine = EngineConfig::default();
    if let Some(workers) = opt_usize(&args, "--workers")? {
        engine = engine.with_workers(workers);
    }
    if let Some(capacity) = opt_usize(&args, "--registry-capacity")? {
        engine = engine.with_registry_capacity(capacity);
    }
    let mut config = ServerConfig::default().with_addr(addr).with_engine(engine);
    if let Some(max_clients) = opt_usize(&args, "--max-clients")? {
        config = config.with_max_clients(max_clients);
    }
    if let Some(max_body) = opt_usize(&args, "--max-body-bytes")? {
        config = config.with_max_body_bytes(max_body);
    }
    if let Some(idle) = opt_usize(&args, "--session-idle-secs")? {
        let idle = (idle > 0).then(|| Duration::from_secs(idle as u64));
        config = config.with_session_idle(idle);
    }
    if let Some(data_dir) = args.get("--data-dir") {
        config = config.with_data_dir(data_dir);
    }
    if let Some(budget_mb) = opt_usize(&args, "--store-budget-mb")? {
        config = config.with_store_budget_bytes(budget_mb as u64 * 1024 * 1024);
    }
    if let Some(level) = args.get("--log-level") {
        let level = s2g_obs::Level::parse(level).ok_or_else(|| {
            CliError::Usage(format!(
                "--log-level expects error|warn|info|debug, got {level:?}"
            ))
        })?;
        config = config.with_log_level(level);
    }
    if args.has("--log-json") {
        config = config.with_log_json(true);
    }
    if let Some(ms) = opt_usize(&args, "--slow-request-ms")? {
        config = config.with_slow_request_ms(Some(ms as u64));
    }
    if let Some(ms) = opt_usize(&args, "--sample-interval-ms")? {
        config = config.with_sample_interval_ms(ms as u64);
    }
    if let Some(retention) = opt_usize(&args, "--history-retention")? {
        config = config.with_history_retention(retention);
    }
    if let Some(warmup) = opt_usize(&args, "--watch-warmup")? {
        config = config.with_watch_warmup(warmup);
    }
    if let Some(ring) = opt_usize(&args, "--trace-ring")? {
        config = config.with_trace_ring(ring);
    }
    if let Some(ring) = opt_usize(&args, "--slow-ring")? {
        config = config.with_slow_ring(ring);
    }
    if args.has("--no-journal") {
        config = config.with_journal(false);
    }
    if let Some(kb) = opt_usize(&args, "--journal-segment-kb")? {
        config = config.with_journal_segment_kb(kb as u64);
    }
    if let Some(segments) = opt_usize(&args, "--journal-segments")? {
        config = config.with_journal_segments(segments);
    }
    // `--failpoints` wins over the env var; either enables the
    // `/debug/failpoint` drill endpoints and applies its spec at startup.
    let failpoints = args
        .get("--failpoints")
        .map(str::to_string)
        .or_else(|| std::env::var("S2G_FAILPOINTS").ok());
    if let Some(spec) = failpoints {
        config = config.with_failpoints(spec);
    }
    if let Some(depth) = opt_usize(&args, "--admission-queue")? {
        config = config.with_admission_queue(depth);
    }

    let server = Server::bind(config).map_err(runtime)?;
    // Printed (and flushed) before serving so wrappers can wait for
    // readiness by watching stdout.
    println!("s2g-server listening on {}", server.local_addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run().map_err(runtime)
}

fn opt_usize(args: &ParsedArgs, flag: &str) -> Result<Option<usize>, CliError> {
    match args.get(flag) {
        None => Ok(None),
        Some(_) => args.usize_flag(flag, None).map(Some),
    }
}

// ---------------------------------------------------------------------------
// client
// ---------------------------------------------------------------------------

fn cmd_client(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::Usage("client needs an action".to_string()));
    };
    match action.as_str() {
        "fit" => client_fit(rest),
        "score" => client_score(rest),
        "stream" => client_stream(rest),
        "info" => client_info(rest),
        "delete" => client_delete(rest),
        "models" => client_models(&ParsedArgs::parse(rest, &["--addr"], &["--json"])?),
        "health" => client_health(rest),
        "metrics" => client_metrics(rest),
        "trace" => client_trace(rest),
        "shutdown" => client_shutdown(rest),
        other => Err(CliError::Usage(format!("unknown client action {other:?}"))),
    }
}

fn connect(args: &ParsedArgs) -> Result<Client, CliError> {
    Ok(Client::new(args.required("--addr")?))
}

fn print_model_info(info: &Json) {
    for key in [
        "name",
        "pattern_length",
        "node_count",
        "edge_count",
        "train_len",
        "fitted_at",
        "checksum",
        "lineage",
    ] {
        if let Some(value) = info.get(key) {
            let rendered = match value {
                Json::Str(s) => s.clone(),
                other => other.encode(),
            };
            println!("{key:>15}  {rendered}");
        }
    }
}

fn client_fit(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--addr",
            "--name",
            "--input",
            "--pattern-length",
            "--lambda",
            "--rate",
            "--kde-grid",
            "--sigma-ratio",
            "--seed",
        ],
        &["--no-smooth"],
    )?;
    let client = connect(&args)?;
    let name = args.required("--name")?;
    let input = args.required("--input")?;
    let pattern_length = args.usize_flag("--pattern-length", None)?;

    let mut query = format!("pattern_length={pattern_length}");
    for (flag, key) in [
        ("--lambda", "lambda"),
        ("--rate", "rate"),
        ("--kde-grid", "kde_grid"),
        ("--seed", "seed"),
    ] {
        if let Some(value) = opt_usize(&args, flag)? {
            query.push_str(&format!("&{key}={value}"));
        }
    }
    if let Some(ratio) = args.f64_flag("--sigma-ratio")? {
        query.push_str(&format!("&sigma_ratio={ratio}"));
    }
    if args.has("--no-smooth") {
        query.push_str("&smooth=false");
    }

    // The file bytes go over the wire verbatim: the server parses them with
    // the same CSV parser `s2g fit` uses locally, so the remote fit is
    // bit-identical to a local one.
    let csv = std::fs::read_to_string(input).map_err(runtime)?;
    let info = client.fit_model(name, &query, &csv).map_err(runtime)?;
    println!("fitted {name} on {input}");
    print_model_info(&info);
    Ok(())
}

fn client_score(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &["--addr", "--name", "--query-length", "--top-k"],
        &[],
    )?;
    let client = connect(&args)?;
    let name = args.required("--name")?;
    let query_length = args.usize_flag("--query-length", None)?;
    let top_k = args.usize_flag("--top-k", Some(3))?;
    if args.positional().is_empty() {
        return Err(CliError::Usage(
            "client score needs at least one input series".to_string(),
        ));
    }

    let mut series = Vec::new();
    for path in args.positional() {
        series.push(ts_io::read_series(path).map_err(runtime)?.into_vec());
    }
    let results = client.score(name, query_length, &series).map_err(runtime)?;
    for (path, result) in args.positional().iter().zip(results) {
        match result {
            Ok(profile) => {
                let picks = window::top_k_non_overlapping(&profile, top_k, query_length);
                for (rank, &start) in picks.iter().enumerate() {
                    println!("{path}\t{}\t{start}\t{}", rank + 1, profile[start]);
                }
            }
            Err((code, message)) => {
                eprintln!("{path}: {code}: {message}");
            }
        }
    }
    Ok(())
}

fn client_stream(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--addr",
            "--name",
            "--query-length",
            "--chunk",
            "--adapt-lambda",
            "--normal-quantile",
            "--drift-window",
            "--drift-threshold",
            "--refit-buffer",
            "--refit-cooldown",
            "--publish-interval",
        ],
        &["--adapt"],
    )?;
    let client = connect(&args)?;
    let name = args.required("--name")?;
    let query_length = args.usize_flag("--query-length", None)?;
    let chunk = args.usize_flag("--chunk", Some(512))?.max(1);
    let [input] = args.positional() else {
        return Err(CliError::Usage(
            "client stream needs exactly one input series".to_string(),
        ));
    };

    // The adapt options reuse the engine CLI's flag semantics, so local
    // and remote adaptive streaming are spelled identically.
    let adapt = if args.has("--adapt") {
        let config = s2g_engine::cli::adapt_config_from_args(&args)?;
        let mut pairs = vec![
            ("lambda".to_string(), Json::from(config.lambda)),
            (
                "normal_quantile".to_string(),
                Json::from(config.normal_quantile),
            ),
            ("drift_window".to_string(), Json::from(config.drift_window)),
            (
                "drift_threshold".to_string(),
                Json::from(config.drift_threshold),
            ),
            ("refit_buffer".to_string(), Json::from(config.refit_buffer)),
            (
                "refit_cooldown".to_string(),
                Json::from(config.refit_cooldown as usize),
            ),
        ];
        if let Some(interval) = opt_usize(&args, "--publish-interval")? {
            pairs.push(("publish_interval".to_string(), Json::from(interval)));
        }
        Some(Json::Obj(pairs))
    } else {
        None
    };

    let series = ts_io::read_series(input).map_err(runtime)?;
    let session = client
        .open_session_with(name, query_length, adapt)
        .map_err(runtime)?;
    let mut emitted = Vec::new();
    let mut last_adapt: Option<Json> = None;
    for block in series.values().chunks(chunk) {
        let (pairs, adapt) = client
            .push_session_detailed(&session, block)
            .map_err(runtime)?;
        emitted.extend(pairs);
        if adapt.is_some() {
            last_adapt = adapt;
        }
    }
    let consumed = client.close_session(&session).map_err(runtime)?;
    println!(
        "streamed {consumed} points through session {session}: {} windows emitted",
        emitted.len()
    );
    if let Some(&(start, score)) = emitted.iter().min_by(|a, b| a.1.total_cmp(&b.1)) {
        println!("lowest normality {score} at window start {start}");
    }
    if let Some(adapt) = last_adapt {
        println!("adaptation: {}", adapt.encode());
    }
    Ok(())
}

fn client_metrics(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr"], &["--json"])?;
    let client = connect(&args)?;
    if args.has("--json") {
        // One machine-readable line: gauges plus latency summaries
        // (p50/p95/p99 per route and per stage) from `GET /metrics/json`.
        println!("{}", client.metrics_json().map_err(runtime)?.encode());
        return Ok(());
    }
    for line in client.metrics().map_err(runtime)? {
        println!("{line}");
    }
    Ok(())
}

fn client_trace(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr"], &[])?;
    let client = connect(&args)?;
    let [id] = args.positional() else {
        return Err(CliError::Usage(
            "client trace needs exactly one trace id (16 hex digits)".to_string(),
        ));
    };
    let trace = client.trace(id).map_err(runtime)?;
    // A human-readable span tree: indent children under their parent,
    // durations in milliseconds; the raw JSON stays one `encode()` away.
    let route = trace.get("route").and_then(Json::as_str).unwrap_or("?");
    let status = trace.get("status").and_then(Json::as_usize).unwrap_or(0);
    let total_ns = trace.get("total_ns").and_then(Json::as_usize).unwrap_or(0);
    println!(
        "trace {id}  {route} -> {status}  total {:.3} ms",
        total_ns as f64 / 1e6
    );
    let spans = trace
        .get("spans")
        .and_then(Json::as_array)
        .map(<[Json]>::to_vec)
        .unwrap_or_default();
    fn print_children(spans: &[Json], parent: Option<usize>, depth: usize) {
        for span in spans {
            let this_parent = span.get("parent").and_then(Json::as_usize);
            if this_parent != parent {
                continue;
            }
            let id = span.get("id").and_then(Json::as_usize);
            let name = span.get("name").and_then(Json::as_str).unwrap_or("?");
            let duration = span
                .get("duration_ns")
                .and_then(Json::as_usize)
                .unwrap_or(0);
            let attrs = match span.get("attrs") {
                Some(Json::Obj(pairs)) if !pairs.is_empty() => {
                    let rendered: Vec<String> = pairs
                        .iter()
                        .map(|(k, v)| match v {
                            Json::Str(s) => format!("{k}={s}"),
                            other => format!("{k}={}", other.encode()),
                        })
                        .collect();
                    format!("  [{}]", rendered.join(" "))
                }
                _ => String::new(),
            };
            println!(
                "{:indent$}{name}  {:.3} ms{attrs}",
                "",
                duration as f64 / 1e6,
                indent = depth * 2
            );
            if let Some(id) = id {
                print_children(spans, Some(id), depth + 1);
            }
        }
    }
    print_children(&spans, None, 1);
    Ok(())
}

fn client_info(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr", "--name"], &[])?;
    let client = connect(&args)?;
    let info = client
        .model_info(args.required("--name")?)
        .map_err(runtime)?;
    print_model_info(&info);
    Ok(())
}

fn client_delete(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr", "--name"], &[])?;
    let client = connect(&args)?;
    let name = args.required("--name")?;
    client.delete_model(name).map_err(runtime)?;
    println!("deleted {name}");
    Ok(())
}

fn client_models(args: &ParsedArgs) -> Result<(), CliError> {
    let client = connect(args)?;
    let models = client.list_models().map_err(runtime)?;
    if args.has("--json") {
        // One machine-readable line, exactly the server's listing shape —
        // scripts consume this instead of scraping the table below.
        println!("{}", Json::obj([("models", Json::Arr(models))]).encode());
        return Ok(());
    }
    if models.is_empty() {
        println!("no models registered");
        return Ok(());
    }
    println!("name\tpattern_length\tnode_count\ttrain_len\tfitted_at");
    for model in models {
        let field = |key: &str| {
            model
                .get(key)
                .map(|v| match v {
                    Json::Str(s) => s.clone(),
                    other => other.encode(),
                })
                .unwrap_or_default()
        };
        println!(
            "{}\t{}\t{}\t{}\t{}",
            field("name"),
            field("pattern_length"),
            field("node_count"),
            field("train_len"),
            field("fitted_at"),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// store maintenance
// ---------------------------------------------------------------------------

/// Renders one stored model's metadata as the `store ls --json` object.
/// Checksums travel as fixed-width hex strings (u64 exceeds exact JSON
/// numbers), matching the wire protocol's convention.
fn stored_meta_json(meta: &StoredModelMeta) -> Json {
    Json::obj([
        ("name", Json::from(meta.name.clone())),
        ("version", Json::from(meta.version)),
        ("file_len", Json::from(meta.file_len as usize)),
        ("checksum", Json::from(format!("{:#018x}", meta.checksum))),
        ("pattern_length", Json::from(meta.pattern_length)),
        ("node_count", Json::from(meta.node_count)),
        ("edge_count", Json::from(meta.edge_count)),
        ("train_len", Json::from(meta.train_len)),
        ("points_len", Json::from(meta.points_len)),
        ("points_bytes", Json::from(meta.points_bytes as usize)),
    ])
}

fn cmd_store(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "store needs an action (ls|verify|gc|migrate)".to_string(),
        ));
    };
    let parsed = ParsedArgs::parse(rest, &["--data-dir"], &["--json"])?;
    let dir = parsed.required("--data-dir")?;
    let store = ModelStore::open(dir, StoreConfig::default()).map_err(runtime)?;
    match action.as_str() {
        "ls" => {
            let metas = store.list();
            if parsed.has("--json") {
                let models: Vec<Json> = metas.iter().map(stored_meta_json).collect();
                println!("{}", Json::obj([("models", Json::Arr(models))]).encode());
                return Ok(());
            }
            if metas.is_empty() {
                println!("store at {dir} holds no models");
                return Ok(());
            }
            println!("name\tversion\tpattern_length\tnode_count\ttrain_len\tfile_bytes\tchecksum");
            for m in &metas {
                println!(
                    "{}\tv{}\t{}\t{}\t{}\t{}\t{:#018x}",
                    m.name,
                    m.version,
                    m.pattern_length,
                    m.node_count,
                    m.train_len,
                    m.file_len,
                    m.checksum,
                );
            }
            Ok(())
        }
        "verify" => {
            let report = store.verify().map_err(runtime)?;
            for name in &report.ok {
                println!("ok\t{name}");
            }
            for (file, error) in &report.failed {
                eprintln!("FAILED\t{file}\t{error}");
            }
            if report.failed.is_empty() {
                println!("verified {} model(s), no corruption", report.ok.len());
                Ok(())
            } else {
                Err(CliError::Runtime(format!(
                    "{} of {} file(s) failed verification",
                    report.failed.len(),
                    report.failed.len() + report.ok.len()
                )))
            }
        }
        "gc" => {
            let report = store.gc().map_err(runtime)?;
            for file in &report.removed_temp_files {
                println!("removed\t{file}");
            }
            for (file, error) in &report.unreadable {
                eprintln!("unreadable (kept)\t{file}\t{error}");
            }
            println!(
                "gc: removed {} temp file(s), {} unreadable file(s) left in place",
                report.removed_temp_files.len(),
                report.unreadable.len()
            );
            Ok(())
        }
        "migrate" => {
            let report = store.migrate().map_err(runtime)?;
            for name in &report.migrated {
                println!("migrated\t{name}");
            }
            println!(
                "migrate: rewrote {} model(s) to format v{}, {} already current",
                report.migrated.len(),
                s2g_engine::codec::FORMAT_VERSION,
                report.already_current
            );
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown store action {other:?}"))),
    }
}

fn client_health(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr"], &[])?;
    let client = connect(&args)?;
    let health = client.health().map_err(runtime)?;
    println!("{}", health.encode());
    Ok(())
}

fn client_shutdown(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--addr"], &[])?;
    let client = connect(&args)?;
    match client.shutdown_server() {
        Ok(()) => {
            println!("server at {} is shutting down", client.addr());
            Ok(())
        }
        // The server may drop the socket while racing its own shutdown;
        // treat that as success — but a refused connection means nothing
        // was listening, which is a real failure.
        Err(ClientError::Io(e)) if e.kind() != std::io::ErrorKind::ConnectionRefused => {
            println!("server at {} closed the connection", client.addr());
            Ok(())
        }
        Err(e) => Err(runtime(e)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_subcommands_still_reach_engine_cli() {
        assert!(matches!(
            dispatch(&strs(&["frobnicate"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(dispatch(&strs(&[])), Err(CliError::Usage(_))));
    }

    #[test]
    fn client_requires_action_and_addr() {
        assert!(matches!(
            dispatch(&strs(&["client"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&["client", "bogus"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&["models"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&[
                "client",
                "score",
                "--addr",
                "x",
                "--name",
                "m",
                "--query-length",
                "100"
            ])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn shutdown_against_nothing_is_a_runtime_error() {
        // Port 1 on loopback: connection refused — must NOT be treated as
        // a successful shutdown of a live server.
        assert!(matches!(
            dispatch(&strs(&["client", "shutdown", "--addr", "127.0.0.1:1"])),
            Err(CliError::Runtime(_))
        ));
    }

    #[test]
    fn serve_validates_flags() {
        assert!(matches!(
            dispatch(&strs(&["serve", "--workers", "abc"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&["serve", "--bogus-flag", "1"])),
            Err(CliError::Usage(_))
        ));
    }
}
