//! `s2g obs` — offline forensics over a durable telemetry journal.
//!
//! Reads the segment and postmortem files a journaled server left under
//! `--data-dir/obs/` (no server required — the point is reading the
//! black box *after* the process is gone) and reconstructs what the
//! live endpoints would have told you:
//!
//! * `obs ls` — every retained file: sequence, events, bytes, wall-clock
//!   range, torn-tail flags;
//! * `obs report [--window <secs>]` — the last boot's request rates and
//!   windowed latency percentiles (rebuilt from retained
//!   flight-recorder samples via the strict `checked_delta` machinery),
//!   self-watch transitions, slow/error traces, warn/error log lines,
//!   and any postmortems;
//! * `obs grep` — filter the event stream by route, trace id, level or
//!   kind; `--trace` prints the span tree plus correlated log lines;
//! * `obs export` — the whole journal as JSON lines for `jq` and
//!   friends.
//!
//! Every record consumed here was checksum-verified by the reader;
//! torn tails (a `kill -9` mid-write) are reported, never fatal.

use std::path::PathBuf;

use s2g_engine::cli::{CliError, ParsedArgs};
use s2g_obs::journal::{
    read_dir_all, JournalEvent, LogEvent, SampleEvent, SegmentData, TraceEvent,
};
use s2g_obs::recorder::{CompactHistogram, SeriesSchema};

use crate::json::Json;
use crate::metrics::summary_json;

/// EPIPE-safe line output: `obs export | head -1` and `obs report | less`
/// are the intended usage, and a closed downstream pipe must end the
/// command quietly (exit 0), not panic mid-`outln!`.
fn emit(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    let mut out = std::io::stdout().lock();
    if out
        .write_fmt(args)
        .and_then(|()| out.write_all(b"\n"))
        .is_err()
    {
        std::process::exit(0);
    }
}

macro_rules! outln {
    ($($t:tt)*) => { emit(format_args!($($t)*)) };
}

/// `s2g obs <ls|report|grep|export> (--data-dir <dir> | --journal-dir <dir>) ...`
///
/// # Errors
/// [`CliError::Usage`] for bad flags, [`CliError::Runtime`] when the
/// journal directory cannot be read.
pub(crate) fn cmd_obs(args: &[String]) -> Result<(), CliError> {
    let Some((action, rest)) = args.split_first() else {
        return Err(CliError::Usage(
            "obs needs an action (ls|report|grep|export)".to_string(),
        ));
    };
    match action.as_str() {
        "ls" => obs_ls(rest),
        "report" => obs_report(rest),
        "grep" => obs_grep(rest),
        "export" => obs_export(rest),
        other => Err(CliError::Usage(format!("unknown obs action {other:?}"))),
    }
}

fn runtime(e: impl std::fmt::Display) -> CliError {
    CliError::Runtime(e.to_string())
}

/// Resolves the journal directory: `--journal-dir` names it directly,
/// `--data-dir` points at a server data directory (journal under
/// `obs/`). Exactly the layout `serve --data-dir` writes.
fn journal_dir(args: &ParsedArgs) -> Result<PathBuf, CliError> {
    match (args.get("--journal-dir"), args.get("--data-dir")) {
        (Some(dir), _) => Ok(PathBuf::from(dir)),
        (None, Some(data)) => Ok(PathBuf::from(data).join("obs")),
        (None, None) => Err(CliError::Usage(
            "obs needs --data-dir <dir> (server data directory) or --journal-dir <dir>".to_string(),
        )),
    }
}

fn load(args: &ParsedArgs) -> Result<(PathBuf, Vec<SegmentData>), CliError> {
    let dir = journal_dir(args)?;
    let files = read_dir_all(&dir).map_err(runtime)?;
    if files.is_empty() {
        return Err(CliError::Runtime(format!(
            "no journal segments under {} (server not run with journaling?)",
            dir.display()
        )));
    }
    Ok((dir, files))
}

/// Unix milliseconds as a UTC `YYYY-MM-DDTHH:MM:SS.mmmZ` timestamp
/// (civil-from-days, no timezone database needed).
fn fmt_wall(ms: u64) -> String {
    let secs = ms / 1000;
    let millis = ms % 1000;
    let days = secs / 86_400;
    let tod = secs % 86_400;
    // Howard Hinnant's civil_from_days, shifted to the unix epoch.
    let z = days as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{y:04}-{m:02}-{d:02}T{:02}:{:02}:{:02}.{millis:03}Z",
        tod / 3600,
        (tod % 3600) / 60,
        tod % 60
    )
}

fn file_name(seg: &SegmentData) -> String {
    seg.path.file_name().map_or_else(
        || seg.path.display().to_string(),
        |n| n.to_string_lossy().into_owned(),
    )
}

// ---------------------------------------------------------------------------
// obs ls
// ---------------------------------------------------------------------------

fn obs_ls(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--data-dir", "--journal-dir"], &["--json"])?;
    let (dir, files) = load(&args)?;
    if args.has("--json") {
        let listed: Vec<Json> = files.iter().map(segment_summary_json).collect();
        let body = Json::obj([
            ("dir", Json::from(dir.display().to_string())),
            ("files", Json::Arr(listed)),
        ]);
        outln!("{}", body.encode());
        return Ok(());
    }
    outln!("journal at {}", dir.display());
    outln!("file\tkind\tseq\tevents\tbytes\tfrom\tto\tnote");
    for seg in &files {
        let kind = if seg.postmortem {
            "postmortem"
        } else {
            "segment"
        };
        let (from, to) = seg
            .wall_range_ms()
            .map_or(("-".to_string(), "-".to_string()), |(a, b)| {
                (fmt_wall(a), fmt_wall(b))
            });
        let note = if seg.torn {
            format!(
                "TORN tail ({} bytes beyond last valid record)",
                seg.file_bytes.saturating_sub(seg.valid_bytes)
            )
        } else {
            String::new()
        };
        outln!(
            "{}\t{kind}\t{}\t{}\t{}\t{from}\t{to}\t{note}",
            file_name(seg),
            seg.meta.seq,
            seg.events.len(),
            seg.file_bytes,
        );
    }
    let torn = files.iter().filter(|s| s.torn).count();
    if torn > 0 {
        outln!("note: {torn} file(s) have torn tails — every record above decoded checksum-verified; the next writer boot truncates the tail");
    }
    Ok(())
}

fn segment_summary_json(seg: &SegmentData) -> Json {
    let range = seg.wall_range_ms();
    Json::obj([
        ("file", Json::from(file_name(seg))),
        (
            "kind",
            Json::from(if seg.postmortem {
                "postmortem"
            } else {
                "segment"
            }),
        ),
        ("seq", Json::from(seg.meta.seq as usize)),
        ("events", Json::from(seg.events.len())),
        ("bytes", Json::from(seg.file_bytes as usize)),
        ("valid_bytes", Json::from(seg.valid_bytes as usize)),
        ("torn", Json::from(seg.torn)),
        (
            "from_ms",
            range.map_or(Json::Null, |(a, _)| Json::from(a as usize)),
        ),
        (
            "to_ms",
            range.map_or(Json::Null, |(_, b)| Json::from(b as usize)),
        ),
    ])
}

// ---------------------------------------------------------------------------
// obs report
// ---------------------------------------------------------------------------

fn obs_report(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--data-dir", "--journal-dir", "--window"], &[])?;
    let window_secs = args.usize_flag("--window", Some(0))? as u64;
    let (dir, files) = load(&args)?;
    let (segments, postmortems): (Vec<&SegmentData>, Vec<&SegmentData>) =
        files.iter().partition(|s| !s.postmortem);

    outln!("journal report — {}", dir.display());
    let torn = segments.iter().filter(|s| s.torn).count();
    outln!(
        "{} segment(s), {} postmortem(s), {} torn tail(s)",
        segments.len(),
        postmortems.len(),
        torn
    );

    // Rebuild the last boot's windowed rates and percentiles from the
    // retained flight-recorder samples. Only the final contiguous
    // monotonic run counts: a sample stream straddling a restart would
    // regress, which is exactly what `checked_delta` refuses.
    let seg_refs: Vec<SegmentData> = segments.iter().map(|s| (*s).clone()).collect();
    let (schema, samples) = s2g_obs::journal::last_boot_samples(&seg_refs);
    report_samples(&schema, &samples, window_secs);

    // The event stream of the report window: watch transitions, slow and
    // error traces, warn/error log lines.
    let window_start = window_start_ms(&files, window_secs);
    report_events(&segments, window_start);

    for seg in &postmortems {
        report_postmortem(seg);
    }
    Ok(())
}

/// The wall-clock start of the report window: `window` seconds back from
/// the newest event anywhere in the journal (0 = everything).
fn window_start_ms(files: &[SegmentData], window_secs: u64) -> u64 {
    if window_secs == 0 {
        return 0;
    }
    let newest = files
        .iter()
        .filter_map(SegmentData::wall_range_ms)
        .map(|(_, to)| to)
        .max()
        .unwrap_or(0);
    newest.saturating_sub(window_secs.saturating_mul(1000))
}

/// Reconstructed rates and percentiles between the first and last
/// retained samples of the window — the offline mirror of
/// `GET /metrics/delta`, built on `checked_delta` so cross-boot or
/// cross-schema sample pairs fail loudly instead of underflowing.
fn report_samples(schema: &SeriesSchema, samples: &[SampleEvent], window_secs: u64) {
    let cutoff = if window_secs == 0 {
        0
    } else {
        samples
            .last()
            .map_or(0, |s| s.wall_ms.saturating_sub(window_secs * 1000))
    };
    let windowed: Vec<&SampleEvent> = samples.iter().filter(|s| s.wall_ms >= cutoff).collect();
    let (Some(first), Some(last)) = (windowed.first(), windowed.last()) else {
        outln!("\nno retained flight-recorder samples (was the sampler on?)");
        return;
    };
    if windowed.len() < 2 {
        outln!("\nonly one retained sample in the window — no rates to rebuild");
        return;
    }
    let seconds = last.sample.t_ns.saturating_sub(first.sample.t_ns) as f64 / 1e9;
    outln!(
        "\nlast boot, {} sample(s) spanning {:.1}s ({} .. {}):",
        windowed.len(),
        seconds,
        fmt_wall(first.wall_ms),
        fmt_wall(last.wall_ms)
    );
    let rate = |delta: u64| -> f64 {
        if seconds > 0.0 {
            delta as f64 / seconds
        } else {
            0.0
        }
    };

    // Counter deltas over the window.
    let mut any = false;
    for (name, (&now, &then)) in schema.counters.iter().zip(
        last.sample
            .counters
            .iter()
            .zip(first.sample.counters.iter()),
    ) {
        let delta = now.saturating_sub(then);
        if delta == 0 {
            continue;
        }
        any = true;
        outln!("  {name}  +{delta}  ({:.2}/s)", rate(delta));
    }
    if !any {
        outln!("  (no counter activity in the window)");
    }

    // Histogram deltas: strict — a regression or alien bucket aborts the
    // series with a loud note instead of printing garbage percentiles.
    let mut external = CompactHistogram::empty();
    let mut rows: Vec<(String, CompactHistogram)> = Vec::new();
    for (name, (now, then)) in schema.histograms.iter().zip(
        last.sample
            .histograms
            .iter()
            .zip(first.sample.histograms.iter()),
    ) {
        match now.checked_delta(then) {
            Ok(delta) => {
                if delta.count == 0 {
                    continue;
                }
                if name.starts_with("s2g_request_duration_ns{") {
                    external = external.merge(&delta);
                }
                rows.push((name.clone(), delta));
            }
            Err(e) => {
                outln!("  {name}: refusing delta ({e}) — samples disagree with the schema");
            }
        }
    }
    if external.count > 0 {
        outln!(
            "  external requests: {} in window  p50 {:.3} ms  p95 {:.3} ms  p99 {:.3} ms  max {:.3} ms",
            external.count,
            external.quantile(0.5) as f64 / 1e6,
            external.quantile(0.95) as f64 / 1e6,
            external.quantile(0.99) as f64 / 1e6,
            external.max as f64 / 1e6,
        );
    }
    for (name, delta) in &rows {
        let route = name
            .strip_prefix("s2g_request_duration_ns{route=\"")
            .and_then(|r| r.strip_suffix("\"}"));
        if let Some(route) = route {
            outln!(
                "    {route:<34} {:>6}  p50 {:.3} ms  p99 {:.3} ms",
                delta.count,
                delta.quantile(0.5) as f64 / 1e6,
                delta.quantile(0.99) as f64 / 1e6,
            );
        }
    }
}

/// The non-sample event stream of the window: watch transitions, traces
/// (slow or error — those are the only ones journaled), warn/error logs.
fn report_events(segments: &[&SegmentData], window_start: u64) {
    let mut watches = Vec::new();
    let mut traces = Vec::new();
    let mut logs = Vec::new();
    for seg in segments {
        for event in &seg.events {
            if event.wall_ms() < window_start {
                continue;
            }
            match event {
                JournalEvent::Watch(w) => watches.push(w),
                JournalEvent::Trace(t) => traces.push(t),
                JournalEvent::Log(l) => logs.push(l),
                _ => {}
            }
        }
    }
    if !watches.is_empty() {
        outln!("\nself-watch transitions ({}):", watches.len());
        for w in &watches {
            outln!(
                "  {}  {} {} -> {}  (value {:.4}, score {:.4})",
                fmt_wall(w.wall_ms),
                w.signal,
                w.from,
                w.to,
                w.value,
                w.score
            );
        }
    }
    if !traces.is_empty() {
        outln!("\nslow/error traces ({}):", traces.len());
        for t in traces.iter().take(20) {
            outln!(
                "  {}  {:016x}  {} -> {}  {:.3} ms  ({} span(s))",
                fmt_wall(t.wall_ms),
                t.id,
                t.route,
                t.status,
                t.total_ns as f64 / 1e6,
                t.spans.len()
            );
        }
        if traces.len() > 20 {
            outln!("  ... {} more (use obs grep)", traces.len() - 20);
        }
    }
    if !logs.is_empty() {
        outln!("\nwarn/error log lines ({}):", logs.len());
        for l in logs.iter().rev().take(10).rev() {
            outln!("  {}  {}", fmt_wall(l.wall_ms), log_line(l));
        }
        if logs.len() > 10 {
            outln!("  ... showing the last 10 (use obs grep --level warn)");
        }
    }
}

fn log_line(l: &LogEvent) -> String {
    let trace = if l.trace_id == 0 {
        String::new()
    } else {
        format!(" [trace {:016x}]", l.trace_id)
    };
    format!(
        "{:<5} {}: {}{trace}",
        l.level.as_str().to_ascii_uppercase(),
        l.target,
        l.msg
    )
}

fn report_postmortem(seg: &SegmentData) {
    outln!(
        "\npostmortem {} ({} event(s)):",
        file_name(seg),
        seg.events.len()
    );
    for event in &seg.events {
        match event {
            JournalEvent::Panic(p) => {
                outln!(
                    "  {}  PANIC at {}: {}",
                    fmt_wall(p.wall_ms),
                    p.location,
                    p.message
                );
            }
            JournalEvent::Trace(t) if t.in_flight => {
                outln!(
                    "  in-flight: {:016x}  {}  ({} span(s) finished before the panic)",
                    t.id,
                    t.route,
                    t.spans.len()
                );
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// obs grep
// ---------------------------------------------------------------------------

fn obs_grep(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--data-dir",
            "--journal-dir",
            "--route",
            "--trace",
            "--level",
            "--kind",
        ],
        &[],
    )?;
    let (_, files) = load(&args)?;
    let route = args.get("--route");
    let trace_id = match args.get("--trace") {
        None => None,
        Some(raw) => Some(u64::from_str_radix(raw, 16).map_err(|_| {
            CliError::Usage(format!("--trace expects a hex trace id, got {raw:?}"))
        })?),
    };
    let level = match args.get("--level") {
        None => None,
        Some(raw) => Some(s2g_obs::Level::parse(raw).ok_or_else(|| {
            CliError::Usage(format!(
                "--level expects error|warn|info|debug, got {raw:?}"
            ))
        })?),
    };
    let kind = args.get("--kind");
    let mut matched = 0usize;
    for seg in &files {
        for event in &seg.events {
            if !event_matches(event, route, trace_id, level, kind) {
                continue;
            }
            matched += 1;
            print_event(seg, event, trace_id.is_some());
        }
    }
    if matched == 0 {
        outln!("no matching events");
    }
    Ok(())
}

/// Whether one event passes every given filter. Filters compose as AND;
/// a filter an event kind cannot satisfy (e.g. `--route` on a log line)
/// excludes it.
fn event_matches(
    event: &JournalEvent,
    route: Option<&str>,
    trace_id: Option<u64>,
    level: Option<s2g_obs::Level>,
    kind: Option<&str>,
) -> bool {
    if let Some(kind) = kind {
        if event.kind() != kind {
            return false;
        }
    }
    if let Some(route) = route {
        match event {
            JournalEvent::Trace(t) => {
                if !t.route.contains(route) {
                    return false;
                }
            }
            _ => return false,
        }
    }
    if let Some(id) = trace_id {
        match event {
            JournalEvent::Trace(t) => {
                if t.id != id {
                    return false;
                }
            }
            JournalEvent::Log(l) => {
                if l.trace_id != id {
                    return false;
                }
            }
            _ => return false,
        }
    }
    if let Some(level) = level {
        match event {
            JournalEvent::Log(l) => {
                if l.level > level {
                    return false;
                }
            }
            _ => return false,
        }
    }
    true
}

fn print_event(seg: &SegmentData, event: &JournalEvent, expand_spans: bool) {
    let origin = file_name(seg);
    match event {
        JournalEvent::Sample(s) => {
            outln!(
                "{}  {origin}  sample  t_ns={}  {} counter(s), {} histogram(s)",
                fmt_wall(s.wall_ms),
                s.sample.t_ns,
                s.sample.counters.len(),
                s.sample.histograms.len()
            );
        }
        JournalEvent::Trace(t) => {
            let flight = if t.in_flight { "  IN-FLIGHT" } else { "" };
            outln!(
                "{}  {origin}  trace {:016x}  {} -> {}  {:.3} ms  ({} span(s)){flight}",
                fmt_wall(t.wall_ms),
                t.id,
                t.route,
                t.status,
                t.total_ns as f64 / 1e6,
                t.spans.len()
            );
            if expand_spans {
                print_span_tree(t, None, 2);
            }
        }
        JournalEvent::Watch(w) => {
            outln!(
                "{}  {origin}  watch  {} {} -> {}  (value {:.4}, score {:.4})",
                fmt_wall(w.wall_ms),
                w.signal,
                w.from,
                w.to,
                w.value,
                w.score
            );
        }
        JournalEvent::Log(l) => {
            outln!("{}  {origin}  log  {}", fmt_wall(l.wall_ms), log_line(l));
        }
        JournalEvent::Panic(p) => {
            outln!(
                "{}  {origin}  panic  at {}: {}",
                fmt_wall(p.wall_ms),
                p.location,
                p.message
            );
        }
    }
}

/// Prints one trace's span tree, children indented under their parent —
/// the offline analogue of `s2g client trace`.
fn print_span_tree(trace: &TraceEvent, parent: Option<u32>, depth: usize) {
    for span in &trace.spans {
        if span.parent != parent {
            continue;
        }
        let attrs = if span.attrs.is_empty() {
            String::new()
        } else {
            let rendered: Vec<String> =
                span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            format!("  [{}]", rendered.join(" "))
        };
        outln!(
            "{:indent$}{}  {:.3} ms{attrs}",
            "",
            span.name,
            span.duration_ns as f64 / 1e6,
            indent = depth
        );
        print_span_tree(trace, Some(span.id), depth + 2);
    }
}

// ---------------------------------------------------------------------------
// obs export
// ---------------------------------------------------------------------------

fn obs_export(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(args, &["--data-dir", "--journal-dir"], &["--json"])?;
    let (_, files) = load(&args)?;
    // JSON lines, one per event (`--json` is accepted for symmetry with
    // the other subcommands; export is always machine-readable).
    for seg in &files {
        let origin = file_name(seg);
        for event in &seg.events {
            let mut body = event_json(event);
            if let Json::Obj(pairs) = &mut body {
                pairs.insert(0, ("file".to_string(), Json::from(origin.clone())));
                pairs.insert(1, ("seq".to_string(), Json::from(seg.meta.seq as usize)));
            }
            outln!("{}", body.encode());
        }
    }
    Ok(())
}

/// One journal event as JSON — kind-tagged, wall-clock stamped, with the
/// payload flattened into the object.
fn event_json(event: &JournalEvent) -> Json {
    let mut pairs: Vec<(String, Json)> = vec![
        ("kind".to_string(), Json::from(event.kind())),
        ("wall_ms".to_string(), Json::from(event.wall_ms() as usize)),
    ];
    match event {
        JournalEvent::Sample(s) => {
            pairs.push(("t_ns".to_string(), Json::from(s.sample.t_ns as usize)));
            pairs.push((
                "counters".to_string(),
                Json::Arr(
                    s.sample
                        .counters
                        .iter()
                        .map(|&v| Json::from(v as usize))
                        .collect(),
                ),
            ));
            pairs.push((
                "gauges".to_string(),
                Json::Arr(
                    s.sample
                        .gauges
                        .iter()
                        .map(|&v| Json::from(v as usize))
                        .collect(),
                ),
            ));
            pairs.push((
                "histograms".to_string(),
                Json::Arr(s.sample.histograms.iter().map(summary_json).collect()),
            ));
        }
        JournalEvent::Trace(t) => {
            pairs.push(("trace".to_string(), Json::from(format!("{:016x}", t.id))));
            pairs.push(("route".to_string(), Json::from(t.route.clone())));
            pairs.push(("status".to_string(), Json::from(t.status as usize)));
            pairs.push(("total_ns".to_string(), Json::from(t.total_ns as usize)));
            pairs.push(("in_flight".to_string(), Json::from(t.in_flight)));
            let spans: Vec<Json> = t
                .spans
                .iter()
                .map(|span| {
                    Json::obj([
                        ("id", Json::from(span.id as usize)),
                        (
                            "parent",
                            span.parent.map_or(Json::Null, |p| Json::from(p as usize)),
                        ),
                        ("name", Json::from(span.name.clone())),
                        ("start_ns", Json::from(span.start_ns as usize)),
                        ("duration_ns", Json::from(span.duration_ns as usize)),
                        (
                            "attrs",
                            Json::Obj(
                                span.attrs
                                    .iter()
                                    .map(|(k, v)| (k.clone(), Json::from(v.clone())))
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect();
            pairs.push(("spans".to_string(), Json::Arr(spans)));
        }
        JournalEvent::Watch(w) => {
            pairs.push(("signal".to_string(), Json::from(w.signal.clone())));
            pairs.push(("from".to_string(), Json::from(w.from.clone())));
            pairs.push(("to".to_string(), Json::from(w.to.clone())));
            pairs.push(("value".to_string(), Json::from(w.value)));
            pairs.push(("score".to_string(), Json::from(w.score)));
        }
        JournalEvent::Log(l) => {
            pairs.push(("level".to_string(), Json::from(l.level.as_str())));
            pairs.push(("target".to_string(), Json::from(l.target.clone())));
            pairs.push(("msg".to_string(), Json::from(l.msg.clone())));
            if l.trace_id != 0 {
                pairs.push((
                    "trace".to_string(),
                    Json::from(format!("{:016x}", l.trace_id)),
                ));
            }
        }
        JournalEvent::Panic(p) => {
            pairs.push(("message".to_string(), Json::from(p.message.clone())));
            pairs.push(("location".to_string(), Json::from(p.location.clone())));
        }
    }
    Json::Obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_needs_an_action_and_a_directory() {
        assert!(matches!(cmd_obs(&[]), Err(CliError::Usage(_))));
        let bogus: Vec<String> = vec!["frobnicate".to_string()];
        assert!(matches!(cmd_obs(&bogus), Err(CliError::Usage(_))));
        let no_dir: Vec<String> = vec!["ls".to_string()];
        assert!(matches!(cmd_obs(&no_dir), Err(CliError::Usage(_))));
    }

    #[test]
    fn missing_journal_directory_is_a_runtime_error() {
        let args: Vec<String> = ["report", "--journal-dir", "/nonexistent/s2g-obs-test"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(matches!(cmd_obs(&args), Err(CliError::Runtime(_))));
    }

    #[test]
    fn wall_clock_formatting_is_civil_utc() {
        assert_eq!(fmt_wall(0), "1970-01-01T00:00:00.000Z");
        // 1.7 billion seconds: 2023-11-14 22:13:20 UTC.
        assert_eq!(fmt_wall(1_700_000_000_042), "2023-11-14T22:13:20.042Z");
        // Leap-year boundary: 2024-02-29.
        assert_eq!(fmt_wall(1_709_164_800_000), "2024-02-29T00:00:00.000Z");
    }
}
