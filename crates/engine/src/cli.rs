//! Implementation of the `s2g` command-line interface.
//!
//! Subcommands:
//!
//! * `s2g fit` — fit a model on a CSV series and persist it,
//! * `s2g score` — load a persisted model and score one or more CSV series
//!   (fanned across the worker pool when more than one input is given),
//! * `s2g stream` — replay a CSV series through an incremental
//!   [`StreamingScorer`] session in chunks; `--adapt` scores through an
//!   [`s2g_adapt::AdaptiveScorer`] instead (decayed edge
//!   updates, drift detection, optional refits) and reports the
//!   adaptation summary,
//! * `s2g eval` — the accuracy gauntlet: S2G (frozen and adaptive) plus all
//!   eight baselines over the labelled scenario registry, with AUC / top-k
//!   metrics, deterministic `--json` lines for `BENCH_ACCURACY.json`, and a
//!   `--check` mode that fails when a win condition is violated.
//!
//! Argument parsing is hand-rolled (the workspace is offline; no `clap`).
//! All functions are library-level so integration tests can drive the CLI
//! in-process as well as through the binary.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use s2g_adapt::{AdaptConfig, AdaptiveScorer};
use s2g_core::config::BandwidthRule;
use s2g_core::{S2gConfig, Series2Graph, StreamingScorer};
use s2g_timeseries::{io, TimeSeries};

use crate::codec;
use crate::engine::EngineConfig;
use crate::pool::ScoreJob;

/// Usage lines of the local (in-process) subcommands, as a string literal
/// so front ends layering more subcommands on this CLI (the `s2g-server`
/// crate's help) can `concat!` it into their own usage text and list each
/// flag exactly once.
#[macro_export]
macro_rules! local_usage {
    () => {
        "    s2g fit    --input <series.csv> --output <model.s2g> --pattern-length <n>
               [--lambda <n>] [--rate <n>] [--kde-grid <n>] [--sigma-ratio <x>]
               [--seed <n>] [--no-smooth]
    s2g score  --model <model.s2g> --query-length <n> [--top-k <k>]
               [--scores-out <csv>] [--workers <n>] <input.csv> [<input.csv>...]
    s2g stream --model <model.s2g> --query-length <n> [--chunk <n>]
               [--top-k <k>] [--adapt] [--adapt-lambda <x>]
               [--normal-quantile <x>] [--drift-window <n>]
               [--drift-threshold <x>] [--refit-buffer <n>]
               [--refit-cooldown <n>] [--adapted-out <model.s2g>] <input.csv>
    s2g eval   [--seed <n>] [--scenario <id>[,<id>...]] [--rev <tag>]
               [--fast] [--json] [--check] [--list]
"
    };
}

/// Usage text printed by `s2g help` and on argument errors.
pub const USAGE: &str = concat!(
    "\
s2g — Series2Graph detection engine CLI

USAGE:
",
    local_usage!(),
    "    s2g help

Series files are single-column CSVs (one value per line; `#` comments and a
header row are tolerated). Model files use the versioned `S2GMDL` binary
format and score bit-identically to the in-process model they were saved
from."
);

/// CLI failure: either a usage error (exit 2) or a runtime error (exit 1).
#[derive(Debug)]
pub enum CliError {
    /// Bad or missing arguments; the message explains which.
    Usage(String),
    /// The command itself failed (I/O, fit, malformed model, …).
    Runtime(String),
}

impl From<crate::error::Error> for CliError {
    fn from(e: crate::error::Error) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<s2g_core::Error> for CliError {
    fn from(e: s2g_core::Error) -> Self {
        CliError::Runtime(e.to_string())
    }
}

impl From<s2g_timeseries::Error> for CliError {
    fn from(e: s2g_timeseries::Error) -> Self {
        CliError::Runtime(e.to_string())
    }
}

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
pub fn dispatch(args: &[String]) -> Result<(), CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Err(CliError::Usage("missing subcommand".to_string()));
    };
    match command.as_str() {
        "fit" => cmd_fit(rest),
        "score" => cmd_score(rest),
        "stream" => cmd_stream(rest),
        "eval" => cmd_eval(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown subcommand {other:?}"))),
    }
}

// ---------------------------------------------------------------------------
// Argument parsing
// ---------------------------------------------------------------------------

/// Hand-rolled `--flag value` / `--switch` / positional argument parser
/// shared by every `s2g` subcommand (the workspace is offline; no `clap`).
/// Public so front-end crates layering more subcommands on top of this CLI
/// (e.g. the `s2g-server` crate's `serve` and `client`) parse identically.
pub struct ParsedArgs {
    values: HashMap<&'static str, String>,
    switches: Vec<&'static str>,
    positional: Vec<String>,
}

impl ParsedArgs {
    /// Parses `args` against a fixed set of value-taking flags and boolean
    /// switches. Anything not starting with `--` is positional; an unknown
    /// `--flag` is a usage error.
    pub fn parse(
        args: &[String],
        value_flags: &'static [&'static str],
        switch_flags: &'static [&'static str],
    ) -> Result<Self, CliError> {
        let mut values = HashMap::new();
        let mut switches = Vec::new();
        let mut positional = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if let Some(&flag) = value_flags.iter().find(|&&f| f == arg) {
                let value = iter
                    .next()
                    .ok_or_else(|| CliError::Usage(format!("{flag} requires a value")))?;
                values.insert(flag, value.clone());
            } else if let Some(&flag) = switch_flags.iter().find(|&&f| f == arg) {
                switches.push(flag);
            } else if arg.starts_with("--") {
                return Err(CliError::Usage(format!("unknown flag {arg:?}")));
            } else {
                positional.push(arg.clone());
            }
        }
        Ok(ParsedArgs {
            values,
            switches,
            positional,
        })
    }

    /// The value of a flag that must be present, as a usage error otherwise.
    pub fn required(&self, flag: &str) -> Result<&str, CliError> {
        self.values
            .get(flag)
            .map(String::as_str)
            .ok_or_else(|| CliError::Usage(format!("{flag} is required")))
    }

    /// The value of an optional flag, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        self.values.get(flag).map(String::as_str)
    }

    /// An integer flag with an optional default (`None` = required).
    pub fn usize_flag(&self, flag: &str, default: Option<usize>) -> Result<usize, CliError> {
        match self.values.get(flag) {
            Some(raw) => raw
                .parse()
                .map_err(|_| CliError::Usage(format!("{flag} expects an integer, got {raw:?}"))),
            None => default.ok_or_else(|| CliError::Usage(format!("{flag} is required"))),
        }
    }

    /// A floating-point flag, `None` when absent.
    pub fn f64_flag(&self, flag: &str) -> Result<Option<f64>, CliError> {
        match self.values.get(flag) {
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| CliError::Usage(format!("{flag} expects a number, got {raw:?}"))),
            None => Ok(None),
        }
    }

    /// Whether a boolean switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    /// The positional (non-flag) arguments, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }
}

fn build_config(args: &ParsedArgs) -> Result<S2gConfig, CliError> {
    let pattern_length = args.usize_flag("--pattern-length", None)?;
    let mut config = S2gConfig::new(pattern_length);
    if let Some(lambda) = args.values.get("--lambda") {
        config.lambda = lambda
            .parse()
            .map_err(|_| CliError::Usage(format!("--lambda expects an integer, got {lambda:?}")))?;
    }
    if args.values.contains_key("--rate") {
        config.rate = args.usize_flag("--rate", None)?;
    }
    if args.values.contains_key("--kde-grid") {
        config.kde_grid_points = args.usize_flag("--kde-grid", None)?;
    }
    if let Some(ratio) = args.f64_flag("--sigma-ratio")? {
        config.bandwidth = BandwidthRule::SigmaRatio(ratio);
    }
    if args.values.contains_key("--seed") {
        config.seed = args.usize_flag("--seed", None)? as u64;
    }
    if args.has("--no-smooth") {
        config.smooth_scores = false;
    }
    config
        .validate()
        .map_err(|e| CliError::Usage(e.to_string()))?;
    Ok(config)
}

// ---------------------------------------------------------------------------
// Subcommands
// ---------------------------------------------------------------------------

fn cmd_fit(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--input",
            "--output",
            "--pattern-length",
            "--lambda",
            "--rate",
            "--kde-grid",
            "--sigma-ratio",
            "--seed",
        ],
        &["--no-smooth"],
    )?;
    let input = args.required("--input")?;
    let output = args.required("--output")?;
    let config = build_config(&args)?;

    let series = io::read_series(input)?;
    let started = Instant::now();
    let model = Series2Graph::fit(&series, &config)?;
    let fit_time = started.elapsed();
    codec::save_model(output, &model)?;
    let file_len = std::fs::metadata(output).map(|m| m.len()).unwrap_or(0);

    println!(
        "fitted  {input} ({} points) in {fit_time:.2?}",
        series.len()
    );
    println!(
        "model   {} nodes, {} edges, {:.1}% variance explained",
        model.node_count(),
        model.graph().edge_count(),
        100.0 * model.explained_variance_ratio()
    );
    println!(
        "saved   {output} ({file_len} bytes, format v{})",
        codec::FORMAT_VERSION
    );
    Ok(())
}

fn cmd_score(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--model",
            "--query-length",
            "--top-k",
            "--scores-out",
            "--workers",
        ],
        &[],
    )?;
    let model_path = args.required("--model")?;
    let query_length = args.usize_flag("--query-length", None)?;
    let top_k = args.usize_flag("--top-k", Some(3))?;
    if args.positional.is_empty() {
        return Err(CliError::Usage(
            "score needs at least one input series".to_string(),
        ));
    }
    if args.values.contains_key("--scores-out") && args.positional.len() != 1 {
        return Err(CliError::Usage(
            "--scores-out is only supported with a single input series".to_string(),
        ));
    }

    let model = Arc::new(codec::load_model(model_path)?);
    let mut series = Vec::with_capacity(args.positional.len());
    for path in &args.positional {
        series.push(io::read_series(path)?);
    }
    let n_series = series.len();
    let total_points: usize = series.iter().map(TimeSeries::len).sum();

    let started = Instant::now();
    let profiles: Vec<Vec<f64>> = if n_series == 1 {
        vec![model.anomaly_scores(&series[0], query_length)?]
    } else {
        let workers = args
            .usize_flag("--workers", Some(EngineConfig::default().workers))?
            .max(1);
        let pool = crate::pool::WorkerPool::new(workers);
        // Move (not clone) the series into the jobs; lengths were captured.
        let jobs = series
            .drain(..)
            .map(|series| ScoreJob {
                model: Arc::clone(&model),
                series,
                query_length,
            })
            .collect();
        let mut out = Vec::with_capacity(n_series);
        for result in pool.score_batch(jobs, None) {
            out.push(result?);
        }
        out
    };
    let elapsed = started.elapsed();

    for (path, profile) in args.positional.iter().zip(&profiles) {
        let picks = model.top_k_anomalies(profile, top_k, query_length);
        for (rank, &start) in picks.iter().enumerate() {
            println!("{path}\t{}\t{start}\t{}", rank + 1, profile[start]);
        }
    }
    eprintln!(
        "scored {n_series} series ({total_points} points) with ℓq={query_length} in {elapsed:.2?}"
    );

    if let Some(out_path) = args.values.get("--scores-out") {
        let profile = &profiles[0];
        let starts: Vec<f64> = (0..profile.len()).map(|i| i as f64).collect();
        io::write_columns(out_path, &["start", "anomaly_score"], &[&starts, profile])?;
        eprintln!("wrote {} scores to {out_path}", profile.len());
    }
    Ok(())
}

/// Builds an [`AdaptConfig`] from the shared `--adapt-*` stream flags.
/// Used by both the local `s2g stream --adapt` and (via the server crate)
/// `s2g client stream --adapt`, so the two spell adaptation identically.
pub fn adapt_config_from_args(args: &ParsedArgs) -> Result<AdaptConfig, CliError> {
    let mut config = AdaptConfig::default();
    if let Some(lambda) = args.f64_flag("--adapt-lambda")? {
        config.lambda = lambda;
    }
    if let Some(quantile) = args.f64_flag("--normal-quantile")? {
        config.normal_quantile = quantile;
    }
    if args.get("--drift-window").is_some() {
        config.drift_window = args.usize_flag("--drift-window", None)?;
    }
    if let Some(threshold) = args.f64_flag("--drift-threshold")? {
        config.drift_threshold = threshold;
    }
    if args.get("--refit-buffer").is_some() {
        config.refit_buffer = args.usize_flag("--refit-buffer", None)?;
    }
    if args.get("--refit-cooldown").is_some() {
        config.refit_cooldown = args.usize_flag("--refit-cooldown", None)? as u64;
    }
    Ok(config)
}

fn cmd_stream(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &[
            "--model",
            "--query-length",
            "--chunk",
            "--top-k",
            "--adapt-lambda",
            "--normal-quantile",
            "--drift-window",
            "--drift-threshold",
            "--refit-buffer",
            "--refit-cooldown",
            "--adapted-out",
        ],
        &["--adapt"],
    )?;
    let model_path = args.required("--model")?;
    let query_length = args.usize_flag("--query-length", None)?;
    let chunk = args.usize_flag("--chunk", Some(512))?.max(1);
    let top_k = args.usize_flag("--top-k", Some(3))?;
    let [input] = args.positional.as_slice() else {
        return Err(CliError::Usage(
            "stream needs exactly one input series".to_string(),
        ));
    };

    if args.get("--adapted-out").is_some() && !args.has("--adapt") {
        return Err(CliError::Usage(
            "--adapted-out requires --adapt".to_string(),
        ));
    }
    let model = codec::load_model(model_path)?;
    let series = io::read_series(input)?;
    let started = Instant::now();
    let (emitted, adapted) = if args.has("--adapt") {
        let adapt_config = adapt_config_from_args(&args)?;
        let parent_checksum = codec::model_checksum(&model);
        let mut scorer =
            AdaptiveScorer::new(model.clone(), query_length, adapt_config, parent_checksum)?;
        let mut emitted = Vec::new();
        for block in series.values().chunks(chunk) {
            emitted.extend(scorer.push_batch(block)?.emitted);
        }
        (emitted, Some(scorer))
    } else {
        let mut scorer = StreamingScorer::new(model.clone(), query_length)?;
        let mut emitted = Vec::new();
        for block in series.values().chunks(chunk) {
            emitted.extend(scorer.push_batch(block)?);
        }
        (emitted, None)
    };
    let elapsed = started.elapsed();

    let anomalies = StreamingScorer::to_anomaly_scores(&emitted);
    let profile: Vec<f64> = anomalies.iter().map(|&(_, s)| s).collect();
    let picks = model.top_k_anomalies(&profile, top_k, query_length);
    println!(
        "streamed {} points in {} chunks: {} windows emitted in {elapsed:.2?}",
        series.len(),
        series.len().div_ceil(chunk),
        emitted.len()
    );
    for (rank, &idx) in picks.iter().enumerate() {
        let (start, score) = anomalies[idx];
        println!("{input}\t{}\t{start}\t{score}", rank + 1);
    }
    if let Some(scorer) = adapted {
        let drift = scorer.drift_stats();
        println!(
            "adaptation: {} decayed updates, {} refits, drift shift {:.3} ({})",
            scorer.updates(),
            scorer.refits(),
            drift.shift,
            if drift.drifting { "drifting" } else { "stable" }
        );
        if let Some(out_path) = args.get("--adapted-out") {
            codec::save_model(out_path, &scorer.snapshot())?;
            println!(
                "adapted model saved to {out_path} (parent {:#018x}, {} updates)",
                scorer.lineage().parent_checksum,
                scorer.updates()
            );
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// eval
// ---------------------------------------------------------------------------

/// `s2g eval`: runs the accuracy gauntlet — S2G (frozen and adaptive) plus
/// the eight baselines over the labelled scenario registry.
///
/// `--json` prints one deterministic line per detector × scenario in the
/// `BENCH_ACCURACY.json` run-line schema (no timings, byte-identical across
/// runs of one seed); the default output is a human table per scenario.
/// `--check` additionally enforces the win conditions (S2G strictly tops
/// every baseline on paper-favorable scenarios; the adaptive session beats
/// the frozen model on drift scenarios) and fails with a runtime error
/// listing every violation.
fn cmd_eval(args: &[String]) -> Result<(), CliError> {
    let args = ParsedArgs::parse(
        args,
        &["--seed", "--scenario", "--rev"],
        &["--fast", "--json", "--check", "--list"],
    )?;

    if args.has("--list") {
        for s in s2g_eval::scenario::registry() {
            println!(
                "{:<18} {}{}{}{}",
                s.id,
                s.description,
                if s.paper_favorable {
                    " [paper-favorable]"
                } else {
                    ""
                },
                if s.drift { " [drift]" } else { "" },
                if s.fast { " [fast]" } else { "" },
            );
        }
        return Ok(());
    }

    let seed = args.usize_flag("--seed", Some(42))? as u64;
    let scenarios: Vec<String> = args
        .get("--scenario")
        .map(|ids| {
            ids.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let config = s2g_eval::GauntletConfig {
        seed,
        fast: args.has("--fast"),
        scenarios,
        rev: args.get("--rev").unwrap_or("dev").to_string(),
    };

    let results = s2g_eval::run_gauntlet(&config).map_err(CliError::Usage)?;

    if args.has("--json") {
        print!("{}", s2g_eval::gauntlet::to_json_lines(&results, &config));
    } else {
        print!("{}", s2g_eval::gauntlet::render_table(&results));
    }

    if args.has("--check") {
        let violations = s2g_eval::gauntlet::validate(&results);
        if !violations.is_empty() {
            return Err(CliError::Runtime(format!(
                "win conditions violated:\n  {}",
                violations.join("\n  ")
            )));
        }
        if !args.has("--json") {
            println!("win conditions: all green ✓");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut dir = std::env::temp_dir();
        dir.push(format!("s2g_cli_test_{}_{name}", std::process::id()));
        dir
    }

    fn write_sine(path: &std::path::Path, n: usize, burst_at: Option<usize>) {
        let mut values: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
            .collect();
        if let Some(at) = burst_at {
            for (i, v) in values
                .iter_mut()
                .enumerate()
                .take((at + 150).min(n))
                .skip(at)
            {
                *v = (std::f64::consts::TAU * i as f64 / 25.0).sin();
            }
        }
        io::write_series(path, &TimeSeries::from(values)).unwrap();
    }

    #[test]
    fn unknown_subcommand_and_flags_are_usage_errors() {
        for unknown in ["frobnicate", "bench-throughput"] {
            assert!(matches!(
                dispatch(&strs(&[unknown])),
                Err(CliError::Usage(_))
            ));
        }
        assert!(matches!(dispatch(&strs(&[])), Err(CliError::Usage(_))));
        assert!(matches!(
            dispatch(&strs(&["fit", "--bogus", "1"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&["score", "--model"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn eval_lists_scenarios_and_rejects_unknown_ids() {
        assert!(dispatch(&strs(&["eval", "--list"])).is_ok());
        assert!(matches!(
            dispatch(&strs(&["eval", "--scenario", "no-such-scenario"])),
            Err(CliError::Usage(_))
        ));
        assert!(matches!(
            dispatch(&strs(&["eval", "--seed", "forty-two"])),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn eval_runs_one_scenario_with_win_conditions_enforced() {
        // One paper-favorable scenario end-to-end through the CLI layer,
        // with --check promoting any win-condition violation to a failure.
        dispatch(&strs(&[
            "eval",
            "--scenario",
            "srw-clean",
            "--seed",
            "42",
            "--json",
            "--check",
        ]))
        .unwrap();
    }

    #[test]
    fn fit_then_score_and_stream_end_to_end() {
        let input = tmp("fleet_input.csv");
        let model_path = tmp("fleet_model.s2g");
        let scores_path = tmp("fleet_scores.csv");
        write_sine(&input, 4000, Some(2000));

        dispatch(&strs(&[
            "fit",
            "--input",
            input.to_str().unwrap(),
            "--output",
            model_path.to_str().unwrap(),
            "--pattern-length",
            "50",
        ]))
        .unwrap();

        dispatch(&strs(&[
            "score",
            "--model",
            model_path.to_str().unwrap(),
            "--query-length",
            "150",
            "--top-k",
            "1",
            "--scores-out",
            scores_path.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();

        // The written profile must match the in-process fit+score exactly.
        let series = io::read_series(&input).unwrap();
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        let expected = model.anomaly_scores(&series, 150).unwrap();
        let text = std::fs::read_to_string(&scores_path).unwrap();
        let written: Vec<f64> = text
            .lines()
            .skip(1)
            .map(|line| line.split(',').nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(written.len(), expected.len());
        for (w, e) in written.iter().zip(&expected) {
            assert_eq!(
                w.to_bits(),
                e.to_bits(),
                "persisted scores must be bit-identical"
            );
        }

        dispatch(&strs(&[
            "stream",
            "--model",
            model_path.to_str().unwrap(),
            "--query-length",
            "150",
            "--chunk",
            "333",
            input.to_str().unwrap(),
        ]))
        .unwrap();

        for p in [&input, &model_path, &scores_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn score_rejects_scores_out_with_many_inputs() {
        let err = dispatch(&strs(&[
            "score",
            "--model",
            "m.s2g",
            "--query-length",
            "100",
            "--scores-out",
            "out.csv",
            "a.csv",
            "b.csv",
        ]));
        assert!(matches!(err, Err(CliError::Usage(_))));
    }

    #[test]
    fn stream_adapt_round_trips_an_adapted_model() {
        let input = tmp("adapt_input.csv");
        let model_path = tmp("adapt_model.s2g");
        let adapted_path = tmp("adapt_out.s2g");
        write_sine(&input, 4000, None);

        dispatch(&strs(&[
            "fit",
            "--input",
            input.to_str().unwrap(),
            "--output",
            model_path.to_str().unwrap(),
            "--pattern-length",
            "50",
        ]))
        .unwrap();

        // --adapted-out without --adapt is a usage error.
        assert!(matches!(
            dispatch(&strs(&[
                "stream",
                "--model",
                model_path.to_str().unwrap(),
                "--query-length",
                "150",
                "--adapted-out",
                adapted_path.to_str().unwrap(),
                input.to_str().unwrap(),
            ])),
            Err(CliError::Usage(_))
        ));

        dispatch(&strs(&[
            "stream",
            "--model",
            model_path.to_str().unwrap(),
            "--query-length",
            "150",
            "--adapt",
            "--adapt-lambda",
            "0.05",
            "--adapted-out",
            adapted_path.to_str().unwrap(),
            input.to_str().unwrap(),
        ]))
        .unwrap();

        // The adapted model reloads with lineage pointing at the parent.
        let parent = codec::load_model(&model_path).unwrap();
        let adapted = codec::load_model(&adapted_path).unwrap();
        let lineage = adapted.lineage().expect("adapted model carries lineage");
        assert_eq!(lineage.parent_checksum, codec::model_checksum(&parent));
        assert!(lineage.update_count > 0);
        assert_eq!(lineage.decay_lambda, 0.05);

        for p in [&input, &model_path, &adapted_path] {
            std::fs::remove_file(p).ok();
        }
    }
}
