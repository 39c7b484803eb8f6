//! Dataset × method execution, timing, and Top-k accuracy evaluation.

use std::str::FromStr;
use std::time::Instant;

use s2g_core::{S2gConfig, Series2Graph};
use s2g_datasets::LabeledSeries;
use s2g_eval::detector::{
    Dad, Detector, DetectorInput, GrammarViz, IsolationForest, Lof, LstmAd, ScoreProfile, Stomp,
};
use s2g_eval::topk::{top_k_accuracy, GroundTruth};

/// Series2Graph as the paper's Section 5 evaluates it: the graph is always
/// built with `ℓ = 50`, `λ = 16` (fixed for **all** datasets of Table 3, to
/// demonstrate robustness to the input-length parameter) and queries are
/// `ℓ_q = max(ℓ_A, 50)` long. This differs on purpose from the gauntlet's
/// S2G, which scales its pattern length with the anomaly length.
pub struct PaperS2g {
    /// Fit on the first half of the series (`S2G |T|/2`) instead of on all
    /// of it (`S2G |T|`).
    half: bool,
}

/// Series2Graph trained on the full series (`S2G |T|`).
pub const S2G: PaperS2g = PaperS2g { half: false };

/// Series2Graph trained on the first half of the series (`S2G |T|/2`).
pub const S2G_HALF: PaperS2g = PaperS2g { half: true };

/// The paper's Series2Graph configuration: `ℓ = 50`, `λ = 16`.
fn s2g_paper_config() -> S2gConfig {
    S2gConfig::new(50).with_lambda(16)
}

impl Detector for PaperS2g {
    fn name(&self) -> &'static str {
        if self.half {
            "S2G|T|/2"
        } else {
            "S2G"
        }
    }

    fn run(&self, input: &DetectorInput) -> Result<ScoreProfile, String> {
        let config = s2g_paper_config();
        let query = input.window.max(config.pattern_length);
        let series = &input.data.series;
        let train = if self.half {
            series.prefix(series.len() / 2)
        } else {
            series.clone()
        };
        let model = Series2Graph::fit(&train, &config).map_err(|e| e.to_string())?;
        let scores = model
            .anomaly_scores(series, query)
            .map_err(|e| e.to_string())?;
        Ok(ScoreProfile {
            scores,
            window: query,
        })
    }
}

/// Every method of Table 3, in the paper's column order.
pub const ALL: [&dyn Detector; 8] = [
    &GrammarViz,
    &Stomp,
    &Dad,
    &Lof,
    &IsolationForest,
    &LstmAd,
    &S2G_HALF,
    &S2G,
];

/// The fast subset used by default for the scalability figures
/// (LOF and DAD are quadratic with large constants and dominate runtime).
pub const FAST: [&dyn Detector; 5] = [&GrammarViz, &Stomp, &IsolationForest, &S2G, &LstmAd];

/// Outcome of running one method on one dataset.
#[derive(Debug, Clone)]
pub struct EvalOutcome {
    /// Dataset display name.
    pub dataset: String,
    /// Method label.
    pub method: &'static str,
    /// Top-k accuracy with `k` = number of labelled anomalies.
    pub accuracy: f64,
    /// Wall-clock seconds spent computing the score profile.
    pub seconds: f64,
    /// Number of labelled anomalies (`k`).
    pub k: usize,
    /// Series length evaluated.
    pub series_len: usize,
}

/// Converts a labelled series' annotations into the evaluation ground truth.
pub fn ground_truth(data: &LabeledSeries) -> GroundTruth {
    GroundTruth::new(data.anomalies.iter().map(|a| (a.start, a.length)).collect())
}

/// Scores a whole labelled series with `method`; every detector trains on
/// the full series (the half-trained S2G picks its own prefix).
fn run(
    data: &LabeledSeries,
    method: &dyn Detector,
    window: usize,
    k: usize,
) -> Result<ScoreProfile, String> {
    method.run(&DetectorInput {
        data,
        window,
        k,
        train_len: data.len(),
    })
}

/// Runs one method on an already generated labelled series, timing the score
/// computation and evaluating Top-k accuracy with `k` equal to the number of
/// labelled anomalies. Returns `Err` with the method's message on failure.
pub fn evaluate(
    data: &LabeledSeries,
    method: &dyn Detector,
    window: usize,
) -> Result<EvalOutcome, String> {
    let truth = ground_truth(data);
    let k = truth.count();
    let start = Instant::now();
    let profile = run(data, method, window, k)?;
    let seconds = start.elapsed().as_secs_f64();
    let accuracy = top_k_accuracy(&profile.scores, profile.window, &truth, k);
    Ok(EvalOutcome {
        dataset: data.name.clone(),
        method: method.name(),
        accuracy,
        seconds,
        k,
        series_len: data.len(),
    })
}

/// Times only the score computation of a method (no accuracy evaluation),
/// returning seconds. Used by the Figure 9 scalability harness.
pub fn time_method(
    data: &LabeledSeries,
    method: &dyn Detector,
    window: usize,
) -> Result<f64, String> {
    let k = data.anomaly_count().max(1);
    let start = Instant::now();
    run(data, method, window, k)?;
    Ok(start.elapsed().as_secs_f64())
}

/// Parses a simple `--flag value` style command line shared by the experiment
/// binaries. Returns the value following `flag`, if any.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Parses the value following `flag`; `None` when the flag is absent.
fn flag_value<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    if !args.iter().any(|a| a == flag) {
        return Ok(None);
    }
    let value = arg_value(args, flag).ok_or_else(|| format!("{flag} needs a value"))?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("invalid value {value:?} for {flag}"))
}

/// Parses the `--scale` argument (default 0.2); it must be a positive number.
pub fn scale_from_args(args: &[String]) -> Result<f64, String> {
    let scale = flag_value::<f64>(args, "--scale")?.unwrap_or(0.2);
    if scale.is_finite() && scale > 0.0 {
        Ok(scale)
    } else {
        Err(format!(
            "invalid value \"{scale}\" for --scale: must be positive"
        ))
    }
}

/// Parses the `--seed` argument (default 1).
pub fn seed_from_args(args: &[String]) -> Result<u64, String> {
    Ok(flag_value(args, "--seed")?.unwrap_or(1))
}

/// Parses the `--methods` argument: comma-separated Table 3 column labels,
/// matched case-insensitively. Defaults to [`ALL`].
pub fn methods_from_args(args: &[String]) -> Result<Vec<&'static dyn Detector>, String> {
    let Some(list) = flag_value::<String>(args, "--methods")? else {
        return Ok(ALL.to_vec());
    };
    list.split(',')
        .map(|label| {
            let label = label.trim();
            ALL.iter()
                .find(|m| m.name().eq_ignore_ascii_case(label))
                .copied()
                .ok_or_else(|| {
                    let known: Vec<&str> = ALL.iter().map(|m| m.name()).collect();
                    format!(
                        "unknown method {label:?} in --methods (expected {})",
                        known.join(", ")
                    )
                })
        })
        .collect()
}

/// Unwraps a parsed argument, or prints the usage error and exits with
/// status 2.
pub fn or_usage_exit<T>(parsed: Result<T, String>) -> T {
    parsed.unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_datasets::srw::{generate_srw, SrwConfig};

    fn dataset() -> LabeledSeries {
        generate_srw(SrwConfig {
            length: 6_000,
            num_anomalies: 4,
            noise_ratio: 0.0,
            anomaly_length: 200,
            seed: 11,
        })
    }

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn names(methods: &[&dyn Detector]) -> Vec<&'static str> {
        methods.iter().map(|m| m.name()).collect()
    }

    #[test]
    fn every_method_produces_a_profile() {
        let data = dataset();
        for m in ALL {
            let profile = run(&data, m, 200, data.anomaly_count())
                .unwrap_or_else(|e| panic!("{} failed: {e}", m.name()));
            assert_eq!(
                profile.scores.len(),
                data.len() - profile.window + 1,
                "{}: wrong profile length",
                m.name()
            );
            assert!(
                profile.scores.iter().all(|s| s.is_finite()),
                "{}: non-finite score",
                m.name()
            );
        }
    }

    #[test]
    fn s2g_uses_fixed_pattern_length() {
        let cfg = s2g_paper_config();
        assert_eq!(cfg.pattern_length, 50);
        assert_eq!(cfg.lambda, 16);
        let short = run(&dataset(), &S2G, 20, 4).unwrap();
        assert_eq!(short.window, 50, "ℓq = max(ℓ_A, 50)");
    }

    #[test]
    fn evaluate_returns_sane_outcome() {
        let data = dataset();
        let outcome = evaluate(&data, &S2G, 200).unwrap();
        assert_eq!(outcome.k, 4);
        assert_eq!(outcome.series_len, 6_000);
        assert!(outcome.seconds > 0.0);
        assert!((0.0..=1.0).contains(&outcome.accuracy));
        assert_eq!(outcome.method, "S2G");
    }

    #[test]
    fn s2g_beats_random_on_clean_srw() {
        let data = dataset();
        let outcome = evaluate(&data, &S2G, 200).unwrap();
        assert!(
            outcome.accuracy >= 0.75,
            "S2G should find most clean SRW anomalies, got {}",
            outcome.accuracy
        );
    }

    #[test]
    fn time_method_returns_positive_duration() {
        let data = dataset();
        let t = time_method(&data, &GrammarViz, 200).unwrap();
        assert!(t > 0.0);
    }

    #[test]
    fn argument_parsing() {
        let args = strs(&[
            "--scale",
            "0.5",
            "--seed",
            "9",
            "--methods",
            "s2g,STOMP,s2g|t|/2",
        ]);
        assert_eq!(scale_from_args(&args), Ok(0.5));
        assert_eq!(seed_from_args(&args), Ok(9));
        assert_eq!(
            names(&methods_from_args(&args).unwrap()),
            ["S2G", "STOMP", "S2G|T|/2"]
        );

        let empty: Vec<String> = vec![];
        assert_eq!(scale_from_args(&empty), Ok(0.2));
        assert_eq!(seed_from_args(&empty), Ok(1));
        assert_eq!(names(&methods_from_args(&empty).unwrap()), names(&ALL));

        // Bad values are usage errors naming the value, never defaults.
        let err = methods_from_args(&strs(&["--methods", "s2g,stomp,bogus"]))
            .map(|m| names(&m))
            .unwrap_err();
        assert!(err.contains("\"bogus\""), "{err}");
        let err = methods_from_args(&strs(&["--methods", "mp"]))
            .map(|m| names(&m))
            .unwrap_err();
        assert!(err.contains("\"mp\""), "{err}");
        let err = scale_from_args(&strs(&["--scale", "abc"])).unwrap_err();
        assert!(err.contains("\"abc\""), "{err}");
        assert!(scale_from_args(&strs(&["--scale", "-1"])).is_err());
        assert!(scale_from_args(&strs(&["--scale"])).is_err());
        let err = seed_from_args(&strs(&["--seed", "x1"])).unwrap_err();
        assert!(err.contains("\"x1\""), "{err}");
    }
}
