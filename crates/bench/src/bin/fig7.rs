//! Figure 7: Series2Graph robustness studies —
//! (a) Top-k accuracy vs KDE bandwidth ratio `h/σ(I_ψ)`,
//! (b) Top-k accuracy vs the fraction of the series used to build the graph,
//! (c) Top-k accuracy vs the query length ℓq,
//! (d) Top-k accuracy and fit wall time vs the number of rays `r`.
//!
//! Usage: `cargo run --release -p s2g-bench --bin fig7 [--scale 0.1] [--seed 1] [--part a|b|c|d|all]`

use std::time::Instant;

use s2g_bench::runner::{arg_value, ground_truth, or_usage_exit, scale_from_args, seed_from_args};
use s2g_core::config::BandwidthRule;
use s2g_core::{S2gConfig, Series2Graph};
use s2g_datasets::catalog::Dataset;
use s2g_datasets::LabeledSeries;
use s2g_eval::table::{fmt_accuracy, Table};
use s2g_eval::topk::top_k_accuracy;

const PATTERN_LENGTH: usize = 80;
const QUERY_LENGTH: usize = 160;

fn datasets(scale: f64, seed: u64) -> Vec<LabeledSeries> {
    Dataset::real_multi_anomaly()
        .into_iter()
        .map(|d| {
            let spec = d.spec();
            let length = ((spec.length as f64) * scale) as usize;
            d.generate_with_length(length.max(8_000), seed)
        })
        .collect()
}

fn accuracy_with_config(data: &LabeledSeries, config: &S2gConfig, query: usize) -> f64 {
    let truth = ground_truth(data);
    Series2Graph::fit(&data.series, config)
        .and_then(|m| m.anomaly_scores(&data.series, query))
        .map(|s| top_k_accuracy(&s, query, &truth, truth.count()))
        .unwrap_or(0.0)
}

fn part_a(data: &[LabeledSeries]) {
    println!("(a) Top-k accuracy vs bandwidth ratio h/σ(I_ψ)   (ℓ = {PATTERN_LENGTH}, ℓq = {QUERY_LENGTH})");
    let ratios = [0.001, 0.01, 0.05, 0.1, 0.3, 0.7, 1.0];
    let mut table = Table::new(
        std::iter::once("dataset".to_string())
            .chain(ratios.iter().map(|r| format!("{r}")))
            .chain(std::iter::once("scott".to_string()))
            .collect(),
    );
    for ds in data {
        let mut row = vec![ds.name.clone()];
        for &ratio in &ratios {
            let config =
                S2gConfig::new(PATTERN_LENGTH).with_bandwidth(BandwidthRule::SigmaRatio(ratio));
            row.push(fmt_accuracy(accuracy_with_config(
                ds,
                &config,
                QUERY_LENGTH,
            )));
        }
        let scott = S2gConfig::new(PATTERN_LENGTH).with_bandwidth(BandwidthRule::Scott);
        row.push(fmt_accuracy(accuracy_with_config(ds, &scott, QUERY_LENGTH)));
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn part_b(data: &[LabeledSeries]) {
    println!("(b) Top-k accuracy vs fraction of the series used to build the graph");
    let fractions = [0.2, 0.4, 0.6, 0.8, 1.0];
    let mut table = Table::new(
        std::iter::once("dataset".to_string())
            .chain(fractions.iter().map(|f| format!("{:.0}%", f * 100.0)))
            .collect(),
    );
    for ds in data {
        let truth = ground_truth(ds);
        let k = truth.count();
        let mut row = vec![ds.name.clone()];
        for &fraction in &fractions {
            let prefix_len = ((ds.len() as f64) * fraction) as usize;
            let prefix = ds.series.prefix(prefix_len);
            let acc = Series2Graph::fit(&prefix, &S2gConfig::new(PATTERN_LENGTH))
                .and_then(|m| m.anomaly_scores(&ds.series, QUERY_LENGTH))
                .map(|s| top_k_accuracy(&s, QUERY_LENGTH, &truth, k))
                .unwrap_or(0.0);
            row.push(fmt_accuracy(acc));
        }
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn part_c(data: &[LabeledSeries]) {
    println!("(c) Top-k accuracy vs query length ℓq   (ℓ = {PATTERN_LENGTH})");
    let query_lengths = [80usize, 100, 120, 160, 200, 240];
    let mut table = Table::new(
        std::iter::once("dataset".to_string())
            .chain(query_lengths.iter().map(|q| q.to_string()))
            .collect(),
    );
    for ds in data {
        let truth = ground_truth(ds);
        let k = truth.count();
        let mut row = vec![ds.name.clone()];
        let model = Series2Graph::fit(&ds.series, &S2gConfig::new(PATTERN_LENGTH)).ok();
        for &query in &query_lengths {
            let acc = model
                .as_ref()
                .and_then(|m| m.anomaly_scores(&ds.series, query).ok())
                .map(|s| top_k_accuracy(&s, query, &truth, k))
                .unwrap_or(0.0);
            row.push(fmt_accuracy(acc));
        }
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn part_d(data: &[LabeledSeries]) {
    println!("(d) Top-k accuracy and median fit time of 3 fits vs ray count r   (ℓ = {PATTERN_LENGTH}, ℓq = {QUERY_LENGTH})");
    let rates = [20usize, 50, 100];
    let mut table = Table::new(
        std::iter::once("dataset".to_string())
            .chain(
                rates
                    .iter()
                    .flat_map(|r| [format!("r={r}"), format!("r={r} fit ms")]),
            )
            .collect(),
    );
    for ds in data {
        let truth = ground_truth(ds);
        let k = truth.count();
        let mut row = vec![ds.name.clone()];
        for &rate in &rates {
            let config = S2gConfig::new(PATTERN_LENGTH).with_rate(rate);
            let mut fit_ms = Vec::with_capacity(3);
            let mut model = None;
            for _ in 0..3 {
                let started = Instant::now();
                model = Series2Graph::fit(&ds.series, &config).ok();
                fit_ms.push(started.elapsed().as_secs_f64() * 1e3);
            }
            fit_ms.sort_by(f64::total_cmp);
            let acc = model
                .and_then(|m| m.anomaly_scores(&ds.series, QUERY_LENGTH).ok())
                .map(|s| top_k_accuracy(&s, QUERY_LENGTH, &truth, k))
                .unwrap_or(0.0);
            row.push(fmt_accuracy(acc));
            row.push(format!("{:.1}", fit_ms[1]));
        }
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage_exit(scale_from_args(&args)).min(0.5);
    let seed = or_usage_exit(seed_from_args(&args));
    let part = arg_value(&args, "--part").unwrap_or_else(|| "all".to_string());

    println!("Figure 7 — Series2Graph robustness on MBA + SED (scale {scale})\n");
    let data = datasets(scale, seed);
    if part == "a" || part == "all" {
        part_a(&data);
    }
    if part == "b" || part == "all" {
        part_b(&data);
    }
    if part == "c" || part == "all" {
        part_c(&data);
    }
    if part == "d" || part == "all" {
        part_d(&data);
    }
    println!(
        "Paper's claims: (a) very small or very large bandwidths hurt the hard datasets while the\n\
         Scott ratio works everywhere; (b) ~40% of the series already gives most of the accuracy,\n\
         with the subtle-anomaly records (806, 820) converging slowest; (c) accuracy is stable for\n\
         any ℓq at or above the anomaly length. Part (d) is not from the paper: it times the fit\n\
         against r next to the accuracy r buys."
    );
}
