//! Figure 9: scalability — execution time of every method as a function of
//! (a–c) the series length, (d, e) the number of anomalies, and (f) the
//! anomaly length.
//!
//! Usage:
//! `cargo run --release -p s2g-bench --bin fig9 [--part size|anomalies|length|all]
//!                                              [--scale 0.2] [--seed 1] [--fast]`
//!
//! `--fast` restricts the run to the sub-quadratic methods plus STOMP (LOF and
//! DAD are the slowest methods in the paper as well); the default runs all.

use s2g_bench::runner::{
    arg_value, or_usage_exit, scale_from_args, seed_from_args, time_method, ALL, FAST, S2G_HALF,
};
use s2g_datasets::catalog::Dataset;
use s2g_datasets::keogh::DiscordDataset;
use s2g_datasets::mba::MbaRecord;
use s2g_eval::detector::Detector;
use s2g_eval::table::{fmt_seconds, Table};

fn methods(args: &[String]) -> Vec<&'static dyn Detector> {
    if args.iter().any(|a| a == "--fast") {
        FAST.to_vec()
    } else {
        ALL.into_iter()
            .filter(|m| m.name() != S2G_HALF.name())
            .collect()
    }
}

fn header(methods: &[&dyn Detector], first: &str) -> Vec<String> {
    std::iter::once(first.to_string())
        .chain(methods.iter().map(|m| m.name().to_string()))
        .collect()
}

fn part_size(args: &[String], scale: f64, seed: u64) {
    println!("(a–c) Execution time vs series length");
    let sizes: Vec<usize> = [50_000usize, 100_000, 200_000]
        .iter()
        .map(|s| ((*s as f64) * scale) as usize)
        .collect();
    let methods = methods(args);
    for (label, dataset, window) in [
        ("MBA(14046)-like", Dataset::Mba(MbaRecord::R14046), 75usize),
        (
            "Concatenated Marotta-like",
            Dataset::Discord(DiscordDataset::MarottaValve),
            1_000,
        ),
        ("Concatenated SED-like", Dataset::Sed, 75),
    ] {
        println!("\n  {label}:");
        let mut table = Table::new(header(&methods, "points"));
        for &size in &sizes {
            let data = dataset.generate_with_length(size, seed);
            let mut row = vec![size.to_string()];
            for method in &methods {
                match time_method(&data, *method, window) {
                    Ok(t) => row.push(fmt_seconds(t)),
                    Err(_) => row.push("-".to_string()),
                }
            }
            table.push_row(row);
        }
        println!("{}", table.to_fixed_width());
    }
}

fn part_anomalies(args: &[String], scale: f64, seed: u64) {
    println!("(d, e) Execution time vs number of anomalies");
    let methods = methods(args);
    let length = ((100_000.0 * scale) as usize).max(10_000);
    let mut table = Table::new(header(&methods, "#anomalies"));
    for n_anomalies in [20usize, 40, 60, 80, 100] {
        let scaled = ((n_anomalies as f64) * scale).ceil() as usize;
        let data = Dataset::Srw {
            num_anomalies: scaled.max(2),
            noise_ratio: 0.0,
            anomaly_length: 200,
        }
        .generate_with_length(length, seed);
        let mut row = vec![n_anomalies.to_string()];
        for method in &methods {
            match time_method(&data, *method, 200) {
                Ok(t) => row.push(fmt_seconds(t)),
                Err(_) => row.push("-".to_string()),
            }
        }
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn part_length(args: &[String], scale: f64, seed: u64) {
    println!("(f) Execution time vs anomaly length");
    let methods = methods(args);
    let length = ((100_000.0 * scale) as usize).max(10_000);
    let mut table = Table::new(header(&methods, "anomaly length"));
    for anomaly_length in [100usize, 200, 400, 800, 1_600] {
        let data = Dataset::Srw {
            num_anomalies: (60.0 * scale).ceil() as usize,
            noise_ratio: 0.0,
            anomaly_length,
        }
        .generate_with_length(length.max(anomaly_length * 8), seed);
        let mut row = vec![anomaly_length.to_string()];
        for method in &methods {
            match time_method(&data, *method, anomaly_length) {
                Ok(t) => row.push(fmt_seconds(t)),
                Err(_) => row.push("-".to_string()),
            }
        }
        table.push_row(row);
    }
    println!("{}", table.to_fixed_width());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage_exit(scale_from_args(&args));
    let seed = or_usage_exit(seed_from_args(&args));
    let part = arg_value(&args, "--part").unwrap_or_else(|| "all".to_string());

    println!("Figure 9 — scalability (scale {scale})\n");
    if part == "size" || part == "all" {
        part_size(&args, scale, seed);
    }
    if part == "anomalies" || part == "all" {
        part_anomalies(&args, scale, seed);
    }
    if part == "length" || part == "all" {
        part_length(&args, scale, seed);
    }
    println!(
        "\nPaper's claims: Series2Graph scales gracefully with the series length and is unaffected\n\
         by the number of anomalies; STOMP is unaffected by the anomaly length but quadratic in the\n\
         series length; GrammarViz, LOF and DAD degrade with more/longer anomalies."
    );
}
