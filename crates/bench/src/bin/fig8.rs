//! Figure 8 / Section 5.5: discord identification on the classical
//! single-anomaly datasets (Marotta Valve, Ann Gun, Patient respiration,
//! BIDMC CHF). The paper shows the graphs and observes that the discord
//! always follows low-weight edges, so its anomaly score is the largest.
//! This harness verifies that claim: for every dataset the top-1 Series2Graph
//! detection must coincide with the annotated discord, and the discord's
//! normality must sit far below the normal cycles' normality.
//!
//! It also writes the GraphViz rendering of each graph to `target/figures/`
//! so the visual counterpart of the figure can be inspected.
//!
//! Usage: `cargo run --release -p s2g-bench --bin fig8 [--seed 1]`

use s2g_bench::runner::{ground_truth, or_usage_exit, seed_from_args};
use s2g_core::{S2gConfig, Series2Graph};
use s2g_datasets::keogh::{generate_discord_dataset, DiscordDataset};
use s2g_eval::table::Table;
use s2g_graph::dot::{to_dot, DotOptions};

/// Input length ℓ used per dataset, following the figure captions of the
/// paper (G80 for BIDMC, G200 for Marotta, G50 for respiration, G150 for Ann Gun).
fn pattern_length(dataset: DiscordDataset) -> usize {
    match dataset {
        DiscordDataset::BidmcChf => 80,
        DiscordDataset::MarottaValve => 200,
        DiscordDataset::PatientRespiration => 50,
        DiscordDataset::AnnGun => 150,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = or_usage_exit(seed_from_args(&args));

    println!("Figure 8 — discord identification on the single-anomaly datasets\n");
    let mut table = Table::new(vec![
        "dataset",
        "ℓ",
        "top-1 detection at",
        "annotated discord at",
        "hit",
        "discord normality",
        "median normality",
    ]);

    let out_dir = std::path::Path::new("target/figures");
    std::fs::create_dir_all(out_dir).ok();

    for dataset in DiscordDataset::ALL {
        let data = generate_discord_dataset(dataset, seed);
        let truth = ground_truth(&data);
        let ell = pattern_length(dataset);
        let query = data.anomalies[0].length.max(ell);

        let model = Series2Graph::fit(&data.series, &S2gConfig::new(ell)).expect("fit failed");
        let normality = model
            .normality_scores(&data.series, query)
            .expect("scoring failed");
        let anomaly_scores = model.anomaly_scores(&data.series, query).unwrap();
        let top = model.top_k_anomalies(&anomaly_scores, 1, query)[0];
        let hit = truth.window_overlaps_anomaly(top, query);

        let discord_start = data.anomalies[0].start;
        let discord_normality = normality[discord_start.min(normality.len() - 1)];
        let mut sorted = normality.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let median = sorted[sorted.len() / 2];

        table.push_row(vec![
            data.name.clone(),
            ell.to_string(),
            top.to_string(),
            discord_start.to_string(),
            if hit {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
            format!("{discord_normality:.1}"),
            format!("{median:.1}"),
        ]);

        // Dump the graph for visual inspection (thick edges = heavy/normal).
        let dot = to_dot(
            model.graph(),
            &DotOptions {
                name: data.name.clone(),
                highlight_weight: model.graph().max_edge_weight() * 0.25,
                min_weight: 0.0,
            },
        );
        let path = out_dir.join(format!("fig8_{}.dot", data.name.replace(' ', "_")));
        std::fs::write(&path, dot).ok();
    }

    println!("{}", table.to_fixed_width());
    println!("Graph renderings written to target/figures/fig8_*.dot (render with `dot -Tpng`).");
    println!(
        "\nPaper's claim: in all four datasets the discord's trajectory uses low-weight edges, so\n\
         its normality is far below the median and it is the top-1 detection."
    );
}
