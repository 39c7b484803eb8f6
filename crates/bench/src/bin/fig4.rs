//! Figure 4: sensitivity of STOMP (nearest-neighbour distances) to the
//! subsequence-length parameter on an MBA(803)-like ECG.
//!
//! The paper shows that with length 80 (= the anomaly length) the highest
//! nearest-neighbour distance falls on the annotated anomaly, while with
//! length 90 it falls on a normal heartbeat (a false positive). This harness
//! recomputes both profiles and reports where the top discord lands.
//!
//! Usage: `cargo run --release -p s2g-bench --bin fig4 [--scale 0.2] [--seed 1]`

use s2g_baselines::matrix_profile::stomp;
use s2g_bench::runner::{ground_truth, or_usage_exit, scale_from_args, seed_from_args};
use s2g_datasets::mba::{generate_mba_with_length, MbaRecord};
use s2g_eval::table::Table;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let scale = or_usage_exit(scale_from_args(&args));
    let seed = or_usage_exit(seed_from_args(&args));
    let length = ((100_000.0 * scale) as usize).max(5_000);

    println!("Figure 4 — STOMP length sensitivity on MBA(803)-like ECG ({length} points)\n");
    let data = generate_mba_with_length(MbaRecord::R803, length, seed);
    let truth = ground_truth(&data);

    let mut table = Table::new(vec![
        "length",
        "top discord at",
        "hits annotated anomaly",
        "max NN distance",
    ]);
    for window in [80usize, 90] {
        let mp = stomp(&data.series, window).expect("stomp failed");
        let top = mp.top_k_discords(1)[0];
        let hit = truth.window_overlaps_anomaly(top, window);
        let max_d = mp.profile.iter().cloned().fold(0.0, f64::max);
        table.push_row(vec![
            window.to_string(),
            top.to_string(),
            if hit {
                "yes".to_string()
            } else {
                "NO (false positive)".to_string()
            },
            format!("{max_d:.3}"),
        ]);
    }
    println!("{}", table.to_fixed_width());
    println!(
        "Annotated anomalies: {} ranges, first at {:?}",
        truth.count(),
        truth.ranges().first()
    );
    println!(
        "\nPaper's claim: a small change of the length parameter (80 -> 90) can move the top\n\
         discord from a true anomaly to a normal heartbeat. Compare the two rows above."
    );
}
