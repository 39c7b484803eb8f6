//! Runs the complete experiment suite (Figures 4–9 and Table 3) at a reduced
//! scale, as a one-shot smoke test of the whole reproduction.
//!
//! Usage: `cargo run --release -p s2g-bench --bin all_experiments [--scale 0.1] [--seed 1]`
//!
//! Each experiment is the same code path as its dedicated binary; this runner
//! simply spawns them in sequence with a shared scale/seed so the output can
//! be captured into one log (see EXPERIMENTS.md).

use std::process::Command;

use s2g_bench::runner::{or_usage_exit, scale_from_args, seed_from_args};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale = if args.iter().any(|a| a == "--scale") {
        or_usage_exit(scale_from_args(&args))
    } else {
        0.1
    };
    let seed = or_usage_exit(seed_from_args(&args));

    let binaries = ["fig4", "fig5", "fig6", "fig7", "fig8", "table3", "fig9"];
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(|d| d.to_path_buf()))
        .expect("cannot locate the target directory");

    for binary in binaries {
        println!("\n============================================================");
        println!("=== {binary}");
        println!("============================================================\n");
        let path = exe_dir.join(binary);
        let status = Command::new(&path)
            .args(["--scale", &scale.to_string(), "--seed", &seed.to_string()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => eprintln!("{binary} exited with {s}"),
            Err(e) => eprintln!("failed to launch {binary} ({path:?}): {e}"),
        }
    }
}
