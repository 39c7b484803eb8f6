//! Serving a fleet of series with the detection engine: fit several models in
//! parallel, persist and reload one across a simulated process boundary,
//! fan batched scoring across the worker pool, and run pinned streaming
//! sessions — the multi-tenant workload the `s2g-engine` crate exists for.
//!
//! Run with: `cargo run --release --example engine_fleet`

use series2graph::datasets::sed::generate_sed_with_length;
use series2graph::datasets::srw::{generate_srw, SrwConfig};
use series2graph::prelude::*;

fn main() {
    let engine = Engine::new(
        EngineConfig::default()
            .with_workers(4)
            .with_registry_capacity(8),
    );
    println!(
        "engine up: {} workers, registry capacity 8\n",
        engine.workers()
    );

    // 1. Fit one model per tenant, in parallel across the pool. Each tenant
    //    here is a different synthetic data source from the paper's corpus.
    let sed = generate_sed_with_length(20_000, 2);
    let srw = generate_srw(SrwConfig::default());
    let sine = TimeSeries::from(
        (0..15_000)
            .map(|i| (std::f64::consts::TAU * i as f64 / 120.0).sin())
            .collect::<Vec<f64>>(),
    );
    let jobs = vec![
        (
            "sed".to_string(),
            sed.series.clone(),
            S2gConfig::new(50).with_lambda(16),
        ),
        ("srw".to_string(), srw.series.clone(), S2gConfig::new(50)),
        ("sine".to_string(), sine.clone(), S2gConfig::new(60)),
    ];
    for (name, result) in ["sed", "srw", "sine"].iter().zip(engine.fit_many(jobs)) {
        let model = result.expect("parallel fit failed");
        println!(
            "fitted {name:>4}: {} nodes, {} edges, {:.1}% variance explained",
            model.node_count(),
            model.graph().edge_count(),
            100.0 * model.explained_variance_ratio()
        );
    }

    // 2. Persist one model and load it back under a new name — the loaded
    //    copy scores bit-identically, which is what makes "train once, score
    //    everywhere" safe.
    let model_path = std::env::temp_dir().join("engine_fleet_sed.s2g");
    engine.save_model("sed", &model_path).expect("save failed");
    engine
        .load_model("sed-restored", &model_path)
        .expect("load failed");
    let probe = sed.series.prefix(5_000);
    let a = engine
        .score_many("sed", vec![probe.clone()], 150, None)
        .unwrap()
        .remove(0)
        .unwrap();
    let b = engine
        .score_many("sed-restored", vec![probe], 150, None)
        .unwrap()
        .remove(0)
        .unwrap();
    assert_eq!(a, b, "restored model must score identically");
    println!(
        "\npersisted sed model round-trips exactly ({} bytes at {})",
        std::fs::metadata(&model_path).map(|m| m.len()).unwrap_or(0),
        model_path.display()
    );

    // 3. Batched scoring: eight shifted replicas of the sine tenant's signal,
    //    fanned across the pool; results come back in submission order.
    let fleet: Vec<TimeSeries> = (0..8)
        .map(|k| {
            TimeSeries::from(
                (0..6_000)
                    .map(|i| {
                        let t = (i + 37 * k) as f64;
                        (std::f64::consts::TAU * t / 120.0).sin()
                            + if i / 1_000 == k { 0.6 } else { 0.0 } // per-series level shift
                    })
                    .collect::<Vec<f64>>(),
            )
        })
        .collect();
    let profiles = engine
        .score_many("sine", fleet, 180, None)
        .expect("batch scoring failed");
    for (k, profile) in profiles.into_iter().enumerate() {
        let profile = profile.expect("scoring a fleet member failed");
        let top = profile
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, s)| (i, *s))
            .unwrap();
        println!(
            "fleet[{k}]: top anomaly window starts at {:>5} (score {:.3})",
            top.0, top.1
        );
    }

    // 4. Streaming: two sensors share the sine model; each session is pinned
    //    to one pool shard and consumes its points incrementally.
    engine.open_stream("sensor-a", "sine", 180).unwrap();
    engine.open_stream("sensor-b", "sine", 180).unwrap();
    let live: Vec<f64> = (0..2_000)
        .map(|i| (std::f64::consts::TAU * i as f64 / 120.0).sin())
        .collect();
    let mut emitted_a = Vec::new();
    for chunk in live.chunks(256) {
        emitted_a.extend(engine.push_stream("sensor-a", chunk, None).unwrap().0);
    }
    let (emitted_b, _) = engine.push_stream("sensor-b", &live, None).unwrap();
    assert_eq!(
        emitted_a, emitted_b,
        "chunking must not change streamed scores"
    );
    println!(
        "\nstreaming: {} windows per sensor, chunked and unchunked sessions agree",
        emitted_a.len()
    );
    engine.close_stream("sensor-a").unwrap();
    engine.close_stream("sensor-b").unwrap();

    std::fs::remove_file(&model_path).ok();
    println!("\nregistry now holds: {:?}", engine.registry().names());
}
