//! Per-layer timings of layers without an endpoint of their own: calls into
//! their public functions on the run's own inputs, outside the timed window.

use std::collections::BTreeMap;
use std::time::Instant;

use s2g_core::edges::EdgeExtraction;
use s2g_core::embedding::Embedding;
use s2g_core::nodes::NodeSet;
use s2g_core::{scoring, Series2Graph, StreamingScorer};
use s2g_engine::codec;
use s2g_server::Json;
use s2g_timeseries::TimeSeries;

use crate::harness::{median, ms, SpanLog};

/// Per-layer values by metric name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Time of each stage of `Series2Graph::anomaly_scores`, replayed stage by
/// stage through the same public functions, summed over `(model, series)`
/// jobs. Returns the kernel milliseconds of each job too, and checks the
/// replay reproduces `anomaly_scores` bit for bit.
pub fn score_kernel(
    jobs: &[(&Series2Graph, &[f64])],
    query_length: usize,
    layers: &mut Layers,
    log: &SpanLog,
) -> Result<Vec<f64>, String> {
    let (mut project, mut assign, mut lookup, mut profile) = (0.0, 0.0, 0.0, 0.0);
    let mut points = 0usize;
    let mut per_series = Vec::with_capacity(jobs.len());
    for &(model, values) in jobs {
        let ts = TimeSeries::from(values);
        let root = log.root("replay.score");
        let t0 = Instant::now();
        let s = root.ctx().child("core.project");
        let embedded = model.embedding().project(&ts).map_err(|e| e.to_string())?;
        drop(s);
        let t1 = Instant::now();
        let s = root.ctx().child("core.assign");
        let transitions = EdgeExtraction::map_transitions(&embedded, model.node_set());
        drop(s);
        let t2 = Instant::now();
        let s = root.ctx().child("core.lookup");
        let contributions = scoring::gap_contributions(model.graph(), &transitions);
        drop(s);
        let t3 = Instant::now();
        let s = root.ctx().child("core.profile");
        let l = model.pattern_length();
        let mut normality = scoring::normality_profile(&contributions, l, query_length);
        if model.config().smooth_scores {
            normality = scoring::smooth_profile(&normality, l);
        }
        let scores = scoring::anomaly_profile(&normality);
        drop(s);
        let t4 = Instant::now();
        drop(root);
        let reference = model
            .anomaly_scores(&ts, query_length)
            .map_err(|e| e.to_string())?;
        if !crate::same_bits(&scores, &reference) {
            return Err("stage-by-stage replay differs from anomaly_scores".into());
        }
        project += (t1 - t0).as_secs_f64();
        assign += (t2 - t1).as_secs_f64();
        lookup += (t3 - t2).as_secs_f64();
        profile += (t4 - t3).as_secs_f64();
        points += values.len();
        per_series.push(ms(t4 - t0));
    }
    let per_point = |s: f64| s * 1e9 / points.max(1) as f64;
    layers.insert("core.project_ns_per_point", per_point(project));
    layers.insert("core.assign_ns_per_point", per_point(assign));
    layers.insert("core.lookup_ns_per_point", per_point(lookup));
    layers.insert("core.profile_ns_per_point", per_point(profile));
    Ok(per_series)
}

/// `StreamingScorer::push_batch` per point at `query_length`, fed in
/// `chunk`-point batches. Returns the emitted normality values.
pub fn stream_kernel(
    model: &Series2Graph,
    streams: &[Vec<f64>],
    query_length: usize,
    chunk: usize,
    layers: &mut Layers,
    log: &SpanLog,
) -> Result<Vec<f64>, String> {
    let mut total = 0.0;
    let mut points = 0usize;
    let mut emitted = Vec::new();
    for stream in streams {
        let mut scorer =
            StreamingScorer::new(model.clone(), query_length).map_err(|e| e.to_string())?;
        for batch in stream.chunks(chunk) {
            let s = log.root("core.stream");
            let started = Instant::now();
            let out = scorer.push_batch(batch).map_err(|e| e.to_string())?;
            total += started.elapsed().as_secs_f64();
            drop(s);
            points += batch.len();
            emitted.extend(out.into_iter().map(|(_, v)| v));
        }
    }
    layers.insert(
        "core.stream_ns_per_point",
        total * 1e9 / points.max(1) as f64,
    );
    Ok(emitted)
}

/// The three fit stages on a training series, each the median of `reps`.
pub fn fit_stages(
    model: &Series2Graph,
    train: &[f64],
    reps: usize,
    layers: &mut Layers,
    log: &SpanLog,
) -> Result<(), String> {
    let config = model.config();
    let ts = TimeSeries::from(train);
    let (mut embed, mut nodes, mut edges) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..reps {
        let root = log.root("replay.fit");
        let t0 = Instant::now();
        let s = root.ctx().child("core.fit_embedding");
        let embedding = Embedding::fit(&ts, config).map_err(|e| e.to_string())?;
        drop(s);
        let t1 = Instant::now();
        let s = root.ctx().child("core.fit_nodes");
        let node_set = NodeSet::extract(&embedding.points, config).map_err(|e| e.to_string())?;
        drop(s);
        let t2 = Instant::now();
        let s = root.ctx().child("core.fit_edges");
        let extraction =
            EdgeExtraction::extract(&embedding.points, &node_set).map_err(|e| e.to_string())?;
        drop(s);
        let t3 = Instant::now();
        if extraction.graph.node_count() != model.node_count() {
            return Err("replayed fit disagrees with the fitted model".into());
        }
        embed.push(ms(t1 - t0));
        nodes.push(ms(t2 - t1));
        edges.push(ms(t3 - t2));
    }
    layers.insert("core.fit_embedding_ms", median(&embed));
    layers.insert("core.fit_nodes_ms", median(&nodes));
    layers.insert("core.fit_edges_ms", median(&edges));
    Ok(())
}

/// Model codec encode and decode, each the median of `reps`.
pub fn codec_roundtrip(
    model: &Series2Graph,
    reps: usize,
    layers: &mut Layers,
    log: &SpanLog,
) -> Result<(), String> {
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let s = log.root("codec.encode");
        let started = Instant::now();
        let bytes = codec::encode_model(model);
        enc.push(ms(started.elapsed()));
        drop(s);
        let s = log.root("codec.decode");
        let started = Instant::now();
        let decoded = codec::decode_model(&bytes).map_err(|e| e.to_string())?;
        dec.push(ms(started.elapsed()));
        drop(s);
        if codec::model_checksum(&decoded) != codec::model_checksum(model) {
            return Err("codec round trip changed the model".into());
        }
    }
    layers.insert("codec.encode_ms", median(&enc));
    layers.insert("codec.decode_ms", median(&dec));
    Ok(())
}

/// `Json::encode` and `Json::parse` of score response lines, per score.
pub fn json_lines(profiles: &[&[f64]], layers: &mut Layers, log: &SpanLog) -> Result<(), String> {
    let (mut enc, mut dec) = (0.0, 0.0);
    let mut scores = 0usize;
    for (index, profile) in profiles.iter().enumerate() {
        let value = Json::obj([
            ("index", Json::from(index)),
            ("scores", Json::arr(profile.iter().copied())),
        ]);
        let s = log.root("json.encode");
        let started = Instant::now();
        let line = value.encode();
        enc += started.elapsed().as_secs_f64();
        drop(s);
        let s = log.root("json.parse");
        let started = Instant::now();
        let parsed = Json::parse(&line).map_err(|e| e.to_string())?;
        dec += started.elapsed().as_secs_f64();
        drop(s);
        let back = parsed
            .get("scores")
            .and_then(Json::as_f64_array)
            .unwrap_or_default();
        if !crate::same_bits(&back, profile) {
            return Err("JSON round trip changed a score".into());
        }
        scores += profile.len();
    }
    layers.insert("json.encode_ns_per_score", enc * 1e9 / scores.max(1) as f64);
    layers.insert("json.parse_ns_per_score", dec * 1e9 / scores.max(1) as f64);
    Ok(())
}

/// `parse_series` on request bodies, per point.
pub fn parse_bodies(bodies: &[String], layers: &mut Layers, log: &SpanLog) -> Result<(), String> {
    let mut total = 0.0;
    let mut points = 0usize;
    for body in bodies {
        let s = log.root("io.parse_series");
        let started = Instant::now();
        let series = s2g_timeseries::io::parse_series(body).map_err(|e| e.to_string())?;
        total += started.elapsed().as_secs_f64();
        drop(s);
        points += series.len();
    }
    layers.insert("io.parse_ns_per_point", total * 1e9 / points.max(1) as f64);
    Ok(())
}
