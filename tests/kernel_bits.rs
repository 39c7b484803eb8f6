//! The scoring kernel's fast paths must reproduce the straightforward
//! arithmetic bit for bit. This file keeps that arithmetic as reference code:
//!
//! * projection: `Pca::transform_row` (one allocation per row) followed by a
//!   full `Rotation3::apply`;
//! * node assignment: the outward angular search from the closest ray,
//!   computing each ray's unit vector per call;
//! * streaming: `Embedding::project_slice` on every newest window and an
//!   in-order re-sum of the contribution deque on every push;
//! * the graph: outgoing and incoming `BTreeMap` adjacencies accumulated one
//!   transition at a time, reweighted with the map arithmetic, and read as
//!   `w · (deg − 1).max(0)` from the map lengths.
//!
//! Inputs stay small: this runs under the debug profile.

use std::collections::{BTreeMap, VecDeque};
use std::f64::consts::TAU;

use s2g_adapt::{AdaptConfig, AdaptiveScorer};
use s2g_core::edges::EdgeExtraction;
use s2g_core::nodes::NodeSet;
use s2g_core::{scoring, S2gConfig, Series2Graph, StreamingScorer};
use s2g_engine::codec;
use s2g_linalg::vector::{Vec2, Vec3};
use s2g_timeseries::{stats, TimeSeries};

/// A periodic signal with a slow drift, a little deterministic noise and a
/// burst of a faster shape at `burst`.
fn signal(n: usize, period: f64, burst: usize) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = i as f64;
            let base = if (burst..burst + 90).contains(&i) {
                0.8 * (TAU * t / (period / 3.0)).sin()
            } else {
                (TAU * t / period).sin()
            };
            base + 0.05 * (t * 0.013).cos() + 0.01 * (t * 12.9898).sin()
        })
        .collect()
}

fn fit(ell: usize) -> Series2Graph {
    let train = TimeSeries::from(signal(1_500, 75.0, 900));
    Series2Graph::fit(&train, &S2gConfig::new(ell)).unwrap()
}

/// Reference projection: `transform_row` + `Rotation3::apply` per window.
fn naive_project(model: &Series2Graph, values: &[f64]) -> Vec<Vec2> {
    let embedding = model.embedding();
    let (ell, lambda) = (embedding.pattern_length, embedding.lambda);
    let dim = ell - lambda;
    let conv = stats::rolling_sum(values, lambda);
    (0..values.len() - ell + 1)
        .map(|i| {
            let reduced = embedding.pca().transform_row(&conv[i..i + dim]).unwrap();
            let rotated = embedding.rotation().apply(Vec3::from_slice(&reduced));
            Vec2::new(rotated.y, rotated.z)
        })
        .collect()
}

/// Reference assignment: search outward from the angularly closest ray
/// until one has nodes, computing that ray's unit vector on the spot.
fn naive_assign(nodes: &NodeSet, point: Vec2) -> Option<usize> {
    if nodes.node_count() == 0 {
        return None;
    }
    let rate = nodes.rate();
    let step = TAU / rate as f64;
    let base = ((point.angle() / step).round() as usize) % rate;
    for offset in 0..=rate / 2 {
        for ray in [(base + offset) % rate, (base + rate - offset % rate) % rate] {
            if nodes.ray_nodes(ray).is_empty() {
                continue;
            }
            let radius = point.dot(&Vec2::from_angle(ray as f64 * step));
            return nodes.nearest_node(ray, radius);
        }
    }
    None
}

/// Reference transition graph: outgoing and incoming adjacency maps.
struct MapGraph {
    out_edges: Vec<BTreeMap<usize, f64>>,
    in_edges: Vec<BTreeMap<usize, f64>>,
}

impl MapGraph {
    /// Accumulates the model's training trajectory one transition at a
    /// time, assigning each point with the reference assignment.
    fn of_training(model: &Series2Graph) -> Self {
        let n = model.node_count();
        let mut graph = MapGraph {
            out_edges: vec![BTreeMap::new(); n],
            in_edges: vec![BTreeMap::new(); n],
        };
        let nodes: Vec<usize> = model
            .embedding()
            .points
            .iter()
            .filter_map(|&p| naive_assign(model.node_set(), p))
            .collect();
        for w in nodes.windows(2) {
            graph.add(w[0], w[1], 1.0);
        }
        graph
    }

    fn add(&mut self, from: usize, to: usize, weight: f64) {
        *self.out_edges[from].entry(to).or_insert(0.0) += weight;
        *self.in_edges[to].entry(from).or_insert(0.0) += weight;
    }

    fn edge_count(&self) -> usize {
        self.out_edges.iter().map(BTreeMap::len).sum()
    }

    fn contribution(&self, from: usize, to: usize) -> f64 {
        let degree = self.out_edges[from].len() + self.in_edges[from].len();
        let weight = self.out_edges[from].get(&to).copied().unwrap_or(0.0);
        weight * (degree as f64 - 1.0).max(0.0)
    }

    /// Decays every out-edge of `from` by `1 − λ` and adds the freed mass
    /// to `from -> to`, mirrored into the incoming maps.
    fn reweight(&mut self, from: usize, to: usize, lambda: f64) {
        let strength: f64 = self.out_edges[from].values().sum();
        if strength <= 0.0 {
            return;
        }
        let (retain, reinforcement) = (1.0 - lambda, lambda * strength);
        let targets: Vec<usize> = self.out_edges[from].keys().copied().collect();
        for target in targets {
            *self.out_edges[from].get_mut(&target).unwrap() *= retain;
            *self.in_edges[target].get_mut(&from).unwrap() *= retain;
        }
        self.add(from, to, reinforcement);
    }
}

/// Reference `anomaly_scores` of an unseen series, built from the naive
/// projection, assignment and graph.
fn naive_anomaly_scores(model: &Series2Graph, values: &[f64], query_length: usize) -> Vec<f64> {
    let ell = model.pattern_length();
    let nodes: Vec<usize> = naive_project(model, values)
        .into_iter()
        .filter_map(|p| naive_assign(model.node_set(), p))
        .collect();
    let graph = MapGraph::of_training(model);
    let contributions: Vec<f64> = nodes
        .windows(2)
        .map(|w| graph.contribution(w[0], w[1]))
        .collect();
    let mut profile = scoring::normality_profile(&contributions, ell, query_length);
    if model.config().smooth_scores {
        profile = scoring::smooth_profile(&profile, ell);
    }
    scoring::anomaly_profile(&profile)
}

/// Reference streaming scorer: projects each newest window with
/// `project_slice` and re-sums the whole contribution deque in order.
struct NaiveStream {
    model: Series2Graph,
    graph: MapGraph,
    query_length: usize,
    values: Vec<f64>,
    contributions: VecDeque<f64>,
    last_node: Option<usize>,
    last_transition: Option<(usize, usize)>,
}

impl NaiveStream {
    fn new(model: Series2Graph, query_length: usize) -> Self {
        Self {
            graph: MapGraph::of_training(&model),
            model,
            query_length,
            values: Vec::new(),
            contributions: VecDeque::new(),
            last_node: None,
            last_transition: None,
        }
    }

    fn push(&mut self, value: f64) -> Option<(usize, f64)> {
        let ell = self.model.pattern_length();
        let gaps = self.query_length.saturating_sub(ell).max(1);
        self.values.push(value);
        let n = self.values.len();
        if n >= ell {
            let window = &self.values[n - ell..];
            let point = *self
                .model
                .embedding()
                .project_slice(window)
                .unwrap()
                .last()
                .unwrap();
            let node = naive_assign(self.model.node_set(), point);
            if n > ell {
                let contribution = match (self.last_node, node) {
                    (Some(prev), Some(current)) => {
                        self.last_transition = Some((prev, current));
                        self.graph.contribution(prev, current)
                    }
                    _ => {
                        self.last_transition = None;
                        0.0
                    }
                };
                self.contributions.push_back(contribution);
                if self.contributions.len() > gaps {
                    self.contributions.pop_front();
                }
            }
            if node.is_some() {
                self.last_node = node;
            }
        }
        if n < self.query_length {
            return None;
        }
        let start = n - self.query_length;
        let total: f64 = self.contributions.iter().sum();
        if self.contributions.len() < gaps {
            if self.contributions.is_empty() {
                return Some((start, 0.0));
            }
            let effective = (self.contributions.len() + ell).min(self.query_length);
            return Some((start, total / effective as f64));
        }
        Some((start, total / self.query_length as f64))
    }
}

/// Deterministic xorshift, for push-chunk sizes.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn assert_points_eq(fast: &[Vec2], naive: &[Vec2], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        assert_eq!(
            (a.x.to_bits(), a.y.to_bits()),
            (b.x.to_bits(), b.y.to_bits()),
            "{what}: point {i}"
        );
    }
}

fn assert_bits_eq(fast: &[f64], naive: &[f64], what: &str) {
    assert_eq!(fast.len(), naive.len(), "{what}: length");
    for (i, (a, b)) in fast.iter().zip(naive).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: value {i}");
    }
}

/// Streams `values` through both scorers in random chunks; when `lambda`
/// is set, both reweight the transition completed by the last push of
/// every chunk, so adapted (non-integer) contributions enter the window.
/// Returns how many of those reweights inserted a new edge.
fn assert_stream_eq(
    model: &Series2Graph,
    values: &[f64],
    query_length: usize,
    lambda: f64,
) -> usize {
    let what = format!(
        "stream ℓ={} ℓq={query_length} λ={lambda}",
        model.pattern_length()
    );
    let mut fast = StreamingScorer::new(model.clone(), query_length).unwrap();
    let mut naive = NaiveStream::new(model.clone(), query_length);
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15 ^ query_length as u64);
    let mut rest = values;
    let mut emitted = 0;
    let mut inserted = 0;
    while !rest.is_empty() {
        let take = (1 + rng.below(97)).min(rest.len());
        let (chunk, tail) = rest.split_at(take);
        rest = tail;
        let got = fast.push_batch(chunk).unwrap();
        let want: Vec<(usize, f64)> = chunk.iter().filter_map(|&v| naive.push(v)).collect();
        assert_eq!(got.len(), want.len(), "{what}: emitted count");
        for ((gs, gv), (ws, wv)) in got.iter().zip(&want) {
            assert_eq!(
                (gs, gv.to_bits()),
                (ws, wv.to_bits()),
                "{what}: window {gs}"
            );
        }
        emitted += got.len();
        assert_eq!(fast.last_transition(), naive.last_transition, "{what}");
        if lambda > 0.0 {
            let edges = fast.model().graph().edge_count();
            fast.reweight_last_transition(lambda).unwrap();
            if let Some((from, to)) = naive.last_transition {
                naive.graph.reweight(from, to, lambda);
            }
            let grown = fast.model().graph().edge_count();
            assert_eq!(grown, naive.graph.edge_count(), "{what}: edge count");
            inserted += grown - edges;
        }
    }
    assert_eq!(emitted, values.len() + 1 - query_length, "{what}");
    inserted
}

#[test]
fn fit_projection_and_assignment_match_the_reference() {
    for ell in [40, 50] {
        let model = fit(ell);
        let train = signal(1_500, 75.0, 900);
        assert_points_eq(
            &model.embedding().points,
            &naive_project(&model, &train),
            "fit trajectory",
        );
        let unseen = signal(1_300, 75.0, 500);
        let fast = model
            .embedding()
            .project(&TimeSeries::from(unseen.clone()))
            .unwrap();
        assert_points_eq(&fast, &naive_project(&model, &unseen), "projection");
        let nodes = model.node_set();
        for &p in &fast {
            assert_eq!(nodes.assign(p), naive_assign(nodes, p));
        }
        let fast_transitions = EdgeExtraction::map_transitions(&fast, nodes);
        assert!(!fast_transitions.is_empty());
    }
}

#[test]
fn batch_scores_match_the_reference() {
    for ell in [40, 50] {
        let model = fit(ell);
        let unseen = signal(1_300, 75.0, 500);
        for query_length in [ell, ell + 1, 150, 600] {
            let fast = model
                .anomaly_scores(&TimeSeries::from(unseen.clone()), query_length)
                .unwrap();
            let naive = naive_anomaly_scores(&model, &unseen, query_length);
            assert_bits_eq(&fast, &naive, &format!("scores ℓ={ell} ℓq={query_length}"));
        }
    }
}

#[test]
fn pristine_streams_match_the_reference() {
    for ell in [40, 50] {
        let model = fit(ell);
        let decoded = codec::decode_model(&codec::encode_model(&model)).unwrap();
        let stream = signal(1_100, 75.0, 650);
        for query_length in [ell, ell + 1, 150, 600] {
            assert_stream_eq(&model, &stream, query_length, 0.0);
        }
        assert_stream_eq(&decoded, &stream, 150, 0.0);
    }
}

#[test]
fn adapted_streams_match_the_reference() {
    let model = fit(50);
    let stream = signal(1_100, 75.0, 650);
    let mut inserted = 0;
    for query_length in [50, 150] {
        inserted += assert_stream_eq(&model, &stream, query_length, 0.1);
    }
    assert!(inserted > 0, "no reweight inserted a new edge");
}

#[test]
fn lambda_zero_adaptation_matches_the_frozen_stream() {
    let model = fit(50);
    let stream = signal(1_100, 75.0, 650);
    let reference = StreamingScorer::new(model.clone(), 150)
        .unwrap()
        .push_batch(&stream)
        .unwrap();
    let config = AdaptConfig::default().with_lambda(0.0);
    let mut adaptive = AdaptiveScorer::new(model, 150, config, 0).unwrap();
    let mut rng = Rng(0xD1B5_4A32_D192_ED03);
    let (mut emitted, mut rest) = (Vec::new(), &stream[..]);
    while !rest.is_empty() {
        let (chunk, tail) = rest.split_at((1 + rng.below(97)).min(rest.len()));
        rest = tail;
        emitted.extend(adaptive.push_batch(chunk).unwrap().emitted);
    }
    assert_eq!((adaptive.updates(), adaptive.refits()), (0, 0));
    assert_eq!(emitted.len(), reference.len());
    for ((gs, gv), (ws, wv)) in emitted.iter().zip(&reference) {
        assert_eq!((gs, gv.to_bits()), (ws, wv.to_bits()), "window {gs}");
    }
}

#[test]
fn assignment_on_a_ray_and_past_empty_rays_matches_the_reference() {
    // Eight rays; only rays 0 and 4 hold nodes, so rays 1–3 and 5–7 fall
    // back, and rays 2 and 6 sit exactly between the two populated ones.
    let mut radii = vec![Vec::new(); 8];
    radii[0] = vec![1.0, 3.0];
    radii[4] = vec![2.0];
    let nodes = NodeSet::from_parts(8, radii).unwrap();
    let step = TAU / 8.0;
    let on_ray = Vec2::from_angle(0.0) * 2.9;
    let between_up = Vec2::from_angle(2.0 * step) * 2.5;
    let between_down = Vec2::from_angle(6.0 * step) * 2.5;
    let near_empty = Vec2::from_angle(3.2 * step) * 1.7;
    for point in [on_ray, between_up, between_down, near_empty] {
        assert_eq!(
            nodes.assign(point),
            naive_assign(&nodes, point),
            "{point:?}"
        );
    }
    assert_eq!(nodes.assign(on_ray), Some(nodes.node_id(0, 1)));
    // A tie between the two sides goes to the ray after the closest one.
    assert_eq!(nodes.assign(between_up), Some(nodes.node_id(4, 0)));
    assert_eq!(nodes.assign(between_down), Some(nodes.node_id(0, 0)));
    assert_eq!(nodes.assign(near_empty), Some(nodes.node_id(4, 0)));
}
