//! Edge creation (Definition 8 / Algorithm 3 of the paper).
//!
//! Every embedded point `P_i` (one per subsequence of the input series) is
//! assigned to its node `S(P_i)` — the node of the angularly closest ray
//! whose radius is closest to the point's projection onto that ray. The
//! chronological node sequence `⟨S(P_0), S(P_1), …⟩` represents the whole
//! input series; every consecutive pair `(S(P_i), S(P_{i+1}))` is an edge
//! whose weight counts how many times that transition was observed. Exactly
//! one transition is produced per trajectory gap, which is what makes the
//! normality score of Definition 9 comparable across subsequences of equal
//! query length.

use s2g_graph::DiGraph;
use s2g_linalg::vector::Vec2;

use crate::error::Result;
use crate::nodes::NodeSet;

/// Result of the edge-extraction pass over a trajectory.
#[derive(Debug, Clone)]
pub struct EdgeExtraction {
    /// The transition graph (one node per [`NodeSet`] node, weighted edges).
    pub graph: DiGraph,
    /// The chronological sequence of visited nodes, one per embedded point.
    pub node_sequence: Vec<usize>,
    /// The transition observed at every trajectory gap `j` (between embedded
    /// points `j` and `j+1`). `transitions[j] = (S(P_j), S(P_{j+1}))`.
    pub transitions: Vec<(usize, usize)>,
}

impl EdgeExtraction {
    /// Runs edge extraction over an embedded trajectory using an already
    /// extracted node set, building the transition graph.
    pub fn extract(points: &[Vec2], nodes: &NodeSet) -> Result<Self> {
        let node_sequence = assign_sequence(points, nodes);
        let transitions = consecutive_pairs(&node_sequence);
        let graph = DiGraph::from_transitions(nodes.node_count(), &transitions)?;
        Ok(Self {
            graph,
            node_sequence,
            transitions,
        })
    }

    /// Maps a (query) trajectory onto transitions of an *existing* node set
    /// without modifying any graph: returns the transition of every gap. This
    /// is the second half of the paper's `Time2Path` conversion, used to
    /// score subsequences that were not part of the training series.
    pub fn map_transitions(points: &[Vec2], nodes: &NodeSet) -> Vec<(usize, usize)> {
        consecutive_pairs(&assign_sequence(points, nodes))
    }
}

/// The transition of every gap of a node sequence.
fn consecutive_pairs(sequence: &[usize]) -> Vec<(usize, usize)> {
    sequence.windows(2).map(|pair| (pair[0], pair[1])).collect()
}

/// Assigns every embedded point to its node (`S(P_i)` for all `i`).
fn assign_sequence(points: &[Vec2], nodes: &NodeSet) -> Vec<usize> {
    points.iter().filter_map(|&p| nodes.assign(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::S2gConfig;

    fn circle(radius: f64, turns: usize, per_turn: usize) -> Vec<Vec2> {
        (0..=turns * per_turn)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / per_turn as f64;
                Vec2::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect()
    }

    fn config(rate: usize) -> S2gConfig {
        S2gConfig::new(50).with_rate(rate)
    }

    #[test]
    fn circular_trajectory_produces_cyclic_transitions() {
        let points = circle(2.0, 20, 160);
        let cfg = config(8);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();
        // One node per embedded point.
        assert_eq!(ext.node_sequence.len(), points.len());
        assert_eq!(ext.transitions.len(), points.len() - 1);
        // Eight nodes; transitions are either self-loops (within a sector) or
        // hops to the next sector, so at most 16 distinct edges.
        assert_eq!(ext.graph.node_count(), 8);
        assert!(
            ext.graph.edge_count() <= 16,
            "edges = {}",
            ext.graph.edge_count()
        );
        // Each inter-sector hop happens once per turn.
        let hop_weights: Vec<f64> = ext
            .graph
            .edges()
            .filter(|e| e.from != e.to)
            .map(|e| e.weight)
            .collect();
        assert!(!hop_weights.is_empty());
        for w in hop_weights {
            assert!((w - 20.0).abs() <= 1.0, "hop weight {w}");
        }
    }

    #[test]
    fn transition_count_is_independent_of_angular_speed() {
        // A trajectory spinning three times faster produces the same number of
        // transitions per gap (exactly one) — this is what keeps the
        // normality score comparable across shapes (and what a per-crossing
        // formulation would get wrong).
        let slow = circle(2.0, 2, 300);
        let fast = circle(2.0, 6, 300); // same point count per gap, 3x angular speed
        let cfg = config(12);
        let nodes = NodeSet::extract(&slow, &cfg).unwrap();
        let slow_ext = EdgeExtraction::extract(&slow, &nodes).unwrap();
        let fast_transitions = EdgeExtraction::map_transitions(&fast[..slow.len()], &nodes);
        assert_eq!(slow_ext.transitions.len(), fast_transitions.len());
    }

    #[test]
    fn transitions_cover_all_graph_weight() {
        let points = circle(3.0, 10, 100);
        let cfg = config(12);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();
        assert_eq!(ext.transitions.len() as f64, ext.graph.total_weight());
    }

    #[test]
    fn node_sequence_transitions_match_graph_edges() {
        let points = circle(1.5, 6, 60);
        let cfg = config(6);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();
        for pair in ext.node_sequence.windows(2) {
            assert!(
                ext.graph.edge_weight(pair[0], pair[1]).is_some(),
                "transition {:?} missing from graph",
                pair
            );
        }
    }

    #[test]
    fn two_rings_with_rare_excursion_have_light_anomalous_edges() {
        // Normal behaviour: inner circle traversed 30 times. Anomaly: a single
        // excursion to an outer ring. Edges touching outer-ring nodes must be
        // much lighter than the inner-cycle edges.
        let mut points = circle(1.0, 30, 80);
        points.extend(circle(5.0, 1, 80));
        points.extend(circle(1.0, 5, 80));
        let cfg = config(8);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();

        let mut radius = vec![0.0; nodes.node_count()];
        for ray in 0..nodes.rate() {
            for (rank, &r) in nodes.ray_nodes(ray).iter().enumerate() {
                radius[nodes.node_id(ray, rank)] = r;
            }
        }
        let mut inner_min = f64::INFINITY;
        let mut outer_max: f64 = 0.0;
        for e in ext.graph.edges() {
            let src_radius = radius[e.from];
            let dst_radius = radius[e.to];
            if src_radius > 3.0 || dst_radius > 3.0 {
                outer_max = outer_max.max(e.weight);
            } else {
                inner_min = inner_min.min(e.weight);
            }
        }
        assert!(
            outer_max < inner_min,
            "outer (anomalous) edges ({outer_max}) should be lighter than inner ones ({inner_min})"
        );
    }

    #[test]
    fn map_transitions_agrees_with_extract_on_training_points() {
        let points = circle(2.0, 8, 90);
        let cfg = config(10);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();
        let mapped = EdgeExtraction::map_transitions(&points, &nodes);
        assert_eq!(mapped, ext.transitions);
    }

    #[test]
    fn empty_trajectory_is_handled() {
        let points = circle(2.0, 5, 50);
        let cfg = config(8);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&[], &nodes).unwrap();
        assert_eq!(ext.node_sequence.len(), 0);
        assert!(ext.transitions.is_empty());
        assert_eq!(ext.graph.total_weight(), 0.0);
        let mapped = EdgeExtraction::map_transitions(&[Vec2::new(1.0, 0.0)], &nodes);
        assert!(mapped.is_empty());
    }

    #[test]
    fn self_loops_accumulate_dwell_time() {
        // Slow trajectory (many points per sector) should produce heavy self-loops.
        let points = circle(2.0, 3, 800);
        let cfg = config(8);
        let nodes = NodeSet::extract(&points, &cfg).unwrap();
        let ext = EdgeExtraction::extract(&points, &nodes).unwrap();
        let self_loop_weight: f64 = ext
            .graph
            .edges()
            .filter(|e| e.from == e.to)
            .map(|e| e.weight)
            .sum();
        let hop_weight: f64 = ext
            .graph
            .edges()
            .filter(|e| e.from != e.to)
            .map(|e| e.weight)
            .sum();
        assert!(self_loop_weight > hop_weight);
    }
}
