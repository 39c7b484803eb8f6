//! θ-Normality and θ-Anomaly subgraph extraction (Definitions 3–5 of the paper).
//!
//! An edge `(N_i, N_j)` belongs to the θ-Normality subgraph when
//! `w(N_i, N_j) · (deg(N_i) − 1) ≥ θ`. Paths made exclusively of such edges
//! describe behaviour that occurs at least "θ-often"; edges excluded from
//! every θ-Normality level down to small θ are the anomalous transitions.

use std::collections::BTreeSet;

use crate::digraph::{DiGraph, EdgeRef, NodeId};

/// A θ-Normality (or θ-Anomaly) subgraph: the subset of nodes and edges of a
/// parent graph that satisfy (or violate) the θ threshold.
#[derive(Debug, Clone)]
pub struct Subgraph {
    /// Threshold used to build the subgraph.
    pub theta: f64,
    /// Nodes present in the subgraph.
    pub nodes: BTreeSet<NodeId>,
    /// Edges present in the subgraph.
    pub edges: Vec<EdgeRef>,
}

impl Subgraph {
    /// `true` when the subgraph contains the directed edge `from -> to`.
    pub fn contains_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.edges.iter().any(|e| e.from == from && e.to == to)
    }

    /// `true` when the subgraph contains the node.
    pub fn contains_node(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// Number of edges in the subgraph.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }
}

/// The "normality value" of an edge: `w(e) · (deg(source) − 1)`.
///
/// This is the quantity compared against θ in Definition 3 and summed along
/// paths by the normality score of Definition 9. It reads the graph's
/// precomputed degree factor `(deg − 1).max(0)`; the source of an edge has
/// degree ≥ 1, so the clamp never changes a value.
pub fn edge_normality(graph: &DiGraph, edge: &EdgeRef) -> f64 {
    edge.weight * graph.degree_factor(edge.from)
}

/// Extracts the θ-Normality subgraph: every edge whose normality value is at
/// least θ, together with the nodes those edges touch.
pub fn theta_normality(graph: &DiGraph, theta: f64) -> Subgraph {
    let mut nodes = BTreeSet::new();
    let mut edges = Vec::new();
    for e in graph.edges() {
        if edge_normality(graph, &e) >= theta {
            nodes.insert(e.from);
            nodes.insert(e.to);
            edges.push(e);
        }
    }
    Subgraph {
        theta,
        nodes,
        edges,
    }
}

/// Extracts the θ-Anomaly subgraph: the edges excluded from the θ-Normality
/// subgraph (and the nodes that only appear on such edges).
pub fn theta_anomaly(graph: &DiGraph, theta: f64) -> Subgraph {
    let normal = theta_normality(graph, theta);
    let mut nodes = BTreeSet::new();
    let mut edges = Vec::new();
    for e in graph.edges() {
        if !normal.contains_edge(e.from, e.to) {
            edges.push(e);
            if !normal.contains_node(e.from) {
                nodes.insert(e.from);
            }
            if !normal.contains_node(e.to) {
                nodes.insert(e.to);
            }
        }
    }
    Subgraph {
        theta,
        nodes,
        edges,
    }
}

/// Checks whether a node path (a sequence of node ids traversed by a
/// subsequence) lies entirely inside the θ-Normality subgraph
/// (Definition 5: every consecutive pair must be a θ-normal edge).
pub fn path_in_theta_normality(graph: &DiGraph, path: &[NodeId], theta: f64) -> bool {
    if path.len() < 2 {
        return true;
    }
    path.windows(2).all(|w| {
        graph
            .edge_weight(w[0], w[1])
            .map(|weight| {
                let e = EdgeRef {
                    from: w[0],
                    to: w[1],
                    weight,
                };
                edge_normality(graph, &e) >= theta
            })
            .unwrap_or(false)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the toy graph of the paper's Figure 1-style example: a strongly
    /// connected "normal" cycle with heavy edges plus a weak anomalous detour.
    fn toy_graph() -> DiGraph {
        // Normal cycle 0 -> 1 -> 2 -> 0 traversed 10 times.
        let mut transitions = [(0, 1), (1, 2), (2, 0)].repeat(10);
        // Anomalous detour 1 -> 3 -> 4 -> 2 traversed once.
        transitions.extend([(1, 3), (3, 4), (4, 2)]);
        DiGraph::from_transitions(5, &transitions).unwrap()
    }

    #[test]
    fn edge_normality_uses_weight_and_degree() {
        let g = toy_graph();
        // Edge 0->1: weight 10, deg(0) = out(0->1) + in(2->0) = 2, so normality = 10*(2-1)=10.
        let e = EdgeRef {
            from: 0,
            to: 1,
            weight: g.edge_weight(0, 1).unwrap(),
        };
        assert_eq!(edge_normality(&g, &e), 10.0);
        // Edge 3->4: weight 1, deg(3) = 2 (1->3 and 3->4), normality = 1.
        let e = EdgeRef {
            from: 3,
            to: 4,
            weight: g.edge_weight(3, 4).unwrap(),
        };
        assert_eq!(edge_normality(&g, &e), 1.0);
    }

    #[test]
    fn high_theta_keeps_only_heavy_cycle() {
        let g = toy_graph();
        let normal = theta_normality(&g, 5.0);
        assert!(normal.contains_edge(0, 1));
        assert!(normal.contains_edge(1, 2));
        assert!(normal.contains_edge(2, 0));
        assert!(!normal.contains_edge(1, 3));
        assert!(!normal.contains_edge(3, 4));
        assert!(normal.contains_node(0) && normal.contains_node(1) && normal.contains_node(2));
        assert!(!normal.contains_node(3) && !normal.contains_node(4));
    }

    #[test]
    fn anomaly_subgraph_is_disjoint_complement() {
        let g = toy_graph();
        let theta = 5.0;
        let normal = theta_normality(&g, theta);
        let anomaly = theta_anomaly(&g, theta);
        // Every edge is in exactly one of the two subgraphs.
        assert_eq!(normal.edge_count() + anomaly.edge_count(), g.edge_count());
        for e in anomaly.edges.iter() {
            assert!(!normal.contains_edge(e.from, e.to));
        }
        // Node sets are disjoint (Definition 4: intersection is empty).
        for n in anomaly.nodes.iter() {
            assert!(!normal.contains_node(*n));
        }
    }

    #[test]
    fn low_theta_includes_everything() {
        let g = toy_graph();
        let normal = theta_normality(&g, 0.0);
        assert_eq!(normal.edge_count(), g.edge_count());
        let anomaly = theta_anomaly(&g, 0.0);
        assert_eq!(anomaly.edge_count(), 0);
        assert!(anomaly.nodes.is_empty());
    }

    #[test]
    fn normality_subgraphs_are_nested_in_theta() {
        let g = toy_graph();
        let loose = theta_normality(&g, 1.0);
        let strict = theta_normality(&g, 8.0);
        for e in strict.edges.iter() {
            assert!(
                loose.contains_edge(e.from, e.to),
                "strict edge missing from loose subgraph"
            );
        }
        assert!(strict.edge_count() <= loose.edge_count());
    }

    #[test]
    fn path_membership_follows_definition_5() {
        let g = toy_graph();
        // The heavy cycle path stays within 5-Normality.
        assert!(path_in_theta_normality(&g, &[0, 1, 2, 0], 5.0));
        // A path using the weak detour does not.
        assert!(!path_in_theta_normality(&g, &[0, 1, 3, 4], 5.0));
        // A path with a non-existent edge is not normal either.
        assert!(!path_in_theta_normality(&g, &[0, 4], 0.5));
        // Trivial paths are vacuously normal.
        assert!(path_in_theta_normality(&g, &[2], 100.0));
        assert!(path_in_theta_normality(&g, &[], 100.0));
    }
}
