//! The fitted transition graph, stored once as compressed sparse rows.
//!
//! Scoring evaluates `w(from, to) · (deg(from) − 1).max(0)` once per
//! trajectory gap, so the graph keeps exactly what that read needs in
//! contiguous arrays — classic compressed sparse row — plus the per-node
//! degree and its precomputed factor:
//!
//! ```text
//! row_start: [0,        2,    3, ...]   one entry per node, +1 sentinel
//! targets:   [ 1, 4,    2,   ... ]      out-neighbours, sorted per row
//! weights:   [ w01,w04, w12, ... ]      parallel to `targets`
//! degree:    [ out(0)+in(0), ... ]      distinct adjacent edges
//! factor:    [ (deg(0)−1)⁺, ... ]       (deg(n) − 1).max(0) as f64
//! ```
//!
//! One lookup is a binary search over a short row and one multiply. Rows
//! are sorted by target, so [`DiGraph::edges`] yields edges in `(from, to)`
//! order, which is the order the model codec writes.

use crate::error::{Error, Result};

/// Identifier of a node inside a [`DiGraph`]: a dense index below
/// [`DiGraph::node_count`].
pub type NodeId = usize;

/// A borrowed view of one edge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeRef {
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Cumulative weight (number of observed transitions).
    pub weight: f64,
}

/// A directed graph with weighted edges, in compressed-sparse-row form.
///
/// The weight of an edge is the number of times the corresponding pair of
/// subsequences was observed one after the other in the input series
/// ([`DiGraph::from_transitions`]); online adaptation then moves mass
/// between the out-edges of a node ([`DiGraph::reweight_out_edge`]).
#[derive(Debug, Clone)]
pub struct DiGraph {
    /// `row_start[n] .. row_start[n + 1]` indexes the out-edges of node `n`
    /// in `targets`/`weights`. Length `node_count + 1`.
    row_start: Vec<usize>,
    /// Destination of every edge, sorted ascending within each row.
    targets: Vec<NodeId>,
    /// Weight of every edge, parallel to `targets`.
    weights: Vec<f64>,
    /// Total degree per node: distinct outgoing plus distinct incoming
    /// edges, so a self-loop counts twice.
    degree: Vec<usize>,
    /// `(deg(n) − 1).max(0)` per node, precomputed as `f64`.
    factor: Vec<f64>,
}

fn factor_of(degree: usize) -> f64 {
    (degree as f64 - 1.0).max(0.0)
}

impl DiGraph {
    /// Builds the graph of a transition sequence: the weight of `from -> to`
    /// is the number of times the pair occurs in `transitions`.
    ///
    /// # Errors
    /// [`Error::UnknownNode`] when a transition references a node
    /// `>= node_count`.
    pub fn from_transitions(node_count: usize, transitions: &[(NodeId, NodeId)]) -> Result<Self> {
        let mut endpoints = transitions.iter().flat_map(|&(from, to)| [from, to]);
        if let Some(node) = endpoints.find(|&node| node >= node_count) {
            return Err(Error::UnknownNode(node));
        }
        // Sort the pairs: a counting sort by source, then each source's
        // targets in place, which times below one comparison sort of the
        // pairs. A run of equal targets is one edge.
        let mut bounds = vec![0; node_count + 1];
        for &(from, _) in transitions {
            bounds[from + 1] += 1;
        }
        for n in 0..node_count {
            bounds[n + 1] += bounds[n];
        }
        let mut next = bounds.clone();
        let mut by_source = vec![0; transitions.len()];
        for &(from, to) in transitions {
            by_source[next[from]] = to;
            next[from] += 1;
        }
        for n in 0..node_count {
            by_source[bounds[n]..bounds[n + 1]].sort_unstable();
        }
        let runs = (0..node_count).flat_map(|from| {
            by_source[bounds[from]..bounds[from + 1]]
                .chunk_by(|a, b| a == b)
                .map(move |run| (from, run[0], run.len() as f64))
        });
        Ok(Self::from_sorted(node_count, runs))
    }

    /// Rebuilds a graph from a node count and an edge list as produced by
    /// [`DiGraph::edges`]. Used by model persistence, so it accepts exactly
    /// what a graph can hold: edges strictly increasing in `(from, to)`,
    /// endpoints below `node_count`, and finite non-negative weights (zero
    /// included, since repeated decay can underflow to it).
    ///
    /// # Errors
    /// [`Error::InvalidEdge`] naming the first edge that breaks a rule.
    pub fn from_edges(node_count: usize, edges: &[(NodeId, NodeId, f64)]) -> Result<Self> {
        for (index, &(from, to, weight)) in edges.iter().enumerate() {
            let reason = if from >= node_count || to >= node_count {
                format!("{from} -> {to} references a node outside 0..{node_count}")
            } else if !(weight.is_finite() && weight >= 0.0) {
                format!("weight {weight} of {from} -> {to} is not finite and non-negative")
            } else if index > 0 && (edges[index - 1].0, edges[index - 1].1) >= (from, to) {
                format!("{from} -> {to} does not follow the previous edge in (from, to) order")
            } else {
                continue;
            };
            return Err(Error::InvalidEdge { index, reason });
        }
        Ok(Self::from_sorted(node_count, edges.iter().copied()))
    }

    /// Lays out edges that are already valid, sorted by `(from, to)` and
    /// free of repeats.
    fn from_sorted(node_count: usize, edges: impl Iterator<Item = (NodeId, NodeId, f64)>) -> Self {
        let mut row_start = vec![0; node_count + 1];
        let mut degree = vec![0; node_count];
        let (mut targets, mut weights) = (Vec::new(), Vec::new());
        for (from, to, weight) in edges {
            row_start[from + 1] += 1;
            degree[from] += 1;
            degree[to] += 1;
            targets.push(to);
            weights.push(weight);
        }
        for n in 0..node_count {
            row_start[n + 1] += row_start[n];
        }
        let factor = degree.iter().map(|&d| factor_of(d)).collect();
        Self {
            row_start,
            targets,
            weights,
            degree,
            factor,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.degree.len()
    }

    /// Number of distinct directed edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// `true` when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.degree.is_empty()
    }

    /// Returns `true` if `node` is a valid node id.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node < self.node_count()
    }

    /// Index range of the out-edges of `node` in `targets`/`weights`
    /// (empty for an out-of-range id).
    fn row(&self, node: NodeId) -> std::ops::Range<usize> {
        if self.contains_node(node) {
            self.row_start[node]..self.row_start[node + 1]
        } else {
            0..0
        }
    }

    /// Weight of the edge `from -> to`, or `None` when absent.
    #[inline]
    pub fn edge_weight(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let row = self.row(from);
        self.targets[row.clone()]
            .binary_search(&to)
            .ok()
            .map(|i| self.weights[row.start + i])
    }

    /// Total degree `deg(N)`: number of distinct edges adjacent to the node
    /// (incoming plus outgoing), as used by the normality score
    /// `w(e)·(deg(N)−1)`.
    pub fn degree(&self, node: NodeId) -> usize {
        self.degree.get(node).copied().unwrap_or(0)
    }

    /// The normality degree factor `(deg(n) − 1).max(0)` of a node (`0.0`
    /// for an out-of-range id, matching `deg = 0`).
    #[inline]
    pub fn degree_factor(&self, node: NodeId) -> f64 {
        self.factor.get(node).copied().unwrap_or(0.0)
    }

    /// Per-gap normality contribution `w(from, to) · (deg(from) − 1).max(0)`
    /// of one transition; an absent edge contributes `0.0 · factor`.
    #[inline]
    pub fn contribution(&self, from: NodeId, to: NodeId) -> f64 {
        self.edge_weight(from, to).unwrap_or(0.0) * self.degree_factor(from)
    }

    /// Sum of the weights of the outgoing edges of a node.
    pub fn out_strength(&self, node: NodeId) -> f64 {
        self.weights[self.row(node)].iter().sum()
    }

    /// Iterator over the outgoing edges of a node, by ascending target.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeRef> + '_ {
        self.row(node).map(move |i| EdgeRef {
            from: node,
            to: self.targets[i],
            weight: self.weights[i],
        })
    }

    /// Iterator over every edge in the graph, in `(from, to)` order.
    pub fn edges(&self) -> impl Iterator<Item = EdgeRef> + '_ {
        self.nodes().flat_map(move |n| self.out_edges(n))
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        0..self.node_count()
    }

    /// Total weight over all edges.
    pub fn total_weight(&self) -> f64 {
        self.edges().map(|e| e.weight).sum()
    }

    /// Maximum edge weight in the graph (0.0 for an edgeless graph).
    pub fn max_edge_weight(&self) -> f64 {
        self.edges().map(|e| e.weight).fold(0.0, f64::max)
    }

    /// Exponentially-decayed in-place reweighting of the transition
    /// `from -> to`: every outgoing edge of `from` is decayed by `1 − λ`
    /// and the freed mass `λ · strength(from)` is reinforced onto the
    /// observed edge, creating it if absent. The out-strength of `from` is
    /// preserved up to rounding, so repeated updates steer the node's
    /// transition *distribution* toward recent observations without
    /// inflating or draining total edge mass — the primitive behind online
    /// model adaptation.
    ///
    /// Only row `from` changes, in `O(deg(from))` when the edge exists. A
    /// new edge is inserted at its sorted position, which shifts the later
    /// rows by one (`O(V + E)` moves) and raises the degrees (and factors)
    /// of `from` and `to`.
    ///
    /// `λ = 0` is an exact no-op (weights are left untouched bit-for-bit)
    /// and a node without outgoing mass stays untouched too (reinforcing
    /// with zero would only mint spurious zero-weight edges, which would
    /// change degrees and therefore scores). Returns the reinforcement
    /// weight that was applied (`0.0` for the no-op cases).
    ///
    /// # Errors
    /// [`Error::UnknownNode`] when either endpoint does not exist;
    /// [`Error::InvalidWeight`] when `λ` is not within `[0, 1)`.
    pub fn reweight_out_edge(&mut self, from: NodeId, to: NodeId, lambda: f64) -> Result<f64> {
        if !self.contains_node(from) {
            return Err(Error::UnknownNode(from));
        }
        if !self.contains_node(to) {
            return Err(Error::UnknownNode(to));
        }
        if !(0.0..1.0).contains(&lambda) {
            return Err(Error::InvalidWeight(lambda));
        }
        if lambda == 0.0 {
            return Ok(0.0);
        }
        let strength = self.out_strength(from);
        if strength <= 0.0 {
            return Ok(0.0);
        }
        let retain = 1.0 - lambda;
        let reinforcement = lambda * strength;
        let row = self.row(from);
        for w in &mut self.weights[row.clone()] {
            *w *= retain;
        }
        match self.targets[row.clone()].binary_search(&to) {
            Ok(i) => self.weights[row.start + i] += reinforcement,
            Err(i) => {
                self.targets.insert(row.start + i, to);
                self.weights.insert(row.start + i, reinforcement);
                for start in &mut self.row_start[from + 1..] {
                    *start += 1;
                }
                for node in [from, to] {
                    self.degree[node] += 1;
                    self.factor[node] = factor_of(self.degree[node]);
                }
            }
        }
        Ok(reinforcement)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// Reference adjacency: the outgoing and incoming `BTreeMap`s the graph
    /// used to keep, with their accumulation and reweight arithmetic.
    struct MapGraph {
        out_edges: Vec<BTreeMap<NodeId, f64>>,
        in_edges: Vec<BTreeMap<NodeId, f64>>,
    }

    impl MapGraph {
        fn new(n: usize) -> Self {
            Self {
                out_edges: vec![BTreeMap::new(); n],
                in_edges: vec![BTreeMap::new(); n],
            }
        }

        fn add(&mut self, from: NodeId, to: NodeId, weight: f64) {
            *self.out_edges[from].entry(to).or_insert(0.0) += weight;
            *self.in_edges[to].entry(from).or_insert(0.0) += weight;
        }

        fn factor(&self, node: NodeId) -> f64 {
            let degree = self.out_edges[node].len() + self.in_edges[node].len();
            (degree as f64 - 1.0).max(0.0)
        }

        fn reweight(&mut self, from: NodeId, to: NodeId, lambda: f64) {
            if lambda == 0.0 {
                return;
            }
            let strength: f64 = self.out_edges[from].values().sum();
            if strength <= 0.0 {
                return;
            }
            let (retain, reinforcement) = (1.0 - lambda, lambda * strength);
            let targets: Vec<NodeId> = self.out_edges[from].keys().copied().collect();
            for target in targets {
                *self.out_edges[from].get_mut(&target).unwrap() *= retain;
                *self.in_edges[target].get_mut(&from).unwrap() *= retain;
            }
            self.add(from, to, reinforcement);
        }

        /// Asserts every weight, degree factor and contribution of `g`
        /// equals the reference bit for bit.
        fn assert_matches(&self, g: &DiGraph) {
            let n = self.out_edges.len();
            assert_eq!(g.node_count(), n);
            let edges: Vec<(NodeId, NodeId, u64)> = (0..n)
                .flat_map(|f| {
                    self.out_edges[f]
                        .iter()
                        .map(move |(&t, w)| (f, t, w.to_bits()))
                })
                .collect();
            let got: Vec<(NodeId, NodeId, u64)> = g
                .edges()
                .map(|e| (e.from, e.to, e.weight.to_bits()))
                .collect();
            assert_eq!(got, edges);
            for from in 0..n {
                assert_eq!(g.degree_factor(from).to_bits(), self.factor(from).to_bits());
                assert_eq!(
                    g.degree(from),
                    self.out_edges[from].len() + self.in_edges[from].len()
                );
                for to in 0..n {
                    let w = self.out_edges[from].get(&to).copied();
                    assert_eq!(
                        g.edge_weight(from, to).map(f64::to_bits),
                        w.map(f64::to_bits)
                    );
                    let legacy = w.unwrap_or(0.0) * self.factor(from);
                    assert_eq!(g.contribution(from, to).to_bits(), legacy.to_bits());
                }
            }
        }
    }

    /// Weights with noisy low bits, so a reweight diverging from the map
    /// arithmetic by even an ulp is caught.
    fn noisy() -> (DiGraph, MapGraph) {
        let edges = [
            (0, 1, 0.1 + 0.2),
            (0, 2, 1.0 / 3.0),
            (1, 0, 0.7),
            (1, 3, 2.5),
            (3, 3, 1e-3),
        ];
        let mut reference = MapGraph::new(5);
        for &(f, t, w) in &edges {
            reference.add(f, t, w);
        }
        (DiGraph::from_edges(5, &edges).unwrap(), reference)
    }

    #[test]
    fn from_transitions_matches_naive_accumulation() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let transitions: Vec<(NodeId, NodeId)> = (0..2_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                ((state % 7) as usize, (state / 7 % 9) as usize)
            })
            .collect();
        let mut reference = MapGraph::new(9);
        for &(f, t) in &transitions {
            reference.add(f, t, 1.0);
        }
        let g = DiGraph::from_transitions(9, &transitions).unwrap();
        reference.assert_matches(&g);
        assert_eq!(g.total_weight(), 2_000.0);
    }

    #[test]
    fn degrees_count_distinct_edges() {
        let g = DiGraph::from_transitions(4, &[(0, 1), (0, 1), (0, 2), (3, 0)]).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(2.0));
        assert_eq!(g.edge_weight(1, 0), None);
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.out_edges(0).count(), 2);
        assert_eq!(g.degree(0), 3);
        assert_eq!(g.degree(1), 1);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.degree_factor(0), 2.0);
        assert_eq!(g.degree_factor(1), 0.0);
    }

    #[test]
    fn self_loop_counts_in_both_directions() {
        let g = DiGraph::from_transitions(1, &[(0, 0)]).unwrap();
        assert_eq!(g.out_edges(0).count(), 1);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.edge_weight(0, 0), Some(1.0));
    }

    #[test]
    fn unknown_node_rejected() {
        assert_eq!(
            DiGraph::from_transitions(1, &[(0, 3)]).unwrap_err(),
            Error::UnknownNode(3)
        );
        assert_eq!(
            DiGraph::from_transitions(1, &[(0, 0), (7, 0)]).unwrap_err(),
            Error::UnknownNode(7)
        );
    }

    #[test]
    fn from_edges_refuses_what_no_graph_holds() {
        let index_of = |edges: &[(NodeId, NodeId, f64)]| match DiGraph::from_edges(3, edges) {
            Err(Error::InvalidEdge { index, .. }) => index,
            other => panic!("{edges:?} decoded: {other:?}"),
        };
        assert_eq!(index_of(&[(0, 1, 1.0), (0, 3, 1.0)]), 1);
        assert_eq!(index_of(&[(5, 1, 1.0)]), 0);
        assert_eq!(index_of(&[(0, 1, f64::NAN)]), 0);
        assert_eq!(index_of(&[(0, 1, 1.0), (0, 2, f64::INFINITY)]), 1);
        assert_eq!(index_of(&[(0, 1, -1.0)]), 0);
        assert_eq!(index_of(&[(0, 2, 1.0), (0, 1, 1.0)]), 1);
        assert_eq!(index_of(&[(1, 0, 1.0), (0, 2, 1.0)]), 1);
        assert_eq!(index_of(&[(0, 1, 1.0), (0, 1, 1.0)]), 1);
        // Decay can underflow a weight to zero; such a graph still loads.
        let g = DiGraph::from_edges(3, &[(0, 1, 0.0), (2, 2, 4.0)]).unwrap();
        assert_eq!(g.edge_weight(0, 1), Some(0.0));
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn edges_round_trip_through_from_edges() {
        let (g, _) = noisy();
        let edges: Vec<_> = g.edges().map(|e| (e.from, e.to, e.weight)).collect();
        let again = DiGraph::from_edges(g.node_count(), &edges).unwrap();
        assert!(again.edges().eq(g.edges()));
        assert_eq!(g.max_edge_weight(), 2.5);
    }

    #[test]
    fn out_edges_of_missing_node_is_empty() {
        let (g, _) = noisy();
        assert_eq!(g.out_edges(99).count(), 0);
        assert_eq!(g.degree(99), 0);
        assert_eq!(g.degree_factor(99), 0.0);
        assert_eq!(g.edge_weight(99, 0), None);
        assert_eq!(g.contribution(99, 0), 0.0);
        let empty = DiGraph::from_transitions(0, &[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.edges().count(), 0);
    }

    #[test]
    fn reweight_matches_the_map_arithmetic() {
        // (from, to, λ): an existing edge, a new edge, a new self-loop,
        // λ = 0, a source with zero strength (node 4 has no out-edges),
        // then an existing edge again on the reshaped rows.
        let steps = [
            (0, 2, 0.3),
            (0, 4, 0.3),
            (1, 1, 0.25),
            (1, 0, 0.0),
            (4, 0, 0.5),
            (1, 3, 0.1),
        ];
        let (mut g, mut reference) = noisy();
        reference.assert_matches(&g);
        for (from, to, lambda) in steps {
            let before = g.edge_count();
            let applied = g.reweight_out_edge(from, to, lambda).unwrap();
            reference.reweight(from, to, lambda);
            reference.assert_matches(&g);
            if lambda == 0.0 || from == 4 {
                assert_eq!(applied, 0.0);
                assert_eq!(g.edge_count(), before);
            }
        }
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn reweight_preserves_out_strength_and_shifts_mass() {
        let mut g = DiGraph::from_edges(3, &[(0, 1, 6.0), (0, 2, 2.0)]).unwrap();
        let before = g.out_strength(0);
        let applied = g.reweight_out_edge(0, 2, 0.25).unwrap();
        assert!((applied - 0.25 * 8.0).abs() < 1e-12);
        // Out-strength is preserved; mass moved from (0,1) to (0,2).
        assert!((g.out_strength(0) - before).abs() < 1e-12);
        assert!((g.edge_weight(0, 1).unwrap() - 4.5).abs() < 1e-12);
        assert!((g.edge_weight(0, 2).unwrap() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn reweight_rejects_bad_inputs() {
        let mut g = DiGraph::from_transitions(2, &[(0, 1)]).unwrap();
        assert_eq!(g.reweight_out_edge(5, 1, 0.1), Err(Error::UnknownNode(5)));
        assert_eq!(g.reweight_out_edge(0, 5, 0.1), Err(Error::UnknownNode(5)));
        assert!(matches!(
            g.reweight_out_edge(0, 1, 1.0),
            Err(Error::InvalidWeight(_))
        ));
        assert!(matches!(
            g.reweight_out_edge(0, 1, -0.1),
            Err(Error::InvalidWeight(_))
        ));
    }
}
