//! GraphViz DOT export used by the figure harnesses to inspect graphs
//! (Figures 5 and 8 of the paper visualise the constructed graphs).

use crate::digraph::DiGraph;

/// Options controlling the DOT rendering.
#[derive(Debug, Clone)]
pub struct DotOptions {
    /// Graph name placed after `digraph`.
    pub name: String,
    /// Edges with weight at least this value are drawn with a thick pen
    /// (visual analogue of the paper's "thick = normal" rendering).
    pub highlight_weight: f64,
    /// Skip edges lighter than this weight entirely (0.0 keeps everything).
    pub min_weight: f64,
}

impl Default for DotOptions {
    fn default() -> Self {
        Self {
            name: "series2graph".to_string(),
            highlight_weight: f64::INFINITY,
            min_weight: 0.0,
        }
    }
}

/// Renders the graph in GraphViz DOT format.
pub fn to_dot(graph: &DiGraph, options: &DotOptions) -> String {
    let mut out = String::new();
    out.push_str(&format!("digraph {} {{\n", sanitize(&options.name)));
    out.push_str("  rankdir=LR;\n  node [shape=circle, fontsize=10];\n");
    for n in graph.nodes() {
        if graph.degree(n) == 0 {
            continue;
        }
        out.push_str(&format!("  n{n} [label=\"{n}\"];\n"));
    }
    for e in graph.edges() {
        if e.weight < options.min_weight {
            continue;
        }
        let width = if e.weight >= options.highlight_weight {
            3.0
        } else {
            1.0
        };
        out.push_str(&format!(
            "  n{} -> n{} [label=\"{:.0}\", penwidth={width}];\n",
            e.from, e.to, e.weight
        ));
    }
    out.push_str("}\n");
    out
}

fn sanitize(name: &str) -> String {
    let cleaned: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if cleaned.is_empty() {
        "graph".to_string()
    } else {
        cleaned
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DiGraph {
        DiGraph::from_edges(4, &[(0, 1, 4.0), (1, 2, 1.0)]).unwrap()
    }

    #[test]
    fn dot_contains_nodes_and_edges() {
        let dot = to_dot(&sample(), &DotOptions::default());
        assert!(dot.starts_with("digraph series2graph {"));
        assert!(dot.contains("n0 -> n1"));
        assert!(dot.contains("n1 -> n2"));
        assert!(dot.contains("label=\"4\""));
        assert!(dot.ends_with("}\n"));
    }

    #[test]
    fn min_weight_filters_light_edges() {
        let opts = DotOptions {
            min_weight: 2.0,
            ..Default::default()
        };
        let dot = to_dot(&sample(), &opts);
        assert!(dot.contains("n0 -> n1"));
        assert!(!dot.contains("n1 -> n2"));
    }

    #[test]
    fn highlight_thickens_heavy_edges() {
        let opts = DotOptions {
            highlight_weight: 3.0,
            ..Default::default()
        };
        let dot = to_dot(&sample(), &opts);
        assert!(dot.contains("penwidth=3"));
        assert!(dot.contains("penwidth=1"));
    }

    #[test]
    fn name_is_sanitized() {
        let opts = DotOptions {
            name: "MBA (820) ℓ=80".to_string(),
            ..Default::default()
        };
        let dot = to_dot(&sample(), &opts);
        assert!(dot.starts_with("digraph MBA__820"));
        let empty = DotOptions {
            name: "   ".to_string(),
            ..Default::default()
        };
        assert!(to_dot(&sample(), &empty).starts_with("digraph ___"));
    }

    #[test]
    fn isolated_nodes_are_omitted() {
        let dot = to_dot(&sample(), &DotOptions::default()); // node 3 is isolated
        assert!(!dot.contains("n3 ["));
    }
}
