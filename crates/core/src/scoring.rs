//! Subsequence scoring (Definitions 9–10 and Algorithm 4 of the paper).
//!
//! The normality of a path `⟨N(i), …, N(i+ℓq)⟩` through the graph is
//! `Σ w(N(j), N(j+1)) · (deg(N(j)) − 1) / ℓq`: subsequences travelling along
//! heavy edges between well-connected nodes are normal, subsequences using
//! rare edges (or edges absent from the graph, which contribute 0) are
//! anomalous.
//!
//! Scoring every subsequence of the input series is done in `O(|T|)` using
//! per-gap contributions: during edge extraction each graph transition is
//! attributed to the trajectory gap where it completed, so the path weight of
//! `T_{i,ℓq}` is the sum of the contributions of gaps `i … i+ℓq−ℓ−1`, which a
//! prefix sum evaluates in constant time per subsequence.

use s2g_graph::DiGraph;
use s2g_timeseries::filter::moving_average;

/// Computes the per-gap normality contribution `w(e)·(deg(src)−1)` of the
/// transition observed at each trajectory gap. Transitions that do not exist
/// in the graph (possible when scoring unseen data) contribute zero.
///
/// Each lookup is [`DiGraph::contribution`]: a binary search over the
/// source's compressed row and one multiply by its precomputed degree
/// factor.
pub fn gap_contributions(graph: &DiGraph, transitions: &[(usize, usize)]) -> Vec<f64> {
    transitions
        .iter()
        .map(|&(from, to)| graph.contribution(from, to))
        .collect()
}

/// Computes the normality score of every subsequence of length `query_length`
/// of a series whose trajectory produced `contributions` (one entry per gap
/// between consecutive embedded points) with patterns of length
/// `pattern_length`.
///
/// Returns one score per subsequence start `i ∈ [0, |T| − ℓq]`. The number of
/// gaps spanned by a query of length `ℓq` is `ℓq − ℓ` (its embedded
/// trajectory has `ℓq − ℓ + 1` points).
pub fn normality_profile(
    contributions: &[f64],
    pattern_length: usize,
    query_length: usize,
) -> Vec<f64> {
    // A query of length ℓq spans ℓq − ℓ trajectory gaps; when ℓq = ℓ the
    // subsequence still traverses (at least) the transition leaving its own
    // embedded point, so one gap is used — this keeps ℓq = ℓ scoring useful
    // instead of identically zero.
    let gaps_per_query = query_length.saturating_sub(pattern_length).max(1);
    let n_gaps = contributions.len();
    // Number of query subsequences: series length − ℓq + 1, where the series
    // length reconstructed from the gap count is n_gaps + ℓ.
    let series_len = n_gaps + pattern_length;
    if series_len < query_length {
        return Vec::new();
    }
    let n_queries = series_len - query_length + 1;

    // Prefix sums over the gap contributions.
    let mut prefix = Vec::with_capacity(n_gaps + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &c in contributions {
        acc += c;
        prefix.push(acc);
    }

    let mut scores = Vec::with_capacity(n_queries);
    for i in 0..n_queries {
        let lo = i;
        let hi = (i + gaps_per_query).min(n_gaps);
        let path_weight = prefix[hi] - prefix[lo];
        scores.push(path_weight / query_length as f64);
    }
    scores
}

/// Applies the final smoothing of Algorithm 4: a moving average of width
/// `pattern_length` over the normality profile.
pub fn smooth_profile(scores: &[f64], pattern_length: usize) -> Vec<f64> {
    moving_average(scores, pattern_length)
}

/// Converts a normality profile into an anomaly-score profile in `[0, 1]`:
/// `1` for the least normal subsequence, `0` for the most normal one.
/// A constant profile maps to all zeros (no subsequence stands out).
pub fn anomaly_profile(normality: &[f64]) -> Vec<f64> {
    if normality.is_empty() {
        return Vec::new();
    }
    // Min and max in one pass over the profile (same f64::min/f64::max
    // folds as the former two passes, so NaN handling is unchanged).
    let (min, max) = normality
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &s| {
            (lo.min(s), hi.max(s))
        });
    let range = max - min;
    if range <= 0.0 || !range.is_finite() {
        return vec![0.0; normality.len()];
    }
    normality.iter().map(|&s| (max - s) / range).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> DiGraph {
        let mut transitions = [(0, 1), (1, 0)].repeat(10);
        transitions.extend([(1, 2), (2, 3), (3, 0)]);
        DiGraph::from_transitions(4, &transitions).unwrap()
    }

    #[test]
    fn gap_contributions_use_weight_and_degree() {
        let g = toy_graph();
        // deg(0) = out{1} + in{1,3} = 3, w(0,1)=10 -> 10*2 = 20.
        // deg(2) = out{3} + in{1} = 2, w(2,3)=1 -> 1*1 = 1.
        let transitions = vec![(0, 1), (2, 3), (0, 1)];
        let contributions = gap_contributions(&g, &transitions);
        assert_eq!(contributions.len(), 3);
        assert!((contributions[0] - 20.0).abs() < 1e-12);
        assert!((contributions[1] - 1.0).abs() < 1e-12);
        assert!((contributions[2] - 20.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_edges_contribute_zero() {
        let g = toy_graph();
        let transitions = vec![(3, 2)]; // edge does not exist
        let contributions = gap_contributions(&g, &transitions);
        assert_eq!(contributions[0], 0.0);
    }

    #[test]
    fn normality_profile_window_sums() {
        // contributions = [1, 2, 3, 4, 5]; pattern 10, query 12 => 2 gaps per query.
        let contributions = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let profile = normality_profile(&contributions, 10, 12);
        // series length = 5 + 10 = 15, queries = 15 - 12 + 1 = 4.
        assert_eq!(profile.len(), 4);
        assert!((profile[0] - (1.0 + 2.0) / 12.0).abs() < 1e-12);
        assert!((profile[1] - (2.0 + 3.0) / 12.0).abs() < 1e-12);
        assert!((profile[3] - (4.0 + 5.0) / 12.0).abs() < 1e-12);
    }

    #[test]
    fn query_equal_to_pattern_uses_one_gap() {
        let contributions = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        let profile = normality_profile(&contributions, 10, 10);
        assert_eq!(profile.len(), 11);
        // score[i] = contributions[i] / ℓq, except the last window which has
        // no following gap and scores 0.
        assert!((profile[0] - 0.1).abs() < 1e-12);
        assert!((profile[3] - 0.4).abs() < 1e-12);
        assert_eq!(profile[10], 0.0);
    }

    #[test]
    fn too_long_query_yields_empty_profile() {
        let contributions = vec![1.0; 5];
        assert!(normality_profile(&contributions, 10, 100).is_empty());
    }

    #[test]
    fn anomaly_profile_inverts_and_normalises() {
        let normality = vec![10.0, 5.0, 0.0, 10.0];
        let anomaly = anomaly_profile(&normality);
        assert_eq!(anomaly.len(), 4);
        assert_eq!(anomaly[0], 0.0);
        assert_eq!(anomaly[2], 1.0);
        assert!((anomaly[1] - 0.5).abs() < 1e-12);
        // Constant profile -> all zeros.
        assert_eq!(anomaly_profile(&[3.0, 3.0, 3.0]), vec![0.0, 0.0, 0.0]);
        assert!(anomaly_profile(&[]).is_empty());
    }

    #[test]
    fn smoothing_preserves_length_and_reduces_variance() {
        let scores: Vec<f64> = (0..200)
            .map(|i| if i % 17 == 0 { 10.0 } else { 1.0 })
            .collect();
        let smoothed = smooth_profile(&scores, 20);
        assert_eq!(smoothed.len(), scores.len());
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(var(&smoothed) < var(&scores));
    }
}
