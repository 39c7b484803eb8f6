//! The end-to-end Series2Graph model (Algorithm 4 of the paper).

use s2g_graph::DiGraph;
use s2g_timeseries::{window, TimeSeries};

use crate::config::S2gConfig;
use crate::edges::EdgeExtraction;
use crate::embedding::Embedding;
use crate::error::{Error, Result};
use crate::nodes::NodeSet;
use crate::scoring;

/// Provenance of an *adapted* model: which fit it descends from and how far
/// it has drifted from it. Attached to a model when online adaptation
/// (decayed edge reweighting — see [`Series2Graph::reweight_transition`])
/// has modified the graph since the original fit, and persisted alongside
/// the model so adapted snapshots keep their lineage across restarts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptationLineage {
    /// Content checksum of the parent model (the fit this adapted model
    /// descends from), as computed by the persistence codec. Opaque to this
    /// crate.
    pub parent_checksum: u64,
    /// Number of decayed edge updates applied since the parent fit.
    pub update_count: u64,
    /// The decay rate λ the updates were applied with.
    pub decay_lambda: f64,
}

/// A fitted Series2Graph model: the embedding (PCA + rotation), the pattern
/// node set, the transition graph `G_ℓ(N, E)`, and the per-gap contributions
/// of the training series that make training-series scoring `O(|T|)`.
#[derive(Debug, Clone)]
pub struct Series2Graph {
    config: S2gConfig,
    embedding: Embedding,
    nodes: NodeSet,
    graph: DiGraph,
    /// Per-gap normality contributions of the training series.
    train_contributions: Vec<f64>,
    /// Length of the training series.
    train_len: usize,
    /// Adaptation provenance; `None` for a pristine fit.
    lineage: Option<AdaptationLineage>,
}

/// Rejects a series holding `NaN` or `±inf`: one such point would poison
/// the PCA of a fit and silently project to a meaningless path in a score.
fn check_finite(series: &TimeSeries) -> Result<()> {
    match series.values().iter().position(|v| !v.is_finite()) {
        Some(index) => Err(Error::NonFiniteValue { index }),
        None => Ok(()),
    }
}

impl Series2Graph {
    /// Fits a Series2Graph model on a series: embedding → node extraction →
    /// edge extraction (steps 1–3 of the paper).
    ///
    /// # Errors
    /// Propagates configuration, length and degeneracy errors from the
    /// individual steps.
    pub fn fit(series: &TimeSeries, config: &S2gConfig) -> Result<Self> {
        config.validate()?;
        check_finite(series)?;
        let embedding = Embedding::fit(series, config)?;
        let nodes = NodeSet::extract(&embedding.points, config)?;
        let extraction = EdgeExtraction::extract(&embedding.points, &nodes)?;
        let train_contributions =
            scoring::gap_contributions(&extraction.graph, &extraction.transitions);
        Ok(Self {
            config: config.clone(),
            embedding,
            nodes,
            graph: extraction.graph,
            train_contributions,
            train_len: series.len(),
            lineage: None,
        })
    }

    /// Reassembles a fitted model from its parts without refitting, e.g. when
    /// loading a persisted model. The parts must come from a consistent fit:
    /// the graph must have one node per [`NodeSet`] node and
    /// `train_contributions` must be the per-gap contributions of the
    /// training series.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when the configuration is invalid or the
    /// graph/node-set sizes disagree.
    pub fn from_parts(
        config: S2gConfig,
        embedding: Embedding,
        nodes: NodeSet,
        graph: DiGraph,
        train_contributions: Vec<f64>,
        train_len: usize,
    ) -> Result<Self> {
        config.validate()?;
        if graph.node_count() != nodes.node_count() {
            return Err(Error::InvalidConfig(format!(
                "graph has {} nodes but the node set has {}",
                graph.node_count(),
                nodes.node_count()
            )));
        }
        Ok(Self {
            config,
            embedding,
            nodes,
            graph,
            train_contributions,
            train_len,
            lineage: None,
        })
    }

    /// Per-gap normality contributions of the training series, cached at fit
    /// time (exposed for model persistence).
    pub fn train_contributions(&self) -> &[f64] {
        &self.train_contributions
    }

    /// Adaptation provenance of this model, or `None` for a pristine fit.
    pub fn lineage(&self) -> Option<&AdaptationLineage> {
        self.lineage.as_ref()
    }

    /// Stamps (or clears) the adaptation lineage. Set by the adaptation
    /// layer when publishing an adapted snapshot and by the persistence
    /// codec when reloading one; a pristine fit carries `None`.
    pub fn set_lineage(&mut self, lineage: Option<AdaptationLineage>) {
        self.lineage = lineage;
    }

    /// Applies one decayed edge update to the transition graph (see
    /// [`DiGraph::reweight_out_edge`]): the outgoing edges of `from` decay
    /// by `1 − λ` and the freed mass reinforces `from -> to`. The embedding,
    /// node set and cached training contributions are untouched — the cached
    /// contributions keep describing the *parent* fit's trajectory, which is
    /// exactly what the persisted lineage records. `λ = 0` is an exact
    /// no-op. Returns the applied reinforcement weight.
    ///
    /// # Errors
    /// Propagates [`s2g_graph::Error`] for unknown nodes or a λ outside
    /// `[0, 1)`.
    pub fn reweight_transition(&mut self, from: usize, to: usize, lambda: f64) -> Result<f64> {
        Ok(self.graph.reweight_out_edge(from, to, lambda)?)
    }

    /// The configuration the model was fitted with.
    pub fn config(&self) -> &S2gConfig {
        &self.config
    }

    /// The pattern length `ℓ` of the model.
    pub fn pattern_length(&self) -> usize {
        self.config.pattern_length
    }

    /// The transition graph `G_ℓ(N, E)`.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The extracted pattern node set.
    pub fn node_set(&self) -> &NodeSet {
        &self.nodes
    }

    /// The fitted embedding.
    pub fn embedding(&self) -> &Embedding {
        &self.embedding
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.nodes.node_count()
    }

    /// Length of the series the model was fitted on.
    pub fn train_len(&self) -> usize {
        self.train_len
    }

    /// Fraction of variance explained by the 3 principal components
    /// (the paper reports ≈95% on average across its corpus).
    pub fn explained_variance_ratio(&self) -> f64 {
        self.embedding.explained_variance_ratio
    }

    fn check_query_length(&self, query_length: usize) -> Result<()> {
        if query_length < self.config.pattern_length {
            return Err(Error::QueryShorterThanPattern {
                query_length,
                pattern_length: self.config.pattern_length,
            });
        }
        Ok(())
    }

    /// Normality score of every subsequence of length `query_length` of a
    /// series (Definition 10). Higher is more normal.
    ///
    /// When `series` is the training series the per-gap contributions cached
    /// at fit time are reused; otherwise the series is projected with the
    /// fitted embedding and mapped onto the existing graph (`Time2Path`),
    /// with unseen transitions contributing zero normality.
    pub fn normality_scores(&self, series: &TimeSeries, query_length: usize) -> Result<Vec<f64>> {
        self.check_query_length(query_length)?;
        check_finite(series)?;
        let contributions = if series.len() == self.train_len {
            // Same length as the training series: assume it is the training
            // series (exact re-projection would yield identical results).
            self.train_contributions.clone()
        } else {
            let points = self.embedding.project(series)?;
            let transitions = EdgeExtraction::map_transitions(&points, &self.nodes);
            scoring::gap_contributions(&self.graph, &transitions)
        };
        let profile =
            scoring::normality_profile(&contributions, self.config.pattern_length, query_length);
        if self.config.smooth_scores {
            Ok(scoring::smooth_profile(
                &profile,
                self.config.pattern_length,
            ))
        } else {
            Ok(profile)
        }
    }

    /// Anomaly score (in `[0, 1]`, higher = more anomalous) of every
    /// subsequence of length `query_length` of a series.
    pub fn anomaly_scores(&self, series: &TimeSeries, query_length: usize) -> Result<Vec<f64>> {
        let normality = self.normality_scores(series, query_length)?;
        Ok(scoring::anomaly_profile(&normality))
    }

    /// Returns the start offsets of the `k` most anomalous, mutually
    /// non-overlapping subsequences according to an anomaly-score profile
    /// (as produced by [`Series2Graph::anomaly_scores`]).
    pub fn top_k_anomalies(
        &self,
        anomaly_scores: &[f64],
        k: usize,
        query_length: usize,
    ) -> Vec<usize> {
        window::top_k_non_overlapping(anomaly_scores, k, query_length)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BandwidthRule;

    /// Sine series with anomalies: bursts of doubled frequency at known places.
    fn series_with_anomalies(n: usize, anomaly_starts: &[usize], anomaly_len: usize) -> TimeSeries {
        let period = 100.0;
        let mut values: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
            .collect();
        for &start in anomaly_starts {
            let end = (start + anomaly_len).min(n);
            for (i, v) in values.iter_mut().enumerate().take(end).skip(start) {
                *v = (std::f64::consts::TAU * i as f64 / (period / 3.0)).sin() * 0.8;
            }
        }
        TimeSeries::from(values)
    }

    #[test]
    fn fit_produces_nonempty_graph() {
        let series = series_with_anomalies(6000, &[3000], 150);
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        assert!(model.node_count() > 0);
        assert!(model.graph().edge_count() > 0);
        assert!(model.explained_variance_ratio() > 0.5);
        assert_eq!(model.pattern_length(), 50);
        assert_eq!(model.train_len(), 6000);
    }

    #[test]
    fn single_anomaly_is_top_ranked() {
        let anomaly_start = 4000;
        let series = series_with_anomalies(8000, &[anomaly_start], 150);
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        let scores = model.anomaly_scores(&series, 150).unwrap();
        let top = model.top_k_anomalies(&scores, 1, 150);
        assert_eq!(top.len(), 1);
        assert!(
            (anomaly_start as i64 - top[0] as i64).abs() < 200,
            "top anomaly at {} but injected at {anomaly_start}",
            top[0]
        );
    }

    #[test]
    fn recurrent_anomalies_are_all_found() {
        let starts = [2000usize, 5000, 7000];
        let series = series_with_anomalies(10_000, &starts, 150);
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        let scores = model.anomaly_scores(&series, 150).unwrap();
        let top = model.top_k_anomalies(&scores, 3, 150);
        assert_eq!(top.len(), 3);
        for &found in &top {
            assert!(
                starts
                    .iter()
                    .any(|&s| (s as i64 - found as i64).abs() < 200),
                "unexpected anomaly position {found}"
            );
        }
    }

    #[test]
    fn normal_regions_score_higher_than_anomalies() {
        let series = series_with_anomalies(8000, &[4000], 200);
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        let normality = model.normality_scores(&series, 200).unwrap();
        // Normality around the anomaly must be below normality in a normal region.
        let anomaly_score = normality[4000];
        let normal_score = normality[1000];
        assert!(
            normal_score > anomaly_score,
            "normal {normal_score} should exceed anomalous {anomaly_score}"
        );
    }

    #[test]
    fn query_length_flexibility() {
        // The same model (fixed ℓ) scores different query lengths.
        let series = series_with_anomalies(8000, &[4000], 200);
        let model = Series2Graph::fit(&series, &S2gConfig::new(50)).unwrap();
        for ql in [50usize, 100, 200, 400] {
            let scores = model.anomaly_scores(&series, ql).unwrap();
            assert_eq!(scores.len(), 8000 - ql + 1);
            if ql >= 100 {
                let top = model.top_k_anomalies(&scores, 1, ql);
                assert!(
                    (4000i64 - top[0] as i64).abs() < 2 * ql as i64,
                    "query length {ql}: top at {}",
                    top[0]
                );
            }
        }
    }

    #[test]
    fn non_finite_values_are_rejected_by_fit_and_score() {
        let clean = series_with_anomalies(4000, &[], 0);
        let model = Series2Graph::fit(&clean, &S2gConfig::new(50)).unwrap();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut values = clean.values().to_vec();
            values[1234] = bad;
            let poisoned = TimeSeries::from(values);
            assert!(matches!(
                Series2Graph::fit(&poisoned, &S2gConfig::new(50)),
                Err(Error::NonFiniteValue { index: 1234 })
            ));
            assert!(matches!(
                model.anomaly_scores(&poisoned.prefix(3000), 150),
                Err(Error::NonFiniteValue { index: 1234 })
            ));
        }
    }

    #[test]
    fn query_shorter_than_pattern_is_rejected() {
        let series = series_with_anomalies(4000, &[], 0);
        let model = Series2Graph::fit(&series, &S2gConfig::new(80)).unwrap();
        assert!(matches!(
            model.anomaly_scores(&series, 40),
            Err(Error::QueryShorterThanPattern { .. })
        ));
    }

    #[test]
    fn scoring_unseen_series_detects_unseen_anomaly() {
        // Fit on a clean prefix, score a continuation that contains an anomaly.
        let clean = series_with_anomalies(6000, &[], 0);
        let model = Series2Graph::fit(&clean, &S2gConfig::new(50)).unwrap();
        let unseen = series_with_anomalies(4000, &[2000], 150);
        let scores = model.anomaly_scores(&unseen, 150).unwrap();
        assert_eq!(scores.len(), 4000 - 150 + 1);
        let top = model.top_k_anomalies(&scores, 1, 150);
        assert!(
            (2000i64 - top[0] as i64).abs() < 250,
            "unseen anomaly found at {}",
            top[0]
        );
    }

    #[test]
    fn smoothing_toggle_changes_profile() {
        let series = series_with_anomalies(5000, &[2500], 150);
        let smooth_model =
            Series2Graph::fit(&series, &S2gConfig::new(50).with_smoothing(true)).unwrap();
        let raw_model =
            Series2Graph::fit(&series, &S2gConfig::new(50).with_smoothing(false)).unwrap();
        let s = smooth_model.normality_scores(&series, 150).unwrap();
        let r = raw_model.normality_scores(&series, 150).unwrap();
        assert_eq!(s.len(), r.len());
        assert_ne!(s, r);
    }

    #[test]
    fn bandwidth_rule_affects_node_count() {
        let series = series_with_anomalies(6000, &[3000], 150);
        let fine = Series2Graph::fit(
            &series,
            &S2gConfig::new(50).with_bandwidth(BandwidthRule::SigmaRatio(0.05)),
        )
        .unwrap();
        let coarse = Series2Graph::fit(
            &series,
            &S2gConfig::new(50).with_bandwidth(BandwidthRule::SigmaRatio(2.0)),
        )
        .unwrap();
        assert!(fine.node_count() >= coarse.node_count());
    }
}
