//! Streaming scoring against a fixed Series2Graph model.
//!
//! The paper lists streaming operation as future work; this module provides
//! the natural building block for it: a [`StreamingScorer`] that owns a
//! fitted [`Series2Graph`] model and consumes points one at a time (or in
//! batches), emitting the normality score of every completed window of the
//! configured query length. Internally it keeps at most `2ℓ` raw points and
//! the last `ℓq − ℓ` gap contributions, so memory is constant regardless
//! of how long the stream runs, and each appended point costs `O(ℓ)`: one
//! window's rolling sums, one projection and one node assignment.

use std::collections::VecDeque;

use crate::error::{Error, Result};
use crate::model::Series2Graph;
use crate::scoring;

/// Incremental scorer over a fixed, already fitted Series2Graph model.
#[derive(Debug, Clone)]
pub struct StreamingScorer {
    model: Series2Graph,
    query_length: usize,
    /// The most recent raw points: the newest ℓ are its tail. Holds at most
    /// 2ℓ points; the oldest ℓ are dropped when it is full, so each push
    /// moves O(1) points on average.
    buffer: Vec<f64>,
    /// Rolling sums of the newest window, reused by every push.
    conv: Vec<f64>,
    /// Rolling buffer of per-gap normality contributions (bounded).
    contributions: VecDeque<f64>,
    /// Exact sum of the `contributions` entries that are non-negative
    /// integers below 2⁵³ (see [`is_count`]); 128 bits cannot overflow
    /// whatever the window length.
    count_sum: u128,
    /// Number of `contributions` entries that are not such integers.
    non_counts: usize,
    /// Node assigned to the most recent embedded point, if any.
    last_node: Option<usize>,
    /// The graph transition completed by the most recent push, when both of
    /// its endpoints were assignable (`None` otherwise). This is the hook
    /// online adaptation reinforces through
    /// [`StreamingScorer::reweight_last_transition`].
    last_transition: Option<(usize, usize)>,
    /// Whether at least one point has been embedded (a gap completes on
    /// every embedded point after the first).
    embedded_any: bool,
    /// Total number of points consumed so far.
    consumed: usize,
}

impl StreamingScorer {
    /// Creates a streaming scorer emitting scores for windows of
    /// `query_length` points.
    ///
    /// # Errors
    /// [`Error::QueryShorterThanPattern`] when `query_length < ℓ`.
    pub fn new(model: Series2Graph, query_length: usize) -> Result<Self> {
        if query_length < model.pattern_length() {
            return Err(Error::QueryShorterThanPattern {
                query_length,
                pattern_length: model.pattern_length(),
            });
        }
        Ok(Self {
            buffer: Vec::with_capacity(2 * model.pattern_length()),
            model,
            query_length,
            conv: Vec::new(),
            contributions: VecDeque::new(),
            count_sum: 0,
            non_counts: 0,
            last_node: None,
            last_transition: None,
            embedded_any: false,
            consumed: 0,
        })
    }

    /// The model scores are computed against. Frozen unless the adaptation
    /// hooks ([`StreamingScorer::reweight_last_transition`]) are used.
    pub fn model(&self) -> &Series2Graph {
        &self.model
    }

    /// The query (window) length `ℓq` scores are emitted for.
    pub fn query_length(&self) -> usize {
        self.query_length
    }

    /// Number of points consumed so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }

    /// The graph transition completed by the most recent push, when both of
    /// its endpoints mapped onto nodes (`None` right after a push whose gap
    /// had an unassignable endpoint, or before any gap completed).
    pub fn last_transition(&self) -> Option<(usize, usize)> {
        self.last_transition
    }

    /// Mutable-weight update hook for online adaptation: applies one
    /// decayed edge update (see [`Series2Graph::reweight_transition`]) to
    /// the transition completed by the most recent push, on this scorer's
    /// own model copy. Scores already emitted are unaffected; subsequent
    /// pushes read the updated weights. With `λ = 0`, no transition
    /// pending, or a source node without outgoing mass, this is an exact
    /// no-op and the frozen path stays bit-identical.
    ///
    /// Returns the touched edge and the reinforcement weight applied, or
    /// `None` when nothing was updated.
    ///
    /// # Errors
    /// Propagates [`Error`] for a λ outside `[0, 1)`.
    pub fn reweight_last_transition(&mut self, lambda: f64) -> Result<Option<(usize, usize, f64)>> {
        // Validate λ up front, so an out-of-range value fails regardless
        // of whether a transition happens to be pending.
        if !(0.0..1.0).contains(&lambda) {
            return Err(s2g_graph::Error::InvalidWeight(lambda).into());
        }
        let Some((from, to)) = self.last_transition else {
            return Ok(None);
        };
        if lambda == 0.0 {
            return Ok(None);
        }
        let applied = self.model.reweight_transition(from, to, lambda)?;
        if applied == 0.0 {
            return Ok(None);
        }
        Ok(Some((from, to, applied)))
    }

    /// Appends one point. Returns `Some((window_start, normality))` once a
    /// full window of `query_length` points has been observed: the normality
    /// score of the window *ending* at this point (i.e. starting at
    /// `consumed − query_length`).
    pub fn push(&mut self, value: f64) -> Result<Option<(usize, f64)>> {
        let ell = self.model.pattern_length();
        if self.buffer.len() == 2 * ell {
            // Keep just enough raw history to embed the newest pattern.
            self.buffer.drain(..ell);
        }
        self.buffer.push(value);
        self.consumed += 1;

        // Embed the newest pattern (the last ℓ points) once available.
        if self.buffer.len() >= ell {
            let window = &self.buffer[self.buffer.len() - ell..];
            let point = self
                .model
                .embedding()
                .project_window(window, &mut self.conv)?;
            let node = self.model.node_set().assign(point);
            if self.embedded_any {
                // A trajectory gap completes on *every* embedded point
                // after the first, so the deque stays aligned with window
                // positions: exactly one entry per gap. A transition with
                // an unassignable endpoint contributes zero, mirroring how
                // offline scoring treats unseen transitions.
                let contribution = match (self.last_node, node) {
                    (Some(prev), Some(current)) => {
                        self.last_transition = Some((prev, current));
                        // Adaptation reweights the graph's rows in place,
                        // so this read always sees the current weights.
                        self.model.graph().contribution(prev, current)
                    }
                    _ => {
                        self.last_transition = None;
                        0.0
                    }
                };
                self.track(contribution, true);
                self.contributions.push_back(contribution);
                let max_gaps = Self::gaps_per_window(self.query_length, ell);
                while self.contributions.len() > max_gaps {
                    if let Some(old) = self.contributions.pop_front() {
                        self.track(old, false);
                    }
                }
            }
            self.embedded_any = true;
            if node.is_some() {
                self.last_node = node;
            }
        }

        if self.consumed < self.query_length {
            return Ok(None);
        }
        let start = self.consumed - self.query_length;
        let gaps_needed = Self::gaps_per_window(self.query_length, ell);
        let total = self.window_sum();
        if self.contributions.len() < gaps_needed {
            // Partial window: only possible while the stream is still warming
            // up (e.g. the zero-gap first window when ℓq = ℓ) — once warm the
            // deque always holds exactly one entry per gap. Dividing the
            // partial sum by the full ℓq would bias these windows towards
            // "anomalous", so normalise by the effective covered length
            // instead, and never silently pretend the window was complete.
            if self.contributions.is_empty() {
                return Ok(Some((start, 0.0)));
            }
            let effective = (self.contributions.len() + ell).min(self.query_length);
            return Ok(Some((start, total / effective as f64)));
        }
        Ok(Some((start, total / self.query_length as f64)))
    }

    /// Adds (`entering`) or removes one contribution from the running
    /// integer sum, or from the count of entries outside it.
    fn track(&mut self, contribution: f64, entering: bool) {
        match (is_count(contribution), entering) {
            (true, true) => self.count_sum += contribution as u128,
            (true, false) => self.count_sum -= contribution as u128,
            (false, true) => self.non_counts += 1,
            (false, false) => self.non_counts -= 1,
        }
    }

    /// The in-order sum of the contribution deque. Non-negative integers
    /// below 2⁵³ sum exactly in any order, so while every entry is one and
    /// their total stays below 2⁵³, the running integer sum *is* the
    /// in-order `f64` sum — the case for fitted and decoded models, whose
    /// weights are counts. Otherwise (adapted weights) the deque is
    /// re-summed in order.
    fn window_sum(&self) -> f64 {
        if self.non_counts == 0 && self.count_sum < EXACT_LIMIT {
            self.count_sum as f64
        } else {
            self.contributions.iter().sum()
        }
    }

    /// Number of gap contributions a complete window of `query_length` spans
    /// (`ℓq − ℓ`, with a floor of one gap when `ℓq = ℓ`, mirroring
    /// [`scoring::normality_profile`]).
    fn gaps_per_window(query_length: usize, pattern_length: usize) -> usize {
        query_length.saturating_sub(pattern_length).max(1)
    }

    /// `true` once the contribution buffer spans a complete window, i.e. the
    /// next emitted score covers all `ℓq − ℓ` gaps of its window. Before this
    /// point [`StreamingScorer::push`] emits explicitly partial scores
    /// normalised by the covered length only.
    pub fn is_warmed_up(&self) -> bool {
        self.contributions.len()
            >= Self::gaps_per_window(self.query_length, self.model.pattern_length())
    }

    /// Appends a batch of points and returns the emitted `(start, normality)`
    /// pairs, in order.
    pub fn push_batch(&mut self, values: &[f64]) -> Result<Vec<(usize, f64)>> {
        let mut out = Vec::new();
        for &v in values {
            if let Some(emitted) = self.push(v)? {
                out.push(emitted);
            }
        }
        Ok(out)
    }

    /// Converts the emitted normality scores of a batch into anomaly scores
    /// in `[0, 1]` (helper mirroring [`Series2Graph::anomaly_scores`]).
    pub fn to_anomaly_scores(normality: &[(usize, f64)]) -> Vec<(usize, f64)> {
        let values: Vec<f64> = normality.iter().map(|&(_, s)| s).collect();
        let anomaly = scoring::anomaly_profile(&values);
        normality
            .iter()
            .map(|&(start, _)| start)
            .zip(anomaly)
            .collect()
    }
}

/// 2⁵³: every integer below it is exactly representable as an `f64`.
const EXACT_LIMIT: u128 = 1 << 53;

/// `true` for a non-negative integer below 2⁵³ (`-0.0` excluded: an
/// in-order sum of `-0.0` entries keeps the sign, an integer sum does not).
fn is_count(c: f64) -> bool {
    c.is_sign_positive() && c < EXACT_LIMIT as f64 && c.fract() == 0.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::S2gConfig;
    use s2g_timeseries::TimeSeries;

    fn sine_with_burst(n: usize, burst_at: usize, burst_len: usize) -> Vec<f64> {
        let mut values: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
            .collect();
        let end = (burst_at + burst_len).min(n);
        for (i, v) in values.iter_mut().enumerate().take(end).skip(burst_at) {
            *v = 0.8 * (std::f64::consts::TAU * i as f64 / 24.0).sin();
        }
        values
    }

    fn fitted_model() -> Series2Graph {
        let train = TimeSeries::from(sine_with_burst(6_000, 0, 0));
        Series2Graph::fit(&train, &S2gConfig::new(50)).unwrap()
    }

    #[test]
    fn rejects_too_short_query() {
        let model = fitted_model();
        assert!(matches!(
            StreamingScorer::new(model, 10),
            Err(Error::QueryShorterThanPattern { .. })
        ));
    }

    #[test]
    fn emits_one_score_per_point_after_warmup() {
        let model = fitted_model();
        let mut scorer = StreamingScorer::new(model, 200).unwrap();
        let stream = sine_with_burst(1_000, 0, 0);
        let emitted = scorer.push_batch(&stream).unwrap();
        assert_eq!(emitted.len(), 1_000 - 200 + 1);
        assert_eq!(emitted[0].0, 0);
        assert_eq!(emitted.last().unwrap().0, 800);
        assert_eq!(scorer.consumed(), 1_000);
    }

    #[test]
    fn memory_stays_bounded() {
        let model = fitted_model();
        let mut scorer = StreamingScorer::new(model, 150).unwrap();
        for &v in sine_with_burst(5_000, 0, 0).iter() {
            scorer.push(v).unwrap();
        }
        assert!(scorer.buffer.len() <= 150 + 2 * 50);
        assert!(scorer.contributions.len() <= 100);
    }

    #[test]
    fn anomalous_burst_lowers_streamed_normality() {
        let model = fitted_model();
        let mut scorer = StreamingScorer::new(model, 150).unwrap();
        let stream = sine_with_burst(3_000, 1_500, 200);
        let emitted = scorer.push_batch(&stream).unwrap();
        // Mean normality of windows fully inside the burst vs fully normal windows.
        let burst: Vec<f64> = emitted
            .iter()
            .filter(|(start, _)| *start >= 1_480 && *start < 1_560)
            .map(|&(_, s)| s)
            .collect();
        let normal: Vec<f64> = emitted
            .iter()
            .filter(|(start, _)| *start >= 400 && *start < 900)
            .map(|&(_, s)| s)
            .collect();
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        assert!(
            mean(&burst) < mean(&normal),
            "burst normality {} should be below normal {}",
            mean(&burst),
            mean(&normal)
        );
    }

    #[test]
    fn streamed_scores_track_batch_scores() {
        // The streaming scorer is an approximation of the offline scorer
        // (trailing window instead of centred smoothing); both must agree on
        // which half of the series is anomalous.
        let model = fitted_model();
        let stream = sine_with_burst(2_000, 1_200, 200);
        let offline = model
            .normality_scores(&TimeSeries::from(stream.clone()), 150)
            .unwrap();
        let mut scorer = StreamingScorer::new(model, 150).unwrap();
        let streamed = scorer.push_batch(&stream).unwrap();
        let offline_burst_is_low = offline[1_200] < offline[500];
        let streamed_map: std::collections::HashMap<usize, f64> = streamed.into_iter().collect();
        let streamed_burst_is_low = streamed_map[&1_250] < streamed_map[&500];
        assert_eq!(offline_burst_is_low, streamed_burst_is_low);
        assert!(offline_burst_is_low);
    }

    #[test]
    fn partial_windows_are_explicit_not_complete() {
        // With ℓq = ℓ the first emitted window spans zero completed gaps: the
        // old guard (`len < gaps_needed.min(1)`, i.e. `< 1`) emitted such
        // under-filled windows as if they were complete. They must now come
        // out as explicit partials (0.0 for an empty buffer) and the scorer
        // must only report warmed-up once a full window of gaps is buffered.
        let model = fitted_model(); // ℓ = 50
        let mut scorer = StreamingScorer::new(model, 50).unwrap();
        assert!(!scorer.is_warmed_up());
        let stream = sine_with_burst(300, 0, 0);
        let emitted = scorer.push_batch(&stream).unwrap();
        assert_eq!(emitted.len(), 300 - 50 + 1);
        assert_eq!(
            emitted[0],
            (0, 0.0),
            "zero-gap first window must be an explicit partial"
        );
        assert!(scorer.is_warmed_up());
        // Complete windows on training-like data carry genuine path weight.
        assert!(emitted.iter().skip(1).any(|&(_, s)| s > 0.0));
    }

    #[test]
    fn last_transition_tracks_completed_gaps() {
        let model = fitted_model();
        let mut scorer = StreamingScorer::new(model, 100).unwrap();
        assert_eq!(scorer.last_transition(), None);
        let stream = sine_with_burst(500, 0, 0);
        scorer.push_batch(&stream).unwrap();
        // On training-like data the newest gap maps onto real graph nodes.
        let (from, to) = scorer.last_transition().unwrap();
        assert!(scorer.model().graph().contains_node(from));
        assert!(scorer.model().graph().contains_node(to));
    }

    #[test]
    fn reweight_hook_mutates_only_future_scores() {
        let model = fitted_model();
        let stream = sine_with_burst(1_200, 0, 0);
        let mut frozen = StreamingScorer::new(model.clone(), 150).unwrap();
        let mut adaptive = StreamingScorer::new(model, 150).unwrap();

        let a = frozen.push_batch(&stream[..600]).unwrap();
        let b = adaptive.push_batch(&stream[..600]).unwrap();
        assert_eq!(a, b, "identical before any update");

        // λ = 0 is an exact no-op; a real λ changes the model's weights.
        assert!(adaptive.reweight_last_transition(0.0).unwrap().is_none());
        let (from, to, applied) = adaptive.reweight_last_transition(0.2).unwrap().unwrap();
        assert!(applied > 0.0);
        let adapted_strength = adaptive.model().graph().out_strength(from);
        let frozen_strength = frozen.model().graph().out_strength(from);
        assert!(
            (adapted_strength - frozen_strength).abs() < 1e-9 * frozen_strength.max(1.0),
            "reweighting preserves out-strength: {adapted_strength} vs {frozen_strength}"
        );
        // The touched edge lands exactly on the EWMA update equation
        // w' = (1 − λ)·w + λ·strength.
        let old_weight = frozen.model().graph().edge_weight(from, to).unwrap_or(0.0);
        let expected = 0.8 * old_weight + 0.2 * frozen_strength;
        let new_weight = adaptive.model().graph().edge_weight(from, to).unwrap();
        assert!(
            (new_weight - expected).abs() < 1e-9 * expected.max(1.0),
            "edge weight {new_weight} should be {expected}"
        );
        assert!(
            adaptive.reweight_last_transition(1.5).is_err(),
            "λ outside [0,1) is rejected"
        );

        // Frozen and adapted scorers may now diverge on the continuation,
        // but both keep emitting one score per point.
        let a = frozen.push_batch(&stream[600..]).unwrap();
        let b = adaptive.push_batch(&stream[600..]).unwrap();
        assert_eq!(a.len(), b.len());
    }

    #[test]
    fn anomaly_conversion_helper() {
        let normality = vec![(0usize, 10.0), (1, 0.0), (2, 5.0)];
        let anomaly = StreamingScorer::to_anomaly_scores(&normality);
        assert_eq!(anomaly.len(), 3);
        assert_eq!(anomaly[0], (0, 0.0));
        assert_eq!(anomaly[1], (1, 1.0));
        assert!((anomaly[2].1 - 0.5).abs() < 1e-12);
    }
}
