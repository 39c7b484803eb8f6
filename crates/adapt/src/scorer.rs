//! The adaptive streaming scorer: a [`StreamingScorer`] whose model tracks
//! slowly-shifting normal behaviour.

use std::collections::VecDeque;

use s2g_core::{AdaptationLineage, Result, Series2Graph, StreamingScorer};
use s2g_timeseries::TimeSeries;

use crate::config::AdaptConfig;
use crate::drift::{self, DriftDetector, DriftStats};
use crate::policy::{AdaptAction, AdaptivePolicy};

/// Everything one adaptive push produced: the emitted scores plus the
/// adaptation bookkeeping a serving layer reports and acts on.
#[derive(Debug, Clone)]
pub struct AdaptOutcome {
    /// Emitted `(window_start, normality)` pairs, with starts in *global*
    /// stream coordinates (monotonic across refits).
    pub emitted: Vec<(usize, f64)>,
    /// Cumulative accepted decay updates since the scorer was built.
    pub updates: u64,
    /// Cumulative successful refits since the scorer was built.
    pub refits: u64,
    /// The last action the policy decided during this push
    /// ([`AdaptAction::Freeze`] when no window was emitted).
    pub action: AdaptAction,
    /// Drift statistics after this push.
    pub drift: DriftStats,
    /// An adapted snapshot due for publication (lineage stamped), produced
    /// when the publish interval elapsed or a refit completed. The caller
    /// (typically the engine) registers and persists it; `None` otherwise.
    pub snapshot: Option<Series2Graph>,
}

/// An incrementally-adapting scorer over a fitted Series2Graph model.
///
/// Wraps a [`StreamingScorer`] and, per emitted window, runs the
/// [`AdaptivePolicy`]: confirmed-normal windows (normality at or above the
/// configured quantile of the *training* score distribution) reinforce
/// their newest transition with decayed reweighting; a drifting score
/// distribution triggers a refit from the retained recent history. All
/// decisions are deterministic in the stream prefix (see the
/// [crate docs](crate) for the determinism contract).
#[derive(Debug, Clone)]
pub struct AdaptiveScorer {
    scorer: StreamingScorer,
    config: AdaptConfig,
    policy: AdaptivePolicy,
    drift: DriftDetector,
    /// Normality value a window must reach to be confirmed-normal.
    threshold: f64,
    /// Checksum of the model this session originally opened with.
    parent_checksum: u64,
    /// Cumulative accepted updates / successful refits.
    updates: u64,
    refits: u64,
    /// Updates at the time of the last published snapshot.
    published_at_update: u64,
    /// Global stream position where the inner scorer's coordinates start
    /// (advances on refit rebases).
    offset: usize,
    /// Recent raw points retained for refits (empty when disabled).
    recent: VecDeque<f64>,
    /// Consumed points since the last refit (attempt), for the cooldown.
    points_since_refit: u64,
    /// A refit completed since the last publication: publish regardless of
    /// the update interval.
    force_publish: bool,
}

impl AdaptiveScorer {
    /// Creates an adaptive scorer over a fitted model.
    ///
    /// `parent_checksum` is the content checksum of `model` as computed by
    /// the persistence codec; it is stamped into the lineage of every
    /// snapshot this scorer publishes. Callers without a codec at hand may
    /// pass `0`.
    ///
    /// # Errors
    /// [`s2g_core::Error::InvalidConfig`] for a bad [`AdaptConfig`];
    /// otherwise whatever [`StreamingScorer::new`] rejects.
    pub fn new(
        model: Series2Graph,
        query_length: usize,
        config: AdaptConfig,
        parent_checksum: u64,
    ) -> Result<Self> {
        config.validate(query_length)?;
        // One profile computation feeds both the acceptance threshold and
        // the drift baseline.
        let baseline = drift::training_profile(&model, query_length);
        let threshold = drift::acceptance_threshold(&baseline, config.normal_quantile);
        let detector =
            DriftDetector::from_profile(&baseline, config.drift_window, config.drift_threshold);
        let policy = AdaptivePolicy::from_config(&config);
        let scorer = StreamingScorer::new(model, query_length)?;
        Ok(AdaptiveScorer {
            scorer,
            policy,
            drift: detector,
            threshold,
            parent_checksum,
            updates: 0,
            refits: 0,
            published_at_update: 0,
            offset: 0,
            recent: VecDeque::with_capacity(config.refit_buffer),
            points_since_refit: 0,
            force_publish: false,
            config,
        })
    }

    /// The current (possibly adapted) model.
    pub fn model(&self) -> &Series2Graph {
        self.scorer.model()
    }

    /// The configuration this scorer adapts under.
    pub fn config(&self) -> &AdaptConfig {
        &self.config
    }

    /// Total points consumed, across refits.
    pub fn consumed(&self) -> usize {
        self.offset + self.scorer.consumed()
    }

    /// Cumulative accepted decay updates.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Cumulative successful refits.
    pub fn refits(&self) -> u64 {
        self.refits
    }

    /// Current drift statistics.
    pub fn drift_stats(&self) -> DriftStats {
        self.drift.stats()
    }

    /// The lineage an adapted snapshot published right now would carry.
    pub fn lineage(&self) -> AdaptationLineage {
        AdaptationLineage {
            parent_checksum: self.parent_checksum,
            update_count: self.updates,
            decay_lambda: self.config.lambda,
        }
    }

    /// A lineage-stamped clone of the current model — the publication
    /// payload for registries and stores.
    pub fn snapshot(&self) -> Series2Graph {
        let mut model = self.scorer.model().clone();
        model.set_lineage(Some(self.lineage()));
        model
    }

    /// Appends a batch of points, adapting along the way. Returns the
    /// emitted windows plus the adaptation outcome (see [`AdaptOutcome`]).
    ///
    /// # Errors
    /// Propagates scoring errors from the inner scorer; the model is only
    /// ever mutated *after* the triggering window was scored, so a failed
    /// push leaves no half-applied update.
    pub fn push_batch(&mut self, values: &[f64]) -> Result<AdaptOutcome> {
        let mut emitted = Vec::new();
        let mut action = AdaptAction::Freeze;
        for &value in values {
            if let Some((start, score, decided)) = self.push_one(value)? {
                emitted.push((start, score));
                action = decided;
            }
        }
        let snapshot = if self.force_publish || self.publication_due() {
            self.force_publish = false;
            self.published_at_update = self.updates;
            Some(self.snapshot())
        } else {
            None
        };
        Ok(AdaptOutcome {
            emitted,
            updates: self.updates,
            refits: self.refits,
            action,
            drift: self.drift.stats(),
            snapshot,
        })
    }

    fn updates_since_publish(&self) -> u64 {
        self.updates - self.published_at_update
    }

    fn publication_due(&self) -> bool {
        self.config.publish_interval > 0
            && self.updates_since_publish() >= self.config.publish_interval
    }

    /// Consumes one point: score first (against the pre-update weights),
    /// then decide and apply the adaptation action. Returns the emitted
    /// window (global coordinates) and the decided action, if any.
    fn push_one(&mut self, value: f64) -> Result<Option<(usize, f64, AdaptAction)>> {
        if self.config.refit_buffer > 0 {
            self.recent.push_back(value);
            while self.recent.len() > self.config.refit_buffer {
                self.recent.pop_front();
            }
        }
        self.points_since_refit += 1;

        let Some((start, score)) = self.scorer.push(value)? else {
            return Ok(None);
        };
        let global_start = self.offset + start;
        let warmed = self.scorer.is_warmed_up();
        if warmed {
            self.drift.observe(score);
        }

        let confirmed_normal = warmed && score >= self.threshold;
        let buffer_full = self.recent.len() >= self.config.refit_buffer;
        let action = self.policy.decide(
            &self.drift.stats(),
            confirmed_normal,
            self.points_since_refit,
            self.config.refit_buffer > 0 && buffer_full,
        );
        match action {
            AdaptAction::Freeze => {}
            AdaptAction::DecayUpdate => {
                if self
                    .scorer
                    .reweight_last_transition(self.config.lambda)?
                    .is_some()
                {
                    self.updates += 1;
                }
            }
            AdaptAction::ScheduleRefit => {
                // Cooldown restarts whether or not the refit succeeded, so
                // a degenerate recent window cannot hot-loop full refits.
                self.points_since_refit = 0;
                self.try_refit()?;
            }
        }
        Ok(Some((global_start, score, action)))
    }

    /// Refits from the retained recent history and rebases the scorer onto
    /// the new model: the refit buffer is replayed silently so the scorer
    /// resumes warm, and subsequent windows continue the global
    /// coordinates without a gap. A refit that fails (e.g. a degenerate
    /// recent window) leaves the current model in place and adaptation
    /// running.
    fn try_refit(&mut self) -> Result<bool> {
        let recent: Vec<f64> = self.recent.iter().copied().collect();
        let series = TimeSeries::from(recent);
        let total_consumed = self.consumed();
        let Ok(mut model) = Series2Graph::fit(&series, self.scorer.model().config()) else {
            return Ok(false);
        };
        model.set_lineage(Some(AdaptationLineage {
            parent_checksum: self.parent_checksum,
            update_count: self.updates,
            decay_lambda: self.config.lambda,
        }));
        let query_length = self.scorer.query_length();
        let mut scorer = StreamingScorer::new(model, query_length)?;
        for &v in &self.recent {
            // Replay the retained history to warm the rebased scorer;
            // its emissions duplicate already-reported windows, so they
            // are discarded.
            let _ = scorer.push(v)?;
        }
        self.offset = total_consumed - self.recent.len();
        let baseline = drift::training_profile(scorer.model(), query_length);
        self.drift = DriftDetector::from_profile(
            &baseline,
            self.config.drift_window,
            self.config.drift_threshold,
        );
        self.threshold = drift::acceptance_threshold(&baseline, self.config.normal_quantile);
        self.scorer = scorer;
        self.refits += 1;
        // A refit is always worth publishing immediately.
        self.force_publish = true;
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s2g_core::S2gConfig;

    fn sine(n: usize, period: f64) -> Vec<f64> {
        (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
            .collect()
    }

    fn fitted(values: &[f64]) -> Series2Graph {
        Series2Graph::fit(&TimeSeries::from(values.to_vec()), &S2gConfig::new(50)).unwrap()
    }

    #[test]
    fn training_like_stream_accepts_updates_without_drift() {
        let train = sine(4000, 100.0);
        let model = fitted(&train);
        let mut scorer = AdaptiveScorer::new(model, 150, AdaptConfig::default(), 0xabc).unwrap();
        let outcome = scorer.push_batch(&sine(2000, 100.0)).unwrap();
        assert_eq!(outcome.emitted.len(), 2000 - 150 + 1);
        assert!(outcome.updates > 0);
        assert_eq!(outcome.refits, 0);
        assert!(!outcome.drift.drifting);
        assert_eq!(scorer.consumed(), 2000);
        // Lineage previews the publication metadata.
        let lineage = scorer.lineage();
        assert_eq!(lineage.parent_checksum, 0xabc);
        assert_eq!(lineage.update_count, outcome.updates);
    }

    #[test]
    fn snapshots_publish_on_the_configured_interval() {
        let train = sine(4000, 100.0);
        let model = fitted(&train);
        let config = AdaptConfig::default().with_publish_interval(64);
        let mut scorer = AdaptiveScorer::new(model, 150, config, 7).unwrap();
        let outcome = scorer.push_batch(&sine(1500, 100.0)).unwrap();
        assert!(outcome.updates >= 64);
        let snapshot = outcome.snapshot.expect("publish interval elapsed");
        let lineage = snapshot.lineage().unwrap();
        assert_eq!(lineage.parent_checksum, 7);
        assert!(lineage.update_count > 0);
        assert_eq!(lineage.decay_lambda, scorer.config().lambda);
        // A pristine fit carries no lineage; the snapshot does.
        assert!(fitted(&train).lineage().is_none());
    }

    #[test]
    fn distribution_shift_triggers_refit_and_rebases_coordinates() {
        let train = sine(4000, 100.0);
        let model = fitted(&train);
        let config = AdaptConfig::default()
            .with_drift_window(64)
            .with_drift_threshold(0.8)
            .with_refit_buffer(1200)
            .with_refit_cooldown(400);
        let mut scorer = AdaptiveScorer::new(model, 150, config, 1).unwrap();
        // Warm on training-like data, then switch to a different period:
        // the old graph no longer matches, scores collapse, drift fires.
        let mut stream = sine(800, 100.0);
        stream.extend(sine(4000, 61.0));
        let outcome = scorer.push_batch(&stream).unwrap();
        assert!(outcome.refits >= 1, "drift must schedule a refit");
        assert!(outcome.snapshot.is_some(), "a refit publishes immediately");
        // Emitted starts stay strictly monotonic across the rebase.
        for pair in outcome.emitted.windows(2) {
            assert_eq!(pair[1].0, pair[0].0 + 1);
        }
        assert_eq!(outcome.emitted.last().unwrap().0, stream.len() - 150);
        // After the refit the new-normal stream is confirmed normal again.
        let after = scorer.push_batch(&sine(500, 61.0)).unwrap();
        assert!(after.updates > outcome.updates);
    }

    #[test]
    fn lambda_zero_never_touches_the_model() {
        let train = sine(3000, 100.0);
        let model = fitted(&train);
        let config = AdaptConfig::default().with_lambda(0.0);
        let mut adaptive = AdaptiveScorer::new(model.clone(), 150, config, 0).unwrap();
        let mut frozen = StreamingScorer::new(model, 150).unwrap();
        let stream = sine(1000, 103.0);
        let outcome = adaptive.push_batch(&stream).unwrap();
        let reference = frozen.push_batch(&stream).unwrap();
        assert_eq!(outcome.updates, 0);
        assert_eq!(outcome.emitted.len(), reference.len());
        for (a, b) in outcome.emitted.iter().zip(&reference) {
            assert_eq!(a.0, b.0);
            assert_eq!(a.1.to_bits(), b.1.to_bits(), "λ=0 must stay bit-identical");
        }
    }
}
