//! Score-distribution drift detection against the training baseline.

use std::collections::VecDeque;

use s2g_core::{scoring, Series2Graph};

/// Lower bound on the σ scale of the shift statistic, as a fraction of the
/// absolute baseline mean. A clean periodic training series produces a
/// near-constant window profile (σ orders of magnitude below the mean),
/// which would make *any* deviation read as astronomically many σ — and
/// the decayed updates themselves induce a small `O(λ)` dip on perfectly
/// stationary data (the EWMA lags the edge it is about to traverse). The
/// floor keeps both effects comfortably below a threshold of ~1 while
/// genuine drift, which collapses scores toward zero, still registers as
/// tens of units.
pub const SCALE_FLOOR_FRACTION: f64 = 0.05;

/// Snapshot of the drift detector's state, reported with every adaptive
/// push so serving layers can expose it on the wire.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftStats {
    /// Total complete-window scores observed since the detector was built
    /// (or rebuilt after a refit).
    pub observed: u64,
    /// Number of scores currently in the rolling window.
    pub window_len: usize,
    /// Mean normality over the rolling window (`0` while empty).
    pub live_mean: f64,
    /// Mean normality of the training baseline.
    pub baseline_mean: f64,
    /// Standard deviation of the training baseline.
    pub baseline_std: f64,
    /// `(baseline_mean − live_mean) / scale` — the one-sided shift
    /// statistic, where `scale` is the baseline standard deviation floored
    /// at [`SCALE_FLOOR_FRACTION`] of the absolute baseline mean. Positive
    /// when live windows score *below* the training baseline (their paths
    /// no longer match the graph), negative when they score above it
    /// (e.g. because adaptation reinforced them). `0` until the rolling
    /// window is full.
    pub shift: f64,
    /// Whether the shift exceeds the configured threshold.
    pub drifting: bool,
}

/// Detects when the live window-score distribution has shifted away from
/// the training baseline.
///
/// The baseline is the model's own training normality profile (the exact
/// scores the training series' windows would stream at), summarised as a
/// mean and standard deviation. The live side is a rolling window of the
/// most recent emitted scores. The statistic is the **one-sided** mean
/// shift in baseline-σ units: only a *collapse* of normality below the
/// baseline counts as drift, because that is what unseen behaviour looks
/// like (paths using rare or absent edges score near zero), whereas
/// scores rising above the baseline are the expected signature of the
/// adaptation's own reinforcement. Anomalies are brief by definition
/// (Section 1 of the paper), so a full window of depressed scores
/// indicates drift rather than an anomaly.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    baseline_mean: f64,
    baseline_std: f64,
    threshold: f64,
    capacity: usize,
    window: VecDeque<f64>,
    /// Running sum of the rolling window, maintained incrementally so
    /// [`DriftDetector::stats`] is O(1) per call instead of re-summing
    /// the window on every emitted point.
    sum: f64,
    observed: u64,
}

impl DriftDetector {
    /// Builds a detector from explicit baseline statistics.
    pub fn new(baseline_mean: f64, baseline_std: f64, capacity: usize, threshold: f64) -> Self {
        DriftDetector {
            baseline_mean,
            baseline_std,
            threshold,
            capacity: capacity.max(1),
            window: VecDeque::with_capacity(capacity.max(1)),
            sum: 0.0,
            observed: 0,
        }
    }

    /// Builds a detector whose baseline is a model's training window
    /// profile — the score distribution the training series would produce
    /// if streamed. A caller that also needs the profile for its
    /// acceptance threshold computes it once.
    pub fn from_profile(profile: &[f64], capacity: usize, threshold: f64) -> Self {
        let (mean, std) = mean_std(profile);
        DriftDetector::new(mean, std, capacity, threshold)
    }

    /// Feeds one emitted complete-window normality score.
    pub fn observe(&mut self, score: f64) {
        self.observed += 1;
        self.window.push_back(score);
        self.sum += score;
        while self.window.len() > self.capacity {
            if let Some(evicted) = self.window.pop_front() {
                self.sum -= evicted;
            }
        }
    }

    /// Current drift statistics. The shift reads `0` (and `drifting` stays
    /// `false`) until the rolling window has filled once, so a handful of
    /// early windows can never flag drift.
    pub fn stats(&self) -> DriftStats {
        let window_len = self.window.len();
        let live_mean = if window_len == 0 {
            0.0
        } else {
            self.sum / window_len as f64
        };
        let full = window_len >= self.capacity;
        let scale = self
            .baseline_std
            .max(SCALE_FLOOR_FRACTION * self.baseline_mean.abs())
            .max(f64::EPSILON);
        let shift = if full {
            (self.baseline_mean - live_mean) / scale
        } else {
            0.0
        };
        DriftStats {
            observed: self.observed,
            window_len,
            live_mean,
            baseline_mean: self.baseline_mean,
            baseline_std: self.baseline_std,
            shift,
            drifting: full && shift > self.threshold,
        }
    }
}

/// The window-normality profile the training series streams at: the same
/// per-gap contributions and normalisation the [`s2g_core::StreamingScorer`]
/// uses, evaluated over the cached training trajectory.
pub(crate) fn training_profile(model: &Series2Graph, query_length: usize) -> Vec<f64> {
    scoring::normality_profile(
        model.train_contributions(),
        model.pattern_length(),
        query_length,
    )
}

/// Mean and (population) standard deviation of a profile.
pub(crate) fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// The confirmed-normal acceptance threshold: the `q`-quantile of the
/// training profile minus one robust σ (the same floored scale the drift
/// statistic uses). The slack keeps the small `O(λ)` dip that the decayed
/// updates induce on stationary data — and the modest dips of *slow* drift
/// — inside the acceptance region, while anomalies, whose scores collapse
/// by many robust σ, stay firmly outside it.
pub(crate) fn acceptance_threshold(profile: &[f64], q: f64) -> f64 {
    let (mean, std) = mean_std(profile);
    let scale = std.max(SCALE_FLOOR_FRACTION * mean.abs()).max(f64::EPSILON);
    quantile(profile, q) - scale
}

/// The `q`-quantile of a profile (nearest-rank on the sorted copy) —
/// deterministic, no interpolation.
pub(crate) fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() - 1) as f64 * q).floor() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_and_mean_std_basics() {
        let values = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&values, 0.0), 1.0);
        assert_eq!(quantile(&values, 0.5), 3.0);
        // Nearest-rank with floor: the top quantile sits one below the max.
        assert_eq!(quantile(&values, 0.9), 4.0);
        let (mean, std) = mean_std(&values);
        assert!((mean - 3.0).abs() < 1e-12);
        assert!((std - 2.0f64.sqrt()).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }

    #[test]
    fn stationary_scores_do_not_drift() {
        let mut detector = DriftDetector::new(10.0, 2.0, 16, 1.0);
        for i in 0..100 {
            detector.observe(10.0 + if i % 2 == 0 { 0.5 } else { -0.5 });
        }
        let stats = detector.stats();
        assert_eq!(stats.window_len, 16);
        assert!(stats.shift < 1.0);
        assert!(!stats.drifting);
    }

    #[test]
    fn shifted_scores_flag_drift_only_once_window_is_full() {
        let mut detector = DriftDetector::new(10.0, 2.0, 16, 1.0);
        for _ in 0..15 {
            detector.observe(2.0); // 4σ below baseline
        }
        assert!(
            !detector.stats().drifting,
            "a partial window must not flag drift"
        );
        detector.observe(2.0);
        let stats = detector.stats();
        assert!(stats.drifting);
        assert!((stats.shift - 4.0).abs() < 1e-12);
        assert_eq!(stats.observed, 16);
    }

    #[test]
    fn rising_scores_never_count_as_drift() {
        // Reinforcement raises normality above the baseline; the one-sided
        // statistic must not mistake that for drift.
        let mut detector = DriftDetector::new(10.0, 2.0, 16, 1.0);
        for _ in 0..32 {
            detector.observe(30.0); // 10σ above baseline
        }
        let stats = detector.stats();
        assert!(stats.shift < 0.0);
        assert!(!stats.drifting);
    }
}
