//! Self-watch: a level watchdog over the server's own telemetry.
//!
//! A derived telemetry series (request p99, queue-wait mean, store fault
//! rate) fails mostly by changing level, so each one is watched by a
//! robust z-score against its warm-up median and MAD. Series2Graph is no
//! use here: it keeps only the shape of each subsequence, so a level
//! shift leaves its embedding unchanged.
//!
//! This module holds the machinery: the [`RobustScorer`], warm-up
//! threshold calibration, and the [`SignalWatch`] hysteresis state
//! machine (`ok` → `degraded` → `anomalous`, with consecutive-tick
//! debouncing in both directions so one noisy sample never flips the
//! verdict).

use std::fmt;

/// The verdict a watched signal (or the whole server) is in. Ordered by
/// severity so `max` aggregates a board of signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum WatchState {
    /// Scores inside the calibrated normal band.
    Ok,
    /// Scores below threshold for `degrade_after` consecutive ticks.
    Degraded,
    /// Scores below threshold for `anomalous_after` consecutive ticks.
    Anomalous,
}

impl WatchState {
    /// Lowercase wire name (`ok` / `degraded` / `anomalous`).
    pub fn as_str(self) -> &'static str {
        match self {
            WatchState::Ok => "ok",
            WatchState::Degraded => "degraded",
            WatchState::Anomalous => "anomalous",
        }
    }
}

impl fmt::Display for WatchState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A robust z-score against the warm-up median/MAD, emitted as `-|z|`
/// so higher is more normal and the best score is `0`.
#[derive(Debug, Clone)]
pub struct RobustScorer {
    median: f64,
    sigma: f64,
}

/// Median of `values` (`0.0` when empty). Sorts a copy; fine at
/// warm-up-window sizes.
fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Robust spread estimate: `1.4826 * MAD`, floored so a constant
/// baseline still yields a usable (if tiny) band.
fn robust_sigma(values: &[f64], center: f64) -> f64 {
    let deviations: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    let mad = median(&deviations);
    (1.4826 * mad).max(1e-9 + 0.01 * center.abs())
}

impl RobustScorer {
    /// Calibrates against a warm-up baseline. `None` when fewer than 3
    /// values — no spread to estimate.
    pub fn from_baseline(values: &[f64]) -> Option<Self> {
        if values.len() < 3 {
            return None;
        }
        let center = median(values);
        Some(RobustScorer {
            median: center,
            sigma: robust_sigma(values, center),
        })
    }

    /// The score of one value: `-|z|`.
    pub fn push(&self, value: f64) -> f64 {
        -((value - self.median).abs() / self.sigma)
    }
}

/// Warm-up threshold below the lowest score the calibration window
/// produced: the minimum minus `k` robust sigmas of the window's
/// scores, the margin floored so a perfectly flat warm-up still leaves
/// room for float jitter. Scores at or above the threshold are normal.
pub fn calibrate_threshold(warmup_scores: &[f64], k: f64) -> f64 {
    let min = warmup_scores.iter().copied().fold(f64::INFINITY, f64::min);
    if !min.is_finite() {
        return -1e-6; // empty warm-up: alarm only on negative scores
    }
    let center = median(warmup_scores);
    let margin = (k * robust_sigma(warmup_scores, center)).max(0.05 * min.abs() + 1e-6);
    min - margin
}

/// Consecutive-tick debouncing knobs for [`SignalWatch`].
#[derive(Debug, Clone, Copy)]
pub struct Hysteresis {
    /// Consecutive below-threshold ticks before `ok → degraded`.
    pub degrade_after: u32,
    /// Consecutive below-threshold ticks before `degraded → anomalous`.
    pub anomalous_after: u32,
    /// Consecutive normal ticks before recovering to `ok`.
    pub recover_after: u32,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            degrade_after: 2,
            anomalous_after: 4,
            recover_after: 3,
        }
    }
}

/// A state transition reported by [`SignalWatch::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchTransition {
    /// State before this tick.
    pub from: WatchState,
    /// State after this tick.
    pub to: WatchState,
}

/// One watched signal: a named derived series, its scorer, the
/// calibrated threshold, and the hysteresis state machine.
#[derive(Debug)]
pub struct SignalWatch {
    name: &'static str,
    scorer: RobustScorer,
    threshold: f64,
    hysteresis: Hysteresis,
    state: WatchState,
    bad_streak: u32,
    good_streak: u32,
    last_value: Option<f64>,
    last_score: Option<f64>,
}

impl SignalWatch {
    /// A watch over `name`, scoring with `scorer` against `threshold`.
    pub fn new(
        name: &'static str,
        scorer: RobustScorer,
        threshold: f64,
        hysteresis: Hysteresis,
    ) -> Self {
        SignalWatch {
            name,
            scorer,
            threshold,
            hysteresis,
            state: WatchState::Ok,
            bad_streak: 0,
            good_streak: 0,
            last_value: None,
            last_score: None,
        }
    }

    /// Signal name (e.g. `request_p99_ns`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Calibrated normality threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Current hysteresis state.
    pub fn state(&self) -> WatchState {
        self.state
    }

    /// Most recent raw signal value fed in.
    pub fn last_value(&self) -> Option<f64> {
        self.last_value
    }

    /// Most recent score (`None` before the first observation).
    pub fn last_score(&self) -> Option<f64> {
        self.last_score
    }

    /// Feeds one sampler-tick value through the scorer and advances the
    /// state machine; returns the transition when the state changed.
    pub fn observe(&mut self, value: f64) -> Option<WatchTransition> {
        self.last_value = Some(value);
        let score = self.scorer.push(value);
        self.last_score = Some(score);
        let bad = score < self.threshold;
        if bad {
            self.bad_streak += 1;
            self.good_streak = 0;
        } else {
            self.good_streak += 1;
            self.bad_streak = 0;
        }
        let from = self.state;
        self.state = if bad {
            if self.bad_streak >= self.hysteresis.anomalous_after {
                WatchState::Anomalous
            } else if self.bad_streak >= self.hysteresis.degrade_after {
                WatchState::Degraded
            } else {
                from
            }
        } else if self.good_streak >= self.hysteresis.recover_after {
            WatchState::Ok
        } else {
            from
        };
        (self.state != from).then_some(WatchTransition {
            from,
            to: self.state,
        })
    }
}

/// Worst state across a board of watches (`Ok` when the board is empty).
pub fn overall(watches: &[SignalWatch]) -> WatchState {
    watches
        .iter()
        .map(SignalWatch::state)
        .max()
        .unwrap_or(WatchState::Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn robust_scorer_flags_a_spike_but_not_baseline() {
        let baseline: Vec<f64> = (0..30).map(|i| 100.0 + (i % 5) as f64).collect();
        let scorer = RobustScorer::from_baseline(&baseline).unwrap();
        let normal = scorer.push(102.0);
        let spike = scorer.push(5_000.0);
        assert!(normal > spike, "spike must score less normal");
        assert!(normal > -3.0, "baseline value within ~3 sigma: {normal}");
        assert!(spike < -10.0, "spike far outside the band: {spike}");
    }

    #[test]
    fn threshold_leaves_room_below_flat_warmup() {
        let scores = vec![-1.0; 20];
        let threshold = calibrate_threshold(&scores, 3.0);
        assert!(threshold < -1.0, "threshold {threshold} must sit below min");
        // A score equal to warm-up min stays normal.
        assert!(-1.0 >= threshold);
    }

    #[test]
    fn hysteresis_debounces_in_both_directions() {
        let baseline: Vec<f64> = (0..30).map(|i| 10.0 + (i % 3) as f64).collect();
        let scorer = RobustScorer::from_baseline(&baseline).unwrap();
        let warmup_scores: Vec<f64> = baseline.iter().map(|&v| scorer.push(v)).collect();
        let threshold = calibrate_threshold(&warmup_scores, 3.0);
        let mut watch = SignalWatch::new("sig", scorer, threshold, Hysteresis::default());

        // One bad tick: still ok (debounced).
        assert!(watch.observe(1_000.0).is_none());
        assert_eq!(watch.state(), WatchState::Ok);
        // Second consecutive bad tick: degraded.
        let t = watch.observe(1_000.0).unwrap();
        assert_eq!((t.from, t.to), (WatchState::Ok, WatchState::Degraded));
        // Two more: anomalous.
        assert!(watch.observe(1_000.0).is_none());
        let t = watch.observe(1_000.0).unwrap();
        assert_eq!(t.to, WatchState::Anomalous);
        // Recovery needs recover_after consecutive good ticks.
        assert!(watch.observe(10.0).is_none());
        assert!(watch.observe(11.0).is_none());
        let t = watch.observe(10.0).unwrap();
        assert_eq!((t.from, t.to), (WatchState::Anomalous, WatchState::Ok));
        assert_eq!(overall(&[watch]), WatchState::Ok);
    }

    #[test]
    fn overall_takes_the_worst_signal() {
        assert_eq!(overall(&[]), WatchState::Ok);
        assert!(WatchState::Anomalous > WatchState::Degraded);
        assert!(WatchState::Degraded > WatchState::Ok);
    }
}
