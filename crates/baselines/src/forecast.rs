//! Forecast-error anomaly detection: the LSTM-AD stand-in.
//!
//! The paper compares against LSTM-AD (Malhotra et al.), a supervised
//! forecasting model trained on (mostly) anomaly-free data whose prediction
//! error flags anomalies. GPU-scale recurrent networks are outside the scope
//! of this reproduction, so the same detection principle is implemented with
//! a small autoregressive multi-layer perceptron trained by SGD: the network
//! predicts the next point from the previous `context` points, it is trained
//! on a prefix of the series (which plays the role of the labelled
//! training split), and the anomaly score of a subsequence is its mean
//! squared forecast error. See DESIGN.md for the substitution note.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use s2g_timeseries::TimeSeries;

use crate::error::{Error, Result};

/// Parameters of the neural forecasting detector.
#[derive(Debug, Clone, Copy)]
pub struct ForecastParams {
    /// Number of past points used to predict the next one.
    pub context: usize,
    /// Hidden layer width.
    pub hidden: usize,
    /// Number of SGD epochs over the training prefix.
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// Fraction of the series used for training (from the start).
    pub train_fraction: f64,
    /// Random seed for weight initialisation and sample shuffling.
    pub seed: u64,
}

impl Default for ForecastParams {
    fn default() -> Self {
        Self {
            context: 30,
            hidden: 16,
            epochs: 4,
            learning_rate: 0.01,
            train_fraction: 0.5,
            seed: 0x15_AD,
        }
    }
}

/// A single-hidden-layer autoregressive forecaster `x_{t+1} = f(x_{t-c+1..t})`.
#[derive(Debug, Clone)]
pub struct NeuralForecaster {
    context: usize,
    hidden: usize,
    /// Input-to-hidden weights, row-major `hidden × context`.
    w1: Vec<f64>,
    b1: Vec<f64>,
    /// Hidden-to-output weights.
    w2: Vec<f64>,
    b2: f64,
}

impl NeuralForecaster {
    fn new(context: usize, hidden: usize, rng: &mut StdRng) -> Self {
        let scale = (1.0 / context as f64).sqrt();
        let w1 = (0..hidden * context)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * scale)
            .collect();
        let b1 = vec![0.0; hidden];
        let hscale = (1.0 / hidden as f64).sqrt();
        let w2 = (0..hidden)
            .map(|_| (rng.gen::<f64>() - 0.5) * 2.0 * hscale)
            .collect();
        Self {
            context,
            hidden,
            w1,
            b1,
            w2,
            b2: 0.0,
        }
    }

    /// Forward pass: returns (hidden activations, prediction).
    fn forward(&self, input: &[f64]) -> (Vec<f64>, f64) {
        let mut h = vec![0.0; self.hidden];
        for (j, hj) in h.iter_mut().enumerate() {
            let mut acc = self.b1[j];
            for (i, &x) in input.iter().enumerate() {
                acc += self.w1[j * self.context + i] * x;
            }
            *hj = acc.tanh();
        }
        let y = self
            .w2
            .iter()
            .zip(h.iter())
            .map(|(w, a)| w * a)
            .sum::<f64>()
            + self.b2;
        (h, y)
    }

    /// One SGD step on a single (input, target) pair; returns the squared error.
    fn sgd_step(&mut self, input: &[f64], target: f64, lr: f64) -> f64 {
        let (h, y) = self.forward(input);
        let err = y - target;
        // Output layer gradients.
        for (j, hj) in h.iter().enumerate() {
            let grad_w2 = err * hj;
            let grad_h = err * self.w2[j];
            self.w2[j] -= lr * grad_w2;
            // Hidden layer gradients (tanh').
            let grad_pre = grad_h * (1.0 - hj * hj);
            for (i, &x) in input.iter().enumerate().take(self.context) {
                self.w1[j * self.context + i] -= lr * grad_pre * x;
            }
            self.b1[j] -= lr * grad_pre;
        }
        self.b2 -= lr * err;
        err * err
    }

    /// Predicts the next value from the last `context` points of `input`.
    pub fn predict(&self, input: &[f64]) -> f64 {
        self.forward(input).1
    }
}

/// A fitted forecasting detector: the trained network plus the normalisation
/// statistics of the training prefix.
#[derive(Debug, Clone)]
pub struct ForecastDetector {
    model: NeuralForecaster,
    params: ForecastParams,
    mean: f64,
    std: f64,
}

impl ForecastDetector {
    /// Trains the forecaster on the first `train_fraction` of the series.
    ///
    /// # Errors
    /// * [`Error::InvalidParameter`] for degenerate parameters.
    /// * [`Error::SeriesTooShort`] when the training prefix cannot host a
    ///   single (context, target) pair.
    pub fn fit(series: &TimeSeries, params: ForecastParams) -> Result<Self> {
        if params.context < 2 || params.hidden == 0 || params.epochs == 0 {
            return Err(Error::InvalidParameter {
                name: "forecast",
                message: "context >= 2, hidden >= 1, epochs >= 1 required".into(),
            });
        }
        if !(0.05..=1.0).contains(&params.train_fraction) {
            return Err(Error::InvalidParameter {
                name: "train_fraction",
                message: format!("must be in [0.05, 1.0], got {}", params.train_fraction),
            });
        }
        let train_len = ((series.len() as f64) * params.train_fraction) as usize;
        if train_len < params.context + 2 {
            return Err(Error::SeriesTooShort {
                series_len: series.len(),
                required: params.context + 2,
            });
        }

        // Normalise with the training prefix statistics only.
        let prefix = &series.values()[..train_len];
        let mean = prefix.iter().sum::<f64>() / train_len as f64;
        let var = prefix.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / train_len as f64;
        let std = var.sqrt().max(1e-9);
        let normalised: Vec<f64> = prefix.iter().map(|x| (x - mean) / std).collect();

        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut model = NeuralForecaster::new(params.context, params.hidden, &mut rng);

        let n_samples = normalised.len() - params.context;
        let mut order: Vec<usize> = (0..n_samples).collect();
        for _ in 0..params.epochs {
            // Fisher–Yates shuffle for SGD sample order.
            for i in (1..order.len()).rev() {
                let j = rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &s in &order {
                let input = &normalised[s..s + params.context];
                let target = normalised[s + params.context];
                model.sgd_step(input, target, params.learning_rate);
            }
        }

        Ok(Self {
            model,
            params,
            mean,
            std,
        })
    }

    /// Pointwise squared forecast errors over the whole series (0 for the
    /// first `context` points, which cannot be predicted).
    pub fn pointwise_errors(&self, series: &TimeSeries) -> Vec<f64> {
        let values: Vec<f64> = series
            .values()
            .iter()
            .map(|x| (x - self.mean) / self.std)
            .collect();
        let c = self.params.context;
        let mut errors = vec![0.0; values.len()];
        if values.len() <= c {
            return errors;
        }
        for t in c..values.len() {
            let prediction = self.model.predict(&values[t - c..t]);
            let e = prediction - values[t];
            errors[t] = e * e;
        }
        errors
    }

    /// Anomaly score of every subsequence of length `window`: the mean squared
    /// forecast error over the window (higher = more anomalous).
    pub fn anomaly_scores(&self, series: &TimeSeries, window: usize) -> Result<Vec<f64>> {
        if window == 0 || series.len() < window {
            return Err(Error::SeriesTooShort {
                series_len: series.len(),
                required: window.max(1),
            });
        }
        let errors = self.pointwise_errors(series);
        // Mean error per window via the trailing moving average shifted to
        // window starts: score[i] = mean(errors[i..i+window]).
        let sums = s2g_timeseries::stats::rolling_sum(&errors, window);
        Ok(sums.into_iter().map(|s| s / window as f64).collect())
    }
}

/// Convenience wrapper: fit on a prefix and score every subsequence.
pub fn forecast_anomaly_scores(
    series: &TimeSeries,
    window: usize,
    params: ForecastParams,
) -> Result<Vec<f64>> {
    ForecastDetector::fit(series, params)?.anomaly_scores(series, window)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_with_anomaly(n: usize, at: usize, len: usize) -> TimeSeries {
        let mut values: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 40.0).sin())
            .collect();
        for (i, v) in values
            .iter_mut()
            .enumerate()
            .take((at + len).min(n))
            .skip(at)
        {
            let local = (i - at) as f64;
            *v = 1.3 * (std::f64::consts::TAU * local / 9.0).sin() + 0.3;
        }
        TimeSeries::from(values)
    }

    #[test]
    fn learns_to_forecast_a_sine() {
        let series = TimeSeries::from(
            (0..3000)
                .map(|i| (std::f64::consts::TAU * i as f64 / 40.0).sin())
                .collect::<Vec<_>>(),
        );
        let detector = ForecastDetector::fit(&series, ForecastParams::default()).unwrap();
        let errors = detector.pointwise_errors(&series);
        let mean_err: f64 = errors[100..].iter().sum::<f64>() / (errors.len() - 100) as f64;
        assert!(
            mean_err < 0.1,
            "forecast error too high on a pure sine: {mean_err}"
        );
    }

    #[test]
    fn anomaly_region_has_higher_error() {
        let series = sine_with_anomaly(4000, 3000, 100); // anomaly outside the training prefix
        let detector = ForecastDetector::fit(&series, ForecastParams::default()).unwrap();
        let scores = detector.anomaly_scores(&series, 100).unwrap();
        assert_eq!(scores.len(), 4000 - 100 + 1);
        let anomaly_peak = scores[2950..3080]
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        let normal_mean: f64 = scores[500..2000].iter().sum::<f64>() / 1500.0;
        assert!(
            anomaly_peak > 3.0 * normal_mean.max(1e-9),
            "anomaly error {anomaly_peak} vs normal {normal_mean}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let series = sine_with_anomaly(2000, 1500, 60);
        let a = forecast_anomaly_scores(&series, 60, ForecastParams::default()).unwrap();
        let b = forecast_anomaly_scores(&series, 60, ForecastParams::default()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_parameters() {
        let series = sine_with_anomaly(500, 400, 30);
        assert!(ForecastDetector::fit(
            &series,
            ForecastParams {
                context: 1,
                ..Default::default()
            }
        )
        .is_err());
        assert!(ForecastDetector::fit(
            &series,
            ForecastParams {
                train_fraction: 0.0,
                ..Default::default()
            }
        )
        .is_err());
        let tiny = TimeSeries::from(vec![1.0; 20]);
        assert!(ForecastDetector::fit(&tiny, ForecastParams::default()).is_err());
        let det = ForecastDetector::fit(&series, ForecastParams::default()).unwrap();
        assert!(det.anomaly_scores(&series, 0).is_err());
        assert!(det.anomaly_scores(&series, 1000).is_err());
    }

    #[test]
    fn pointwise_errors_zero_for_unpredictable_prefix() {
        let series = sine_with_anomaly(1000, 700, 50);
        let det = ForecastDetector::fit(&series, ForecastParams::default()).unwrap();
        let errors = det.pointwise_errors(&series);
        assert!(errors[..det.params.context].iter().all(|&e| e == 0.0));
        assert_eq!(errors.len(), 1000);
    }
}
