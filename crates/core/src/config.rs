//! Configuration of the Series2Graph pipeline.

use crate::error::{Error, Result};

/// How the KDE bandwidth of the node-extraction step is chosen.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BandwidthRule {
    /// Scott's rule `h = σ(I_ψ)·|I_ψ|^(-1/5)` — the paper's default.
    Scott,
    /// A fixed ratio of the radius-set standard deviation:
    /// `h = ratio · σ(I_ψ)`. Figure 7(a) of the paper sweeps this ratio.
    SigmaRatio(f64),
}

/// Configuration of the Series2Graph pipeline.
///
/// The only mandatory parameter is the pattern length `ℓ` (the length of the
/// subsequences that are embedded). Everything else has the paper's defaults:
/// `λ = ℓ/3`, `r = 50` rays, Scott bandwidth, moving-average smoothing on.
#[derive(Debug, Clone)]
pub struct S2gConfig {
    /// Input pattern length `ℓ`.
    pub pattern_length: usize,
    /// Local convolution size `λ` (defaults to `ℓ/3`).
    pub lambda: usize,
    /// Number of angular rays `r` sampling the embedding plane (default 50).
    pub rate: usize,
    /// Bandwidth rule for the per-ray kernel density estimation.
    pub bandwidth: BandwidthRule,
    /// Number of grid points used when searching KDE local maxima (per ray).
    pub kde_grid_points: usize,
    /// Apply the moving-average filter (width `ℓ`) to the score profile.
    pub smooth_scores: bool,
}

impl S2gConfig {
    /// Creates a configuration with the paper's defaults for the given
    /// pattern length `ℓ` (`λ = ℓ/3`, `r = 50`, Scott bandwidth).
    pub fn new(pattern_length: usize) -> Self {
        Self {
            pattern_length,
            lambda: (pattern_length / 3).max(1),
            rate: 50,
            bandwidth: BandwidthRule::Scott,
            kde_grid_points: 200,
            smooth_scores: true,
        }
    }

    /// Sets the local convolution size `λ`.
    pub fn with_lambda(mut self, lambda: usize) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sets the number of rays `r`.
    pub fn with_rate(mut self, rate: usize) -> Self {
        self.rate = rate;
        self
    }

    /// Sets the bandwidth rule.
    pub fn with_bandwidth(mut self, bandwidth: BandwidthRule) -> Self {
        self.bandwidth = bandwidth;
        self
    }

    /// Enables or disables score smoothing.
    pub fn with_smoothing(mut self, smooth: bool) -> Self {
        self.smooth_scores = smooth;
        self
    }

    /// Dimensionality of the convolution vectors (`ℓ − λ`).
    pub fn embedding_dim(&self) -> usize {
        self.pattern_length.saturating_sub(self.lambda)
    }

    /// Validates the configuration.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when a parameter is out of range.
    pub fn validate(&self) -> Result<()> {
        if self.pattern_length < 4 {
            return Err(Error::InvalidConfig(format!(
                "pattern length must be at least 4, got {}",
                self.pattern_length
            )));
        }
        if self.lambda == 0 || self.lambda >= self.pattern_length {
            return Err(Error::InvalidConfig(format!(
                "lambda must be in [1, pattern_length), got {} for pattern length {}",
                self.lambda, self.pattern_length
            )));
        }
        if self.embedding_dim() < 3 {
            return Err(Error::InvalidConfig(format!(
                "pattern_length - lambda must be at least 3 (needed for a 3-D PCA), got {}",
                self.embedding_dim()
            )));
        }
        if self.rate < 3 {
            return Err(Error::InvalidConfig(format!(
                "rate must be at least 3, got {}",
                self.rate
            )));
        }
        if let BandwidthRule::SigmaRatio(r) = self.bandwidth {
            if r <= 0.0 || !r.is_finite() {
                return Err(Error::InvalidConfig(format!(
                    "bandwidth ratio must be positive, got {r}"
                )));
            }
        }
        if self.kde_grid_points < 10 {
            return Err(Error::InvalidConfig(format!(
                "kde_grid_points must be at least 10, got {}",
                self.kde_grid_points
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = S2gConfig::new(60);
        assert_eq!(c.pattern_length, 60);
        assert_eq!(c.lambda, 20);
        assert_eq!(c.rate, 50);
        assert_eq!(c.bandwidth, BandwidthRule::Scott);
        assert!(c.smooth_scores);
        assert!(c.validate().is_ok());
        assert_eq!(c.embedding_dim(), 40);
    }

    #[test]
    fn builder_methods_apply() {
        let c = S2gConfig::new(90)
            .with_lambda(30)
            .with_rate(64)
            .with_bandwidth(BandwidthRule::SigmaRatio(0.5))
            .with_smoothing(false);
        assert_eq!(c.lambda, 30);
        assert_eq!(c.rate, 64);
        assert_eq!(c.bandwidth, BandwidthRule::SigmaRatio(0.5));
        assert!(!c.smooth_scores);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_catches_bad_parameters() {
        assert!(S2gConfig::new(2).validate().is_err());
        assert!(S2gConfig::new(50).with_lambda(0).validate().is_err());
        assert!(S2gConfig::new(50).with_lambda(50).validate().is_err());
        assert!(S2gConfig::new(50).with_lambda(48).validate().is_err()); // dim < 3
        assert!(S2gConfig::new(50).with_rate(2).validate().is_err());
        assert!(S2gConfig::new(50)
            .with_bandwidth(BandwidthRule::SigmaRatio(0.0))
            .validate()
            .is_err());
        assert!(S2gConfig::new(50)
            .with_bandwidth(BandwidthRule::SigmaRatio(f64::NAN))
            .validate()
            .is_err());
    }

    #[test]
    fn small_pattern_lengths_get_clamped_lambda() {
        let c = S2gConfig::new(4);
        assert_eq!(c.lambda, 1);
        assert!(c.validate().is_ok());
    }
}
