//! SED-like synthetic disk-revolution data.
//!
//! The paper's SED dataset (simulated engine disk data from the NASA Rotary
//! Dynamics Laboratory) is a 100K-point series of disk revolutions with 50
//! annotated anomalies of length 75. The synthetic equivalent generated here
//! is a fast periodic revolution signal (fundamental plus harmonics) in which
//! 50 revolutions are distorted (amplitude drop plus phase glitch), mimicking
//! the wear/imbalance anomalies of the original recording.

use crate::labels::{AnomalyKind, LabeledSeries};
use crate::periodic::{generate, harmonic_template, AnomalySpec, PeriodicConfig};

/// Anomaly length used by the paper for SED.
pub const SED_ANOMALY_LENGTH: usize = 75;

/// Default series length used by the paper for SED.
pub const SED_LENGTH: usize = 100_000;

/// Number of annotated anomalies in SED (Table 2).
pub const SED_ANOMALY_COUNT: usize = 50;

/// Revolution period of the synthetic signal.
pub const SED_PERIOD: usize = 60;

/// Generates the SED-like dataset with a custom length (anomaly count scaled
/// proportionally, at least 1).
pub fn generate_sed_with_length(length: usize, seed: u64) -> LabeledSeries {
    let scale = length as f64 / SED_LENGTH as f64;
    let count = ((SED_ANOMALY_COUNT as f64 * scale).round() as usize).max(1);

    // Normal revolution: fundamental + two harmonics.
    let template = harmonic_template(vec![1.0, 0.35, 0.12], vec![0.0, 0.6, 1.9]);

    // Anomalous revolution: amplitude drop, harmonic imbalance and a phase
    // glitch halfway through the anomalous window.
    let anomaly_shape = harmonic_template(vec![0.45, 0.65, 0.30], vec![1.2, 2.9, 0.3]);

    generate(PeriodicConfig {
        name: "SED".to_string(),
        length,
        period: SED_PERIOD,
        template,
        amplitude_jitter: 0.03,
        noise_ratio: 0.03,
        trend_step_std: 0.0,
        anomalies: vec![AnomalySpec {
            count,
            length: SED_ANOMALY_LENGTH,
            kind: AnomalyKind::Shape,
            shape: anomaly_shape,
            blend: 1.0,
        }],
        seed: seed.wrapping_add(0x5ED),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_length_dataset_matches_table2() {
        let ls = generate_sed_with_length(SED_LENGTH, 3);
        assert_eq!(ls.len(), SED_LENGTH);
        assert_eq!(ls.anomaly_count(), SED_ANOMALY_COUNT);
        assert!(ls.anomalies.iter().all(|a| a.length == SED_ANOMALY_LENGTH));
        assert_eq!(ls.name, "SED");
    }

    #[test]
    fn scaled_dataset_keeps_proportion() {
        let ls = generate_sed_with_length(20_000, 3);
        assert_eq!(ls.len(), 20_000);
        assert!(
            (8..=12).contains(&ls.anomaly_count()),
            "got {}",
            ls.anomaly_count()
        );
    }

    #[test]
    fn determinism_and_seed_sensitivity() {
        let a = generate_sed_with_length(10_000, 1);
        let b = generate_sed_with_length(10_000, 1);
        let c = generate_sed_with_length(10_000, 2);
        assert_eq!(a.series, b.series);
        assert_ne!(a.series, c.series);
    }

    #[test]
    fn anomalous_windows_are_distinguishable() {
        let ls = generate_sed_with_length(30_000, 11);
        // Mean absolute amplitude inside anomalies should differ from the
        // background because the anomalous template drops the fundamental.
        let values = ls.series.values();
        let anomaly_energy: f64 = ls
            .anomalies
            .iter()
            .map(|a| {
                values[a.start..a.end()]
                    .iter()
                    .map(|x| x.abs())
                    .sum::<f64>()
                    / a.length as f64
            })
            .sum::<f64>()
            / ls.anomaly_count() as f64;
        let background_energy: f64 = values[..5_000].iter().map(|x| x.abs()).sum::<f64>() / 5_000.0;
        assert!(
            (anomaly_energy - background_energy).abs() > 0.05,
            "anomaly {anomaly_energy} vs background {background_energy}"
        );
    }
}
