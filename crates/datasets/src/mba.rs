//! MBA-like synthetic electrocardiograms.
//!
//! The paper uses six records of the MIT-BIH Supraventricular Arrhythmia
//! Database (MBA 803, 805, 806, 820, 14046), each 100K points long with
//! anomaly length 75 and between 27 and 142 annotated premature beats of two
//! kinds: supraventricular ("S", similar to a normal beat but early/narrow)
//! and ventricular ("V", wide high-amplitude beats). This module generates
//! ECG-like series with the same structure: a periodic P-QRS-T beat template
//! built from Gaussian bumps, plus injected S/V beats at the per-record
//! counts of Table 2.

use crate::labels::{AnomalyKind, LabeledSeries};
use crate::periodic::{gaussian_bump_template, generate, AnomalySpec, PeriodicConfig};

/// Anomaly length used by the paper for all MBA records.
pub const MBA_ANOMALY_LENGTH: usize = 75;

/// Default series length used by the paper for all MBA records.
pub const MBA_LENGTH: usize = 100_000;

/// The beat period of the synthetic ECG (points per heartbeat).
pub const MBA_BEAT_PERIOD: usize = 140;

/// One of the six MBA records used in the paper, identified by its PhysioNet
/// record number. The variants differ in the number and mix of S/V anomalies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MbaRecord {
    /// Record 803 — 62 anomalies, predominantly ventricular.
    R803,
    /// Record 805 — 30 anomalies, predominantly ventricular.
    R805,
    /// Record 806 — 133 anomalies, predominantly supraventricular (subtle).
    R806,
    /// Record 820 — 27 anomalies, predominantly supraventricular (subtle).
    R820,
    /// Record 14046 — 142 anomalies, mixed.
    R14046,
}

impl MbaRecord {
    /// All records in Table 2 order.
    pub const ALL: [MbaRecord; 5] = [
        MbaRecord::R803,
        MbaRecord::R805,
        MbaRecord::R806,
        MbaRecord::R820,
        MbaRecord::R14046,
    ];

    /// The record number as used in the paper's tables.
    pub fn number(&self) -> u32 {
        match self {
            MbaRecord::R803 => 803,
            MbaRecord::R805 => 805,
            MbaRecord::R806 => 806,
            MbaRecord::R820 => 820,
            MbaRecord::R14046 => 14046,
        }
    }

    /// Human-readable dataset name, e.g. `"MBA(803)"`.
    pub fn name(&self) -> String {
        format!("MBA({})", self.number())
    }

    /// Number of (supraventricular, ventricular) anomalies injected, matching
    /// the per-record totals of Table 2.
    pub fn anomaly_mix(&self) -> (usize, usize) {
        match self {
            MbaRecord::R803 => (10, 52),
            MbaRecord::R805 => (5, 25),
            MbaRecord::R806 => (110, 23),
            MbaRecord::R820 => (22, 5),
            MbaRecord::R14046 => (40, 102),
        }
    }

    /// Total number of anomalies (the `N_A` column of Table 2).
    pub fn anomaly_count(&self) -> usize {
        let (s, v) = self.anomaly_mix();
        s + v
    }

    /// Record-specific generation seed so different records produce different
    /// series even with the same user seed.
    fn seed_offset(&self) -> u64 {
        self.number() as u64
    }
}

/// Normal beat morphology: P wave, Q dip, R spike, S dip, T wave.
fn normal_beat() -> crate::periodic::Template {
    gaussian_bump_template(vec![
        (0.18, 0.035, 0.18),  // P wave
        (0.38, 0.012, -0.12), // Q
        (0.42, 0.016, 1.00),  // R spike
        (0.47, 0.014, -0.25), // S
        (0.68, 0.055, 0.32),  // T wave
    ])
}

/// Ventricular premature beat: wide, high-amplitude, partially inverted QRS
/// and missing P wave — clearly different in shape from a normal beat.
fn ventricular_beat() -> crate::periodic::Template {
    gaussian_bump_template(vec![
        (0.30, 0.09, -0.75), // wide negative deflection
        (0.52, 0.10, 1.35),  // broad tall R'
        (0.75, 0.08, -0.40), // inverted T
    ])
}

/// Supraventricular premature beat: similar morphology to a normal beat but
/// compressed (early), with attenuated P and T waves — a *subtle* anomaly,
/// which is why records dominated by S beats (806, 820) are the hard ones in
/// the paper's Figure 7(b).
fn supraventricular_beat() -> crate::periodic::Template {
    gaussian_bump_template(vec![
        (0.10, 0.025, 0.06), // attenuated, earlier P
        (0.30, 0.012, -0.10),
        (0.34, 0.015, 0.92), // earlier R
        (0.39, 0.013, -0.22),
        (0.55, 0.045, 0.18), // attenuated T
    ])
}

/// Generates one MBA-like record with a custom series length (anomaly counts
/// are scaled proportionally, keeping at least one anomaly of each configured
/// kind).
pub fn generate_mba_with_length(record: MbaRecord, length: usize, seed: u64) -> LabeledSeries {
    let (s_count, v_count) = record.anomaly_mix();
    let scale = length as f64 / MBA_LENGTH as f64;
    let scaled = |c: usize| -> usize {
        if c == 0 {
            0
        } else {
            ((c as f64 * scale).round() as usize).max(1)
        }
    };

    let anomalies = vec![
        AnomalySpec {
            count: scaled(v_count),
            length: MBA_ANOMALY_LENGTH,
            kind: AnomalyKind::VentricularBeat,
            shape: ventricular_beat(),
            blend: 1.0,
        },
        AnomalySpec {
            count: scaled(s_count),
            length: MBA_ANOMALY_LENGTH,
            kind: AnomalyKind::SupraventricularBeat,
            shape: supraventricular_beat(),
            blend: 0.85,
        },
    ];

    generate(PeriodicConfig {
        name: record.name(),
        length,
        period: MBA_BEAT_PERIOD,
        template: normal_beat(),
        amplitude_jitter: 0.04,
        noise_ratio: 0.02,
        trend_step_std: 0.0005,
        anomalies,
        seed: seed.wrapping_add(record.seed_offset()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_metadata_matches_table2() {
        assert_eq!(MbaRecord::R803.anomaly_count(), 62);
        assert_eq!(MbaRecord::R805.anomaly_count(), 30);
        assert_eq!(MbaRecord::R806.anomaly_count(), 133);
        assert_eq!(MbaRecord::R820.anomaly_count(), 27);
        assert_eq!(MbaRecord::R14046.anomaly_count(), 142);
        assert_eq!(MbaRecord::R803.name(), "MBA(803)");
    }

    #[test]
    fn generated_record_has_expected_shape() {
        let ls = generate_mba_with_length(MbaRecord::R803, 30_000, 42);
        assert_eq!(ls.len(), 30_000);
        assert!(ls.anomaly_count() >= 15, "got {}", ls.anomaly_count());
        assert!(ls.anomalies.iter().all(|a| a.length == MBA_ANOMALY_LENGTH));
        assert_eq!(ls.name, "MBA(803)");
    }

    #[test]
    fn scaled_counts_are_proportional() {
        let full = generate_mba_with_length(MbaRecord::R805, 100_000, 1);
        assert_eq!(full.anomaly_count(), 30);
        let half = generate_mba_with_length(MbaRecord::R805, 50_000, 1);
        assert!(
            (13..=17).contains(&half.anomaly_count()),
            "got {}",
            half.anomaly_count()
        );
    }

    #[test]
    fn different_records_differ() {
        let a = generate_mba_with_length(MbaRecord::R803, 10_000, 5);
        let b = generate_mba_with_length(MbaRecord::R820, 10_000, 5);
        assert_ne!(a.series, b.series);
    }

    #[test]
    fn determinism() {
        let a = generate_mba_with_length(MbaRecord::R806, 10_000, 5);
        let b = generate_mba_with_length(MbaRecord::R806, 10_000, 5);
        assert_eq!(a.series, b.series);
        assert_eq!(a.anomalies, b.anomalies);
    }

    #[test]
    fn ventricular_beats_deviate_more_than_supraventricular() {
        // Compare the mean absolute difference of each anomaly class to the
        // normal template: V beats must deviate more than S beats.
        let ls = generate_mba_with_length(MbaRecord::R14046, 60_000, 9);
        let normal = normal_beat();
        let period = MBA_BEAT_PERIOD;
        let dev = |kind: AnomalyKind| -> f64 {
            let mut total = 0.0;
            let mut count = 0usize;
            for a in ls.anomalies.iter().filter(|a| a.kind == kind) {
                for (off, v) in ls.series.values()[a.start..a.end()].iter().enumerate() {
                    let phase = ((a.start + off) % period) as f64 / period as f64;
                    total += (v - normal(phase)).abs();
                    count += 1;
                }
            }
            total / count.max(1) as f64
        };
        let v_dev = dev(AnomalyKind::VentricularBeat);
        let s_dev = dev(AnomalyKind::SupraventricularBeat);
        assert!(v_dev > s_dev, "V dev {v_dev} should exceed S dev {s_dev}");
    }

    #[test]
    fn beat_template_has_dominant_r_peak() {
        let beat = normal_beat();
        let peak_phase = (0..100)
            .map(|i| i as f64 / 100.0)
            .max_by(|a, b| beat(*a).partial_cmp(&beat(*b)).unwrap())
            .unwrap();
        assert!((peak_phase - 0.42).abs() < 0.05);
    }
}
