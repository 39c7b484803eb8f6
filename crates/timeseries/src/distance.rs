//! Distances between equal-length sequences.
//!
//! The paper (and the whole discord literature it compares against) uses the
//! z-normalised Euclidean distance. The plain Euclidean distance is also
//! provided because the embedding-space node assignment of Series2Graph works
//! on raw geometric coordinates.

use crate::error::{Error, Result};
use crate::stats;

/// Plain Euclidean distance between two equal-length sequences.
///
/// # Errors
/// [`Error::LengthMismatch`] when the sequences differ in length.
pub fn euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    Ok(a.iter()
        .zip(b.iter())
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt())
}

/// Z-normalised Euclidean distance, the `dist` of the paper's Section 2:
/// both sequences are z-normalised before the Euclidean distance is taken.
///
/// Constant sequences are treated as all-zero after normalisation (matrix
/// profile convention), so the distance between two constant sequences is 0.
///
/// # Errors
/// [`Error::LengthMismatch`] when the sequences differ in length,
/// [`Error::Empty`] on empty input.
pub fn znorm_euclidean(a: &[f64], b: &[f64]) -> Result<f64> {
    if a.len() != b.len() {
        return Err(Error::LengthMismatch {
            left: a.len(),
            right: b.len(),
        });
    }
    if a.is_empty() {
        return Err(Error::Empty("sequence"));
    }
    let (ma, sa) = stats::mean_std(a);
    let (mb, sb) = stats::mean_std(b);
    let sa = if sa < f64::EPSILON { 1.0 } else { sa };
    let sb = if sb < f64::EPSILON { 1.0 } else { sb };
    let mut acc = 0.0;
    for (&x, &y) in a.iter().zip(b.iter()) {
        let d = (x - ma) / sa - (y - mb) / sb;
        acc += d * d;
    }
    Ok(acc.sqrt())
}

/// Z-normalised Euclidean distance computed from precomputed means/stds and
/// the dot product, using the identity
/// `d^2 = 2·m·(1 − (qp − m·μ_a·μ_b) / (m·σ_a·σ_b))`
/// where `qp` is the raw dot product of the two windows and `m` their length.
///
/// This is the O(1) update formula at the heart of STOMP; it is exposed here
/// so the matrix-profile baseline and its tests can share one implementation.
pub fn znorm_euclidean_from_stats(
    len: usize,
    dot: f64,
    mean_a: f64,
    std_a: f64,
    mean_b: f64,
    std_b: f64,
) -> f64 {
    let m = len as f64;
    if std_a < f64::EPSILON || std_b < f64::EPSILON {
        // One of the windows is constant: fall back to the convention that a
        // constant window has distance sqrt(m) to any non-constant window and
        // 0 to another constant window.
        if std_a < f64::EPSILON && std_b < f64::EPSILON {
            return 0.0;
        }
        return m.sqrt();
    }
    let corr = (dot - m * mean_a * mean_b) / (m * std_a * std_b);
    let corr = corr.clamp(-1.0, 1.0);
    (2.0 * m * (1.0 - corr)).max(0.0).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_basic() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]).unwrap() - 5.0).abs() < 1e-12);
        assert!(euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn znorm_distance_ignores_offset_and_scale() {
        let a = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0];
        let b: Vec<f64> = a.iter().map(|x| 10.0 * x + 100.0).collect();
        assert!(znorm_euclidean(&a, &b).unwrap() < 1e-9);
    }

    #[test]
    fn znorm_distance_detects_shape_change() {
        let a = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0, 0.0, -1.0];
        let b = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert!(znorm_euclidean(&a, &b).unwrap() > 1.0);
    }

    #[test]
    fn znorm_distance_errors() {
        assert!(znorm_euclidean(&[], &[]).is_err());
        assert!(znorm_euclidean(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn stats_formula_matches_direct_computation() {
        let a = [1.0, 3.0, 2.0, 5.0, 4.0, 1.0];
        let b = [2.0, 2.5, 1.0, 4.0, 6.0, 0.0];
        let (ma, sa) = stats::mean_std(&a);
        let (mb, sb) = stats::mean_std(&b);
        let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        let via_stats = znorm_euclidean_from_stats(a.len(), dot, ma, sa, mb, sb);
        let direct = znorm_euclidean(&a, &b).unwrap();
        assert!((via_stats - direct).abs() < 1e-9, "{via_stats} vs {direct}");
    }

    #[test]
    fn stats_formula_constant_windows() {
        let d = znorm_euclidean_from_stats(8, 0.0, 1.0, 0.0, 1.0, 0.0);
        assert_eq!(d, 0.0);
        let d = znorm_euclidean_from_stats(9, 0.0, 1.0, 0.0, 2.0, 1.0);
        assert_eq!(d, 3.0);
    }
}
