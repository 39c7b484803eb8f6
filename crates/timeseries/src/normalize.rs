//! Sequence normalisation utilities.

use crate::stats;

/// Z-normalises a sequence in place: `x -> (x - mean) / std`.
///
/// When the standard deviation is (near) zero the sequence is centred only,
/// which mirrors the convention of the matrix-profile literature (a constant
/// subsequence z-normalises to all zeros instead of exploding).
pub fn znormalize_in_place(xs: &mut [f64]) {
    let (m, s) = stats::mean_std(xs);
    if s < f64::EPSILON {
        for x in xs.iter_mut() {
            *x -= m;
        }
    } else {
        for x in xs.iter_mut() {
            *x = (*x - m) / s;
        }
    }
}

/// Returns a z-normalised copy of the sequence.
pub fn znormalize(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    znormalize_in_place(&mut v);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn znormalize_has_zero_mean_unit_std() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let z = znormalize(&xs);
        assert!(stats::mean(&z).abs() < 1e-12);
        assert!((stats::std(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn znormalize_constant_centres_only() {
        let z = znormalize(&[5.0, 5.0, 5.0]);
        assert_eq!(z, vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn znormalize_is_shape_invariant() {
        // Affine transforms of the same shape normalise to the same vector.
        let a = [0.0, 1.0, 0.0, -1.0, 0.0, 1.0];
        let b: Vec<f64> = a.iter().map(|x| 3.0 * x + 42.0).collect();
        let za = znormalize(&a);
        let zb = znormalize(&b);
        for (x, y) in za.iter().zip(zb.iter()) {
            assert!((x - y).abs() < 1e-12);
        }
    }
}
