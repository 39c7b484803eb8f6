//! Smoothing filters applied to score profiles and raw series.

/// Centred moving-average filter of width `w`.
///
/// Output has the same length as the input. Near the boundaries the window is
/// truncated to the available points, so no artificial padding values are
/// introduced. This is the filter applied to the `NormalityScore` vector in
/// the last line of Algorithm 4.
pub fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    if xs.is_empty() || w <= 1 {
        return xs.to_vec();
    }
    let half_left = (w - 1) / 2;
    let half_right = w / 2;
    // Prefix sums for O(n) evaluation.
    let mut prefix = Vec::with_capacity(xs.len() + 1);
    prefix.push(0.0);
    let mut acc = 0.0;
    for &x in xs {
        acc += x;
        prefix.push(acc);
    }
    let n = xs.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half_left);
        let hi = (i + half_right + 1).min(n);
        let sum = prefix[hi] - prefix[lo];
        out.push(sum / (hi - lo) as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_identity_for_small_window() {
        let xs = vec![1.0, 2.0, 3.0];
        assert_eq!(moving_average(&xs, 1), xs);
        assert_eq!(moving_average(&xs, 0), xs);
        assert!(moving_average(&[], 5).is_empty());
    }

    #[test]
    fn moving_average_constant_series_unchanged() {
        let xs = vec![2.0; 20];
        let out = moving_average(&xs, 7);
        for v in out {
            assert!((v - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn moving_average_matches_naive() {
        let xs: Vec<f64> = (0..30)
            .map(|i| (i as f64).sin() * 2.0 + i as f64 * 0.1)
            .collect();
        let w = 5usize;
        let fast = moving_average(&xs, w);
        for (i, f) in fast.iter().enumerate() {
            let lo = i.saturating_sub((w - 1) / 2);
            let hi = (i + w / 2 + 1).min(xs.len());
            let naive: f64 = xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64;
            assert!((f - naive).abs() < 1e-9);
        }
    }

    #[test]
    fn moving_average_preserves_length() {
        let xs: Vec<f64> = (0..101).map(|i| i as f64).collect();
        for w in [2, 3, 10, 101, 200] {
            assert_eq!(moving_average(&xs, w).len(), xs.len());
        }
    }
}
