//! Basic descriptive statistics over `f64` slices.
//!
//! These free functions are deliberately simple and allocation-free; they are
//! used in inner loops of the embedding and of the baselines, so they avoid
//! intermediate vectors.

/// Arithmetic mean. Returns `0.0` for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance. Returns `0.0` for an empty slice.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation. Returns `0.0` for an empty slice.
pub fn std(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Minimum value, `None` for an empty slice. `NaN` values are ignored.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.min(x)),
        })
}

/// Maximum value, `None` for an empty slice. `NaN` values are ignored.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .filter(|x| !x.is_nan())
        .fold(None, |acc, x| match acc {
            None => Some(x),
            Some(a) => Some(a.max(x)),
        })
}

/// Sum of the slice.
pub fn sum(xs: &[f64]) -> f64 {
    xs.iter().sum()
}

/// Mean and population standard deviation computed in a single pass.
pub fn mean_std(xs: &[f64]) -> (f64, f64) {
    if xs.is_empty() {
        return (0.0, 0.0);
    }
    let n = xs.len() as f64;
    let mut s = 0.0;
    let mut s2 = 0.0;
    for &x in xs {
        s += x;
        s2 += x * x;
    }
    let m = s / n;
    let var = (s2 / n - m * m).max(0.0);
    (m, var.sqrt())
}

/// Index of the maximum value (first occurrence). `None` for empty input.
pub fn argmax(xs: &[f64]) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, &x) in xs.iter().enumerate() {
        if x.is_nan() {
            continue;
        }
        match best {
            None => best = Some((i, x)),
            Some((_, b)) if x > b => best = Some((i, x)),
            _ => {}
        }
    }
    best.map(|(i, _)| i)
}

/// Rolling (moving) sums of window `w`: `output[i] = sum(xs[i..i+w])`.
///
/// Returns an empty vector when `w == 0` or `w > xs.len()`. Computed with a
/// running accumulator so the cost is `O(n)` regardless of `w` — this is the
/// "reuse the previously computed convolutions" trick of Algorithm 1 in the
/// paper.
pub fn rolling_sum(xs: &[f64], w: usize) -> Vec<f64> {
    let mut out = Vec::new();
    rolling_sum_into(xs, w, &mut out);
    out
}

/// [`rolling_sum`] into a caller-owned buffer, which is cleared first and
/// keeps its capacity, so a caller that sums many windows allocates once.
pub fn rolling_sum_into(xs: &[f64], w: usize, out: &mut Vec<f64>) {
    out.clear();
    if w == 0 || w > xs.len() {
        return;
    }
    out.reserve(xs.len() - w + 1);
    let mut acc: f64 = xs[..w].iter().sum();
    out.push(acc);
    for i in w..xs.len() {
        acc += xs[i] - xs[i - w];
        out.push(acc);
    }
}

/// Rolling means of window `w` (rolling sums divided by `w`).
pub fn rolling_mean(xs: &[f64], w: usize) -> Vec<f64> {
    rolling_sum(xs, w)
        .into_iter()
        .map(|s| s / w as f64)
        .collect()
}

/// Rolling population standard deviations of window `w`.
///
/// Uses the numerically adequate two-accumulator formulation (sum and sum of
/// squares). Values are clamped at zero before the square root to avoid tiny
/// negative round-off.
pub fn rolling_std(xs: &[f64], w: usize) -> Vec<f64> {
    if w == 0 || w > xs.len() {
        return Vec::new();
    }
    let n = w as f64;
    let mut out = Vec::with_capacity(xs.len() - w + 1);
    let mut s: f64 = xs[..w].iter().sum();
    let mut s2: f64 = xs[..w].iter().map(|x| x * x).sum();
    let var0 = (s2 / n - (s / n) * (s / n)).max(0.0);
    out.push(var0.sqrt());
    for i in w..xs.len() {
        let incoming = xs[i];
        let outgoing = xs[i - w];
        s += incoming - outgoing;
        s2 += incoming * incoming - outgoing * outgoing;
        let var = (s2 / n - (s / n) * (s / n)).max(0.0);
        out.push(var.sqrt());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-9, "{a} != {b}");
    }

    #[test]
    fn mean_std_basic() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(mean(&xs), 5.0);
        assert_close(std(&xs), 2.0);
        let (m, s) = mean_std(&xs);
        assert_close(m, 5.0);
        assert_close(s, 2.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(std(&[]), 0.0);
        assert_eq!(min(&[]), None);
        assert_eq!(max(&[]), None);
        assert_eq!(argmax(&[]), None);
        assert!(rolling_sum(&[], 3).is_empty());
    }

    #[test]
    fn min_max_ignore_nan() {
        let xs = [3.0, f64::NAN, -1.0, 2.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(3.0));
    }

    #[test]
    fn argmax_takes_the_first_maximum() {
        let xs = [1.0, 5.0, -2.0, 5.0];
        assert_eq!(argmax(&xs), Some(1));
    }

    #[test]
    fn rolling_sum_matches_naive() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.7).sin()).collect();
        for w in [1, 2, 5, 17, 50] {
            let fast = rolling_sum(&xs, w);
            let naive: Vec<f64> = (0..=xs.len() - w)
                .map(|i| xs[i..i + w].iter().sum::<f64>())
                .collect();
            assert_eq!(fast.len(), naive.len());
            for (a, b) in fast.iter().zip(naive.iter()) {
                assert_close(*a, *b);
            }
        }
    }

    #[test]
    fn rolling_sum_too_long_window() {
        assert!(rolling_sum(&[1.0, 2.0], 3).is_empty());
        assert!(rolling_sum(&[1.0, 2.0], 0).is_empty());
    }

    #[test]
    fn rolling_sum_into_replaces_the_buffer_contents() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let mut out = vec![9.0; 10];
        rolling_sum_into(&xs, 2, &mut out);
        assert_eq!(out, rolling_sum(&xs, 2));
        rolling_sum_into(&xs, 5, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn rolling_std_matches_naive() {
        let xs: Vec<f64> = (0..40)
            .map(|i| ((i * i) as f64).sin() * 3.0 + i as f64)
            .collect();
        for w in [2, 5, 13] {
            let fast = rolling_std(&xs, w);
            for (i, v) in fast.iter().enumerate() {
                let naive = std(&xs[i..i + w]);
                assert!((v - naive).abs() < 1e-7, "w={w} i={i}: {v} vs {naive}");
            }
        }
    }

    #[test]
    fn rolling_mean_is_scaled_sum() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(rolling_mean(&xs, 2), vec![1.5, 2.5, 3.5]);
    }
}
