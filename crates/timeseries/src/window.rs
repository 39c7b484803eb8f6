//! Sliding-window iteration and trivial-match semantics.

use crate::series::TimeSeries;

/// Iterator over all subsequences of a fixed length, sliding by `step` points.
///
/// Yields `(start_offset, window_slice)` pairs. For the paper's algorithms the
/// step is always 1, but a configurable step is useful for sub-sampled scoring
/// and for the baselines' coarse passes.
#[derive(Debug, Clone)]
pub struct SlidingWindows<'a> {
    values: &'a [f64],
    window: usize,
    step: usize,
    pos: usize,
}

impl<'a> SlidingWindows<'a> {
    /// Creates a sliding-window iterator with step 1.
    pub fn new(series: &'a TimeSeries, window: usize) -> Self {
        Self::with_step(series, window, 1)
    }

    /// Creates a sliding-window iterator with an explicit step (`step >= 1`).
    pub fn with_step(series: &'a TimeSeries, window: usize, step: usize) -> Self {
        Self {
            values: series.values(),
            window,
            step: step.max(1),
            pos: 0,
        }
    }

    /// The window length.
    pub fn window(&self) -> usize {
        self.window
    }
}

impl<'a> Iterator for SlidingWindows<'a> {
    type Item = (usize, &'a [f64]);

    fn next(&mut self) -> Option<Self::Item> {
        if self.window == 0 || self.pos + self.window > self.values.len() {
            return None;
        }
        let start = self.pos;
        let item = &self.values[start..start + self.window];
        self.pos += self.step;
        Some((start, item))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.window == 0 || self.pos + self.window > self.values.len() {
            return (0, Some(0));
        }
        let remaining = (self.values.len() - self.window - self.pos) / self.step + 1;
        (remaining, Some(remaining))
    }
}

/// Returns `true` when two subsequences of length `len` starting at `i` and
/// `j` are *trivial matches* of each other, i.e. they overlap by more than
/// half their length (`|i - j| < len / 2`), as defined in the paper's
/// preliminaries.
pub fn is_trivial_match(i: usize, j: usize, len: usize) -> bool {
    let d = i.abs_diff(j);
    d < len / 2
}

/// Exclusion-zone half width used by the matrix-profile and discord baselines:
/// positions within `len/2` of a candidate are skipped when searching its
/// nearest neighbour.
pub fn exclusion_zone(len: usize) -> usize {
    len / 2
}

/// Greedily selects up to `k` indices from `scores` in decreasing score order,
/// skipping indices that are trivial matches (within `len/2`) of an already
/// selected index. This is the standard way the discord literature (and this
/// repository's evaluation) turns a per-subsequence score profile into a list
/// of top-k anomaly locations.
pub fn top_k_non_overlapping(scores: &[f64], k: usize, len: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| !scores[i].is_nan()).collect();
    order.sort_by(|&a, &b| {
        scores[b]
            .partial_cmp(&scores[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut picked: Vec<usize> = Vec::with_capacity(k);
    for idx in order {
        if picked.len() >= k {
            break;
        }
        if picked.iter().all(|&p| !is_trivial_match(p, idx, len)) {
            picked.push(idx);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_all_windows_in_order() {
        let ts = TimeSeries::from(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        let got: Vec<(usize, Vec<f64>)> = SlidingWindows::new(&ts, 3)
            .map(|(i, w)| (i, w.to_vec()))
            .collect();
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], (0, vec![0.0, 1.0, 2.0]));
        assert_eq!(got[2], (2, vec![2.0, 3.0, 4.0]));
    }

    #[test]
    fn empty_when_window_longer_than_series() {
        let ts = TimeSeries::from(vec![1.0, 2.0]);
        assert_eq!(SlidingWindows::new(&ts, 5).count(), 0);
        assert_eq!(SlidingWindows::new(&ts, 0).count(), 0);
    }

    #[test]
    fn step_skips_windows() {
        let ts = TimeSeries::from((0..10).map(|i| i as f64).collect::<Vec<_>>());
        let starts: Vec<usize> = SlidingWindows::with_step(&ts, 4, 3)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(starts, vec![0, 3, 6]);
    }

    #[test]
    fn window_count_matches_the_formula() {
        let ts = TimeSeries::from((0..23).map(|i| i as f64).collect::<Vec<_>>());
        for (w, s) in [(4usize, 1usize), (4, 3), (23, 1), (10, 7)] {
            let it = SlidingWindows::with_step(&ts, w, s);
            assert_eq!(it.count(), (23 - w) / s + 1, "w={w} s={s}");
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let ts = TimeSeries::from((0..12).map(|i| i as f64).collect::<Vec<_>>());
        let mut it = SlidingWindows::new(&ts, 5);
        assert_eq!(it.size_hint(), (8, Some(8)));
        it.next();
        assert_eq!(it.size_hint(), (7, Some(7)));
    }

    #[test]
    fn trivial_match_definition() {
        assert!(is_trivial_match(100, 100, 50));
        assert!(is_trivial_match(100, 124, 50));
        assert!(!is_trivial_match(100, 125, 50));
        assert!(!is_trivial_match(10, 300, 50));
        assert!(is_trivial_match(300, 290, 50));
    }

    #[test]
    fn top_k_skips_overlapping_peaks() {
        // Two peaks closer than len/2 must collapse into one pick.
        let mut scores = vec![0.0; 100];
        scores[10] = 5.0;
        scores[12] = 4.9; // trivial match of 10 at len=20
        scores[60] = 4.0;
        let picks = top_k_non_overlapping(&scores, 3, 20);
        assert_eq!(picks.len(), 3);
        assert_eq!(picks[0], 10);
        assert_eq!(picks[1], 60);
        assert!(picks[2] != 12 || !is_trivial_match(10, 12, 20));
    }

    #[test]
    fn top_k_respects_k() {
        let scores = vec![1.0, 2.0, 3.0, 4.0];
        let picks = top_k_non_overlapping(&scores, 2, 1);
        assert_eq!(picks, vec![3, 2]);
    }

    #[test]
    fn top_k_ignores_nan() {
        let scores = vec![1.0, f64::NAN, 3.0];
        let picks = top_k_non_overlapping(&scores, 2, 1);
        assert_eq!(picks, vec![2, 0]);
    }
}
