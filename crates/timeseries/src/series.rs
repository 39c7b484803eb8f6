//! Owned data-series container.

use crate::error::{Error, Result};
use crate::stats;

/// An owned, contiguous univariate data series `T = [T_1, ..., T_n]`.
///
/// The container is a thin wrapper over `Vec<f64>` that adds the subsequence
/// and statistics vocabulary used throughout the workspace. Following the
/// paper, a *subsequence* `T_{i,ℓ}` is the contiguous slice of length `ℓ`
/// starting at offset `i` (0-based here).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        Self { values: Vec::new() }
    }

    /// Creates an empty series with pre-allocated capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            values: Vec::with_capacity(capacity),
        }
    }

    /// Creates a series of `len` zeros.
    pub fn zeros(len: usize) -> Self {
        Self {
            values: vec![0.0; len],
        }
    }

    /// Creates a series of `len` copies of `value`.
    pub fn constant(len: usize, value: f64) -> Self {
        Self {
            values: vec![value; len],
        }
    }

    /// Number of points in the series (`|T|`).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` when the series has no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Immutable view of the underlying values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Consumes the series and returns the underlying vector.
    pub fn into_vec(self) -> Vec<f64> {
        self.values
    }

    /// Appends a point at the end of the series.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Returns the point at offset `i`, or `None` past the end.
    pub fn get(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied()
    }

    /// Returns the subsequence `T_{start, len}` as a slice.
    ///
    /// # Errors
    /// Returns [`Error::OutOfBounds`] if `start + len > |T|` and
    /// [`Error::InvalidLength`] if `len == 0`.
    pub fn subsequence(&self, start: usize, len: usize) -> Result<&[f64]> {
        if len == 0 {
            return Err(Error::InvalidLength {
                len,
                what: "subsequence length",
            });
        }
        let end = start.checked_add(len).ok_or(Error::OutOfBounds {
            start,
            len,
            series_len: self.len(),
        })?;
        if end > self.len() {
            return Err(Error::OutOfBounds {
                start,
                len,
                series_len: self.len(),
            });
        }
        Ok(&self.values[start..end])
    }

    /// Returns the prefix containing the first `len` points (clamped to `|T|`).
    pub fn prefix(&self, len: usize) -> TimeSeries {
        let end = len.min(self.len());
        TimeSeries::from(self.values[..end].to_vec())
    }

    /// Arithmetic mean of the series. Returns `0.0` for an empty series.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values)
    }

    /// Population standard deviation of the series. Returns `0.0` for an empty series.
    pub fn std(&self) -> f64 {
        stats::std(&self.values)
    }

    /// Minimum value. Returns `None` for an empty series.
    pub fn min(&self) -> Option<f64> {
        stats::min(&self.values)
    }

    /// Maximum value. Returns `None` for an empty series.
    pub fn max(&self) -> Option<f64> {
        stats::max(&self.values)
    }

    /// Iterator over the values.
    pub fn iter(&self) -> std::slice::Iter<'_, f64> {
        self.values.iter()
    }

    /// Returns a new series holding `self` followed by `other`.
    pub fn concat(&self, other: &TimeSeries) -> TimeSeries {
        let mut v = Vec::with_capacity(self.len() + other.len());
        v.extend_from_slice(self.values());
        v.extend_from_slice(other.values());
        TimeSeries::from(v)
    }
}

impl From<Vec<f64>> for TimeSeries {
    fn from(values: Vec<f64>) -> Self {
        Self { values }
    }
}

impl From<&[f64]> for TimeSeries {
    fn from(values: &[f64]) -> Self {
        Self {
            values: values.to_vec(),
        }
    }
}

impl FromIterator<f64> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self {
            values: iter.into_iter().collect(),
        }
    }
}

impl std::ops::Index<usize> for TimeSeries {
    type Output = f64;
    fn index(&self, index: usize) -> &f64 {
        &self.values[index]
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = &'a f64;
    type IntoIter = std::slice::Iter<'a, f64>;
    fn into_iter(self) -> Self::IntoIter {
        self.values.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_len() {
        let ts = TimeSeries::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
        assert_eq!(ts[1], 2.0);
        assert_eq!(ts.get(2), Some(3.0));
        assert_eq!(ts.get(3), None);
    }

    #[test]
    fn zeros_and_constant() {
        assert_eq!(TimeSeries::zeros(4).values(), &[0.0; 4]);
        assert_eq!(TimeSeries::constant(3, 2.5).values(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn subsequence_bounds() {
        let ts = TimeSeries::from(vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert_eq!(ts.subsequence(1, 3).unwrap(), &[1.0, 2.0, 3.0]);
        assert!(ts.subsequence(3, 3).is_err());
        assert!(ts.subsequence(0, 0).is_err());
        assert!(ts.subsequence(usize::MAX, 2).is_err());
    }

    #[test]
    fn statistics() {
        let ts = TimeSeries::from(vec![1.0, 2.0, 3.0, 4.0]);
        assert!((ts.mean() - 2.5).abs() < 1e-12);
        assert_eq!(ts.min(), Some(1.0));
        assert_eq!(ts.max(), Some(4.0));
        assert!(ts.std() > 0.0);
    }

    #[test]
    fn prefix_clamps() {
        let ts = TimeSeries::from(vec![1.0, 2.0, 3.0]);
        assert_eq!(ts.prefix(2).values(), &[1.0, 2.0]);
        assert_eq!(ts.prefix(10).len(), 3);
    }

    #[test]
    fn concat_appends_the_second_series() {
        let a = TimeSeries::from(vec![1.0, 2.0]);
        let b = TimeSeries::from(vec![3.0]);
        assert_eq!(a.concat(&b).values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_iterator_and_push() {
        let mut ts: TimeSeries = (0..4).map(|i| i as f64).collect();
        ts.push(4.0);
        assert_eq!(ts.values(), &[0.0, 1.0, 2.0, 3.0, 4.0]);
    }
}
