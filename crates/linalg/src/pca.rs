//! Principal component analysis used for the 3-dimensional reduction of the
//! subsequence projection matrix `Proj(T, ℓ, λ)`.

use crate::eigen::symmetric_eigen;
use crate::error::{Error, Result};
use crate::matrix::DMatrix;

/// A fitted PCA model: column means plus the top-`k` principal directions.
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `d × k` matrix whose columns are the principal directions.
    components: DMatrix,
    explained_variance: Vec<f64>,
    total_variance: f64,
}

impl Pca {
    /// Fits a PCA with `k` components on the rows of `data` by
    /// eigen-decomposing their covariance matrix. The embedding fits through
    /// [`Pca::fit_sliding_covariance`]; this materialised form is its
    /// reference.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] for empty input.
    /// * [`Error::TooManyComponents`] when `k > min(n, d)`.
    pub fn fit(data: &DMatrix, k: usize) -> Result<Self> {
        let (n, d) = data.shape();
        if n == 0 || d == 0 {
            return Err(Error::EmptyMatrix);
        }
        if k == 0 || k > n.min(d) {
            return Err(Error::TooManyComponents {
                requested: k,
                available: n.min(d),
            });
        }

        let (centered, mean) = data.centered();
        let denom = (n.max(2) - 1) as f64;
        let mut cov = centered.gram();
        cov.scale_in_place(1.0 / denom);
        Self::from_covariance(mean, &cov, k)
    }

    /// Fits a PCA on the `n` overlapping windows
    /// `windows[i .. i + d]`, `i ∈ [0, n)`, of a flat buffer — the shape of
    /// the subsequence projection matrix `Proj(T, ℓ, λ)`, whose row `i` is a
    /// stride-1 slice of the series' rolling-sum vector.
    ///
    /// This is the **materialization-free** fit path: instead of copying the
    /// windows into an `n × d` matrix (`O(n·d)` memory — hundreds of MB for
    /// million-point series), the column means and the `d × d` Gram matrix
    /// are accumulated directly from the overlapping slices, so peak extra
    /// memory is `O(d²)`. Every accumulation runs in exactly the summation
    /// order of [`DMatrix::column_means`] / [`DMatrix::gram`] on the
    /// materialized matrix (including the skip of zero entries), so the
    /// fitted model is **bit-identical** to
    /// `Pca::fit(&materialized, k)`.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] when `n == 0` or `d == 0`.
    /// * [`Error::ShapeMismatch`] when `windows` is shorter than the
    ///   `n + d − 1` values the windows span.
    /// * [`Error::TooManyComponents`] when `k == 0` or `k > min(n, d)`.
    pub fn fit_sliding_covariance(windows: &[f64], n: usize, d: usize, k: usize) -> Result<Self> {
        if n == 0 || d == 0 {
            return Err(Error::EmptyMatrix);
        }
        if windows.len() + 1 < n + d {
            return Err(Error::ShapeMismatch {
                op: "pca_fit_sliding",
                left: (1, windows.len()),
                right: (n, d),
            });
        }
        if k == 0 || k > n.min(d) {
            return Err(Error::TooManyComponents {
                requested: k,
                available: n.min(d),
            });
        }

        // Column means, in DMatrix::column_means order (rows outer, columns
        // inner, one division at the end).
        let mut mean = vec![0.0; d];
        for r in 0..n {
            let row = &windows[r..r + d];
            for (m, v) in mean.iter_mut().zip(row) {
                *m += v;
            }
        }
        let rows = n.max(1) as f64;
        for m in &mut mean {
            *m /= rows;
        }

        // Gram matrix of the centred rows, in DMatrix::gram order. One
        // scratch row of length d replaces the n × d centred matrix; the
        // `ri == 0.0` skip is kept because adding `0.0 * rj` can still flip
        // a `-0.0` accumulator to `+0.0` — same arithmetic, same bits.
        let mut cov = DMatrix::zeros(d, d);
        let mut centered = vec![0.0; d];
        for r in 0..n {
            for (c, v) in centered.iter_mut().enumerate() {
                *v = windows[r + c] - mean[c];
            }
            for i in 0..d {
                let ri = centered[i];
                if ri == 0.0 {
                    continue;
                }
                let out_row = cov.row_mut(i);
                for (j, &rj) in centered.iter().enumerate() {
                    out_row[j] += ri * rj;
                }
            }
        }
        let denom = (n.max(2) - 1) as f64;
        cov.scale_in_place(1.0 / denom);
        Self::from_covariance(mean, &cov, k)
    }

    /// Shared tail of both fits: eigen-decomposes the already
    /// scaled covariance matrix and keeps the top-`k` directions.
    fn from_covariance(mean: Vec<f64>, cov: &DMatrix, k: usize) -> Result<Self> {
        let d = cov.nrows();
        let eig = symmetric_eigen(cov)?;
        let total_variance: f64 = eig.eigenvalues.iter().map(|v| v.max(0.0)).sum();
        let mut components = DMatrix::zeros(d, k);
        let mut explained = Vec::with_capacity(k);
        for c in 0..k {
            explained.push(eig.eigenvalues[c].max(0.0));
            for r in 0..d {
                components.set(r, c, eig.eigenvectors.get(r, c));
            }
        }
        Ok(Self {
            mean,
            components,
            explained_variance: explained,
            total_variance,
        })
    }

    /// Reassembles a fitted PCA from its raw parts, as produced by
    /// [`Pca::mean`], [`Pca::components`], [`Pca::explained_variance`] and
    /// [`Pca::total_variance`]. Used by model persistence.
    ///
    /// # Errors
    /// * [`Error::EmptyMatrix`] when `components` has no rows or columns.
    /// * [`Error::ShapeMismatch`] when `mean` or `explained_variance` does not
    ///   match the component matrix shape.
    pub fn from_parts(
        mean: Vec<f64>,
        components: DMatrix,
        explained_variance: Vec<f64>,
        total_variance: f64,
    ) -> Result<Self> {
        let (d, k) = components.shape();
        if d == 0 || k == 0 {
            return Err(Error::EmptyMatrix);
        }
        if mean.len() != d {
            return Err(Error::ShapeMismatch {
                op: "pca_from_parts_mean",
                left: (1, mean.len()),
                right: (d, k),
            });
        }
        if explained_variance.len() != k {
            return Err(Error::ShapeMismatch {
                op: "pca_from_parts_variance",
                left: (1, explained_variance.len()),
                right: (d, k),
            });
        }
        Ok(Self {
            mean,
            components,
            explained_variance,
            total_variance,
        })
    }

    /// Total variance of the training data (denominator of
    /// [`Pca::explained_variance_ratio`]). Exposed for model persistence.
    pub fn total_variance(&self) -> f64 {
        self.total_variance
    }

    /// Number of components kept.
    pub fn n_components(&self) -> usize {
        self.components.ncols()
    }

    /// Input dimensionality the model was fitted on.
    pub fn input_dim(&self) -> usize {
        self.components.nrows()
    }

    /// Column means subtracted before projection.
    pub fn mean(&self) -> &[f64] {
        &self.mean
    }

    /// The principal directions as a `d × k` matrix (columns are directions).
    pub fn components(&self) -> &DMatrix {
        &self.components
    }

    /// Variance captured by each kept component.
    pub fn explained_variance(&self) -> &[f64] {
        &self.explained_variance
    }

    /// Fraction of the total variance captured by the kept components
    /// (the paper reports ≈95% on average for 3 components over its corpus).
    pub fn explained_variance_ratio(&self) -> f64 {
        if self.total_variance <= 0.0 {
            return 0.0;
        }
        self.explained_variance.iter().sum::<f64>() / self.total_variance
    }

    /// Projects a single row vector into the component space.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `x.len()` differs from the fitted dimensionality.
    pub fn transform_row(&self, x: &[f64]) -> Result<Vec<f64>> {
        let d = self.components.nrows();
        if x.len() != d {
            return Err(Error::ShapeMismatch {
                op: "pca_transform",
                left: (1, x.len()),
                right: (d, self.components.ncols()),
            });
        }
        let k = self.components.ncols();
        let mut out = vec![0.0; k];
        for (j, o) in out.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, (xi, mi)) in x.iter().zip(&self.mean).enumerate() {
                acc += (xi - mi) * self.components.get(i, j);
            }
            *o = acc;
        }
        Ok(out)
    }

    /// Projects a single row onto exactly three components without
    /// allocating: one pass over the row-major `d × 3` components with three
    /// accumulators. Each accumulator runs the operations of
    /// [`Pca::transform_row`] in the same order, so the result is
    /// bit-identical to it.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `x.len()` differs from the fitted
    /// dimensionality or the PCA does not keep exactly three components.
    pub fn transform3(&self, x: &[f64]) -> Result<[f64; 3]> {
        let (d, k) = self.components.shape();
        if x.len() != d || k != 3 {
            return Err(Error::ShapeMismatch {
                op: "pca_transform3",
                left: (1, x.len()),
                right: (d, k),
            });
        }
        let mut acc = [0.0; 3];
        let rows = self.components.as_slice().chunks_exact(3);
        for ((xi, mi), c) in x.iter().zip(&self.mean).zip(rows) {
            let centred = xi - mi;
            acc[0] += centred * c[0];
            acc[1] += centred * c[1];
            acc[2] += centred * c[2];
        }
        Ok(acc)
    }

    /// Projects every row of `data` into the component space, returning an
    /// `n × k` matrix.
    pub fn transform(&self, data: &DMatrix) -> Result<DMatrix> {
        let (n, d) = data.shape();
        if d != self.components.nrows() {
            return Err(Error::ShapeMismatch {
                op: "pca_transform",
                left: (n, d),
                right: self.components.shape(),
            });
        }
        let k = self.components.ncols();
        let mut out = DMatrix::zeros(n, k);
        for r in 0..n {
            let row = data.row(r);
            let out_row = out.row_mut(r);
            for (j, o) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for (i, (xi, mi)) in row.iter().zip(&self.mean).enumerate() {
                    acc += (xi - mi) * self.components.get(i, j);
                }
                *o = acc;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Generates rows living (mostly) on a 2-D plane inside R^5.
    fn planar_data(n: usize) -> DMatrix {
        let d1 = [2.0, 0.0, 1.0, 0.0, 0.0];
        let d2 = [0.0, 1.0, 0.0, 1.0, 0.0];
        let mut rows = Vec::with_capacity(n);
        for i in 0..n {
            let a = (i as f64 * 0.17).sin() * 8.0;
            let b = (i as f64 * 0.05).cos() * 3.0;
            let noise = (i as f64 * 13.37).sin() * 1e-3;
            let row: Vec<f64> = (0..5)
                .map(|j| a * d1[j] + b * d2[j] + noise + 5.0)
                .collect();
            rows.push(row);
        }
        DMatrix::from_rows(&rows).unwrap()
    }

    #[test]
    fn covariance_pca_captures_planar_variance() {
        let data = planar_data(400);
        let pca = Pca::fit(&data, 2).unwrap();
        assert_eq!(pca.n_components(), 2);
        assert!(pca.explained_variance_ratio() > 0.999);
        assert!(pca.explained_variance()[0] >= pca.explained_variance()[1]);
    }

    #[test]
    fn transform_row_matches_transform() {
        let data = planar_data(100);
        let pca = Pca::fit(&data, 3).unwrap();
        let all = pca.transform(&data).unwrap();
        for r in [0usize, 17, 99] {
            let row = pca.transform_row(data.row(r)).unwrap();
            for (c, v) in row.iter().enumerate().take(3) {
                assert!((v - all.get(r, c)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn transform3_is_bit_identical_to_transform_row() {
        let data = planar_data(100);
        let pca = Pca::fit(&data, 3).unwrap();
        for r in 0..data.nrows() {
            let naive = pca.transform_row(data.row(r)).unwrap();
            let fused = pca.transform3(data.row(r)).unwrap();
            for (a, b) in naive.iter().zip(fused) {
                assert_eq!(a.to_bits(), b.to_bits(), "row {r}");
            }
        }
        assert!(pca.transform3(&[1.0, 2.0]).is_err());
        assert!(Pca::fit(&data, 2).unwrap().transform3(data.row(0)).is_err());
    }

    #[test]
    fn projected_data_is_centred() {
        let data = planar_data(200);
        let pca = Pca::fit(&data, 2).unwrap();
        let proj = pca.transform(&data).unwrap();
        for c in 0..2 {
            let mean: f64 = proj.col(c).iter().sum::<f64>() / proj.nrows() as f64;
            assert!(mean.abs() < 1e-9);
        }
    }

    #[test]
    fn sliding_covariance_is_bit_identical_to_materialized() {
        // A buffer with noisy low bits, cut into stride-1 overlapping
        // windows exactly like the subsequence projection matrix.
        let buffer: Vec<f64> = (0..300)
            .map(|i| (i as f64 * 0.37).sin() * 3.0 + (i as f64 * 0.011).cos() + 0.1)
            .collect();
        let d = 40;
        let n = buffer.len() - d + 1;
        let rows: Vec<Vec<f64>> = (0..n).map(|i| buffer[i..i + d].to_vec()).collect();
        let materialized = DMatrix::from_rows(&rows).unwrap();

        let via_matrix = Pca::fit(&materialized, 3).unwrap();
        let via_slices = Pca::fit_sliding_covariance(&buffer, n, d, 3).unwrap();

        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(via_matrix.mean()), bits(via_slices.mean()));
        assert_eq!(
            bits(via_matrix.components().as_slice()),
            bits(via_slices.components().as_slice())
        );
        assert_eq!(
            bits(via_matrix.explained_variance()),
            bits(via_slices.explained_variance())
        );
        assert_eq!(
            via_matrix.total_variance().to_bits(),
            via_slices.total_variance().to_bits()
        );
        // And the projections agree bit-for-bit too.
        for i in [0usize, 7, n - 1] {
            let a = via_matrix.transform_row(&buffer[i..i + d]).unwrap();
            let b = via_slices.transform_row(&buffer[i..i + d]).unwrap();
            assert_eq!(bits(&a), bits(&b));
        }
    }

    #[test]
    fn sliding_covariance_validates_inputs() {
        let buffer = vec![1.0; 20];
        assert!(Pca::fit_sliding_covariance(&buffer, 0, 5, 1).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 5, 0, 1).is_err());
        // 10 windows of width 12 need 21 values; 20 is one short.
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 12, 2).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 5, 0).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 10, 5, 6).is_err());
        assert!(Pca::fit_sliding_covariance(&buffer, 16, 5, 3).is_ok());
    }

    #[test]
    fn rejects_invalid_component_counts() {
        let data = planar_data(10);
        assert!(Pca::fit(&data, 0).is_err());
        assert!(Pca::fit(&data, 6).is_err());
        assert!(Pca::fit(&DMatrix::zeros(0, 0), 1).is_err());
    }

    #[test]
    fn transform_validates_dimension() {
        let data = planar_data(50);
        let pca = Pca::fit(&data, 2).unwrap();
        assert!(pca.transform_row(&[1.0, 2.0]).is_err());
        assert!(pca.transform(&DMatrix::zeros(3, 4)).is_err());
    }

    #[test]
    fn component_directions_are_unit_norm() {
        let data = planar_data(150);
        let pca = Pca::fit(&data, 3).unwrap();
        for c in 0..3 {
            let n: f64 = pca
                .components()
                .col(c)
                .iter()
                .map(|x| x * x)
                .sum::<f64>()
                .sqrt();
            assert!((n - 1.0).abs() < 1e-9, "component {c} norm {n}");
        }
    }
}
