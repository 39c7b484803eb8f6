//! Row-major dense matrix with the operations needed by the embedding pipeline.

use crate::error::{Error, Result};

/// A dense, row-major `f64` matrix.
///
/// The type purposely implements only the operations this workspace needs
/// (multiplication, transpose, column centring, Gram matrices, row/column
/// access); it is not a general-purpose linear-algebra library.
#[derive(Debug, Clone, PartialEq)]
pub struct DMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DMatrix {
    /// Creates a `rows x cols` matrix filled with zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Creates a matrix from a flat row-major buffer.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Result<Self> {
        if data.len() != rows * cols {
            return Err(Error::ShapeMismatch {
                op: "from_vec",
                left: (rows, cols),
                right: (data.len(), 1),
            });
        }
        Ok(Self { rows, cols, data })
    }

    /// Creates a matrix from a slice of equal-length rows.
    ///
    /// # Errors
    /// [`Error::EmptyMatrix`] for no rows, [`Error::ShapeMismatch`] for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(Error::EmptyMatrix);
        }
        let cols = rows[0].len();
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            if r.len() != cols {
                return Err(Error::ShapeMismatch {
                    op: "from_rows",
                    left: (1, cols),
                    right: (1, r.len()),
                });
            }
            data.extend_from_slice(r);
        }
        Ok(Self {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// `true` when the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Element accessor (panics on out-of-bounds, like slice indexing).
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.cols + c]
    }

    /// Element setter (panics on out-of-bounds, like slice indexing).
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.cols + c] = v;
    }

    /// Immutable view of row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self.get(r, c)).collect()
    }

    /// Underlying row-major buffer.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Matrix transpose.
    pub fn transpose(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.set(c, r, self.get(r, c));
            }
        }
        out
    }

    /// Matrix product `self * other`.
    ///
    /// # Errors
    /// [`Error::ShapeMismatch`] when inner dimensions differ.
    pub fn matmul(&self, other: &DMatrix) -> Result<DMatrix> {
        if self.cols != other.rows {
            return Err(Error::ShapeMismatch {
                op: "matmul",
                left: self.shape(),
                right: other.shape(),
            });
        }
        let mut out = DMatrix::zeros(self.rows, other.cols);
        // i-k-j loop order for cache-friendly access of row-major operands.
        for i in 0..self.rows {
            let a_row = self.row(i);
            for (k, &aik) in a_row.iter().enumerate() {
                if aik == 0.0 {
                    continue;
                }
                let b_row = other.row(k);
                let out_row = out.row_mut(i);
                for (j, &bkj) in b_row.iter().enumerate() {
                    out_row[j] += aik * bkj;
                }
            }
        }
        Ok(out)
    }

    /// Per-column means.
    pub fn column_means(&self) -> Vec<f64> {
        let mut means = vec![0.0; self.cols];
        for r in 0..self.rows {
            for (c, m) in means.iter_mut().enumerate() {
                *m += self.get(r, c);
            }
        }
        let n = self.rows.max(1) as f64;
        for m in &mut means {
            *m /= n;
        }
        means
    }

    /// Returns a copy with every column centred to zero mean, along with the
    /// subtracted means.
    pub fn centered(&self) -> (DMatrix, Vec<f64>) {
        let means = self.column_means();
        let mut out = self.clone();
        for r in 0..out.rows {
            let row = out.row_mut(r);
            for (c, v) in row.iter_mut().enumerate() {
                *v -= means[c];
            }
        }
        (out, means)
    }

    /// Gram matrix `selfᵀ · self`, computed without materialising the transpose.
    pub fn gram(&self) -> DMatrix {
        let mut out = DMatrix::zeros(self.cols, self.cols);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..self.cols {
                let ri = row[i];
                if ri == 0.0 {
                    continue;
                }
                let out_row = out.row_mut(i);
                for (j, &rj) in row.iter().enumerate() {
                    out_row[j] += ri * rj;
                }
            }
        }
        out
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Scales every element in place.
    pub fn scale_in_place(&mut self, factor: f64) {
        for v in &mut self.data {
            *v *= factor;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-9
    }

    #[test]
    fn construction_and_access() {
        let m = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.col(1), vec![2.0, 4.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(DMatrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(DMatrix::from_vec(2, 2, vec![1.0; 4]).is_ok());
    }

    #[test]
    fn from_rows_rejects_ragged_and_empty() {
        assert!(DMatrix::from_rows(&[]).is_err());
        assert!(DMatrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn identity_matmul_is_noop() {
        let m = DMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        let i = DMatrix::identity(3);
        let p = m.matmul(&i).unwrap();
        assert_eq!(p, m);
    }

    #[test]
    fn matmul_known_result() {
        let a = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        let b = DMatrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert!(approx(c.get(0, 0), 19.0));
        assert!(approx(c.get(0, 1), 22.0));
        assert!(approx(c.get(1, 0), 43.0));
        assert!(approx(c.get(1, 1), 50.0));
    }

    #[test]
    fn matmul_shape_mismatch() {
        let a = DMatrix::zeros(2, 3);
        let b = DMatrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn transpose_involution() {
        let m = DMatrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap();
        assert_eq!(m.transpose().transpose(), m);
        assert_eq!(m.transpose().shape(), (3, 2));
    }

    #[test]
    fn centered_columns_have_zero_mean() {
        let m = DMatrix::from_rows(&[vec![1.0, 10.0], vec![3.0, 20.0], vec![5.0, 30.0]]).unwrap();
        let (c, means) = m.centered();
        assert!(approx(means[0], 3.0) && approx(means[1], 20.0));
        let cm = c.column_means();
        assert!(cm.iter().all(|&x| x.abs() < 1e-12));
    }

    #[test]
    fn gram_matches_explicit_transpose_product() {
        let m = DMatrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]).unwrap();
        let g = m.gram();
        let explicit = m.transpose().matmul(&m).unwrap();
        for r in 0..2 {
            for c in 0..2 {
                assert!(approx(g.get(r, c), explicit.get(r, c)));
            }
        }
    }

    #[test]
    fn frobenius_norm_known_value() {
        let m = DMatrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]).unwrap();
        assert!(approx(m.frobenius_norm(), 5.0));
    }

    #[test]
    fn scale_in_place_scales_all() {
        let mut m = DMatrix::identity(2);
        m.scale_in_place(3.0);
        assert_eq!(m.get(0, 0), 3.0);
        assert_eq!(m.get(0, 1), 0.0);
    }
}
