//! Symmetric eigen-decomposition via the cyclic Jacobi method.
//!
//! The matrices decomposed here are small (the covariance matrices of the
//! embedding are `(ℓ−λ)×(ℓ−λ)`), so the robust and simple Jacobi rotation
//! scheme is an appropriate choice.

use crate::error::{Error, Result};
use crate::matrix::DMatrix;

/// Result of a symmetric eigen-decomposition: `A = V · diag(λ) · Vᵀ`.
#[derive(Debug, Clone)]
pub struct SymmetricEigen {
    /// Eigenvalues sorted in decreasing order.
    pub eigenvalues: Vec<f64>,
    /// Eigenvectors as matrix columns, in the same order as `eigenvalues`.
    pub eigenvectors: DMatrix,
}

/// Computes the eigen-decomposition of a symmetric matrix with the cyclic
/// Jacobi method.
///
/// The input is assumed symmetric; only its lower/upper consistency up to
/// floating point noise matters (the algorithm symmetrises implicitly by
/// operating on both sides). Eigenvalues are returned in decreasing order.
///
/// # Errors
/// * [`Error::ShapeMismatch`] when the matrix is not square.
/// * [`Error::EmptyMatrix`] when the matrix is empty.
/// * [`Error::NoConvergence`] when off-diagonal mass does not vanish within
///   the sweep limit (does not happen for well-formed symmetric input).
pub fn symmetric_eigen(matrix: &DMatrix) -> Result<SymmetricEigen> {
    let (n, m) = matrix.shape();
    if n == 0 || m == 0 {
        return Err(Error::EmptyMatrix);
    }
    if n != m {
        return Err(Error::ShapeMismatch {
            op: "symmetric_eigen",
            left: (n, m),
            right: (n, n),
        });
    }

    let mut a = matrix.clone();
    let mut v = DMatrix::identity(n);

    const MAX_SWEEPS: usize = 100;
    let tol = 1e-14 * a.frobenius_norm().max(1.0);

    for _sweep in 0..MAX_SWEEPS {
        let off = off_diagonal_norm(&a);
        if off <= tol {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = a.get(p, q);
                if apq.abs() <= tol / (n as f64) {
                    continue;
                }
                let app = a.get(p, p);
                let aqq = a.get(q, q);
                // Compute the Jacobi rotation that annihilates a[p][q].
                let theta = (aqq - app) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (1.0 + theta * theta).sqrt())
                } else {
                    -1.0 / (-theta + (1.0 + theta * theta).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;

                // Apply rotation to A on both sides: A <- Jᵀ A J.
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - s * akq);
                    a.set(k, q, s * akp + c * akq);
                }
                for k in 0..n {
                    let apk = a.get(p, k);
                    let aqk = a.get(q, k);
                    a.set(p, k, c * apk - s * aqk);
                    a.set(q, k, s * apk + c * aqk);
                }
                // Accumulate eigenvectors: V <- V J.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - s * vkq);
                    v.set(k, q, s * vkp + c * vkq);
                }
            }
        }
    }

    if off_diagonal_norm(&a) > tol * 1e3 {
        return Err(Error::NoConvergence("Jacobi eigen-decomposition"));
    }

    // Extract eigenvalues and sort them (with their vectors) in decreasing order.
    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (a.get(i, i), i)).collect();
    pairs.sort_by(|x, y| y.0.partial_cmp(&x.0).unwrap_or(std::cmp::Ordering::Equal));

    let eigenvalues: Vec<f64> = pairs.iter().map(|(val, _)| *val).collect();
    let mut eigenvectors = DMatrix::zeros(n, n);
    for (new_col, (_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            eigenvectors.set(r, new_col, v.get(r, *old_col));
        }
    }

    Ok(SymmetricEigen {
        eigenvalues,
        eigenvectors,
    })
}

fn off_diagonal_norm(a: &DMatrix) -> f64 {
    let n = a.nrows();
    let mut acc = 0.0;
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let x = a.get(i, j);
                acc += x * x;
            }
        }
    }
    acc.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, eps: f64) -> bool {
        (a - b).abs() < eps
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let m = DMatrix::from_rows(&[
            vec![3.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0],
            vec![0.0, 0.0, 2.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&m).unwrap();
        assert!(approx(e.eigenvalues[0], 3.0, 1e-10));
        assert!(approx(e.eigenvalues[1], 2.0, 1e-10));
        assert!(approx(e.eigenvalues[2], 1.0, 1e-10));
    }

    #[test]
    fn known_2x2() {
        // [[2, 1], [1, 2]] has eigenvalues 3 and 1.
        let m = DMatrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 2.0]]).unwrap();
        let e = symmetric_eigen(&m).unwrap();
        assert!(approx(e.eigenvalues[0], 3.0, 1e-10));
        assert!(approx(e.eigenvalues[1], 1.0, 1e-10));
        // Eigenvector for 3 is (1,1)/sqrt(2) up to sign.
        let v0 = e.eigenvectors.col(0);
        assert!(approx(v0[0].abs(), 1.0 / 2f64.sqrt(), 1e-9));
        assert!(approx(v0[1].abs(), 1.0 / 2f64.sqrt(), 1e-9));
    }

    #[test]
    fn reconstruction_holds() {
        let m = DMatrix::from_rows(&[
            vec![4.0, 1.0, 0.5, 0.0],
            vec![1.0, 3.0, 0.2, 0.1],
            vec![0.5, 0.2, 2.0, 0.3],
            vec![0.0, 0.1, 0.3, 1.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&m).unwrap();
        // Rebuild A = V diag(λ) Vᵀ and compare.
        let n = 4;
        let mut lambda = DMatrix::zeros(n, n);
        for i in 0..n {
            lambda.set(i, i, e.eigenvalues[i]);
        }
        let rebuilt = e
            .eigenvectors
            .matmul(&lambda)
            .unwrap()
            .matmul(&e.eigenvectors.transpose())
            .unwrap();
        for r in 0..n {
            for c in 0..n {
                assert!(
                    approx(rebuilt.get(r, c), m.get(r, c), 1e-8),
                    "mismatch at ({r},{c}): {} vs {}",
                    rebuilt.get(r, c),
                    m.get(r, c)
                );
            }
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let m = DMatrix::from_rows(&[
            vec![5.0, 2.0, 1.0],
            vec![2.0, 4.0, 0.5],
            vec![1.0, 0.5, 3.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&m).unwrap();
        let vtv = e.eigenvectors.transpose().matmul(&e.eigenvectors).unwrap();
        for r in 0..3 {
            for c in 0..3 {
                let expected = if r == c { 1.0 } else { 0.0 };
                assert!(approx(vtv.get(r, c), expected, 1e-9));
            }
        }
    }

    #[test]
    fn eigenvalues_sorted_descending() {
        let m = DMatrix::from_rows(&[
            vec![1.0, 0.2, 0.0],
            vec![0.2, 6.0, 0.1],
            vec![0.0, 0.1, 3.0],
        ])
        .unwrap();
        let e = symmetric_eigen(&m).unwrap();
        assert!(e.eigenvalues[0] >= e.eigenvalues[1]);
        assert!(e.eigenvalues[1] >= e.eigenvalues[2]);
    }

    #[test]
    fn rejects_non_square_and_empty() {
        assert!(symmetric_eigen(&DMatrix::zeros(2, 3)).is_err());
        assert!(symmetric_eigen(&DMatrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let m = DMatrix::from_rows(&[
            vec![2.0, -1.0, 0.3],
            vec![-1.0, 2.5, 0.7],
            vec![0.3, 0.7, 1.5],
        ])
        .unwrap();
        let e = symmetric_eigen(&m).unwrap();
        let trace: f64 = (0..3).map(|i| m.get(i, i)).sum();
        let sum: f64 = e.eigenvalues.iter().sum();
        assert!(approx(trace, sum, 1e-9));
    }
}
