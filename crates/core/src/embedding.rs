//! Pattern embedding (Algorithm 1 of the paper).
//!
//! Every subsequence `T_{i,ℓ}` is first summarised by the vector of its
//! `ℓ − λ` local sums of width `λ` (a local convolution that removes noise
//! while keeping trend information), then reduced to three dimensions with
//! PCA, and finally rotated so that the *reference vector*
//! `v_ref = PCA3((max(T)−min(T))·λ·1)` — the direction along which constant
//! subsequences of different levels vary — is aligned with the x-axis. After
//! the rotation, the `(y, z)` components capture only shape, so recurrent
//! shapes form dense trajectories and anomalies remain isolated.

use s2g_linalg::matrix::DMatrix;
use s2g_linalg::pca::{Pca, PcaSolver};
use s2g_linalg::rotation::{align_to_x_axis, Rotation3};
use s2g_linalg::vector::{Vec2, Vec3};
use s2g_timeseries::{stats, TimeSeries};

use crate::config::S2gConfig;
use crate::error::{Error, Result};

/// The fitted embedding: PCA + rotation learned on the training series, plus
/// the projected trajectory of that series.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Pattern length `ℓ` used to build the embedding.
    pub pattern_length: usize,
    /// Convolution size `λ`.
    pub lambda: usize,
    /// The fitted 3-component PCA.
    pca: Pca,
    /// Rotation aligning `v_ref` with the x-axis.
    rotation: Rotation3,
    /// The `(y, z)` coordinates of every embedded subsequence of the training
    /// series, in time order (`SProj` restricted to its last two components).
    pub points: Vec<Vec2>,
    /// Fraction of variance explained by the three kept components.
    pub explained_variance_ratio: f64,
}

impl Embedding {
    /// Fits the embedding on a series (Algorithm 1) and projects the series.
    ///
    /// # Errors
    /// * [`Error::SeriesTooShort`] when the series cannot host a single pattern.
    /// * [`Error::InvalidConfig`] when the configuration is invalid.
    /// * [`Error::DegenerateEmbedding`] when the series carries no shape
    ///   information (e.g. a constant series).
    pub fn fit(series: &TimeSeries, config: &S2gConfig) -> Result<Self> {
        config.validate()?;
        let ell = config.pattern_length;
        let lambda = config.lambda;
        let dim = ell - lambda;
        // We need at least a few embedded points to fit a 3-D PCA.
        let min_len = ell + 4;
        if series.len() < min_len {
            return Err(Error::SeriesTooShort {
                series_len: series.len(),
                required: min_len,
            });
        }

        // Rolling-sum vector: row i of the conceptual projection matrix
        // Proj(T, ℓ, λ) is the stride-1 slice conv[i .. i + ℓ - λ], so the
        // matrix never needs to exist — every consumer below reads the
        // overlapping slices directly.
        let conv = stats::rolling_sum(series.values(), lambda);
        let n_points = series.len() - ell + 1;
        debug_assert!(conv.len() >= n_points + dim - 1);

        // 3-component PCA. The covariance solver accumulates the column
        // means and the (ℓ−λ)² Gram matrix straight from the slices —
        // peak fit memory drops from O(|T|·(ℓ−λ)) to O((ℓ−λ)²) with
        // bit-identical output (same summation order). The randomized-SVD
        // solver needs the explicit matrix for its sketch products, so it
        // alone still materialises (and promptly drops) it.
        let pca = match config.pca_solver {
            PcaSolver::Covariance => Pca::fit_sliding_covariance(&conv, n_points, dim, 3)?,
            solver @ PcaSolver::RandomizedSvd { .. } => {
                let mut proj = DMatrix::zeros(n_points, dim);
                for i in 0..n_points {
                    proj.row_mut(i).copy_from_slice(&conv[i..i + dim]);
                }
                Pca::fit_with(&proj, 3, solver)?
            }
        };
        let explained = pca.explained_variance_ratio();

        // Reference vector: the image of the difference between the constant-
        // max and constant-min subsequences, i.e. (max−min)·λ·1 in convolution
        // space (Algorithm 1, line 10).
        let min_v = series.min().unwrap_or(0.0);
        let max_v = series.max().unwrap_or(0.0);
        if (max_v - min_v).abs() < 1e-12 {
            return Err(Error::DegenerateEmbedding("series is constant"));
        }
        let ref_point = vec![(max_v - min_v) * lambda as f64; dim];
        let zero_point = vec![0.0; dim];
        let ref_proj = pca.transform3(&ref_point)?;
        let zero_proj = pca.transform3(&zero_point)?;
        let v_ref = Vec3::from_slice(&ref_proj) - Vec3::from_slice(&zero_proj);
        if v_ref.norm() < 1e-12 {
            return Err(Error::DegenerateEmbedding(
                "reference vector collapsed to zero",
            ));
        }
        let rotation = align_to_x_axis(v_ref);

        // Project and rotate every subsequence row-by-row from the rolling
        // sums, keeping (y, z). The slice conv[i..i+dim] carries exactly the
        // values row i of the materialised matrix held, so the trajectory is
        // bit-identical to the matrix-backed fit.
        let mut points = Vec::with_capacity(n_points);
        for i in 0..n_points {
            points.push(embed_row(&pca, &rotation, &conv[i..i + dim])?);
        }

        Ok(Self {
            pattern_length: ell,
            lambda,
            pca,
            rotation,
            points,
            explained_variance_ratio: explained,
        })
    }

    /// Reassembles a fitted embedding from its parts (the inverse of
    /// [`Embedding::pca`], [`Embedding::rotation`] and the public fields).
    /// Used by model persistence; performs no refitting.
    pub fn from_parts(
        pattern_length: usize,
        lambda: usize,
        pca: Pca,
        rotation: Rotation3,
        points: Vec<Vec2>,
        explained_variance_ratio: f64,
    ) -> Self {
        Self {
            pattern_length,
            lambda,
            pca,
            rotation,
            points,
            explained_variance_ratio,
        }
    }

    /// The fitted PCA (exposed for model persistence).
    pub fn pca(&self) -> &Pca {
        &self.pca
    }

    /// The fitted rotation aligning `v_ref` with the x-axis (exposed for
    /// model persistence).
    pub fn rotation(&self) -> &Rotation3 {
        &self.rotation
    }

    /// Number of embedded points of the training series.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` when the embedding holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Projects a (possibly unseen) series with the *already fitted* PCA and
    /// rotation, returning the `(y, z)` trajectory of its subsequences.
    ///
    /// This is the first half of the paper's `Time2Path` conversion; it allows
    /// scoring subsequences that were not part of the training series.
    ///
    /// # Errors
    /// [`Error::SeriesTooShort`] when the series is shorter than `ℓ`.
    pub fn project(&self, series: &TimeSeries) -> Result<Vec<Vec2>> {
        let ell = self.pattern_length;
        if series.len() < ell {
            return Err(Error::SeriesTooShort {
                series_len: series.len(),
                required: ell,
            });
        }
        let dim = ell - self.lambda;
        let conv = stats::rolling_sum(series.values(), self.lambda);
        let n_points = series.len() - ell + 1;
        let mut out = Vec::with_capacity(n_points);
        for i in 0..n_points {
            out.push(embed_row(&self.pca, &self.rotation, &conv[i..i + dim])?);
        }
        Ok(out)
    }

    /// Projects the single subsequence `window` (exactly ℓ points) without
    /// allocating: its rolling sums go into the caller's reused `conv`
    /// buffer. Bit-identical to the last point of
    /// [`Embedding::project_slice`] on the same window.
    pub(crate) fn project_window(&self, window: &[f64], conv: &mut Vec<f64>) -> Result<Vec2> {
        debug_assert_eq!(window.len(), self.pattern_length);
        stats::rolling_sum_into(window, self.lambda, conv);
        let dim = self.pattern_length - self.lambda;
        embed_row(&self.pca, &self.rotation, &conv[..dim])
    }

    /// Projects a single subsequence (given as a slice of length ≥ ℓ),
    /// returning the embedded trajectory of its length-ℓ windows.
    pub fn project_slice(&self, values: &[f64]) -> Result<Vec<Vec2>> {
        self.project(&TimeSeries::from(values))
    }
}

/// The rotated `(y, z)` point of one row of `Proj(T, ℓ, λ)`: the fused
/// three-component projection, then rows 1 and 2 of the rotation. Every
/// operation runs in the order of `Pca::transform_row` followed by
/// `Rotation3::apply`, so the point is bit-identical to theirs.
fn embed_row(pca: &Pca, rotation: &Rotation3, row: &[f64]) -> Result<Vec2> {
    let [x, y, z] = pca.transform3(row)?;
    let m = rotation.rows();
    Ok(Vec2::new(
        m[1][0] * x + m[1][1] * y + m[1][2] * z,
        m[2][0] * x + m[2][1] * y + m[2][2] * z,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_series(n: usize, period: f64) -> TimeSeries {
        TimeSeries::from(
            (0..n)
                .map(|i| (std::f64::consts::TAU * i as f64 / period).sin())
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn embedding_has_one_point_per_subsequence() {
        let series = sine_series(2000, 100.0);
        let config = S2gConfig::new(60);
        let emb = Embedding::fit(&series, &config).unwrap();
        assert_eq!(emb.len(), 2000 - 60 + 1);
        assert!(!emb.is_empty());
    }

    #[test]
    fn periodic_series_explained_variance_is_high() {
        let series = sine_series(4000, 100.0);
        let emb = Embedding::fit(&series, &S2gConfig::new(60)).unwrap();
        assert!(
            emb.explained_variance_ratio > 0.9,
            "explained variance {} too low",
            emb.explained_variance_ratio
        );
    }

    #[test]
    fn mean_shift_does_not_move_yz_trajectory() {
        // Two series with identical shape but different offsets must produce
        // nearly identical (y, z) trajectories: the offset lives on the
        // rotated x-axis (this is the whole point of the v_ref rotation).
        let n = 3000;
        let base: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 80.0).sin())
            .collect();
        let mut shifted = base.clone();
        for v in shifted[1500..].iter_mut() {
            *v += 5.0;
        }
        let series = TimeSeries::from(shifted);
        let config = S2gConfig::new(48);
        let emb = Embedding::fit(&series, &config).unwrap();
        // Compare the trajectory of a cycle early (offset 0) and late (offset 5):
        // same phase positions, one period apart from the shift point.
        let p_early = emb.points[400];
        let p_late = emb.points[400 + 2000]; // same phase (2000 = 25 periods)
        let spread: f64 = emb.points.iter().map(|p| p.norm()).fold(0.0, f64::max);
        assert!(
            p_early.distance(&p_late) < 0.15 * spread.max(1e-9),
            "shape-equal subsequences too far apart: {} vs spread {}",
            p_early.distance(&p_late),
            spread
        );
    }

    #[test]
    fn anomalous_shape_is_isolated_in_embedding() {
        // A sine with a burst of doubled frequency: the burst's embedded
        // points should lie far from the dense normal trajectory.
        let n = 4000;
        let mut values: Vec<f64> = (0..n)
            .map(|i| (std::f64::consts::TAU * i as f64 / 100.0).sin())
            .collect();
        for (i, v) in values.iter_mut().enumerate().take(2150).skip(2000) {
            *v = (std::f64::consts::TAU * (i as f64) / 25.0).sin();
        }
        let series = TimeSeries::from(values);
        let emb = Embedding::fit(&series, &S2gConfig::new(50)).unwrap();

        // Isolation criterion: distance to the nearest *normal* embedded
        // point. Points of other normal cycles sit right on the normal
        // trajectory (distance ≈ 0), anomalous points do not.
        let normal_points = &emb.points[..1800];
        let nearest_normal = |p: &Vec2| {
            normal_points
                .iter()
                .map(|q| p.distance(q))
                .fold(f64::INFINITY, f64::min)
        };
        let anomaly_isolation = emb.points[2020..2080]
            .iter()
            .map(&nearest_normal)
            .fold(0.0, f64::max);
        let normal_isolation = emb.points[2500..2600]
            .iter()
            .map(nearest_normal)
            .fold(0.0, f64::max);
        assert!(
            anomaly_isolation > 5.0 * (normal_isolation + 1e-9),
            "anomalous points not isolated: {anomaly_isolation} vs normal isolation {normal_isolation}"
        );
    }

    #[test]
    fn project_matches_training_points_on_same_series() {
        let series = sine_series(1500, 60.0);
        let emb = Embedding::fit(&series, &S2gConfig::new(30)).unwrap();
        let reprojected = emb.project(&series).unwrap();
        assert_eq!(reprojected.len(), emb.points.len());
        for (a, b) in emb.points.iter().zip(reprojected.iter()) {
            assert!(a.distance(b) < 1e-9);
        }
    }

    #[test]
    fn project_unseen_series_works() {
        let train = sine_series(2000, 100.0);
        let emb = Embedding::fit(&train, &S2gConfig::new(50)).unwrap();
        let unseen = sine_series(500, 100.0);
        let pts = emb.project(&unseen).unwrap();
        assert_eq!(pts.len(), 500 - 50 + 1);
        // Unseen-but-same-shape data should land on the training trajectory.
        let train_max_norm = emb.points.iter().map(|p| p.norm()).fold(0.0, f64::max);
        let unseen_max_norm = pts.iter().map(|p| p.norm()).fold(0.0, f64::max);
        assert!(unseen_max_norm <= 1.2 * train_max_norm + 1e-9);
    }

    #[test]
    fn errors_on_short_or_constant_series() {
        let short = sine_series(40, 10.0);
        assert!(matches!(
            Embedding::fit(&short, &S2gConfig::new(50)),
            Err(Error::SeriesTooShort { .. })
        ));
        let constant = TimeSeries::constant(1000, 3.0);
        assert!(matches!(
            Embedding::fit(&constant, &S2gConfig::new(50)),
            Err(Error::DegenerateEmbedding(_))
        ));
        let emb = Embedding::fit(&sine_series(1000, 50.0), &S2gConfig::new(50)).unwrap();
        assert!(emb.project(&sine_series(20, 10.0)).is_err());
    }

    #[test]
    fn randomized_solver_produces_similar_geometry() {
        use s2g_linalg::pca::PcaSolver;
        let series = sine_series(2500, 90.0);
        let exact = Embedding::fit(&series, &S2gConfig::new(45)).unwrap();
        let rand = Embedding::fit(
            &series,
            &S2gConfig::new(45).with_pca_solver(PcaSolver::RandomizedSvd {
                oversample: 7,
                power_iterations: 3,
                seed: 11,
            }),
        )
        .unwrap();
        // Pairwise distances between a few sampled points must agree (the
        // embeddings may differ by sign/rotation of components, but geometry
        // within the (y,z) plane is preserved up to reflection).
        let d_exact = exact.points[100].distance(&exact.points[500]);
        let d_rand = rand.points[100].distance(&rand.points[500]);
        assert!(
            (d_exact - d_rand).abs() < 0.15 * d_exact.max(1e-9),
            "{d_exact} vs {d_rand}"
        );
    }
}
