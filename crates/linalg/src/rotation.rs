//! 3-D rotations used to align the reference vector `v_ref` with the x-axis.
//!
//! The paper composes three per-axis rotation matrices `R_ux(φx)·R_uy(φy)·R_uz(φz)`
//! built from the angles between `v_ref` and the coordinate axes. The exact
//! same effect — mapping `v_ref/‖v_ref‖` onto the x-axis so that the
//! remaining two coordinates carry only shape information — is obtained more
//! robustly with a single axis–angle (Rodrigues) rotation, which is what
//! [`align_to_x_axis`] produces. Both constructions are provided; the core
//! crate uses the Rodrigues form and the per-axis form is kept for parity
//! with the paper's notation and for the ablation benchmarks.

use crate::vector::Vec3;

/// A 3×3 rotation matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Rotation3 {
    m: [[f64; 3]; 3],
}

impl Rotation3 {
    /// Builds a rotation directly from its 3×3 matrix rows. The caller is
    /// responsible for passing an orthonormal matrix; used by model
    /// persistence to round-trip a fitted rotation exactly.
    pub fn from_rows(m: [[f64; 3]; 3]) -> Self {
        Self { m }
    }

    /// The rotation's raw 3×3 matrix rows (inverse of [`Rotation3::from_rows`]).
    pub fn rows(&self) -> [[f64; 3]; 3] {
        self.m
    }

    /// The identity rotation.
    pub fn identity() -> Self {
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Rotation about the x-axis by `angle` radians.
    pub fn about_x(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self {
            m: [[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]],
        }
    }

    /// Rotation about the y-axis by `angle` radians.
    pub fn about_y(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self {
            m: [[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]],
        }
    }

    /// Rotation about the z-axis by `angle` radians.
    pub fn about_z(angle: f64) -> Self {
        let (s, c) = angle.sin_cos();
        Self {
            m: [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]],
        }
    }

    /// Axis–angle (Rodrigues) rotation about the given axis. A zero axis
    /// yields the identity.
    pub fn from_axis_angle(axis: Vec3, angle: f64) -> Self {
        let Some(u) = axis.normalized() else {
            return Self::identity();
        };
        let (s, c) = angle.sin_cos();
        let t = 1.0 - c;
        let (x, y, z) = (u.x, u.y, u.z);
        Self {
            m: [
                [t * x * x + c, t * x * y - s * z, t * x * z + s * y],
                [t * x * y + s * z, t * y * y + c, t * y * z - s * x],
                [t * x * z - s * y, t * y * z + s * x, t * z * z + c],
            ],
        }
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`).
    pub fn compose(&self, other: &Rotation3) -> Rotation3 {
        let mut out = [[0.0; 3]; 3];
        for (i, out_row) in out.iter_mut().enumerate() {
            for (j, out_v) in out_row.iter_mut().enumerate() {
                let mut acc = 0.0;
                for k in 0..3 {
                    acc += self.m[i][k] * other.m[k][j];
                }
                *out_v = acc;
            }
        }
        Rotation3 { m: out }
    }

    /// Applies the rotation to a vector.
    pub fn apply(&self, v: Vec3) -> Vec3 {
        Vec3::new(
            self.m[0][0] * v.x + self.m[0][1] * v.y + self.m[0][2] * v.z,
            self.m[1][0] * v.x + self.m[1][1] * v.y + self.m[1][2] * v.z,
            self.m[2][0] * v.x + self.m[2][1] * v.y + self.m[2][2] * v.z,
        )
    }

    /// The inverse rotation (transpose).
    pub fn inverse(&self) -> Rotation3 {
        let mut out = [[0.0; 3]; 3];
        for (i, row) in out.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate() {
                *v = self.m[j][i];
            }
        }
        Rotation3 { m: out }
    }

    /// Raw element accessor.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.m[i][j]
    }
}

/// Builds the rotation that maps `v_ref/‖v_ref‖` onto the positive x-axis.
///
/// After applying this rotation, the x-coordinate of an embedded subsequence
/// carries the offset/average-value information (the direction along which
/// constant series of different levels vary) and the `(y, z)` pair carries
/// the shape information used by the node-extraction step.
///
/// Degenerate cases: a zero `v_ref` yields the identity; a `v_ref` exactly
/// opposite to the x-axis rotates about the z-axis by π.
pub fn align_to_x_axis(v_ref: Vec3) -> Rotation3 {
    let Some(u) = v_ref.normalized() else {
        return Rotation3::identity();
    };
    let target = Vec3::unit_x();
    let dot = u.dot(&target).clamp(-1.0, 1.0);
    if (dot - 1.0).abs() < 1e-12 {
        return Rotation3::identity();
    }
    if (dot + 1.0).abs() < 1e-12 {
        // 180° turn; any axis orthogonal to x works.
        return Rotation3::about_z(std::f64::consts::PI);
    }
    let axis = u.cross(&target);
    let angle = dot.acos();
    Rotation3::from_axis_angle(axis, angle)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn assert_vec_close(a: Vec3, b: Vec3, eps: f64) {
        assert!((a - b).norm() < eps, "{a:?} != {b:?}");
    }

    #[test]
    fn basic_axis_rotations() {
        let v = Vec3::unit_y();
        assert_vec_close(
            Rotation3::about_x(FRAC_PI_2).apply(v),
            Vec3::unit_z(),
            1e-12,
        );
        assert_vec_close(
            Rotation3::about_z(FRAC_PI_2).apply(Vec3::unit_x()),
            Vec3::unit_y(),
            1e-12,
        );
        assert_vec_close(
            Rotation3::about_y(FRAC_PI_2).apply(Vec3::unit_z()),
            Vec3::unit_x(),
            1e-12,
        );
    }

    #[test]
    fn rotations_preserve_norm() {
        let r = Rotation3::from_axis_angle(Vec3::new(1.0, 2.0, -0.5), 1.234);
        let v = Vec3::new(3.0, -1.0, 2.0);
        assert!((r.apply(v).norm() - v.norm()).abs() < 1e-12);
    }

    #[test]
    fn inverse_undoes_rotation() {
        let r = Rotation3::from_axis_angle(Vec3::new(0.3, -1.0, 0.7), 2.1);
        let v = Vec3::new(1.0, 2.0, 3.0);
        assert_vec_close(r.inverse().apply(r.apply(v)), v, 1e-12);
    }

    #[test]
    fn compose_applies_right_then_left() {
        let rz = Rotation3::about_z(FRAC_PI_2);
        let rx = Rotation3::about_x(FRAC_PI_2);
        // (rx ∘ rz)(ux): rz sends ux->uy, then rx sends uy->uz.
        let composed = rx.compose(&rz);
        assert_vec_close(composed.apply(Vec3::unit_x()), Vec3::unit_z(), 1e-12);
    }

    #[test]
    fn align_maps_vref_to_x_axis() {
        for v in [
            Vec3::new(1.0, 1.0, 1.0),
            Vec3::new(-3.0, 0.5, 2.0),
            Vec3::new(0.0, 5.0, 0.0),
            Vec3::new(0.0, 0.0, -2.0),
            Vec3::new(17.0, 0.0, 0.0),
        ] {
            let r = align_to_x_axis(v);
            let rotated = r.apply(v);
            let expected = Vec3::new(v.norm(), 0.0, 0.0);
            assert_vec_close(rotated, expected, 1e-9);
        }
    }

    #[test]
    fn align_handles_antiparallel_and_zero() {
        let r = align_to_x_axis(Vec3::new(-4.0, 0.0, 0.0));
        assert_vec_close(
            r.apply(Vec3::new(-4.0, 0.0, 0.0)),
            Vec3::new(4.0, 0.0, 0.0),
            1e-9,
        );
        let id = align_to_x_axis(Vec3::new(0.0, 0.0, 0.0));
        assert_eq!(id, Rotation3::identity());
    }

    #[test]
    fn align_preserves_distances_between_points() {
        let r = align_to_x_axis(Vec3::new(2.0, -1.0, 0.5));
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(-2.0, 0.0, 1.0);
        let before = (a - b).norm();
        let after = (r.apply(a) - r.apply(b)).norm();
        assert!((before - after).abs() < 1e-12);
    }

    #[test]
    fn composed_axis_rotations_are_orthonormal() {
        let r = Rotation3::about_x(0.3)
            .compose(&Rotation3::about_y(1.1))
            .compose(&Rotation3::about_z(-0.7));
        // R Rᵀ = I
        let rt = r.inverse();
        let prod = r.compose(&rt);
        for i in 0..3 {
            for j in 0..3 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((prod.get(i, j) - expected).abs() < 1e-9);
            }
        }
    }
}
