//! Small fixed-dimension vector helpers used by the embedding rotation and
//! the node-extraction geometry.

/// A 2-D vector (the `(r_y, r_z)` plane of the rotated projection).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec2 {
    /// First component.
    pub x: f64,
    /// Second component.
    pub y: f64,
}

impl Vec2 {
    /// Creates a new 2-D vector.
    pub const fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y).sqrt()
    }

    /// Dot product.
    pub fn dot(&self, other: &Vec2) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// 2-D cross product (z-component of the 3-D cross product).
    pub fn cross(&self, other: &Vec2) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Angle of the vector in `[0, 2π)` measured from the positive x-axis.
    pub fn angle(&self) -> f64 {
        let a = self.y.atan2(self.x);
        if a < 0.0 {
            a + std::f64::consts::TAU
        } else {
            a
        }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Vec2) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        (dx * dx + dy * dy).sqrt()
    }

    /// Returns the unit vector with the given angle.
    pub fn from_angle(theta: f64) -> Self {
        Self {
            x: theta.cos(),
            y: theta.sin(),
        }
    }
}

impl std::ops::Sub for Vec2 {
    type Output = Vec2;
    fn sub(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl std::ops::Add for Vec2 {
    type Output = Vec2;
    fn add(self, rhs: Vec2) -> Vec2 {
        Vec2::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl std::ops::Mul<f64> for Vec2 {
    type Output = Vec2;
    fn mul(self, rhs: f64) -> Vec2 {
        Vec2::new(self.x * rhs, self.y * rhs)
    }
}

/// A 3-D vector (the reduced PCA space before rotation).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// First component.
    pub x: f64,
    /// Second component.
    pub y: f64,
    /// Third component.
    pub z: f64,
}

impl Vec3 {
    /// Creates a new 3-D vector.
    pub const fn new(x: f64, y: f64, z: f64) -> Self {
        Self { x, y, z }
    }

    /// The x-axis unit vector.
    pub const fn unit_x() -> Self {
        Self::new(1.0, 0.0, 0.0)
    }

    /// The y-axis unit vector.
    pub const fn unit_y() -> Self {
        Self::new(0.0, 1.0, 0.0)
    }

    /// The z-axis unit vector.
    pub const fn unit_z() -> Self {
        Self::new(0.0, 0.0, 1.0)
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }

    /// Dot product.
    pub fn dot(&self, other: &Vec3) -> f64 {
        self.x * other.x + self.y * other.y + self.z * other.z
    }

    /// Cross product.
    pub fn cross(&self, other: &Vec3) -> Vec3 {
        Vec3::new(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )
    }

    /// Returns the normalised vector, or `None` if the norm is (near) zero.
    pub fn normalized(&self) -> Option<Vec3> {
        let n = self.norm();
        if n < 1e-15 {
            None
        } else {
            Some(Vec3::new(self.x / n, self.y / n, self.z / n))
        }
    }

    /// Angle between two vectors in radians, in `[0, π]`.
    pub fn angle_to(&self, other: &Vec3) -> f64 {
        let denom = self.norm() * other.norm();
        if denom < 1e-15 {
            return 0.0;
        }
        (self.dot(other) / denom).clamp(-1.0, 1.0).acos()
    }

    /// Builds a `Vec3` from the first three elements of a slice (missing
    /// elements default to zero).
    pub fn from_slice(xs: &[f64]) -> Vec3 {
        Vec3::new(
            xs.first().copied().unwrap_or(0.0),
            xs.get(1).copied().unwrap_or(0.0),
            xs.get(2).copied().unwrap_or(0.0),
        )
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl std::ops::Mul<f64> for Vec3 {
    type Output = Vec3;
    fn mul(self, rhs: f64) -> Vec3 {
        Vec3::new(self.x * rhs, self.y * rhs, self.z * rhs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{FRAC_PI_2, PI, TAU};

    #[test]
    fn vec2_norm_dot_cross() {
        let a = Vec2::new(3.0, 4.0);
        let b = Vec2::new(1.0, 0.0);
        assert!((a.norm() - 5.0).abs() < 1e-12);
        assert!((a.dot(&b) - 3.0).abs() < 1e-12);
        assert!((a.cross(&b) + 4.0).abs() < 1e-12);
    }

    #[test]
    fn vec2_angle_quadrants() {
        assert!((Vec2::new(1.0, 0.0).angle() - 0.0).abs() < 1e-12);
        assert!((Vec2::new(0.0, 1.0).angle() - FRAC_PI_2).abs() < 1e-12);
        assert!((Vec2::new(-1.0, 0.0).angle() - PI).abs() < 1e-12);
        let a = Vec2::new(0.0, -1.0).angle();
        assert!(a > PI && a < TAU);
    }

    #[test]
    fn vec2_from_angle_roundtrip() {
        for k in 0..8 {
            let theta = k as f64 * TAU / 8.0;
            let v = Vec2::from_angle(theta);
            assert!((v.angle() - theta).abs() < 1e-9 || (v.angle() - theta - TAU).abs() < 1e-9);
        }
    }

    #[test]
    fn vec2_arithmetic() {
        let a = Vec2::new(1.0, 2.0);
        let b = Vec2::new(0.5, -1.0);
        assert_eq!(a + b, Vec2::new(1.5, 1.0));
        assert_eq!(a - b, Vec2::new(0.5, 3.0));
        assert_eq!(a * 2.0, Vec2::new(2.0, 4.0));
        assert!((a.distance(&b) - ((0.5f64).powi(2) + 9.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn vec3_cross_right_handed() {
        let c = Vec3::unit_x().cross(&Vec3::unit_y());
        assert!((c - Vec3::unit_z()).norm() < 1e-12);
    }

    #[test]
    fn vec3_angle_to_axes() {
        assert!((Vec3::unit_x().angle_to(&Vec3::unit_y()) - FRAC_PI_2).abs() < 1e-12);
        assert!(Vec3::unit_x().angle_to(&Vec3::unit_x()).abs() < 1e-12);
        assert!((Vec3::new(-2.0, 0.0, 0.0).angle_to(&Vec3::unit_x()) - PI).abs() < 1e-12);
    }

    #[test]
    fn vec3_normalized() {
        let v = Vec3::new(0.0, 3.0, 4.0).normalized().unwrap();
        assert!((v.norm() - 1.0).abs() < 1e-12);
        assert!(Vec3::new(0.0, 0.0, 0.0).normalized().is_none());
    }

    #[test]
    fn vec3_from_slice_padding() {
        assert_eq!(Vec3::from_slice(&[1.0]), Vec3::new(1.0, 0.0, 0.0));
        assert_eq!(
            Vec3::from_slice(&[1.0, 2.0, 3.0, 4.0]),
            Vec3::new(1.0, 2.0, 3.0)
        );
    }

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(1.0, 1.0, 1.0);
        assert_eq!(a + b, Vec3::new(2.0, 3.0, 4.0));
        assert_eq!(a - b, Vec3::new(0.0, 1.0, 2.0));
        assert_eq!(b * 3.0, Vec3::new(3.0, 3.0, 3.0));
    }
}
