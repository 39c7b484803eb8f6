//! Node creation (Algorithm 2 of the paper).
//!
//! The embedding plane is sampled by `r` angular rays `ψ_k = k·2π/r`. For each
//! ray, the *radius set* `I_ψ` collects the (positive) radii at which the
//! embedded trajectory crosses the ray. A Gaussian kernel density estimate
//! over those radii is computed (Scott bandwidth by default) and each local
//! maximum becomes a node: the densest sections of the trajectory, i.e. the
//! recurrent patterns of the series.

use s2g_linalg::kde::{scott_bandwidth, GaussianKde};
use s2g_linalg::vector::Vec2;

use crate::config::{BandwidthRule, S2gConfig};
use crate::error::{Error, Result};

/// A single crossing of the trajectory with one ray.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RayCrossing {
    /// Index of the crossed ray (`0 ≤ ray < rate`).
    pub ray: usize,
    /// Radius (distance from the origin along the ray) of the intersection.
    pub radius: f64,
    /// Position of the intersection along the segment, in `[0, 1]`
    /// (used to order multiple crossings inside the same segment).
    pub t: f64,
}

/// Computes all crossings of the segment `p0 → p1` with the `rate` rays.
/// Crossings are returned ordered by their position `t` along the segment.
pub fn segment_crossings(p0: Vec2, p1: Vec2, rate: usize, out: &mut Vec<RayCrossing>) {
    out.clear();
    let tau = std::f64::consts::TAU;
    for ray in 0..rate {
        let psi = ray as f64 * tau / rate as f64;
        let u = Vec2::from_angle(psi);
        // Signed "side" of each endpoint relative to the line through the origin
        // with direction u (cross product).
        let c0 = u.cross(&p0);
        let c1 = u.cross(&p1);
        if c0 == 0.0 && c1 == 0.0 {
            // Segment lies on the line: skip (degenerate, avoids duplicates).
            continue;
        }
        if c1 == 0.0 {
            // End point exactly on the ray: attribute that crossing to the
            // *next* segment (whose start point will have c0 == 0), so that a
            // trajectory point sitting exactly on a ray is counted once.
            continue;
        }
        if (c0 > 0.0 && c1 > 0.0) || (c0 < 0.0 && c1 < 0.0) {
            continue; // both endpoints on the same side: no crossing
        }
        let denom = c0 - c1;
        if denom.abs() < f64::EPSILON {
            continue;
        }
        let t = c0 / denom;
        if !(0.0..=1.0).contains(&t) {
            continue;
        }
        let point = Vec2::new(p0.x + t * (p1.x - p0.x), p0.y + t * (p1.y - p0.y));
        let radius = u.dot(&point);
        if radius > 0.0 {
            out.push(RayCrossing { ray, radius, t });
        }
    }
    out.sort_by(|a, b| a.t.partial_cmp(&b.t).unwrap_or(std::cmp::Ordering::Equal));
}

/// The pattern node set: per ray, the sorted radii of the extracted nodes.
///
/// A node is globally identified by a dense integer id obtained from its ray
/// index and its rank within the ray (see [`NodeSet::node_id`]); this id is
/// the node id used in the transition graph.
#[derive(Debug, Clone)]
pub struct NodeSet {
    rate: usize,
    /// Sorted node radii for each ray.
    radii: Vec<Vec<f64>>,
    /// Global id of the first node of each ray.
    offsets: Vec<usize>,
    total: usize,
    /// Unit vector of each ray, `Vec2::from_angle(ray · 2π/rate)`: derived
    /// from `rate`, never persisted.
    units: Vec<Vec2>,
    /// For each angularly closest ray, the populated ray the outward search
    /// of [`NodeSet::assign`] ends on (`0` when no ray has nodes): derived
    /// from `radii`, never persisted.
    resolved: Vec<usize>,
}

impl NodeSet {
    /// Extracts the node set from the embedded trajectory (Algorithm 2).
    ///
    /// # Errors
    /// [`Error::DegenerateEmbedding`] when the trajectory never crosses any
    /// ray (e.g. fewer than two embedded points).
    pub fn extract(points: &[Vec2], config: &S2gConfig) -> Result<Self> {
        let rate = config.rate;
        let mut radius_sets: Vec<Vec<f64>> = vec![Vec::new(); rate];
        let mut buffer = Vec::with_capacity(8);
        for pair in points.windows(2) {
            segment_crossings(pair[0], pair[1], rate, &mut buffer);
            for crossing in &buffer {
                radius_sets[crossing.ray].push(crossing.radius);
            }
        }
        if radius_sets.iter().all(|s| s.is_empty()) {
            return Err(Error::DegenerateEmbedding(
                "trajectory never crosses any ray; cannot extract nodes",
            ));
        }

        let mut radii = Vec::with_capacity(rate);
        for set in radius_sets.into_iter() {
            if set.is_empty() {
                radii.push(Vec::new());
                continue;
            }
            radii.push(extract_ray_nodes(&set, config));
        }
        Ok(Self::from_sorted(radii))
    }

    /// Reassembles a node set from the per-ray node radii, as produced by
    /// [`NodeSet::ray_nodes`]. Offsets and totals are recomputed; radii within
    /// each ray must be sorted ascending (they are re-sorted defensively).
    /// Used by model persistence.
    ///
    /// # Errors
    /// [`Error::DegenerateEmbedding`] when `radii.len() != rate` or every ray
    /// is empty.
    pub fn from_parts(rate: usize, mut radii: Vec<Vec<f64>>) -> Result<Self> {
        if radii.len() != rate || radii.iter().all(|r| r.is_empty()) {
            return Err(Error::DegenerateEmbedding(
                "node set parts must provide one (non-universally-empty) radius list per ray",
            ));
        }
        for ray in &mut radii {
            ray.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        }
        Ok(Self::from_sorted(radii))
    }

    /// Builds the node set from one sorted radius list per ray, together
    /// with everything derived from it: node id offsets, the ray unit
    /// vectors and the resolved-ray table [`NodeSet::assign`] reads.
    fn from_sorted(radii: Vec<Vec<f64>>) -> Self {
        let rate = radii.len();
        let mut offsets = Vec::with_capacity(rate);
        let mut total = 0usize;
        for r in &radii {
            offsets.push(total);
            total += r.len();
        }
        let step = std::f64::consts::TAU / rate as f64;
        let units = (0..rate)
            .map(|ray| Vec2::from_angle(ray as f64 * step))
            .collect();
        // Search outward from each ray, alternating sides, until a ray has
        // nodes: the first populated ray found is the one `assign` uses.
        let resolved = (0..rate)
            .map(|base| {
                (0..=rate / 2)
                    .flat_map(|offset| [(base + offset) % rate, (base + rate - offset) % rate])
                    .find(|&ray| !radii[ray].is_empty())
                    .unwrap_or(0)
            })
            .collect();
        Self {
            rate,
            radii,
            offsets,
            total,
            units,
            resolved,
        }
    }

    /// Number of rays.
    pub fn rate(&self) -> usize {
        self.rate
    }

    /// Total number of nodes across all rays.
    pub fn node_count(&self) -> usize {
        self.total
    }

    /// Node radii extracted for one ray (sorted ascending).
    pub fn ray_nodes(&self, ray: usize) -> &[f64] {
        &self.radii[ray]
    }

    /// Global node id of the `rank`-th node (by radius) of `ray`.
    pub fn node_id(&self, ray: usize, rank: usize) -> usize {
        self.offsets[ray] + rank
    }

    /// Maps a crossing radius on `ray` to the id of the nearest node of that
    /// ray, or `None` when the ray has no nodes.
    pub fn nearest_node(&self, ray: usize, radius: f64) -> Option<usize> {
        let nodes = self.radii.get(ray)?;
        if nodes.is_empty() {
            return None;
        }
        // Binary search for the insertion point, then compare neighbours.
        let idx = nodes.partition_point(|&x| x < radius);
        let candidates = [idx.wrapping_sub(1), idx];
        let mut best: Option<(usize, f64)> = None;
        for &c in &candidates {
            if c < nodes.len() {
                let d = (nodes[c] - radius).abs();
                if best.is_none_or(|(_, bd)| d < bd) {
                    best = Some((c, d));
                }
            }
        }
        best.map(|(rank, _)| self.node_id(ray, rank))
    }

    /// Assigns an embedded point to its node (the function `S` of
    /// Definition 8): the ray closest in angle to the point is selected, and
    /// within that ray the node whose radius is closest to the point's
    /// projection onto the ray. Rays without nodes fall back to the nearest
    /// ray (in angular distance) that has nodes. Returns `None` only when the
    /// node set is empty.
    pub fn assign(&self, point: Vec2) -> Option<usize> {
        if self.total == 0 {
            return None;
        }
        let step = std::f64::consts::TAU / self.rate as f64;
        let base_ray = ((point.angle() / step).round() as usize) % self.rate;
        let ray = self.resolved[base_ray];
        self.nearest_node(ray, point.dot(&self.units[ray]))
    }
}

/// Runs the KDE + local-maxima extraction for one radius set.
fn extract_ray_nodes(radius_set: &[f64], config: &S2gConfig) -> Vec<f64> {
    // Degenerate case: all radii (nearly) identical → a single node.
    let min = radius_set.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = radius_set.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if (max - min).abs() < 1e-12 {
        return vec![min];
    }

    let bandwidth = match config.bandwidth {
        BandwidthRule::Scott => scott_bandwidth(radius_set),
        BandwidthRule::SigmaRatio(ratio) => {
            let n = radius_set.len() as f64;
            let mean = radius_set.iter().sum::<f64>() / n;
            let var = radius_set
                .iter()
                .map(|x| (x - mean) * (x - mean))
                .sum::<f64>()
                / n;
            (var.sqrt() * ratio).max(1e-9)
        }
    };
    match GaussianKde::with_bandwidth(radius_set.to_vec(), bandwidth) {
        Ok(kde) => {
            let mut maxima = kde.local_maxima(config.kde_grid_points);
            maxima.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            maxima
        }
        Err(_) => vec![radius_set.iter().sum::<f64>() / radius_set.len() as f64],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A circular trajectory of the given radius (crosses every ray once per turn).
    fn circle_points(radius: f64, turns: usize, points_per_turn: usize) -> Vec<Vec2> {
        let total = turns * points_per_turn;
        (0..=total)
            .map(|i| {
                let theta = std::f64::consts::TAU * i as f64 / points_per_turn as f64;
                Vec2::new(radius * theta.cos(), radius * theta.sin())
            })
            .collect()
    }

    #[test]
    fn segment_crossing_simple_case() {
        // Segment from (1, -0.5) to (1, 0.5) crosses the ray ψ=0 (positive x-axis) at radius 1.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(1.0, -0.5), Vec2::new(1.0, 0.5), 4, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ray, 0);
        assert!((out[0].radius - 1.0).abs() < 1e-12);
        assert!((out[0].t - 0.5).abs() < 1e-12);
    }

    #[test]
    fn segment_does_not_cross_opposite_ray() {
        // The same segment mirrored to x = -1 crosses ψ=π (ray 2 of 4), not ψ=0.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(-1.0, -0.5), Vec2::new(-1.0, 0.5), 4, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].ray, 2);
    }

    #[test]
    fn crossings_are_ordered_by_t() {
        // A long segment sweeping a quarter turn crosses several rays in order.
        let mut out = Vec::new();
        segment_crossings(Vec2::new(2.0, 0.1), Vec2::new(0.1, 2.0), 16, &mut out);
        assert!(out.len() >= 3);
        for pair in out.windows(2) {
            assert!(pair[0].t <= pair[1].t);
        }
    }

    #[test]
    fn no_crossing_for_far_segment() {
        let mut out = Vec::new();
        segment_crossings(Vec2::new(3.0, 1.0), Vec2::new(3.1, 1.1), 8, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn circle_produces_one_node_per_ray() {
        let points = circle_points(2.0, 20, 200);
        let config = S2gConfig::new(50).with_rate(16);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        assert_eq!(nodes.rate(), 16);
        assert_eq!(
            nodes.node_count(),
            16,
            "each ray should get exactly one node"
        );
        for ray in 0..16 {
            let radii = nodes.ray_nodes(ray);
            assert_eq!(radii.len(), 1);
            assert!(
                (radii[0] - 2.0).abs() < 0.1,
                "ray {ray} radius {}",
                radii[0]
            );
        }
    }

    #[test]
    fn two_concentric_circles_produce_two_nodes_per_ray() {
        let mut points = circle_points(1.0, 15, 180);
        points.extend(circle_points(6.0, 15, 180));
        let config = S2gConfig::new(50).with_rate(8);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        for ray in 0..8 {
            let radii = nodes.ray_nodes(ray);
            assert!(
                radii.len() >= 2,
                "ray {ray} should see both circles, got {radii:?}"
            );
            assert!(radii.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn nearest_node_snaps_to_closest_radius() {
        let mut points = circle_points(1.0, 10, 120);
        points.extend(circle_points(5.0, 10, 120));
        let config = S2gConfig::new(50).with_rate(8);
        let nodes = NodeSet::extract(&points, &config).unwrap();
        let inner = nodes.nearest_node(0, 1.2).unwrap();
        let outer = nodes.nearest_node(0, 4.5).unwrap();
        assert_ne!(inner, outer);
        assert_eq!(inner, nodes.node_id(0, 0));
    }

    #[test]
    fn node_ids_are_dense_and_unique() {
        let mut points = circle_points(1.0, 5, 100);
        points.extend(circle_points(3.0, 5, 100));
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(12)).unwrap();
        let per_ray: usize = (0..12).map(|r| nodes.ray_nodes(r).len()).sum();
        assert_eq!(per_ray, nodes.node_count());
        // ids from node_id() must cover 0..node_count exactly once.
        let mut seen = vec![false; nodes.node_count()];
        for (ray, radii) in (0..12).map(|r| (r, nodes.ray_nodes(r))) {
            for rank in 0..radii.len() {
                let id = nodes.node_id(ray, rank);
                assert!(!seen[id], "duplicate id {id}");
                seen[id] = true;
            }
        }
        assert!(seen.into_iter().all(|b| b));
    }

    #[test]
    fn assign_picks_angularly_closest_ray_and_radius() {
        let mut points = circle_points(1.0, 10, 120);
        points.extend(circle_points(5.0, 10, 120));
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(8)).unwrap();
        // A point near angle 0 and radius ~1 maps to the inner node of ray 0.
        let inner0 = nodes.assign(Vec2::new(1.05, 0.05)).unwrap();
        assert_eq!(inner0, nodes.nearest_node(0, 1.0).unwrap());
        // A point near angle π/2 and radius ~5 maps to the outer node of ray 2.
        let outer2 = nodes.assign(Vec2::new(-0.1, 4.8)).unwrap();
        assert_eq!(outer2, nodes.nearest_node(2, 5.0).unwrap());
        assert_ne!(inner0, outer2);
    }

    #[test]
    fn assign_falls_back_to_nearest_populated_ray() {
        // Trajectory confined to a half-plane: rays pointing the other way get
        // no nodes, but assignment must still succeed for any query point.
        let points: Vec<Vec2> = (0..200)
            .map(|i| {
                let theta = std::f64::consts::PI * (i % 50) as f64 / 50.0; // upper half only
                Vec2::new(2.0 * theta.cos(), 2.0 * theta.sin().abs().max(0.05))
            })
            .collect();
        let nodes = NodeSet::extract(&points, &S2gConfig::new(50).with_rate(8)).unwrap();
        // Query point in the lower half-plane.
        let assigned = nodes.assign(Vec2::new(0.0, -3.0));
        assert!(assigned.is_some());
        assert!(assigned.unwrap() < nodes.node_count());
    }

    #[test]
    fn empty_or_static_trajectory_is_degenerate() {
        let config = S2gConfig::new(50).with_rate(8);
        assert!(NodeSet::extract(&[], &config).is_err());
        assert!(NodeSet::extract(&[Vec2::new(1.0, 1.0)], &config).is_err());
        // Two identical points: no segment sweeps any ray.
        let p = Vec2::new(1.0, 1.0);
        assert!(NodeSet::extract(&[p, p], &config).is_err());
    }

    #[test]
    fn bandwidth_ratio_controls_node_granularity() {
        // A trajectory alternating between two nearby rings: a large bandwidth
        // should merge them into one node per ray, a small one should keep two.
        let mut points = Vec::new();
        for turn in 0..30 {
            let radius = if turn % 2 == 0 { 3.0 } else { 4.0 };
            for i in 0..90 {
                let theta = std::f64::consts::TAU * i as f64 / 90.0;
                points.push(Vec2::new(radius * theta.cos(), radius * theta.sin()));
            }
        }
        let coarse = NodeSet::extract(
            &points,
            &S2gConfig::new(50)
                .with_rate(8)
                .with_bandwidth(BandwidthRule::SigmaRatio(3.0)),
        )
        .unwrap();
        let fine = NodeSet::extract(
            &points,
            &S2gConfig::new(50)
                .with_rate(8)
                .with_bandwidth(BandwidthRule::SigmaRatio(0.1)),
        )
        .unwrap();
        assert!(
            fine.node_count() > coarse.node_count(),
            "fine {} vs coarse {}",
            fine.node_count(),
            coarse.node_count()
        );
    }
}
