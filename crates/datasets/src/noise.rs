//! Random signal primitives: Gaussian noise, random walks, jitter.
//!
//! Kept in one place so every generator shares the same deterministic
//! sampling conventions (plain `rand` + Box–Muller, no extra dependency).

use rand::Rng;

/// Draws one standard normal variate via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        let u2: f64 = rng.gen::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Draws a normal variate with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Generates a Gaussian random walk of `n` points with per-step standard
/// deviation `step_std`, starting at 0.
pub fn random_walk<R: Rng + ?Sized>(rng: &mut R, n: usize, step_std: f64) -> Vec<f64> {
    let mut out = Vec::with_capacity(n);
    let mut acc = 0.0;
    for _ in 0..n {
        acc += standard_normal(rng) * step_std;
        out.push(acc);
    }
    out
}

/// Adds Gaussian noise in place; the noise standard deviation is expressed as
/// a fraction (`noise_ratio`, e.g. `0.05` for the paper's "5%" datasets) of
/// the signal's own standard deviation.
pub fn add_relative_noise<R: Rng + ?Sized>(rng: &mut R, signal: &mut [f64], noise_ratio: f64) {
    if noise_ratio <= 0.0 || signal.is_empty() {
        return;
    }
    let n = signal.len() as f64;
    let mean = signal.iter().sum::<f64>() / n;
    let var = signal.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
    let sigma = var.sqrt();
    let noise_std = sigma * noise_ratio;
    for x in signal.iter_mut() {
        *x += standard_normal(rng) * noise_std;
    }
}

/// Picks `count` non-overlapping positions for anomaly injection in
/// `[margin, series_len - anomaly_len - margin)`, each at least
/// `anomaly_len + gap` away from the others. Returns fewer positions when the
/// series is too short to host all of them.
pub fn non_overlapping_positions<R: Rng + ?Sized>(
    rng: &mut R,
    series_len: usize,
    anomaly_len: usize,
    count: usize,
    margin: usize,
    gap: usize,
) -> Vec<usize> {
    let mut positions: Vec<usize> = Vec::with_capacity(count);
    if series_len <= 2 * margin + anomaly_len {
        return positions;
    }
    let lo = margin;
    let hi = series_len - anomaly_len - margin;
    let min_dist = anomaly_len + gap;
    let mut attempts = 0usize;
    let max_attempts = count * 200 + 1000;
    while positions.len() < count && attempts < max_attempts {
        attempts += 1;
        let candidate = rng.gen_range(lo..hi);
        if positions.iter().all(|&p| p.abs_diff(candidate) >= min_dist) {
            positions.push(candidate);
        }
    }
    positions.sort_unstable();
    positions
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / xs.len() as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = StdRng::seed_from_u64(2);
        let xs: Vec<f64> = (0..20_000).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((mean - 10.0).abs() < 0.2);
    }

    #[test]
    fn random_walk_is_cumulative() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = random_walk(&mut rng, 100, 0.0);
        assert!(w.iter().all(|&x| x == 0.0));
        let w = random_walk(&mut rng, 1000, 1.0);
        assert_eq!(w.len(), 1000);
        // Steps should be bounded-ish while the walk itself wanders.
        let max_step = w
            .windows(2)
            .map(|p| (p[1] - p[0]).abs())
            .fold(0.0, f64::max);
        assert!(max_step < 6.0);
    }

    #[test]
    fn relative_noise_scales_with_signal() {
        let mut rng = StdRng::seed_from_u64(4);
        let clean: Vec<f64> = (0..5000).map(|i| (i as f64 * 0.1).sin() * 10.0).collect();
        let mut noisy = clean.clone();
        add_relative_noise(&mut rng, &mut noisy, 0.1);
        let diff_std = {
            let d: Vec<f64> = noisy.iter().zip(clean.iter()).map(|(a, b)| a - b).collect();
            let m = d.iter().sum::<f64>() / d.len() as f64;
            (d.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / d.len() as f64).sqrt()
        };
        let signal_std = (clean.iter().map(|x| x * x).sum::<f64>() / clean.len() as f64).sqrt();
        let ratio = diff_std / signal_std;
        assert!((ratio - 0.1).abs() < 0.02, "ratio = {ratio}");
        // Zero ratio leaves the signal untouched.
        let mut untouched = clean.clone();
        add_relative_noise(&mut rng, &mut untouched, 0.0);
        assert_eq!(untouched, clean);
    }

    #[test]
    fn positions_respect_spacing_and_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        let positions = non_overlapping_positions(&mut rng, 100_000, 200, 60, 500, 100);
        assert_eq!(positions.len(), 60);
        for w in positions.windows(2) {
            assert!(w[1] - w[0] >= 300);
        }
        assert!(*positions.first().unwrap() >= 500);
        assert!(*positions.last().unwrap() <= 100_000 - 200 - 500);
    }

    #[test]
    fn positions_degrade_gracefully_when_series_too_short() {
        let mut rng = StdRng::seed_from_u64(6);
        let positions = non_overlapping_positions(&mut rng, 500, 200, 10, 100, 50);
        assert!(positions.len() <= 10);
        let none = non_overlapping_positions(&mut rng, 100, 200, 5, 10, 10);
        assert!(none.is_empty());
    }

    #[test]
    fn determinism_per_seed() {
        let a: Vec<f64> = random_walk(&mut StdRng::seed_from_u64(9), 50, 1.0);
        let b: Vec<f64> = random_walk(&mut StdRng::seed_from_u64(9), 50, 1.0);
        assert_eq!(a, b);
    }
}
