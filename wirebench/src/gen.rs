//! Seeded input generation. Everything a workload sends is a pure function
//! of `--seed`, so two runs with one seed send identical bytes.

use std::f64::consts::TAU;

/// SplitMix64: tiny, fast, and good enough for workload generation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_5EED_1234_5678)
    }

    /// A generator for one named stream of a seed (e.g. one client thread),
    /// independent of every other stream of the same seed.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut base = Rng::new(seed);
        let salt = base.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Rng::new(salt)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn below(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (TAU * v).cos()
    }
}

/// Shape of one family of periodic signals.
#[derive(Debug, Clone, Copy)]
pub struct Family {
    pub period: f64,
    pub noise: f64,
}

impl Family {
    /// The noiseless value at position `i` of a stream with this phase.
    pub fn at(&self, i: usize, phase: f64) -> f64 {
        (TAU * (i as f64 / self.period + phase)).sin()
    }

    /// A noisy sine of `len` points.
    pub fn series(&self, len: usize, rng: &mut Rng) -> Vec<f64> {
        let phase = rng.unit();
        (0..len)
            .map(|i| self.at(i, phase) + self.noise * rng.normal())
            .collect()
    }

    /// A noisy sine with one burst of `burst_len` points planted at a seeded
    /// position at least `margin` points from either end. Returns the series
    /// and the burst start.
    pub fn with_burst(
        &self,
        len: usize,
        burst_len: usize,
        margin: usize,
        rng: &mut Rng,
    ) -> (Vec<f64>, usize) {
        let mut values = self.series(len, rng);
        let start = rng.below(margin, len - margin - burst_len);
        plant_burst(
            &mut values[start..start + burst_len],
            self.period,
            self.noise,
            rng,
        );
        (values, start)
    }
}

/// Overwrites `window` with a faster, damped oscillation: the subsequence
/// shape the training series never shows.
pub fn plant_burst(window: &mut [f64], period: f64, noise: f64, rng: &mut Rng) {
    for (j, v) in window.iter_mut().enumerate() {
        *v = 0.8 * (TAU * j as f64 * 4.0 / period).sin() + noise * rng.normal();
    }
}

/// One value per line, exactly as `Client` posts a push body and as the
/// server's `parse_series` reads a fit body.
pub fn csv(values: &[f64]) -> String {
    let mut out = String::with_capacity(values.len() * 20);
    for v in values {
        out.push_str(&v.to_string());
        out.push('\n');
    }
    out
}

/// `n` lengths over `[lo, hi)` with density ∝ 1/len² (short series common,
/// long ones rare), one per stratum so every seed sends the same mix of
/// sizes, shuffled by `rng`. `avoid` is never produced (see `model.rs:201`
/// in `NOTES.md`).
pub fn stratified_lengths(
    n: usize,
    lo: usize,
    hi: usize,
    avoid: usize,
    rng: &mut Rng,
) -> Vec<usize> {
    let (inv_lo, inv_hi) = (1.0 / lo as f64, 1.0 / hi as f64);
    let mut lengths: Vec<usize> = (0..n)
        .map(|i| {
            let u = (i as f64 + rng.unit()) / n as f64;
            let len = (1.0 / (inv_lo - u * (inv_lo - inv_hi))) as usize;
            if len == avoid {
                len + 1
            } else {
                len
            }
        })
        .collect();
    shuffle(&mut lengths, rng);
    lengths
}

pub fn shuffle<T>(items: &mut [T], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(0, i + 1);
        items.swap(i, j);
    }
}

/// FNV-1a over the bit patterns of emitted `(start, normality)` pairs: an
/// exact fingerprint of a push response.
pub fn pairs_fingerprint(pairs: &[(usize, f64)]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    feed(pairs.len() as u64);
    for &(start, value) in pairs {
        feed(start as u64);
        feed(value.to_bits());
    }
    h
}
