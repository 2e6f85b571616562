//! Power-domain source models and the Gamma pre-averaging substitution.
//!
//! ## Why a power-domain API exists
//!
//! Every receiver in this stack is an envelope detector, and all propagation
//! paths in a scenario carry the *same* ambient signal `x(t)` (flat
//! channels): the field at any receiver is `E = h_eff·x + n`, so the
//! detected power is `|h_eff|²·|x|²` plus noise terms — the source enters
//! **only through its instantaneous power** `p = |x|²`.
//!
//! Real ambient sources are far wider-band than the chip rate (an ATSC
//! broadcast is ~6 MHz; chips here are kHz-scale). The detector therefore
//! pre-averages `K = B_source / f_sim` independent power fluctuations
//! within every simulation sample. Simulating that directly would cost `K×`
//! samples; instead we draw the pre-averaged power from its matched
//! distribution: the mean of `K` i.i.d. unit-mean exponentials is
//! `Gamma(shape = K, scale = 1/K)` (exact for a complex-Gaussian source,
//! and a good moment match for shaped broadcast signals). This is the
//! **bandwidth substitution** recorded in DESIGN.md.

use fdb_channel::randn;
use rand::Rng;

/// Draws a `Gamma(shape, scale = 1/shape)` sample — unit mean, variance
/// `1/shape` — via Marsaglia–Tsang squeeze (with the standard boost for
/// `shape < 1`). Shapes below `1e-3` are raised to it.
pub fn gamma_unit_mean<R: Rng + ?Sized>(rng: &mut R, shape: f64) -> f64 {
    GammaSampler::new(shape.max(1e-3)).sample_unit_mean(rng)
}

/// Standard `Gamma(shape, 1)` sampler (Marsaglia & Tsang, 2000) for one
/// fixed `shape > 0`, driven by the stack's one normal generator,
/// [`fdb_channel::randn`]. The per-shape constants are computed once, so
/// a source that draws at one shape for a whole run (the wideband-TV
/// source) builds it once.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GammaSampler {
    shape: f64,
    /// `d = a − 1/3`, where `a` is `shape`, or `shape + 1` when boosted.
    d: f64,
    /// `c = 1/√(9d)`.
    c: f64,
}

impl GammaSampler {
    /// Builds the sampler for `Gamma(shape, 1)`.
    pub fn new(shape: f64) -> Self {
        // Below 1 the squeeze draws at `shape + 1` and boosts the result.
        let a = if shape < 1.0 { shape + 1.0 } else { shape };
        let d = a - 1.0 / 3.0;
        GammaSampler {
            shape,
            d,
            c: 1.0 / (9.0 * d).sqrt(),
        }
    }

    /// One `Gamma(shape, 1)` draw.
    #[inline]
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.shape < 1.0 {
            // Boost: Gamma(a) = Gamma(a+1) · U^(1/a).
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            return self.squeeze(rng) * u.powf(1.0 / self.shape);
        }
        self.squeeze(rng)
    }

    /// One `Gamma(shape, 1/shape)` draw: unit mean, variance `1/shape`.
    #[inline]
    pub fn sample_unit_mean<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.sample(rng) / self.shape
    }

    /// The Marsaglia–Tsang rejection loop at `d`, `c`.
    #[inline]
    fn squeeze<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let (d, c) = (self.d, self.c);
        loop {
            let x = randn(rng);
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            // Squeeze then full acceptance test.
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn moments(shape: f64, n: usize) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(71);
        let mut m = 0.0;
        let mut v = 0.0;
        for _ in 0..n {
            let x = gamma_unit_mean(&mut rng, shape);
            m += x;
            v += x * x;
        }
        let mean = m / n as f64;
        (mean, v / n as f64 - mean * mean)
    }

    #[test]
    fn unit_mean_for_all_shapes() {
        for &k in &[0.5, 1.0, 4.0, 32.0, 400.0] {
            let (mean, _) = moments(k, 200_000);
            assert!((mean - 1.0).abs() < 0.02, "shape {k}: mean {mean}");
        }
    }

    #[test]
    fn variance_is_inverse_shape() {
        for &k in &[1.0, 8.0, 64.0] {
            let (_, var) = moments(k, 300_000);
            assert!(
                (var - 1.0 / k).abs() < 0.15 / k,
                "shape {k}: var {var} vs {}",
                1.0 / k
            );
        }
    }

    #[test]
    fn shape_one_is_exponential() {
        // Exponential: P(X > 1) = e⁻¹ ≈ 0.3679.
        let mut rng = ChaCha8Rng::seed_from_u64(72);
        let n = 200_000;
        let mut above = 0;
        for _ in 0..n {
            if gamma_unit_mean(&mut rng, 1.0) > 1.0 {
                above += 1;
            }
        }
        let frac = above as f64 / n as f64;
        assert!((frac - (-1.0f64).exp()).abs() < 0.005, "tail {frac}");
    }

    #[test]
    fn samples_nonnegative() {
        let mut rng = ChaCha8Rng::seed_from_u64(73);
        for _ in 0..10_000 {
            assert!(gamma_unit_mean(&mut rng, 0.3) >= 0.0);
            assert!(gamma_unit_mean(&mut rng, 30.0) >= 0.0);
        }
    }

    #[test]
    fn large_shape_concentrates() {
        let mut rng = ChaCha8Rng::seed_from_u64(74);
        for _ in 0..1000 {
            let x = gamma_unit_mean(&mut rng, 10_000.0);
            assert!((x - 1.0).abs() < 0.1, "x = {x}");
        }
    }
}
