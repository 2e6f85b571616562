//! Statistical oracles for the PHY's noise layer, independent of how the
//! normal generator is built.
//!
//! Byte goldens pin one RNG stream; these tests pin the *distributions*
//! the stack draws from, so a change of generator (or of its stream) is
//! judged by whether the noise is still right, not by whether the bytes
//! moved. Every check runs on each of several seeds, with a z = 4 band
//! around the exact value, so no single seed decides a pass:
//!
//! * `randn`: mean, variance, and two-sided tail rates at 2σ, 3σ and
//!   3.8σ (beyond the point where table-driven generators switch to a
//!   separate tail method).
//! * `Awgn::sample`: a Monte-Carlo non-coherent orthogonal BER over an
//!   SNR sweep, against the exact `noncoherent_orthogonal_ber`.
//! * `gamma_unit_mean`: mean and variance at the wideband-TV shape (300)
//!   and on the `shape < 1` boost path (0.5).

use fd_backscatter::ambient::gamma_unit_mean;
use fd_backscatter::analysis::ber::noncoherent_orthogonal_ber;
use fd_backscatter::channel::{randn, Awgn};
use fd_backscatter::dsp::math::q_func;
use fd_backscatter::dsp::Iq;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

const SEEDS: [u64; 5] = [11, 23, 37, 41, 59];
const Z: f64 = 4.0;

/// Wilson score interval for `k` successes in `n` trials at `Z`.
fn wilson(k: u64, n: u64) -> (f64, f64) {
    let (k, n) = (k as f64, n as f64);
    let p = k / n;
    let z2 = Z * Z;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = Z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / (1.0 + z2 / n);
    (centre - half, centre + half)
}

fn assert_rate(what: &str, seed: u64, k: u64, n: u64, exact: f64) {
    let (lo, hi) = wilson(k, n);
    assert!(
        (lo..=hi).contains(&exact),
        "{what} (seed {seed}): {k}/{n} = {:.3e}, band [{lo:.3e}, {hi:.3e}] misses exact {exact:.3e}",
        k as f64 / n as f64
    );
}

/// Asserts `got` lies within `Z` standard errors of `exact`.
fn assert_within(what: &str, seed: u64, got: f64, exact: f64, std_err: f64) {
    assert!(
        (got - exact).abs() <= Z * std_err,
        "{what} (seed {seed}): {got:.6} vs exact {exact:.6} (±{:.2e})",
        Z * std_err
    );
}

#[test]
fn randn_moments_and_tails_match_the_standard_normal() {
    const N: u64 = 2_000_000;
    let points = [2.0, 3.0, 3.8];
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut sum, mut sum_sq) = (0.0, 0.0);
        let mut beyond = [0u64; 3];
        for _ in 0..N {
            let x = randn(&mut rng);
            sum += x;
            sum_sq += x * x;
            for (count, &t) in beyond.iter_mut().zip(&points) {
                *count += (x.abs() > t) as u64;
            }
        }
        let n = N as f64;
        let mean = sum / n;
        assert_within("randn mean", seed, mean, 0.0, (1.0 / n).sqrt());
        assert_within("randn variance", seed, sum_sq / n - mean * mean, 1.0, (2.0 / n).sqrt());
        for (&count, &t) in beyond.iter().zip(&points) {
            assert_rate(&format!("P(|randn| > {t})"), seed, count, N, 2.0 * q_func(t));
        }
    }
}

#[test]
fn awgn_noncoherent_orthogonal_ber_matches_closed_form() {
    // Two chips, all the bit energy in the first: an error is the empty
    // chip's energy beating the full one. `Pe = ½·e^(−γ/2)`, from 0.30 at
    // 0 dB down to 9.2e-4 at 11 dB.
    const TRIALS: u64 = 200_000;
    let noise = Awgn::from_power_watts(1.0);
    for seed in SEEDS {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        for snr_db in [0.0, 3.0, 6.0, 8.0, 10.0, 11.0] {
            let snr = 10f64.powf(snr_db / 10.0);
            let signal = Iq::real((snr * noise.power_watts()).sqrt());
            let errors = (0..TRIALS)
                .filter(|_| {
                    let full = (signal + noise.sample(&mut rng)).norm_sq();
                    let empty = noise.sample(&mut rng).norm_sq();
                    empty >= full
                })
                .count() as u64;
            assert_rate(
                &format!("non-coherent orthogonal BER at {snr_db} dB"),
                seed,
                errors,
                TRIALS,
                noncoherent_orthogonal_ber(snr),
            );
        }
    }
}

#[test]
fn gamma_unit_mean_moments_match_at_broadcast_and_boost_shapes() {
    const N: u64 = 200_000;
    for shape in [300.0, 0.5] {
        // Gamma(k, 1/k): variance 1/k, fourth central moment 3(k+2)/k³.
        let var = 1.0 / shape;
        let m4 = 3.0 * (shape + 2.0) / (shape * shape * shape);
        for seed in SEEDS {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let (mut sum, mut sum_sq) = (0.0, 0.0);
            for _ in 0..N {
                let x = gamma_unit_mean(&mut rng, shape);
                sum += x;
                sum_sq += x * x;
            }
            let n = N as f64;
            let mean = sum / n;
            let what = format!("gamma_unit_mean(shape {shape})");
            assert_within(&format!("{what} mean"), seed, mean, 1.0, (var / n).sqrt());
            assert_within(
                &format!("{what} variance"),
                seed,
                sum_sq / n - mean * mean,
                var,
                ((m4 - var * var) / n).sqrt(),
            );
        }
    }
}
