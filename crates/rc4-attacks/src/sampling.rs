//! Random sampling helpers for the sampled-mode experiment drivers.
//!
//! The attack experiments need count vectors distributed as
//! `Multinomial(n, p)` for very large `n` (up to the paper's `2^31`
//! ciphertexts). Generating `n` individual observations is infeasible, so the
//! drivers use the standard per-cell normal approximation
//! `N_k ≈ round(n p_k + sqrt(n p_k (1 - p_k)) · z_k)` with independent standard
//! normals `z_k` — accurate for the regimes of interest where every cell's
//! expectation is far above 1, and exactly the approximation under which the
//! paper's own success-rate estimates are derived.
//!
//! Exact multinomial sampling (used by the exact-mode drivers and the tests
//! that validate the approximation) is provided as well.

use rand::Rng;
use rc4_stats::splitmix64;

/// Derives an independent RNG stream seed from a base seed and a path of
/// coordinates (sweep point, strategy, trial, ...), by chaining a
/// [`splitmix64`] absorption step per coordinate (the same primitive
/// `rc4_stats::KeyGenerator` derives its per-worker key streams from).
///
/// This is what makes the Monte-Carlo hot loops parallelizable WITHOUT
/// giving up determinism: instead of threading one RNG through all trials
/// (which orders them), every trial seeds its own `StdRng` from
/// `stream_seed(base, &[point, strategy, trial])`, so the set of draws — and
/// therefore every aggregate in the report — depends only on the
/// configuration, never on scheduling or worker count.
pub fn stream_seed(base: u64, path: &[u64]) -> u64 {
    let mut state = splitmix64(base ^ 0x5EED_5EED_5EED_5EED);
    for &coordinate in path {
        state = splitmix64(state ^ splitmix64(coordinate.wrapping_add(0x9E37_79B9_7F4A_7C15)));
    }
    state
}

/// Draws an (approximately) multinomial count vector for `n` trials over `probs`
/// using the per-cell normal approximation.
///
/// Cell counts are clamped at zero; the result's total is close to, but not
/// exactly, `n` — callers that need the exact total (e.g. as the `|C|` constant
/// in a likelihood) should use the returned vector's sum.
pub fn sample_counts_normal(probs: &[f64], n: u64, rng: &mut impl Rng) -> Vec<u64> {
    let n_f = n as f64;
    probs
        .iter()
        .map(|&p| {
            if p <= 0.0 {
                return 0;
            }
            let mean = n_f * p;
            let sd = (n_f * p * (1.0 - p)).sqrt();
            let z = sample_standard_normal(rng);
            let v = mean + sd * z;
            if v < 0.0 {
                0
            } else {
                v.round() as u64
            }
        })
        .collect()
}

/// Draws an exact multinomial count vector for `n` trials over `probs` by
/// sequential binomial splitting.
///
/// Complexity is `O(len(probs) + n)` in the worst case of the binomial sampler,
/// so this is only suitable for moderate `n`; the experiments use it for
/// validation and for exact-mode runs at reduced scale.
pub fn sample_counts_exact(probs: &[f64], n: u64, rng: &mut impl Rng) -> Vec<u64> {
    let mut remaining_n = n;
    let mut remaining_p = 1.0f64;
    let mut out = Vec::with_capacity(probs.len());
    for (idx, &p) in probs.iter().enumerate() {
        if remaining_n == 0 || remaining_p <= 0.0 {
            out.push(0);
            continue;
        }
        if idx == probs.len() - 1 {
            out.push(remaining_n);
            remaining_n = 0;
            continue;
        }
        let cond = (p / remaining_p).clamp(0.0, 1.0);
        let draw = sample_binomial(remaining_n, cond, rng);
        out.push(draw);
        remaining_n -= draw;
        remaining_p -= p;
    }
    out
}

/// Samples a standard normal variate via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Samples `Binomial(n, p)`.
///
/// Uses direct Bernoulli summation for small `n` and a clamped normal
/// approximation for large `n` (adequate for the simulation drivers; the tails
/// we care about are near the mean).
pub fn sample_binomial(n: u64, p: f64, rng: &mut impl Rng) -> u64 {
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    if n <= 4096 {
        let mut count = 0u64;
        for _ in 0..n {
            if rng.gen_bool(p) {
                count += 1;
            }
        }
        count
    } else {
        let mean = n as f64 * p;
        let sd = (n as f64 * p * (1.0 - p)).sqrt();
        let v = mean + sd * sample_standard_normal(rng);
        v.round().clamp(0.0, n as f64) as u64
    }
}

/// Draws a value index from a discrete distribution (inverse-CDF sampling).
pub fn sample_index(probs: &[f64], rng: &mut impl Rng) -> usize {
    let mut u: f64 = rng.gen();
    for (idx, &p) in probs.iter().enumerate() {
        if u < p {
            return idx;
        }
        u -= p;
    }
    probs.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn stream_seeds_are_stable_and_distinct() {
        // Stable across calls, sensitive to every coordinate and to order.
        assert_eq!(stream_seed(7, &[1, 2, 3]), stream_seed(7, &[1, 2, 3]));
        assert_ne!(stream_seed(7, &[1, 2, 3]), stream_seed(8, &[1, 2, 3]));
        assert_ne!(stream_seed(7, &[1, 2, 3]), stream_seed(7, &[1, 2, 4]));
        assert_ne!(stream_seed(7, &[1, 2, 3]), stream_seed(7, &[3, 2, 1]));
        assert_ne!(stream_seed(7, &[0]), stream_seed(7, &[0, 0]));
        // Nearby trial indices must give well-separated seeds.
        let mut seen = std::collections::HashSet::new();
        for trial in 0..10_000u64 {
            assert!(seen.insert(stream_seed(0, &[0, 0, trial])));
        }
    }

    #[test]
    fn normal_sampler_has_reasonable_moments() {
        let mut rng = StdRng::seed_from_u64(1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean: f64 = samples.iter().sum::<f64>() / n as f64;
        let var: f64 = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 1.0).abs() < 0.1, "variance {var}");
    }

    #[test]
    fn binomial_sampler_small_and_large() {
        let mut rng = StdRng::seed_from_u64(2);
        let small = sample_binomial(100, 0.3, &mut rng);
        assert!(small <= 100);
        let large = sample_binomial(1_000_000, 0.25, &mut rng);
        let expected = 250_000.0;
        assert!((large as f64 - expected).abs() < 5.0 * (1_000_000.0f64 * 0.25 * 0.75).sqrt());
        assert_eq!(sample_binomial(50, 0.0, &mut rng), 0);
        assert_eq!(sample_binomial(50, 1.0, &mut rng), 50);
    }

    #[test]
    fn exact_multinomial_totals_and_distribution() {
        let mut rng = StdRng::seed_from_u64(3);
        let probs = [0.5, 0.25, 0.125, 0.125];
        let counts = sample_counts_exact(&probs, 100_000, &mut rng);
        assert_eq!(counts.iter().sum::<u64>(), 100_000);
        assert!((counts[0] as f64 - 50_000.0).abs() < 2_000.0);
        assert!((counts[3] as f64 - 12_500.0).abs() < 1_500.0);
    }

    #[test]
    fn normal_approximation_close_to_exact_in_distribution() {
        let mut rng = StdRng::seed_from_u64(4);
        let probs = vec![1.0 / 256.0; 256];
        let n = 1u64 << 24;
        let counts = sample_counts_normal(&probs, n, &mut rng);
        assert_eq!(counts.len(), 256);
        let expected = n as f64 / 256.0;
        for &c in &counts {
            // Each cell must be within ~6 standard deviations of its mean.
            assert!((c as f64 - expected).abs() < 6.0 * expected.sqrt());
        }
        let total: u64 = counts.iter().sum();
        assert!((total as f64 - n as f64).abs() < 0.01 * n as f64);
    }

    /// Draws `replicates` tables from each sampler (interleaved on one
    /// seeded stream) and runs two chi-squared homogeneity tests between
    /// them: one on the cell totals pooled over replicates (same cell
    /// proportions), one on the per-replicate Pearson dispersion statistics
    /// binned into five equiprobable χ²(k−1) bins (same spread). Only valid
    /// where the exact sampler is exact (`n ≤ 4096`, Bernoulli-sum
    /// binomials) and the normal approximation applies (every `n·p ≥ 30`).
    fn assert_normal_matches_exact(probs: &[f64], n: u64, seed: u64) {
        use stat_tests::{chisq::chi_squared_independence, special::chi2_cdf};
        const REPLICATES: usize = 200;
        const BINS: usize = 5;
        assert!(n <= 4096 && probs.iter().all(|&p| n as f64 * p >= 30.0));
        let cells = probs.len();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut totals = vec![0u64; 2 * cells];
        let mut spread = [0u64; 2 * BINS];
        for _ in 0..REPLICATES {
            let normal = sample_counts_normal(probs, n, &mut rng);
            let exact = sample_counts_exact(probs, n, &mut rng);
            for (row, counts) in [normal, exact].iter().enumerate() {
                let mut pearson = 0.0;
                for (cell, (&c, &p)) in counts.iter().zip(probs).enumerate() {
                    totals[row * cells + cell] += c;
                    let expected = n as f64 * p;
                    pearson += (c as f64 - expected).powi(2) / expected;
                }
                let quantile = chi2_cdf(pearson, (cells - 1) as f64);
                spread[row * BINS + ((quantile * BINS as f64) as usize).min(BINS - 1)] += 1;
            }
        }
        let proportions = chi_squared_independence(&totals, 2, cells).unwrap();
        assert!(
            proportions.p_value > 1e-3,
            "cell proportions differ: p = {}",
            proportions.p_value
        );
        let dispersion = chi_squared_independence(&spread, 2, BINS).unwrap();
        assert!(
            dispersion.p_value > 1e-3,
            "dispersion differs: p = {} ({spread:?})",
            dispersion.p_value
        );
    }

    #[test]
    fn normal_sampler_matches_exact_multinomial_on_small_tables() {
        // Uniform: 32 cells at n = 2048, n·p = 64.
        assert_normal_matches_exact(&[1.0 / 32.0; 32], 2048, 7);
        // ABSAB-shaped: one hot cell, the rest equal (n·p ≈ 48 for those).
        let mut absab = vec![0.75 / 31.0; 32];
        absab[5] = 0.25;
        assert_normal_matches_exact(&absab, 2048, 8);
    }

    #[test]
    fn zero_probability_cells_get_zero_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let probs = [0.0, 1.0, 0.0];
        let c = sample_counts_normal(&probs, 1000, &mut rng);
        assert_eq!(c[0], 0);
        assert_eq!(c[2], 0);
        let e = sample_counts_exact(&probs, 1000, &mut rng);
        assert_eq!(e[0], 0);
        assert_eq!(e[1], 1000);
    }

    #[test]
    fn index_sampler_respects_distribution() {
        let mut rng = StdRng::seed_from_u64(6);
        let probs = [0.1, 0.7, 0.2];
        let mut counts = [0u32; 3];
        for _ in 0..10_000 {
            counts[sample_index(&probs, &mut rng)] += 1;
        }
        assert!(counts[1] > counts[0] && counts[1] > counts[2]);
        assert!((counts[1] as f64 / 10_000.0 - 0.7).abs() < 0.05);
    }
}
