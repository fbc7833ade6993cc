//! Random sampling helpers for the sampled-mode experiment drivers.
//!
//! The attack experiments need count vectors distributed as
//! `Multinomial(n, p)` for very large `n` (the paper sweeps `2^27` to `2^39`
//! ciphertexts). Generating `n` individual observations is infeasible, so
//! [`sample_counts_normal`] draws every cell independently:
//!
//! - A cell with expectation `n·p ≥ 30` uses the per-cell normal
//!   approximation `N_k ≈ round(n p_k + sqrt(n p_k (1 - p_k)) · z_k)`,
//!   clamped at zero. This is exactly the approximation under which the
//!   paper's own success-rate estimates are derived.
//! - A cell with `n·p < 30` is drawn from its exact `Binomial(n, p_k)`
//!   marginal by inversion, where the normal approximation would misplace
//!   the mass near zero. No preset reaches this regime.
//!
//! The standard normals come from a 256-layer ziggurat
//! ([`sample_standard_normal`]): one `next_u64` per draw in ~99% of calls,
//! no transcendental function on the fast path. A cell's moments are
//! recomputed only when its probability differs from the previous cell's,
//! so an ABSAB table (one hot cell, 65,535 equal cells) pays for two.
//!
//! Exact multinomial sampling (used by the tests that validate the
//! approximation) is provided as well.

use std::sync::OnceLock;

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

/// Cells whose expectation `n·p` is below this are drawn by exact binomial
/// inversion instead of the normal approximation.
const NORMAL_MIN_EXPECTATION: f64 = 30.0;

/// How one cell of [`sample_counts_normal`] is drawn, with its moments
/// precomputed from the cell probability.
#[derive(Clone, Copy)]
enum CellDraw {
    /// `p ≤ 0`: always zero, no draw.
    Zero,
    /// `n·p ≥ 30`: `round(mean + sd·z)`, clamped at zero.
    Normal { mean: f64, sd: f64 },
    /// `n·p < 30`: exact binomial inversion from `P(0) = (1-p)^n`.
    Inversion { p0: f64, odds: f64 },
}

impl CellDraw {
    fn new(p: f64, n: u64) -> Self {
        let n_f = n as f64;
        if p <= 0.0 {
            Self::Zero
        } else if n_f * p >= NORMAL_MIN_EXPECTATION || p >= 1.0 {
            // `p = 1` gives `sd = 0`, so the count is `n` at any `n`.
            Self::Normal {
                mean: n_f * p,
                sd: (n_f * p * (1.0 - p)).sqrt(),
            }
        } else {
            Self::Inversion {
                p0: (n_f * (-p).ln_1p()).exp(),
                odds: p / (1.0 - p),
            }
        }
    }

    fn draw(self, n: u64, zig: &Ziggurat, rng: &mut impl Rng) -> u64 {
        match self {
            Self::Zero => 0,
            Self::Normal { mean, sd } => {
                let v = mean + sd * zig.sample(rng);
                if v < 0.0 {
                    0
                } else {
                    round_count(v)
                }
            }
            Self::Inversion { p0, odds } => {
                // Walk the pmf recurrence P(k+1) = P(k)·(n-k)/(k+1)·p/(1-p)
                // until the CDF passes u: O(n·p) steps. The pmf underflow
                // stop only bites when u lies above the CDF's rounded limit
                // (~1e-16 of draws), far in the upper tail.
                let u: f64 = rng.gen();
                let (mut k, mut pmf, mut cdf) = (0u64, p0, p0);
                while u >= cdf && k < n && pmf > 0.0 {
                    pmf *= (n - k) as f64 / (k + 1) as f64 * odds;
                    k += 1;
                    cdf += pmf;
                }
                k
            }
        }
    }
}

/// `v.round() as u64` for `0 ≤ v < 2^63`, without the libm `round` call
/// and the multi-instruction unsigned conversions of baseline x86-64:
/// truncate, then round the exact fractional part half up.
fn round_count(v: f64) -> u64 {
    let k = v as i64;
    (k + i64::from(v - k as f64 >= 0.5)) as u64
}

/// Draws an (approximately) multinomial count vector for `n` trials over
/// `probs`, one independent cell at a time (see the module docs): the
/// clamped normal approximation where `n·p ≥ 30`, exact binomial inversion
/// below that.
///
/// A cell's moments are recomputed only when its probability differs from
/// the previous cell's, which leaves the counts unchanged and makes runs of
/// equal cells cost one ziggurat draw each.
///
/// The result's total is close to, but not exactly, `n` — callers that
/// need the exact total (e.g. as the `|C|` constant in a likelihood) should
/// use the returned vector's sum.
pub fn sample_counts_normal(probs: &[f64], n: u64, rng: &mut impl Rng) -> Vec<u64> {
    let zig = ziggurat();
    let mut previous = f64::NAN;
    let mut cell = CellDraw::Zero;
    probs
        .iter()
        .map(|&p| {
            if p != previous {
                previous = p;
                cell = CellDraw::new(p, n);
            }
            cell.draw(n, zig, rng)
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

/// Number of ziggurat layers; a draw's low 8 bits pick one.
const ZIGGURAT_LAYERS: usize = 256;
/// Where the base layer's tail starts (Marsaglia & Tsang's 256-layer `R`).
const ZIGGURAT_R: f64 = 3.654_152_885_361_009;
/// Area of every layer under `exp(-x²/2)`; the base layer's includes the
/// tail beyond `R`: `V = R·e^{-R²/2} + sqrt(π/2)·erfc(R/√2)`.
const ZIGGURAT_V: f64 = 4.928_673_233_974_658e-3;

/// Ziggurat tables for the standard normal, in Doornik's (2005) layout:
/// layer `i` is the box `[0, x[i]) × [f(x[i]), f(x[i+1]))` under
/// `f(x) = exp(-x²/2)`, with `x[1] = R`, `x[256] = 0`, and the base layer's
/// virtual width `x[0] = V / f(R)` standing in for its tail.
struct Ziggurat {
    x: [f64; ZIGGURAT_LAYERS + 1],
    /// `f(x[i])`.
    f: [f64; ZIGGURAT_LAYERS + 1],
    /// `x[i+1] / x[i]`: below it a point lies under the curve for sure.
    inner: [f64; ZIGGURAT_LAYERS],
}

impl Ziggurat {
    fn build() -> Self {
        let density = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; ZIGGURAT_LAYERS + 1];
        x[0] = ZIGGURAT_V / density(ZIGGURAT_R);
        x[1] = ZIGGURAT_R;
        for i in 2..ZIGGURAT_LAYERS {
            x[i] = (-2.0 * (ZIGGURAT_V / x[i - 1] + density(x[i - 1])).ln()).sqrt();
        }
        let f = x.map(density);
        let inner = std::array::from_fn(|i| x[i + 1] / x[i]);
        Self { x, f, inner }
    }

    fn sample(&self, rng: &mut impl Rng) -> f64 {
        loop {
            let bits = rng.next_u64();
            let layer = (bits & 0xFF) as usize;
            // Top 53 bits as a uniform in [-1, 1).
            let u = (bits >> 11) as f64 * (1.0 / (1u64 << 52) as f64) - 1.0;
            if u.abs() < self.inner[layer] {
                return u * self.x[layer];
            }
            if layer == 0 {
                return Self::tail(u < 0.0, rng);
            }
            let x = u * self.x[layer];
            let (lo, hi) = (self.f[layer], self.f[layer + 1]);
            if lo + rng.gen::<f64>() * (hi - lo) < (-0.5 * x * x).exp() {
                return x;
            }
        }
    }

    /// Exact draw from the normal tail beyond `R` (Marsaglia 1964).
    fn tail(negative: bool, rng: &mut impl Rng) -> f64 {
        loop {
            let x = -(1.0 - rng.gen::<f64>()).ln() / ZIGGURAT_R;
            let y = -(1.0 - rng.gen::<f64>()).ln();
            if 2.0 * y > x * x {
                let v = ZIGGURAT_R + x;
                return if negative { -v } else { v };
            }
        }
    }
}

#[inline]
fn ziggurat() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(Ziggurat::build)
}

/// Samples a standard normal variate by the 256-layer ziggurat method
/// (Marsaglia & Tsang 2000, in Doornik's 2005 form).
///
/// One `next_u64` supplies both the layer (low 8 bits) and a signed
/// uniform (top 53 bits); ~99% of draws return after one table compare. The
/// rest take the wedge test against `exp(-x²/2)`, or, in the base layer,
/// Marsaglia's exact exponential method for the tail beyond
/// `R = 3.6541528853610088`.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    ziggurat().sample(rng)
}

/// Samples `Binomial(n, p)`.
///
/// Uses direct Bernoulli summation for `n ≤ 4096`, and above that the same
/// per-cell draw as [`sample_counts_normal`] (clamped normal where
/// `n·p ≥ 30`, exact inversion below), capped at `n`.
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
        CellDraw::new(p, n).draw(n, ziggurat(), rng).min(n)
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
    fn round_count_matches_round() {
        let mut rng = StdRng::seed_from_u64(12);
        // Includes the largest double below 0.5, where `(v + 0.5) as u64` fails.
        let edges = [
            0.0,
            0.5,
            1.5,
            2.5,
            0.5 - f64::EPSILON / 4.0,
            2f64.powi(52) + 1.0,
        ];
        let random = (0..10_000).map(|_| rng.gen::<f64>() * 2f64.powi(rng.gen_range(0..60)));
        for v in edges.into_iter().chain(random) {
            assert_eq!(round_count(v), v.round() as u64, "v = {v}");
        }
    }

    #[test]
    fn ziggurat_layers_close_at_the_top() {
        // The recursion from R must land on a top layer of area V: this pins
        // R and V as a matching pair.
        let zig = ziggurat();
        assert!(zig.x.windows(2).all(|w| w[0] > w[1] && w[1].is_finite()));
        let top = ZIGGURAT_LAYERS - 1;
        let area = zig.x[top] * (1.0 - zig.f[top]);
        assert!(
            (area / ZIGGURAT_V - 1.0).abs() < 1e-9,
            "top layer area {area}"
        );
    }

    #[test]
    fn ziggurat_matches_the_normal_cdf() {
        use stat_tests::{chisq::chi_squared_gof, special::normal_cdf};
        // The tail beyond ±R and the wedges get bins of their own.
        let r = ZIGGURAT_R;
        let edges = [-r, -3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0, r];
        let mut observed = [0u64; 12];
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1u64 << 22 {
            let z = sample_standard_normal(&mut rng);
            observed[edges.partition_point(|&e| e <= z)] += 1;
        }
        let mut expected = [0.0; 12];
        let mut below = 0.0;
        for (bin, &edge) in edges.iter().enumerate() {
            let cdf = normal_cdf(edge);
            expected[bin] = cdf - below;
            below = cdf;
        }
        expected[11] = 1.0 - below;
        let gof = chi_squared_gof(&observed, &expected).unwrap();
        assert!(gof.p_value > 1e-3, "p = {} ({observed:?})", gof.p_value);
    }

    #[test]
    fn hoisted_cells_match_a_per_cell_reference() {
        // Runs of equal probabilities interleaved with distinct ones, zero
        // cells, and cells on both sides of the inversion threshold.
        let n = 1u64 << 20;
        let pattern = [
            1e-3, 1e-3, 1e-3, 2e-3, 0.0, 0.0, 1e-3, 1e-6, 1e-6, 5e-5, 0.0, 2e-3,
        ];
        let probs: Vec<f64> = (0..1200)
            .map(|i| pattern[(i * 7 / 5) % pattern.len()])
            .collect();
        let hoisted = sample_counts_normal(&probs, n, &mut StdRng::seed_from_u64(10));
        let mut rng = StdRng::seed_from_u64(10);
        let reference: Vec<u64> = probs
            .iter()
            .map(|&p| CellDraw::new(p, n).draw(n, ziggurat(), &mut rng))
            .collect();
        assert_eq!(hoisted, reference);
    }

    #[test]
    fn small_expectation_cells_match_the_exact_sampler() {
        use stat_tests::chisq::chi_squared_independence;
        // 64 cells with n·p = 0.5 beside one hot cell, at n = 2048 where the
        // exact sampler is exact. Histogram of the small cells' counts:
        // 0, 1, 2, ≥3 (a clamped normal gives P(0) ≈ 0.50, not e^-0.5).
        const SMALL: usize = 64;
        let n = 2048u64;
        let mut probs = vec![0.5 / n as f64; SMALL + 1];
        probs[SMALL] = 1.0 - SMALL as f64 * 0.5 / n as f64;
        let mut histogram = [0u64; 8];
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..200 {
            let normal = sample_counts_normal(&probs, n, &mut rng);
            let exact = sample_counts_exact(&probs, n, &mut rng);
            for (row, counts) in [normal, exact].iter().enumerate() {
                for &c in &counts[..SMALL] {
                    histogram[row * 4 + (c as usize).min(3)] += 1;
                }
            }
        }
        let result = chi_squared_independence(&histogram, 2, 4).unwrap();
        assert!(
            result.p_value > 1e-3,
            "p = {} ({histogram:?})",
            result.p_value
        );
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
