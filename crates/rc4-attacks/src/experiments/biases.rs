//! Section-3 bias-hunting experiments: Tables 1–2, Figures 4–6, Eq. 3–5 and
//! the long-term biases of Sect. 3.4.
//!
//! Each driver generates keystream statistics at a configurable scale (the
//! paper used `2^44`–`2^47` keys; laptop-scale runs use far fewer, which
//! mainly widens the confidence intervals of the weaker biases), runs the
//! hypothesis-test pipeline, and reports measured probabilities next to the
//! paper's values.

use rc4_biases::{
    fm::{fm_biases_at, FmDigraph},
    keylength,
    longterm::aligned_biases,
    shortterm::{equality_biases, table2_consecutive, table2_nonconsecutive},
    z1z2::Z1Z2Family,
    UNIFORM_PAIR, UNIFORM_SINGLE,
};
use rc4_stats::{
    longterm::LongTermDataset,
    pairs::{PairDataset, PositionPair},
    single::SingleByteDataset,
    GenerationConfig, StorableDataset,
};
use serde::{Deserialize, Serialize};
use stat_tests::{
    chisq::chi_squared_uniform, mtest::m_test_independence, proportion::proportion_test,
};

use crate::{
    context::{ExperimentContext, ProgressEvent},
    experiment::{config_from_value, config_to_value, Experiment},
    experiments::Scale,
    report::{format_percent, format_pow2, ExperimentReport},
    ExperimentError,
};

/// Logical key streams of every bias-experiment dataset. The stream count
/// partitions the deterministic key space and is therefore part of a
/// measured dataset's identity; threads come from the context's executor, so
/// `--workers` changes wall-clock time but never a measured probability
/// (worker-count invariance).
const BIAS_STREAMS: usize = 1;

/// Scale configuration for the bias-hunting experiments.
#[derive(Debug, Clone, Copy)]
pub struct BiasScale {
    /// Number of random keys for the pair/single-byte datasets.
    ///
    /// Paper scale: `2^44`–`2^47`. Laptop default: `2^21`.
    pub keys: u64,
    /// Number of keys for the long-term dataset (each contributes `block_len` digraphs).
    pub longterm_keys: u64,
    /// Keystream bytes consumed per key in the long-term dataset (after the 1023-byte drop).
    pub longterm_block: usize,
    /// Master seed.
    pub seed: u64,
}

impl Default for BiasScale {
    fn default() -> Self {
        Self {
            keys: 1 << 22,
            longterm_keys: 1 << 10,
            longterm_block: 1 << 21,
            seed: 0xB1A5,
        }
    }
}

impl BiasScale {
    /// A seconds-long configuration for tests and CI.
    pub fn quick() -> Self {
        Self {
            keys: 1 << 16,
            longterm_keys: 1 << 6,
            longterm_block: 1 << 18,
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`]: `Quick` for CI, `Laptop` (the default) for
    /// readable curves, `Extended` approaching paper parameters.
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self::default(),
            Scale::Extended => Self {
                keys: 1 << 26,
                longterm_keys: 1 << 12,
                longterm_block: 1 << 22,
                ..Self::default()
            },
        }
    }
}

/// Serde-roundtrippable configuration shared by all eight bias experiments.
///
/// `workers` is intentionally absent: parallelism comes from the
/// [`ExperimentContext`]. `seed` is the experiment's *base* seed (each driver
/// XORs its own tweak internally, as before); the context seed is mixed on
/// top, so the default context reproduces the historical outputs exactly.
/// `positions` is consumed only by `fig4` (digraph positions) and `fig5`
/// (late keystream positions) and ignored by the other experiments.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BiasConfig {
    /// Number of random keys for the pair/single-byte datasets.
    pub keys: u64,
    /// Number of keys for the long-term dataset.
    pub longterm_keys: u64,
    /// Keystream bytes consumed per key in the long-term dataset.
    pub longterm_block: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Keystream positions swept by `fig4`/`fig5`; ignored elsewhere.
    pub positions: Vec<u64>,
}

impl BiasConfig {
    /// The preset for `scale`, with the given position sweep.
    pub fn for_scale(scale: Scale, positions: &[u64]) -> Self {
        let preset = BiasScale::for_scale(scale);
        Self {
            keys: preset.keys,
            longterm_keys: preset.longterm_keys,
            longterm_block: preset.longterm_block,
            seed: preset.seed,
            positions: positions.to_vec(),
        }
    }

    /// The effective [`BiasScale`] under `ctx`.
    fn scale(&self, ctx: &ExperimentContext) -> BiasScale {
        BiasScale {
            keys: self.keys,
            longterm_keys: self.longterm_keys,
            longterm_block: self.longterm_block,
            seed: ctx.mix_seed(self.seed),
        }
    }
}

/// Uniform runner signature shared by the eight bias experiments.
type BiasRunner =
    fn(&BiasScale, &[u64], &ExperimentContext) -> Result<ExperimentReport, ExperimentError>;

/// [`Experiment`] carrier for the Section-3 bias experiments: one struct,
/// eight constructors, each pairing a runner with its default position sweep.
pub struct BiasExperiment {
    name: &'static str,
    summary: &'static str,
    default_positions: &'static [u64],
    runner: BiasRunner,
    config: BiasConfig,
}

impl BiasExperiment {
    fn new(
        name: &'static str,
        summary: &'static str,
        default_positions: &'static [u64],
        runner: BiasRunner,
    ) -> Self {
        Self {
            name,
            summary,
            default_positions,
            runner,
            config: BiasConfig::for_scale(Scale::Laptop, default_positions),
        }
    }

    /// Table 1 — generalized Fluhrer–McGrew long-term digraph biases.
    pub fn table1() -> Self {
        Self::new(
            "table1",
            "Generalized Fluhrer-McGrew digraph biases in the long-term keystream",
            &[],
            |s, _, ctx| table1_fm_longterm(s, ctx),
        )
    }

    /// Fig. 4 — FM digraph biases in the initial keystream bytes.
    pub fn fig4() -> Self {
        Self::new(
            "fig4",
            "Fluhrer-McGrew digraph relative biases in the initial keystream",
            &[1, 2, 5, 17, 32, 64, 96, 130, 192, 257, 288],
            |s, p, ctx| {
                let positions: Vec<usize> = p.iter().map(|&v| v as usize).collect();
                fig4_fm_shortterm(s, &positions, ctx)
            },
        )
    }

    /// Table 2 — new biases between (non-)consecutive initial bytes.
    pub fn table2() -> Self {
        Self::new(
            "table2",
            "New biases between (non-)consecutive initial keystream bytes",
            &[],
            |s, _, ctx| table2_new_biases(s, ctx),
        )
    }

    /// Eq. 3–5 — equality biases among the first four keystream bytes.
    pub fn eq345() -> Self {
        Self::new(
            "eq345",
            "Equality biases among the first four keystream bytes (Eq. 3-5)",
            &[],
            |s, _, ctx| eq345_equalities(s, ctx),
        )
    }

    /// Fig. 5 — influence of `Z_1`/`Z_2` on later keystream bytes.
    pub fn fig5() -> Self {
        Self::new(
            "fig5",
            "Influence of Z1 and Z2 on later keystream bytes",
            &[4, 8, 16, 32, 64, 128, 192, 256],
            |s, p, ctx| {
                let positions: Vec<u16> = p
                    .iter()
                    .map(|&v| {
                        u16::try_from(v).map_err(|_| {
                            ExperimentError::InvalidConfig(format!(
                                "fig5 position {v} exceeds the u16 keystream-position range"
                            ))
                        })
                    })
                    .collect::<Result<_, _>>()?;
                fig5_z1z2(s, &positions, ctx)
            },
        )
    }

    /// Fig. 6 — single-byte biases beyond position 256.
    pub fn fig6() -> Self {
        Self::new(
            "fig6",
            "Single-byte biases beyond position 256 (key-length harmonics)",
            &[],
            |s, _, ctx| fig6_single_byte(s, ctx),
        )
    }

    /// Sect. 3.4 — long-term biases at 256-aligned positions.
    pub fn longterm() -> Self {
        Self::new(
            "longterm",
            "Long-term biases at 256-aligned positions (Sect. 3.4)",
            &[],
            |s, _, ctx| longterm_aligned(s, ctx),
        )
    }

    /// Headline short-term bias re-detection summary.
    pub fn headline() -> Self {
        Self::new(
            "headline",
            "Headline short-term biases re-detected by the hypothesis tests",
            &[],
            |s, _, ctx| headline_detection(s, ctx),
        )
    }
}

impl Experiment for BiasExperiment {
    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    fn apply_scale(&mut self, scale: Scale) {
        self.config = BiasConfig::for_scale(scale, self.default_positions);
    }

    fn config_value(&self) -> serde::Value {
        config_to_value(&self.config)
    }

    fn set_config_value(&mut self, value: &serde::Value) -> Result<(), ExperimentError> {
        self.config = config_from_value(self.name, value)?;
        Ok(())
    }

    fn run(&self, ctx: &ExperimentContext) -> Result<ExperimentReport, ExperimentError> {
        ctx.emit(ProgressEvent::Started {
            experiment: self.name,
        });
        let scale = self.config.scale(ctx);
        let report = (self.runner)(&scale, &self.config.positions, ctx)?;
        ctx.emit(ProgressEvent::Finished {
            experiment: self.name,
        });
        Ok(report)
    }
}

/// Table 1: verifies the generalized Fluhrer–McGrew digraph biases in the
/// long-term keystream and reports measured vs table probabilities.
///
/// # Errors
///
/// Propagates dataset-generation and test errors.
pub fn table1_fm_longterm(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.longterm_keys,
        workers: BIAS_STREAMS,
        seed: scale.seed,
        key_len: 16,
    };
    // Evaluate each digraph family at a representative PRGA counter value.
    let representatives: &[(FmDigraph, u8, &str)] = &[
        (FmDigraph::ZeroZeroAtOne, 1, "i = 1"),
        (FmDigraph::ZeroZero, 7, "i != 1,255"),
        (FmDigraph::ZeroOne, 7, "i != 0,1"),
        (FmDigraph::ZeroIPlusOne, 7, "i != 0,255"),
        (FmDigraph::IPlusOne255, 7, "i != 254"),
        (FmDigraph::OneTwoNine, 2, "i = 2"),
        (FmDigraph::TwoFiftyFiveIPlusOne, 7, "i != 1,254"),
        (FmDigraph::TwoFiftyFiveIPlusTwo, 7, "i in [1,252]"),
        (FmDigraph::TwoFiftyFiveZero, 254, "i = 254"),
        (FmDigraph::TwoFiftyFiveOne, 255, "i = 255"),
        (FmDigraph::TwoFiftyFiveTwo, 0, "i = 0,1"),
        (FmDigraph::TwoFiftyFive255, 7, "i != 254"),
    ];
    // Only the representatives' counters get a digraph slice.
    let counters: Vec<u8> = representatives.iter().map(|&(_, i, _)| i).collect();
    let ds = ctx.load_or_generate(
        LongTermDataset::with_counters(
            LongTermDataset::DEFAULT_DROP,
            scale.longterm_block,
            &counters,
        )?,
        &config,
    )?;

    let mut report = ExperimentReport::new(
        "table1",
        "Generalized Fluhrer-McGrew biases (long-term keystream)",
        &[
            "digraph",
            "i condition",
            "paper prob",
            "measured prob",
            "rel. bias sign ok",
        ],
    );
    report.note(format!(
        "{} keys x {} bytes after a 1023-byte drop (paper: 2^12 keys x 2^40 bytes)",
        scale.longterm_keys, scale.longterm_block
    ));

    for &(digraph, i, condition) in representatives {
        let Some((x, y)) = digraph.pair_at(i) else {
            continue;
        };
        let samples = ds.digraph_samples(i);
        let measured = ds.digraph_probability(i, x, y);
        let paper = digraph.probability();
        let sign_ok = if samples == 0 {
            false
        } else {
            (measured > UNIFORM_PAIR) == (paper > UNIFORM_PAIR)
        };
        report.push_row(&[
            format!("({x},{y})"),
            condition.to_string(),
            format_pow2(paper),
            format_pow2(measured),
            sign_ok.to_string(),
        ]);
    }
    Ok(report)
}

/// Fig. 4: the relative bias of Fluhrer–McGrew digraphs in the *initial*
/// keystream bytes, compared to the single-byte based expectation.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn fig4_fm_shortterm(
    scale: &BiasScale,
    positions: &[usize],
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    // One digraph (r, r + 1) per swept position (position 0 has none),
    // sorted and deduplicated so a sweep in any order names one cache entry.
    let mut pairs: Vec<PositionPair> = positions
        .iter()
        .filter(|&&r| r >= 1)
        .map(|&r| PositionPair {
            a: r,
            b: r.saturating_add(1),
        })
        .collect();
    pairs.sort_unstable_by_key(|p| p.a);
    pairs.dedup();
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 4,
        key_len: 16,
    };

    let mut report = ExperimentReport::new(
        "fig4",
        "Fluhrer-McGrew digraph relative biases in the initial keystream",
        &[
            "position",
            "digraph",
            "|q| measured",
            "sign (paper)",
            "dependence p-value",
        ],
    );
    report.note(format!("{} keys (paper: 2^45)", scale.keys));
    if pairs.is_empty() {
        // No pair to read: the report is its note alone.
        return Ok(report);
    }
    let ds = ctx.load_or_generate(PairDataset::new(pairs)?, &config)?;
    for &r in positions {
        let Some(idx) = ds.pair_index(r, r + 1) else {
            continue;
        };
        let m = m_test_independence(ds.joint_counts(idx), 256, 256)?;
        for bias in fm_biases_at(r as u64) {
            let q = ds
                .relative_bias(idx, bias.first, bias.second)
                .unwrap_or(0.0);
            report.push_row(&[
                r.to_string(),
                format!("({},{})", bias.first, bias.second),
                format!("{:.6}", q.abs()),
                format!("{:?}", bias.sign),
                format!("{:.2e}", m.test.p_value),
            ]);
        }
    }
    Ok(report)
}

/// Table 2: the new consecutive (key-length) and non-consecutive biases.
///
/// Only the consecutive rows are re-measured here — the non-consecutive rows
/// need the full `first16` dataset, which is exercised by [`fig5_z1z2`] on the
/// same machinery; their paper values are still listed for reference.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn table2_new_biases(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 2,
        key_len: 16,
    };
    // Only the consecutive rows' pairs are measured.
    let pairs = table2_consecutive()
        .iter()
        .map(|row| PositionPair {
            a: row.pos_a as usize,
            b: row.pos_b as usize,
        })
        .collect();
    let ds = ctx.load_or_generate(PairDataset::new(pairs)?, &config)?;

    let mut report = ExperimentReport::new(
        "table2",
        "New biases between (non-)consecutive initial bytes",
        &[
            "bytes",
            "paper prob",
            "measured prob",
            "rejects independence",
        ],
    );
    report.note(format!("{} keys (paper: 2^44/2^45)", scale.keys));

    for row in table2_consecutive() {
        let idx = ds
            .pair_index(row.pos_a as usize, row.pos_b as usize)
            .expect("dataset covers every consecutive row's pair");
        let measured = ds.joint_probability(idx, row.val_a, row.val_b);
        let n = ds.recorded_keystreams();
        let count = ds.count(idx, row.val_a, row.val_b);
        let test = proportion_test(count, n, UNIFORM_PAIR)?;
        report.push_row(&[
            format!(
                "Z{}={} & Z{}={}",
                row.pos_a, row.val_a, row.pos_b, row.val_b
            ),
            format_pow2(row.paper_probability),
            format_pow2(measured),
            test.test.rejects_at(1e-2).to_string(),
        ]);
    }
    for row in table2_nonconsecutive() {
        report.push_row(&[
            format!(
                "Z{}={} & Z{}={}",
                row.pos_a, row.val_a, row.pos_b, row.val_b
            ),
            format_pow2(row.paper_probability),
            "(first16 dataset required)".to_string(),
            "-".to_string(),
        ]);
    }
    Ok(report)
}

/// Eq. 3–5: the `Z_1 = Z_3`, `Z_1 = Z_4` and `Z_2 = Z_4` equality biases.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn eq345_equalities(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 345,
        key_len: 16,
    };
    let ds = ctx.load_or_generate(
        PairDataset::new(vec![
            PositionPair { a: 1, b: 3 },
            PositionPair { a: 1, b: 4 },
            PositionPair { a: 2, b: 4 },
        ])?,
        &config,
    )?;

    let mut report = ExperimentReport::new(
        "eq345",
        "Equality biases among the first four keystream bytes (Eq. 3-5)",
        &["equality", "paper prob", "measured prob", "measured sign"],
    );
    report.note(format!("{} keys (paper: 2^44)", scale.keys));
    for bias in equality_biases() {
        let idx = ds
            .pair_index(bias.pos_a as usize, bias.pos_b as usize)
            .expect("dataset covers the three pairs");
        // Pr[Z_a = Z_b] = sum over x of the diagonal.
        let mut count = 0u64;
        for x in 0..=255u8 {
            count += ds.count(idx, x, x);
        }
        let measured = count as f64 / ds.recorded_keystreams() as f64;
        let sign = if measured >= UNIFORM_SINGLE {
            "positive"
        } else {
            "negative"
        };
        report.push_row(&[
            format!("Z{} = Z{}", bias.pos_a, bias.pos_b),
            format_pow2(bias.paper_probability),
            format_pow2(measured),
            sign.to_string(),
        ]);
    }
    Ok(report)
}

/// Fig. 5: the influence of `Z_1` and `Z_2` on later keystream bytes — measures
/// the absolute relative bias of each family at a sample of positions.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn fig5_z1z2(
    scale: &BiasScale,
    positions: &[u16],
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    // first16-style dataset restricted to the pairs (1, i) and (2, i).
    let mut pairs = Vec::new();
    for &i in positions {
        pairs.push(PositionPair {
            a: 1,
            b: i as usize,
        });
        pairs.push(PositionPair {
            a: 2,
            b: i as usize,
        });
    }
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 5,
        key_len: 16,
    };
    let ds = ctx.load_or_generate(PairDataset::new(pairs)?, &config)?;

    let mut report = ExperimentReport::new(
        "fig5",
        "Influence of Z1 and Z2 on later keystream bytes",
        &[
            "family",
            "position i",
            "|q| measured",
            "sign measured",
            "sign paper",
        ],
    );
    report.note(format!("{} keys (paper: 2^44 first16 dataset)", scale.keys));
    for family in Z1Z2Family::ALL {
        for &i in positions {
            let Some(event) = family.event(i) else {
                continue;
            };
            let Some(idx) = ds.pair_index(event.early_pos as usize, event.late_pos as usize) else {
                continue;
            };
            let Some(q) = ds.relative_bias(idx, event.early_val, event.late_val) else {
                continue;
            };
            let sign = if q >= 0.0 { "positive" } else { "negative" };
            report.push_row(&[
                format!("{}", family.number()),
                i.to_string(),
                format!("{:.6}", q.abs()),
                sign.to_string(),
                format!("{:?}", family.typical_sign()).to_lowercase(),
            ]);
        }
    }
    Ok(report)
}

/// Fig. 6: single-byte biases beyond position 256 (`Z_{256+16k} → 32k`) plus
/// the per-position uniformity test of the initial bytes.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn fig6_single_byte(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 6,
        key_len: 16,
    };
    let ds = ctx.load_or_generate(SingleByteDataset::new(384), &config)?;

    let mut report = ExperimentReport::new(
        "fig6",
        "Single-byte biases beyond position 256 (key-length harmonics)",
        &[
            "position",
            "favoured value",
            "measured prob",
            "uniform",
            "uniformity p-value",
        ],
    );
    report.note(format!("{} keys (paper: 2^47)", scale.keys));
    for bias in keylength::beyond_256_biases() {
        if bias.position as usize > ds.positions() {
            continue;
        }
        let measured = ds.probability(bias.position as usize, bias.value);
        let test = chi_squared_uniform(ds.counts_at(bias.position as usize))?;
        report.push_row(&[
            bias.position.to_string(),
            bias.value.to_string(),
            format_pow2(measured),
            format_pow2(UNIFORM_SINGLE),
            format!("{:.2e}", test.p_value),
        ]);
    }
    // Also report the two headline short-term single-byte biases as context rows.
    let z2 = ds.probability(2, 0);
    report.push_row(&[
        "2".to_string(),
        "0 (Mantin-Shamir)".to_string(),
        format_pow2(z2),
        format_pow2(UNIFORM_SINGLE),
        format!("{:.2e}", chi_squared_uniform(ds.counts_at(2))?.p_value),
    ]);
    let z16 = ds.probability(16, 240);
    report.push_row(&[
        "16".to_string(),
        "240 (key length)".to_string(),
        format_pow2(z16),
        format_pow2(UNIFORM_SINGLE),
        format!("{:.2e}", chi_squared_uniform(ds.counts_at(16))?.p_value),
    ]);
    Ok(report)
}

/// Sect. 3.4: long-term biases at 256-aligned positions — Sen Gupta's `(0,0)`
/// and the paper's new `(128,0)`.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn longterm_aligned(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.longterm_keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 8,
        key_len: 16,
    };
    // The aligned table is all this report reads: no digraph slices.
    let ds = ctx.load_or_generate(
        LongTermDataset::with_counters(255, scale.longterm_block, &[])?,
        &config,
    )?;

    let mut report = ExperimentReport::new(
        "longterm",
        "Long-term biases at 256-aligned positions (Sect. 3.4)",
        &["pair", "paper prob", "measured prob", "samples"],
    );
    report.note(format!(
        "{} keys x {} bytes (paper: 2^12 keys x 2^40 bytes)",
        scale.longterm_keys, scale.longterm_block
    ));
    for bias in aligned_biases() {
        let measured = ds.aligned_probability(bias.first, bias.second);
        report.push_row(&[
            format!("({},{})", bias.first, bias.second),
            format_pow2(bias.probability),
            format_pow2(measured),
            ds.aligned_samples().to_string(),
        ]);
    }
    Ok(report)
}

/// Summarizes how many of the strong headline biases were re-detected, a
/// convenience used by integration tests and the quickstart example.
///
/// # Errors
///
/// Propagates dataset-generation errors.
pub fn headline_detection(
    scale: &BiasScale,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let config = GenerationConfig {
        keys: scale.keys,
        workers: BIAS_STREAMS,
        seed: scale.seed ^ 99,
        key_len: 16,
    };
    let ds = ctx.load_or_generate(SingleByteDataset::new(16), &config)?;
    let mut report = ExperimentReport::new(
        "headline",
        "Headline short-term biases re-detected by the hypothesis tests",
        &["bias", "measured prob", "detected"],
    );
    // Mantin-Shamir Z2 = 0.
    let z2_test = proportion_test(ds.count(2, 0), ds.recorded_keystreams(), UNIFORM_SINGLE)?;
    report.push_row(&[
        "Pr[Z2 = 0] ~ 2^-7".to_string(),
        format_pow2(ds.probability(2, 0)),
        format_percent(if z2_test.test.rejects() { 1.0 } else { 0.0 }),
    ]);
    // Key-length bias Z16 = 240.
    let z16_test = proportion_test(ds.count(16, 240), ds.recorded_keystreams(), UNIFORM_SINGLE)?;
    report.push_row(&[
        "Pr[Z16 = 240] > 2^-8".to_string(),
        format_pow2(ds.probability(16, 240)),
        format_percent(if z16_test.test.rejects() { 1.0 } else { 0.0 }),
    ]);
    // Uniformity rejected for every initial byte.
    let mut rejected = 0usize;
    for r in 1..=16 {
        if chi_squared_uniform(ds.counts_at(r))?.rejects_at(1e-3) {
            rejected += 1;
        }
    }
    report.push_row(&[
        "initial bytes with uniformity rejected (of 16)".to_string(),
        rejected.to_string(),
        format_percent(rejected as f64 / 16.0),
    ]);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> BiasScale {
        BiasScale {
            keys: 1 << 13,
            longterm_keys: 4,
            longterm_block: 4096,
            seed: 7,
        }
    }

    #[test]
    fn scales_are_ordered_by_effort() {
        let quick = BiasScale::for_scale(Scale::Quick);
        let laptop = BiasScale::for_scale(Scale::Laptop);
        let extended = BiasScale::for_scale(Scale::Extended);
        assert!(quick.keys < laptop.keys);
        assert!(laptop.keys < extended.keys);
    }

    #[test]
    fn table1_report_shape() {
        let r = table1_fm_longterm(&tiny(), &ExperimentContext::default()).unwrap();
        assert_eq!(r.id, "table1");
        assert_eq!(r.rows.len(), 12);
        assert!(r.render().contains("(0,0)"));
    }

    #[test]
    fn fig4_report_runs_at_tiny_scale() {
        let r = fig4_fm_shortterm(&tiny(), &[4, 17], &ExperimentContext::default()).unwrap();
        assert!(!r.rows.is_empty());
        assert!(r.columns.contains(&"|q| measured".to_string()));
        // A sweep with no pair to read reports its note and no rows, and
        // generates nothing: a cancelled context does not stop it.
        let cancel = crate::context::CancelHandle::new();
        cancel.cancel();
        let ctx = ExperimentContext::default().with_cancel(cancel);
        for positions in [&[][..], &[0]] {
            let empty = fig4_fm_shortterm(&tiny(), positions, &ctx).unwrap();
            assert!(empty.rows.is_empty());
            assert_eq!(empty.notes, r.notes);
        }
    }

    #[test]
    fn table2_and_eq345_reports() {
        let r = table2_new_biases(&tiny(), &ExperimentContext::default()).unwrap();
        assert_eq!(r.rows.len(), 7 + 16);
        let e = eq345_equalities(&tiny(), &ExperimentContext::default()).unwrap();
        assert_eq!(e.rows.len(), 3);
    }

    #[test]
    fn fig5_fig6_longterm_reports() {
        let r = fig5_z1z2(&tiny(), &[4, 16], &ExperimentContext::default()).unwrap();
        assert!(!r.rows.is_empty());
        let f6 = fig6_single_byte(&tiny(), &ExperimentContext::default()).unwrap();
        assert!(f6.rows.len() >= 9);
        let lt = longterm_aligned(&tiny(), &ExperimentContext::default()).unwrap();
        assert_eq!(lt.rows.len(), 2);
    }

    #[test]
    fn bias_experiment_trait_matches_free_function_and_roundtrips() {
        // The trait path with a default context must reproduce the free
        // function bit for bit (the numerical-identity guarantee of the
        // experiment-API redesign).
        let mut exp = BiasExperiment::headline();
        exp.apply_scale(Scale::Quick);
        exp.set_config_value(&config_to_value(&BiasConfig {
            keys: 1 << 13,
            longterm_keys: 4,
            longterm_block: 4096,
            seed: 7,
            positions: vec![],
        }))
        .unwrap();
        let via_trait = exp.run(&ExperimentContext::default()).unwrap();
        let direct = headline_detection(&tiny(), &ExperimentContext::default()).unwrap();
        assert_eq!(via_trait, direct);

        // Config roundtrip through JSON is lossless.
        let json = exp.config_json();
        let mut other = BiasExperiment::headline();
        other.set_config_json(&json).unwrap();
        assert_eq!(other.config_value(), exp.config_value());

        // A non-zero context seed changes the measured numbers.
        let reseeded = exp.run(&ExperimentContext::default().with_seed(1)).unwrap();
        assert_ne!(reseeded, direct);
    }

    #[test]
    fn fig5_rejects_positions_beyond_u16() {
        let mut exp = BiasExperiment::fig5();
        exp.set_config_value(&config_to_value(&BiasConfig {
            positions: vec![65600],
            ..BiasConfig::for_scale(Scale::Quick, &[])
        }))
        .unwrap();
        match exp.run(&ExperimentContext::default()) {
            Err(ExperimentError::InvalidConfig(msg)) => assert!(msg.contains("65600")),
            other => panic!("expected InvalidConfig, got {:?}", other.map(|r| r.id)),
        }
    }

    #[test]
    fn bias_experiment_cancellation_aborts_generation() {
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = BiasExperiment::table1();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn cached_bias_run_is_byte_identical_and_skips_generation() {
        let dir = std::env::temp_dir().join(format!("biases-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let fresh = headline_detection(&tiny(), &ExperimentContext::default()).unwrap();
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let miss = headline_detection(&tiny(), &ctx).unwrap();
        let hit = headline_detection(&tiny(), &ctx).unwrap();
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        // eq345 uses a different seed tweak and shape: a separate cache entry,
        // no false sharing.
        let eq_fresh = eq345_equalities(&tiny(), &ExperimentContext::default()).unwrap();
        let eq_cached = eq345_equalities(&tiny(), &ctx).unwrap();
        assert_eq!(eq_cached, eq_fresh);
        assert_eq!(std::fs::read_dir(&dir).unwrap().count(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn headline_biases_detected_at_modest_scale() {
        // 2^17 keys are enough to detect the Mantin-Shamir bias (100% relative);
        // the Z16 -> 240 bias (~2^-4.8 relative) needs millions of keys and is
        // only asserted to be *reported*, with its detection left to the
        // release-mode repro harness.
        let scale = BiasScale {
            keys: 1 << 17,
            ..tiny()
        };
        let r = headline_detection(&scale, &ExperimentContext::default()).unwrap();
        assert_eq!(r.rows.len(), 3);
        assert_eq!(
            r.rows[0].cells[2],
            "100.0%",
            "Z2=0 not detected: {}",
            r.render()
        );
        assert!(r.rows[1].cells[0].contains("Z16"));
    }
}
