//! Fig. 7: average success rate of decrypting two plaintext bytes with
//! (1) a single ABSAB relation, (2) the Fluhrer–McGrew biases, and (3) the
//! combination of FM with many ABSAB relations.
//!
//! The paper runs 2048 simulations per point over ciphertext counts from
//! `2^27` to `2^39`. This driver reproduces the simulation in *sampled mode*:
//! the per-pair ciphertext counts and per-relation differential counts are
//! drawn from the exact distributions the analysis assumes (normal
//! approximation per cell), which makes paper-scale ciphertext counts
//! affordable. The qualitative result — combined ≫ FM-only ≫ single ABSAB,
//! with the crossover to near-certain recovery moving left as biases are
//! added — is what the experiment checks.

use rand::{rngs::StdRng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use rc4_stats::{
    pairs::{PairDataset, PositionPair},
    GenerationConfig,
};

use rc4_biases::fm::fm_joint_distribution;

use crate::{
    context::ExperimentContext,
    experiments::{
        trial::{fm_cells, PairTrial},
        CountSource, Scale, DATASET_STREAMS,
    },
    report::{format_percent, ExperimentReport},
    sampling::stream_seed,
    ExperimentError,
};

/// Which bias families a simulated recovery uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStrategy {
    /// A single ABSAB relation with gap 0.
    AbsabOnly,
    /// The Fluhrer–McGrew biases at the target position.
    FmOnly,
    /// FM combined with `absab_relations` ABSAB relations.
    Combined,
}

impl RecoveryStrategy {
    /// Display label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStrategy::AbsabOnly => "ABSAB only",
            RecoveryStrategy::FmOnly => "FM only",
            RecoveryStrategy::Combined => "Combined",
        }
    }
}

/// Configuration of the Fig. 7 simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig7Config {
    /// Ciphertext counts to sweep (the paper sweeps `2^27 ..= 2^39`).
    pub ciphertext_counts: Vec<u64>,
    /// Simulations per point (the paper uses 2048).
    pub trials: usize,
    /// Number of ABSAB relations available in the combined strategy
    /// (the paper uses `2 * 129 = 258` with a maximum gap of 128).
    pub absab_relations: usize,
    /// Keystream position of the unknown pair (determines the FM cells).
    pub position: u64,
    /// Where the ground-truth keystream-pair distribution comes from:
    /// the analytic FM model (default) or measurement over real keystreams.
    pub source: CountSource,
    /// RNG seed.
    pub seed: u64,
}

/// Hand-written so config files from before the `source` field existed keep
/// deserializing (an absent `source` means the historical analytic mode).
impl Deserialize for Fig7Config {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            ciphertext_counts: Vec::<u64>::from_value(v.field("ciphertext_counts")?)?,
            trials: usize::from_value(v.field("trials")?)?,
            absab_relations: usize::from_value(v.field("absab_relations")?)?,
            position: u64::from_value(v.field("position")?)?,
            source: match v.field("source") {
                Ok(source) => CountSource::from_value(source)?,
                Err(_) => CountSource::Analytic,
            },
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

impl Default for Fig7Config {
    fn default() -> Self {
        Self {
            ciphertext_counts: vec![1 << 27, 1 << 29, 1 << 31, 1 << 33, 1 << 35, 1 << 37],
            trials: 64,
            absab_relations: 258,
            position: 257,
            source: CountSource::Analytic,
            seed: 0xF167,
        }
    }
}

impl Fig7Config {
    /// A seconds-long configuration for tests.
    pub fn quick() -> Self {
        Self {
            ciphertext_counts: vec![1 << 29, 1 << 35],
            trials: 8,
            absab_relations: 32,
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self {
                ciphertext_counts: vec![1 << 27, 1 << 29, 1 << 31, 1 << 33, 1 << 35],
                trials: 32,
                absab_relations: 64,
                ..Self::default()
            },
            Scale::Extended => Self {
                ciphertext_counts: vec![
                    1 << 27,
                    1 << 29,
                    1 << 31,
                    1 << 33,
                    1 << 35,
                    1 << 37,
                    1 << 39,
                ],
                trials: 128,
                absab_relations: 258,
                ..Self::default()
            },
        }
    }
}

/// Runs the Fig. 7 experiment and reports the success rate per strategy and
/// ciphertext count. The context seed is mixed into `config.seed`, progress
/// is reported per trial, and the cancellation flag is honoured between
/// trials.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for empty sweeps,
/// [`ExperimentError::Cancelled`] when the context is cancelled, and
/// propagates component errors.
pub fn run(
    config: &Fig7Config,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.ciphertext_counts.is_empty() || config.trials == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one ciphertext count and one trial".into(),
        ));
    }
    // Ground-truth keystream-pair distribution for the target position:
    // analytic FM model, or measured from real keystreams (cache-served).
    let key_pair_probs: Vec<f64> = match config.source {
        CountSource::Analytic => fm_joint_distribution(config.position),
        CountSource::Empirical { keys } => {
            let position = config.position as usize;
            // Fixed stream count (dataset identity), threads from the
            // context executor — see `experiments::DATASET_STREAMS`.
            let gen_config = GenerationConfig {
                keys,
                workers: DATASET_STREAMS,
                seed: ctx.mix_seed(config.seed) ^ 0x7E1,
                key_len: 16,
            };
            let ds = ctx.load_or_generate(
                PairDataset::new(vec![PositionPair {
                    a: position,
                    b: position + 1,
                }])?,
                &gen_config,
            )?;
            ds.joint_distribution(0)
        }
    };
    let fm_cells = fm_cells(config.position);

    let mut report = ExperimentReport::new(
        "fig7",
        "Success rate of decrypting two bytes (sampled-mode simulation)",
        &["ciphertexts", "ABSAB only", "FM only", "Combined"],
    );
    report.note(format!(
        "{} trials per point, {} ABSAB relations in the combined strategy (paper: 2048 trials, 258 relations)",
        config.trials, config.absab_relations
    ));
    report.note(
        "sampled mode: counts drawn from the analysis distributions (normal approximation)"
            .to_string(),
    );
    if let CountSource::Empirical { keys } = config.source {
        report.note(format!(
            "empirical ground truth: pair distribution at position {} measured from {keys} keystreams",
            config.position
        ));
    }

    // Monte-Carlo grid: every (point, strategy, trial) cell is an
    // independent simulation seeded from its own RNG stream, so the whole
    // grid fans out across the executor and the aggregate rates are
    // byte-identical for any worker count.
    const STRATEGIES: [RecoveryStrategy; 3] = [
        RecoveryStrategy::AbsabOnly,
        RecoveryStrategy::FmOnly,
        RecoveryStrategy::Combined,
    ];
    let base_seed = ctx.mix_seed(config.seed);
    let trials = config.trials;
    let mut grid = Vec::with_capacity(config.ciphertext_counts.len() * STRATEGIES.len() * trials);
    for point in 0..config.ciphertext_counts.len() {
        for strategy in 0..STRATEGIES.len() {
            for trial in 0..trials {
                grid.push((point, strategy, trial));
            }
        }
    }
    let reporter = ctx.progress("fig7", grid.len() as u64, "trial");
    let outcomes: Vec<bool> = ctx
        .executor()
        .map(grid, |_, (point, strategy, trial)| {
            let mut rng = StdRng::seed_from_u64(stream_seed(
                base_seed,
                &[point as u64, strategy as u64, trial as u64],
            ));
            // Single ABSAB uses the gap-0 relation; the combined strategy
            // cycles gaps 0..=127, mirroring the paper's setup.
            let fm = Some(key_pair_probs.as_slice());
            let (fm, relations) = match STRATEGIES[strategy] {
                RecoveryStrategy::AbsabOnly => (None, 1),
                RecoveryStrategy::FmOnly => (fm, 0),
                RecoveryStrategy::Combined => (fm, config.absab_relations),
            };
            let gaps = (0..relations).map(|rel| rel % 128);
            let mut sim = PairTrial::new(fm, &fm_cells, gaps, &mut rng);
            sim.ingest(config.ciphertext_counts[point], &mut rng);
            let success = sim.score()?.best() == sim.truth();
            reporter.tick(1);
            Ok::<_, ExperimentError>(success)
        })
        .map_err(ExperimentError::from)?;

    for (point, &n) in config.ciphertext_counts.iter().enumerate() {
        let rate = |strategy: usize| {
            let first = (point * STRATEGIES.len() + strategy) * trials;
            let successes = outcomes[first..first + trials]
                .iter()
                .filter(|&&s| s)
                .count();
            format_percent(successes as f64 / trials as f64)
        };
        report.push_row(&[
            format!("2^{:.1}", (n as f64).log2()),
            rate(0),
            rate(1),
            rate(2),
        ]);
    }
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the Fig. 7 two-byte recovery simulation.
    Fig7Experiment,
    Fig7Config,
    "fig7",
    "Success rate of decrypting two bytes: ABSAB vs FM vs combined (Sect. 4.3)",
    run
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{config_to_value, Experiment};

    /// The ABSAB, FM and combined success rates of a report row.
    fn parse_rates(report: &ExperimentReport, row: usize) -> (f64, f64, f64) {
        let parse = |s: &str| s.trim_end_matches('%').parse::<f64>().unwrap_or(0.0) / 100.0;
        let cells = &report.rows[row].cells;
        (parse(&cells[1]), parse(&cells[2]), parse(&cells[3]))
    }

    #[test]
    fn validation() {
        let empty = Fig7Config {
            ciphertext_counts: vec![],
            ..Fig7Config::quick()
        };
        assert!(run(&empty, &ExperimentContext::default()).is_err());
    }

    #[test]
    fn quick_run_shows_expected_ordering_at_large_n() {
        // At 2^35 sampled ciphertexts the combined strategy must essentially always
        // succeed and dominate the single-ABSAB strategy; FM-only sits in between
        // or equals combined.
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 35],
            trials: 6,
            absab_relations: 16,
            ..Fig7Config::quick()
        };
        let report = run(&config, &ExperimentContext::default()).unwrap();
        let (absab, fm, combined) = parse_rates(&report, 0);
        assert!(combined >= fm, "combined {combined} < fm {fm}");
        assert!(combined >= absab, "combined {combined} < absab {absab}");
        assert!(combined > 0.8, "combined rate too low: {combined}");
    }

    #[test]
    fn trait_run_matches_free_function_and_cancels() {
        let mut exp = Fig7Experiment::new();
        exp.apply_scale(Scale::Quick);
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 28],
            trials: 2,
            absab_relations: 4,
            ..Fig7Config::quick()
        };
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let via_trait = exp.run(&ExperimentContext::default()).unwrap();
        let direct = run(&config, &ExperimentContext::default()).unwrap();
        assert_eq!(via_trait, direct);
        // Config JSON roundtrip is lossless.
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig7Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
        // Cancellation aborts between trials.
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn config_without_source_field_defaults_to_analytic() {
        // Config files written before the `source` field existed keep working.
        let legacy = r#"{"ciphertext_counts":[1024],"trials":2,"absab_relations":4,"position":257,"seed":9}"#;
        let config: Fig7Config = serde_json::from_str(legacy).unwrap();
        assert_eq!(config.source, CountSource::Analytic);
        assert_eq!(config.trials, 2);
    }

    #[test]
    fn empirical_source_runs_and_is_cache_stable() {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 33],
            trials: 2,
            absab_relations: 4,
            source: CountSource::Empirical { keys: 1 << 13 },
            ..Fig7Config::quick()
        };
        let fresh = run(&config, &ExperimentContext::default()).unwrap();
        assert!(fresh
            .notes
            .iter()
            .any(|n| n.contains("empirical ground truth")));

        // A cached context must reproduce the uncached run byte for byte:
        // first call populates the cache, second call loads from it.
        let dir = std::env::temp_dir().join(format!("fig7-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let miss = run(&config, &ctx).unwrap();
        let hit = run(&config, &ctx).unwrap();
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn small_n_gives_low_single_absab_rate() {
        let config = Fig7Config {
            ciphertext_counts: vec![1 << 24],
            trials: 6,
            absab_relations: 8,
            ..Fig7Config::quick()
        };
        let report = run(&config, &ExperimentContext::default()).unwrap();
        let (absab, _fm, _combined) = parse_rates(&report, 0);
        // With only 2^24 ciphertexts a single ABSAB relation almost never recovers
        // the pair (the paper's curve is ~0% until 2^31).
        assert!(absab < 0.5, "single-ABSAB rate implausibly high: {absab}");
    }
}
