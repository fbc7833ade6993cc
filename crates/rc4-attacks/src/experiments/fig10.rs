//! Fig. 10: success rate of brute-forcing a 16-character HTTPS cookie.
//!
//! The paper sweeps the number of captured encryptions of the cookie from
//! `1 x 2^27` to `15 x 2^27` and compares two decision rules: walking a list of
//! roughly `2^23` candidates (generated by Algorithm 2 over the cookie
//! alphabet) versus using only the single most likely candidate. With
//! `9 x 2^27` ciphertexts the candidate-list rule succeeds with ~94%.
//!
//! This driver reproduces the simulation in sampled mode: for every transition
//! of the cookie span it draws Fluhrer–McGrew pair counts and ABSAB
//! differential-vote tables from the analysis distributions, builds the
//! combined likelihoods, runs the list-Viterbi decoder and records where the
//! true cookie lands in the candidate list. The candidate budget and the
//! number of ABSAB relations are configurable so laptop runs finish in
//! minutes; the paper-scale values are documented in the report notes.

use rand::{rngs::StdRng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use plaintext_recovery::charset::Charset;
use rc4_stats::{
    pairs::{PairDataset, PositionPair},
    GenerationConfig,
};

use rc4_biases::fm::fm_joint_distribution;

use crate::{
    context::ExperimentContext,
    experiments::{
        trial::{CookieShape, CookieTrial},
        CountSource, Scale, DATASET_STREAMS,
    },
    report::{format_percent, ExperimentReport},
    sampling::stream_seed,
    ExperimentError,
};

/// Configuration of the Fig. 10 simulation.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Fig10Config {
    /// Ciphertext (request) counts to sweep; the paper uses `k x 2^27` for `k in 1..=15`.
    pub request_counts: Vec<u64>,
    /// Simulations per point (the paper uses 256).
    pub trials: usize,
    /// Cookie length in bytes (the paper targets a 16-character cookie).
    pub cookie_len: usize,
    /// Cookie alphabet.
    pub charset: Charset,
    /// Candidate-list budget (the paper uses ~2^23).
    pub candidates: usize,
    /// Number of ABSAB relations contributing per transition (the paper uses 258).
    pub absab_relations: usize,
    /// Keystream position (1-based) of the first cookie byte, fixing the FM cells.
    pub cookie_position: u64,
    /// Where the ground-truth keystream-pair distributions come from:
    /// the analytic FM model (default) or measurement over real keystreams.
    pub source: CountSource,
    /// RNG seed.
    pub seed: u64,
}

/// Hand-written so config files from before the `source` field existed keep
/// deserializing (an absent `source` means the historical analytic mode).
impl Deserialize for Fig10Config {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        Ok(Self {
            request_counts: Vec::<u64>::from_value(v.field("request_counts")?)?,
            trials: usize::from_value(v.field("trials")?)?,
            cookie_len: usize::from_value(v.field("cookie_len")?)?,
            charset: Charset::from_value(v.field("charset")?)?,
            candidates: usize::from_value(v.field("candidates")?)?,
            absab_relations: usize::from_value(v.field("absab_relations")?)?,
            cookie_position: u64::from_value(v.field("cookie_position")?)?,
            source: match v.field("source") {
                Ok(source) => CountSource::from_value(source)?,
                Err(_) => CountSource::Analytic,
            },
            seed: u64::from_value(v.field("seed")?)?,
        })
    }
}

impl Default for Fig10Config {
    fn default() -> Self {
        Self {
            request_counts: vec![1 << 27, 3 << 27, 5 << 27, 9 << 27, 15 << 27],
            trials: 16,
            cookie_len: 16,
            charset: Charset::base64(),
            candidates: 1 << 13,
            absab_relations: 64,
            cookie_position: 321,
            source: CountSource::Analytic,
            seed: 0xF1610,
        }
    }
}

impl Fig10Config {
    /// Seconds-long configuration for tests.
    pub fn quick() -> Self {
        Self {
            request_counts: vec![1 << 30],
            trials: 2,
            cookie_len: 6,
            candidates: 256,
            absab_relations: 12,
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self::default(),
            Scale::Extended => Self {
                request_counts: (1..=15u64).step_by(2).map(|k| k << 27).collect(),
                trials: 64,
                cookie_len: 16,
                candidates: 1 << 17,
                absab_relations: 258,
                ..Self::default()
            },
        }
    }
}

/// Per-point aggregate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig10Point {
    /// Number of captured requests per trial.
    pub requests: u64,
    /// Success rate of the candidate-list brute force.
    pub success_list: f64,
    /// Success rate when only the single most likely candidate is used.
    pub success_top1: f64,
    /// Median position of the true cookie in the candidate list over the trials
    /// in which it appeared at all.
    pub median_position: Option<usize>,
}

/// Runs the Fig. 10 simulation. The context seed is mixed into
/// `config.seed`, progress is reported per trial, and cancellation is
/// honoured between trials.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate sweeps,
/// [`ExperimentError::Cancelled`] when the context is cancelled, and
/// propagates component errors.
pub fn run(
    config: &Fig10Config,
    ctx: &ExperimentContext,
) -> Result<(Vec<Fig10Point>, ExperimentReport), ExperimentError> {
    if config.request_counts.is_empty() || config.trials == 0 || config.cookie_len == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one request count, one trial and a non-empty cookie".into(),
        ));
    }

    let base_seed = ctx.mix_seed(config.seed);

    // One ground-truth keystream-pair distribution per cookie transition
    // (positions cookie_position .. cookie_position + cookie_len), computed
    // once per run: analytic FM tables, or measured from real keystreams via
    // a single pair dataset covering every transition (cache-served).
    let transition_probs: Vec<Vec<f64>> = match config.source {
        CountSource::Analytic => (0..=config.cookie_len)
            .map(|t| fm_joint_distribution(config.cookie_position + t as u64))
            .collect(),
        CountSource::Empirical { keys } => {
            let pairs: Vec<PositionPair> = (0..=config.cookie_len)
                .map(|t| {
                    let a = config.cookie_position as usize + t;
                    PositionPair { a, b: a + 1 }
                })
                .collect();
            // Fixed stream count (dataset identity), threads from the
            // context executor — see `experiments::DATASET_STREAMS`.
            let gen_config = GenerationConfig {
                keys,
                workers: DATASET_STREAMS,
                seed: ctx.mix_seed(config.seed) ^ 0x7E10,
                key_len: 16,
            };
            let ds = ctx.load_or_generate(PairDataset::new(pairs)?, &gen_config)?;
            (0..=config.cookie_len)
                .map(|t| ds.joint_distribution(t))
                .collect()
        }
    };

    // Monte-Carlo grid: one independent simulation per (point, trial), each
    // seeded from its own RNG stream, fanned out across the executor. The
    // per-trial outcome is the true cookie's candidate-list position, if it
    // made the list at all.
    let shape = CookieShape {
        cookie_len: config.cookie_len,
        charset: &config.charset,
        candidates: config.candidates,
        absab_relations: config.absab_relations,
        cookie_position: config.cookie_position,
    };
    let trials = config.trials;
    let mut grid = Vec::with_capacity(config.request_counts.len() * trials);
    for point in 0..config.request_counts.len() {
        for trial in 0..trials {
            grid.push((point, trial));
        }
    }
    let reporter = ctx.progress("fig10", grid.len() as u64, "trial");
    let outcomes: Vec<Option<usize>> = ctx
        .executor()
        .map(grid, |_, (point, trial)| {
            let n = config.request_counts[point];
            let mut rng =
                StdRng::seed_from_u64(stream_seed(base_seed, &[point as u64, trial as u64]));
            ctx.checkpoint()?;
            let mut sim = CookieTrial::new(&shape, &transition_probs, &mut rng);
            sim.ingest(n, &mut rng);
            let position = sim
                .candidates()?
                .iter()
                .position(|c| c.plaintext == sim.cookie());
            reporter.tick(1);
            Ok::<_, ExperimentError>(position)
        })
        .map_err(ExperimentError::from)?;

    let mut points = Vec::with_capacity(config.request_counts.len());
    for (point, &n) in config.request_counts.iter().enumerate() {
        let mut success_list = 0usize;
        let mut success_top1 = 0usize;
        let mut found_positions = Vec::new();
        for pos in outcomes[point * trials..(point + 1) * trials]
            .iter()
            .flatten()
        {
            found_positions.push(*pos);
            success_list += 1;
            if *pos == 0 {
                success_top1 += 1;
            }
        }
        found_positions.sort_unstable();
        let median = if found_positions.is_empty() {
            None
        } else {
            Some(found_positions[found_positions.len() / 2])
        };
        points.push(Fig10Point {
            requests: n,
            success_list: success_list as f64 / trials as f64,
            success_top1: success_top1 as f64 / trials as f64,
            median_position: median,
        });
    }

    let mut report = ExperimentReport::new(
        "fig10",
        "HTTPS cookie brute-force success rate (sampled-mode simulation)",
        &[
            "requests",
            "success (candidate list)",
            "success (1 candidate)",
            "median list position",
        ],
    );
    report.note(format!(
        "{} trials per point, {}-byte cookie over a {}-character alphabet, {} candidates, {} ABSAB relations (paper: 256 trials, 16 bytes, 90 characters, 2^23 candidates, 258 relations)",
        config.trials,
        config.cookie_len,
        config.charset.len(),
        config.candidates,
        config.absab_relations
    ));
    report.note("sampled mode: counts drawn from the analysis distributions (see DESIGN.md substitution #4)".to_string());
    if let CountSource::Empirical { keys } = config.source {
        report.note(format!(
            "empirical ground truth: per-transition pair distributions measured from {keys} keystreams"
        ));
    }
    for p in &points {
        report.push_row(&[
            format!(
                "{} (x2^27: {:.2})",
                p.requests,
                p.requests as f64 / (1u64 << 27) as f64
            ),
            format_percent(p.success_list),
            format_percent(p.success_top1),
            p.median_position
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    Ok((points, report))
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the Fig. 10 HTTPS cookie brute-force sweep.
    Fig10Experiment,
    Fig10Config,
    "fig10",
    "HTTPS cookie brute-force success rate, sampled mode (Sect. 6)",
    |config, ctx| run(config, ctx).map(|(_, report)| report)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{config_to_value, Experiment};

    #[test]
    fn validation() {
        let bad = Fig10Config {
            request_counts: vec![],
            ..Fig10Config::quick()
        };
        assert!(run(&bad, &ExperimentContext::default()).is_err());
    }

    #[test]
    fn config_serde_roundtrip_including_charset() {
        let config = Fig10Config::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig10Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn trait_run_matches_free_function_and_cancels() {
        let config = Fig10Config {
            request_counts: vec![1 << 28],
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::new(b"0123456789abcdef").unwrap(),
            ..Fig10Config::quick()
        };
        let mut exp = Fig10Experiment::new();
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let via_trait = exp.run(&ExperimentContext::default()).unwrap();
        let (_, direct) = run(&config, &ExperimentContext::default()).unwrap();
        assert_eq!(via_trait, direct);

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn config_without_source_field_defaults_to_analytic() {
        let mut legacy = serde_json::to_string(&Fig10Config::quick()).unwrap();
        // Strip the `source` object to simulate a pre-`source` config file.
        legacy = legacy.replace(r#""source":{"kind":"analytic"},"#, "");
        assert!(!legacy.contains("source"));
        let config: Fig10Config = serde_json::from_str(&legacy).unwrap();
        assert_eq!(config.source, CountSource::Analytic);
        assert_eq!(config, Fig10Config::quick());
    }

    #[test]
    fn empirical_source_runs_with_cache_and_matches_fresh() {
        let config = Fig10Config {
            request_counts: vec![1 << 30],
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::new(b"0123456789abcdef").unwrap(),
            source: CountSource::Empirical { keys: 1 << 12 },
            ..Fig10Config::quick()
        };
        let (_, fresh) = run(&config, &ExperimentContext::default()).unwrap();
        assert!(fresh
            .notes
            .iter()
            .any(|n| n.contains("empirical ground truth")));

        let dir = std::env::temp_dir().join(format!("fig10-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let (_, miss) = run(&config, &ctx).unwrap();
        let (_, hit) = run(&config, &ctx).unwrap();
        assert_eq!(miss, fresh);
        assert_eq!(hit, fresh);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn candidate_list_beats_single_candidate_and_succeeds_at_large_n() {
        let config = Fig10Config {
            request_counts: vec![1 << 33],
            trials: 2,
            cookie_len: 5,
            candidates: 512,
            absab_relations: 48,
            charset: Charset::new(b"0123456789abcdef").unwrap(),
            ..Fig10Config::quick()
        };
        let (points, report) = run(&config, &ExperimentContext::default()).unwrap();
        assert_eq!(points.len(), 1);
        let p = points[0];
        assert!(p.success_list >= p.success_top1);
        assert!(
            p.success_list > 0.4,
            "candidate-list success too low: {:?}\n{}",
            p,
            report.render()
        );
    }
}
