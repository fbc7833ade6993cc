//! Fig. 8 and Fig. 9: TKIP MIC-key recovery.
//!
//! Fig. 8 plots the probability of recovering the MIC key as a function of the
//! number of captured copies of the injected packet (in multiples of `2^20`),
//! comparing a candidate list of nearly `2^30` entries against using only the
//! two most likely candidates. Fig. 9 plots the median position in the
//! candidate list of the first candidate with a correct ICV.
//!
//! Paper scale needs per-(TSC0, TSC1) keystream distributions built from
//! `2^32` keys per class (10 CPU-years) and `~10^7` captures per trial. The
//! reproduction keeps the complete attack pipeline (per-class counts →
//! combined likelihoods → Algorithm-1 candidates → ICV pruning → Michael
//! inversion) and offers two traffic models:
//!
//! * **Synthetic** — per-TSC1 distributions with a configurable relative bias;
//!   captures are sampled from exactly those distributions. The curves have
//!   the paper's shape at laptop-friendly capture counts.
//! * **Empirical** — per-TSC1 distributions measured from real TKIP-structured
//!   RC4 keys (`rc4-stats`), with captures produced by real TKIP
//!   encapsulation. This is the faithful path; reaching high success rates
//!   requires capture counts that grow towards the paper's numbers.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{DeError, Deserialize, Serialize, Value};

use crypto_prims::{crc32, michael::MichaelKey};
use plaintext_recovery::candidates::generate_candidates;
use plaintext_recovery::charset::Charset;
use wpa_tkip::{
    attack::{find_consistent_candidate, TrailerStatistics},
    model::{TkipKeystreamModel, TscClassing},
    mpdu::FrameAddressing,
    Tsc,
};

use crate::{
    context::ExperimentContext,
    experiments::{Scale, DATASET_STREAMS},
    report::{format_percent, ExperimentReport},
    sampling::{sample_index, stream_seed},
    ExperimentError,
};

/// Traffic/keystream model used by the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TkipTrafficModel {
    /// Synthetic per-TSC1 distributions with the given relative bias strength.
    Synthetic {
        /// Relative bias of the favoured keystream value per class/position.
        relative_bias: f64,
    },
    /// Empirical per-TSC1 distributions measured from `keys` TKIP-structured keys.
    Empirical {
        /// Number of keys used to estimate the per-class distributions.
        keys: u64,
    },
}

/// Serialized as a tagged object: `{"kind": "synthetic", "relative_bias": x}`
/// or `{"kind": "empirical", "keys": n}`. Hand-written because the vendored
/// serde derive only covers unit-variant enums.
impl Serialize for TkipTrafficModel {
    fn to_value(&self) -> Value {
        match self {
            TkipTrafficModel::Synthetic { relative_bias } => Value::Object(vec![
                ("kind".into(), Value::Str("synthetic".into())),
                ("relative_bias".into(), relative_bias.to_value()),
            ]),
            TkipTrafficModel::Empirical { keys } => Value::Object(vec![
                ("kind".into(), Value::Str("empirical".into())),
                ("keys".into(), keys.to_value()),
            ]),
        }
    }
}

impl Deserialize for TkipTrafficModel {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(v.field("kind")?)?;
        match kind.as_str() {
            "synthetic" => Ok(TkipTrafficModel::Synthetic {
                relative_bias: f64::from_value(v.field("relative_bias")?)?,
            }),
            "empirical" => Ok(TkipTrafficModel::Empirical {
                keys: u64::from_value(v.field("keys")?)?,
            }),
            other => Err(DeError(format!(
                "unknown traffic model kind '{other}' (expected synthetic | empirical)"
            ))),
        }
    }
}

/// Configuration of the Fig. 8 / Fig. 9 simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig8Config {
    /// Capture counts to sweep (the paper sweeps `1..=15 x 2^20`).
    pub capture_counts: Vec<u64>,
    /// Simulations per point (the paper uses 256).
    pub trials: usize,
    /// Candidate-list budget (the paper uses nearly `2^30`).
    pub max_candidates: usize,
    /// Known payload length of the injected packet (55 with the 7-byte TCP payload).
    pub payload_len: usize,
    /// Traffic model.
    pub model: TkipTrafficModel,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig8Config {
    fn default() -> Self {
        Self {
            capture_counts: vec![1 << 12, 1 << 13, 1 << 14, 1 << 15, 1 << 16],
            trials: 32,
            max_candidates: 1 << 16,
            payload_len: 55,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.2 },
            seed: 0xF168,
        }
    }
}

impl Fig8Config {
    /// Seconds-long configuration for tests.
    pub fn quick() -> Self {
        Self {
            capture_counts: vec![1 << 10, 1 << 13],
            trials: 6,
            max_candidates: 1 << 10,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.8 },
            ..Self::default()
        }
    }

    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            Scale::Quick => Self::quick(),
            Scale::Laptop => Self::default(),
            Scale::Extended => Self {
                capture_counts: vec![1 << 13, 1 << 15, 1 << 17, 1 << 19, 1 << 21],
                trials: 64,
                max_candidates: 1 << 20,
                model: TkipTrafficModel::Empirical { keys: 1 << 22 },
                ..Self::default()
            },
        }
    }
}

/// Per-point aggregate of the simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Number of captures per trial.
    pub captures: u64,
    /// MIC-key recovery rate using the full candidate list.
    pub success_full_list: f64,
    /// MIC-key recovery rate using only the two best candidates.
    pub success_top2: f64,
    /// Median candidate-list position of the first correct-ICV candidate
    /// (over successful trials), `None` when no trial succeeded.
    pub median_position: Option<usize>,
}

/// Runs the Fig. 8 / Fig. 9 simulation and returns both the per-point data and
/// a rendered report. The context seed is mixed into `config.seed`, progress
/// is reported per sweep point, and cancellation is honoured between trials
/// and capture batches.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] on an empty sweep,
/// [`ExperimentError::Cancelled`] when the context is cancelled, and
/// propagates component errors.
pub fn run(
    config: &Fig8Config,
    ctx: &ExperimentContext,
) -> Result<(Vec<Fig8Point>, ExperimentReport), ExperimentError> {
    if config.capture_counts.is_empty() || config.trials == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one capture count and one trial".into(),
        ));
    }
    let seed = ctx.mix_seed(config.seed);
    let first_position = config.payload_len + 1;
    ctx.checkpoint()?;
    let model_span = rc4_obs::Span::enter("fig8.build_model");
    let model = match config.model {
        TkipTrafficModel::Synthetic { relative_bias } => TkipKeystreamModel::synthetic(
            TscClassing::Tsc1,
            first_position,
            wpa_tkip::mpdu::TRAILER_LEN,
            relative_bias,
        ),
        TkipTrafficModel::Empirical { keys } => {
            let positions = first_position + wpa_tkip::mpdu::TRAILER_LEN;
            // Fixed stream count (dataset identity), threads from the
            // context executor — see `experiments::DATASET_STREAMS`.
            let gen_config = rc4_stats::GenerationConfig::with_keys(keys)
                .seed(seed ^ 0xE)
                .workers(DATASET_STREAMS);
            let ds = ctx.load_or_generate(
                rc4_stats::tsc::PerTscDataset::new(
                    rc4_stats::tsc::TscConditioning::Tsc1,
                    positions,
                )?,
                &gen_config,
            )?;
            let mut probs = Vec::with_capacity(256 * wpa_tkip::mpdu::TRAILER_LEN * 256);
            for class in 0..256 {
                for pos in first_position..first_position + wpa_tkip::mpdu::TRAILER_LEN {
                    probs.extend(ds.distribution(class, pos));
                }
            }
            TkipKeystreamModel::from_probabilities(
                TscClassing::Tsc1,
                first_position,
                wpa_tkip::mpdu::TRAILER_LEN,
                probs,
            )?
        }
    };
    drop(model_span);

    let addressing = FrameAddressing {
        dst: [0x00, 0x1f, 0x33, 0x44, 0x55, 0x66],
        src: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        transmitter: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        priority: 0,
    };

    // Monte-Carlo grid: one independent simulation per (point, trial), each
    // seeded from its own RNG stream, fanned out across the executor. The
    // per-trial outcome is (candidate index if an ICV-consistent candidate
    // was found, whether it was the true trailer).
    let trials = config.trials;
    let mut grid = Vec::with_capacity(config.capture_counts.len() * trials);
    for point in 0..config.capture_counts.len() {
        for trial in 0..trials {
            grid.push((point, trial));
        }
    }
    let reporter = ctx.progress("fig8", grid.len() as u64, "trial");
    let trials_span = rc4_obs::Span::enter_with(
        "fig8.trials",
        rc4_obs::kv! {
            "points" => config.capture_counts.len(),
            "trials" => trials,
        },
    );
    let outcomes: Vec<Option<(usize, bool)>> = ctx
        .executor()
        .map(grid, |_, (point, trial)| {
            let captures = config.capture_counts[point];
            let mut rng = StdRng::seed_from_u64(stream_seed(seed, &[point as u64, trial as u64]));
            // A fresh injected packet per trial: random payload, random MIC key.
            let payload: Vec<u8> = (0..config.payload_len).map(|_| rng.gen()).collect();
            let mic_key = MichaelKey {
                l: rng.gen(),
                r: rng.gen(),
            };
            let mut mic_input = Vec::with_capacity(16 + payload.len());
            mic_input.extend_from_slice(&addressing.michael_header());
            mic_input.extend_from_slice(&payload);
            let mic = crypto_prims::michael::michael(mic_key, &mic_input);
            let mut body = payload.clone();
            body.extend_from_slice(&mic);
            let icv = crc32::icv(&body);
            let mut trailer_plain = mic.to_vec();
            trailer_plain.extend_from_slice(&icv);

            // Sample captures: for each packet draw a TSC, then draw the trailer
            // keystream bytes from the model's class distribution and XOR.
            let mut stats = TrailerStatistics::new(256, config.payload_len)?;
            for i in 0..captures {
                if i % 4096 == 0 {
                    ctx.checkpoint()?;
                }
                let tsc = Tsc(i + 1);
                let class = model.class_of(tsc);
                let mut ct = vec![0u8; config.payload_len + wpa_tkip::mpdu::TRAILER_LEN];
                for (idx, slot) in ct
                    .iter_mut()
                    .enumerate()
                    .skip(config.payload_len)
                    .take(wpa_tkip::mpdu::TRAILER_LEN)
                {
                    let pos = idx + 1;
                    let dist = model.distribution(class, pos);
                    let z = sample_index(dist, &mut rng) as u8;
                    *slot = trailer_plain[idx - config.payload_len] ^ z;
                }
                stats.add(class, &ct)?;
            }

            let likelihoods = stats.likelihoods(&model)?;
            let candidates =
                generate_candidates(&likelihoods, config.max_candidates, &Charset::full())?;
            let outcome = find_consistent_candidate(&candidates, &payload)
                .map(|(index, trailer)| (index, trailer[..] == trailer_plain[..]));
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome)
        })
        .map_err(ExperimentError::from)?;
    drop(trials_span);

    let mut points = Vec::with_capacity(config.capture_counts.len());
    for (point, &captures) in config.capture_counts.iter().enumerate() {
        let mut success_full = 0usize;
        let mut success_top2 = 0usize;
        let mut positions: Vec<usize> = Vec::new();
        for (index, is_true_trailer) in outcomes[point * trials..(point + 1) * trials]
            .iter()
            .flatten()
        {
            positions.push(*index);
            if *is_true_trailer {
                success_full += 1;
                if *index < 2 {
                    success_top2 += 1;
                }
            }
        }
        positions.sort_unstable();
        let median = if positions.is_empty() {
            None
        } else {
            Some(positions[positions.len() / 2])
        };
        points.push(Fig8Point {
            captures,
            success_full_list: success_full as f64 / trials as f64,
            success_top2: success_top2 as f64 / trials as f64,
            median_position: median,
        });
    }

    let mut report = ExperimentReport::new(
        "fig8_fig9",
        "TKIP MIC-key recovery success rate and median ICV-candidate position",
        &[
            "captures",
            "success (candidate list)",
            "success (2 candidates)",
            "median position (fig 9)",
        ],
    );
    report.note(format!(
        "{} trials per point, candidate budget {} (paper: 256 trials, ~2^30 candidates)",
        config.trials, config.max_candidates
    ));
    match config.model {
        TkipTrafficModel::Synthetic { relative_bias } => report.note(format!(
            "synthetic per-TSC1 keystream model, relative bias {relative_bias} (see DESIGN.md substitution #2)"
        )),
        TkipTrafficModel::Empirical { keys } => report.note(format!(
            "empirical per-TSC1 keystream model from {keys} TKIP-structured keys"
        )),
    }
    for p in &points {
        report.push_row(&[
            p.captures.to_string(),
            format_percent(p.success_full_list),
            format_percent(p.success_top2),
            p.median_position
                .map(|m| m.to_string())
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    Ok((points, report))
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the Fig. 8 / Fig. 9 TKIP MIC-key recovery
    /// simulation (the report covers both figures, so the registry also exposes
    /// this experiment under the `fig9` alias).
    Fig8Experiment,
    Fig8Config,
    "fig8",
    "TKIP MIC-key recovery success rate and candidate position (Fig. 8/9)",
    |config, ctx| run(config, ctx).map(|(_, report)| report)
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{config_to_value, Experiment};

    #[test]
    fn validation() {
        let bad = Fig8Config {
            capture_counts: vec![],
            ..Fig8Config::quick()
        };
        assert!(run(&bad, &ExperimentContext::default()).is_err());
    }

    #[test]
    fn traffic_model_and_config_serde_roundtrip() {
        for model in [
            TkipTrafficModel::Synthetic {
                relative_bias: 0.25,
            },
            TkipTrafficModel::Empirical { keys: 1 << 20 },
        ] {
            let json = serde_json::to_string(&model).unwrap();
            let back: TkipTrafficModel = serde_json::from_str(&json).unwrap();
            assert_eq!(back, model);
        }
        assert!(serde_json::from_str::<TkipTrafficModel>("{\"kind\":\"psychic\"}").is_err());

        let config = Fig8Config::for_scale(Scale::Extended);
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig8Config = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn trait_run_matches_free_function_and_cancels() {
        let config = Fig8Config {
            capture_counts: vec![1 << 9],
            trials: 2,
            max_candidates: 256,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.9 },
            ..Fig8Config::quick()
        };
        let mut exp = Fig8Experiment::new();
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
    fn empirical_model_cached_run_is_byte_identical_to_fresh() {
        let config = Fig8Config {
            capture_counts: vec![1 << 8],
            trials: 1,
            max_candidates: 64,
            model: TkipTrafficModel::Empirical { keys: 2_000 },
            ..Fig8Config::quick()
        };
        let (fresh_points, fresh) = run(&config, &ExperimentContext::default()).unwrap();
        assert_eq!(fresh_points.len(), 1);

        let dir = std::env::temp_dir().join(format!("fig8-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let ctx = ExperimentContext::default().with_cache_dir(&dir).unwrap();
        let (_, miss) = run(&config, &ctx).unwrap();
        let (_, hit) = run(&config, &ctx).unwrap();
        assert_eq!(miss, fresh, "cache-miss run must match the uncached run");
        assert_eq!(hit, fresh, "cache-hit run must match the uncached run");
        // Exactly one per-TSC dataset landed in the cache.
        let entries: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(entries.len(), 1, "cache dir: {entries:?}");
        assert!(entries[0].starts_with("per-tsc-"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn success_improves_with_captures_and_candidate_list_beats_top2() {
        let config = Fig8Config {
            capture_counts: vec![1 << 9, 1 << 13],
            trials: 6,
            max_candidates: 1 << 10,
            model: TkipTrafficModel::Synthetic { relative_bias: 0.9 },
            payload_len: 55,
            seed: 42,
        };
        let (points, report) = run(&config, &ExperimentContext::default()).unwrap();
        assert_eq!(points.len(), 2);
        // More captures must not reduce the success rate (monotone in expectation;
        // with few trials allow equality).
        assert!(points[1].success_full_list >= points[0].success_full_list);
        // The full candidate list can only do at least as well as the top-2 rule.
        for p in &points {
            assert!(p.success_full_list >= p.success_top2);
        }
        // At the larger capture count with a strong synthetic bias the attack succeeds.
        assert!(
            points[1].success_full_list > 0.5,
            "full-list success too low: {:?}\n{}",
            points[1],
            report.render()
        );
    }
}
