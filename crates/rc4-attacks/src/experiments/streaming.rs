//! Streaming ingestion with sequential early stopping (ROADMAP item 4).
//!
//! The fixed-grid experiments (`fig7`, `fig10`, `tls-cookie`) answer "does
//! the attack succeed at `n` ciphertexts" for a sweep of `n`. Production
//! traffic arrives continuously, so the operational question is the
//! converse: **how many ciphertexts did *this* session actually need?**
//!
//! The streaming variants in this module ingest ciphertext copies batch by
//! batch from the same simulated generators (and, for `tls-cookie-stream`,
//! the same capture session) the fixed-grid drivers use, add each batch into
//! the running count tables, and re-score the candidate ranking after every
//! batch. `StopRule::run` is the one loop all three share: it sizes each
//! batch, hands it to the attack's step, and stops at the first batch whose
//! top-candidate likelihood margin over the runner-up reaches the configured
//! confidence threshold; a stream that never reaches it runs to the
//! configured cap and reports "no decision". The headline metric is
//! ciphertexts consumed at stop.
//!
//! Re-scoring the *accumulated* table per batch is statistically faithful
//! and cheap: the log-likelihoods are linear in the counts, sums of the
//! per-batch normal draws are again normal with the right aggregate mean,
//! and the sparse scoring cost is independent of the count magnitudes.
//!
//! Determinism: every trial draws from its own RNG stream
//! (`stream_seed(base, &[trial])`), ingests its batches sequentially within
//! the trial, and the trials fan out across the context's executor — so the
//! full report is byte-identical for any `--workers` count, extending the
//! PR-5 determinism contract to streaming mode.

use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

use plaintext_recovery::charset::Charset;
use tls_rc4::attack::candidate_margin;

use rc4_biases::fm::fm_joint_distribution;

use crate::{
    context::ExperimentContext,
    experiments::{
        tls_cookie::CookieSession,
        trial::{fm_cells, CookieShape, CookieTrial, PairTrial},
        Scale,
    },
    report::ExperimentReport,
    sampling::stream_seed,
    ExperimentError,
};

/// The early-stopping rule shared by every streaming experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StopRule {
    /// Confidence threshold on the top-candidate log-likelihood margin over
    /// the runner-up, in nats. The attack stops at the first batch whose
    /// margin reaches it.
    pub threshold: f64,
    /// Units (ciphertexts, requests, captures) ingested per batch; the
    /// ranking is re-scored after every batch.
    pub batch: u64,
    /// Hard cap on units consumed. Reaching it without a decision ends the
    /// trial with an explicit "no decision" outcome.
    pub cap: u64,
}

impl StopRule {
    /// Validates the rule.
    ///
    /// # Errors
    ///
    /// Returns [`ExperimentError::InvalidConfig`] for a zero batch, a cap
    /// smaller than one batch, or a non-positive/non-finite threshold (a
    /// non-positive one would decide on the flat, all-tied ranking before
    /// any evidence arrived).
    pub fn test(&self) -> Result<(), ExperimentError> {
        if self.batch == 0 {
            return Err(ExperimentError::InvalidConfig(
                "streaming batch size must be > 0".into(),
            ));
        }
        if self.cap < self.batch {
            return Err(ExperimentError::InvalidConfig(format!(
                "streaming cap ({}) must be at least one batch ({})",
                self.cap, self.batch
            )));
        }
        if !self.threshold.is_finite() || self.threshold <= 0.0 {
            return Err(ExperimentError::InvalidConfig(format!(
                "confidence threshold must be finite and > 0, got {}",
                self.threshold
            )));
        }
        Ok(())
    }

    /// The streaming loop: hands `step` batches of `min(batch, cap −
    /// consumed)` units until the margin `step` returns reaches the
    /// threshold or the cap is consumed. `step(n)` ingests `n` more units,
    /// re-scores and returns the top candidate's margin over the runner-up
    /// and whether the top candidate is the truth. A NaN margin never
    /// decides.
    fn run(
        &self,
        ctx: &ExperimentContext,
        mut step: impl FnMut(u64) -> Result<(f64, bool), ExperimentError>,
    ) -> Result<StreamOutcome, ExperimentError> {
        self.test()?;
        let mut outcome = StreamOutcome::default();
        while !outcome.decided && outcome.consumed < self.cap {
            // A trial spans many batches; polling per batch lets a raised
            // flag interrupt the stream promptly, not at the next trial.
            ctx.checkpoint()?;
            let batch = self.batch.min(self.cap - outcome.consumed);
            let (margin, correct) = step(batch)?;
            outcome = StreamOutcome {
                consumed: outcome.consumed + batch,
                decided: margin >= self.threshold,
                margin,
                correct,
            };
        }
        Ok(outcome)
    }
}

/// Outcome of one streaming trial.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct StreamOutcome {
    /// Units consumed when the trial ended (at the decision, or the cap).
    consumed: u64,
    /// Whether the margin reached the threshold before the cap.
    decided: bool,
    /// The margin at the decision (or at the cap, for undecided trials).
    margin: f64,
    /// Whether the top-ranked candidate at stop was the true plaintext.
    correct: bool,
}

/// Formats a unit count as `count (2^x)` for the report tables.
fn format_units(n: u64) -> String {
    format!("{} (2^{:.1})", n, (n as f64).log2())
}

/// Renders the shared per-trial outcome row.
fn outcome_row(trial: usize, outcome: &StreamOutcome, correct_label: &str) -> Vec<String> {
    vec![
        trial.to_string(),
        format_units(outcome.consumed),
        if outcome.decided {
            "early (confident)".to_string()
        } else {
            "cap (no decision)".to_string()
        },
        format!("{:.1}", outcome.margin),
        if outcome.correct {
            correct_label.to_string()
        } else {
            "no".to_string()
        },
    ]
}

/// Appends the headline note — ciphertexts consumed at stop — plus the
/// explicit no-decision accounting.
fn headline_note(report: &mut ExperimentReport, outcomes: &[StreamOutcome], unit: &str, cap: u64) {
    let mut at_stop: Vec<u64> = outcomes
        .iter()
        .filter(|o| o.decided)
        .map(|o| o.consumed)
        .collect();
    at_stop.sort_unstable();
    if at_stop.is_empty() {
        report.note(format!(
            "headline — {unit}s consumed at stop: NO DECISION on any trial; every stream ran to \
             the cap of {} without clearing the confidence threshold",
            format_units(cap)
        ));
    } else {
        let median = at_stop[at_stop.len() / 2];
        report.note(format!(
            "headline — {unit}s consumed at stop: median {} over {}/{} decided trials \
             ({} hit the cap of {} with no decision)",
            format_units(median),
            at_stop.len(),
            outcomes.len(),
            outcomes.len() - at_stop.len(),
            format_units(cap)
        ));
    }
}

// ---------------------------------------------------------------------------
// fig7-stream
// ---------------------------------------------------------------------------

/// Configuration of the streaming two-byte recovery (`fig7 --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig7StreamConfig {
    /// Independent streaming sessions to simulate.
    pub trials: usize,
    /// ABSAB relations combined with the FM biases (as in `fig7`'s combined
    /// strategy).
    pub absab_relations: usize,
    /// Keystream position of the unknown pair (determines the FM cells).
    pub position: u64,
    /// The early-stopping rule (units: ciphertexts).
    pub stop: StopRule,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig7StreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl Fig7StreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            trials: 16,
            absab_relations: 64,
            position: 257,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 30,
                cap: 1 << 35,
            },
            seed: 0x57F7,
        };
        match scale {
            Scale::Quick => Self {
                trials: 4,
                absab_relations: 32,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 31,
                    cap: 1 << 35,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                trials: 64,
                absab_relations: 258,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 30,
                    cap: 1 << 37,
                },
                ..base
            },
        }
    }
}

/// Runs one streaming fig7 session: ingest batches, re-score the accumulated
/// tables, stop at the first confident batch or at the cap.
fn fig7_stream_trial(
    config: &Fig7StreamConfig,
    key_pair_probs: &[f64],
    fm_cells: &[(u8, u8, f64)],
    rng: &mut StdRng,
    ctx: &ExperimentContext,
) -> Result<StreamOutcome, ExperimentError> {
    // FM combined with the ABSAB relations, as in fig7's combined strategy.
    let gaps = (0..config.absab_relations).map(|rel| rel % 128);
    let mut sim = PairTrial::new(Some(key_pair_probs), fm_cells, gaps, rng);
    config.stop.run(ctx, |batch| {
        sim.ingest(batch, rng);
        let combined = sim.score()?;
        Ok((combined.margin(), combined.best() == sim.truth()))
    })
}

/// Runs the streaming fig7 experiment under an explicit context.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_fig7_stream(
    config: &Fig7StreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.trials == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one streaming trial".into(),
        ));
    }
    config.stop.test()?;

    let key_pair_probs = fm_joint_distribution(config.position);
    let fm_cells = fm_cells(config.position);

    // Every trial is an independent streaming session on its own RNG stream,
    // fanned out across the executor: byte-identical for any worker count.
    let base_seed = ctx.mix_seed(config.seed);
    let reporter = ctx.progress("fig7-stream", config.trials as u64, "trial");
    let outcomes: Vec<StreamOutcome> = ctx
        .executor()
        .map((0..config.trials).collect(), |_, trial| {
            ctx.checkpoint()?;
            let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, &[trial as u64]));
            let outcome = fig7_stream_trial(config, &key_pair_probs, &fm_cells, &mut rng, ctx)?;
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome)
        })
        .map_err(ExperimentError::from)?;

    let mut report = ExperimentReport::new(
        "fig7-stream",
        "Streaming two-byte recovery: ciphertexts consumed until confident",
        &[
            "trial",
            "ciphertexts at stop",
            "stopped",
            "margin",
            "correct",
        ],
    );
    headline_note(&mut report, &outcomes, "ciphertext", config.stop.cap);
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} ciphertexts, cap {}; \
         FM + {} ABSAB relations, sampled mode",
        config.stop.threshold,
        format_units(config.stop.batch),
        format_units(config.stop.cap),
        config.absab_relations
    ));
    for (trial, outcome) in outcomes.iter().enumerate() {
        report.push_row(&outcome_row(trial, outcome, "yes"));
    }
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the streaming fig7 variant.
    Fig7StreamExperiment,
    Fig7StreamConfig,
    "fig7-stream",
    "Streaming two-byte recovery with early stopping (fig7 --until-confident)",
    run_fig7_stream
);

// ---------------------------------------------------------------------------
// fig10-stream
// ---------------------------------------------------------------------------

/// Configuration of the streaming cookie recovery (`fig10 --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10StreamConfig {
    /// Independent streaming sessions to simulate.
    pub trials: usize,
    /// Cookie length in bytes.
    pub cookie_len: usize,
    /// Cookie alphabet.
    pub charset: Charset,
    /// Candidate-list budget per re-score.
    pub candidates: usize,
    /// ABSAB relations contributing per transition.
    pub absab_relations: usize,
    /// Keystream position (1-based) of the first cookie byte.
    pub cookie_position: u64,
    /// The early-stopping rule (units: captured requests).
    pub stop: StopRule,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Fig10StreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl Fig10StreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            trials: 8,
            cookie_len: 8,
            charset: Charset::base64(),
            candidates: 1 << 10,
            absab_relations: 24,
            cookie_position: 321,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 28,
                cap: 1 << 33,
            },
            seed: 0x57F10,
        };
        match scale {
            Scale::Quick => Self {
                trials: 2,
                cookie_len: 4,
                candidates: 128,
                absab_relations: 12,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 29,
                    cap: 1 << 33,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                trials: 32,
                cookie_len: 16,
                candidates: 1 << 15,
                absab_relations: 258,
                stop: StopRule {
                    threshold: 10.0,
                    batch: 1 << 28,
                    cap: 1 << 35,
                },
                ..base
            },
        }
    }
}

/// Runs one streaming fig10 session.
fn fig10_stream_trial(
    config: &Fig10StreamConfig,
    transition_probs: &[Vec<f64>],
    rng: &mut StdRng,
    ctx: &ExperimentContext,
) -> Result<StreamOutcome, ExperimentError> {
    let shape = CookieShape {
        cookie_len: config.cookie_len,
        charset: &config.charset,
        candidates: config.candidates,
        absab_relations: config.absab_relations,
        cookie_position: config.cookie_position,
    };
    let mut sim = CookieTrial::new(&shape, transition_probs, rng);
    config.stop.run(ctx, |batch| {
        sim.ingest(batch, rng);
        // Re-score: a fresh list-Viterbi decode of the accumulated tables.
        let candidates = sim.candidates()?;
        let correct = candidates
            .first()
            .is_some_and(|c| c.plaintext == sim.cookie());
        Ok((candidate_margin(&candidates).unwrap_or(0.0), correct))
    })
}

/// Runs the streaming fig10 experiment under an explicit context.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_fig10_stream(
    config: &Fig10StreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.trials == 0 || config.cookie_len == 0 || config.candidates == 0 {
        return Err(ExperimentError::InvalidConfig(
            "need at least one trial, a non-empty cookie and a candidate budget".into(),
        ));
    }
    config.stop.test()?;

    let transition_probs: Vec<Vec<f64>> = (0..=config.cookie_len)
        .map(|t| fm_joint_distribution(config.cookie_position + t as u64))
        .collect();

    let base_seed = ctx.mix_seed(config.seed);
    let reporter = ctx.progress("fig10-stream", config.trials as u64, "trial");
    let outcomes: Vec<StreamOutcome> = ctx
        .executor()
        .map((0..config.trials).collect(), |_, trial| {
            ctx.checkpoint()?;
            let mut rng = StdRng::seed_from_u64(stream_seed(base_seed, &[trial as u64]));
            let outcome = fig10_stream_trial(config, &transition_probs, &mut rng, ctx)?;
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome)
        })
        .map_err(ExperimentError::from)?;

    let mut report = ExperimentReport::new(
        "fig10-stream",
        "Streaming cookie recovery: requests consumed until confident",
        &[
            "trial",
            "requests at stop",
            "stopped",
            "margin",
            "cookie recovered",
        ],
    );
    headline_note(&mut report, &outcomes, "request", config.stop.cap);
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} requests, cap {}; \
         {}-byte cookie over {} characters, {} candidates, {} ABSAB relations, sampled mode",
        config.stop.threshold,
        format_units(config.stop.batch),
        format_units(config.stop.cap),
        config.cookie_len,
        config.charset.len(),
        config.candidates,
        config.absab_relations
    ));
    for (trial, outcome) in outcomes.iter().enumerate() {
        report.push_row(&outcome_row(trial, outcome, "yes"));
    }
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the streaming fig10 variant.
    Fig10StreamExperiment,
    Fig10StreamConfig,
    "fig10-stream",
    "Streaming cookie recovery with early stopping (fig10 --until-confident)",
    run_fig10_stream
);

// ---------------------------------------------------------------------------
// tls-cookie-stream
// ---------------------------------------------------------------------------

/// Configuration of the streaming end-to-end HTTPS cookie attack
/// (`tls-cookie --until-confident`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlsCookieStreamConfig {
    /// The secret cookie value (non-empty, drawn from `charset`).
    pub cookie: String,
    /// Cookie alphabet used for candidate generation.
    pub charset: Charset,
    /// Maximum ABSAB gap exploited.
    pub max_gap: usize,
    /// Candidate-list budget per re-score.
    pub candidates: usize,
    /// The early-stopping rule (units: captured requests).
    pub stop: StopRule,
    /// Base RNG seed for the traffic generator.
    pub seed: u64,
}

impl Default for TlsCookieStreamConfig {
    fn default() -> Self {
        Self::for_scale(Scale::Laptop)
    }
}

impl TlsCookieStreamConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            cookie: "dGhpc2lzc2VjcmV0".to_string(),
            charset: Charset::base64(),
            max_gap: 64,
            candidates: 1 << 12,
            stop: StopRule {
                threshold: 20.0,
                batch: 4096,
                cap: 20_000,
            },
            seed: 0x71C6,
        };
        match scale {
            Scale::Quick => Self {
                max_gap: 32,
                candidates: 256,
                stop: StopRule {
                    threshold: 20.0,
                    batch: 512,
                    cap: 1536,
                },
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                max_gap: 128,
                candidates: 1 << 15,
                stop: StopRule {
                    threshold: 20.0,
                    batch: 16_384,
                    cap: 200_000,
                },
                ..base
            },
        }
    }
}

/// Runs the streaming end-to-end HTTPS cookie attack: real TLS RC4-SHA1
/// captures stream into the incremental
/// [`tls_rc4::attack::CookieStatistics`] table and the ranked candidate list
/// is re-scored after every batch.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run_tls_cookie_stream(
    config: &TlsCookieStreamConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    let mut session = CookieSession::new(
        &config.cookie,
        &config.charset,
        config.max_gap,
        config.candidates,
        config.seed,
        ctx,
    )?;

    let mut report = ExperimentReport::new(
        "tls-cookie-stream",
        "Streaming HTTPS cookie recovery over real TLS RC4-SHA1 traffic",
        &["stage", "metric", "value"],
    );
    report.note(format!(
        "stop rule: top-candidate margin ≥ {} nats, re-scored every {} captures, cap {}; \
         real biases need ~9 x 2^27 captures, so sub-paper-scale runs are expected to \
         end at the cap with no decision",
        config.stop.threshold, config.stop.batch, config.stop.cap
    ));

    // A streaming capture loop has no predetermined length — the whole point
    // is to stop early — so the progress total is "unknown" (0) and every
    // tick goes through the plain rate limiter.
    let reporter = ctx.progress("tls-cookie-stream", 0, "capture");
    let mut candidates = Vec::new();
    let outcome = config.stop.run(ctx, |batch| {
        session.capture(batch as usize)?;
        reporter.tick(batch);
        candidates = session.rank(ctx)?;
        // The report reads recovery off the brute-force rows, not `correct`.
        Ok((candidate_margin(&candidates).unwrap_or(0.0), false))
    })?;

    report.push_row(&[
        "streaming".to_string(),
        "captures consumed at stop".to_string(),
        outcome.consumed.to_string(),
    ]);
    report.push_row(&[
        "streaming".to_string(),
        format!("stop decision (threshold {} nats)", config.stop.threshold),
        if outcome.decided {
            format!("confident (margin {:.1})", outcome.margin)
        } else {
            format!("no decision — cap reached (margin {:.1})", outcome.margin)
        },
    ]);
    report.push_row(&[
        "candidates".to_string(),
        "ranked cookie candidates generated".to_string(),
        candidates.len().to_string(),
    ]);
    session.push_brute_force_rows(&mut report, &candidates, "no");
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the streaming TLS cookie attack.
    TlsCookieStreamExperiment,
    TlsCookieStreamConfig,
    "tls-cookie-stream",
    "Streaming HTTPS cookie attack with early stopping (tls-cookie --until-confident)",
    run_tls_cookie_stream
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;

    fn small_fig7() -> Fig7StreamConfig {
        Fig7StreamConfig {
            trials: 2,
            absab_relations: 8,
            stop: StopRule {
                threshold: 10.0,
                batch: 1 << 28,
                cap: 1 << 30,
            },
            ..Fig7StreamConfig::for_scale(Scale::Quick)
        }
    }

    #[test]
    fn stop_rule_validation() {
        let mut rule = StopRule {
            threshold: 5.0,
            batch: 10,
            cap: 100,
        };
        assert!(rule.test().is_ok());
        rule.batch = 0;
        assert!(rule.test().is_err());
        rule.batch = 200;
        assert!(rule.test().is_err(), "cap smaller than one batch");
        rule.batch = 10;
        rule.threshold = 0.0;
        assert!(rule.test().is_err());
        rule.threshold = f64::INFINITY;
        assert!(rule.test().is_err());
        rule.threshold = f64::NAN;
        assert!(rule.test().is_err());
    }

    #[test]
    fn stop_rule_run_ends_on_a_partial_batch_at_the_cap() {
        // A cap of 2.5 batches: two whole batches, then the half-batch rest.
        let rule = StopRule {
            threshold: 5.0,
            batch: 4,
            cap: 10,
        };
        let mut steps = Vec::new();
        let outcome = rule
            .run(&ExperimentContext::default(), |batch| {
                steps.push(batch);
                Ok((1.0, true))
            })
            .unwrap();
        assert_eq!(steps, [4, 4, 2]);
        assert_eq!(
            outcome,
            StreamOutcome {
                consumed: 10,
                decided: false,
                margin: 1.0,
                correct: true,
            }
        );
    }

    #[test]
    fn stop_rule_run_decides_at_the_first_margin_reaching_the_threshold() {
        // The second margin equals the threshold exactly: the loop decides
        // there and never calls `step` for the third batch.
        let rule = StopRule {
            threshold: 5.0,
            batch: 4,
            cap: 100,
        };
        let margins = [1.0, 5.0, 9.0];
        let mut calls = 0;
        let outcome = rule
            .run(&ExperimentContext::default(), |_| {
                calls += 1;
                Ok((margins[calls - 1], calls == 2))
            })
            .unwrap();
        assert_eq!(calls, 2);
        assert_eq!(
            outcome,
            StreamOutcome {
                consumed: 8,
                decided: true,
                margin: 5.0,
                correct: true,
            }
        );
    }

    #[test]
    fn stop_rule_run_never_decides_on_a_nan_margin() {
        let rule = StopRule {
            threshold: 1e-9,
            batch: 4,
            cap: 12,
        };
        let mut calls = 0;
        let outcome = rule
            .run(&ExperimentContext::default(), |_| {
                calls += 1;
                Ok((f64::NAN, false))
            })
            .unwrap();
        assert_eq!(calls, 3);
        assert_eq!(outcome.consumed, 12);
        assert!(!outcome.decided);
        assert!(outcome.margin.is_nan());
    }

    #[test]
    fn fig7_stream_validation_and_roundtrip() {
        let no_trials = Fig7StreamConfig {
            trials: 0,
            ..small_fig7()
        };
        assert!(run_fig7_stream(&no_trials, &ExperimentContext::default()).is_err());

        let config = Fig7StreamConfig::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: Fig7StreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn fig7_stream_never_clearing_threshold_reports_no_decision() {
        // A threshold no simulated margin can reach: every trial must run to
        // the cap and say so explicitly.
        let config = Fig7StreamConfig {
            stop: StopRule {
                threshold: 1e15,
                batch: 1 << 27,
                cap: 1 << 28,
            },
            ..small_fig7()
        };
        let report = run_fig7_stream(&config, &ExperimentContext::default()).unwrap();
        assert!(report.notes.iter().any(|n| n.contains("NO DECISION")));
        for row in &report.rows {
            assert_eq!(row.cells[1], format_units(1 << 28));
            assert_eq!(row.cells[2], "cap (no decision)");
        }
    }

    #[test]
    fn fig7_stream_tiny_threshold_stops_after_first_batch() {
        // Any non-degenerate ranking clears a near-zero threshold at the
        // first re-score, so every trial stops after exactly one batch.
        let config = Fig7StreamConfig {
            stop: StopRule {
                threshold: 1e-9,
                batch: 1 << 27,
                cap: 1 << 30,
            },
            ..small_fig7()
        };
        let report = run_fig7_stream(&config, &ExperimentContext::default()).unwrap();
        for row in &report.rows {
            assert_eq!(row.cells[1], format_units(1 << 27));
            assert_eq!(row.cells[2], "early (confident)");
        }
        assert!(report.notes.iter().any(|n| n.contains("2/2 decided")));
    }

    #[test]
    fn fig7_stream_is_worker_invariant_and_cancellable() {
        let config = small_fig7();
        let one = run_fig7_stream(&config, &ExperimentContext::default().with_workers(1)).unwrap();
        let four = run_fig7_stream(&config, &ExperimentContext::default().with_workers(4)).unwrap();
        assert_eq!(one, four);

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = Fig7StreamExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }

    #[test]
    fn streaming_trials_poll_cancellation_per_ingest_batch() {
        // The trial functions themselves must observe the flag between ingest
        // batches: with a raised flag a direct trial call may not run to the
        // cap (before the fix it had no cancellation path at all and would).
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);

        let fig7 = small_fig7();
        let mut rng = StdRng::seed_from_u64(1);
        let probs = vec![1.0 / 65536.0; 65536];
        let cells = vec![(0u8, 0u8, rc4_biases::UNIFORM_PAIR * 1.5)];
        assert_eq!(
            fig7_stream_trial(&fig7, &probs, &cells, &mut rng, &ctx),
            Err(ExperimentError::Cancelled)
        );

        let fig10 = Fig10StreamConfig {
            trials: 1,
            cookie_len: 2,
            candidates: 16,
            absab_relations: 2,
            charset: Charset::new(b"0123456789abcdef").unwrap(),
            ..Fig10StreamConfig::for_scale(Scale::Quick)
        };
        let transition_probs = vec![vec![1.0 / 65536.0; 65536]; fig10.cookie_len + 1];
        let mut rng = StdRng::seed_from_u64(2);
        assert_eq!(
            fig10_stream_trial(&fig10, &transition_probs, &mut rng, &ctx),
            Err(ExperimentError::Cancelled)
        );
    }

    #[test]
    fn fig7_stream_cancel_mid_trial_interrupts_between_batches() {
        // One trial, many batches: a cancel raised while the trial is in its
        // ingest loop must abort that trial at the next batch boundary
        // instead of letting it stream to the cap.
        let config = Fig7StreamConfig {
            trials: 1,
            absab_relations: 8,
            stop: StopRule {
                threshold: 1e15, // undecidable: only cancellation can stop early
                batch: 1 << 27,
                cap: 1 << 40, // ~8000 batches; a full run would take hours
            },
            ..Fig7StreamConfig::for_scale(Scale::Quick)
        };
        let handle = crate::context::CancelHandle::new();
        let ctx = ExperimentContext::default().with_cancel(handle.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(50));
            handle.cancel();
        });
        let result = run_fig7_stream(&config, &ctx);
        canceller.join().unwrap();
        assert_eq!(result, Err(ExperimentError::Cancelled));
    }

    #[test]
    fn fig10_stream_runs_and_is_worker_invariant() {
        let config = Fig10StreamConfig {
            trials: 1,
            cookie_len: 3,
            candidates: 32,
            absab_relations: 4,
            charset: Charset::new(b"0123456789abcdef").unwrap(),
            stop: StopRule {
                threshold: 1e15,
                batch: 1 << 28,
                cap: 1 << 29,
            },
            ..Fig10StreamConfig::for_scale(Scale::Quick)
        };
        let one = run_fig10_stream(&config, &ExperimentContext::default().with_workers(1)).unwrap();
        let four =
            run_fig10_stream(&config, &ExperimentContext::default().with_workers(4)).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.rows.len(), 1);
        assert_eq!(one.rows[0].cells[2], "cap (no decision)");

        let json = serde_json::to_string(&config).unwrap();
        let back: Fig10StreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn tls_cookie_stream_hits_cap_without_paper_scale_captures() {
        // Real biases are far too weak at a few hundred captures: the honest
        // outcome is "no decision at the cap", reported clearly.
        let config = TlsCookieStreamConfig {
            candidates: 64,
            stop: StopRule {
                threshold: 1e15,
                batch: 128,
                cap: 384,
            },
            ..TlsCookieStreamConfig::for_scale(Scale::Quick)
        };
        let report = run_tls_cookie_stream(&config, &ExperimentContext::default()).unwrap();
        let consumed = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("consumed"))
            .unwrap();
        assert_eq!(consumed.cells[2], "384");
        let decision = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("stop decision"))
            .unwrap();
        assert!(decision.cells[2].contains("no decision"));

        let json = serde_json::to_string(&config).unwrap();
        let back: TlsCookieStreamConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn tls_cookie_stream_validation_and_cancellation() {
        let empty_cookie = TlsCookieStreamConfig {
            cookie: String::new(),
            ..TlsCookieStreamConfig::for_scale(Scale::Quick)
        };
        assert!(run_tls_cookie_stream(&empty_cookie, &ExperimentContext::default()).is_err());

        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = TlsCookieStreamExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }
}
