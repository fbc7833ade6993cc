//! The `tls-cookie` experiment: the Section-6 HTTPS cookie attack end to
//! end, promoted from the `https_cookie_attack` example into a registered
//! experiment so the full paper pipeline is reachable from the registry.
//!
//! One run drives the real machinery the paper's tool used:
//!
//! 1. build the manipulated request of Listing 3 and align the cookie to a
//!    favourable keystream position,
//! 2. generate victim traffic over real TLS RC4-SHA1 record-layer
//!    connections and capture the encrypted requests,
//! 3. accumulate Fluhrer–McGrew and ABSAB statistics at the cookie
//!    positions, and
//! 4. generate the ranked candidate list (Algorithm 2 over the cookie
//!    alphabet) and brute-force it against an oracle standing in for the web
//!    server.
//!
//! Real RC4 biases need `~9 x 2^27` captures for a reliable hit, so at quick
//! and laptop scales the brute force usually misses — the experiment reports
//! the full pipeline's mechanics (capture rates, candidate ranking, wall-clock
//! budgets) faithfully either way; the Fig. 10 experiment covers the success
//! curves in sampled mode.

use serde::{Deserialize, Serialize};

use plaintext_recovery::{charset::Charset, viterbi::PairCandidate};
use tls_rc4::{
    attack::{
        brute_force_cookie, brute_force_rate_seconds, cookie_candidates_with_exec,
        CookieAttackConfig, CookieStatistics,
    },
    http::RequestTemplate,
    record::MAC_LEN,
    traffic::{TrafficConfig, TrafficGenerator},
};

use crate::{
    context::ExperimentContext, experiments::Scale, report::ExperimentReport, ExperimentError,
};

/// Configuration of the end-to-end HTTPS cookie attack experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlsCookieConfig {
    /// Encrypted requests to capture (the paper needs `~9 x 2^27`).
    pub captures: u64,
    /// The secret cookie value (must be non-empty and drawn from `charset`).
    pub cookie: String,
    /// Cookie alphabet used for candidate generation.
    pub charset: Charset,
    /// Maximum ABSAB gap exploited (the paper uses 128).
    pub max_gap: usize,
    /// Candidate-list budget (the paper brute-forces `2^23`).
    pub candidates: usize,
    /// Base RNG seed for the traffic generator.
    pub seed: u64,
}

impl Default for TlsCookieConfig {
    fn default() -> Self {
        TlsCookieConfig::for_scale(Scale::Laptop)
    }
}

impl TlsCookieConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        let base = Self {
            captures: 20_000,
            cookie: "dGhpc2lzc2VjcmV0".to_string(),
            charset: Charset::base64(),
            max_gap: 64,
            candidates: 1 << 12,
            seed: 0x71C5,
        };
        match scale {
            Scale::Quick => Self {
                captures: 1_500,
                max_gap: 32,
                candidates: 256,
                ..base
            },
            Scale::Laptop => base,
            Scale::Extended => Self {
                captures: 200_000,
                max_gap: 128,
                candidates: 1 << 15,
                ..base
            },
        }
    }
}

/// One capture session of the HTTPS cookie attack, shared by `tls-cookie`
/// and `tls-cookie-stream`: the manipulated request with the cookie
/// aligned, victim traffic over real TLS RC4-SHA1 connections, and the FM +
/// ABSAB statistics the captured requests fold into. Each driver decides how
/// many requests to capture between rankings.
pub(crate) struct CookieSession {
    cookie: Vec<u8>,
    template: RequestTemplate,
    traffic: TrafficGenerator,
    stats: CookieStatistics,
    attack: CookieAttackConfig,
}

impl CookieSession {
    /// Validates the cookie, the alphabet and the candidate budget, and sets
    /// up the template, the traffic (seeded with `ctx.mix_seed(seed)`) and
    /// empty statistics.
    pub(crate) fn new(
        cookie: &str,
        charset: &Charset,
        max_gap: usize,
        candidates: usize,
        seed: u64,
        ctx: &ExperimentContext,
    ) -> Result<Self, ExperimentError> {
        let cookie = cookie.as_bytes().to_vec();
        if cookie.is_empty() || candidates == 0 {
            return Err(ExperimentError::InvalidConfig(
                "candidates and the cookie must be non-empty".into(),
            ));
        }
        if !charset.accepts(&cookie) {
            return Err(ExperimentError::InvalidConfig(
                "the cookie contains bytes outside the configured charset".into(),
            ));
        }
        let mut template = RequestTemplate::new("site.com", "auth", cookie.len());
        template.align_cookie(0, 0, MAC_LEN);
        let traffic = TrafficGenerator::new(
            template.clone(),
            cookie.clone(),
            TrafficConfig {
                seed: ctx.mix_seed(seed),
                ..TrafficConfig::default()
            },
        )?;
        let stats = CookieStatistics::new(&template, max_gap)?;
        Ok(Self {
            cookie,
            template,
            traffic,
            stats,
            attack: CookieAttackConfig {
                max_gap,
                candidates,
                charset: charset.clone(),
                use_fm: true,
                use_absab: true,
            },
        })
    }

    /// Captures `n` more encrypted requests and folds each into the
    /// statistics.
    pub(crate) fn capture(&mut self, n: usize) -> Result<(), ExperimentError> {
        let _span = rc4_obs::Span::enter_with("tls.capture", rc4_obs::kv! { "requests" => n });
        for capture in self.traffic.capture(n)? {
            self.stats.add(&capture)?;
        }
        Ok(())
    }

    /// Ranks cookie candidates from the statistics so far: likelihood tables
    /// and the list-Viterbi decode fan out across the context's executor
    /// (identical output for any worker count).
    pub(crate) fn rank(
        &self,
        ctx: &ExperimentContext,
    ) -> Result<Vec<PairCandidate>, ExperimentError> {
        let _span = rc4_obs::Span::enter("tls.score");
        let candidates = cookie_candidates_with_exec(&self.stats, &self.attack, &ctx.executor())?;
        Ok(candidates)
    }

    /// Brute-forces `candidates` against an oracle standing in for the web
    /// server and appends the two brute-force rows; `miss` is the
    /// "cookie recovered" value when no candidate matches.
    pub(crate) fn push_brute_force_rows(
        &self,
        report: &mut ExperimentReport,
        candidates: &[PairCandidate],
        miss: &str,
    ) {
        let outcome = brute_force_cookie(candidates, |guess| guess == self.cookie.as_slice());
        report.push_row(&[
            "brute force".to_string(),
            "cookie recovered".to_string(),
            if outcome.cookie.is_some() {
                "yes"
            } else {
                miss
            }
            .to_string(),
        ]);
        report.push_row(&[
            "brute force".to_string(),
            "attempts / candidate rank".to_string(),
            format!(
                "{} / {}",
                outcome.attempts,
                outcome
                    .candidate_index
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".to_string())
            ),
        ]);
    }
}

/// Runs the end-to-end attack and returns the report.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations
/// (empty cookie, cookie outside the charset, zero captures),
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run(
    config: &TlsCookieConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.captures == 0 {
        return Err(ExperimentError::InvalidConfig(
            "captures must be non-zero".into(),
        ));
    }
    let mut session = CookieSession::new(
        &config.cookie,
        &config.charset,
        config.max_gap,
        config.candidates,
        config.seed,
        ctx,
    )?;

    let mut report = ExperimentReport::new(
        "tls-cookie",
        "End-to-end HTTPS cookie recovery over real TLS RC4-SHA1 traffic (Sect. 6)",
        &["stage", "metric", "value"],
    );
    report.note(format!(
        "{} captures, {}-byte cookie over a {}-character alphabet, {} candidates, max ABSAB gap {} \
         (paper: 9 x 2^27 captures, 2^23 candidates, gap 128)",
        config.captures,
        session.cookie.len(),
        config.charset.len(),
        config.candidates,
        config.max_gap
    ));

    // Stage 1: the manipulated request with the cookie aligned.
    ctx.checkpoint()?;
    let template = &session.template;
    report.push_row(&[
        "request".to_string(),
        "bytes (known prefix / secret / known suffix)".to_string(),
        format!(
            "{} ({} / {} / {})",
            template.request_len(),
            template.cookie_offset(),
            session.cookie.len(),
            template.known_suffix().len()
        ),
    ]);

    // Stage 2: victim traffic, captured in batches so cancellation lands
    // between batches. The traffic generator is stateful (persistent
    // connections), so capture stays sequential; per-batch progress goes
    // through the throttled reporter so a multi-million-capture run cannot
    // flood the sink.
    let reporter = ctx.progress("tls-cookie", config.captures, "capture");
    let mut captured = 0u64;
    while captured < config.captures {
        ctx.checkpoint()?;
        let batch = (config.captures - captured).min(1024);
        session.capture(batch as usize)?;
        captured += batch;
        reporter.tick(batch);
    }
    report.push_row(&[
        "traffic".to_string(),
        "encrypted requests captured".to_string(),
        session.stats.requests().to_string(),
    ]);
    report.push_row(&[
        "traffic".to_string(),
        "hours for 9 x 2^27 requests at 4450 req/s".to_string(),
        format!("{:.0}", session.traffic.hours_for(9 * (1u64 << 27))),
    ]);

    // Stage 3 + 4: FM + ABSAB statistics -> Algorithm 2 candidate list ->
    // brute force against the oracle.
    ctx.checkpoint()?;
    let candidates = session.rank(ctx)?;
    report.push_row(&[
        "candidates".to_string(),
        "ranked cookie candidates generated".to_string(),
        candidates.len().to_string(),
    ]);
    report.push_row(&[
        "candidates".to_string(),
        "minutes to brute-force 2^23 at 20000 req/s".to_string(),
        format!("{:.1}", brute_force_rate_seconds(1 << 23, 20_000) / 60.0),
    ]);
    session.push_brute_force_rows(
        &mut report,
        &candidates,
        "no (expected below ~2^30 captures; see fig10 for the success curve)",
    );
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the end-to-end HTTPS cookie attack.
    TlsCookieExperiment,
    TlsCookieConfig,
    "tls-cookie",
    "End-to-end HTTPS cookie attack over real TLS RC4-SHA1 traffic (Sect. 6)",
    run
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{config_to_value, Experiment};

    #[test]
    fn validation_and_config_roundtrip() {
        let empty_cookie = TlsCookieConfig {
            cookie: String::new(),
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        assert!(run(&empty_cookie, &ExperimentContext::default()).is_err());
        let outside_charset = TlsCookieConfig {
            cookie: "white space".into(),
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        assert!(run(&outside_charset, &ExperimentContext::default()).is_err());

        let config = TlsCookieConfig::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: TlsCookieConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn quick_run_reports_the_full_pipeline() {
        let mut exp = TlsCookieExperiment::new();
        exp.apply_scale(Scale::Quick);
        let config = TlsCookieConfig {
            captures: 400,
            candidates: 64,
            ..TlsCookieConfig::for_scale(Scale::Quick)
        };
        exp.set_config_value(&config_to_value(&config)).unwrap();
        let report = exp.run(&ExperimentContext::default()).unwrap();
        assert_eq!(report.id, "tls-cookie");
        let captured = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("captured"))
            .unwrap();
        assert_eq!(captured.cells[2], "400");
        let generated = report
            .rows
            .iter()
            .find(|r| r.cells[1].contains("generated"))
            .unwrap();
        assert_eq!(generated.cells[2], "64");
    }

    #[test]
    fn cancellation_aborts() {
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = TlsCookieExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }
}
