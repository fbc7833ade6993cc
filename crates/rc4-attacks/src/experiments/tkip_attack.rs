//! The `tkip-attack` experiment: the Section-5 WPA-TKIP attack end to end,
//! promoted from the `wpa_tkip_attack` example into a registered experiment
//! so the full paper pipeline is reachable from the registry.
//!
//! One run walks the complete attack story:
//!
//! 1. build the injected TCP packet (LLC/SNAP + IPv4 + TCP + 7-byte payload,
//!    placing the MIC/ICV trailer in the strongly biased keystream region),
//! 2. round-trip it through real TKIP encapsulation (per-packet key mixing,
//!    Michael, ICV) on a software network,
//! 3. sniff encrypted copies with the injection/capture simulator, and
//! 4. run the statistical MIC-key recovery — per-TSC trailer statistics →
//!    likelihoods → Algorithm-1 candidates → ICV pruning → Michael
//!    inversion — over several trials, then forge a packet with each
//!    recovered key and check the receiver accepts it.
//!
//! The keystream model for the recovery trials is the synthetic per-TSC model
//! (DESIGN.md substitution #2) so laptop runs finish in seconds; its bias
//! strength and the capture budget are the main scale knobs.

use rand::{rngs::StdRng, Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crypto_prims::{crc32, michael::MichaelKey};
use wpa_tkip::{
    attack::{recover_mic_key, AttackConfig, TrailerStatistics},
    injection::{InjectionConfig, InjectionSimulator},
    model::{TkipKeystreamModel, TscClassing},
    mpdu::{decapsulate, encapsulate, FrameAddressing, TRAILER_LEN},
    net::{build_tcp_msdu, Ipv4Header, TcpHeader},
    Tsc,
};

use crate::{
    context::ExperimentContext,
    experiments::Scale,
    report::{format_percent, ExperimentReport},
    sampling::{sample_index, stream_seed},
    ExperimentError,
};

/// Configuration of the end-to-end TKIP attack experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TkipAttackConfig {
    /// Encrypted copies captured per recovery trial (the live attack gathers
    /// `~9.5 x 2^20`).
    pub captures: u64,
    /// Number of independent recovery trials (fresh MIC key each).
    pub trials: usize,
    /// Candidate-list budget for the MIC/ICV search (the paper uses `~2^30`).
    pub max_candidates: usize,
    /// Relative bias of the synthetic per-TSC keystream model.
    pub relative_bias: f64,
    /// Captures taken from the real-RC4 injection simulator in the
    /// capture-pipeline stage (exercises encapsulation + sniffing, not the
    /// statistics).
    pub injection_captures: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for TkipAttackConfig {
    fn default() -> Self {
        TkipAttackConfig::for_scale(Scale::Laptop)
    }
}

impl TkipAttackConfig {
    /// The preset for a [`Scale`].
    pub fn for_scale(scale: Scale) -> Self {
        match scale {
            // A strong synthetic bias keeps quick runs reliable with few
            // captures (the same trade the wpa-tkip genie test makes).
            Scale::Quick => Self {
                captures: 5_000,
                trials: 3,
                max_candidates: 1 << 10,
                relative_bias: 4.0,
                injection_captures: 256,
                seed: 0x7C1B,
            },
            Scale::Laptop => Self {
                captures: 1 << 14,
                trials: 8,
                max_candidates: 1 << 14,
                relative_bias: 1.0,
                injection_captures: 2_000,
                seed: 0x7C1B,
            },
            Scale::Extended => Self {
                captures: 1 << 17,
                trials: 16,
                max_candidates: 1 << 18,
                relative_bias: 0.3,
                injection_captures: 10_000,
                seed: 0x7C1B,
            },
        }
    }
}

/// The fixed frame addressing of the software network.
fn addressing() -> FrameAddressing {
    FrameAddressing {
        dst: [0x00, 0x1f, 0x33, 0x44, 0x55, 0x66],
        src: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        transmitter: [0x00, 0x1f, 0x33, 0x77, 0x88, 0x99],
        priority: 0,
    }
}

/// The injected packet of Sect. 5.2: a TCP segment with a 7-byte payload,
/// chosen so the MSDU is 55 bytes and the trailer sits at positions 56..=67.
fn injected_msdu() -> Vec<u8> {
    let ip = Ipv4Header::tcp([192, 168, 1, 7], [203, 0, 113, 10], 7, 64);
    let tcp = TcpHeader {
        src_port: 52311,
        dst_port: 80,
        seq: 0x1000_0000,
        ack: 0x2000_0000,
        flags: 0x18,
        window: 29200,
    };
    build_tcp_msdu(&ip, &tcp, b"ATTACK!")
}

/// Runs the end-to-end attack and returns the report.
///
/// # Errors
///
/// Returns [`ExperimentError::InvalidConfig`] for degenerate configurations,
/// [`ExperimentError::Cancelled`] when the context flag is raised, and
/// propagates component errors.
pub fn run(
    config: &TkipAttackConfig,
    ctx: &ExperimentContext,
) -> Result<ExperimentReport, ExperimentError> {
    if config.captures == 0 || config.trials == 0 || config.max_candidates == 0 {
        return Err(ExperimentError::InvalidConfig(
            "captures, trials and max_candidates must all be > 0".into(),
        ));
    }
    let seed = ctx.mix_seed(config.seed);
    let addressing = addressing();
    let msdu = injected_msdu();

    let mut report = ExperimentReport::new(
        "tkip-attack",
        "End-to-end WPA-TKIP MIC-key recovery and packet forgery (Sect. 5)",
        &["stage", "metric", "value"],
    );
    report.note(format!(
        "{} captures x {} trials, candidate budget {}, synthetic per-TSC model bias {} \
         (live attack: ~9.5 x 2^20 captures, ~2^30 candidates)",
        config.captures, config.trials, config.max_candidates, config.relative_bias
    ));

    // Stage 1: the injected packet and where its trailer lands.
    ctx.checkpoint()?;
    report.push_row(&[
        "injected packet".to_string(),
        "MSDU bytes / trailer keystream positions".to_string(),
        format!("{} / {}..{}", msdu.len(), msdu.len() + 1, msdu.len() + 12),
    ]);

    // Stage 2: real TKIP encapsulation round-trip on the software network.
    let tk = [0xA5u8; 16];
    let network_mic_key = MichaelKey {
        l: 0x1234_5678,
        r: 0x9ABC_DEF0,
    };
    let mpdu = encapsulate(&tk, network_mic_key, &addressing, Tsc(1), &msdu);
    let round_trip = decapsulate(&tk, network_mic_key, &addressing, &mpdu)
        .map(|plain| plain == msdu)
        .unwrap_or(false);
    report.push_row(&[
        "encapsulation".to_string(),
        "encapsulate/decapsulate round-trip".to_string(),
        if round_trip { "ok" } else { "FAILED" }.to_string(),
    ]);

    // Stage 3: injection/capture pipeline over real RC4.
    ctx.checkpoint()?;
    let mut sim = InjectionSimulator::new(
        tk,
        network_mic_key,
        addressing,
        msdu.clone(),
        InjectionConfig {
            seed,
            ..InjectionConfig::default()
        },
    )
    .map_err(ExperimentError::from)?;
    let captured = sim.capture(config.injection_captures);
    report.push_row(&[
        "capture".to_string(),
        "unique encrypted copies (real RC4)".to_string(),
        captured.len().to_string(),
    ]);
    report.push_row(&[
        "capture".to_string(),
        "hours for 9.5 x 2^20 captures at 2500 pkt/s".to_string(),
        format!(
            "{:.1}",
            sim.seconds_for((9.5 * (1u64 << 20) as f64) as u64) / 3600.0
        ),
    ]);

    // Stage 4: statistical MIC-key recovery trials against the synthetic
    // per-TSC keystream model, plus forgery with every recovered key.
    let model = TkipKeystreamModel::synthetic(
        TscClassing::Tsc1,
        msdu.len() + 1,
        TRAILER_LEN,
        config.relative_bias,
    );
    // Monte-Carlo recovery trials: each trial is an independent simulation
    // (fresh MIC key, fresh captures) seeded from its own RNG stream, fanned
    // out across the executor. The per-trial outcome is the candidate index
    // when the key was recovered, plus whether the forged packet was
    // accepted.
    let reporter = ctx.progress("tkip-attack", config.trials as u64, "trial");
    let outcomes: Vec<Option<(usize, bool)>> = ctx
        .executor()
        .map((0..config.trials).collect(), |_, trial| {
            let mut rng = StdRng::seed_from_u64(stream_seed(seed ^ 0xA77A, &[trial as u64]));
            let mic_key = MichaelKey {
                l: rng.gen(),
                r: rng.gen(),
            };
            // True trailer for the injected packet under this trial's MIC key.
            let mut mic_input = Vec::with_capacity(16 + msdu.len());
            mic_input.extend_from_slice(&addressing.michael_header());
            mic_input.extend_from_slice(&msdu);
            let mic = crypto_prims::michael::michael(mic_key, &mic_input);
            let mut body = msdu.clone();
            body.extend_from_slice(&mic);
            let icv = crc32::icv(&body);
            let mut trailer_plain = mic.to_vec();
            trailer_plain.extend_from_slice(&icv);

            // Sample captures from the model's per-class distributions.
            let mut stats =
                TrailerStatistics::new(256, msdu.len()).map_err(ExperimentError::from)?;
            for i in 0..config.captures {
                if i % 4096 == 0 {
                    ctx.checkpoint()?;
                }
                let tsc = Tsc(i + 1);
                let class = model.class_of(tsc);
                let mut ct = vec![0u8; msdu.len() + TRAILER_LEN];
                for (idx, slot) in ct.iter_mut().enumerate().skip(msdu.len()).take(TRAILER_LEN) {
                    let dist = model.distribution(class, idx + 1);
                    let z = sample_index(dist, &mut rng) as u8;
                    *slot = trailer_plain[idx - msdu.len()] ^ z;
                }
                stats.add(class, &ct).map_err(ExperimentError::from)?;
            }

            let attack_config = AttackConfig {
                max_candidates: config.max_candidates,
            };
            let mut outcome_cell = None;
            if let Ok(outcome) = recover_mic_key(&stats, &model, &msdu, &addressing, &attack_config)
            {
                if outcome.mic_key == mic_key {
                    // With the recovered key the attacker forges a new packet
                    // the receiver accepts (the Sect.-5 end state).
                    let forged_msdu = b"FORGED-BY-MIC-KEY".to_vec();
                    let forged = encapsulate(
                        &tk,
                        outcome.mic_key,
                        &addressing,
                        Tsc(0xFFFF + trial as u64),
                        &forged_msdu,
                    );
                    let accepted = decapsulate(&tk, mic_key, &addressing, &forged)
                        .map(|plain| plain == forged_msdu)
                        .unwrap_or(false);
                    outcome_cell = Some((outcome.candidate_index, accepted));
                }
            }
            reporter.tick(1);
            Ok::<_, ExperimentError>(outcome_cell)
        })
        .map_err(ExperimentError::from)?;

    let recovered = outcomes.iter().flatten().count();
    let forged_accepted = outcomes.iter().flatten().filter(|&&(_, f)| f).count();
    let mut candidate_indices: Vec<usize> =
        outcomes.iter().flatten().map(|&(index, _)| index).collect();
    candidate_indices.sort_unstable();
    report.push_row(&[
        "mic-key recovery".to_string(),
        "MIC keys recovered".to_string(),
        format_percent(recovered as f64 / config.trials as f64),
    ]);
    report.push_row(&[
        "mic-key recovery".to_string(),
        "median candidate index (fig 9 quantity)".to_string(),
        candidate_indices
            .get(candidate_indices.len() / 2)
            .map(|m| m.to_string())
            .unwrap_or_else(|| "-".to_string()),
    ]);
    report.push_row(&[
        "forgery".to_string(),
        "forged packets accepted by the receiver".to_string(),
        format_percent(forged_accepted as f64 / config.trials as f64),
    ]);
    Ok(report)
}

experiment_carrier!(
    /// [`crate::Experiment`] carrier for the end-to-end TKIP attack.
    TkipAttackExperiment,
    TkipAttackConfig,
    "tkip-attack",
    "End-to-end WPA-TKIP attack: inject, capture, recover the MIC key, forge (Sect. 5)",
    run
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;

    #[test]
    fn validation_and_config_roundtrip() {
        let bad = TkipAttackConfig {
            trials: 0,
            ..TkipAttackConfig::for_scale(Scale::Quick)
        };
        assert!(run(&bad, &ExperimentContext::default()).is_err());

        let config = TkipAttackConfig::for_scale(Scale::Quick);
        let json = serde_json::to_string(&config).unwrap();
        let back: TkipAttackConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(back, config);
    }

    #[test]
    fn quick_run_recovers_mic_keys_and_forges() {
        let mut exp = TkipAttackExperiment::new();
        exp.apply_scale(Scale::Quick);
        let report = exp.run(&ExperimentContext::default()).unwrap();
        assert_eq!(report.id, "tkip-attack");
        let cell = |stage: &str, metric_contains: &str| {
            report
                .rows
                .iter()
                .find(|r| r.cells[0] == stage && r.cells[1].contains(metric_contains))
                .map(|r| r.cells[2].clone())
                .unwrap_or_else(|| panic!("missing row {stage}/{metric_contains}"))
        };
        assert_eq!(cell("encapsulation", "round-trip"), "ok");
        // With the strong quick-scale synthetic bias every trial must recover
        // the MIC key and every recovered key must forge successfully.
        assert_eq!(cell("mic-key recovery", "MIC keys recovered"), "100.0%");
        assert_eq!(cell("forgery", "accepted"), "100.0%");
    }

    #[test]
    fn cancellation_aborts() {
        let handle = crate::context::CancelHandle::new();
        handle.cancel();
        let ctx = ExperimentContext::default().with_cancel(handle);
        let mut exp = TkipAttackExperiment::new();
        exp.apply_scale(Scale::Quick);
        assert_eq!(exp.run(&ctx), Err(ExperimentError::Cancelled));
    }
}
