//! `recovery`: fig7, fig10, fig7-stream and fig10-stream in sampled mode
//! with the analytic source, through `Experiment::run_observed` at
//! [`WORKERS`] workers.
//!
//! Monte-Carlo count sampling (`rc4_attacks::sampling`) and likelihood
//! scoring (`plaintext-recovery`) do nearly all the work and no keystream is
//! generated, so a sampler or scorer gain shows here and a keystream gain
//! predicts no change.

use std::path::Path;

use rand::{rngs::StdRng, SeedableRng};
use serde::Value;

use plaintext_recovery::{
    candidates::generate_candidates,
    charset::Charset,
    likelihood::{PairLikelihoods, SingleLikelihoods},
    viterbi::{list_viterbi, ViterbiConfig},
};
use rc4_attacks::{
    experiments::Scale, sampling::sample_counts_normal, Experiment, ExperimentContext,
    ExperimentReport, Registry,
};
use rc4_biases::{distributions::PairDistribution, fm::fm_biases_at, UNIFORM_PAIR};

use crate::measure::{mix, timed, ObsDelta, Trace};
use crate::{Item, Layers, Pass, Workload, WORKERS};

/// The work list, each at its unmodified quick-scale preset.
const EXPERIMENTS: &[&str] = &["fig7", "fig10", "fig7-stream", "fig10-stream"];

struct Entry {
    experiment: Box<dyn Experiment>,
    /// The `--json` document of a one-worker run of the same seed.
    reference: String,
    trials: u64,
    streaming: bool,
}

pub struct Recovery {
    ctx: ExperimentContext,
    entries: Vec<Entry>,
    /// Streaming trials decided before the cap, and streaming trials run,
    /// over the traced passes.
    decided: (u64, u64),
}

/// Exactly the bytes `repro run <name> --json` prints.
pub fn json_document(report: &ExperimentReport) -> String {
    format!(
        "{}\n",
        serde_json::to_string_pretty(&vec![report.clone()]).expect("reports serialize")
    )
}

/// Monte-Carlo trials in one run of an experiment with this config.
fn trial_count(config: &Value) -> u64 {
    let uint = |name: &str| match config.field(name) {
        Ok(Value::UInt(n)) => *n,
        Ok(Value::UIntArray(items)) => items.len() as u64,
        _ => 1,
    };
    let trials = uint("trials");
    if config.field("ciphertext_counts").is_ok() {
        // fig7: every (point, strategy, trial) cell of the grid.
        uint("ciphertext_counts") * 3 * trials
    } else if config.field("request_counts").is_ok() {
        uint("request_counts") * trials
    } else {
        trials
    }
}

impl Workload for Recovery {
    const WORK_UNIT: &'static str = "trials_per_s";

    fn setup(seed: u64, _dir: &Path) -> Result<Self, String> {
        let registry = Registry::with_defaults();
        let seed = mix(seed, 0x7EC0);
        let reference_ctx = ExperimentContext::new().with_seed(seed).with_workers(1);
        let entries = EXPERIMENTS
            .iter()
            .map(|&name| {
                let mut experiment = registry.create(name).map_err(|e| e.to_string())?;
                experiment.apply_scale(Scale::Quick);
                let report = experiment
                    .run_observed(&reference_ctx)
                    .map_err(|e| format!("{name} reference run: {e}"))?;
                Ok(Entry {
                    trials: trial_count(&experiment.config_value()),
                    streaming: name.ends_with("-stream"),
                    reference: json_document(&report),
                    experiment,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Recovery {
            ctx: ExperimentContext::new()
                .with_seed(seed)
                .with_workers(WORKERS),
            entries,
            decided: (0, 0),
        })
    }

    fn pass(&mut self, trace: &Trace) -> Pass {
        let mut items = Vec::with_capacity(self.entries.len());
        let mut work = 0;
        for entry in &self.entries {
            let (outcome, us) = timed(|| entry.experiment.run_observed(&self.ctx));
            let ok = match &outcome {
                Ok(report) => json_document(report) == entry.reference,
                Err(e) => {
                    eprintln!("e2ebench: {}: {e}", entry.experiment.name());
                    false
                }
            };
            if !ok {
                eprintln!(
                    "e2ebench: {} differs from its one-worker reference",
                    entry.experiment.name()
                );
            }
            if let (Ok(report), true) = (&outcome, entry.streaming && trace.is_on()) {
                for row in &report.rows {
                    match row.cells.get(2).map(String::as_str) {
                        Some("early (confident)") => {
                            self.decided.0 += 1;
                            self.decided.1 += 1;
                        }
                        Some("cap (no decision)") => self.decided.1 += 1,
                        _ => {}
                    }
                }
            }
            work += entry.trials;
            items.push(Item { ms: us / 1e3, ok });
        }
        Pass { items, work }
    }

    fn layers(&mut self, _trace: &Trace, _passes: f64, _obs: &ObsDelta, out: &mut Layers) -> f64 {
        if self.decided.1 > 0 {
            out.insert(
                "plaintext-recovery.decided_ratio",
                self.decided.0 as f64 / self.decided.1 as f64,
            );
        }
        probe(self.ctx.seed(), out);
        // The passes' sampling and scoring run as executor tasks; per worker,
        // their busy time is the part of the pass wall the layers explain.
        out["rc4-exec.busy_us"] / WORKERS as f64
    }
}

/// Times the sampler and the scorers directly on the fig7/fig10 table
/// shapes: FM ciphertext tables at the fig7 quick counts (2^29, 2^35) and
/// the fig10 count (2^30), and ABSAB differential tables at the same counts;
/// then a fig10-shaped list-Viterbi decode (quick cookie, 7 transitions,
/// 256 candidates) and a TKIP-trailer-shaped Algorithm-1 candidate list (12
/// positions, 1024 candidates).
fn probe(seed: u64, out: &mut Layers) {
    const CALLS_PER_SHAPE: usize = 4;
    let mut rng = StdRng::seed_from_u64(mix(seed, 0x5A));
    let fm_table = |position: u64| -> Vec<f64> {
        let dist = PairDistribution::fluhrer_mcgrew(position);
        (0..65536usize)
            .map(|i| dist.prob((i >> 8) as u8, i as u8))
            .collect()
    };
    let alpha = (1.0 + 2f64.powi(-8)) / 65536.0;
    let mut absab = vec![(1.0 - alpha) / 65535.0; 65536];
    absab[0x4142] = alpha;
    let shapes: [(Vec<f64>, u64, u64); 6] = [
        (fm_table(257), 1 << 29, 257),
        (fm_table(257), 1 << 35, 257),
        (fm_table(321), 1 << 30, 321),
        (absab.clone(), 1 << 29, 0),
        (absab.clone(), 1 << 35, 0),
        (absab, 1 << 30, 0),
    ];
    let (mut sample_calls, mut sample_cells, mut sample_us) = (0.0, 0.0, 0.0);
    let (mut lik_calls, mut lik_us) = (0.0, 0.0);
    let mut transitions = Vec::new();
    for (probs, n, position) in &shapes {
        for _ in 0..CALLS_PER_SHAPE {
            let (counts, us) = timed(|| sample_counts_normal(probs, *n, &mut rng));
            sample_calls += 1.0;
            sample_cells += probs.len() as f64;
            sample_us += us;
            if *position == 0 {
                continue;
            }
            let cells: Vec<(u8, u8, f64)> = fm_biases_at(*position)
                .into_iter()
                .map(|b| (b.first, b.second, b.probability))
                .collect();
            let total: u64 = counts.iter().sum();
            let (lik, us) =
                timed(|| PairLikelihoods::from_counts_sparse(&counts, &cells, UNIFORM_PAIR, total));
            lik_calls += 1.0;
            lik_us += us;
            if let Ok(lik) = lik {
                if *n == 1 << 30 {
                    transitions.push(lik);
                }
            }
        }
    }
    out.insert("rc4-attacks.sample_calls", sample_calls);
    out.insert("rc4-attacks.sample_cells", sample_cells);
    out.insert("rc4-attacks.sample_us", sample_us);
    out.insert("plaintext-recovery.likelihood_calls", lik_calls);
    out.insert("plaintext-recovery.likelihood_us", lik_us);

    // Seven transitions of a 6-byte cookie, cycling the sampled tables.
    let likelihoods: Vec<PairLikelihoods> = (0..7)
        .map(|t| transitions[t % transitions.len()].clone())
        .collect();
    let viterbi = ViterbiConfig {
        first_known: b'=',
        last_known: b';',
        candidates: 256,
        charset: Charset::base64(),
    };
    let (decoded, us) = timed(|| list_viterbi(&likelihoods, &viterbi));
    if let Err(e) = decoded {
        eprintln!("e2ebench: viterbi probe: {e}");
    }
    out.insert("plaintext-recovery.viterbi_us", us);

    let singles: Vec<SingleLikelihoods> = (0..12u64)
        .map(|p| {
            let log = (0..256u64)
                .map(|v| (mix(seed ^ p, v) >> 11) as f64 / (1u64 << 53) as f64)
                .collect();
            SingleLikelihoods::from_log_values(log).expect("256 finite values")
        })
        .collect();
    let (cands, us) = timed(|| generate_candidates(&singles, 1024, &Charset::full()));
    if let Err(e) = cands {
        eprintln!("e2ebench: candidates probe: {e}");
    }
    out.insert("plaintext-recovery.candidates_us", us);
}
