//! Experiment drivers, one module per paper table/figure group.
//!
//! * [`biases`] — the empirical bias-hunting results of Section 3
//!   (Table 1, Table 2, Fig. 4, Fig. 5, Fig. 6, Eq. 3–5, the long-term biases
//!   of Sect. 3.4).
//! * [`fig7`] — the simulated two-byte recovery comparison of Section 4.3.
//! * [`fig8`] — the TKIP MIC-key recovery success rate and candidate-position
//!   curves of Section 5 (Fig. 8 and Fig. 9).
//! * [`fig10`] — the HTTPS cookie brute-force success curve of Section 6.
//! * [`tkip_attack`] — the end-to-end WPA-TKIP attack of Section 5.
//! * [`tls_cookie`] — the end-to-end HTTPS cookie attack of Section 6.
//! * [`streaming`] — streaming-ingestion variants of `fig7`, `fig10` and
//!   `tls-cookie` with early stopping (`--until-confident`): one loop,
//!   `StopRule::run`, feeds ciphertexts in batch by batch, the attack adds
//!   each batch into its count tables and re-scores, and the loop stops once
//!   the top candidate's likelihood margin reaches a confidence threshold.
//!   The fixed-grid and streaming drivers of an attack share one trial model
//!   (`tls-cookie` and its stream one capture session), so a fixed-grid
//!   trial at `n` ciphertexts is the streaming trial after a single batch of
//!   `n`.
//!
//! All drivers are deterministic for a fixed configuration (seeds included in
//! the configs) and return [`crate::report::ExperimentReport`]s. Each
//! experiment has exactly one entry point taking its configuration and an
//! [`crate::ExperimentContext`] (the eight bias drivers take a
//! [`biases::BiasScale`] instead of a config), and is also exposed as a
//! [`crate::Experiment`] through [`crate::Registry::with_defaults`], which is
//! built from [`default_experiments`].

/// Declares the [`crate::Experiment`] carrier of a config-driven experiment:
/// a struct holding its config (starting at the `Laptop` preset), `new` and
/// `Default`, and an `Experiment` impl whose `run` calls `$run(&config, ctx)`
/// between the `Started` and `Finished` progress events.
macro_rules! experiment_carrier {
    ($(#[$doc:meta])* $carrier:ident, $config:ty, $name:literal, $summary:literal, $run:expr) => {
        $(#[$doc])*
        pub struct $carrier {
            config: $config,
        }

        impl $carrier {
            /// Creates the experiment with the `Laptop`-scale preset.
            pub fn new() -> Self {
                Self {
                    config: <$config>::for_scale($crate::experiments::Scale::Laptop),
                }
            }
        }

        impl Default for $carrier {
            fn default() -> Self {
                Self::new()
            }
        }

        impl $crate::Experiment for $carrier {
            fn name(&self) -> &'static str {
                $name
            }

            fn summary(&self) -> &'static str {
                $summary
            }

            fn apply_scale(&mut self, scale: $crate::experiments::Scale) {
                self.config = <$config>::for_scale(scale);
            }

            fn config_value(&self) -> serde::Value {
                $crate::experiment::config_to_value(&self.config)
            }

            fn set_config_value(
                &mut self,
                value: &serde::Value,
            ) -> Result<(), $crate::ExperimentError> {
                self.config = $crate::experiment::config_from_value($name, value)?;
                Ok(())
            }

            fn run(
                &self,
                ctx: &$crate::ExperimentContext,
            ) -> Result<$crate::ExperimentReport, $crate::ExperimentError> {
                use $crate::context::ProgressEvent;
                ctx.emit(ProgressEvent::Started { experiment: $name });
                let report = ($run)(&self.config, ctx)?;
                ctx.emit(ProgressEvent::Finished { experiment: $name });
                Ok(report)
            }
        }
    };
}

pub mod biases;
pub mod fig10;
pub mod fig7;
pub mod fig8;
pub mod streaming;
pub mod tkip_attack;
pub mod tls_cookie;
mod trial;

use serde::{DeError, Deserialize, Serialize, Value};

use crate::{experiment::Experiment, registry::ExperimentFactory};

/// Fixed logical stream count for the empirical keystream datasets the
/// attack-model experiments generate ([`CountSource::Empirical`], fig8's
/// empirical traffic model).
///
/// The stream count partitions the deterministic key space and is therefore
/// part of a dataset's identity (it selects WHICH keys are generated and is
/// baked into the dataset-cache lookup). Deriving it from the context's
/// worker budget — as the pre-`rc4-exec` code did — made `--workers` change
/// experiment *results*; pinning it decouples the two: `--workers` now only
/// sets the thread budget of the executor, and outputs are byte-identical
/// for any worker count. Four streams also keep these datasets shardable
/// via `repro dataset generate --worker-range` on up to four machines.
pub const DATASET_STREAMS: usize = 4;

/// Scale presets shared by the drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-long runs for CI and quick sanity checks.
    Quick,
    /// Minutes-long runs producing readable curves (the default for `repro`).
    Laptop,
    /// Hours-long runs approaching the paper's parameters where feasible.
    Extended,
}

impl Scale {
    /// All presets, in increasing effort order.
    pub const ALL: [Scale; 3] = [Scale::Quick, Scale::Laptop, Scale::Extended];

    /// Parses a scale name.
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "quick" => Some(Scale::Quick),
            "laptop" | "default" => Some(Scale::Laptop),
            "extended" | "full" => Some(Scale::Extended),
            _ => None,
        }
    }

    /// The canonical name (the one [`Scale::parse`] always accepts).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Quick => "quick",
            Scale::Laptop => "laptop",
            Scale::Extended => "extended",
        }
    }
}

/// Where a sampled-mode recovery experiment (`fig7`, `fig10`) takes its
/// ground-truth keystream-pair distributions from.
///
/// The default, [`CountSource::Analytic`], samples ciphertext counts from the
/// closed-form Fluhrer–McGrew distributions the likelihood analysis assumes —
/// the historical behaviour, bit for bit. [`CountSource::Empirical`] instead
/// *measures* the joint distribution of the relevant keystream positions from
/// `keys` real RC4 keystreams (a `rc4-stats` pair dataset, served through the
/// context's dataset cache when one is attached) and samples counts from
/// that, so the estimator is exercised against reality rather than against
/// its own model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CountSource {
    /// Closed-form Fluhrer–McGrew distributions (the paper's analysis model).
    Analytic,
    /// Distributions measured from real keystreams.
    Empirical {
        /// Number of RC4 keys used to measure the distributions.
        keys: u64,
    },
}

/// Serialized as a tagged object: `{"kind": "analytic"}` or
/// `{"kind": "empirical", "keys": n}`. Hand-written because the vendored
/// serde derive only covers unit-variant enums.
impl Serialize for CountSource {
    fn to_value(&self) -> Value {
        match self {
            CountSource::Analytic => {
                Value::Object(vec![("kind".into(), Value::Str("analytic".into()))])
            }
            CountSource::Empirical { keys } => Value::Object(vec![
                ("kind".into(), Value::Str("empirical".into())),
                ("keys".into(), keys.to_value()),
            ]),
        }
    }
}

impl Deserialize for CountSource {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(v.field("kind")?)?;
        match kind.as_str() {
            "analytic" => Ok(CountSource::Analytic),
            "empirical" => Ok(CountSource::Empirical {
                keys: u64::from_value(v.field("keys")?)?,
            }),
            other => Err(DeError(format!(
                "unknown count source kind '{other}' (expected analytic | empirical)"
            ))),
        }
    }
}

/// The built-in experiments in canonical `run all` order, each with its alias
/// list — the single source [`crate::Registry::with_defaults`] is built from.
pub fn default_experiments() -> Vec<(ExperimentFactory, &'static [&'static str])> {
    fn boxed<E: Experiment + Default + 'static>() -> Box<dyn Experiment> {
        Box::new(E::default())
    }
    // `BiasExperiment` has per-experiment constructors rather than `Default`.
    vec![
        (|| Box::new(biases::BiasExperiment::headline()), &[]),
        (|| Box::new(biases::BiasExperiment::table1()), &[]),
        (|| Box::new(biases::BiasExperiment::fig4()), &[]),
        (|| Box::new(biases::BiasExperiment::table2()), &[]),
        (|| Box::new(biases::BiasExperiment::eq345()), &[]),
        (|| Box::new(biases::BiasExperiment::fig5()), &[]),
        (|| Box::new(biases::BiasExperiment::fig6()), &[]),
        (|| Box::new(biases::BiasExperiment::longterm()), &[]),
        (boxed::<fig7::Fig7Experiment>, &[]),
        (
            boxed::<fig8::Fig8Experiment>,
            &["fig9", "fig8_fig9"] as &[&str],
        ),
        (boxed::<fig10::Fig10Experiment>, &[]),
        (boxed::<tkip_attack::TkipAttackExperiment>, &[]),
        (boxed::<tls_cookie::TlsCookieExperiment>, &[]),
        (
            boxed::<streaming::Fig7StreamExperiment>,
            &["fig7-until-confident"] as &[&str],
        ),
        (
            boxed::<streaming::Fig10StreamExperiment>,
            &["fig10-until-confident"] as &[&str],
        ),
        (
            boxed::<streaming::TlsCookieStreamExperiment>,
            &["tls-cookie-until-confident"] as &[&str],
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_source_serde_roundtrip() {
        for source in [
            CountSource::Analytic,
            CountSource::Empirical { keys: 1 << 18 },
        ] {
            let json = serde_json::to_string(&source).unwrap();
            let back: CountSource = serde_json::from_str(&json).unwrap();
            assert_eq!(back, source);
        }
        assert!(serde_json::from_str::<CountSource>("{\"kind\":\"vibes\"}").is_err());
    }

    #[test]
    fn scale_parsing() {
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("LAPTOP"), Some(Scale::Laptop));
        assert_eq!(Scale::parse("full"), Some(Scale::Extended));
        assert_eq!(Scale::parse("nonsense"), None);
        // Canonical names parse back to themselves.
        for scale in Scale::ALL {
            assert_eq!(Scale::parse(scale.name()), Some(scale));
        }
    }
}
