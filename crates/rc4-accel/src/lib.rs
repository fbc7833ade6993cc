//! Hardware-accelerated batched RC4 keystream engines and SIMD scoring kernels.
//!
//! The portable engine ([`rc4::batch::InterleavedBatch`]) is bounded by
//! scalar instruction throughput: every RC4 round costs ~13 µops per lane, so
//! even with perfect ILP the safe code tops out around 2× the scalar PRGA.
//! Wide SIMD changes the arithmetic: with the permutations of N lanes
//! interleaved as `u32` cells, one *row* of all lanes is exactly one vector
//! register, and the data-dependent accesses become gathers (and scatters
//! where the ISA has them) — a handful of instructions stepping N keystreams
//! at once. Two hardware tiers implement that idea:
//!
//! | engine | ISA | lanes | data-dependent accesses |
//! |---|---|---|---|
//! | [`Avx512Batch`] | x86-64 AVX-512F | 16 | `vpgatherdd` + `vpscatterdd` |
//! | [`Avx2Batch`] | x86-64 AVX2 | 8 | `vpgatherdd` + scalar stores |
//!
//! Everything here implements the same [`KeystreamBatch`] trait as the
//! portable module and is bit-identical to the scalar [`rc4::Prga`] per lane
//! (property-tested against it, and cross-checked engine-vs-engine by the
//! differential suite in `tests/differential.rs`). [`AutoBatch`] picks the
//! fastest engine the running CPU supports — preferring avx512 → avx2 →
//! portable, which also covers every non-x86 target — so consumers just
//! write:
//!
//! ```
//! use rc4_accel::{AutoBatch, KeystreamBatch};
//!
//! let mut engine = AutoBatch::new();
//! let keys = *b"KeyKez"; // flat lane-major key buffer
//! engine.schedule(&keys, 3).unwrap();
//! let mut out = vec![0u8; 2 * 4];
//! engine.fill(&mut out, 4);
//! assert_eq!(&out[..4], &rc4::keystream(b"Key", 4).unwrap()[..]);
//! ```
//!
//! # Forcing an engine
//!
//! Every tier must be measurable on any box, so the dispatch has an override
//! hook: setting `RC4_ACCEL_FORCE=<engine>` (one of [`Engine::CHOICES`])
//! makes [`AutoBatch::new`] select that engine everywhere — including deep
//! inside dataset generation — so `repro bench` run under the variable drives
//! the perf smoke suite through that engine. Forcing an engine the CPU lacks is an error
//! (CLIs validate up front; the library panics rather than silently
//! measuring the wrong engine). Because every engine is bit-identical, the
//! override can never change results — only wall-clock.
//!
//! # Why a separate crate
//!
//! The `rc4` crate is `forbid(unsafe_code)` — a guarantee worth keeping for
//! the cipher that every statistic in the reproduction rests on. SIMD
//! gather/scatter intrinsics are unavoidably `unsafe`, so they live here, in
//! a small crate whose unsafe surface is a few modules with documented
//! in-bounds invariants, instead of weakening the core crate.
//!
//! The same reasoning hosts the [`score`] module: explicitly vectorized
//! f64 accumulation kernels for the plaintext-recovery likelihood hot path,
//! bit-identical to their scalar loops by construction (no FMA contraction,
//! same per-slot accumulation order).

#![warn(missing_docs)]

pub use rc4::batch::{DefaultBatch, KeystreamBatch};
use rc4::KeyError;

#[cfg(target_arch = "x86_64")]
mod avx2;
#[cfg(target_arch = "x86_64")]
mod avx512;
pub mod score;

#[cfg(target_arch = "x86_64")]
pub use avx2::Avx2Batch;
#[cfg(target_arch = "x86_64")]
pub use avx512::Avx512Batch;

/// Environment variable consulted by [`AutoBatch::new`] to force an engine.
pub const FORCE_ENV: &str = "RC4_ACCEL_FORCE";

/// A batch engine tier, in dispatch-preference order.
///
/// The enum names every tier on every architecture so operator-facing
/// diagnostics (CLI errors, bench labels) are identical across builds;
/// requesting a tier the current CPU or build lacks fails at construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// Pick the fastest available tier (the default dispatch).
    Auto,
    /// 16-lane AVX-512F gather/scatter engine (x86-64).
    Avx512,
    /// 8-lane AVX2 gather engine (x86-64).
    Avx2,
    /// The portable lane-interleaved engine (any CPU).
    Portable,
}

impl Engine {
    /// Every engine name accepted by [`Engine::parse`] / `RC4_ACCEL_FORCE`,
    /// in dispatch-preference order.
    pub const CHOICES: [&'static str; 4] = ["auto", "avx512", "avx2", "portable"];

    /// The engine's stable name (matches [`KeystreamBatch::name`] of the
    /// engine it selects, except `Auto`).
    pub fn name(self) -> &'static str {
        match self {
            Engine::Auto => "auto",
            Engine::Avx512 => "avx512",
            Engine::Avx2 => "avx2",
            Engine::Portable => "portable",
        }
    }

    /// Parses an engine name; `None` for anything outside [`Engine::CHOICES`].
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "auto" => Some(Engine::Auto),
            "avx512" => Some(Engine::Avx512),
            "avx2" => Some(Engine::Avx2),
            "portable" => Some(Engine::Portable),
            _ => None,
        }
    }

    /// Reads and validates the `RC4_ACCEL_FORCE` override.
    ///
    /// `Ok(None)` when unset or empty; the error message lists the valid
    /// choices (CLIs print it verbatim and exit 2).
    ///
    /// # Errors
    ///
    /// Returns the diagnostic message when the variable names no known
    /// engine.
    pub fn from_env() -> Result<Option<Engine>, String> {
        match std::env::var(FORCE_ENV) {
            Ok(value) if value.is_empty() => Ok(None),
            Ok(value) => Engine::parse(&value).map(Some).ok_or_else(|| {
                format!(
                    "{FORCE_ENV}={value}: unknown engine (choices: {})",
                    Engine::CHOICES.join(", ")
                )
            }),
            Err(_) => Ok(None),
        }
    }
}

/// Engine names the running CPU (and build target) can instantiate, in
/// dispatch-preference order. Always contains `"portable"`.
pub fn available_engines() -> Vec<&'static str> {
    let mut names = Vec::new();
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            names.push("avx512");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            names.push("avx2");
        }
    }
    names.push("portable");
    names
}

/// The best batch engine the running CPU supports, behind one type.
///
/// Dispatch prefers avx512 → avx2 → portable; the variant is chosen
/// once at construction — the hot loops contain no feature checks. The
/// `RC4_ACCEL_FORCE` environment variable overrides the choice (see the
/// crate docs).
#[derive(Debug, Clone)]
pub enum AutoBatch {
    /// AVX-512 gather/scatter engine (16 lanes).
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512Batch),
    /// AVX2 gather engine (8 lanes).
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2Batch),
    /// Portable lane-interleaved engine (boxed: the inline state tables
    /// would otherwise dominate the enum's size).
    Portable(Box<DefaultBatch>),
}

impl AutoBatch {
    /// Picks the fastest engine available on this CPU, honouring the
    /// `RC4_ACCEL_FORCE` override.
    ///
    /// # Panics
    ///
    /// Panics when `RC4_ACCEL_FORCE` names an unknown engine or one this CPU
    /// cannot run: a forced measurement silently falling back to a different
    /// engine would be worse than stopping. CLI entry points validate the
    /// variable first and turn the same condition into exit code 2.
    pub fn new() -> Self {
        let forced = Engine::from_env().unwrap_or_else(|msg| panic!("{msg}"));
        let engine = forced.unwrap_or(Engine::Auto);
        Self::with_engine(engine).unwrap_or_else(|msg| panic!("{msg}"))
    }

    /// Constructs a specific engine tier ([`Engine::Auto`] picks the fastest
    /// available, never failing — the portable engine always exists).
    ///
    /// # Errors
    ///
    /// Returns a diagnostic message when the requested tier is not available
    /// on this CPU or build target.
    pub fn with_engine(engine: Engine) -> Result<Self, String> {
        let unavailable = |name: &str| {
            format!(
                "engine '{name}' is not available on this CPU (available: {})",
                available_engines().join(", ")
            )
        };
        match engine {
            Engine::Auto => {
                #[cfg(target_arch = "x86_64")]
                if let Some(engine) = Avx512Batch::new() {
                    return Ok(AutoBatch::Avx512(engine));
                }
                #[cfg(target_arch = "x86_64")]
                if let Some(engine) = Avx2Batch::new() {
                    return Ok(AutoBatch::Avx2(engine));
                }
                Ok(AutoBatch::Portable(Box::new(DefaultBatch::new())))
            }
            Engine::Avx512 => {
                #[cfg(target_arch = "x86_64")]
                if let Some(engine) = Avx512Batch::new() {
                    return Ok(AutoBatch::Avx512(engine));
                }
                Err(unavailable("avx512"))
            }
            Engine::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                if let Some(engine) = Avx2Batch::new() {
                    return Ok(AutoBatch::Avx2(engine));
                }
                Err(unavailable("avx2"))
            }
            Engine::Portable => Ok(AutoBatch::Portable(Box::new(DefaultBatch::new()))),
        }
    }

    /// Short name of the selected engine, for logs and bench labels.
    pub fn engine_name(&self) -> &'static str {
        self.name()
    }
}

impl Default for AutoBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl KeystreamBatch for AutoBatch {
    fn lanes(&self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx512(e) => e.lanes(),
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx2(e) => e.lanes(),
            AutoBatch::Portable(e) => e.lanes(),
        }
    }

    fn scheduled(&self) -> usize {
        match self {
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx512(e) => e.scheduled(),
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx2(e) => e.scheduled(),
            AutoBatch::Portable(e) => e.scheduled(),
        }
    }

    fn name(&self) -> &'static str {
        match self {
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx512(e) => e.name(),
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx2(e) => e.name(),
            AutoBatch::Portable(e) => e.name(),
        }
    }

    fn schedule(&mut self, keys: &[u8], key_len: usize) -> Result<(), KeyError> {
        match self {
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx512(e) => e.schedule(keys, key_len),
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx2(e) => e.schedule(keys, key_len),
            AutoBatch::Portable(e) => e.schedule(keys, key_len),
        }
    }

    fn fill(&mut self, out: &mut [u8], len: usize) {
        match self {
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx512(e) => e.fill(out, len),
            #[cfg(target_arch = "x86_64")]
            AutoBatch::Avx2(e) => e.fill(out, len),
            AutoBatch::Portable(e) => e.fill(out, len),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn auto_batch_matches_scalar() {
        let mut engine = AutoBatch::new();
        let lanes = engine.lanes();
        let keys: Vec<u8> = (0..lanes * 16).map(|i| (i * 37 + 11) as u8).collect();
        engine.schedule(&keys, 16).unwrap();
        let mut out = vec![0u8; lanes * 80];
        engine.fill(&mut out, 80);
        for (lane, key) in keys.chunks_exact(16).enumerate() {
            let expected = rc4::keystream(key, 80).unwrap();
            assert_eq!(
                &out[lane * 80..(lane + 1) * 80],
                &expected[..],
                "lane {lane} ({})",
                engine.engine_name()
            );
        }
    }

    #[test]
    fn auto_batch_reports_an_engine() {
        let engine = AutoBatch::new();
        assert!(["avx512", "avx2", "portable"].contains(&engine.engine_name()));
        assert!(engine.lanes() >= 1);
    }

    #[test]
    fn engine_parse_round_trips_choices() {
        for name in Engine::CHOICES {
            let engine = Engine::parse(name).expect("every listed choice parses");
            assert_eq!(engine.name(), name);
        }
        assert_eq!(Engine::parse("sse9"), None);
    }

    #[test]
    fn every_available_engine_constructs_and_matches_scalar() {
        for name in available_engines() {
            let engine_kind = Engine::parse(name).expect("available engines parse");
            let mut engine = AutoBatch::with_engine(engine_kind).expect("listed as available");
            assert_eq!(engine.engine_name(), name);
            let lanes = engine.lanes();
            let keys: Vec<u8> = (0..lanes * 5).map(|i| (i * 91 + 3) as u8).collect();
            engine.schedule(&keys, 5).unwrap();
            let mut out = vec![0u8; lanes * 40];
            engine.fill(&mut out, 40);
            for (lane, key) in keys.chunks_exact(5).enumerate() {
                let expected = rc4::keystream(key, 40).unwrap();
                assert_eq!(&out[lane * 40..(lane + 1) * 40], &expected[..], "{name}");
            }
        }
    }

    #[test]
    fn unavailable_engine_is_a_listed_error() {
        // Whichever SIMD tier the host lacks must produce the diagnostic
        // with the available list.
        for kind in [Engine::Avx512, Engine::Avx2] {
            if available_engines().contains(&kind.name()) {
                continue;
            }
            let err = AutoBatch::with_engine(kind).unwrap_err();
            assert!(err.contains("not available"), "{err}");
            assert!(err.contains("portable"), "{err}");
        }
    }
}
