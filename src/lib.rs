//! Umbrella crate for the RC4-bias reproduction workspace.
//!
//! This package exists to anchor the repository-level integration tests
//! (`tests/`) and attack demos (`examples/`); the implementation lives in the
//! workspace crates, re-exported here for convenience:
//!
//! * [`crypto_prims`] — SHA-1/SHA-256/MD5, HMAC, TLS PRF, CRC-32, Michael.
//! * [`rc4`] — the RC4 cipher (KSA, PRGA, RC4-drop\[n\]).
//! * [`rc4_stats`] — keystream statistics datasets and the key-space walker.
//! * [`stat_tests`] — chi-squared, M-test, proportion tests, Holm correction.
//! * [`rc4_biases`] — the analytic catalogue of keystream biases.
//! * [`plaintext_recovery`] — Bayesian plaintext recovery (Algorithms 1–2).
//! * [`wpa_tkip`] — the TKIP substrate and the Section-5 attack.
//! * [`tls_rc4`] — the TLS substrate and the Section-6 cookie attack.
//! * [`rc4_attacks`] — experiment drivers for every table and figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use crypto_prims;
pub use plaintext_recovery;
pub use rc4;
pub use rc4_attacks;
pub use rc4_biases;
pub use rc4_stats;
pub use stat_tests;
pub use tls_rc4;
pub use wpa_tkip;
