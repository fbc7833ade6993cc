//! TLS substrate and the Section-6 HTTPS cookie attack.
//!
//! The paper's second attack decrypts a `secure` HTTP cookie sent over TLS with
//! the `RC4-SHA1` cipher suite, by making the victim's browser transmit the
//! cookie a few hundred million times and aggregating Fluhrer–McGrew and ABSAB
//! likelihoods over the captured records. This crate builds the pieces:
//!
//! * [`record`] — the TLS record layer with RC4_128 encryption and HMAC-SHA1
//!   authentication, including the key-block derivation from the master secret
//!   (so "the RC4 key is effectively uniform per connection" is a property of
//!   real machinery, not an assumption wired into the attack).
//! * [`http`] — the manipulated HTTPS request of Listing 3: known headers
//!   before the cookie, attacker-injected cookies after it, and the padding
//!   needed to pin the cookie to a fixed keystream position modulo 256.
//! * [`traffic`] — the traffic-generation model standing in for the paper's
//!   JavaScript/WebWorker setup (cross-origin requests over persistent
//!   connections at ~4450 requests per second) and the passive capture of the
//!   encrypted records.
//! * [`attack`] — ciphertext statistics at the cookie positions, combined
//!   Fluhrer–McGrew + ABSAB pair likelihoods, Algorithm-2 candidate generation
//!   over the cookie alphabet, and the brute-force driver that tests candidates
//!   against the web server.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod http;
pub mod record;
pub mod traffic;

/// Errors produced by the TLS substrate and the cookie attack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// A record failed MAC verification or was otherwise rejected.
    RecordRejected(&'static str),
    /// Malformed or truncated input.
    Malformed(String),
    /// Invalid configuration.
    InvalidConfig(String),
    /// A parallel attack stage was cancelled through its executor's
    /// cooperative cancellation flag before it completed.
    Cancelled,
}

impl core::fmt::Display for TlsError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TlsError::RecordRejected(what) => write!(f, "record rejected: {what}"),
            TlsError::Malformed(msg) => write!(f, "malformed input: {msg}"),
            TlsError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            TlsError::Cancelled => write!(f, "attack cancelled"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Executor outcomes fold back into the TLS error model so the `_with_exec`
/// attack variants keep returning [`TlsError`].
impl From<rc4_exec::ExecError<TlsError>> for TlsError {
    fn from(e: rc4_exec::ExecError<TlsError>) -> Self {
        match e {
            rc4_exec::ExecError::Cancelled => TlsError::Cancelled,
            rc4_exec::ExecError::Task { error, .. } => error,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        assert!(TlsError::RecordRejected("MAC").to_string().contains("MAC"));
        assert!(TlsError::Malformed("short".into())
            .to_string()
            .contains("short"));
    }
}
