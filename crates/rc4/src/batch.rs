//! Batched multi-key RC4: step many independent keystreams per loop iteration.
//!
//! The scalar PRGA is latency-bound: every output byte depends on the swap of
//! the previous round, so a single stream runs one dependent chain of loads,
//! adds and stores. The statistics datasets, however, generate keystreams for
//! *millions of independent keys*, and independent streams have independent
//! dependency chains. [`InterleavedBatch`] exploits that: it keeps `N` RC4
//! states in a lane-interleaved layout (`S[v]` holds the `v`-th permutation
//! entry of all `N` lanes side by side) and steps all lanes inside one loop
//! body, so the out-of-order core overlaps `N` chains instead of stalling on
//! one. The same trick applies to the KSA, which dominates the cost of the
//! short keystreams most datasets need.
//!
//! Per-lane keystreams are bit-identical to the scalar [`crate::Prga`] — the
//! engine changes *scheduling*, not the cipher — which is what lets the
//! dataset generators batch their hot loops while keeping every dataset
//! byte-identical to the scalar path (verified by the property tests in
//! `tests/proptest_rc4.rs`).
//!
//! # Choosing a lane count
//!
//! The `rc4_batch` groups of the `rc4_throughput` bench sweep lane counts.
//! The loop is instruction-throughput bound (~13 µops per lane-round), so
//! once enough independent chains are in flight more lanes only add register
//! pressure: on the x86-64 build machines 8 lanes is the sweet spot (4
//! leaves ILP on the table, 16/32 spill), so [`DEFAULT_LANES`]` = 8` and
//! [`DefaultBatch`] is `InterleavedBatch<8>`. See README "Performance" for
//! measured numbers.
//!
//! This module is deliberately `forbid(unsafe_code)`-clean and portable; the
//! `rc4-accel` crate layers a runtime-dispatched AVX-512 implementation of
//! the same [`KeystreamBatch`] trait on top (gather/scatter steps 16 lanes
//! per instruction) and falls back to [`DefaultBatch`] elsewhere. Consumers
//! should go through `rc4_accel::AutoBatch` unless they specifically want
//! the portable engine.
//!
//! # Examples
//!
//! ```
//! use rc4::batch::{DefaultBatch, KeystreamBatch};
//!
//! // Two 3-byte keys, flat and lane-major.
//! let keys = *b"KeyKez";
//! let mut engine = DefaultBatch::new();
//! engine.schedule(&keys, 3).unwrap();
//! let mut out = vec![0u8; 2 * 4];
//! engine.fill(&mut out, 4);
//! assert_eq!(&out[..4], &rc4::keystream(b"Key", 4).unwrap()[..]);
//! assert_eq!(&out[4..], &rc4::keystream(b"Kez", 4).unwrap()[..]);
//! ```

use crate::{error::KeyError, prga::Prga, MAX_KEY_LEN, MIN_KEY_LEN, PERM_SIZE};

/// Lane count of [`DefaultBatch`], chosen by the `rc4_batch` lane-count
/// benchmarks (see the module docs).
pub const DEFAULT_LANES: usize = 8;

/// The batch engine consumers should reach for: [`InterleavedBatch`] at the
/// benchmark-chosen [`DEFAULT_LANES`].
pub type DefaultBatch = InterleavedBatch<DEFAULT_LANES>;

/// A generator stepping up to `lanes()` independent RC4 keystreams at once.
///
/// # Contract
///
/// * [`KeystreamBatch::schedule`] takes a flat, lane-major key buffer
///   (`keys[l * key_len..(l + 1) * key_len]` is lane `l`'s key) and rekeys
///   lanes `0..keys.len() / key_len`. Scheduling fewer keys than `lanes()`
///   is allowed — that is how callers drain a non-multiple-of-N tail.
/// * [`KeystreamBatch::fill`] appends `len` keystream bytes per scheduled
///   lane into a flat, lane-major output buffer. Repeated fills continue the
///   streams, exactly like repeated [`Prga::fill`] calls.
/// * Every lane's stream is bit-identical to a scalar [`Prga`] run with the
///   same key.
pub trait KeystreamBatch {
    /// Maximum number of lanes this engine steps per call.
    fn lanes(&self) -> usize;

    /// Number of lanes rekeyed by the last [`KeystreamBatch::schedule`] call.
    fn scheduled(&self) -> usize;

    /// Short stable engine name for logs, bench labels and perf records
    /// (e.g. `"scalar"`, `"portable"`, `"avx2"`). Names identify the
    /// *implementation*, so two engines with the same name must produce
    /// identical instruction-level strategies.
    fn name(&self) -> &'static str;

    /// Rekeys lanes `0..keys.len() / key_len` from a flat lane-major buffer.
    ///
    /// # Errors
    ///
    /// Returns [`KeyError`] if `key_len` is outside `1..=256`.
    ///
    /// # Panics
    ///
    /// Panics if `keys` is empty, is not a whole number of keys, or holds
    /// more than [`KeystreamBatch::lanes`] keys — these are caller bugs, not
    /// runtime conditions.
    fn schedule(&mut self, keys: &[u8], key_len: usize) -> Result<(), KeyError>;

    /// Generates the next `len` bytes of every scheduled lane, lane-major:
    /// `out[l * len..(l + 1) * len]` receives lane `l`'s keystream.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != scheduled() * len`.
    fn fill(&mut self, out: &mut [u8], len: usize);
}

/// Validates the shared shape rules of [`KeystreamBatch::schedule`] and
/// returns the number of lanes the key buffer covers.
///
/// Public so external engine implementations (e.g. the SIMD engines in
/// `rc4-accel`) enforce exactly the same contract as the built-in ones.
///
/// # Errors
///
/// Returns [`KeyError`] if `key_len` is outside `1..=256`.
///
/// # Panics
///
/// Panics on the shape violations listed under [`KeystreamBatch::schedule`].
pub fn check_schedule(keys: &[u8], key_len: usize, lanes: usize) -> Result<usize, KeyError> {
    if !(MIN_KEY_LEN..=MAX_KEY_LEN).contains(&key_len) {
        return Err(KeyError::new(key_len));
    }
    assert!(
        !keys.is_empty() && keys.len() % key_len == 0,
        "schedule needs a whole number of {key_len}-byte keys, got {} bytes",
        keys.len()
    );
    let n = keys.len() / key_len;
    assert!(n <= lanes, "scheduled {n} keys into a {lanes}-lane engine");
    Ok(n)
}

/// The reference batch implementation: one scalar [`Prga`] per lane.
///
/// This is the N-times-scalar baseline the interleaved engine is measured and
/// property-tested against; it is also the honest fallback for odd lane
/// counts.
#[derive(Debug, Clone)]
pub struct ScalarBatch {
    lanes: usize,
    prgas: Vec<Prga>,
}

impl ScalarBatch {
    /// Creates a scalar engine with `lanes` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` is zero.
    pub fn new(lanes: usize) -> Self {
        assert!(lanes > 0, "a batch engine needs at least one lane");
        Self {
            lanes,
            prgas: Vec::with_capacity(lanes),
        }
    }
}

impl KeystreamBatch for ScalarBatch {
    fn lanes(&self) -> usize {
        self.lanes
    }

    fn scheduled(&self) -> usize {
        self.prgas.len()
    }

    fn name(&self) -> &'static str {
        "scalar"
    }

    fn schedule(&mut self, keys: &[u8], key_len: usize) -> Result<(), KeyError> {
        check_schedule(keys, key_len, self.lanes)?;
        self.prgas.clear();
        for key in keys.chunks_exact(key_len) {
            self.prgas.push(Prga::new(key)?);
        }
        Ok(())
    }

    fn fill(&mut self, out: &mut [u8], len: usize) {
        assert_eq!(
            out.len(),
            self.prgas.len() * len,
            "output buffer must hold len bytes per scheduled lane"
        );
        for (lane, prga) in self.prgas.iter_mut().enumerate() {
            prga.fill(&mut out[lane * len..(lane + 1) * len]);
        }
    }
}

/// `N` RC4 states in a lane-interleaved layout, stepped together.
///
/// `s[v][l]` is permutation entry `v` of lane `l`, so one loop iteration
/// touches the same row of every lane. The public counter `i` advances
/// identically in every lane (it never depends on data) and is shared; the
/// private index `j` and the permutation are per lane. KSA and PRGA run all
/// `N` lanes inside the position loop, giving the CPU `N` independent
/// dependency chains to overlap.
#[derive(Debug, Clone)]
pub struct InterleavedBatch<const N: usize> {
    /// Lane-interleaved permutations: `s[v][l]` = `S_l[v]`.
    s: [[u8; N]; PERM_SIZE],
    /// Per-lane private index `j`.
    j: [u8; N],
    /// Shared public counter `i`.
    i: u8,
    /// Lanes covered by the last `schedule` call.
    scheduled: usize,
}

impl<const N: usize> InterleavedBatch<N> {
    /// Creates an engine with all lanes in the pre-KSA identity state.
    pub fn new() -> Self {
        assert!(N > 0, "a batch engine needs at least one lane");
        let mut s = [[0u8; N]; PERM_SIZE];
        for (v, row) in s.iter_mut().enumerate() {
            *row = [v as u8; N];
        }
        Self {
            s,
            j: [0; N],
            i: 0,
            scheduled: 0,
        }
    }
}

impl<const N: usize> Default for InterleavedBatch<N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const N: usize> KeystreamBatch for InterleavedBatch<N> {
    fn lanes(&self) -> usize {
        N
    }

    fn scheduled(&self) -> usize {
        self.scheduled
    }

    fn name(&self) -> &'static str {
        "portable"
    }

    fn schedule(&mut self, keys: &[u8], key_len: usize) -> Result<(), KeyError> {
        let n = check_schedule(keys, key_len, N)?;

        // Expand the keys into a lane-interleaved table so the KSA loop has
        // no per-round modulo: ek[r][l] = key_l[r % key_len]. Unused lanes
        // repeat the last key — they are never read back, but keeping them
        // scheduled keeps every index in the fill loop well defined.
        let mut ek = [[0u8; N]; PERM_SIZE];
        for lane in 0..N {
            let key = &keys[lane.min(n - 1) * key_len..][..key_len];
            let mut k = 0usize;
            for row in ek.iter_mut() {
                row[lane] = key[k];
                k += 1;
                if k == key_len {
                    k = 0;
                }
            }
        }

        // Work on a stack-local copy so the optimizer knows the table cannot
        // alias `ek` or `j` (see `fill` for the same trick).
        let mut s = [[0u8; N]; PERM_SIZE];
        for (v, row) in s.iter_mut().enumerate() {
            *row = [v as u8; N];
        }
        let mut j = [0u8; N];
        for i in 0..PERM_SIZE {
            // Row `i` is read once per lane before any lane writes it back,
            // and the swapped-in values are accumulated in `new_row` so the
            // whole row is written back with ONE wide store instead of one
            // byte store per lane — store-port pressure is what bounds this
            // loop. When `jl == i` the gather still sees the pre-swap `si`
            // (this lane's column is untouched until its own store below),
            // which is exactly the value the swap leaves in place.
            let row = s[i];
            let key_row = ek[i];
            let mut new_row = [0u8; N];
            for l in 0..N {
                let si = row[l];
                let jl = j[l].wrapping_add(si).wrapping_add(key_row[l]);
                j[l] = jl;
                new_row[l] = s[jl as usize][l];
                s[jl as usize][l] = si;
            }
            s[i] = new_row;
        }
        self.s = s;
        self.j = [0; N];
        self.i = 0;
        self.scheduled = n;
        Ok(())
    }

    fn fill(&mut self, out: &mut [u8], len: usize) {
        assert_eq!(
            out.len(),
            self.scheduled * len,
            "output buffer must hold len bytes per scheduled lane"
        );
        // Writing straight to the lane-major output would store one byte per
        // lane per round at a stride of `len` — for the typical 4 KiB-ish
        // streams every lane aliases the same L1 set and the stores thrash.
        // Instead each chunk of rounds writes a small position-major scratch
        // (sequential stores, L1-resident) and is then transposed out.
        const CHUNK: usize = 256;
        let n = self.scheduled;
        let mut scratch = [[0u8; N]; CHUNK];
        // Work on stack-local copies: the optimizer then knows `s`, `j` and
        // `scratch` cannot alias each other or `out`, which it cannot prove
        // for fields behind `&mut self`.
        let mut s = self.s;
        let mut i = self.i;
        let mut j = self.j;
        let mut base = 0usize;
        while base < len {
            let m = (len - base).min(CHUNK);
            for vals in scratch.iter_mut().take(m) {
                i = i.wrapping_add(1);
                // One contiguous load of S[i] across all lanes; the swapped-in
                // values accumulate in `new_row` and are written back with ONE
                // wide store per round instead of one byte store per lane
                // (store-port pressure bounds this loop). Because row `i` is
                // only committed at the end of the round, an output index
                // `t == i` would read the stale pre-swap byte — the select
                // below substitutes the in-register `sj` for that case. The
                // `t == jl` case needs no fix-up: that column was stored
                // before the gather.
                let row = s[i as usize];
                let mut new_row = [0u8; N];
                for l in 0..N {
                    let si = row[l];
                    let jl = j[l].wrapping_add(si);
                    j[l] = jl;
                    let sj = s[jl as usize][l];
                    s[jl as usize][l] = si;
                    new_row[l] = sj;
                    let t = si.wrapping_add(sj);
                    vals[l] = if t == i { sj } else { s[t as usize][l] };
                }
                s[i as usize] = new_row;
            }
            for l in 0..n {
                for (slot, vals) in out[l * len + base..][..m].iter_mut().zip(&scratch) {
                    *slot = vals[l];
                }
            }
            base += m;
        }
        self.s = s;
        self.i = i;
        self.j = j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keystream;

    /// Flattens `n` copies of distinct test keys into the flat lane-major form.
    fn test_keys(n: usize, key_len: usize) -> Vec<u8> {
        let mut keys = vec![0u8; n * key_len];
        for (k, key) in keys.chunks_exact_mut(key_len).enumerate() {
            for (b, slot) in key.iter_mut().enumerate() {
                *slot = (0x31 + 7 * k + 13 * b) as u8;
            }
        }
        keys
    }

    fn scalar_reference(keys: &[u8], key_len: usize, len: usize) -> Vec<u8> {
        keys.chunks_exact(key_len)
            .flat_map(|key| keystream(key, len).unwrap())
            .collect()
    }

    #[test]
    fn interleaved_matches_scalar_full_batch() {
        let keys = test_keys(16, 16);
        let mut engine = InterleavedBatch::<16>::new();
        engine.schedule(&keys, 16).unwrap();
        let mut out = vec![0u8; 16 * 96];
        engine.fill(&mut out, 96);
        assert_eq!(out, scalar_reference(&keys, 16, 96));
    }

    #[test]
    fn interleaved_matches_scalar_partial_batch() {
        let keys = test_keys(5, 16);
        let mut engine = InterleavedBatch::<8>::new();
        engine.schedule(&keys, 16).unwrap();
        assert_eq!(engine.scheduled(), 5);
        let mut out = vec![0u8; 5 * 40];
        engine.fill(&mut out, 40);
        assert_eq!(out, scalar_reference(&keys, 16, 40));
    }

    #[test]
    fn chunked_fills_continue_the_streams() {
        let keys = test_keys(4, 5);
        let mut engine = InterleavedBatch::<4>::new();
        engine.schedule(&keys, 5).unwrap();
        let mut head = vec![0u8; 4 * 13];
        let mut tail = vec![0u8; 4 * 19];
        engine.fill(&mut head, 13);
        engine.fill(&mut tail, 19);
        let whole = scalar_reference(&keys, 5, 32);
        for lane in 0..4 {
            assert_eq!(&head[lane * 13..(lane + 1) * 13], &whole[lane * 32..][..13]);
            assert_eq!(
                &tail[lane * 19..(lane + 1) * 19],
                &whole[lane * 32 + 13..][..19]
            );
        }
    }

    #[test]
    fn rescheduling_resets_every_lane() {
        let mut engine = DefaultBatch::new();
        let first = test_keys(DEFAULT_LANES, 16);
        engine.schedule(&first, 16).unwrap();
        let mut scratch = vec![0u8; DEFAULT_LANES * 64];
        engine.fill(&mut scratch, 64);

        let second = test_keys(3, 7);
        engine.schedule(&second, 7).unwrap();
        let mut out = vec![0u8; 3 * 24];
        engine.fill(&mut out, 24);
        assert_eq!(out, scalar_reference(&second, 7, 24));
    }

    #[test]
    fn scalar_batch_is_n_prgas() {
        let keys = test_keys(6, 16);
        let mut engine = ScalarBatch::new(8);
        engine.schedule(&keys, 16).unwrap();
        assert_eq!(engine.lanes(), 8);
        assert_eq!(engine.scheduled(), 6);
        let mut out = vec![0u8; 6 * 32];
        engine.fill(&mut out, 32);
        assert_eq!(out, scalar_reference(&keys, 16, 32));
    }

    #[test]
    fn engines_agree_on_rfc6229_vector() {
        // The 5-byte RFC 6229 key, replicated across lanes.
        let key = [0x01u8, 0x02, 0x03, 0x04, 0x05];
        let keys: Vec<u8> = key.repeat(DEFAULT_LANES);
        let mut engine = DefaultBatch::new();
        engine.schedule(&keys, 5).unwrap();
        let mut out = vec![0u8; DEFAULT_LANES * 16];
        engine.fill(&mut out, 16);
        let expected = [
            0xb2, 0x39, 0x63, 0x05, 0xf0, 0x3d, 0xc0, 0x27, 0xcc, 0xc3, 0x52, 0x4a, 0x0a, 0x11,
            0x18, 0xa8,
        ];
        for lane in 0..DEFAULT_LANES {
            assert_eq!(&out[lane * 16..(lane + 1) * 16], &expected, "lane {lane}");
        }
    }

    #[test]
    fn invalid_key_length_is_rejected() {
        let mut engine = DefaultBatch::new();
        assert!(engine.schedule(&[0u8; 257], 257).is_err());
        let mut scalar = ScalarBatch::new(4);
        assert!(scalar.schedule(&[0u8; 257], 257).is_err());
    }

    #[test]
    #[should_panic(expected = "whole number")]
    fn ragged_key_buffer_panics() {
        let mut engine = DefaultBatch::new();
        let _ = engine.schedule(&[0u8; 17], 16);
    }

    #[test]
    #[should_panic(expected = "8-lane engine")]
    fn oversubscribed_batch_panics() {
        let mut engine = DefaultBatch::new();
        let _ = engine.schedule(&test_keys(DEFAULT_LANES + 1, 8), 8);
    }

    #[test]
    #[should_panic(expected = "output buffer")]
    fn wrong_output_size_panics() {
        let mut engine = DefaultBatch::new();
        engine.schedule(&test_keys(4, 16), 16).unwrap();
        let mut out = vec![0u8; 3 * 8];
        engine.fill(&mut out, 8);
    }

    #[test]
    fn single_lane_interleaved_matches_scalar() {
        let keys = test_keys(1, 16);
        let mut engine = InterleavedBatch::<1>::new();
        engine.schedule(&keys, 16).unwrap();
        let mut out = vec![0u8; 256];
        engine.fill(&mut out, 256);
        assert_eq!(out, scalar_reference(&keys, 16, 256));
    }
}
