//! Explicitly vectorized f64 accumulation kernels for likelihood scoring.
//!
//! The plaintext-recovery hot path (Eq. 11/13/15 of the paper) reduces to one
//! primitive: for a 256-entry table `T` and a 256-slot accumulator row `A`,
//!
//! ```text
//! A[m] += T[xor ^ m] * delta        for m in 0..256
//! ```
//!
//! — the per-candidate XOR re-indexing of a count (or log-probability) table.
//! XOR by a constant permutes each aligned 4-element block as a whole: for
//! output block `q` (slots `4q..4q+4`) the four source values are exactly the
//! aligned source block `(xor >> 2) ^ q`, in an order that depends only on
//! `xor & 3`. So the kernel is a strided sweep of aligned loads, one of four
//! fixed in-register shuffles, a multiply and an add — no gathers needed:
//!
//! ```text
//! v = load T[((xor >> 2) ^ q) * 4 ..]      ; 4 f64
//! v = shuffle(v, xor & 3)                  ; 0:id, 1:swap pairs, 2:swap halves, 3:both
//! A[4q..] += v * delta                     ; vmulpd + vaddpd (NO vfmadd)
//! ```
//!
//! # Bit-identity
//!
//! The scalar fallback and the AVX2 path perform, per slot, the *same single*
//! `A[m] += T[xor ^ m] * delta` operation with the same operands; IEEE-754
//! multiplication and addition are deterministic, slots are independent, and
//! the multiply and add are kept as two separate rounding steps (no FMA
//! contraction — `_mm256_fmadd_pd` would single-round and change results).
//! Callers may therefore mix kernels freely — across CPUs, or with the
//! `RC4_ACCEL_FORCE=portable` override — without changing a single output
//! bit. The differential suite pins this.
//!
//! # Safety
//!
//! The only unsafe surface is the `#[target_feature(avx2)]` function, called
//! iff `is_x86_feature_detected!("avx2")` held at first dispatch; all
//! loads/stores derive from 256-length-asserted slices with block indices in
//! `0..64`, so every address is in bounds.

/// Whether the explicit-SIMD kernel is active (cached detection, honouring
/// `RC4_ACCEL_FORCE=portable` so a forced-portable measurement run really
/// exercises the scalar scoring loops too).
fn simd_enabled() -> bool {
    use std::sync::OnceLock;
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| {
        if matches!(crate::Engine::from_env(), Ok(Some(crate::Engine::Portable))) {
            return false;
        }
        #[cfg(target_arch = "x86_64")]
        {
            std::arch::is_x86_feature_detected!("avx2")
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            false
        }
    })
}

/// `acc[m] += table[xor ^ m] * delta` for all `m in 0..256`.
///
/// The one likelihood-scoring primitive (see the module docs); bit-identical
/// between the SIMD and scalar paths by construction.
///
/// # Panics
///
/// Panics unless `acc` and `table` are exactly 256 long.
#[inline]
pub fn xor_mul_add_256(acc: &mut [f64], table: &[f64], xor: u8, delta: f64) {
    assert_eq!(acc.len(), 256, "accumulator row must be 256 slots");
    assert_eq!(table.len(), 256, "table must be 256 entries");
    #[cfg(target_arch = "x86_64")]
    if simd_enabled() {
        // SAFETY: avx2 was detected by `simd_enabled`; both slices are
        // exactly 256 long (asserted above).
        unsafe { xor_mul_add_256_avx2(acc, table, xor, delta) };
        return;
    }
    xor_mul_add_256_scalar(acc, table, xor, delta);
}

/// The scalar reference loop — also the non-x86 and forced-portable path.
fn xor_mul_add_256_scalar(acc: &mut [f64], table: &[f64], xor: u8, delta: f64) {
    let xor = xor as usize;
    for (m, slot) in acc.iter_mut().enumerate() {
        *slot += table[xor ^ m] * delta;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn xor_mul_add_256_avx2(acc: &mut [f64], table: &[f64], xor: u8, delta: f64) {
    use std::arch::x86_64::*;
    let xor = xor as usize;
    let hi = xor >> 2;
    let d = _mm256_set1_pd(delta);
    // SAFETY: (covers every intrinsic below) block indices are `q ^ hi < 64`
    // and `q < 64`, so all 4-element f64 loads/stores stay inside the two
    // 256-entry slices; avx2 was verified by the caller.
    unsafe {
        for q in 0..64usize {
            let mut v = _mm256_loadu_pd(table.as_ptr().add((q ^ hi) * 4));
            // The in-block source order is `t ^ (xor & 3)`: bit 1 swaps the
            // 128-bit halves, bit 0 swaps the elements within each half.
            if xor & 2 != 0 {
                v = _mm256_permute2f128_pd(v, v, 0x01);
            }
            if xor & 1 != 0 {
                v = _mm256_permute_pd(v, 0b0101);
            }
            let dst = acc.as_mut_ptr().add(q * 4);
            // Separate multiply and add on purpose: FMA would single-round
            // and break bit-identity with the scalar path.
            let sum = _mm256_add_pd(_mm256_loadu_pd(dst), _mm256_mul_pd(v, d));
            _mm256_storeu_pd(dst, sum);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(seed: u64) -> Vec<f64> {
        (0..256u64)
            .map(|i| {
                let mut x = i.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(seed);
                x ^= x >> 33;
                (x % 10_000) as f64 / 977.0 - 4.0
            })
            .collect()
    }

    #[test]
    fn kernel_matches_scalar_reference_for_every_xor() {
        let t = table(7);
        for xor in 0..=255u8 {
            let mut got = table(99);
            let mut want = got.clone();
            xor_mul_add_256(&mut got, &t, xor, -1.25);
            xor_mul_add_256_scalar(&mut want, &t, xor, -1.25);
            // Bit-level comparison, not epsilon: the contract is identity.
            let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
            let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
            assert_eq!(got_bits, want_bits, "xor {xor}");
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_kernel_matches_scalar_bitwise() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        let t = table(3);
        for xor in [0u8, 1, 2, 3, 4, 0x5A, 0xFF] {
            for delta in [0.0, -0.0, 2.5, -1.0e-12, 1.0e300] {
                let mut got = table(11);
                let mut want = got.clone();
                // SAFETY: avx2 detected above; slices are 256 long.
                unsafe { xor_mul_add_256_avx2(&mut got, &t, xor, delta) };
                xor_mul_add_256_scalar(&mut want, &t, xor, delta);
                let got_bits: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                let want_bits: Vec<u64> = want.iter().map(|v| v.to_bits()).collect();
                assert_eq!(got_bits, want_bits, "xor {xor} delta {delta}");
            }
        }
    }
}
