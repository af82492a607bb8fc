//! SipHash-2-4 — the keyed PRF behind Tango's authenticated telemetry.
//!
//! §6 of the paper: *"an attacker might try to inject, drop or modify
//! some of the packets used for measurements. In theory, the two Tango
//! end-points can use cryptography to protect the process... none of
//! [the existing work] facilitates the exchange of arbitrary measurement
//! information or is made to work under the resource constraints of
//! typical programmable switches."*
//!
//! SipHash-2-4 (Aumasson & Bernstein, 2012) is the natural fit the paper
//! alludes to: a 64-bit keyed MAC designed for short inputs, computable
//! with adds/rotates/xors only — the exact operation set a programmable
//! switch or eBPF program offers. Implemented from the specification;
//! verified against the reference test vectors below.
//!
//! This is a message-authentication code for *integrity*, not a general
//! cryptographic library: it protects Tango's measurement headers from
//! the §6 on-/off-path modification threat. Key distribution is out of
//! scope (the two cooperating edges share a secret out of band).
//!
//! One block loop serves both entry points. [`siphash24_summing`] loads
//! each 8-byte little-endian word once and feeds it to SipHash and to the
//! RFC 1071 sum ([`Checksum`]): SipHash's rounds are one long dependency
//! chain, so the checksum's add-with-carry fills ALU slots that would
//! otherwise sit idle, and an authenticated packet is read once per side
//! instead of twice. [`siphash24`] is the same loop
//! with the sum discarded.

use crate::checksum::{le_words, tail_word, word_step, Checksum};

/// A 128-bit SipHash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SipKey {
    k0: u64,
    k1: u64,
}

impl SipKey {
    /// Construct from 16 little-endian key bytes.
    pub fn from_bytes(bytes: &[u8; 16]) -> Self {
        let k = u128::from_le_bytes(*bytes);
        SipKey {
            k0: k as u64,
            k1: (k >> 64) as u64,
        }
    }

    /// Construct from two 64-bit words.
    pub fn from_words(k0: u64, k1: u64) -> Self {
        SipKey { k0, k1 }
    }
}

/// The four-word SipHash state.
struct State {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

impl State {
    fn new(key: &SipKey) -> Self {
        State {
            v0: key.k0 ^ 0x736f_6d65_7073_6575,
            v1: key.k1 ^ 0x646f_7261_6e64_6f6d,
            v2: key.k0 ^ 0x6c79_6765_6e65_7261,
            v3: key.k1 ^ 0x7465_6462_7974_6573,
        }
    }

    #[inline(always)]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13);
        self.v1 ^= self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16);
        self.v3 ^= self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21);
        self.v3 ^= self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17);
        self.v1 ^= self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    /// Absorb one message word: the two compression rounds of -2-4.
    #[inline(always)]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.round();
        self.v0 ^= m;
    }

    /// The four finalization rounds of -2-4.
    #[inline(always)]
    fn finalize(mut self) -> u64 {
        self.v2 ^= 0xff;
        for _ in 0..4 {
            self.round();
        }
        self.v0 ^ self.v1 ^ self.v2 ^ self.v3
    }
}

/// SipHash-2-4 of `data` under `key` (64-bit tag), adding the RFC 1071
/// sum of the same bytes to `sum` in the same pass.
///
/// `sum` may hold any prefix already, odd-length included; afterwards it
/// is exactly as if [`Checksum::add`]`(data)` had been called.
#[inline]
pub fn siphash24_summing(key: &SipKey, data: &[u8], sum: &mut Checksum) -> u64 {
    let mut state = State::new(key);
    let (words, tail) = le_words(data);
    let mut partial = 0;
    for m in words {
        partial = word_step(partial, m);
        state.compress(m);
    }
    let tail = tail_word(tail);
    sum.add_partial(word_step(partial, tail), data.len());
    // Final block: remaining bytes plus the length in the top byte.
    state.compress(tail | (data.len() as u64) << 56);
    state.finalize()
}

/// SipHash-2-4 of `data` under `key` (64-bit tag).
pub fn siphash24(key: &SipKey, data: &[u8]) -> u64 {
    siphash24_summing(key, data, &mut Checksum::new())
}

/// Constant-time-ish tag comparison (single branch on the folded result,
/// so no early-exit timing channel over tag bytes).
pub fn tags_equal(a: u64, b: u64) -> bool {
    (a ^ b) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference test vectors from the SipHash paper's appendix
    /// (key = 00 01 02 ... 0f, messages = empty, 00, 00 01, ...).
    const VECTORS: [u64; 16] = [
        0x726f_db47_dd0e_0e31,
        0x74f8_39c5_93dc_67fd,
        0x0d6c_8009_d9a9_4f5a,
        0x8567_6696_d7fb_7e2d,
        0xcf27_94e0_2771_87b7,
        0x1876_5564_cd99_a68d,
        0xcbc9_466e_58fe_e3ce,
        0xab02_00f5_8b01_d137,
        0x93f5_f579_9a93_2462,
        0x9e00_82df_0ba9_e4b0,
        0x7a5d_bbc5_94dd_b9f3,
        0xf4b3_2f46_226b_ada7,
        0x751e_8fbc_860e_e5fb,
        0x14ea_5627_c084_3d90,
        0xf723_ca90_8e7a_f2ee,
        0xa129_ca61_49be_45e5,
    ];

    fn reference_key() -> SipKey {
        let mut k = [0u8; 16];
        for (i, b) in k.iter_mut().enumerate() {
            *b = i as u8;
        }
        SipKey::from_bytes(&k)
    }

    #[test]
    fn reference_vectors() {
        let key = reference_key();
        for (len, want) in VECTORS.iter().enumerate() {
            let msg: Vec<u8> = (0..len as u8).collect();
            assert_eq!(siphash24(&key, &msg), *want, "message length {len}");
        }
    }

    #[test]
    fn key_sensitivity() {
        let a = siphash24(&SipKey::from_words(1, 2), b"tango");
        let b = siphash24(&SipKey::from_words(1, 3), b"tango");
        let c = siphash24(&SipKey::from_words(2, 2), b"tango");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn message_sensitivity_every_bit() {
        let key = reference_key();
        let msg = [0x5au8; 28]; // one Tango header + seq-ish
        let base = siphash24(&key, &msg);
        for i in 0..msg.len() {
            for bit in 0..8 {
                let mut m = msg;
                m[i] ^= 1 << bit;
                assert_ne!(siphash24(&key, &m), base, "byte {i} bit {bit}");
            }
        }
    }

    #[test]
    fn deterministic() {
        let key = SipKey::from_words(0xdead, 0xbeef);
        assert_eq!(siphash24(&key, b"abc"), siphash24(&key, b"abc"));
    }

    #[test]
    fn word_and_byte_constructors_agree() {
        let bytes: [u8; 16] = [
            1, 0, 0, 0, 0, 0, 0, 0, // k0 = 1 LE
            2, 0, 0, 0, 0, 0, 0, 0, // k1 = 2 LE
        ];
        assert_eq!(SipKey::from_bytes(&bytes), SipKey::from_words(1, 2));
    }

    #[test]
    fn summing_kernel_matches_two_passes() {
        // Every length across the word boundary, after an even and an
        // odd prefix already in the sum.
        let key = reference_key();
        let data: Vec<u8> = (0..200u32).map(|i| (i * 37 % 253) as u8).collect();
        for len in 0..data.len() {
            for prefix in [&[][..], &[0xa5][..], &[1, 2, 3, 4, 5, 6][..]] {
                let mut fused = Checksum::new();
                fused.add(prefix);
                let tag = siphash24_summing(&key, &data[..len], &mut fused);
                let mut plain = Checksum::new();
                plain.add(prefix);
                plain.add(&data[..len]);
                assert_eq!(tag, siphash24(&key, &data[..len]), "len {len}");
                assert_eq!(
                    fused.finish(),
                    plain.finish(),
                    "len {len} prefix {prefix:?}"
                );
            }
        }
    }

    #[test]
    fn tags_equal_works() {
        assert!(tags_equal(7, 7));
        assert!(!tags_equal(7, 8));
    }
}
