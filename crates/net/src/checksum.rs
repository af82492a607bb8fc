//! The Internet checksum (RFC 1071) and the UDP pseudo-header variants.
//!
//! The one Tango header that carries a checksum (UDP) goes through these
//! routines, so a single well-tested implementation covers the data plane.
//!
//! The sum runs eight bytes at a time. Each little-endian `u64` word
//! (`le_words`) is added to a `u64` accumulator with end-around carry
//! (`word_step`). Since 2^64 − 1 is a multiple of 0xffff, that is the
//! RFC's 16-bit one's-complement sum, only folded later; loading
//! little-endian swaps the two bytes of every 16-bit lane, and
//! [`Checksum::finish`] swaps them back once (RFC 1071 §2(B)). The word
//! loads and the word step are shared with
//! [`crate::siphash::siphash24_summing`], which feeds the same words to
//! SipHash and to the sum, so an authenticated packet is read once for
//! both.

use std::net::Ipv6Addr;

/// Incrementally computable RFC 1071 checksum state.
///
/// Sum data in any chunking with [`Checksum::add`]; the one's-complement
/// fold happens in [`Checksum::finish`]. Chunks of any length, odd ones
/// included, may follow each other: the state tracks the parity of the
/// byte count so far and shifts a chunk that starts at an odd offset
/// into place.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checksum {
    /// One's-complement sum (mod 2^64 − 1) of the little-endian 64-bit
    /// words added so far, byte positions relative to the first byte.
    sum: u64,
    /// An odd number of bytes has been added so far.
    odd: bool,
}

/// The word step: add one 64-bit word to a one's-complement
/// accumulator, carrying the overflow back into bit 0. Never overflows
/// (`acc + word − 2^64 + 1 ≤ 2^64 − 1`), and a nonzero accumulator stays
/// nonzero, so a one's-complement zero is never confused with a sum of
/// nothing.
#[inline(always)]
pub(crate) fn word_step(acc: u64, word: u64) -> u64 {
    let (sum, carry) = acc.overflowing_add(word);
    sum + u64::from(carry)
}

/// `data` as little-endian 64-bit words, and the 0–7 bytes after the
/// last whole one. `chunks_exact(8)` yields 8-byte slices only, so the
/// conversion never drops a word.
#[inline(always)]
pub(crate) fn le_words(data: &[u8]) -> (impl Iterator<Item = u64> + '_, &[u8]) {
    let words = data.chunks_exact(8);
    let tail = words.remainder();
    let words = words.filter_map(|w| w.try_into().ok().map(u64::from_le_bytes));
    (words, tail)
}

/// The last 0–7 bytes of a buffer as a little-endian word, zero-padded
/// on the right (the RFC's odd-byte padding, and SipHash's final block
/// before the length byte).
#[inline(always)]
pub(crate) fn tail_word(tail: &[u8]) -> u64 {
    tail.iter()
        .enumerate()
        .fold(0, |word, (i, &b)| word | u64::from(b) << (8 * i))
}

impl Checksum {
    /// Fresh state (sum = 0).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add the partial sum of a `len`-byte range summed from its own
    /// first byte ([`word_step`] over its words, then [`tail_word`]).
    /// After an odd byte count that range starts at an odd offset, where
    /// every byte's weight is 2^8 times its weight from an even one:
    /// rotating the partial sum left by 8 is that multiplication mod
    /// 2^64 − 1.
    #[inline(always)]
    pub(crate) fn add_partial(&mut self, partial: u64, len: usize) {
        let partial = if self.odd {
            partial.rotate_left(8)
        } else {
            partial
        };
        self.sum = word_step(self.sum, partial);
        self.odd ^= len % 2 == 1;
    }

    /// Add a byte slice to the running sum, big-endian 16-bit words.
    /// A trailing odd byte is padded with zero on the right (and the
    /// next chunk, if any, starts in the padding).
    pub fn add(&mut self, data: &[u8]) {
        let (words, tail) = le_words(data);
        let partial = words.fold(0, word_step);
        self.add_partial(word_step(partial, tail_word(tail)), data.len());
    }

    /// Add a 32-bit value: the next four bytes, big-endian.
    pub fn add_u32(&mut self, value: u32) {
        self.add_partial(u64::from(value.swap_bytes()), 4);
    }

    /// Fold carries, undo the little-endian byte order and return the
    /// one's-complement checksum.
    pub fn finish(self) -> u16 {
        let mut sum = self.sum;
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16).swap_bytes()
    }
}

/// One-shot checksum of a contiguous buffer.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// Verify that a buffer containing an embedded checksum sums to zero.
/// (A correct Internet checksum makes the whole region sum to `0xffff`
/// before complement, i.e. `checksum() == 0`.)
pub fn verify(data: &[u8]) -> bool {
    checksum(data) == 0
}

/// UDP/TCP pseudo-header sum for IPv6 (RFC 8200 §8.1).
pub fn pseudo_header_v6(src: Ipv6Addr, dst: Ipv6Addr, next_header: u8, length: u32) -> Checksum {
    let mut c = Checksum::new();
    c.add(&src.octets());
    c.add(&dst.octets());
    c.add_u32(length);
    c.add_u32(u32::from(next_header));
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// RFC 1071 word by word: big-endian 16-bit words (the odd byte
    /// padded on the right) summed into a `u64`, then folded.
    fn reference(data: &[u8]) -> u16 {
        let mut sum: u64 = data
            .chunks(2)
            .map(|c| u64::from(c[0]) << 8 | u64::from(c.get(1).copied().unwrap_or(0)))
            .sum();
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn rfc1071_example() {
        // The classic worked example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        // Sum = 0x0001 + 0xf203 + 0xf4f5 + 0xf6f7 = 0x2ddf0 -> fold -> 0xddf2
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length_padded() {
        assert_eq!(checksum(&[0xab]), !0xab00);
        assert_eq!(checksum(&[0x12, 0x34, 0x56]), {
            let sum = 0x1234u32 + 0x5600;
            !((sum & 0xffff) as u16)
        });
    }

    #[test]
    fn empty_is_ffff() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn verify_detects_single_bit_flip() {
        let mut data = vec![0x45, 0x00, 0x00, 0x1c, 0x12, 0x34, 0x00, 0x00, 0x40, 0x11];
        let c = checksum(&data);
        data.extend_from_slice(&c.to_be_bytes());
        assert!(verify(&data));
        data[0] ^= 0x01;
        assert!(!verify(&data));
    }

    #[test]
    fn chunked_equals_oneshot() {
        let data: Vec<u8> = (0u16..200).map(|i| (i * 7 % 251) as u8).collect();
        let mut c = Checksum::new();
        c.add(&data[..100]);
        c.add(&data[100..]);
        assert_eq!(c.finish(), checksum(&data));
    }

    #[test]
    fn large_input_does_not_overflow() {
        // 256 KiB of 0xff: 131 072 words of 0xffff, past where a `u32`
        // sum of 16-bit words wraps (≈ 128 KiB).
        let data = vec![0xffu8; 256 * 1024];
        assert_eq!(checksum(&data), reference(&data));
        let mut c = Checksum::new();
        for chunk in data.chunks(4099) {
            c.add(chunk);
        }
        assert_eq!(c.finish(), reference(&data));
    }

    #[test]
    fn words_continue_after_an_odd_chunk() {
        let data = [0x12u8, 0x34, 0x56, 0x78, 0x9a];
        let mut c = Checksum::new();
        c.add(&data[..1]);
        c.add(&[0x34, 0x56]);
        c.add(&data[3..]);
        assert_eq!(c.finish(), reference(&data));
        let mut c = Checksum::new();
        c.add(&data[..3]);
        c.add(&[0x78, 0x9a]);
        assert_eq!(c.finish(), reference(&data));
    }

    proptest! {
        /// Any chunking, odd chunks anywhere, sums to the one-shot
        /// checksum and to the word-by-word reference.
        #[test]
        fn chunked_at_random_splits_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
            cuts in proptest::collection::vec(any::<proptest::sample::Index>(), 0..12),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|i| i.index(data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Checksum::new();
            let mut from = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                c.add(&data[from..cut]);
                from = cut;
            }
            let want = reference(&data);
            prop_assert_eq!(checksum(&data), want);
            prop_assert_eq!(c.finish(), want);
        }
    }

    #[test]
    fn pseudo_header_v6_sums_to_zero_after_fill() {
        let src: Ipv6Addr = "2001:db8::1".parse().unwrap();
        let dst: Ipv6Addr = "2001:db8::2".parse().unwrap();
        let payload = b"tango";
        let udp_len = 8 + payload.len() as u32;
        let mut udp = vec![0x04, 0x00, 0x08, 0x00, 0x00, udp_len as u8, 0x00, 0x00];
        udp.extend_from_slice(payload);
        let mut c = pseudo_header_v6(src, dst, 17, udp_len);
        c.add(&udp);
        let ck = c.finish();
        udp[6..8].copy_from_slice(&ck.to_be_bytes());
        let mut v = pseudo_header_v6(src, dst, 17, udp_len);
        v.add(&udp);
        assert_eq!(v.finish(), 0);
    }
}
