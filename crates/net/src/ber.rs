//! Bit-error injection (the Figure 12 / Figure 15b methodology).
//!
//! "We simulate bit-error ratios (BERs) with uniformly-random bit flips in
//! packet headers/data" (§6.6). Flips are injected with geometric skipping
//! so even very low BERs over large byte streams are cheap to simulate.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// The BER operating points the paper evaluates.
pub const BER_POINTS: [f64; 3] = [1e-4, 1e-5, 1e-6];

/// A deterministic bit-error channel.
#[derive(Debug, Clone)]
pub struct ErrorChannel {
    ber: f64,
    rng: ChaCha8Rng,
}

impl ErrorChannel {
    /// A channel flipping each transmitted bit independently with
    /// probability `ber`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ber < 1`.
    pub fn new(ber: f64, seed: u64) -> Self {
        assert!((0.0..1.0).contains(&ber), "BER {ber} out of [0, 1)");
        Self {
            ber,
            rng: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// The configured bit-error ratio.
    pub fn ber(&self) -> f64 {
        self.ber
    }

    /// Changes the bit-error ratio in place (interference spikes, fault
    /// injection). The RNG stream continues uninterrupted so runs remain
    /// deterministic across mid-run escalations.
    ///
    /// # Panics
    ///
    /// Panics unless `0 ≤ ber < 1`.
    pub fn set_ber(&mut self, ber: f64) {
        assert!((0.0..1.0).contains(&ber), "BER {ber} out of [0, 1)");
        self.ber = ber;
    }

    /// The RNG stream position in 32-bit words: with [`Self::ber`], the
    /// whole state of the channel.
    pub fn word_pos(&self) -> u128 {
        self.rng.get_word_pos()
    }

    /// Moves the RNG stream to word `pos`, so the channel draws what a
    /// channel that had consumed `pos` words would (a restored session
    /// resumes its channel this way).
    pub fn seek(&mut self, pos: u128) {
        self.rng.set_word_pos(pos);
    }

    /// Transmits `data` through the channel, returning the (possibly
    /// corrupted) bytes and the number of flipped bits.
    pub fn transmit(&mut self, data: &[u8]) -> (Vec<u8>, usize) {
        let mut out = Vec::with_capacity(data.len());
        let flips = self.transmit_into(data, &mut out);
        (out, flips)
    }

    /// [`ErrorChannel::transmit`] written into a caller-provided buffer
    /// (cleared first), returning the number of flipped bits. Consumes the
    /// RNG stream identically to the allocating form, so runs stay
    /// deterministic whichever entry point is used; allocation-free once
    /// `out` has capacity for `data.len()` bytes.
    pub fn transmit_into(&mut self, data: &[u8], out: &mut Vec<u8>) -> usize {
        out.clear();
        out.extend_from_slice(data);
        if self.ber == 0.0 || data.is_empty() {
            return 0;
        }
        let total_bits = data.len() * 8;
        let mut flips = 0;
        // Geometric skipping: distance to next flip ~ Geom(ber).
        let log_q = (1.0 - self.ber).ln();
        let mut pos = 0usize;
        loop {
            let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
            let skip = (u.ln() / log_q).floor() as usize;
            pos = match pos.checked_add(skip) {
                Some(p) => p,
                None => break,
            };
            if pos >= total_bits {
                break;
            }
            out[pos / 8] ^= 1 << (pos % 8);
            flips += 1;
            pos += 1;
        }
        flips
    }

    /// Probability that a frame of `bits` bits arrives with at least one
    /// error: `1 − (1 − ber)^bits` (the analytic curve behind Figure 12).
    pub fn frame_error_probability(ber: f64, bits: usize) -> f64 {
        1.0 - (1.0 - ber).powi(bits as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ber_is_transparent() {
        let mut ch = ErrorChannel::new(0.0, 1);
        let data = vec![0xA5; 64];
        let (out, flips) = ch.transmit(&data);
        assert_eq!(out, data);
        assert_eq!(flips, 0);
    }

    #[test]
    fn flip_rate_matches_ber() {
        let mut ch = ErrorChannel::new(1e-2, 42);
        let data = vec![0u8; 100_000]; // 800k bits
        let (_, flips) = ch.transmit(&data);
        let rate = flips as f64 / 800_000.0;
        assert!((rate - 1e-2).abs() < 2e-3, "measured {rate}");
    }

    #[test]
    fn flips_actually_change_bits() {
        let mut ch = ErrorChannel::new(0.5, 7);
        let data = vec![0u8; 64];
        let (out, flips) = ch.transmit(&data);
        let set_bits: u32 = out.iter().map(|b| b.count_ones()).sum();
        assert_eq!(set_bits as usize, flips);
        assert!(flips > 100, "{flips}");
    }

    #[test]
    fn deterministic_per_seed() {
        let data = vec![0x11; 256];
        let a = ErrorChannel::new(1e-3, 5).transmit(&data);
        let b = ErrorChannel::new(1e-3, 5).transmit(&data);
        assert_eq!(a, b);
    }

    #[test]
    fn set_ber_escalates_mid_stream() {
        let mut ch = ErrorChannel::new(0.0, 3);
        let data = vec![0u8; 4096];
        let (_, flips) = ch.transmit(&data);
        assert_eq!(flips, 0);
        ch.set_ber(1e-2);
        let (_, flips) = ch.transmit(&data);
        assert!(flips > 0, "escalated BER must start flipping bits");
        ch.set_ber(0.0);
        let (_, flips) = ch.transmit(&data);
        assert_eq!(flips, 0, "restored BER must be transparent again");
    }

    #[test]
    #[should_panic(expected = "out of [0, 1)")]
    fn set_ber_rejects_invalid() {
        ErrorChannel::new(0.0, 1).set_ber(1.0);
    }

    #[test]
    fn frame_error_probability_sanity() {
        // 256-byte signal packet at BER 1e-4 → ~19% frame error.
        let p = ErrorChannel::frame_error_probability(1e-4, 2048 + 148);
        assert!(p > 0.15 && p < 0.25, "{p}");
        // Tiny hash packet at BER 1e-6 → ~0.02%.
        let p = ErrorChannel::frame_error_probability(1e-6, 148 + 16 * 8);
        assert!(p < 1e-3);
    }
}
