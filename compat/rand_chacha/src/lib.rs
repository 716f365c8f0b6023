//! Offline stand-in for `rand_chacha`: a real ChaCha8 stream cipher used
//! as a deterministic RNG.
//!
//! The generator is a faithful ChaCha core (quarter-round network, 8
//! rounds, 64-bit block counter) so its statistical quality matches what
//! the workspace's seeded experiments expect. Stream values are *not*
//! bit-compatible with the real `rand_chacha` crate — every consumer in
//! this repo only relies on determinism per seed, which holds.

use rand::{RngCore, SeedableRng};

const CHACHA_ROUNDS: usize = 8;

/// A deterministic ChaCha8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words 0..8 of the ChaCha state (words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (words 12..14).
    counter: u64,
    /// Buffered keystream block.
    block: [u32; 16],
    /// Next unread word index in `block` (16 = exhausted).
    index: usize,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    /// The "expand 32-byte k" constants.
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    fn refill(&mut self) {
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&Self::SIGMA);
        s[4..12].copy_from_slice(&self.key);
        s[12] = self.counter as u32;
        s[13] = (self.counter >> 32) as u32;
        s[14] = 0;
        s[15] = 0;
        let input = s;
        for _ in 0..CHACHA_ROUNDS / 2 {
            // Column round.
            quarter_round(&mut s, 0, 4, 8, 12);
            quarter_round(&mut s, 1, 5, 9, 13);
            quarter_round(&mut s, 2, 6, 10, 14);
            quarter_round(&mut s, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut s, 0, 5, 10, 15);
            quarter_round(&mut s, 1, 6, 11, 12);
            quarter_round(&mut s, 2, 7, 8, 13);
            quarter_round(&mut s, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        self.block = s;
        self.index = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    /// The stream position in 32-bit words consumed since seeding
    /// (mirrors `rand_chacha`'s `get_word_pos`). Two generators seeded
    /// identically that report the same word position have produced the
    /// same draw sequence — the property snapshot/replay verification
    /// relies on.
    pub fn get_word_pos(&self) -> u128 {
        // `counter` is incremented when a block is buffered, so the
        // words consumed are everything before the buffered block plus
        // the consumed prefix of it. A fresh generator (counter 0,
        // index 16) has consumed nothing.
        (self.counter as u128) * 16 + self.index as u128 - 16
    }

    /// Moves the stream to word `pos` (mirrors `rand_chacha`'s
    /// `set_word_pos`): block `pos / 16`, word `pos % 16` within it. The
    /// next draw is the one a generator that had consumed `pos` words
    /// would make, so a reader can jump to any sample of a stream whose
    /// draw layout it knows, forwards or backwards, without drawing the
    /// words in between.
    pub fn set_word_pos(&mut self, pos: u128) {
        self.counter = (pos / 16) as u64;
        self.refill();
        self.index = (pos % 16) as usize;
    }
}

impl RngCore for ChaCha8Rng {
    fn next_u32(&mut self) -> u32 {
        if self.index >= 16 {
            self.refill();
        }
        let w = self.block[self.index];
        self.index += 1;
        w
    }

    fn next_u64(&mut self) -> u64 {
        let lo = self.next_u32() as u64;
        let hi = self.next_u32() as u64;
        (hi << 32) | lo
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let b = self.next_u32().to_le_bytes();
            let n = chunk.len();
            chunk.copy_from_slice(&b[..n]);
        }
    }
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut key = [0u32; 8];
        for (i, word) in key.iter_mut().enumerate() {
            *word = u32::from_le_bytes([
                seed[4 * i],
                seed[4 * i + 1],
                seed[4 * i + 2],
                seed[4 * i + 3],
            ]);
        }
        Self {
            key,
            counter: 0,
            block: [0; 16],
            index: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams should be unrelated, {same} collisions");
    }

    #[test]
    fn unit_floats_look_uniform() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| rng.gen::<f64>()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn seeking_matches_drawing_through() {
        let mut through = ChaCha8Rng::seed_from_u64(11);
        let words: Vec<u32> = (0..96).map(|_| through.next_u32()).collect();
        let mut seek = ChaCha8Rng::seed_from_u64(11);
        // In-block, block edges, a multi-block jump, then backwards.
        for pos in [0usize, 15, 16, 17, 70, 3, 48] {
            seek.set_word_pos(pos as u128);
            assert_eq!(seek.get_word_pos(), pos as u128);
            let got: Vec<u32> = (0..20).map(|_| seek.next_u32()).collect();
            assert_eq!(got, words[pos..pos + 20], "seek to word {pos}");
            assert_eq!(seek.get_word_pos(), pos as u128 + 20);
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut buf = [0u8; 7];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
