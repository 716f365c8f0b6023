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

/// Keystream blocks one refill computes.
const BLOCKS: usize = 4;

/// Keystream words one refill buffers.
const BUFFER_WORDS: usize = 16 * BLOCKS;

/// One ChaCha state word across the [`BLOCKS`] blocks of a refill.
type Lanes = [u32; BLOCKS];

/// A deterministic ChaCha8 random number generator.
#[derive(Debug, Clone)]
pub struct ChaCha8Rng {
    /// Key words 0..8 of the ChaCha state (words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (words 12..14) of the block after the
    /// buffered ones.
    counter: u64,
    /// Buffered keystream: [`BLOCKS`] consecutive blocks, in order.
    buffer: [u32; BUFFER_WORDS],
    /// Next unread word index in `buffer` (`BUFFER_WORDS` = exhausted).
    index: usize,
}

/// One quarter round on words `a`, `b`, `c`, `d` of a word-major state,
/// with `add` and `xor_rotate::<L, R>` (`(x ^ y) <<< L`, `R = 32 - L`)
/// the lane operations.
macro_rules! quarter_round {
    ($s:ident, $add:ident, $xor_rotate:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
        $s[$a] = $add($s[$a], $s[$b]);
        $s[$d] = $xor_rotate::<16, 16>($s[$d], $s[$a]);
        $s[$c] = $add($s[$c], $s[$d]);
        $s[$b] = $xor_rotate::<12, 20>($s[$b], $s[$c]);
        $s[$a] = $add($s[$a], $s[$b]);
        $s[$d] = $xor_rotate::<8, 24>($s[$d], $s[$a]);
        $s[$c] = $add($s[$c], $s[$d]);
        $s[$b] = $xor_rotate::<7, 25>($s[$b], $s[$c]);
    };
}

/// The ChaCha8 keystream of the blocks whose input states `$input`
/// holds word-major: the rounds, then the input added back.
macro_rules! keystream {
    ($input:ident, $add:ident, $xor_rotate:ident) => {{
        let mut s = $input;
        for _ in 0..CHACHA_ROUNDS / 2 {
            // Column round.
            quarter_round!(s, $add, $xor_rotate, 0, 4, 8, 12);
            quarter_round!(s, $add, $xor_rotate, 1, 5, 9, 13);
            quarter_round!(s, $add, $xor_rotate, 2, 6, 10, 14);
            quarter_round!(s, $add, $xor_rotate, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round!(s, $add, $xor_rotate, 0, 5, 10, 15);
            quarter_round!(s, $add, $xor_rotate, 1, 6, 11, 12);
            quarter_round!(s, $add, $xor_rotate, 2, 7, 8, 13);
            quarter_round!(s, $add, $xor_rotate, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(&$input) {
            *out = $add(*out, *inp);
        }
        s
    }};
}

/// The keystream of the [`BLOCKS`] blocks whose input states `input`
/// holds word-major, each lane one block.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
fn keystream(input: [Lanes; 16]) -> [Lanes; 16] {
    // SAFETY: the build targets SSE2 (part of the x86_64 baseline), so
    // every CPU that runs this code has it.
    unsafe { sse2::keystream(input) }
}

/// The keystream of the [`BLOCKS`] blocks whose input states `input`
/// holds word-major, each lane one block.
#[cfg(not(all(target_arch = "x86_64", target_feature = "sse2")))]
fn keystream(input: [Lanes; 16]) -> [Lanes; 16] {
    portable::keystream(input)
}

/// The lane operations on `__m128i`: one SSE2 instruction per step over
/// the four blocks. LLVM does not vectorize the portable lane arrays
/// (its SLP pass leaves the rounds scalar), so the vector form is
/// written out.
#[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
mod sse2 {
    use super::{Lanes, CHACHA_ROUNDS};
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_or_si128, _mm_slli_epi32, _mm_srli_epi32, _mm_xor_si128,
    };

    #[inline]
    #[target_feature(enable = "sse2")]
    fn add(x: __m128i, y: __m128i) -> __m128i {
        _mm_add_epi32(x, y)
    }

    #[inline]
    #[target_feature(enable = "sse2")]
    fn xor_rotate<const L: i32, const R: i32>(x: __m128i, y: __m128i) -> __m128i {
        let v = _mm_xor_si128(x, y);
        _mm_or_si128(_mm_slli_epi32::<L>(v), _mm_srli_epi32::<R>(v))
    }

    #[target_feature(enable = "sse2")]
    pub(super) fn keystream(input: [Lanes; 16]) -> [Lanes; 16] {
        // SAFETY: `[u32; 4]` and `__m128i` are both 16 plain bytes, and
        // every bit pattern is a valid value of either.
        let input: [__m128i; 16] = unsafe { std::mem::transmute(input) };
        let out = keystream!(input, add, xor_rotate);
        // SAFETY: as above.
        unsafe { std::mem::transmute::<[__m128i; 16], [Lanes; 16]>(out) }
    }
}

/// The lane operations on plain arrays, for builds without SSE2 (and as
/// the check of the SSE2 form in tests).
#[cfg(any(test, not(all(target_arch = "x86_64", target_feature = "sse2"))))]
mod portable {
    use super::{Lanes, CHACHA_ROUNDS};

    #[inline(always)]
    fn add(x: Lanes, y: Lanes) -> Lanes {
        std::array::from_fn(|j| x[j].wrapping_add(y[j]))
    }

    #[inline(always)]
    fn xor_rotate<const L: u32, const R: u32>(x: Lanes, y: Lanes) -> Lanes {
        std::array::from_fn(|j| {
            let v = x[j] ^ y[j];
            (v << L) | (v >> R)
        })
    }

    pub(super) fn keystream(input: [Lanes; 16]) -> [Lanes; 16] {
        keystream!(input, add, xor_rotate)
    }
}

impl ChaCha8Rng {
    /// The "expand 32-byte k" constants.
    const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

    /// Buffers blocks `counter..counter + BLOCKS`. The state is held
    /// word-major (`s[word][block]`), so every quarter-round step is one
    /// operation over the four blocks' lanes; each block is the one a
    /// single-block core would compute, its 64-bit counter carrying from
    /// word 12 into word 13.
    fn refill(&mut self) {
        let mut s = [[0u32; BLOCKS]; 16];
        for (lanes, &word) in s.iter_mut().zip(Self::SIGMA.iter().chain(&self.key)) {
            *lanes = [word; BLOCKS];
        }
        s[12] = std::array::from_fn(|j| self.counter.wrapping_add(j as u64) as u32);
        s[13] = std::array::from_fn(|j| (self.counter.wrapping_add(j as u64) >> 32) as u32);
        for (w, lanes) in keystream(s).iter().enumerate() {
            for (j, &word) in lanes.iter().enumerate() {
                self.buffer[16 * j + w] = word;
            }
        }
        self.index = 0;
        self.counter = self.counter.wrapping_add(BLOCKS as u64);
    }

    /// The stream position in 32-bit words consumed since seeding
    /// (mirrors `rand_chacha`'s `get_word_pos`). Two generators seeded
    /// identically that report the same word position have produced the
    /// same draw sequence — the property snapshot/replay verification
    /// relies on.
    pub fn get_word_pos(&self) -> u128 {
        // `counter` is advanced past the blocks a refill buffers, so the
        // words consumed are everything before the buffered blocks plus
        // the consumed prefix of them. A fresh generator (counter 0,
        // index `BUFFER_WORDS`) has consumed nothing.
        (self.counter as u128) * 16 + self.index as u128 - BUFFER_WORDS as u128
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
        if self.index >= BUFFER_WORDS {
            self.refill();
        }
        let w = self.buffer[self.index];
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
            buffer: [0; BUFFER_WORDS],
            index: BUFFER_WORDS,
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

    /// Block `counter` of the stream keyed by `key`, computed one block
    /// at a time by a plain scalar ChaCha8 core.
    fn reference_block(key: &[u32; 8], counter: u64) -> [u32; 16] {
        fn qr(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(16);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(12);
            s[a] = s[a].wrapping_add(s[b]);
            s[d] = (s[d] ^ s[a]).rotate_left(8);
            s[c] = s[c].wrapping_add(s[d]);
            s[b] = (s[b] ^ s[c]).rotate_left(7);
        }
        let mut s = [0u32; 16];
        s[..4].copy_from_slice(&ChaCha8Rng::SIGMA);
        s[4..12].copy_from_slice(key);
        s[12] = counter as u32;
        s[13] = (counter >> 32) as u32;
        let input = s;
        for _ in 0..CHACHA_ROUNDS / 2 {
            qr(&mut s, 0, 4, 8, 12);
            qr(&mut s, 1, 5, 9, 13);
            qr(&mut s, 2, 6, 10, 14);
            qr(&mut s, 3, 7, 11, 15);
            qr(&mut s, 0, 5, 10, 15);
            qr(&mut s, 1, 6, 11, 12);
            qr(&mut s, 2, 7, 8, 13);
            qr(&mut s, 3, 4, 9, 14);
        }
        for (out, inp) in s.iter_mut().zip(input.iter()) {
            *out = out.wrapping_add(*inp);
        }
        s
    }

    /// Stream word `pos` by the one-block reference.
    fn reference_word(key: &[u32; 8], pos: u128) -> u32 {
        reference_block(key, (pos / 16) as u64)[(pos % 16) as usize]
    }

    #[test]
    fn four_block_refill_matches_the_one_block_core() {
        let carry = (1u128 << 32) * 16;
        let buffer = BUFFER_WORDS as u128;
        for seed in [0u64, 11, 0xdead_beef] {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let key = rng.key;
            // Drawing from a fresh generator crosses buffer edges.
            for pos in 0..3 * buffer + 5 {
                assert_eq!(rng.next_u32(), reference_word(&key, pos), "word {pos}");
                assert_eq!(rng.get_word_pos(), pos + 1);
            }
            // Seeks to block edges, the buffer's edge, and around the
            // block counter's carry from word 12 into word 13 (block
            // 2^32), landing there or reaching it by drawing.
            for pos in [
                15,
                16,
                17,
                31,
                buffer - 1,
                buffer,
                buffer + 1,
                2 * buffer - 3,
                carry - 16,
                carry - 1,
                carry,
                carry + 1,
                carry - buffer + 7,
                carry - 3 * 16 - 1,
                carry + buffer - 1,
                3,
            ] {
                rng.set_word_pos(pos);
                assert_eq!(rng.get_word_pos(), pos, "seek to {pos}");
                for k in 0..buffer + 9 {
                    let want = reference_word(&key, pos + 2 * k);
                    let want_hi = reference_word(&key, pos + 2 * k + 1);
                    let want = (u64::from(want_hi) << 32) | u64::from(want);
                    assert_eq!(rng.next_u64(), want, "seek {pos}, draw {k}");
                    assert_eq!(rng.get_word_pos(), pos + 2 * k + 2);
                }
            }
        }
    }

    #[cfg(all(target_arch = "x86_64", target_feature = "sse2"))]
    #[test]
    fn sse2_and_portable_lanes_agree() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..64 {
            let input: [Lanes; 16] =
                std::array::from_fn(|_| std::array::from_fn(|_| rng.next_u32()));
            assert_eq!(keystream(input), portable::keystream(input));
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
