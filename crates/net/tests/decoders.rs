//! Seeded arbitrary-byte inputs through every decoder of the network
//! layer (DCOMP, LZ, LIC, RC and MA→RC): each must return or refuse
//! without a panic, and allocate no more than a bound stated from its
//! input (or, for DCOMP, from the output it holds), so a forged packet
//! cannot make a node allocate what it was never sent.

use scalo_alloc::{measure, CountingAllocator};
use scalo_net::compress::{dcomp_decompress_into, lz_decompress, MAX_DCOMP_OUTPUT};
use scalo_net::halo_comp::{lic_decompress, ma_rc_decompress, rc_decompress};
use std::panic::{catch_unwind, AssertUnwindSafe};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// Inputs per decoder.
const CASES: u64 = 20_000;

/// SplitMix64: the seeded byte source.
struct Bytes(u64);

impl Bytes {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> usize {
        (self.next() % n) as usize
    }

    fn fill(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next() as u8).collect()
    }
}

/// Runs `decode` on `input` without letting a panic escape, and returns
/// what it returned with the bytes it allocated on this thread.
fn run<R>(what: &str, input: &[u8], decode: impl FnOnce() -> R) -> (R, u64) {
    match catch_unwind(AssertUnwindSafe(|| measure(decode))) {
        Ok((result, counts)) => (result, counts.bytes),
        Err(_) => panic!("{what} panicked on {input:?}"),
    }
}

/// DCOMP: half the inputs are arbitrary bytes, half a small dictionary
/// followed by arbitrary γ bits (so most reach the run decoder). The
/// buffer never holds more than `MAX_DCOMP_OUTPUT` bytes and grows to at
/// most twice what it holds (8 bytes at least), and a stream asking for
/// a run past the limit is refused before anything is allocated.
#[test]
fn dcomp_refuses_or_decodes_within_twice_its_output() {
    let mut bytes = Bytes(0xdc0);
    for case in 0..CASES {
        let input = if case % 2 == 0 {
            let len = bytes.below(48);
            bytes.fill(len)
        } else {
            let dict_len = bytes.below(8);
            let mut input = vec![dict_len as u8, 0];
            let len = dict_len + bytes.below(24);
            input.extend(bytes.fill(len));
            input
        };
        let mut out = Vec::new();
        let (_, allocated) = run("dcomp", &input, || dcomp_decompress_into(&input, &mut out));
        assert!(out.len() <= MAX_DCOMP_OUTPUT, "{input:?}");
        let bound = (2 * out.len()).max(8) as u64;
        assert!(
            allocated <= bound,
            "{input:?}: {allocated} B for {} decoded",
            out.len()
        );
    }
    // A run of 2^25 (a 25-zero γ code), and one of 2^32 - 1 (32 zeros,
    // then 32 ones): both past the limit, refused with nothing allocated.
    for input in [
        &[1, 0, 0xAA, 0x80, 0, 0, 0x20, 0, 0, 0][..],
        &[1, 0, 0xAA, 0x80, 0, 0, 0, 0x7F, 0xFF, 0xFF, 0xFF, 0xC0][..],
    ] {
        let mut out = Vec::new();
        let (ok, allocated) = run("dcomp", input, || dcomp_decompress_into(input, &mut out));
        assert!(!ok, "{input:?} decoded");
        assert_eq!(allocated, 0, "{input:?}");
    }
}

/// LZ: a 4-byte copy token yields at most 255 bytes and a 2-byte literal
/// one, so the output is at most 64 bytes an input byte and the buffer
/// at most twice that (8 bytes at least).
#[test]
fn lz_allocates_at_most_twice_its_largest_output() {
    let mut bytes = Bytes(0x1f);
    for case in 0..CASES {
        let len = bytes.below(64);
        let input = if case % 2 == 0 {
            bytes.fill(len)
        } else {
            // Mostly well-formed tokens, with arbitrary offsets.
            bytes.fill(len).iter().map(|&b| b % 3).collect()
        };
        let (_, allocated) = run("lz", &input, || lz_decompress(&input));
        let bound = (128 * input.len()).max(8) as u64;
        assert!(allocated <= bound, "{input:?}: {allocated} B");
    }
}

/// LIC: every varint is at least one byte and decodes to one `i16`, so
/// the buffer holds at most twice the input's length in samples (4
/// samples at least).
#[test]
fn lic_allocates_at_most_twice_its_largest_output() {
    let mut bytes = Bytes(0x11c);
    for _ in 0..CASES {
        let len = bytes.below(64);
        let input = bytes.fill(len);
        let (_, allocated) = run("lic", &input, || lic_decompress(&input));
        let bound = (4 * input.len()).max(8) as u64;
        assert!(allocated <= bound, "{input:?}: {allocated} B");
    }
}

/// RC and MA→RC decode exactly the length the caller states, whatever
/// the bytes: the output plus one 256-entry model tree (2-byte entries,
/// under a 24-byte `Vec` header) per context.
#[test]
fn range_decoders_allocate_the_stated_length_and_their_models() {
    let mut bytes = Bytes(0x2c);
    for case in 0..CASES / 4 {
        let len = bytes.below(48);
        let input = bytes.fill(len);
        let stated = bytes.below(512);
        let ma = case % 2 == 1;
        let (out, allocated) = run("rc", &input, || {
            if ma {
                ma_rc_decompress(&input, stated)
            } else {
                rc_decompress(&input, stated)
            }
        });
        assert_eq!(out.len(), stated);
        let contexts = if ma { 256 } else { 1 };
        let bound = (stated + contexts * (256 * 2 + 24)) as u64;
        assert!(allocated <= bound, "{input:?} len {stated}: {allocated} B");
    }
}
