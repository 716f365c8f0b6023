//! Hash compression: the HFREQ → HCOMP chain and the DCOMP decoder, plus
//! an LZ77-style baseline.
//!
//! "The HFREQ PE collects each node's hash values and sorts them by
//! frequency of occurrence. The HCOMP PE applies multiple compression
//! algorithms serially. It first encodes the hashes with dictionary
//! coding, then uses run-length encoding of the dictionary indexes, and
//! finally uses Elias-γ coding on the run-length counts" (§3.2). The
//! custom chain reaches within ~10% of LZ-class ratios at a fraction of
//! the power (the power comparison lives with the PE catalog in
//! `scalo-hw`; this module provides the ratio side).

/// A growable bit buffer (MSB-first within each byte).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitWriter {
    bytes: Vec<u8>,
    bit_len: usize,
}

impl BitWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one bit.
    pub fn push_bit(&mut self, bit: bool) {
        if self.bit_len.is_multiple_of(8) {
            self.bytes.push(0);
        }
        if bit {
            let idx = self.bit_len / 8;
            self.bytes[idx] |= 0x80 >> (self.bit_len % 8);
        }
        self.bit_len += 1;
    }

    /// Appends `value` in Elias-γ code.
    ///
    /// # Panics
    ///
    /// Panics if `value` is zero (γ codes encode positive integers).
    pub fn push_gamma(&mut self, value: u32) {
        assert!(value >= 1, "Elias-γ encodes positive integers");
        let n = 31 - value.leading_zeros(); // floor(log2(value))
        for _ in 0..n {
            self.push_bit(false);
        }
        for i in (0..=n).rev() {
            self.push_bit(value & (1 << i) != 0);
        }
    }

    /// Number of bits written.
    pub fn bit_len(&self) -> usize {
        self.bit_len
    }

    /// Resets to an empty stream, keeping the backing allocation.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.bit_len = 0;
    }

    /// The backing bytes written so far (zero-padded).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Finishes and returns the backing bytes (zero-padded).
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }
}

/// A bit reader over a byte slice (MSB-first).
#[derive(Debug, Clone)]
pub struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Reads one bit, or `None` at end of stream.
    pub fn read_bit(&mut self) -> Option<bool> {
        let idx = self.pos / 8;
        if idx >= self.bytes.len() {
            return None;
        }
        let bit = self.bytes[idx] & (0x80 >> (self.pos % 8)) != 0;
        self.pos += 1;
        Some(bit)
    }

    /// Reads one Elias-γ value, or `None` on a malformed/ended stream.
    pub fn read_gamma(&mut self) -> Option<u32> {
        let mut zeros = 0u32;
        while !self.read_bit()? {
            zeros += 1;
            if zeros > 32 {
                return None;
            }
        }
        let mut value = 1u32;
        for _ in 0..zeros {
            value = (value << 1) | u32::from(self.read_bit()?);
        }
        Some(value)
    }
}

/// HFREQ: distinct byte values of `data` ordered by descending frequency
/// (ties broken by value for determinism).
pub fn frequency_dictionary(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    frequency_dictionary_into(data, &mut out);
    out
}

/// [`frequency_dictionary`] written into a caller-provided buffer (cleared
/// first). Byte-identical to the allocating form; allocation-free once
/// `out` has capacity for the distinct values (≤ 256).
pub fn frequency_dictionary_into(data: &[u8], out: &mut Vec<u8>) {
    let mut counts = [0usize; 256];
    for &b in data {
        counts[b as usize] += 1;
    }
    out.clear();
    out.extend(
        (0u16..256)
            .filter(|&v| counts[v as usize] > 0)
            .map(|v| v as u8),
    );
    // Unstable sort is safe here: the (count, value) key is unique per
    // distinct value.
    out.sort_unstable_by_key(|&v| (std::cmp::Reverse(counts[v as usize]), v));
}

/// HCOMP: compresses a hash batch with HFREQ frequency sorting →
/// dictionary coding → RLE → Elias-γ. Returns self-contained bytes.
///
/// Hash batches are *multisets*: the receiving CCHECK PE sorts hashes
/// before matching anyway (§3.2), so HFREQ reorders the batch by
/// frequency rank before coding — turning each distinct value into a
/// single run. [`dcomp_decompress`] therefore returns the values grouped
/// by frequency, not in transmission order; use
/// [`hcomp_compress_ordered`] when order must survive.
///
/// Format: `[dict_len: u16 LE][dict bytes][γ-coded (index+1, run) pairs]`,
/// with an (index = dict_len + 1) sentinel terminating the stream.
pub fn hcomp_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    hcomp_compress_into(data, &mut CompressScratch::new(), &mut out);
    out
}

/// Reusable buffers for [`hcomp_compress_into`]: the frequency dictionary,
/// the rank-sorted copy of the batch, and the γ bit stream. One scratch
/// serves any batch size; buffers grow to the largest batch seen.
#[derive(Debug, Clone, Default)]
pub struct CompressScratch {
    dict: Vec<u8>,
    sorted: Vec<u8>,
    bits: BitWriter,
}

impl CompressScratch {
    /// An empty scratch; the first compression sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// [`hcomp_compress`] written into a caller-provided buffer (cleared
/// first). Byte-identical to the allocating form; allocation-free once
/// `scratch` and `out` are warm.
pub fn hcomp_compress_into(data: &[u8], scratch: &mut CompressScratch, out: &mut Vec<u8>) {
    frequency_dictionary_into(data, &mut scratch.dict);
    let mut rank = [0u8; 256];
    for (i, &v) in scratch.dict.iter().enumerate() {
        rank[v as usize] = i as u8;
    }
    scratch.sorted.clear();
    scratch.sorted.extend_from_slice(data);
    // Unstable sort is safe here: equal ranks are equal byte values.
    scratch.sorted.sort_unstable_by_key(|&b| rank[b as usize]);
    encode_with_dictionary(
        &scratch.sorted,
        &scratch.dict,
        &rank,
        &mut scratch.bits,
        out,
    );
}

/// Order-preserving HCOMP variant (no HFREQ reordering): same coding
/// chain applied to the batch in transmission order.
pub fn hcomp_compress_ordered(data: &[u8]) -> Vec<u8> {
    let dict = frequency_dictionary(data);
    let mut rank = [0u8; 256];
    for (i, &v) in dict.iter().enumerate() {
        rank[v as usize] = i as u8;
    }
    let mut out = Vec::new();
    encode_with_dictionary(data, &dict, &rank, &mut BitWriter::new(), &mut out);
    out
}

fn encode_with_dictionary(
    data: &[u8],
    dict: &[u8],
    rank: &[u8; 256],
    bits: &mut BitWriter,
    out: &mut Vec<u8>,
) {
    out.clear();
    out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
    out.extend_from_slice(dict);

    bits.clear();
    let mut i = 0;
    while i < data.len() {
        let idx = rank[data[i] as usize];
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == data[i] {
            run += 1;
        }
        bits.push_gamma(u32::from(idx) + 1);
        bits.push_gamma(run as u32);
        i += run;
    }
    // Sentinel: index value dict_len + 1 (never produced by real data).
    bits.push_gamma(dict.len() as u32 + 1);
    out.extend_from_slice(bits.bytes());
}

/// DCOMP: inverse of [`hcomp_compress`].
///
/// Returns `None` if the stream is malformed.
pub fn dcomp_decompress(compressed: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    dcomp_decompress_into(compressed, &mut out).then_some(out)
}

/// Longest output [`dcomp_decompress_into`] decodes: a stream whose runs
/// add up to more is refused as malformed (16 MiB).
pub const MAX_DCOMP_OUTPUT: usize = 1 << 24;

/// [`dcomp_decompress`] written into a caller-provided buffer (cleared
/// first). Returns `false` — leaving `out` in an unspecified cleared-or-
/// partial state — where the allocating form returns `None`; byte-identical
/// output otherwise, and allocation-free once `out` is warm. A run is
/// checked against [`MAX_DCOMP_OUTPUT`] before it is written, so `out`
/// never grows past twice what it holds, and a refused run allocates
/// nothing.
pub fn dcomp_decompress_into(compressed: &[u8], out: &mut Vec<u8>) -> bool {
    out.clear();
    if compressed.len() < 2 {
        return false;
    }
    let dict_len = u16::from_le_bytes([compressed[0], compressed[1]]) as usize;
    let rest = &compressed[2..];
    if rest.len() < dict_len || dict_len > 256 {
        return false;
    }
    let dict = &rest[..dict_len];
    let mut reader = BitReader::new(&rest[dict_len..]);
    loop {
        let Some(idx) = reader.read_gamma() else {
            return false;
        };
        let idx = idx as usize;
        if idx == dict_len + 1 {
            return true; // sentinel
        }
        let Some(value) = idx.checked_sub(1).and_then(|i| dict.get(i)) else {
            return false;
        };
        let Some(run) = reader.read_gamma() else {
            return false;
        };
        let run = run as usize;
        if run > MAX_DCOMP_OUTPUT - out.len() {
            return false; // malformed stream guard
        }
        out.extend(std::iter::repeat_n(*value, run));
    }
}

/// A greedy LZ77 baseline (the LZ PE's algorithm class): 64 KiB-window
/// match copying with byte-aligned tokens. Used only for the
/// compression-ratio comparison; SCALO's intra-network path uses HCOMP.
pub fn lz_compress(data: &[u8]) -> Vec<u8> {
    const WINDOW: usize = 4096;
    const MIN_MATCH: usize = 3;
    let mut out = Vec::new();
    let mut i = 0;
    while i < data.len() {
        let start = i.saturating_sub(WINDOW);
        let mut best_len = 0usize;
        let mut best_off = 0usize;
        for j in start..i {
            let mut l = 0;
            while i + l < data.len() && data[j + l] == data[i + l] && l < 255 {
                l += 1;
                if j + l >= i {
                    break; // no overlapping matches in this simple coder
                }
            }
            if l > best_len {
                best_len = l;
                best_off = i - j;
            }
        }
        if best_len >= MIN_MATCH {
            out.push(1u8);
            out.extend_from_slice(&(best_off as u16).to_le_bytes());
            out.push(best_len as u8);
            i += best_len;
        } else {
            out.push(0u8);
            out.push(data[i]);
            i += 1;
        }
    }
    out
}

/// Inverse of [`lz_compress`].
pub fn lz_decompress(compressed: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < compressed.len() {
        match compressed[i] {
            0 => {
                out.push(*compressed.get(i + 1)?);
                i += 2;
            }
            1 => {
                let off =
                    u16::from_le_bytes([*compressed.get(i + 1)?, *compressed.get(i + 2)?]) as usize;
                if off == 0 {
                    return None;
                }
                let len = *compressed.get(i + 3)? as usize;
                let start = out.len().checked_sub(off)?;
                for k in 0..len {
                    let b = out[start + k];
                    out.push(b);
                }
                i += 4;
            }
            _ => return None,
        }
    }
    Some(out)
}

/// Compression ratio (`original / compressed`; larger is better).
pub fn ratio(original: usize, compressed: usize) -> f64 {
    assert!(compressed > 0, "compressed size must be positive");
    original as f64 / compressed as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_stream(n: usize) -> Vec<u8> {
        // A realistic per-node hash batch: temporally-correlated brain
        // signals produce highly repetitive hash values.
        (0..n)
            .map(|i| match (i / 13) % 5 {
                0 | 1 => 0x42,
                2 => 0x42,
                3 => 0x17,
                _ => (i % 7) as u8,
            })
            .collect()
    }

    #[test]
    fn gamma_roundtrip() {
        let mut w = BitWriter::new();
        let values = [1u32, 2, 3, 4, 7, 8, 100, 65_535, 1 << 20];
        for &v in &values {
            w.push_gamma(v);
        }
        let bytes = w.into_bytes();
        let mut r = BitReader::new(&bytes);
        for &v in &values {
            assert_eq!(r.read_gamma(), Some(v));
        }
    }

    #[test]
    fn hcomp_roundtrip_preserves_multiset() {
        for data in [
            hash_stream(500),
            vec![],
            vec![7u8],
            vec![0xFF; 96],
            (0..=255u8).collect::<Vec<_>>(),
        ] {
            let c = hcomp_compress(&data);
            let mut got = dcomp_decompress(&c).unwrap();
            let mut want = data.clone();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{data:?}");
        }
    }

    #[test]
    fn hcomp_ordered_roundtrip_is_exact() {
        for data in [
            hash_stream(500),
            vec![],
            vec![7u8],
            (0..=255u8).collect::<Vec<_>>(),
        ] {
            let c = hcomp_compress_ordered(&data);
            assert_eq!(dcomp_decompress(&c).as_deref(), Some(&data[..]));
        }
    }

    #[test]
    fn lz_roundtrip() {
        for data in [hash_stream(500), vec![], vec![1u8, 2, 3], vec![9u8; 1000]] {
            let c = lz_compress(&data);
            assert_eq!(lz_decompress(&c).as_deref(), Some(&data[..]));
        }
    }

    #[test]
    fn hcomp_compresses_repetitive_hashes_well() {
        let data = hash_stream(960); // 10 windows × 96 electrodes
        let c = hcomp_compress(&data);
        assert!(
            ratio(data.len(), c.len()) > 3.0,
            "ratio {}",
            ratio(data.len(), c.len())
        );
    }

    #[test]
    fn hcomp_within_paper_band_of_lz() {
        // §3.2: HCOMP's ratio is only ~10% lower than LZ-class coders on
        // hash streams. Allow a modest band.
        let data = hash_stream(2000);
        let h = ratio(data.len(), hcomp_compress(&data).len());
        let l = ratio(data.len(), lz_compress(&data).len());
        assert!(h > 0.7 * l, "HCOMP {h:.2} vs LZ {l:.2}");
    }

    #[test]
    fn warm_scratch_compress_is_byte_identical() {
        let mut scratch = CompressScratch::new();
        let mut out = Vec::new();
        let mut decoded = Vec::new();
        for data in [
            hash_stream(500),
            vec![],
            vec![7u8],
            vec![0xFF; 96],
            (0..=255u8).collect::<Vec<_>>(),
            hash_stream(31),
        ] {
            hcomp_compress_into(&data, &mut scratch, &mut out);
            assert_eq!(out, hcomp_compress(&data), "{data:?}");
            assert!(dcomp_decompress_into(&out, &mut decoded));
            assert_eq!(Some(decoded.clone()), dcomp_decompress(&out));
        }
        assert!(!dcomp_decompress_into(&[10, 0, 1, 2], &mut decoded));
    }

    #[test]
    fn dictionary_orders_by_frequency() {
        let data = [5u8, 5, 5, 1, 1, 9];
        assert_eq!(frequency_dictionary(&data), vec![5, 1, 9]);
    }

    #[test]
    fn malformed_streams_are_rejected() {
        assert_eq!(dcomp_decompress(&[]), None);
        assert_eq!(dcomp_decompress(&[10, 0, 1, 2]), None); // dict truncated
        assert_eq!(lz_decompress(&[1, 0, 0, 5]), None); // offset 0 invalid
    }
}
