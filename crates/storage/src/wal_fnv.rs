//! Incremental FNV-1a 64-bit hashing: the workspace's one
//! implementation.
//!
//! It checksums [`crate::wal`] records, and — re-exported as
//! `scalo_core::snapshot::{Fnv64, fnv1a}` — it also folds the
//! per-window session step digests, checksums snapshot images, and
//! fingerprints decision digests (`decisions_fnv`). It lives here
//! because `scalo-storage` sits *below* `scalo-core` in the dependency
//! graph; one hash everywhere keeps the digest chain auditable (fleet
//! recovery compares WAL digests against core session digests).

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a 64-bit hasher.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv64 {
    /// Starts a hash at the FNV offset basis.
    pub fn new() -> Self {
        Self(FNV_OFFSET)
    }

    /// Folds raw bytes into the hash.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Folds one little-endian `u64` into the hash.
    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Folds an `f64`'s IEEE bit pattern into the hash.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// The digest of everything written so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// One-shot FNV-1a 64-bit hash of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.write_bytes(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn incremental_matches_oneshot() {
        let mut h = Fnv64::new();
        h.write_bytes(b"foo");
        h.write_bytes(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn scalar_writes_fold_their_le_bytes() {
        let mut a = Fnv64::new();
        a.write_u64(0x0102_0304_0506_0708);
        a.write_f64(1.5);
        let mut b = Fnv64::new();
        b.write_bytes(&0x0102_0304_0506_0708u64.to_le_bytes());
        b.write_bytes(&1.5f64.to_bits().to_le_bytes());
        assert_eq!(a.finish(), b.finish());
    }
}
