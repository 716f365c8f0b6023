//! Hash collision checking (the CCHECK PE).
//!
//! "When hashes are received by a node for matching, they are sent to the
//! CCHECK PE that stores them in SRAM registers and sorts them in place.
//! The PE reads local hashes up to a configurable past time (e.g., 100 ms)
//! from the on-chip storage, and checks for matches with the received
//! hashes using binary search" (§3.2).

use crate::SignalHash;
use std::collections::VecDeque;

/// A local hash record: which electrode produced it and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRecord {
    /// Producing electrode index on this node.
    pub electrode: usize,
    /// Timestamp in microseconds (node-local clock).
    pub timestamp_us: u64,
    /// The hash value.
    pub hash: SignalHash,
}

/// A collision between a received hash and a local record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashMatch {
    /// Index into the received batch.
    pub received_index: usize,
    /// The matching local record.
    pub local: HashRecord,
}

/// The CCHECK PE: a bounded store of recent local hashes plus the sorted
/// binary-search matcher for received batches.
#[derive(Debug, Clone, Default)]
pub struct CollisionChecker {
    records: VecDeque<HashRecord>, // kept in insertion (time) order
    capacity: usize,
    /// Leading placeholder records installed by
    /// [`CollisionChecker::prefill`], not yet recycled into real records.
    placeholders: usize,
}

impl CollisionChecker {
    /// A checker whose SRAM holds at most `capacity` local records
    /// (oldest evicted first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            records: VecDeque::new(),
            capacity,
            placeholders: 0,
        }
    }

    /// Number of real records currently stored (placeholders from
    /// [`CollisionChecker::prefill`] excluded).
    pub fn len(&self) -> usize {
        self.records.len() - self.placeholders
    }

    /// Whether no real records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The real records, oldest first (placeholders excluded).
    pub fn records(&self) -> impl Iterator<Item = &HashRecord> {
        self.records.iter().skip(self.placeholders)
    }

    /// The configured SRAM capacity in records.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Resizes the SRAM to `capacity` records, evicting oldest-first when
    /// shrinking. Sessions that know their working set (electrodes ×
    /// horizon windows) shrink the default so prefilled stores stay small.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn set_capacity(&mut self, capacity: usize) {
        assert!(capacity > 0, "capacity must be positive");
        while self.records.len() > capacity {
            self.pop_oldest();
        }
        self.capacity = capacity;
    }

    fn pop_oldest(&mut self) -> HashRecord {
        let rec = self.records.pop_front().expect("capacity is positive");
        // Placeholders are older than every real record, so while any
        // remain they are what eviction removes.
        self.placeholders = self.placeholders.saturating_sub(1);
        rec
    }

    /// Stores a local hash, evicting the oldest record when full.
    pub fn record(&mut self, electrode: usize, timestamp_us: u64, hash: SignalHash) {
        if self.records.len() == self.capacity {
            self.pop_oldest();
        }
        self.records.push_back(HashRecord {
            electrode,
            timestamp_us,
            hash,
        });
    }

    /// Stores a copy of `hash`. Once the store has filled to capacity the
    /// evicted record's byte buffer is recycled for the new record, so
    /// steady-state recording is allocation-free.
    pub fn record_copy(&mut self, electrode: usize, timestamp_us: u64, hash: &SignalHash) {
        if self.records.len() == self.capacity {
            let mut rec = self.pop_oldest();
            rec.electrode = electrode;
            rec.timestamp_us = timestamp_us;
            rec.hash.0.clear();
            rec.hash.0.extend_from_slice(&hash.0);
            self.records.push_back(rec);
        } else {
            self.records.push_back(HashRecord {
                electrode,
                timestamp_us,
                hash: hash.clone(),
            });
        }
    }

    /// Fills a fresh store to capacity with empty-hash placeholder records
    /// (timestamp 0) whose buffers reserve `hash_bytes` of capacity.
    /// Placeholders never collide with a real probe (a zero-width hash
    /// equals no fixed-width hash), are invisible to
    /// [`CollisionChecker::len`], and are evicted first — so matching
    /// behaviour is unchanged, but every subsequent
    /// [`CollisionChecker::record_copy`] recycles a pre-sized buffer
    /// instead of allocating. Call once at session start for a zero-alloc
    /// hot path.
    ///
    /// # Panics
    ///
    /// Panics if real records are already stored (the oldest-first
    /// placeholder accounting only holds from a fresh store).
    pub fn prefill(&mut self, hash_bytes: usize) {
        assert!(
            self.records.len() == self.placeholders,
            "prefill requires a fresh store"
        );
        self.records.reserve(self.capacity - self.records.len());
        while self.records.len() < self.capacity {
            self.records.push_back(HashRecord {
                electrode: usize::MAX,
                timestamp_us: 0,
                hash: SignalHash(Vec::with_capacity(hash_bytes)),
            });
            self.placeholders += 1;
        }
    }

    /// Matches a received hash batch against local records no older than
    /// `horizon_us` before `now_us`. Returns every (received, local) pair
    /// that collides.
    pub fn matches(&self, received: &[SignalHash], now_us: u64, horizon_us: u64) -> Vec<HashMatch> {
        let mut out = Vec::new();
        self.for_each_match(received, now_us, horizon_us, &mut Vec::new(), |idx, rec| {
            out.push(HashMatch {
                received_index: idx,
                local: rec.clone(),
            });
        });
        out
    }

    /// Visitor form of [`CollisionChecker::matches`]: calls `f(received
    /// index, local record)` for every collision, in the same order the
    /// allocating form returns them, without cloning records. `order` is a
    /// reusable index-sort scratch (cleared first).
    ///
    /// Mirrors the PE: the received batch is sorted (here, a sorted index
    /// array) and each in-horizon local hash is located by binary search —
    /// `O(R log R + L log R)`.
    pub fn for_each_match<F: FnMut(usize, &HashRecord)>(
        &self,
        received: &[SignalHash],
        now_us: u64,
        horizon_us: u64,
        order: &mut Vec<usize>,
        mut f: F,
    ) {
        order.clear();
        order.extend(0..received.len());
        order.sort_by(|&a, &b| received[a].cmp(&received[b]));
        let cutoff = now_us.saturating_sub(horizon_us);
        for rec in &self.records {
            if rec.timestamp_us < cutoff || rec.timestamp_us > now_us {
                continue;
            }
            // Empty placeholders from `prefill` can never equal a probe;
            // skip them before the search.
            if rec.hash.0.is_empty() {
                continue;
            }
            // Binary search for the first equal hash, then scan duplicates.
            let mut idx = order.partition_point(|&i| received[i] < rec.hash);
            while idx < order.len() && received[order[idx]] == rec.hash {
                f(order[idx], rec);
                idx += 1;
            }
        }
    }

    /// Comparison count for a batch of `received` hashes against the
    /// in-horizon records — the PE's latency proxy (`L·log₂R` searches).
    pub fn comparison_cost(&self, received: usize, in_horizon: usize) -> usize {
        if received == 0 {
            return 0;
        }
        let log_r = usize::BITS as usize - received.leading_zeros() as usize;
        in_horizon * log_r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h(b: u8) -> SignalHash {
        SignalHash(vec![b])
    }

    #[test]
    fn finds_single_match_in_horizon() {
        let mut cc = CollisionChecker::new(16);
        cc.record(3, 1_000, h(0xAA));
        cc.record(4, 2_000, h(0xBB));
        let m = cc.matches(&[h(0xBB), h(0xCC)], 2_500, 100_000);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].received_index, 0);
        assert_eq!(m[0].local.electrode, 4);
    }

    #[test]
    fn old_records_are_outside_horizon() {
        let mut cc = CollisionChecker::new(16);
        cc.record(0, 1_000, h(0x11));
        // Horizon 100 ms = 100_000 us; now = 200_000 → cutoff 100_000.
        assert!(cc.matches(&[h(0x11)], 200_000, 100_000).is_empty());
        // Generous horizon finds it.
        assert_eq!(cc.matches(&[h(0x11)], 200_000, 300_000).len(), 1);
    }

    #[test]
    fn duplicate_received_hashes_all_match() {
        let mut cc = CollisionChecker::new(16);
        cc.record(1, 10, h(0x42));
        let m = cc.matches(&[h(0x42), h(0x42)], 20, 1_000);
        assert_eq!(m.len(), 2);
        let mut idx: Vec<_> = m.iter().map(|x| x.received_index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1]);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut cc = CollisionChecker::new(2);
        cc.record(0, 1, h(0x01));
        cc.record(1, 2, h(0x02));
        cc.record(2, 3, h(0x03));
        assert_eq!(cc.len(), 2);
        assert!(cc.matches(&[h(0x01)], 10, 100).is_empty(), "evicted");
        assert_eq!(cc.matches(&[h(0x03)], 10, 100).len(), 1);
    }

    #[test]
    fn multibyte_hashes_compare_fully() {
        let mut cc = CollisionChecker::new(4);
        cc.record(0, 1, SignalHash(vec![1, 2]));
        assert!(cc.matches(&[SignalHash(vec![1, 3])], 5, 100).is_empty());
        assert_eq!(cc.matches(&[SignalHash(vec![1, 2])], 5, 100).len(), 1);
    }

    #[test]
    fn prefilled_placeholders_are_invisible_and_recycled() {
        let mut cc = CollisionChecker::new(3);
        cc.prefill(1);
        assert_eq!(cc.len(), 0);
        assert!(cc.is_empty());
        // A zero-width probe never matches a placeholder.
        assert!(cc.matches(&[SignalHash(Vec::new())], 10, 100).is_empty());
        cc.record_copy(0, 5, &h(0x07));
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.matches(&[h(0x07)], 10, 100).len(), 1);
        cc.record_copy(1, 6, &h(0x08));
        cc.record_copy(2, 7, &h(0x09));
        assert_eq!(cc.len(), 3, "all placeholders recycled");
        cc.record_copy(3, 8, &h(0x0A)); // now evicts the oldest real record
        assert_eq!(cc.len(), 3);
        assert!(cc.matches(&[h(0x07)], 10, 100).is_empty(), "evicted");
        assert_eq!(cc.matches(&[h(0x0A)], 10, 100).len(), 1);
    }

    #[test]
    fn set_capacity_shrinks_oldest_first() {
        let mut cc = CollisionChecker::new(8);
        cc.record(0, 1, h(0x01));
        cc.record(1, 2, h(0x02));
        cc.record(2, 3, h(0x03));
        cc.set_capacity(2);
        assert_eq!(cc.capacity(), 2);
        assert_eq!(cc.len(), 2);
        assert!(cc.matches(&[h(0x01)], 10, 100).is_empty(), "oldest evicted");
        assert_eq!(cc.matches(&[h(0x02)], 10, 100).len(), 1);
        assert_eq!(cc.matches(&[h(0x03)], 10, 100).len(), 1);
    }

    #[test]
    fn comparison_cost_scales_logarithmically() {
        let cc = CollisionChecker::new(4);
        assert_eq!(cc.comparison_cost(0, 100), 0);
        assert!(cc.comparison_cost(1024, 100) <= 100 * 11);
        assert!(cc.comparison_cost(1024, 100) > cc.comparison_cost(2, 100));
    }
}
