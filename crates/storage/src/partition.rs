//! NVM partitions with oldest-first overwrite (§3.3).
//!
//! Each node's NVM holds four partitions — signals, hashes, application
//! data, and the microcontroller's — with configurable sizes. "When full,
//! the oldest partition data is overwritten."

use serde::{Deserialize, Serialize};

/// The four partitions of a SCALO node's NVM (§3.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PartitionKind {
    /// Raw signal windows.
    Signals,
    /// LSH hashes.
    Hashes,
    /// Application data: weight matrices, spike templates, KF state.
    AppData,
    /// Microcontroller code/data.
    Mc,
}

impl PartitionKind {
    /// All partitions.
    pub const ALL: [PartitionKind; 4] = [
        PartitionKind::Signals,
        PartitionKind::Hashes,
        PartitionKind::AppData,
        PartitionKind::Mc,
    ];
}

/// A logical record stored in a partition.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Record {
    /// Producer timestamp in µs.
    pub timestamp_us: u64,
    /// Logical key (e.g. electrode id).
    pub key: u32,
    /// Payload bytes.
    pub data: Vec<u8>,
}

/// A ring-buffer partition: bounded bytes, oldest records evicted first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    kind: PartitionKind,
    capacity_bytes: usize,
    /// Bytes lost to failed NVM blocks (never written again).
    failed_bytes: usize,
    used_bytes: usize,
    records: std::collections::VecDeque<Record>,
    /// Optional record-count ring limit set by [`Partition::prefill_ring`]:
    /// once reached, appends recycle the oldest record's buffer instead of
    /// allocating — the literal "oldest partition data is overwritten"
    /// behaviour of §3.3, with the write landing in the reclaimed blocks.
    #[serde(default)]
    record_limit: Option<usize>,
    /// Leading placeholder records installed by
    /// [`Partition::prefill_ring`], not yet recycled into real records.
    /// Always the oldest entries, so they are recycled first and the count
    /// only ever decreases.
    #[serde(default)]
    placeholders: usize,
}

impl Partition {
    /// A partition holding at most `capacity_bytes` of record payloads.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(kind: PartitionKind, capacity_bytes: usize) -> Self {
        assert!(capacity_bytes > 0, "partition needs capacity");
        Self {
            kind,
            capacity_bytes,
            failed_bytes: 0,
            used_bytes: 0,
            records: std::collections::VecDeque::new(),
            record_limit: None,
            placeholders: 0,
        }
    }

    /// Which partition this is.
    pub fn kind(&self) -> PartitionKind {
        self.kind
    }

    /// Configured capacity in bytes (failed blocks included).
    pub fn capacity_bytes(&self) -> usize {
        self.capacity_bytes
    }

    /// Bytes lost to failed NVM blocks.
    pub fn failed_bytes(&self) -> usize {
        self.failed_bytes
    }

    /// Sets the configured capacity and the failed bytes, as a restored
    /// node finds them (block failures and failover donations move
    /// both).
    ///
    /// # Panics
    ///
    /// Panics unless at least one byte stays writable
    /// (`failed_bytes < capacity_bytes`), as [`Self::mark_failed`]
    /// guarantees.
    pub fn set_capacity_counters(&mut self, capacity_bytes: usize, failed_bytes: usize) {
        assert!(failed_bytes < capacity_bytes, "no writable byte left");
        self.capacity_bytes = capacity_bytes;
        self.failed_bytes = failed_bytes;
    }

    /// Writable capacity: configured bytes minus failed blocks.
    pub fn effective_capacity_bytes(&self) -> usize {
        self.capacity_bytes - self.failed_bytes
    }

    /// Bytes of payload currently stored.
    pub fn used_bytes(&self) -> usize {
        self.used_bytes
    }

    /// Number of real records stored (placeholders from
    /// [`Partition::prefill_ring`] excluded).
    pub fn len(&self) -> usize {
        self.records.len() - self.placeholders
    }

    /// Whether no real records are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ring record limit, if [`Partition::prefill_ring`] set one.
    pub fn record_limit(&self) -> Option<usize> {
        self.record_limit
    }

    /// Appends a record, evicting oldest records until it fits (both the
    /// byte capacity and, when set, the ring record limit). Returns the
    /// number of records evicted.
    ///
    /// # Panics
    ///
    /// Panics if a single record exceeds the whole partition.
    pub fn append(&mut self, record: Record) -> usize {
        assert!(
            record.data.len() <= self.effective_capacity_bytes(),
            "record larger than partition"
        );
        let mut evicted = self.evict_to_fit(self.effective_capacity_bytes() - record.data.len());
        if let Some(limit) = self.record_limit {
            while self.records.len() >= limit {
                self.pop_oldest();
                evicted += 1;
            }
        }
        self.used_bytes += record.data.len();
        self.records.push_back(record);
        evicted
    }

    /// [`Partition::append`] from a payload slice. Once the ring limit from
    /// [`Partition::prefill_ring`] is reached, the evicted record's byte
    /// buffer is recycled for the new payload, so steady-state appends are
    /// allocation-free. Stored records are byte-for-byte identical to the
    /// allocating form's.
    ///
    /// # Panics
    ///
    /// Panics if a single record exceeds the whole partition.
    pub fn append_bytes(&mut self, timestamp_us: u64, key: u32, payload: &[u8]) -> usize {
        assert!(
            payload.len() <= self.effective_capacity_bytes(),
            "record larger than partition"
        );
        let mut evicted = self.evict_to_fit(self.effective_capacity_bytes() - payload.len());
        if let Some(limit) = self.record_limit {
            if self.records.len() >= limit {
                let mut rec = self.pop_oldest();
                evicted += 1;
                rec.timestamp_us = timestamp_us;
                rec.key = key;
                rec.data.clear();
                rec.data.extend_from_slice(payload);
                self.used_bytes += rec.data.len();
                self.records.push_back(rec);
                return evicted;
            }
        }
        self.used_bytes += payload.len();
        self.records.push_back(Record {
            timestamp_us,
            key,
            data: payload.to_vec(),
        });
        evicted
    }

    /// Fills a fresh partition with `records` empty placeholder records
    /// whose buffers reserve `bytes_per_record` of capacity, and sets the
    /// ring record limit to `records`. Placeholders hold no payload bytes,
    /// are invisible to [`Partition::len`] / [`Partition::range`] /
    /// [`Partition::latest`], and are recycled first — so query behaviour
    /// is unchanged, but every subsequent [`Partition::append_bytes`]
    /// reuses a pre-sized buffer instead of allocating. Call once at
    /// session start for a zero-alloc hot path.
    ///
    /// # Panics
    ///
    /// Panics if `records` is zero or real records are already stored.
    pub fn prefill_ring(&mut self, records: usize, bytes_per_record: usize) {
        assert!(records > 0, "ring needs at least one record");
        assert!(
            self.records.len() == self.placeholders,
            "prefill_ring requires a fresh partition"
        );
        self.record_limit = Some(records);
        while self.records.len() > records {
            self.pop_oldest();
        }
        self.records.reserve(records - self.records.len());
        while self.records.len() < records {
            self.records.push_back(Record {
                timestamp_us: 0,
                key: u32::MAX,
                data: Vec::with_capacity(bytes_per_record),
            });
            self.placeholders += 1;
        }
    }

    /// Evicts oldest records until at most `limit` bytes are used.
    fn evict_to_fit(&mut self, limit: usize) -> usize {
        let mut evicted = 0;
        while self.used_bytes > limit {
            self.pop_oldest();
            evicted += 1;
        }
        evicted
    }

    fn pop_oldest(&mut self) -> Record {
        let old = self.records.pop_front().expect("records present");
        self.used_bytes -= old.data.len();
        // Placeholders are older than every real record, so while any
        // remain they are what eviction removes.
        self.placeholders = self.placeholders.saturating_sub(1);
        old
    }

    /// Marks up to `bytes` of this partition's NVM as failed, evicting
    /// whatever no longer fits. At least one writable byte is always
    /// kept (a fully dead partition would make `append` meaningless).
    /// Returns `(bytes actually failed, records evicted)`.
    pub fn mark_failed(&mut self, bytes: usize) -> (usize, usize) {
        let failable = self.effective_capacity_bytes().saturating_sub(1);
        let newly = bytes.min(failable);
        self.failed_bytes += newly;
        let evicted = self.evict_to_fit(self.effective_capacity_bytes());
        (newly, evicted)
    }

    /// Donates up to `want` bytes of capacity to another partition,
    /// keeping at least half of its own writable space. Returns
    /// `(bytes donated, records evicted)`.
    fn donate(&mut self, want: usize) -> (usize, usize) {
        let spare = self.effective_capacity_bytes() / 2;
        let given = want.min(spare);
        self.capacity_bytes -= given;
        let evicted = self.evict_to_fit(self.effective_capacity_bytes());
        (given, evicted)
    }

    /// Grows the configured capacity by `bytes` (failover remapping
    /// spare blocks into this partition).
    fn grow(&mut self, bytes: usize) {
        self.capacity_bytes += bytes;
    }

    /// Records with `timestamp_us` in `[from_us, to_us]`, oldest first.
    /// Placeholders from [`Partition::prefill_ring`] (always the oldest
    /// entries) are excluded.
    pub fn range(&self, from_us: u64, to_us: u64) -> Vec<&Record> {
        self.records
            .iter()
            .skip(self.placeholders)
            .filter(|r| r.timestamp_us >= from_us && r.timestamp_us <= to_us)
            .collect()
    }

    /// Records for a specific key in a time range.
    pub fn range_for_key(&self, key: u32, from_us: u64, to_us: u64) -> Vec<&Record> {
        self.range(from_us, to_us)
            .into_iter()
            .filter(|r| r.key == key)
            .collect()
    }

    /// The oldest record for `key` stamped exactly `timestamp_us`, without
    /// collecting the scan into a vector — equivalent to
    /// `range_for_key(key, t, t).first()` but allocation-free, which keeps
    /// hot-path point lookups (e.g. the DTW confirm's stored-window read)
    /// off the heap.
    pub fn record_at(&self, key: u32, timestamp_us: u64) -> Option<&Record> {
        self.records
            .iter()
            .skip(self.placeholders)
            .find(|r| r.timestamp_us == timestamp_us && r.key == key)
    }

    /// The most recent real record, if any.
    pub fn latest(&self) -> Option<&Record> {
        if self.is_empty() {
            None
        } else {
            self.records.back()
        }
    }
}

/// What a block failure did to the partition set.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// The partition that lost blocks.
    pub kind: PartitionKind,
    /// Bytes actually marked failed (clamped to the writable space).
    pub failed_bytes: usize,
    /// Capacity borrowed from donors, per donor.
    pub donated: Vec<(PartitionKind, usize)>,
    /// Records evicted across the whole set during remapping.
    pub evicted_records: usize,
}

impl FailoverReport {
    /// Total capacity recovered from donors.
    pub fn recovered_bytes(&self) -> usize {
        self.donated.iter().map(|&(_, b)| b).sum()
    }
}

/// The standard partition set with configurable byte sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionSet {
    partitions: Vec<Partition>,
}

impl PartitionSet {
    /// Builds the four-partition layout with the given sizes.
    pub fn new(signals: usize, hashes: usize, app_data: usize, mc: usize) -> Self {
        Self {
            partitions: vec![
                Partition::new(PartitionKind::Signals, signals),
                Partition::new(PartitionKind::Hashes, hashes),
                Partition::new(PartitionKind::AppData, app_data),
                Partition::new(PartitionKind::Mc, mc),
            ],
        }
    }

    /// A deployment-realistic default: most capacity to signals, ample
    /// hash history, room for models and MC state.
    pub fn standard() -> Self {
        Self::new(
            64 * 1024 * 1024, // 64 MB of recent signals in the simulated window
            8 * 1024 * 1024,
            16 * 1024 * 1024,
            4 * 1024 * 1024,
        )
    }

    /// Borrow a partition.
    pub fn get(&self, kind: PartitionKind) -> &Partition {
        self.partitions
            .iter()
            .find(|p| p.kind() == kind)
            .expect("all kinds present")
    }

    /// Mutable borrow of a partition.
    pub fn get_mut(&mut self, kind: PartitionKind) -> &mut Partition {
        self.partitions
            .iter_mut()
            .find(|p| p.kind() == kind)
            .expect("all kinds present")
    }

    /// Handles the failure of `bytes` of NVM under partition `kind`:
    /// the partition's logical window remaps its appends around the
    /// dead blocks, and lost capacity is replaced by borrowing spare
    /// blocks from the other partitions in priority order (application
    /// data first, raw signals last — signals are re-recorded
    /// continuously, models are not). Donors never give up more than
    /// half of their own writable space.
    pub fn fail_block(&mut self, kind: PartitionKind, bytes: usize) -> FailoverReport {
        let (failed, mut evicted) = self.get_mut(kind).mark_failed(bytes);
        let mut deficit = failed;
        let mut donated = Vec::new();
        const DONOR_ORDER: [PartitionKind; 4] = [
            PartitionKind::AppData,
            PartitionKind::Mc,
            PartitionKind::Hashes,
            PartitionKind::Signals,
        ];
        for donor in DONOR_ORDER {
            if donor == kind || deficit == 0 {
                continue;
            }
            let (given, ev) = self.get_mut(donor).donate(deficit);
            evicted += ev;
            if given > 0 {
                self.get_mut(kind).grow(given);
                donated.push((donor, given));
                deficit -= given;
            }
        }
        FailoverReport {
            kind,
            failed_bytes: failed,
            donated,
            evicted_records: evicted,
        }
    }

    /// Writable capacity summed over all partitions.
    pub fn total_effective_bytes(&self) -> usize {
        self.partitions
            .iter()
            .map(Partition::effective_capacity_bytes)
            .sum()
    }
}

impl Default for PartitionSet {
    fn default() -> Self {
        Self::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(t: u64, key: u32, n: usize) -> Record {
        Record {
            timestamp_us: t,
            key,
            data: vec![0xEE; n],
        }
    }

    #[test]
    fn append_and_query_range() {
        let mut p = Partition::new(PartitionKind::Signals, 1024);
        p.append(rec(100, 1, 10));
        p.append(rec(200, 2, 10));
        p.append(rec(300, 1, 10));
        assert_eq!(p.range(150, 300).len(), 2);
        assert_eq!(p.range_for_key(1, 0, 1000).len(), 2);
        assert_eq!(p.latest().unwrap().timestamp_us, 300);
    }

    #[test]
    fn oldest_evicted_when_full() {
        let mut p = Partition::new(PartitionKind::Hashes, 30);
        assert_eq!(p.append(rec(1, 0, 10)), 0);
        assert_eq!(p.append(rec(2, 0, 10)), 0);
        assert_eq!(p.append(rec(3, 0, 10)), 0);
        let evicted = p.append(rec(4, 0, 10));
        assert_eq!(evicted, 1);
        assert_eq!(p.len(), 3);
        assert!(p.range(1, 1).is_empty(), "oldest gone");
        assert_eq!(p.used_bytes(), 30);
    }

    #[test]
    fn prefilled_ring_is_invisible_and_recycles_buffers() {
        let mut p = Partition::new(PartitionKind::Signals, 1024);
        p.prefill_ring(3, 10);
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.used_bytes(), 0);
        assert!(p.latest().is_none());
        assert!(p.range(0, u64::MAX).is_empty());

        assert_eq!(p.append_bytes(100, 1, &[0xAA; 10]), 1, "recycles a slot");
        assert_eq!(p.len(), 1);
        assert_eq!(p.used_bytes(), 10);
        assert_eq!(p.latest().unwrap().timestamp_us, 100);
        p.append_bytes(200, 2, &[0xBB; 10]);
        p.append_bytes(300, 1, &[0xCC; 10]);
        assert_eq!(p.len(), 3, "all placeholders recycled");
        assert_eq!(p.range_for_key(1, 0, 1000).len(), 2);

        // Ring full of real records: the oldest is now overwritten even
        // though the byte capacity has plenty of room.
        assert_eq!(p.append_bytes(400, 3, &[0xDD; 10]), 1);
        assert_eq!(p.len(), 3);
        assert!(p.range(100, 100).is_empty(), "oldest overwritten");
        assert_eq!(p.latest().unwrap().key, 3);
        assert_eq!(p.used_bytes(), 30);
    }

    #[test]
    fn append_honors_ring_limit_like_append_bytes() {
        let mut a = Partition::new(PartitionKind::Hashes, 1024);
        let mut b = Partition::new(PartitionKind::Hashes, 1024);
        a.prefill_ring(2, 4);
        b.prefill_ring(2, 4);
        for t in 0..5u64 {
            a.append(rec(t, t as u32, 4));
            b.append_bytes(t, t as u32, &[0xEE; 4]);
        }
        assert_eq!(a.len(), b.len());
        assert_eq!(a.used_bytes(), b.used_bytes());
        assert_eq!(
            a.range(0, 100).len(),
            b.range(0, 100).len(),
            "both paths keep the same ring window"
        );
        assert_eq!(a.latest().unwrap().timestamp_us, 4);
    }

    #[test]
    fn standard_set_has_all_kinds() {
        let s = PartitionSet::standard();
        for kind in PartitionKind::ALL {
            assert!(s.get(kind).capacity_bytes() > 0);
        }
    }

    #[test]
    #[should_panic(expected = "larger than partition")]
    fn oversized_record_panics() {
        let mut p = Partition::new(PartitionKind::Mc, 8);
        p.append(rec(1, 0, 9));
    }

    #[test]
    fn failed_blocks_shrink_writable_space_and_evict() {
        let mut p = Partition::new(PartitionKind::Signals, 100);
        for t in 0..10 {
            p.append(rec(t, 0, 10));
        }
        let (failed, evicted) = p.mark_failed(35);
        assert_eq!(failed, 35);
        assert_eq!(p.effective_capacity_bytes(), 65);
        assert_eq!(evicted, 4, "40 bytes of oldest records evicted");
        assert_eq!(p.used_bytes(), 60);
        // Appends keep working within the shrunken window.
        assert_eq!(p.append(rec(100, 0, 5)), 0);
        assert_eq!(p.used_bytes(), 65);
    }

    #[test]
    fn mark_failed_keeps_one_writable_byte() {
        let mut p = Partition::new(PartitionKind::Hashes, 50);
        let (failed, _) = p.mark_failed(1_000);
        assert_eq!(failed, 49);
        assert_eq!(p.effective_capacity_bytes(), 1);
        let (failed, _) = p.mark_failed(10);
        assert_eq!(failed, 0, "nothing left to fail");
    }

    #[test]
    fn failover_borrows_capacity_from_donors() {
        let mut s = PartitionSet::new(1_000, 400, 600, 200);
        let before = s.total_effective_bytes();
        let report = s.fail_block(PartitionKind::Signals, 500);
        assert_eq!(report.failed_bytes, 500);
        // AppData can spare 300, Mc 100, Hashes covers the last 100.
        assert_eq!(
            report.donated,
            vec![
                (PartitionKind::AppData, 300),
                (PartitionKind::Mc, 100),
                (PartitionKind::Hashes, 100),
            ]
        );
        assert_eq!(report.recovered_bytes(), 500);
        // The victim's writable window is fully restored...
        assert_eq!(
            s.get(PartitionKind::Signals).effective_capacity_bytes(),
            1_000
        );
        // ...and the set as a whole lost exactly the failed bytes.
        assert_eq!(s.total_effective_bytes(), before - 500);
    }

    #[test]
    fn failover_appends_remap_around_failed_blocks() {
        let mut s = PartitionSet::new(100, 100, 100, 100);
        for t in 0..10 {
            s.get_mut(PartitionKind::Signals).append(rec(t, 0, 10));
        }
        let report = s.fail_block(PartitionKind::Signals, 60);
        assert_eq!(report.failed_bytes, 60);
        assert_eq!(report.recovered_bytes(), 60);
        // The partition still accepts a full-window ring of appends.
        for t in 10..30 {
            s.get_mut(PartitionKind::Signals).append(rec(t, 0, 10));
        }
        let p = s.get(PartitionKind::Signals);
        assert_eq!(p.used_bytes(), p.effective_capacity_bytes());
        assert_eq!(p.latest().unwrap().timestamp_us, 29);
    }

    #[test]
    fn donors_keep_half_their_space() {
        let mut s = PartitionSet::new(1_000, 10, 10, 10);
        // A catastrophic failure bigger than all spare capacity.
        let report = s.fail_block(PartitionKind::Signals, 999);
        assert_eq!(report.failed_bytes, 999);
        assert!(report.recovered_bytes() < 999, "donors are bounded");
        for kind in [
            PartitionKind::Hashes,
            PartitionKind::AppData,
            PartitionKind::Mc,
        ] {
            assert!(s.get(kind).effective_capacity_bytes() >= 5, "{kind:?}");
        }
    }
}
