//! One SCALO implant.

use crate::config::ScaloConfig;
use crate::state::HashImage;
use crate::workspace::Workspace;
use scalo_lsh::ccheck::{CollisionChecker, HashMatch};
use scalo_lsh::eval::MeasureHasher;
use scalo_lsh::SignalHash;
use scalo_ml::svm::LinearSvm;
use scalo_signal::fft::{band_power_features_into, FftScratch, FEATURE_BANDS};
use scalo_signal::stats::rms;
use scalo_storage::partition::{FailoverReport, PartitionKind, PartitionSet};
use scalo_trace::Stage;

/// Errors a node can report instead of panicking mid-protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeError {
    /// Seizure detection was requested before a detector was installed.
    DetectorMissing {
        /// The node asked to detect.
        node: usize,
    },
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::DetectorMissing { node } => {
                write!(f, "node {node}: no seizure detector installed")
            }
        }
    }
}

impl std::error::Error for NodeError {}

/// One implant: processing fabric state, local storage, hashers, and the
/// locally-trained seizure detector.
#[derive(Debug, Clone)]
pub struct Node {
    id: usize,
    hasher: MeasureHasher,
    ccheck: CollisionChecker,
    storage: PartitionSet,
    detector: Option<LinearSvm>,
    /// Local clock offset from true time, in µs (corrected by SNTP).
    pub clock_offset_us: i64,
    window_samples: usize,
    /// Whether [`Node::prepare_steady_state`] has already pre-sized the
    /// hash SRAM and NVM rings.
    prepared: bool,
}

impl Node {
    /// Builds a node per the system config.
    pub fn new(id: usize, config: &ScaloConfig) -> Self {
        Self {
            id,
            hasher: MeasureHasher::for_measure(config.measure, 120),
            ccheck: CollisionChecker::new(16 * 1024),
            storage: PartitionSet::standard(),
            detector: None,
            clock_offset_us: 0,
            window_samples: 120,
            prepared: false,
        }
    }

    /// Sizes the CCHECK SRAM and the signal/hash NVM partitions to the
    /// session's working set — `electrodes × windows_back` records — and
    /// prefills them with recyclable placeholder buffers, so steady-state
    /// ingest never allocates. `windows_back` must generously exceed the
    /// collision horizon in windows (evictions must stay strictly older
    /// than anything CCHECK or `stored_window` can still reference).
    /// Idempotent; call before the first ingest.
    ///
    /// # Panics
    ///
    /// Panics if called after windows have already been ingested.
    pub fn prepare_steady_state(&mut self, electrodes: usize, windows_back: usize) {
        self.prepare(electrodes, windows_back, self.window_samples * 2);
    }

    /// [`Node::prepare_steady_state`] with signal buffers pre-sized to
    /// `signal_bytes` (0 grows each on its first use instead).
    fn prepare(&mut self, electrodes: usize, windows_back: usize, signal_bytes: usize) {
        if self.prepared {
            return;
        }
        self.prepared = true;
        let ring = (electrodes * windows_back).max(1);
        let hash_bytes = self.hasher.wire_bytes();
        self.ccheck.set_capacity(ring);
        self.ccheck.prefill(hash_bytes);
        self.storage
            .get_mut(PartitionKind::Signals)
            .prefill_ring(ring, signal_bytes);
        self.storage
            .get_mut(PartitionKind::Hashes)
            .prefill_ring(ring, hash_bytes);
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// The node's hash function.
    pub fn hasher(&self) -> &MeasureHasher {
        &self.hasher
    }

    /// Local storage partitions.
    pub fn storage(&self) -> &PartitionSet {
        &self.storage
    }

    /// Mutable access to the local storage partitions.
    pub fn storage_mut(&mut self) -> &mut PartitionSet {
        &mut self.storage
    }

    /// Fails `bytes` of this node's NVM partition `kind` and remaps the
    /// partition's append window around the dead blocks (capacity is
    /// borrowed from lower-priority partitions).
    pub fn fail_nvm_block(&mut self, kind: PartitionKind, bytes: usize) -> FailoverReport {
        self.storage.fail_block(kind, bytes)
    }

    /// Installs a trained seizure detector.
    pub fn install_detector(&mut self, svm: LinearSvm) {
        self.detector = Some(svm);
    }

    /// The installed seizure detector, if any.
    pub fn detector(&self) -> Option<&LinearSvm> {
        self.detector.as_ref()
    }

    /// Length of [`Node::detection_features`]: one power per feature
    /// band plus the RMS amplitude.
    pub const DETECTION_FEATURES: usize = FEATURE_BANDS.len() + 1;

    /// Extracts the seizure-detection feature vector of a window (the
    /// BBF/FFT feature path of Figure 5: band powers + an amplitude
    /// feature).
    pub fn detection_features(window: &[f64]) -> Vec<f64> {
        let mut f = Vec::new();
        Self::detection_features_into(window, &mut FftScratch::new(), &mut f);
        f
    }

    /// [`Node::detection_features`] using caller-provided scratch, writing
    /// the feature vector into `out` (cleared first). Bit-identical to the
    /// allocating form; allocation-free once the buffers are warm.
    pub fn detection_features_into(window: &[f64], fft: &mut FftScratch, out: &mut Vec<f64>) {
        band_power_features_into(window, fft, out);
        out.push(rms(window));
    }

    /// Runs local seizure detection on a window. Returns
    /// [`NodeError::DetectorMissing`] if no detector is installed —
    /// callers decide whether that is fatal (a query) or just a
    /// non-vote (the propagation protocol).
    pub fn detect_seizure(&self, window: &[f64]) -> Result<bool, NodeError> {
        self.detect_with_features(&Self::detection_features(window))
    }

    /// The SVM vote on an already-extracted feature vector — the
    /// detection tail of [`Node::detect_seizure`] when the window
    /// engine ([`crate::cohort`]) computed the features in its fused
    /// lane walk. Same decision bit-for-bit for the same features.
    pub fn detect_with_features(&self, features: &[f64]) -> Result<bool, NodeError> {
        let detector = self
            .detector
            .as_ref()
            .ok_or(NodeError::DetectorMissing { node: self.id })?;
        Ok(detector.predict(features))
    }

    /// Ingests one electrode window: stores the signal, hashes it, and
    /// records the hash both in the NVM hash partition and the CCHECK
    /// SRAM. The allocating single-electrode form, for callers outside
    /// the window engine.
    pub fn ingest_window(
        &mut self,
        electrode: usize,
        timestamp_us: u64,
        window: &[f64],
    ) -> SignalHash {
        assert_eq!(window.len(), self.window_samples, "window length");
        let hash = match &self.hasher {
            MeasureHasher::Ssh(h) => h.hash(window),
            MeasureHasher::Emd(h) => h.hash(window),
        };
        self.store(electrode, timestamp_us, window, &hash, &mut Vec::new());
        hash
    }

    /// Ingests one window on every electrode: stores each electrode's
    /// quantised signal (`window(e)`), then its hash — `hashes[e]`, this
    /// node's lanes of the window engine's batched block hash — in the
    /// NVM hash partition and the CCHECK SRAM. The quantised bytes stage
    /// in `ws.quantized`; zero heap allocations once the node is
    /// prepared ([`Node::prepare_steady_state`]) and the workspace is
    /// warm.
    ///
    /// Hashers are config-deterministic (no per-node or per-session
    /// seed) and every per-channel kernel is width-independent, so the
    /// engine's lanes are bit-identical to hashing each window here:
    /// stored records and CCHECK state match [`Node::ingest_window`]
    /// byte for byte.
    ///
    /// # Panics
    ///
    /// Panics if a window has the wrong length.
    pub fn ingest_block<'a>(
        &mut self,
        timestamp_us: u64,
        window: impl Fn(usize) -> &'a [f64],
        hashes: &[SignalHash],
        ws: &mut Workspace,
    ) {
        ws.trace.begin(Stage::StorageWrite);
        for (e, hash) in hashes.iter().enumerate() {
            self.store(e, timestamp_us, window(e), hash, &mut ws.quantized);
        }
        ws.trace.end(Stage::StorageWrite);
    }

    /// Appends one electrode's quantised window and hash to the NVM
    /// partitions and stages the hash in CCHECK. The partitions are
    /// independent stores, so the order electrodes interleave in across
    /// them never changes what any one of them holds.
    fn store(
        &mut self,
        electrode: usize,
        timestamp_us: u64,
        window: &[f64],
        hash: &SignalHash,
        quantized: &mut Vec<u8>,
    ) {
        assert_eq!(window.len(), self.window_samples, "window length");
        quantized.clear();
        for &x in window {
            quantized.extend_from_slice(&quantize(x).to_le_bytes());
        }
        self.storage.get_mut(PartitionKind::Signals).append_bytes(
            timestamp_us,
            electrode as u32,
            quantized,
        );
        self.storage.get_mut(PartitionKind::Hashes).append_bytes(
            timestamp_us,
            electrode as u32,
            &hash.0,
        );
        self.ccheck.record_copy(electrode, timestamp_us, hash);
    }

    /// Retrieves a stored signal window (dequantised).
    pub fn stored_window(&self, electrode: usize, timestamp_us: u64) -> Option<Vec<f64>> {
        let mut out = Vec::new();
        self.stored_window_into(electrode, timestamp_us, &mut out)
            .then_some(out)
    }

    /// [`Node::stored_window`] written into a caller-provided buffer
    /// (cleared first). Returns whether the window was found; byte-identical
    /// samples, allocation-free once `out` is warm.
    pub fn stored_window_into(
        &self,
        electrode: usize,
        timestamp_us: u64,
        out: &mut Vec<f64>,
    ) -> bool {
        let Some(rec) = self
            .storage
            .get(PartitionKind::Signals)
            .record_at(electrode as u32, timestamp_us)
        else {
            return false;
        };
        out.clear();
        out.extend(
            rec.data
                .chunks_exact(2)
                .map(|b| dequantize(i16::from_le_bytes([b[0], b[1]]))),
        );
        true
    }

    /// Writes `window` into `out` (cleared first) exactly as
    /// [`Node::stored_window_into`] would read it back once stored: the
    /// form in which a restored node re-derives a signal window its
    /// image did not carry.
    pub(crate) fn stored_form_into(window: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(window.iter().map(|&x| dequantize(quantize(x))));
    }

    /// Whether the `Hashes` partition holds a record of `electrode`
    /// stamped `timestamp_us` — proof that the window was stored.
    pub(crate) fn hash_stored(&self, electrode: usize, timestamp_us: u64) -> bool {
        self.storage
            .get(PartitionKind::Hashes)
            .record_at(electrode as u32, timestamp_us)
            .is_some()
    }

    /// `(configured, failed)` bytes of each NVM partition, in
    /// [`PartitionKind::ALL`] order.
    pub(crate) fn partition_counters(&self) -> [(u64, u64); 4] {
        PartitionKind::ALL.map(|kind| {
            let p = self.storage.get(kind);
            (p.capacity_bytes() as u64, p.failed_bytes() as u64)
        })
    }

    /// The CCHECK records stamped at or after `cutoff_us`, oldest first,
    /// each placed on `clock` (ingest µs of consecutive windows, oldest
    /// first), with their hash bytes concatenated into `bytes`. Every
    /// such record was ingested at a clocked window: the clock spans the
    /// whole collision horizon.
    pub(crate) fn horizon_hashes(
        &self,
        cutoff_us: u64,
        clock: &[u64],
        bytes: &mut Vec<u8>,
    ) -> Vec<HashImage> {
        self.ccheck
            .records()
            .filter(|rec| rec.timestamp_us >= cutoff_us)
            .map(|rec| {
                bytes.extend_from_slice(&rec.hash.0);
                HashImage {
                    slot: clock
                        .binary_search(&rec.timestamp_us)
                        .expect("every in-horizon record was ingested at a clocked window")
                        as u16,
                    electrode: rec.electrode as u16,
                }
            })
            .collect()
    }

    /// Brings a fresh node to the storage state an image describes:
    /// prepares it for `electrodes × windows_back` records
    /// ([`Node::prepare_steady_state`], except that each signal buffer
    /// grows on its first window: a swapped-in session often serves a
    /// short burst before it is evicted again, so it would rarely use
    /// the ring a cold build pre-sizes), sets the partition counters,
    /// and records each carried hash (timestamp `clock[slot]`, `width`
    /// bytes from `bytes`) in the CCHECK SRAM and the `Hashes`
    /// partition, as [`Node::store`] did. Signal records are not
    /// installed; see [`Node::stored_form_into`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn install_records(
        &mut self,
        electrodes: usize,
        windows_back: usize,
        counters: &[(u64, u64); 4],
        hashes: &[HashImage],
        bytes: &[u8],
        width: usize,
        clock: &[u64],
    ) {
        self.prepare(electrodes, windows_back, 0);
        for (kind, &(capacity, failed)) in PartitionKind::ALL.iter().zip(counters) {
            self.storage
                .get_mut(*kind)
                .set_capacity_counters(capacity as usize, failed as usize);
        }
        let mut hash = SignalHash(Vec::with_capacity(width));
        for (h, chunk) in hashes.iter().zip(bytes.chunks_exact(width.max(1))) {
            let ts = clock[usize::from(h.slot)];
            hash.0.clear();
            hash.0.extend_from_slice(&chunk[..width]);
            self.storage.get_mut(PartitionKind::Hashes).append_bytes(
                ts,
                u32::from(h.electrode),
                &hash.0,
            );
            self.ccheck.record_copy(usize::from(h.electrode), ts, &hash);
        }
    }

    /// Matches received hashes against recent local hashes (CCHECK),
    /// probing within Hamming distance 1 (the PE's fixed probe set:
    /// `1 + 8·bytes` patterns per received hash), so near-identical
    /// cross-site hashes collide as the similarity semantics intend.
    pub fn check_collisions(
        &self,
        received: &[SignalHash],
        now_us: u64,
        horizon_us: u64,
    ) -> Vec<HashMatch> {
        if received.is_empty() {
            return Vec::new();
        }
        // Each received hash expands to `1 + 8·bytes` probes, so hashes
        // of different byte lengths expand to different probe counts —
        // the mapping back must use cumulative per-hash offsets, not a
        // uniform divisor.
        let mut probes = Vec::new();
        let mut probe_owner = Vec::new();
        for (i, h) in received.iter().enumerate() {
            let neighbors = h.neighbors(1);
            probe_owner.resize(probe_owner.len() + neighbors.len(), i);
            probes.extend(neighbors);
        }
        let mut matches = self.ccheck.matches(&probes, now_us, horizon_us);
        // Map probe indices back to the original received batch.
        for m in &mut matches {
            m.received_index = probe_owner[m.received_index];
        }
        matches
    }

    /// The **last** collision [`Node::check_collisions`] would report for
    /// `received`, as plain copyable fields `(received index, local
    /// electrode, local timestamp µs)` — the only fields the propagation
    /// exchange consumes. Same Hamming-1 probe expansion and match order
    /// as the allocating form, but the probe set, owner map, and sort
    /// scratch live in caller-provided buffers (slots recycled), so a warm
    /// call performs zero heap allocations and clones no records.
    pub fn last_collision_ws(
        &self,
        received: &[SignalHash],
        now_us: u64,
        horizon_us: u64,
        probes: &mut Vec<SignalHash>,
        probe_owner: &mut Vec<usize>,
        probe_order: &mut Vec<usize>,
    ) -> Option<(usize, usize, u64)> {
        if received.is_empty() {
            return None;
        }
        // Expand the whole batch into one probe list, recycling slot byte
        // buffers. Per hash the probe order matches `neighbors(1)`:
        // identity first, then byte-major single-bit flips.
        fn stage(probes: &mut Vec<SignalHash>, used: &mut usize, bytes: &[u8]) {
            if *used < probes.len() {
                let slot = &mut probes[*used].0;
                slot.clear();
                slot.extend_from_slice(bytes);
            } else {
                probes.push(SignalHash(bytes.to_vec()));
            }
            *used += 1;
        }
        let mut used = 0;
        probe_owner.clear();
        for (i, h) in received.iter().enumerate() {
            stage(probes, &mut used, &h.0);
            probe_owner.push(i);
            for byte in 0..h.0.len() {
                for bit in 0..8 {
                    stage(probes, &mut used, &h.0);
                    probes[used - 1].0[byte] ^= 1 << bit;
                    probe_owner.push(i);
                }
            }
        }
        probes.truncate(used);
        let mut last = None;
        self.ccheck
            .for_each_match(probes, now_us, horizon_us, probe_order, |idx, rec| {
                last = Some((probe_owner[idx], rec.electrode, rec.timestamp_us));
            });
        last
    }

    /// Number of hash records currently in the CCHECK SRAM.
    pub fn ccheck_len(&self) -> usize {
        self.ccheck.len()
    }
}

/// A sample as the NVM signal partition stores it.
fn quantize(x: f64) -> i16 {
    (x * 8_192.0) as i16
}

/// A stored sample read back.
fn dequantize(q: i16) -> f64 {
    q as f64 / 8_192.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_window(phase: f64) -> Vec<f64> {
        (0..120).map(|i| (i as f64 * 0.2 + phase).sin()).collect()
    }

    #[test]
    fn ingest_stores_signal_and_hash() {
        let cfg = ScaloConfig::default().with_nodes(1);
        let mut node = Node::new(0, &cfg);
        let h = node.ingest_window(3, 1_000, &test_window(0.0));
        assert!(!h.0.is_empty());
        assert_eq!(node.ccheck_len(), 1);
        let back = node.stored_window(3, 1_000).unwrap();
        assert_eq!(back.len(), 120);
        // Quantisation error bounded.
        for (a, b) in test_window(0.0).iter().zip(&back) {
            assert!((a - b).abs() < 1e-3);
        }
    }

    #[test]
    fn identical_windows_collide_across_nodes() {
        let cfg = ScaloConfig::default().with_nodes(2);
        let mut a = Node::new(0, &cfg);
        let b = Node::new(1, &cfg);
        let w = test_window(0.3);
        let hash = a.ingest_window(0, 500, &w);
        // Node b computes the same hash for the same signal...
        let hash_b = match b.hasher() {
            MeasureHasher::Ssh(h) => h.hash(&w),
            MeasureHasher::Emd(h) => h.hash(&w),
        };
        assert_eq!(hash, hash_b, "hashers are system-wide deterministic");
        // ...and a's CCHECK finds the received hash.
        let matches = a.check_collisions(&[hash_b], 600, 100_000);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn detector_roundtrip() {
        let cfg = ScaloConfig::default();
        let mut node = Node::new(0, &cfg);
        // A detector that fires on high RMS (last feature).
        let n_features = Node::detection_features(&test_window(0.0)).len();
        assert_eq!(n_features, Node::DETECTION_FEATURES);
        let mut w = vec![0.0; n_features];
        w[n_features - 1] = 1.0;
        node.install_detector(LinearSvm::new(w, -0.5));
        let quiet: Vec<f64> = vec![0.01; 120];
        let loud: Vec<f64> = test_window(0.0).iter().map(|x| x * 3.0).collect();
        assert!(!node.detect_seizure(&quiet).unwrap());
        assert!(node.detect_seizure(&loud).unwrap());
    }

    #[test]
    fn missing_detector_is_an_error_not_a_panic() {
        let cfg = ScaloConfig::default();
        let node = Node::new(7, &cfg);
        let err = node.detect_seizure(&test_window(0.0)).unwrap_err();
        assert_eq!(err, NodeError::DetectorMissing { node: 7 });
        assert!(err.to_string().contains("node 7"));
    }

    #[test]
    fn mixed_width_hashes_map_to_correct_received_index() {
        // Regression: with received hashes of differing byte lengths the
        // old uniform-divisor mapping pointed matches at the wrong hash.
        let cfg = ScaloConfig::default().with_nodes(1);
        let mut node = Node::new(0, &cfg);
        let wide = SignalHash(vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77]);
        node.ccheck.record(5, 1_000, wide.clone());
        // A 1-byte hash first (9 probes), then the wide one (57 probes):
        // the wide hash's exact probe sits at probe index 9, which the
        // old `/ 33` mapping collapsed to received index 0.
        let narrow = SignalHash(vec![0xAB]);
        let matches = node.check_collisions(&[narrow, wide], 1_500, 100_000);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].received_index, 1, "must map to the wide hash");
        assert_eq!(matches[0].local.electrode, 5);
    }

    #[test]
    fn block_ingest_matches_per_electrode_ingest() {
        // The engine's entry point, fed batched block hashes, must leave
        // byte-identical NVM records and CCHECK state: same stored
        // windows, same hashes, same collision responses, across several
        // windows of drift.
        let cfg = ScaloConfig::default().with_nodes(1).with_electrodes(4);
        let mut per = Node::new(0, &cfg);
        let mut batched = Node::new(0, &cfg);
        let mut ws = Workspace::new();
        let mut block = scalo_signal::block::ChannelBlock::new();
        let mut scratch = scalo_lsh::ssh::BlockHashScratch::new();
        let mut hashes = Vec::new();
        for w in 0..5u64 {
            let ts = 4_000 * (w + 1);
            let windows: Vec<Vec<f64>> = (0..4)
                .map(|e| test_window(w as f64 + e as f64 * 0.7))
                .collect();
            let mut solo_hashes = Vec::new();
            for (e, win) in windows.iter().enumerate() {
                solo_hashes.push(per.ingest_window(e, ts, win));
            }
            block.reset(4, 120);
            block.fill_channels(|e| &windows[e]);
            match batched.hasher() {
                MeasureHasher::Ssh(h) => h.hash_block_into(&block, &mut scratch, &mut hashes),
                MeasureHasher::Emd(h) => hashes = windows.iter().map(|x| h.hash(x)).collect(),
            }
            assert_eq!(hashes, solo_hashes, "window {w}: batched hash lanes");
            batched.ingest_block(ts, |e| &windows[e], &hashes, &mut ws);
            for e in 0..4 {
                assert_eq!(
                    per.stored_window(e, ts),
                    batched.stored_window(e, ts),
                    "window {w} electrode {e} stored signal"
                );
            }
        }
        assert_eq!(per.ccheck_len(), batched.ccheck_len());
        // Both CCHECKs answer a probe batch identically.
        let probe = match per.hasher() {
            MeasureHasher::Ssh(h) => h.hash(&test_window(2.0)),
            MeasureHasher::Emd(h) => h.hash(&test_window(2.0)),
        };
        let a = per.check_collisions(std::slice::from_ref(&probe), 25_000, 100_000);
        let b = batched.check_collisions(std::slice::from_ref(&probe), 25_000, 100_000);
        assert_eq!(a, b);
        assert!(!a.is_empty(), "the probe must actually collide");
    }

    #[test]
    fn last_collision_ws_matches_check_collisions_last() {
        // Reuse the mixed-width regression scenario: the recycled-slot
        // form must report exactly the final match of the allocating
        // form, including the cumulative received-index mapping.
        let cfg = ScaloConfig::default().with_nodes(1);
        let mut node = Node::new(0, &cfg);
        let wide = SignalHash(vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77]);
        node.ccheck.record(5, 1_000, wide.clone());
        node.ccheck.record(2, 1_200, SignalHash(vec![0xAB]));
        let narrow = SignalHash(vec![0xAB]);
        let received = vec![narrow, wide];

        let legacy = node.check_collisions(&received, 1_500, 100_000);
        // Dirty, undersized scratch: warm reuse must still agree.
        let mut probes = vec![SignalHash(vec![0xFF; 3]); 2];
        let mut owner = vec![9usize; 40];
        let mut order = Vec::new();
        for _ in 0..2 {
            let got = node.last_collision_ws(
                &received,
                1_500,
                100_000,
                &mut probes,
                &mut owner,
                &mut order,
            );
            let want = legacy
                .last()
                .map(|m| (m.received_index, m.local.electrode, m.local.timestamp_us));
            assert_eq!(got, want);
            assert!(got.is_some(), "scenario must produce a collision");
        }
        // And the empty batch degenerates the same way.
        assert_eq!(
            node.last_collision_ws(&[], 1_500, 100_000, &mut probes, &mut owner, &mut order),
            None
        );
    }

    #[test]
    fn nvm_block_failure_remaps_and_keeps_ingesting() {
        let cfg = ScaloConfig::default().with_nodes(1);
        let mut node = Node::new(0, &cfg);
        node.ingest_window(0, 1_000, &test_window(0.0));
        let report = node.fail_nvm_block(PartitionKind::Signals, 8 * 1024 * 1024);
        assert_eq!(report.failed_bytes, 8 * 1024 * 1024);
        assert_eq!(report.recovered_bytes(), 8 * 1024 * 1024);
        // Ingest keeps working against the remapped partition.
        node.ingest_window(0, 2_000, &test_window(0.1));
        assert!(node.stored_window(0, 2_000).is_some());
    }
}
