//! Distributed seizure propagation, end to end (Figures 3a/5).
//!
//! Every 4 ms window each node ingests its electrodes (store + hash).
//! When a node detects a seizure it broadcasts its window hashes
//! (HCOMP-compressed, as a `Hashes` packet); receivers CCHECK them
//! against their recent local hashes; on a match the origin broadcasts
//! the full signal windows (`Signal` packets, delivered even when
//! corrupted); receivers confirm propagation by banded DTW against
//! their own matching windows (pruned with LB_Keogh + early abandon at
//! the decision threshold — decisions identical to the exact distance);
//! confirmed nodes would then stimulate. Local
//! detection continues unabated throughout.
//!
//! Error-resilience knobs reproduce §6.7: a hash-encoding error rate
//! (false negatives during an ongoing correlated seizure) and the
//! channel BER. Both merely *delay* confirmation to a later window —
//! quantified by [`PropagationRun::max_delay_ms`].

use crate::cohort::MemberLanes;
use crate::config::ScaloConfig;
use crate::node::Node;
use crate::snapshot::SnapshotError;
use crate::state::{clock_windows, SessionState};
use crate::stim::{StimCommand, StimEngine};
use crate::system::{ArrivalWs, Scalo};
use crate::workspace::Workspace;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scalo_data::ieeg::{generate_range, num_samples, IeegConfig, MultiSiteRecording};
use scalo_lsh::SignalHash;
use scalo_ml::svm::LinearSvm;
use scalo_net::compress::{dcomp_decompress_into, hcomp_compress_into};
use scalo_net::packet::{Header, PayloadKind, BROADCAST};
use scalo_signal::dtw::{dtw_distance_pruned, DtwParams};
use scalo_signal::fft::FftScratch;
use scalo_signal::stats::z_normalize_into;
use scalo_trace::Stage;
use std::time::Instant;

/// Samples per analysis window.
pub const WINDOW: usize = 120;

/// Window cadence in µs (4 ms).
pub const WINDOW_US: u64 = 4_000;

/// Detector training reads every this-many-th window of its recording.
pub const TRAIN_STRIDE: usize = 4;

/// Synthesizes only the windows [`SeizureApp::train_detectors`] reads
/// from the recording `config` describes: windows `0, TRAIN_STRIDE,
/// 2·TRAIN_STRIDE, …` that fit whole, each bit-identical to that slice
/// of [`generate`](scalo_data::ieeg::generate)'s recording. About a
/// `TRAIN_STRIDE`-th of the cost of the whole recording.
pub fn training_windows(config: &IeegConfig) -> Vec<MultiSiteRecording> {
    let samples = num_samples(config);
    (0..)
        .map(|k| k * WINDOW * TRAIN_STRIDE)
        .take_while(|t| t + WINDOW <= samples)
        .map(|t| generate_range(config, t, t + WINDOW))
        .collect()
}

/// A serving recording from sample `from` on: the samples a session
/// still holds. Window `t0` of the full recording is at `t0 - from`; a
/// cold-built session holds it all (`from` = 0), a restored one only
/// from its cursor on.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecordingView<'a> {
    recording: &'a MultiSiteRecording,
    from: usize,
}

impl<'a> RecordingView<'a> {
    /// `recording` holding samples `from..` of the recording its config
    /// describes (as [`generate_range`] returns them).
    pub(crate) fn new(recording: &'a MultiSiteRecording, from: usize) -> Self {
        Self { recording, from }
    }

    /// The `WINDOW` samples of `node`'s electrode `e` starting at sample
    /// `t0` of the full recording.
    ///
    /// # Panics
    ///
    /// Panics if the window starts before `from` or runs past the end.
    pub(crate) fn window(&self, node: usize, e: usize, t0: usize) -> &'a [f64] {
        &self.recording.nodes[node].channels[e][t0 - self.from..t0 - self.from + WINDOW]
    }

    /// The first sample held.
    pub(crate) fn from(&self) -> usize {
        self.from
    }
}

/// One node's confirmation of seizure propagation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Confirmation {
    /// The confirming node.
    pub node: usize,
    /// Delay from origin detection to confirmation, in ms.
    pub delay_ms: f64,
}

/// Result of one propagation run.
#[derive(Debug, Clone, PartialEq)]
pub struct PropagationRun {
    /// Window index at which an origin first detected the seizure.
    pub origin_detect_window: Option<usize>,
    /// Per-node confirmations (excluding the origin).
    pub confirmations: Vec<Confirmation>,
    /// Hash packets dropped by the network (per receiver; with reliable
    /// transport, only packets the retransmission budget gave up on).
    pub hash_packets_dropped: usize,
    /// Times the detecting origin crashed and a surviving node took
    /// over as origin.
    pub origin_failovers: usize,
}

impl PropagationRun {
    /// The worst confirmation delay, in ms (the Figure 15 metric).
    pub fn max_delay_ms(&self) -> Option<f64> {
        self.confirmations
            .iter()
            .map(|c| c.delay_ms)
            .max_by(f64::total_cmp)
    }
}

/// Mutable mid-run protocol state, extracted from the run loop so a run
/// can advance one window at a time — the resumable unit of work the
/// fleet serving layer schedules ([`crate::session::Session`]).
#[derive(Debug, Clone)]
pub struct RunState {
    /// The currently detecting origin, as `(window, node)`.
    origin_detect: Option<(usize, usize)>,
    /// Window of the very first origin detection.
    first_detect_window: Option<usize>,
    /// Origin crash → survivor takeover count.
    failovers: usize,
    /// Per-node confirmation delay in ms, once confirmed.
    confirmed: Vec<Option<f64>>,
    /// Hash packets lost to the channel.
    hash_drops: usize,
    /// Next window index to process.
    window: usize,
    /// Total whole windows in the recording.
    windows_total: usize,
    /// Electrodes per node in the recording.
    electrodes: usize,
    /// Ingest time of recent windows, `(window, µs)` at slot `window %
    /// len`, spanning the collision horizon ([`clock_windows`]): what
    /// places a hash record's timestamp on its window, for a state image
    /// and for re-deriving a signal window it did not carry. Not part of
    /// any digest.
    clock: Vec<(usize, u64)>,
}

impl RunState {
    /// Next window index to process (also the number processed so far).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Total whole windows in the recording.
    pub fn windows_total(&self) -> usize {
        self.windows_total
    }

    /// Whether every window has been processed.
    pub fn is_done(&self) -> bool {
        self.window >= self.windows_total
    }

    /// The ingest times of the windows `[window - n, window)` stamped at
    /// or after `cutoff_us`, oldest first: the longest such run the
    /// clock holds.
    fn clock_since(&self, cutoff_us: u64) -> Vec<u64> {
        let len = self.clock.len();
        let mut times: Vec<u64> = (1..=self.window.min(len))
            .map(|back| self.window - back)
            .map_while(|w| {
                let (at, t) = self.clock[w % len];
                (at == w && t >= cutoff_us).then_some(t)
            })
            .collect();
        times.reverse();
        times
    }

    /// The window ingested at `timestamp_us`, if the clock still holds it.
    fn window_at(&self, timestamp_us: u64) -> Option<usize> {
        self.clock
            .iter()
            .find(|&&(w, t)| t == timestamp_us && w < self.window)
            .map(|&(w, _)| w)
    }

    /// Folds every protocol decision in the state into `h`, for the
    /// per-window step digests the durability log records. Strictly
    /// scalar reads — no allocation, no formatting.
    pub fn fold_digest(&self, h: &mut crate::snapshot::Fnv64) {
        h.write_u64(self.window as u64);
        match self.origin_detect {
            Some((w, node)) => {
                h.write_u64(1);
                h.write_u64(w as u64);
                h.write_u64(node as u64);
            }
            None => h.write_u64(0),
        }
        match self.first_detect_window {
            Some(w) => {
                h.write_u64(1);
                h.write_u64(w as u64);
            }
            None => h.write_u64(0),
        }
        h.write_u64(self.failovers as u64);
        h.write_u64(self.hash_drops as u64);
        for c in &self.confirmed {
            match c {
                Some(delay_ms) => {
                    h.write_u64(1);
                    h.write_f64(*delay_ms);
                }
                None => h.write_u64(0),
            }
        }
    }
}

/// The application harness.
#[derive(Debug)]
pub struct SeizureApp {
    system: Scalo,
    /// DTW confirmation threshold (on z-normalised windows).
    pub dtw_threshold: f64,
    /// Probability that an electrode's hash is mis-encoded (Figure 15a's
    /// error-rate axis).
    pub hash_error_rate: f64,
    /// Whether hash broadcasts ride the reliable transport
    /// (seq/ACK/retransmission) instead of fire-and-forget.
    pub use_reliable_transport: bool,
    /// Per-node stimulation engines (confirmed propagation stimulates
    /// the local site, Figure 3a's final stage).
    stim: Vec<StimEngine>,
    rng: ChaCha8Rng,
}

impl SeizureApp {
    /// Builds the app over a fresh system.
    pub fn new(config: ScaloConfig) -> Self {
        let seed = config.seed;
        let nodes = config.nodes;
        Self {
            system: Scalo::new(config),
            dtw_threshold: 6.0,
            hash_error_rate: 0.0,
            use_reliable_transport: false,
            stim: (0..nodes).map(|_| StimEngine::new()).collect(),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xf00d),
        }
    }

    /// The stimulation engine of `node` (commands issued on confirmed
    /// propagation).
    pub fn stim_engine(&self, node: usize) -> &StimEngine {
        &self.stim[node]
    }

    /// The underlying system.
    pub fn system(&self) -> &Scalo {
        &self.system
    }

    /// The application RNG's stream position in 32-bit words — a
    /// verification cursor for snapshot/restore: two runs that agree on
    /// the word position have consumed the same draw sequence.
    pub fn rng_word_pos(&self) -> u64 {
        self.rng.get_word_pos() as u64
    }

    /// Mutable access to the underlying system (fault plans, membership
    /// configuration).
    pub fn system_mut(&mut self) -> &mut Scalo {
        &mut self.system
    }

    /// Trains per-node seizure detectors and installs them. `windows`
    /// are the recording's training windows ([`training_windows`]), each
    /// `WINDOW` samples long and labelled by its mid-window mask sample.
    /// Samples go to Pegasos node by node, then window by window, then
    /// channel by channel.
    ///
    /// # Panics
    ///
    /// Panics if `windows` is empty or a window is not `WINDOW` samples.
    pub fn train_detectors(&mut self, windows: &[MultiSiteRecording]) {
        assert!(!windows.is_empty(), "no training windows");
        let nodes = windows[0].nodes.len().min(self.system.node_count());
        let mut fft = FftScratch::new();
        let mut features = Vec::new();
        for node_id in 0..nodes {
            let mut samples = Vec::new();
            for w in windows {
                let rec = &w.nodes[node_id];
                assert_eq!(rec.num_samples(), WINDOW, "training window length");
                let label = rec.seizure[WINDOW / 2];
                for ch in &rec.channels {
                    Node::detection_features_into(ch, &mut fft, &mut features);
                    samples.push((features.clone(), label));
                }
            }
            let svm = LinearSvm::train_pegasos(&samples, 0.01, 12, 17 + node_id as u64);
            self.system.node_mut(node_id).install_detector(svm);
        }
    }

    /// Every node's installed detector, in node order — what a session
    /// image carries so a restore installs rather than retrains.
    ///
    /// # Panics
    ///
    /// Panics if a node has no detector installed.
    pub fn detectors(&self) -> Vec<LinearSvm> {
        (0..self.system.node_count())
            .map(|n| {
                self.system
                    .node(n)
                    .detector()
                    .cloned()
                    .expect("every node has a detector installed")
            })
            .collect()
    }

    /// Node NVM and CCHECK ring depth, in windows: double the collision
    /// horizon (plus slack), so ring evictions stay strictly older than
    /// any window still reachable by matching or `stored_window`.
    fn windows_back(&self) -> usize {
        2 * ((self.system.config().ccheck_horizon_us / WINDOW_US) as usize + 2)
    }

    /// The state image of a run at `st`'s cursor ([`SessionState`]):
    /// run state, system state, stimulation engines, and the window
    /// clock over the collision horizon. The application RNG's position
    /// is [`Self::rng_word_pos`].
    pub(crate) fn capture_state(&self, st: &RunState) -> SessionState {
        let cutoff = self
            .system
            .now_us()
            .saturating_sub(self.system.config().ccheck_horizon_us);
        let mut state = self.system.capture(cutoff, st.clock_since(cutoff));
        state.origin_detect = st.origin_detect.map(|(w, n)| (w as u64, n as u64));
        state.first_detect_window = st.first_detect_window.map(|w| w as u64);
        state.failovers = st.failovers as u64;
        state.hash_drops = st.hash_drops as u64;
        for (node, img) in state.nodes.iter_mut().enumerate() {
            img.confirmed_ms = st.confirmed[node];
            img.stim_log = self.stim[node].log().to_vec();
            img.stim_energy_uj = self.stim[node].total_energy_uj();
        }
        state
    }

    /// Installs a validated state image on this freshly built app, whose
    /// detectors are installed, and returns the run state at cursor
    /// `window` of a `windows_total`-window recording with `electrodes`
    /// per node. The application RNG moves to `rng_word_pos`.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] when the image does not fit this
    /// system ([`Scalo::install`]).
    pub(crate) fn install_state(
        &mut self,
        state: &SessionState,
        rng_word_pos: u64,
        window: usize,
        windows_total: usize,
        electrodes: usize,
    ) -> Result<RunState, SnapshotError> {
        let windows_back = self.windows_back();
        self.system.install(state, electrodes, windows_back)?;
        for (engine, img) in self.stim.iter_mut().zip(&state.nodes) {
            *engine = StimEngine::resume(img.stim_log.clone(), img.stim_energy_uj);
        }
        self.rng.set_word_pos(u128::from(rng_word_pos));
        let mut clock =
            vec![(usize::MAX, 0); clock_windows(self.system.config().ccheck_horizon_us)];
        let first = window - state.window_clock.len();
        for (i, &t) in state.window_clock.iter().enumerate() {
            let w = first + i;
            let slot = w % clock.len();
            clock[slot] = (w, t);
        }
        Ok(RunState {
            origin_detect: state.origin_detect.map(|(w, n)| (w as usize, n as usize)),
            first_detect_window: state.first_detect_window.map(|w| w as usize),
            failovers: state.failovers as usize,
            confirmed: state.nodes.iter().map(|n| n.confirmed_ms).collect(),
            hash_drops: state.hash_drops as usize,
            window,
            windows_total,
            electrodes,
            clock,
        })
    }

    /// Re-derives `node`'s stored window of `electrode` stamped
    /// `timestamp_us` into `out`, when it lies before the samples
    /// `recording` holds (a restored session's image carries no signal
    /// records) and the node's `Hashes` partition proves it was stored:
    /// synthesized from the seekable generator and quantized as
    /// [`Node::stored_form_into`] does. `false` when it is not such a
    /// window.
    pub(crate) fn rederive_stored_window(
        &self,
        recording: RecordingView<'_>,
        st: &RunState,
        node: usize,
        electrode: usize,
        timestamp_us: u64,
        out: &mut Vec<f64>,
    ) -> bool {
        let Some(w) = st.window_at(timestamp_us) else {
            return false;
        };
        if (w + 1) * WINDOW > recording.from()
            || !self.system.node(node).hash_stored(electrode, timestamp_us)
        {
            return false;
        }
        let window = generate_range(&recording.recording.config, w * WINDOW, (w + 1) * WINDOW);
        Node::stored_form_into(&window.nodes[node].channels[electrode], out);
        true
    }

    /// Installs `detectors[n]` on node `n`, as [`Self::train_detectors`]
    /// would have.
    pub fn install_detectors(&mut self, detectors: Vec<LinearSvm>) {
        for (node_id, svm) in detectors.into_iter().enumerate() {
            self.system.node_mut(node_id).install_detector(svm);
        }
    }

    /// Starts a resumable run over `recording`: returns the state that
    /// [`Self::step_window`] advances one 4 ms window at a time.
    ///
    /// # Panics
    ///
    /// Panics if the recording has fewer nodes than the system.
    pub fn begin(&self, recording: &MultiSiteRecording) -> RunState {
        let k = self.system.node_count();
        assert!(recording.nodes.len() >= k, "recording too small");
        RunState {
            origin_detect: None,
            first_detect_window: None,
            failovers: 0,
            confirmed: vec![None; k],
            hash_drops: 0,
            window: 0,
            windows_total: recording.nodes[0].num_samples() / WINDOW,
            electrodes: recording.nodes[0].num_channels(),
            clock: vec![(usize::MAX, 0); clock_windows(self.system.config().ccheck_horizon_us)],
        }
    }

    /// Advances the protocol by exactly one window: ingest, local
    /// detection, and (once an origin has detected) the hash/signal
    /// confirmation exchange. Returns `false` once the recording is
    /// exhausted; the call is non-blocking in the sense that it does a
    /// bounded slice of work and returns.
    ///
    /// This runs the window engine's pre-pass ([`crate::cohort`]) over
    /// this one recording, then the window step on its lanes — the same
    /// two halves a served session or a fleet cohort runs, minus the
    /// serving concerns (radio stall, window envelope, deadline).
    ///
    /// `ws` is the session's reusable scratch: quiet windows (no active
    /// exchange) perform zero heap allocations once nodes and workspace
    /// are warm. Decisions are bit-identical whichever workspace (fresh or
    /// reused) is passed.
    pub fn step_window(
        &mut self,
        recording: &MultiSiteRecording,
        st: &mut RunState,
        ws: &mut Workspace,
    ) -> bool {
        if st.is_done() {
            return false;
        }
        let recording = RecordingView::new(recording, 0);
        let mut engine = std::mem::take(&mut ws.engine);
        let laps = ws.trace.is_enabled().then(Instant::now);
        let [gather, sketch, filter] = engine.prepass(
            self,
            st.electrodes,
            st.window * WINDOW,
            1,
            |_| recording,
            laps,
        );
        ws.trace.record_charged(&[
            (Stage::Gather, gather),
            (Stage::Sketch, sketch),
            (Stage::Filter, filter),
        ]);
        let more = self.step_lanes(recording, st, ws, engine.member(0));
        ws.engine = engine;
        more
    }

    /// The window step proper, consuming one member's lanes of the
    /// engine's pre-pass: ingest stores the lane hashes, local detection
    /// votes on the lane features, and the origin's exchange broadcasts
    /// its ingest hash lanes. Storage, CCHECK, the exchange, and every
    /// RNG draw run here, per member.
    pub(crate) fn step_lanes(
        &mut self,
        recording: RecordingView<'_>,
        st: &mut RunState,
        ws: &mut Workspace,
        lanes: MemberLanes<'_>,
    ) -> bool {
        let k = self.system.node_count();
        let electrodes = st.electrodes;
        let horizon = self.system.config().ccheck_horizon_us;
        if st.window == 0 {
            // Size every node's CCHECK SRAM and NVM rings to the working
            // set ([`Self::windows_back`]).
            let windows_back = self.windows_back();
            for node_id in 0..k {
                self.system
                    .node_mut(node_id)
                    .prepare_steady_state(electrodes, windows_back);
            }
        }
        {
            let w = st.window;
            let t0 = w * WINDOW;
            let now = self.system.now_us();
            let slot = w % st.clock.len();
            st.clock[slot] = (w, now);

            // 1. Ingest this window on every live node (crashed nodes
            // neither record nor hash): the signal windows straight from
            // the recording, the hashes from the node's lanes of the
            // engine's batched block hash.
            for node_id in 0..k {
                if !self.system.is_alive(node_id) {
                    continue;
                }
                self.system.node_mut(node_id).ingest_block(
                    now,
                    |e| recording.window(node_id, e, t0),
                    lanes.hashes(node_id),
                    ws,
                );
            }

            // If the detecting origin crashed, a surviving detector takes
            // over below — the protocol degrades to the live quorum
            // rather than waiting on a dead node.
            if let Some((_, origin)) = st.origin_detect {
                if !self.system.is_alive(origin) {
                    st.origin_detect = None;
                    st.failovers += 1;
                }
            }

            // 2. Local detection at every live node (majority of
            // electrodes; a node without a detector casts no votes).
            for node_id in 0..k {
                if !self.system.is_alive(node_id) {
                    continue;
                }
                let mut votes = 0;
                for e in 0..electrodes {
                    ws.trace.begin(Stage::Detect);
                    let vote = self
                        .system
                        .node(node_id)
                        .detect_with_features(lanes.features(node_id, e));
                    ws.trace.end(Stage::Detect);
                    if vote.unwrap_or(false) {
                        votes += 1;
                    }
                }
                if votes * 2 > electrodes && st.origin_detect.is_none() {
                    st.origin_detect = Some((w, node_id));
                    st.first_detect_window.get_or_insert(w);
                }
            }

            // 3. If an origin has detected, run the exchange this window.
            if let Some((detect_w, origin)) = st.origin_detect {
                // The origin broadcasts the hashes it ingested this
                // window: its node's lanes of the engine's block hash.
                // Stage the concatenated hash bytes in the workspace,
                // injecting encoding errors (Figure 15a) hash by hash:
                // one draw per electrode, then one per byte of a hit, in
                // electrode order (the RNG stream is part of the
                // decision digest).
                let origin_hashes = lanes.hashes(origin);
                ws.trace.begin(Stage::Radio);
                ws.hash_bytes.clear();
                for h in origin_hashes {
                    let at = ws.hash_bytes.len();
                    ws.hash_bytes.extend_from_slice(&h.0);
                    if self.hash_error_rate > 0.0 && self.rng.gen::<f64>() < self.hash_error_rate {
                        for b in &mut ws.hash_bytes[at..] {
                            *b = self.rng.gen();
                        }
                    }
                }
                hcomp_compress_into(&ws.hash_bytes, &mut ws.comp, &mut ws.compressed);
                let hash_header = Header {
                    src: origin as u8,
                    dst: BROADCAST,
                    flow: 1,
                    seq: w as u16,
                    len: 0,
                    kind: PayloadKind::Hashes,
                    timestamp_us: now as u32,
                };
                // Fire-and-forget or reliable delivery, unified into
                // per-receiver arrivals in the recycled broadcast scratch.
                if self.use_reliable_transport {
                    self.system.reliable_broadcast_ws(
                        origin,
                        hash_header,
                        &ws.compressed,
                        &mut ws.net,
                    );
                } else {
                    self.system
                        .broadcast_ws(origin, hash_header, &ws.compressed, &mut ws.net);
                }
                ws.trace.end(Stage::Radio);

                // Receivers that got the hashes check for collisions and
                // remember which (origin electrode → local window) pair
                // matched — that pair is what exact comparison verifies.
                // Hash packets drop on any corruption, so every delivered
                // payload is byte-identical to the compressed batch the
                // origin still holds: DCOMP and the chunk parse run once
                // per window (into recycled slots) instead of per receiver,
                // then each receiver probes via the allocation-free CCHECK
                // visitor.
                ws.responders.clear();
                ws.trace.begin(Stage::Probe);
                let any_delivered = ws
                    .net
                    .arrivals
                    .iter()
                    .any(|&(_, a)| matches!(a, ArrivalWs::Clean(_)));
                if any_delivered {
                    if !dcomp_decompress_into(&ws.compressed, &mut ws.decompressed) {
                        ws.decompressed.clear();
                    }
                    let width = origin_hashes.first().map_or(1, |h| h.0.len().max(1));
                    let mut used = 0;
                    for chunk in ws.decompressed.chunks(width) {
                        if used < ws.received.len() {
                            let slot = &mut ws.received[used].0;
                            slot.clear();
                            slot.extend_from_slice(chunk);
                        } else {
                            ws.received.push(SignalHash(chunk.to_vec()));
                        }
                        used += 1;
                    }
                    ws.received.truncate(used);
                }
                for ai in 0..ws.net.arrivals.len() {
                    let (to, arrival) = ws.net.arrivals[ai];
                    if !matches!(arrival, ArrivalWs::Clean(_)) {
                        st.hash_drops += 1;
                        continue;
                    }
                    let collision = self.system.node(to).last_collision_ws(
                        &ws.received,
                        now,
                        horizon,
                        &mut ws.probes,
                        &mut ws.probe_owner,
                        &mut ws.probe_order,
                    );
                    if let Some((origin_e, local_e, local_ts)) = collision {
                        if st.confirmed[to].is_none() {
                            ws.responders.push((to, origin_e, local_e, local_ts));
                        }
                    }
                }
                ws.trace.end(Stage::Probe);

                // The origin broadcasts the matched electrodes' full
                // signal windows (CSEL picks the candidates, §3.2);
                // responders confirm their matched pair with DTW.
                ws.wanted.clear();
                ws.wanted
                    .extend(ws.responders.iter().map(|&(_, e, _, _)| e));
                ws.wanted.sort_unstable();
                ws.wanted.dedup();
                for wi in 0..ws.wanted.len() {
                    let origin_e = ws.wanted[wi];
                    ws.trace.begin(Stage::Radio);
                    let sig = recording.window(origin, origin_e, t0);
                    ws.sig_bytes.clear();
                    for &x in sig {
                        ws.sig_bytes
                            .extend_from_slice(&((x * 8_192.0) as i16).to_le_bytes());
                    }
                    let sig_header = Header {
                        src: origin as u8,
                        dst: BROADCAST,
                        flow: 2,
                        seq: origin_e as u16,
                        len: 0,
                        kind: PayloadKind::Signal,
                        timestamp_us: now as u32,
                    };
                    self.system
                        .broadcast_ws(origin, sig_header, &ws.sig_bytes, &mut ws.net);
                    ws.trace.end(Stage::Radio);
                    for ai in 0..ws.net.arrivals.len() {
                        let (to, arrival) = ws.net.arrivals[ai];
                        let Some(&(_, _, local_e, ts)) = ws
                            .responders
                            .iter()
                            .find(|&&(t, e, _, _)| t == to && e == origin_e)
                        else {
                            continue;
                        };
                        // Signal packets deliver even when corrupted.
                        let slot = match arrival {
                            ArrivalWs::Clean(s) | ArrivalWs::Corrupt(s) => s,
                            ArrivalWs::Dropped => continue,
                        };
                        ws.remote_win.clear();
                        ws.remote_win.extend(
                            ws.net
                                .payload(slot)
                                .chunks_exact(2)
                                .map(|b| i16::from_le_bytes([b[0], b[1]]) as f64 / 8_192.0),
                        );
                        // Compare against the hash-matched stored window.
                        ws.trace.begin(Stage::StorageRead);
                        let found =
                            self.system
                                .node(to)
                                .stored_window_into(local_e, ts, &mut ws.local_win)
                                || self.rederive_stored_window(
                                    recording,
                                    st,
                                    to,
                                    local_e,
                                    ts,
                                    &mut ws.local_win,
                                );
                        ws.trace.end(Stage::StorageRead);
                        if !found {
                            continue;
                        }
                        // LB_Keogh + early-abandon DTW with the confirm
                        // threshold as the cutoff: both bounds are
                        // conservative, so `distance < threshold` is the
                        // same decision the exact banded DP makes (and the
                        // exact value when neither bound fires).
                        ws.trace.begin(Stage::Dtw);
                        z_normalize_into(&ws.remote_win, &mut ws.znorm_a);
                        z_normalize_into(&ws.local_win, &mut ws.znorm_b);
                        let dist = dtw_distance_pruned(
                            &mut ws.dtw,
                            &ws.znorm_a,
                            &ws.znorm_b,
                            DtwParams::default(),
                            self.dtw_threshold,
                        )
                        .distance;
                        ws.trace.end(Stage::Dtw);
                        if dist < self.dtw_threshold && st.confirmed[to].is_none() {
                            st.confirmed[to] =
                                Some((w - detect_w) as f64 * WINDOW_US as f64 / 1_000.0);
                            // Figure 3a's final stage: stimulate the site
                            // anticipating seizure spread.
                            self.stim[to]
                                .stimulate(now, StimCommand::standard_burst(local_e))
                                .expect("standard burst is valid");
                        }
                    }
                }
            }

            self.system.advance_us(WINDOW_US);
        }
        st.window += 1;
        !st.is_done()
    }

    /// The run outcome so far (final once [`RunState::is_done`]).
    pub fn snapshot(st: &RunState) -> PropagationRun {
        PropagationRun {
            origin_detect_window: st.first_detect_window,
            confirmations: st
                .confirmed
                .iter()
                .enumerate()
                .filter_map(|(node, d)| d.map(|delay_ms| Confirmation { node, delay_ms }))
                .collect(),
            hash_packets_dropped: st.hash_drops,
            origin_failovers: st.failovers,
        }
    }

    /// Runs the propagation protocol over `recording`, starting at
    /// sample 0. Returns the run outcome.
    ///
    /// # Panics
    ///
    /// Panics if the recording has fewer nodes than the system.
    pub fn run(&mut self, recording: &MultiSiteRecording) -> PropagationRun {
        let mut st = self.begin(recording);
        let mut ws = Workspace::new();
        while self.step_window(recording, &mut st, &mut ws) {}
        Self::snapshot(&st)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalo_data::ieeg::{generate, IeegConfig, SeizureEvent};

    fn two_node_config(seed: u64) -> IeegConfig {
        IeegConfig {
            nodes: 2,
            electrodes_per_node: 4,
            duration_s: 0.9,
            seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)],
            seed,
            ..Default::default()
        }
    }

    fn two_node_recording(seed: u64) -> MultiSiteRecording {
        generate(&two_node_config(seed))
    }

    fn app(ber: f64, seed: u64) -> SeizureApp {
        let cfg = ScaloConfig::default()
            .with_nodes(2)
            .with_electrodes(4)
            .with_ber(ber)
            .with_seed(seed);
        let mut app = SeizureApp::new(cfg);
        app.train_detectors(&training_windows(&two_node_config(seed ^ 1)));
        app
    }

    #[test]
    fn clean_run_detects_and_confirms_quickly() {
        let mut a = app(0.0, 42);
        let run = a.run(&two_node_recording(42));
        assert!(run.origin_detect_window.is_some(), "seizure not detected");
        assert_eq!(run.confirmations.len(), 1, "{run:?}");
        let delay = run.max_delay_ms().unwrap();
        // The 10 ms target applies from a *matched* detection; early in
        // the ramp a few 4 ms windows may pass before windows correlate,
        // so allow a small number of retries here.
        assert!(delay <= 30.0, "prompt confirmation: {delay} ms");
        // The confirming node stimulated.
        let stimulated: usize = (0..2).map(|n| a.stim_engine(n).log().len()).sum();
        assert_eq!(stimulated, 1, "one confirmed node stimulates once");
    }

    #[test]
    fn no_seizure_no_exchange() {
        let quiet = generate(&IeegConfig {
            nodes: 2,
            electrodes_per_node: 4,
            duration_s: 0.4,
            seizures: vec![],
            seed: 7,
            ..Default::default()
        });
        let mut a = app(0.0, 7);
        // Train on a seizure recording so the detector is meaningful.
        let run = a.run(&quiet);
        assert!(run.origin_detect_window.is_none(), "{run:?}");
        assert!(run.confirmations.is_empty());
    }

    #[test]
    fn encoding_errors_delay_but_do_not_break() {
        // §6.7/Figure 15a: even large per-hash error rates only delay
        // confirmation, because many electrodes carry the seizure and the
        // exchange retries every window.
        let mut clean = app(0.0, 11);
        let clean_delay = clean
            .run(&two_node_recording(11))
            .max_delay_ms()
            .expect("clean run confirms");
        let mut noisy = app(0.0, 11);
        noisy.hash_error_rate = 0.5;
        let run = noisy.run(&two_node_recording(11));
        let noisy_delay = run.max_delay_ms().expect("noisy run still confirms");
        assert!(noisy_delay >= clean_delay, "{noisy_delay} vs {clean_delay}");
        // The exact delay depends on the RNG stream; what matters is that
        // a 50% encoding-error rate delays confirmation by a bounded
        // number of retry windows rather than losing it.
        assert!(noisy_delay <= 100.0, "bounded delay: {noisy_delay} ms");
    }

    #[test]
    fn reliable_transport_recovers_hash_packets() {
        // Same harsh BER as `network_errors_drop_hash_packets`, but with
        // the reliable transport the exchange loses (essentially) no
        // hash batches to the channel.
        let mut a = app(1e-3, 23);
        a.use_reliable_transport = true;
        let run = a.run(&two_node_recording(23));
        assert_eq!(run.hash_packets_dropped, 0, "{run:?}");
        assert!(run.max_delay_ms().is_some(), "{run:?}");
        let s = a.system().stats();
        assert!(s.retransmissions > 0, "the channel did bite: {s:?}");
    }

    #[test]
    fn crashed_nodes_degrade_to_surviving_quorum() {
        use crate::fault::{Fault, FaultPlan};
        use crate::membership::MembershipEvent;

        let recording = generate(&IeegConfig {
            nodes: 4,
            electrodes_per_node: 4,
            duration_s: 0.9,
            seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, 4, 0.0)],
            seed: 31,
            ..Default::default()
        });
        let cfg = ScaloConfig::default()
            .with_nodes(4)
            .with_electrodes(4)
            .with_ber(0.0)
            .with_seed(31);
        let mut a = SeizureApp::new(cfg);
        a.train_detectors(&training_windows(&recording.config));
        // Node 3 dies before the seizure starts.
        let mut plan = FaultPlan::new();
        plan.schedule(100_000, Fault::Crash { node: 3 });
        a.system_mut().set_fault_plan(plan);

        let run = a.run(&recording);
        assert!(!a.system().is_alive(3));
        assert!(run.origin_detect_window.is_some(), "quorum still detects");
        assert!(
            run.confirmations.iter().any(|c| c.node != 3),
            "a survivor confirms: {run:?}"
        );
        assert!(run.confirmations.iter().all(|c| c.node != 3));
        // The survivors evicted the dead node and re-solved the schedule.
        assert!(a
            .system()
            .membership_log()
            .iter()
            .any(|r| r.event == MembershipEvent::Evicted { peer: 3 }));
        let decision = a.system().schedule_decisions().last().expect("re-solved");
        assert_eq!(decision.live, vec![0, 1, 2]);
        assert!(a.system().membership(0).has_quorum());
    }

    #[test]
    fn network_errors_drop_hash_packets() {
        // Figure 15b: at harsh BER some hash packets drop; confirmation
        // resumes at a later window.
        let mut a = app(1e-3, 23);
        let run = a.run(&two_node_recording(23));
        assert!(run.hash_packets_dropped > 0, "{run:?}");
        assert!(
            run.max_delay_ms().is_some(),
            "confirmation still happens: {run:?}"
        );
    }
}
