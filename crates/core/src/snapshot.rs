//! Compact binary session snapshots — the unit of fleet durability.
//!
//! A [`SessionSnapshot`] is a *state image*: it captures everything the
//! durability and swap layers need to resume a
//! [`crate::session::Session`] after an eviction or a process death:
//! the full [`SessionSpec`], the window cursor and step accounting, the
//! application RNG's stream position, the movement decode results, the
//! session state ([`SessionState`]: run state, system state, and per
//! node the collision-horizon hash records, partition counters and
//! stimulation engine), each node's trained seizure detector (weights
//! and bias, 72 B per node), and a two-part digest cursor (the cheap
//! per-window step digest plus the FNV fingerprint of the full decision
//! digest). The codec is a hand-rolled little-endian byte format —
//! fixed-width integers, IEEE bit-patterns for floats, count-prefixed
//! lists of fixed-size records — with a versioned header and a trailing
//! FNV-1a checksum, so a stale or corrupted image is rejected cleanly
//! instead of deserialising into garbage, and a field a restore could
//! not serve (a node count past the lag table, a detector of the wrong
//! length or with a non-finite weight, a hash record off the window
//! clock) is rejected as [`SnapshotError::Invalid`].
//!
//! [`crate::session::Session::restore`] installs the state and
//! synthesizes only the serving windows from the cursor on: it never
//! steps a window, never synthesizes the training recording and never
//! trains. It then checks that the installed state digests to the
//! image's digest cursor. Signal windows before the cursor are not in
//! the image (the NVM signal ring would be most of its bytes); a
//! restored node re-derives one on read from the seekable generator.
//!
//! [`crate::session::Session::restore_verified`] is the verifier the
//! WAL recovery and `experiments replay` use: it rebuilds the session
//! from its spec and the image's detectors, re-executes it to the
//! cursor, and requires the replayed state, digest cursor and RNG
//! position to equal the image's byte for byte — divergence is an
//! error, never silent.

use crate::apps::seizure::{WINDOW, WINDOW_US};
use crate::node::Node;
use crate::session::{QueryBinding, SessionSpec};
pub use crate::state::SessionState;
use scalo_data::ieeg::MAX_NODES;
use scalo_data::SAMPLE_RATE_HZ;
use scalo_ml::svm::LinearSvm;
use std::fmt;

/// Most electrodes an image may give one implant: SCALO's per-implant
/// electrode count ([`crate::config::ScaloConfig`]).
pub const MAX_ELECTRODES: usize = 96;

/// Longest recording an image may carry, s (2,500 windows).
pub const MAX_DURATION_S: f64 = 10.0;

/// Most samples an image's serving recording may hold across every
/// node and electrode (1 GiB of `f64`): restore synthesizes it.
pub const MAX_RECORDING_SAMPLES: usize = 1 << 27;

/// Largest span ring an image may ask restore to pre-allocate, events.
pub const MAX_TRACE_CAPACITY: usize = 1 << 20;

/// Longest modeled radio wait an image may carry, µs: one window's
/// period. A longer wait could never keep up with the stream.
pub const MAX_IO_STALL_US: u64 = WINDOW_US;

/// Magic bytes opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SCSS";

/// Current snapshot format version. Version 2 added the session's
/// query source and binding timeline (initial binding plus every hot
/// reconfiguration), so recovery replays reconfigured sessions epoch
/// by epoch. Version 3 added each node's trained detector, so restore
/// installs the detectors instead of retraining them. Version 4 added
/// the session state ([`SessionState`]), so restore installs it instead
/// of re-executing to the cursor; older images are rejected with
/// [`SnapshotError::BadVersion`].
pub const SNAPSHOT_VERSION: u16 = 4;

/// Incremental 64-bit FNV-1a hasher, allocation-free. Used for the
/// per-window step digests, the snapshot checksum, and the WAL record
/// checksums — one hash everywhere keeps the digest chain auditable.
/// The implementation is `scalo-storage`'s (the layer below), re-exported
/// here where the session code and its callers look for it.
pub use scalo_storage::wal_fnv::{fnv1a, Fnv64};

/// Why a snapshot could not be decoded or a session could not be
/// restored from one.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The header's version is not [`SNAPSHOT_VERSION`].
    BadVersion {
        /// The version found in the header.
        found: u16,
    },
    /// The trailing checksum does not match the body.
    BadChecksum {
        /// Checksum stored in the image.
        stored: u64,
        /// Checksum computed over the decoded bytes.
        computed: u64,
    },
    /// The buffer ended before the structure it claims to hold.
    Truncated {
        /// Byte offset at which the reader ran dry.
        offset: usize,
    },
    /// A decoded field failed validation (e.g. a zero-node deployment).
    Invalid(&'static str),
    /// The restored (or replayed) session does not digest to the
    /// image's cursor — the image and the code disagree.
    DigestMismatch {
        /// Session id.
        session: u64,
        /// The cursor window the mismatch was detected at.
        window: u64,
        /// Digest recorded in the snapshot.
        stored: u64,
        /// Digest of the restored or re-executed session.
        replayed: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "snapshot does not start with SCSS magic"),
            Self::BadVersion { found } => write!(
                f,
                "snapshot version {found} unsupported (expected {SNAPSHOT_VERSION})"
            ),
            Self::BadChecksum { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:016x}, computed {computed:016x}"
            ),
            Self::Truncated { offset } => {
                write!(f, "snapshot truncated at byte offset {offset}")
            }
            Self::Invalid(what) => write!(f, "snapshot field invalid: {what}"),
            Self::DigestMismatch {
                session,
                window,
                stored,
                replayed,
            } => write!(
                f,
                "session {session} replay diverged at window {window}: \
                 snapshot digest {stored:016x}, replayed {replayed:016x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// A serializable image of a session at a window boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSnapshot {
    /// The full session spec — recovery rebuilds the session from it.
    pub spec: SessionSpec,
    /// Next window to process.
    pub window: u64,
    /// Steps executed when the snapshot was taken.
    pub steps: u64,
    /// Deadline misses accumulated (wall-clock accounting carried
    /// across recovery; never part of any digest).
    pub deadline_misses: u64,
    /// Wall-clock µs spent stepping (accounting continuity only).
    pub wall_us: u64,
    /// The application RNG's word position: restore seeks the RNG to it,
    /// and the verifier requires re-execution to reach it.
    pub rng_word_pos: u64,
    /// Movement decode results so far, `(round, value)` pairs.
    pub movement_results: Vec<(u64, f64)>,
    /// The session state restore installs (module docs).
    pub state: SessionState,
    /// The cheap per-window step digest at the cursor
    /// ([`crate::session::Session::step_digest`]).
    pub step_digest: u64,
    /// FNV-1a of the full decision digest string at the cursor.
    pub decisions_fnv: u64,
    /// The binding the session was admitted with — epoch 0 of the
    /// replay timeline.
    pub initial_binding: QueryBinding,
    /// Hot reconfigurations applied before the snapshot, `(window,
    /// binding)` in application order, windows non-decreasing and at
    /// most the cursor.
    pub reconfigures: Vec<(u64, QueryBinding)>,
    /// Each node's trained seizure detector, in node order — restore
    /// installs these rather than retraining.
    pub detectors: Vec<LinearSvm>,
}

/// Encoded bytes of one detector: weight count, weights, bias.
const DETECTOR_BYTES: usize = 8 * (Node::DETECTION_FEATURES + 2);

impl SessionSnapshot {
    /// Encodes the snapshot: versioned header, body, trailing FNV-1a
    /// checksum over header + body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            1024 + 16 * self.movement_results.len() + DETECTOR_BYTES * self.detectors.len(),
        );
        self.encode_into(&mut out);
        out
    }

    /// Encodes into a caller-owned buffer (cleared first), so steady
    /// callers can reuse one allocation.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.clear();
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
        let s = &self.spec;
        put_u64(out, s.id);
        put_u64(out, s.seed);
        out.push(s.priority);
        put_u64(out, s.nodes as u64);
        put_u64(out, s.electrodes as u64);
        put_f64(out, s.duration_s);
        put_f64(out, s.ber);
        out.push(u8::from(s.use_reliable_transport));
        put_u64(out, s.movement_every as u64);
        put_u64(out, s.step_deadline_us);
        put_u64(out, s.io_stall_us);
        put_u64(out, s.trace_capacity as u64);
        put_opt_str(out, s.query.as_deref());
        put_binding(out, &self.initial_binding);
        put_u64(out, self.reconfigures.len() as u64);
        for (window, binding) in &self.reconfigures {
            put_u64(out, *window);
            put_binding(out, binding);
        }
        put_u64(out, self.window);
        put_u64(out, self.steps);
        put_u64(out, self.deadline_misses);
        put_u64(out, self.wall_us);
        put_u64(out, self.rng_word_pos);
        put_u64(out, self.movement_results.len() as u64);
        for &(round, value) in &self.movement_results {
            put_u64(out, round);
            put_f64(out, value);
        }
        self.state.encode_into(out);
        put_u64(out, self.detectors.len() as u64);
        for svm in &self.detectors {
            put_u64(out, svm.num_features() as u64);
            for &w in svm.weights() {
                put_f64(out, w);
            }
            put_f64(out, svm.bias());
        }
        put_u64(out, self.step_digest);
        put_u64(out, self.decisions_fnv);
        let checksum = fnv1a(out);
        put_u64(out, checksum);
    }

    /// Checks the fields a restore would otherwise panic on, could not
    /// serve, or would size allocations and waits by: a deployment of
    /// `1..=MAX_NODES` implants with `1..=MAX_ELECTRODES` electrodes, a
    /// positive duration of at most [`MAX_DURATION_S`] whose recording
    /// holds at most [`MAX_RECORDING_SAMPLES`] samples, a bit-error
    /// ratio in `[0, 1)`, a trace ring of at most [`MAX_TRACE_CAPACITY`]
    /// events, a radio wait of at most [`MAX_IO_STALL_US`], a cursor at
    /// most the recording's window count, a state that fits the
    /// deployment ([`SessionState::validate`]), and one detector per
    /// node, each [`Node::DETECTION_FEATURES`] weights long with every
    /// weight and the bias finite. [`Self::decode`] and
    /// [`crate::session::Session::restore`] both run it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] naming the first field that fails.
    pub fn validate(&self) -> Result<(), SnapshotError> {
        validate_spec(&self.spec)?;
        let windows_total = (self.spec.duration_s * SAMPLE_RATE_HZ) as u64 / WINDOW as u64;
        if self.window > windows_total {
            return Err(SnapshotError::Invalid("cursor"));
        }
        self.state
            .validate(self.spec.nodes, self.spec.electrodes, self.window)?;
        if self.detectors.len() != self.spec.nodes {
            return Err(SnapshotError::Invalid("detector count"));
        }
        for svm in &self.detectors {
            if svm.num_features() != Node::DETECTION_FEATURES {
                return Err(SnapshotError::Invalid("detector length"));
            }
            if !svm.weights().iter().all(|w| w.is_finite()) || !svm.bias().is_finite() {
                return Err(SnapshotError::Invalid("non-finite detector"));
            }
        }
        Ok(())
    }

    /// Decodes and validates an encoded snapshot ([`Self::validate`]).
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        // Header first, checksum second: a stale version must be
        // reported as such even if the trailer happens to validate.
        if bytes.len() < SNAPSHOT_MAGIC.len() + 2 {
            return Err(SnapshotError::Truncated { offset: 0 });
        }
        if bytes[..4] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != SNAPSHOT_VERSION {
            return Err(SnapshotError::BadVersion { found: version });
        }
        if bytes.len() < 6 + 8 {
            return Err(SnapshotError::Truncated {
                offset: bytes.len(),
            });
        }
        let (body, trailer) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        let computed = fnv1a(body);
        if stored != computed {
            return Err(SnapshotError::BadChecksum { stored, computed });
        }

        let mut r = Reader {
            bytes: body,
            pos: 6,
        };
        let id = r.u64()?;
        let seed = r.u64()?;
        let priority = r.u8()?;
        let nodes = r.u64()? as usize;
        let electrodes = r.u64()? as usize;
        let duration_s = r.f64()?;
        let ber = r.f64()?;
        let use_reliable_transport = r.u8()? != 0;
        let movement_every = r.u64()? as usize;
        let step_deadline_us = r.u64()?;
        let io_stall_us = r.u64()?;
        let trace_capacity = r.u64()? as usize;
        let mut spec = SessionSpec {
            id,
            seed,
            priority,
            nodes,
            electrodes,
            duration_s,
            ber,
            use_reliable_transport,
            movement_every,
            step_deadline_us,
            io_stall_us,
            trace_capacity,
            query: None,
        };
        // Before anything is allocated: a forged shape fails here.
        validate_spec(&spec)?;
        spec.query = r.opt_str()?;
        let initial_binding = r.binding()?;
        let n_reconfigures = r.u64()? as usize;
        // Each transition is at least 8 (window) + 9 (binding fixed
        // part) + 9 (opt-str header) bytes; bound the allocation by
        // what actually remains.
        if n_reconfigures > r.bytes.len().saturating_sub(r.pos) / 26 {
            return Err(SnapshotError::Invalid("reconfigure count"));
        }
        let mut reconfigures = Vec::with_capacity(n_reconfigures);
        let mut last_window = 0u64;
        for _ in 0..n_reconfigures {
            let at = r.u64()?;
            if at < last_window {
                return Err(SnapshotError::Invalid("reconfigure windows out of order"));
            }
            last_window = at;
            reconfigures.push((at, r.binding()?));
        }
        let window = r.u64()?;
        if reconfigures.last().is_some_and(|&(at, _)| at > window) {
            return Err(SnapshotError::Invalid("reconfigure beyond the cursor"));
        }
        let steps = r.u64()?;
        let deadline_misses = r.u64()?;
        let wall_us = r.u64()?;
        let rng_word_pos = r.u64()?;
        let n_movement = r.u64()? as usize;
        // A corrupted length would otherwise drive a huge allocation;
        // every movement entry is 16 bytes, so bound by what remains.
        if n_movement > body.len().saturating_sub(r.pos) / 16 {
            return Err(SnapshotError::Invalid("movement result count"));
        }
        let mut movement_results = Vec::with_capacity(n_movement);
        for _ in 0..n_movement {
            let round = r.u64()?;
            let value = r.f64()?;
            movement_results.push((round, value));
        }
        let state = SessionState::decode(&mut r, nodes, electrodes, window)?;
        // One detector per node (at most MAX_NODES, checked above):
        // check the count and every length before allocating, so a
        // forged field allocates nothing large.
        if r.u64()? != nodes as u64 {
            return Err(SnapshotError::Invalid("detector count"));
        }
        let mut detectors = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            if r.u64()? != Node::DETECTION_FEATURES as u64 {
                return Err(SnapshotError::Invalid("detector length"));
            }
            let weights = (0..Node::DETECTION_FEATURES)
                .map(|_| r.f64())
                .collect::<Result<Vec<_>, _>>()?;
            detectors.push(LinearSvm::new(weights, r.f64()?));
        }
        let step_digest = r.u64()?;
        let decisions_fnv = r.u64()?;
        if r.pos != body.len() {
            return Err(SnapshotError::Invalid("trailing bytes after snapshot body"));
        }
        let snap = Self {
            spec,
            window,
            steps,
            deadline_misses,
            wall_us,
            rng_word_pos,
            movement_results,
            state,
            step_digest,
            decisions_fnv,
            initial_binding,
            reconfigures,
            detectors,
        };
        snap.validate()?;
        Ok(snap)
    }
}

/// The spec half of [`SessionSnapshot::validate`].
fn validate_spec(s: &SessionSpec) -> Result<(), SnapshotError> {
    if s.nodes == 0 || s.electrodes == 0 {
        return Err(SnapshotError::Invalid("degenerate deployment"));
    }
    if s.nodes > MAX_NODES {
        return Err(SnapshotError::Invalid("node count"));
    }
    if s.electrodes > MAX_ELECTRODES {
        return Err(SnapshotError::Invalid("electrode count"));
    }
    if !s.duration_s.is_finite() || s.duration_s <= 0.0 {
        return Err(SnapshotError::Invalid("non-positive duration"));
    }
    if s.duration_s > MAX_DURATION_S {
        return Err(SnapshotError::Invalid("duration"));
    }
    let per_channel = (s.duration_s * SAMPLE_RATE_HZ) as usize;
    if s.nodes * s.electrodes * per_channel > MAX_RECORDING_SAMPLES {
        return Err(SnapshotError::Invalid("recording size"));
    }
    if !(0.0..1.0).contains(&s.ber) {
        return Err(SnapshotError::Invalid("bit-error ratio"));
    }
    if s.trace_capacity > MAX_TRACE_CAPACITY {
        return Err(SnapshotError::Invalid("trace capacity"));
    }
    if s.io_stall_us > MAX_IO_STALL_US {
        return Err(SnapshotError::Invalid("radio wait"));
    }
    Ok(())
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

fn put_opt_str(out: &mut Vec<u8>, s: Option<&str>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_u64(out, s.len() as u64);
            out.extend_from_slice(s.as_bytes());
        }
    }
}

fn put_binding(out: &mut Vec<u8>, b: &QueryBinding) {
    put_u64(out, b.movement_every as u64);
    out.push(u8::from(b.use_reliable_transport));
    put_opt_str(out, b.query.as_deref());
}

/// A bounds-checked little-endian cursor over an image body.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if n > self.remaining() {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, SnapshotError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` counter as a `usize`.
    pub(crate) fn count(&mut self) -> Result<usize, SnapshotError> {
        usize::try_from(self.u64()?).map_err(|_| SnapshotError::Invalid("counter"))
    }

    /// A presence byte then a fixed-size value read by `read` (zeros
    /// when absent).
    pub(crate) fn opt<T>(
        &mut self,
        read: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        let present = self.u8()?;
        let value = read(self)?;
        match present {
            0 => Ok(None),
            1 => Ok(Some(value)),
            _ => Err(SnapshotError::Invalid("presence flag")),
        }
    }

    /// Fails unless `n` records of at least `record_bytes` each fit in
    /// what is left: the check that runs before allocating for them.
    pub(crate) fn bound(&self, n: usize, record_bytes: usize) -> Result<(), SnapshotError> {
        if n.saturating_mul(record_bytes) > self.remaining() {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        Ok(())
    }

    /// `n` records of `record_bytes` each, read by `read`, allocated
    /// only once they are known to fit ([`Self::bound`]).
    pub(crate) fn vec<T>(
        &mut self,
        n: usize,
        record_bytes: usize,
        mut read: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        self.bound(n, record_bytes)?;
        (0..n).map(|_| read(self)).collect()
    }

    pub(crate) fn opt_str(&mut self) -> Result<Option<String>, SnapshotError> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        let len = self.u64()? as usize;
        // The length is attacker-controlled until take() bounds it
        // against the actual buffer.
        let s = std::str::from_utf8(self.take(len)?)
            .map_err(|_| SnapshotError::Invalid("non-UTF-8 query"))?;
        Ok(Some(s.to_string()))
    }

    fn binding(&mut self) -> Result<QueryBinding, SnapshotError> {
        Ok(QueryBinding {
            movement_every: self.u64()? as usize,
            use_reliable_transport: self.u8()? != 0,
            query: self.opt_str()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::membership::PeerState;
    use crate::state::{HashImage, LinkImage, NodeImage};
    use crate::system::MediumStats;
    use scalo_net::reliable::FlowStats;

    /// A state three windows into the horizon of a `nodes`-implant
    /// session past detection, with one reliable link.
    fn sample_state(nodes: usize) -> SessionState {
        SessionState {
            origin_detect: Some((30, 1)),
            first_detect_window: Some(30),
            failovers: 0,
            hash_drops: 2,
            window_clock: vec![160_000, 164_000, 168_500],
            time_us: 172_500,
            last_heartbeat_us: 172_000,
            ber_spike_until_us: None,
            channel_ber: 1e-4,
            channel_word_pos: 1_234,
            stats: MediumStats {
                transmissions: 10,
                heartbeats: 80,
                ..MediumStats::default()
            },
            links: vec![LinkImage {
                src: 1,
                dst: 0,
                flow: 1,
                next_seq: 12,
                delivered: vec![(0, 12)],
                stats: FlowStats {
                    data_packets: 12,
                    delivered: 12,
                    transmissions: 13,
                    ..FlowStats::default()
                },
            }],
            fault_plan: Vec::new(),
            fault_log: Vec::new(),
            membership_log: Vec::new(),
            schedule_decisions: Vec::new(),
            hash_width: 1,
            nodes: (0..nodes)
                .map(|i| NodeImage {
                    alive: true,
                    confirmed_ms: (i == 2).then_some(8.0),
                    clock_offset_us: 0,
                    view: vec![(172_000, PeerState::Alive); nodes],
                    partitions: [(64 << 20, 0), (8 << 20, 0), (16 << 20, 0), (4 << 20, 0)],
                    hashes: vec![
                        HashImage {
                            slot: 0,
                            electrode: 0,
                        },
                        HashImage {
                            slot: 2,
                            electrode: 4,
                        },
                    ],
                    hash_bytes: vec![0xab, 0xcd],
                    stim_log: Vec::new(),
                    stim_energy_uj: 0.0,
                })
                .collect(),
        }
    }

    fn sample() -> SessionSnapshot {
        let spec = SessionSpec::new(7, 0xfeed)
            .with_priority(3)
            .with_deployment(3, 5)
            .with_duration_s(0.7)
            .with_ber(1e-4)
            .with_movement_every(25)
            .with_io_stall_us(400)
            .with_trace_capacity(1024);
        let initial_binding = QueryBinding::of(&spec);
        let detectors = (0..spec.nodes)
            .map(|n| LinearSvm::new(vec![0.25 * n as f64 - 1.0; Node::DETECTION_FEATURES], 0.5))
            .collect();
        SessionSnapshot {
            spec,
            window: 42,
            steps: 42,
            deadline_misses: 3,
            wall_us: 123_456,
            rng_word_pos: 99,
            movement_results: vec![(0, 0.91), (1, -2.5)],
            state: sample_state(3),
            step_digest: 0xdead_beef_cafe_f00d,
            decisions_fnv: 0x0123_4567_89ab_cdef,
            initial_binding,
            reconfigures: Vec::new(),
            detectors,
        }
    }

    /// Recomputes the trailing checksum after an edit, as a forger
    /// would: the image then reaches field validation.
    fn reseal(bytes: &mut Vec<u8>) {
        bytes.truncate(bytes.len() - 8);
        let checksum = fnv1a(bytes);
        bytes.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Overwrites the `u64` at `at` and reseals.
    fn forge_u64(bytes: &mut Vec<u8>, at: usize, v: u64) {
        bytes[at..at + 8].copy_from_slice(&v.to_le_bytes());
        reseal(bytes);
    }

    /// Byte offset of the detector count: it precedes the detectors and
    /// the two trailing digests.
    fn detector_count_at(snap: &SessionSnapshot, bytes: &[u8]) -> usize {
        bytes.len() - 8 - 16 - DETECTOR_BYTES * snap.detectors.len() - 8
    }

    #[test]
    fn image_carries_every_detector_bit_for_bit() {
        let snap = sample();
        let bytes = snap.encode();
        let at = detector_count_at(&snap, &bytes);
        assert_eq!(bytes[at..at + 8], 3u64.to_le_bytes());
        let back = SessionSnapshot::decode(&bytes).unwrap();
        assert_eq!(back.detectors, snap.detectors);
    }

    #[test]
    fn resealed_node_count_past_the_lag_table_is_invalid() {
        // Node count sits after magic, version, id, seed and priority.
        let mut bytes = sample().encode();
        forge_u64(&mut bytes, 6 + 8 + 8 + 1, (MAX_NODES + 1) as u64);
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::Invalid("node count"))
        );
    }

    #[test]
    fn resealed_bit_error_ratio_out_of_range_is_invalid() {
        let mut snap = sample();
        snap.spec.ber = 1.5;
        assert_eq!(
            SessionSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Invalid("bit-error ratio"))
        );
    }

    #[test]
    fn forged_detector_count_or_length_is_invalid() {
        let snap = sample();
        let clean = snap.encode();
        let at = detector_count_at(&snap, &clean);
        for (offset, value, what) in [
            (at, u64::MAX, "detector count"),
            (at, 2, "detector count"),
            (at + 8, u64::MAX, "detector length"),
            (
                at + 8,
                Node::DETECTION_FEATURES as u64 + 1,
                "detector length",
            ),
        ] {
            let mut bytes = clean.clone();
            forge_u64(&mut bytes, offset, value);
            assert_eq!(
                SessionSnapshot::decode(&bytes),
                Err(SnapshotError::Invalid(what)),
                "{value} at byte {offset}"
            );
        }
    }

    #[test]
    fn non_finite_detector_is_invalid() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut snap = sample();
            let n = Node::DETECTION_FEATURES;
            snap.detectors[1] = LinearSvm::new(vec![bad; n], 0.0);
            assert_eq!(
                SessionSnapshot::decode(&snap.encode()),
                Err(SnapshotError::Invalid("non-finite detector"))
            );
            snap.detectors[1] = LinearSvm::new(vec![0.0; n], bad);
            assert_eq!(
                snap.validate(),
                Err(SnapshotError::Invalid("non-finite detector"))
            );
        }
    }

    #[test]
    fn missing_detectors_are_invalid() {
        let mut snap = sample();
        snap.detectors.pop();
        assert_eq!(
            SessionSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Invalid("detector count"))
        );
    }

    #[test]
    fn roundtrip_is_identity() {
        let snap = sample();
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn roundtrip_with_query_and_timeline() {
        let mut snap = sample();
        snap.spec.query = Some("var q = stream.window(wsize=4ms).seizure_detect()".into());
        snap.initial_binding = QueryBinding {
            movement_every: 0,
            use_reliable_transport: false,
            query: snap.spec.query.clone(),
        };
        snap.reconfigures = vec![
            (
                10,
                QueryBinding {
                    movement_every: 25,
                    use_reliable_transport: true,
                    query: Some("var q2 = stream.window(wsize=4ms).seizure_detect()".into()),
                },
            ),
            (
                30,
                QueryBinding {
                    movement_every: 0,
                    use_reliable_transport: false,
                    query: None,
                },
            ),
        ];
        let bytes = snap.encode();
        assert_eq!(SessionSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn out_of_order_or_overrunning_timeline_rejected() {
        let reconfigure = |at| {
            (
                at,
                QueryBinding {
                    movement_every: 5,
                    use_reliable_transport: false,
                    query: None,
                },
            )
        };
        let mut snap = sample();
        snap.reconfigures = vec![reconfigure(30), reconfigure(10)];
        assert_eq!(
            SessionSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Invalid("reconfigure windows out of order"))
        );
        snap.reconfigures = vec![reconfigure(snap.window + 1)];
        assert_eq!(
            SessionSnapshot::decode(&snap.encode()),
            Err(SnapshotError::Invalid("reconfigure beyond the cursor"))
        );
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        );
    }

    #[test]
    fn stale_version_rejected_before_checksum() {
        let mut bytes = sample().encode();
        bytes[4] = 0x63; // version 99
        bytes[5] = 0;
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::BadVersion { found: 99 })
        );
    }

    #[test]
    fn version_2_images_are_rejected() {
        // A v2 image has no detectors, so a restore from it would have
        // to retrain; it is refused before anything else is read.
        let mut bytes = sample().encode();
        bytes[4..6].copy_from_slice(&2u16.to_le_bytes());
        reseal(&mut bytes);
        assert_eq!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::BadVersion { found: 2 })
        );
    }

    #[test]
    fn flipped_bit_rejected() {
        let mut bytes = sample().encode();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        assert!(matches!(
            SessionSnapshot::decode(&bytes),
            Err(SnapshotError::BadChecksum { .. })
        ));
    }

    #[test]
    fn truncated_tail_rejected() {
        let bytes = sample().encode();
        for cut in [0, 3, 6, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                SessionSnapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }
}
