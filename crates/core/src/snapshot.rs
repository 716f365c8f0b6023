//! Compact binary session snapshots — the unit of fleet durability.
//!
//! A [`SessionSnapshot`] captures everything the durability layer needs
//! to reconstruct a [`crate::session::Session`] after a process death:
//! the full [`SessionSpec`], the window cursor and step accounting, the
//! application RNG's stream position, the movement decode results, and
//! a two-part digest cursor (the cheap per-window step digest plus the
//! FNV fingerprint of the full decision digest). The codec is a
//! hand-rolled little-endian byte format — fixed-width integers, IEEE
//! bit-patterns for floats, length-prefixed sequences — with a
//! versioned header and a trailing FNV-1a checksum, so a stale or
//! corrupted image is rejected cleanly instead of deserialising into
//! garbage.
//!
//! Restoration is *deterministic re-execution*: SCALO sessions are pure
//! functions of their seed, so the snapshot does not serialise the
//! multi-megabyte system image (NVM rings, CCHECK SRAM, detector
//! weights). Instead [`crate::session::Session::restore`] rebuilds the
//! session from the spec and fast-forwards to the snapshot's window
//! cursor, then *verifies* the checkpointed digest cursor and RNG
//! position byte-for-byte — divergence is an error, never silent.

use crate::session::{QueryBinding, SessionSpec};
use std::fmt;

/// Magic bytes opening every encoded snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SCSS";

/// Current snapshot format version. Version 2 added the session's
/// query source and binding timeline (initial binding plus every hot
/// reconfiguration), so recovery replays reconfigured sessions epoch
/// by epoch.
pub const SNAPSHOT_VERSION: u16 = 2;

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
    /// Fast-forward replay reached the cursor with a different digest
    /// than the snapshot recorded — the log and the code disagree.
    DigestMismatch {
        /// Session id.
        session: u64,
        /// The cursor window the mismatch was detected at.
        window: u64,
        /// Digest recorded in the snapshot.
        stored: u64,
        /// Digest produced by re-execution.
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
    /// Next window to process (everything before it is replayed).
    pub window: u64,
    /// Steps executed when the snapshot was taken.
    pub steps: u64,
    /// Deadline misses accumulated (wall-clock accounting carried
    /// across recovery; never part of any digest).
    pub deadline_misses: u64,
    /// Wall-clock µs spent stepping (accounting continuity only).
    pub wall_us: u64,
    /// The application RNG's word position — verified after
    /// fast-forward so silent RNG drift cannot survive recovery.
    pub rng_word_pos: u64,
    /// Movement decode results so far, `(round, value)` pairs.
    pub movement_results: Vec<(u64, f64)>,
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
}

impl SessionSnapshot {
    /// Encodes the snapshot: versioned header, body, trailing FNV-1a
    /// checksum over header + body.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(128 + 12 * self.movement_results.len());
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
        put_u64(out, self.step_digest);
        put_u64(out, self.decisions_fnv);
        let checksum = fnv1a(out);
        put_u64(out, checksum);
    }

    /// Decodes and validates an encoded snapshot.
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
        let query = r.opt_str()?;
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
        if nodes == 0 || electrodes == 0 {
            return Err(SnapshotError::Invalid("degenerate deployment"));
        }
        if !duration_s.is_finite() || duration_s <= 0.0 {
            return Err(SnapshotError::Invalid("non-positive duration"));
        }
        let spec = SessionSpec {
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
            query,
        };
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
        let step_digest = r.u64()?;
        let decisions_fnv = r.u64()?;
        if r.pos != body.len() {
            return Err(SnapshotError::Invalid("trailing bytes after snapshot body"));
        }
        Ok(Self {
            spec,
            window,
            steps,
            deadline_misses,
            wall_us,
            rng_word_pos,
            movement_results,
            step_digest,
            decisions_fnv,
            initial_binding,
            reconfigures,
        })
    }
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

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        if self.pos + n > self.bytes.len() {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn opt_str(&mut self) -> Result<Option<String>, SnapshotError> {
        if self.u8()? == 0 {
            return Ok(None);
        }
        let len = self.u64()? as usize;
        // The length is attacker-controlled until the take() below
        // bounds it against the actual buffer.
        if len > self.bytes.len().saturating_sub(self.pos) {
            return Err(SnapshotError::Truncated { offset: self.pos });
        }
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
        SessionSnapshot {
            spec,
            window: 42,
            steps: 42,
            deadline_misses: 3,
            wall_us: 123_456,
            rng_word_pos: 99,
            movement_results: vec![(0, 0.91), (1, -2.5)],
            step_digest: 0xdead_beef_cafe_f00d,
            decisions_fnv: 0x0123_4567_89ab_cdef,
            initial_binding,
            reconfigures: Vec::new(),
        }
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
