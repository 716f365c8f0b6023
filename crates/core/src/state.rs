//! The session state image: the part of an SCSS v4 snapshot that lets a
//! restore resume a session without re-executing it.
//!
//! [`SessionState`] holds everything that re-execution to the cursor
//! would rebuild: the run state, the system's clock, channel and
//! medium statistics, liveness, membership views and logs, reliable
//! links, the remaining fault plan, and per node the clock offset, the
//! CCHECK / `Hashes`-partition records inside the collision horizon,
//! the NVM partition counters and the stimulation engine. Signal
//! records are *not* carried: a restored node re-derives a pre-cursor
//! window on read from the seekable generator, for the (electrode,
//! timestamp) pairs its carried hash records prove were stored.
//!
//! The layout follows fixed per-field offsets: a fixed run and system
//! header, then count-prefixed lists of fixed-size records, then one
//! fixed-shape block per node. Every count is bounded — by the session
//! shape it must fit and by the bytes left to read — before anything is
//! allocated for it.

use crate::apps::seizure::{WINDOW, WINDOW_US};
use crate::config::ScaloConfig;
use crate::fault::{Fault, FaultEvent};
use crate::membership::{MembershipEvent, PeerState};
use crate::snapshot::{Reader, SnapshotError};
use crate::stim::StimCommand;
use crate::system::{FaultRecord, MediumStats, MembershipRecord, ScheduleDecision};
use scalo_data::ieeg::MAX_NODES;
use scalo_net::reliable::{FlowStats, DUP_WINDOW};
use scalo_storage::partition::PartitionKind;

/// Windows the window clock can span: the collision horizon in windows
/// plus two, so the oldest window a CCHECK match can reach is always
/// on it (every window advances the clock by at least one period).
pub fn clock_windows(horizon_us: u64) -> usize {
    (horizon_us / WINDOW_US) as usize + 2
}

/// Widest hash an image may carry, bytes.
pub const MAX_HASH_WIDTH: usize = 64;

/// Bytes of one fault (tag plus three 8-byte operands).
const FAULT_BYTES: usize = 1 + 3 * 8;
/// Bytes of one [`FaultEvent`] / [`FaultRecord`]: timestamp plus fault.
const TIMED_FAULT_BYTES: usize = 8 + FAULT_BYTES;
/// Bytes of one [`MembershipRecord`]: timestamp, observer, event tag, peer.
const MEMBERSHIP_BYTES: usize = 8 + 3;
/// Bytes of one [`ScheduleDecision`]: timestamp, live mask, throughput.
const DECISION_BYTES: usize = 8 + 2 + 1 + 8;
/// Bytes of one link's fixed part: key, sequence, run count, statistics.
const LINK_BYTES: usize = 3 + 2 + 2 + 8 * 8;
/// Bytes of one stimulation entry: timestamp, electrode, three floats.
const STIM_BYTES: usize = 8 + 2 + 3 * 8;

/// One carried hash record: the window-clock slot it was ingested at
/// (its timestamp is `window_clock[slot]`) and its electrode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashImage {
    /// Index into [`SessionState::window_clock`].
    pub slot: u16,
    /// Producing electrode.
    pub electrode: u16,
}

/// One reliable link, keyed `(src, dst, flow)`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkImage {
    /// Sending node.
    pub src: u8,
    /// Receiving node.
    pub dst: u8,
    /// Flow tag.
    pub flow: u8,
    /// Next sequence number to send.
    pub next_seq: u16,
    /// The receiver's duplicate-suppression window, oldest first, as
    /// runs `(first, len)` of consecutive (wrapping) sequence numbers.
    pub delivered: Vec<(u16, u16)>,
    /// Flow statistics.
    pub stats: FlowStats,
}

/// One node's part of the image.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeImage {
    /// Whether the node is up.
    pub alive: bool,
    /// Propagation confirmation delay, ms, once confirmed.
    pub confirmed_ms: Option<f64>,
    /// Local clock offset, µs.
    pub clock_offset_us: i64,
    /// The node's membership view: `(last heard µs, state)` per peer.
    pub view: Vec<(u64, PeerState)>,
    /// `(configured, failed)` bytes of each NVM partition, in
    /// [`PartitionKind::ALL`] order.
    pub partitions: [(u64, u64); 4],
    /// CCHECK / `Hashes`-partition records inside the collision horizon,
    /// oldest first.
    pub hashes: Vec<HashImage>,
    /// The records' hash bytes, [`SessionState::hash_width`] each.
    pub hash_bytes: Vec<u8>,
    /// Stimulation commands issued so far, `(µs, command)`.
    pub stim_log: Vec<(u64, StimCommand)>,
    /// Stimulation energy drawn so far, µJ.
    pub stim_energy_uj: f64,
}

/// Everything re-execution to the cursor would rebuild (module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionState {
    /// The detecting origin, `(window, node)`.
    pub origin_detect: Option<(u64, u64)>,
    /// Window of the first origin detection.
    pub first_detect_window: Option<u64>,
    /// Origin crash → survivor takeovers.
    pub failovers: u64,
    /// Hash packets lost to the channel.
    pub hash_drops: u64,
    /// Ingest time, µs, of the windows `[cursor - len, cursor)` inside
    /// the collision horizon, oldest first.
    pub window_clock: Vec<u64>,
    /// Simulation time, µs.
    pub time_us: u64,
    /// Time of the last heartbeat round, µs.
    pub last_heartbeat_us: u64,
    /// When a BER spike in force expires, µs.
    pub ber_spike_until_us: Option<u64>,
    /// The channel's bit-error ratio now (a spike's, while one lasts).
    pub channel_ber: f64,
    /// The channel RNG's word position.
    pub channel_word_pos: u64,
    /// Medium statistics.
    pub stats: MediumStats,
    /// Reliable links, in key order.
    pub links: Vec<LinkImage>,
    /// Faults still to fire, in firing order.
    pub fault_plan: Vec<FaultEvent>,
    /// Faults applied.
    pub fault_log: Vec<FaultRecord>,
    /// Membership transitions observed.
    pub membership_log: Vec<MembershipRecord>,
    /// Schedule re-solves.
    pub schedule_decisions: Vec<ScheduleDecision>,
    /// Bytes per carried hash.
    pub hash_width: u8,
    /// One image per node, in node order.
    pub nodes: Vec<NodeImage>,
}

impl SessionState {
    /// Appends the encoded state to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        put_opt(out, self.origin_detect, |out, (w, n)| {
            put_u64(out, w);
            put_u64(out, n);
        });
        put_opt(out, self.first_detect_window, put_u64);
        put_u64(out, self.failovers);
        put_u64(out, self.hash_drops);
        put_u16(out, self.window_clock.len() as u16);
        for &t in &self.window_clock {
            put_u64(out, t);
        }
        put_u64(out, self.time_us);
        put_u64(out, self.last_heartbeat_us);
        put_opt(out, self.ber_spike_until_us, put_u64);
        put_u64(out, self.channel_ber.to_bits());
        put_u64(out, self.channel_word_pos);
        let s = &self.stats;
        for v in [
            s.transmissions,
            s.corrupted,
            s.dropped,
            s.retransmissions,
            s.duplicates,
            s.acks_lost,
            s.heartbeats,
        ] {
            put_u64(out, v as u64);
        }
        put_u32(out, self.links.len() as u32);
        for l in &self.links {
            out.extend_from_slice(&[l.src, l.dst, l.flow]);
            put_u16(out, l.next_seq);
            put_u16(out, l.delivered.len() as u16);
            for v in flow_stats_fields(&l.stats) {
                put_u64(out, v as u64);
            }
            for &(first, len) in &l.delivered {
                put_u16(out, first);
                put_u16(out, len);
            }
        }
        put_u32(out, self.fault_plan.len() as u32);
        for e in &self.fault_plan {
            put_u64(out, e.at_us);
            put_fault(out, &e.fault);
        }
        put_u32(out, self.fault_log.len() as u32);
        for r in &self.fault_log {
            put_u64(out, r.at_us);
            put_fault(out, &r.fault);
        }
        put_u32(out, self.membership_log.len() as u32);
        for r in &self.membership_log {
            put_u64(out, r.at_us);
            let (tag, peer) = match r.event {
                MembershipEvent::Suspected { peer } => (0, peer),
                MembershipEvent::Evicted { peer } => (1, peer),
                MembershipEvent::Rejoined { peer } => (2, peer),
            };
            out.extend_from_slice(&[r.observer as u8, tag, peer as u8]);
        }
        put_u32(out, self.schedule_decisions.len() as u32);
        for d in &self.schedule_decisions {
            put_u64(out, d.at_us);
            put_u16(out, d.live.iter().fold(0u16, |m, &n| m | 1 << n));
            put_opt(out, d.weighted_mbps, |out, v| put_u64(out, v.to_bits()));
        }
        out.push(self.hash_width);
        for n in &self.nodes {
            out.push(u8::from(n.alive));
            put_opt(out, n.confirmed_ms, |out, v| put_u64(out, v.to_bits()));
            put_u64(out, n.clock_offset_us as u64);
            for &(heard, state) in &n.view {
                put_u64(out, heard);
                out.push(peer_state_tag(state));
            }
            for &(capacity, failed) in &n.partitions {
                put_u64(out, capacity);
                put_u64(out, failed);
            }
            put_u16(out, n.hashes.len() as u16);
            for h in &n.hashes {
                put_u16(out, h.slot);
                put_u16(out, h.electrode);
            }
            out.extend_from_slice(&n.hash_bytes);
            put_u16(out, n.stim_log.len() as u16);
            for (at, cmd) in &n.stim_log {
                put_u64(out, *at);
                put_u16(out, cmd.electrode as u16);
                put_u64(out, cmd.amplitude_ua.to_bits());
                put_u64(out, cmd.duration_ms.to_bits());
                put_u64(out, cmd.frequency_hz.to_bits());
            }
            put_u64(out, n.stim_energy_uj.to_bits());
        }
    }

    /// Decodes a state for a session of `nodes` implants × `electrodes`
    /// whose cursor is `window`, bounding every count before allocating
    /// for it. Sessions run the default collision horizon, which bounds
    /// the window clock.
    pub(crate) fn decode(
        r: &mut Reader<'_>,
        nodes: usize,
        electrodes: usize,
        window: u64,
    ) -> Result<Self, SnapshotError> {
        let horizon_us = ScaloConfig::default().ccheck_horizon_us;
        let origin_detect = r.opt(|r| Ok((r.u64()?, r.u64()?)))?;
        let first_detect_window = r.opt(Reader::u64)?;
        let failovers = r.u64()?;
        let hash_drops = r.u64()?;
        let clock_len = r.u16()? as usize;
        if clock_len > clock_windows(horizon_us) || clock_len as u64 > window {
            return Err(SnapshotError::Invalid("window clock length"));
        }
        let window_clock = r.vec(clock_len, 8, Reader::u64)?;
        let time_us = r.u64()?;
        let last_heartbeat_us = r.u64()?;
        let ber_spike_until_us = r.opt(Reader::u64)?;
        let channel_ber = r.f64()?;
        let channel_word_pos = r.u64()?;
        let mut s = [0usize; 7];
        for v in &mut s {
            *v = r.count()?;
        }
        let stats = MediumStats {
            transmissions: s[0],
            corrupted: s[1],
            dropped: s[2],
            retransmissions: s[3],
            duplicates: s[4],
            acks_lost: s[5],
            heartbeats: s[6],
        };
        let n_links = r.u32()? as usize;
        r.bound(n_links, LINK_BYTES)?;
        let mut links = Vec::with_capacity(n_links);
        for _ in 0..n_links {
            let (src, dst, flow) = (r.u8()?, r.u8()?, r.u8()?);
            let next_seq = r.u16()?;
            let runs = r.u16()? as usize;
            let mut f = [0usize; 8];
            for v in &mut f {
                *v = r.count()?;
            }
            if runs > DUP_WINDOW {
                return Err(SnapshotError::Invalid("delivered window"));
            }
            let delivered = r.vec(runs, 4, |r| Ok((r.u16()?, r.u16()?)))?;
            links.push(LinkImage {
                src,
                dst,
                flow,
                next_seq,
                delivered,
                stats: FlowStats {
                    data_packets: f[0],
                    delivered: f[1],
                    transmissions: f[2],
                    retransmissions: f[3],
                    duplicates: f[4],
                    acks_sent: f[5],
                    acks_lost: f[6],
                    gave_up: f[7],
                },
            });
        }
        let n = r.u32()? as usize;
        let fault_plan = r.vec(n, TIMED_FAULT_BYTES, |r| {
            Ok(FaultEvent {
                at_us: r.u64()?,
                fault: read_fault(r)?,
            })
        })?;
        let n = r.u32()? as usize;
        let fault_log = r.vec(n, TIMED_FAULT_BYTES, |r| {
            Ok(FaultRecord {
                at_us: r.u64()?,
                fault: read_fault(r)?,
            })
        })?;
        let n = r.u32()? as usize;
        let membership_log = r.vec(n, MEMBERSHIP_BYTES, |r| {
            let at_us = r.u64()?;
            let observer = r.u8()? as usize;
            let tag = r.u8()?;
            let peer = r.u8()? as usize;
            let event = match tag {
                0 => MembershipEvent::Suspected { peer },
                1 => MembershipEvent::Evicted { peer },
                2 => MembershipEvent::Rejoined { peer },
                _ => return Err(SnapshotError::Invalid("membership event")),
            };
            Ok(MembershipRecord {
                at_us,
                observer,
                event,
            })
        })?;
        let n = r.u32()? as usize;
        let schedule_decisions = r.vec(n, DECISION_BYTES, |r| {
            let at_us = r.u64()?;
            let mask = r.u16()?;
            let weighted_mbps = r.opt(Reader::f64)?;
            Ok(ScheduleDecision {
                at_us,
                live: (0..MAX_NODES).filter(|&i| mask >> i & 1 == 1).collect(),
                weighted_mbps,
            })
        })?;
        let hash_width = r.u8()?;
        if usize::from(hash_width) > MAX_HASH_WIDTH {
            return Err(SnapshotError::Invalid("hash width"));
        }
        // `nodes` is at most MAX_NODES: the spec was validated first.
        let mut images = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            let alive = r.u8()? != 0;
            let confirmed_ms = r.opt(Reader::f64)?;
            let clock_offset_us = r.u64()? as i64;
            let view = r.vec(nodes, 9, |r| Ok((r.u64()?, read_peer_state(r.u8()?)?)))?;
            let mut partitions = [(0, 0); 4];
            for p in &mut partitions {
                *p = (r.u64()?, r.u64()?);
            }
            let n_hashes = r.u16()? as usize;
            if n_hashes > electrodes * clock_len {
                return Err(SnapshotError::Invalid("hash record count"));
            }
            let hashes = r.vec(n_hashes, 4, |r| {
                Ok(HashImage {
                    slot: r.u16()?,
                    electrode: r.u16()?,
                })
            })?;
            let hash_bytes = r.take(n_hashes * usize::from(hash_width))?.to_vec();
            let n_stim = r.u16()? as usize;
            let stim_log = r.vec(n_stim, STIM_BYTES, |r| {
                Ok((
                    r.u64()?,
                    StimCommand {
                        electrode: r.u16()? as usize,
                        amplitude_ua: r.f64()?,
                        duration_ms: r.f64()?,
                        frequency_hz: r.f64()?,
                    },
                ))
            })?;
            let stim_energy_uj = r.f64()?;
            images.push(NodeImage {
                alive,
                confirmed_ms,
                clock_offset_us,
                view,
                partitions,
                hashes,
                hash_bytes,
                stim_log,
                stim_energy_uj,
            });
        }
        Ok(Self {
            origin_detect,
            first_detect_window,
            failovers,
            hash_drops,
            window_clock,
            time_us,
            last_heartbeat_us,
            ber_spike_until_us,
            channel_ber,
            channel_word_pos,
            stats,
            links,
            fault_plan,
            fault_log,
            membership_log,
            schedule_decisions,
            hash_width,
            nodes: images,
        })
    }

    /// Checks what a restore would otherwise panic on or install
    /// inconsistently, for a session of `nodes` implants × `electrodes`
    /// at cursor `window`: one image per node with a full membership
    /// view, node ids in range, a window clock that rises strictly and
    /// ends a window period or more before the simulation time, hash
    /// records on the clock and in electrode range, the ordered fault
    /// plan a live system keeps, links keyed as a live system keys them
    /// with duplicate windows it could hold, partitions with room for a
    /// signal window, and finite, valid stimulation and confirmation
    /// values.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] naming the first field that fails.
    pub fn validate(
        &self,
        nodes: usize,
        electrodes: usize,
        window: u64,
    ) -> Result<(), SnapshotError> {
        let invalid = |what| Err(SnapshotError::Invalid(what));
        let node_ok = |n: usize| n < nodes;
        if self.nodes.len() != nodes {
            return invalid("node image count");
        }
        if let Some((w, n)) = self.origin_detect {
            if w >= window || n >= nodes as u64 {
                return invalid("origin detection");
            }
        }
        if self.first_detect_window.is_some_and(|w| w >= window) {
            return invalid("first detection");
        }
        if self.window_clock.len() as u64 > window
            || !self.window_clock.windows(2).all(|p| p[0] < p[1])
            || self
                .window_clock
                .last()
                .is_some_and(|&t| t.saturating_add(WINDOW_US) > self.time_us)
        {
            return invalid("window clock");
        }
        if !(0.0..1.0).contains(&self.channel_ber) {
            return invalid("channel bit-error ratio");
        }
        let mut last_key = None;
        for l in &self.links {
            let key = (l.src, l.dst, l.flow);
            if !node_ok(l.src.into()) || !node_ok(l.dst.into()) || l.src == l.dst {
                return invalid("link endpoints");
            }
            if last_key.is_some_and(|k| k >= key) {
                return invalid("link order");
            }
            last_key = Some(key);
            let total: usize = l.delivered.iter().map(|&(_, len)| usize::from(len)).sum();
            if total > DUP_WINDOW {
                return invalid("delivered window");
            }
        }
        for (i, e) in self.fault_plan.iter().enumerate() {
            if i > 0 && self.fault_plan[i - 1].at_us > e.at_us {
                return invalid("fault plan order");
            }
            validate_fault(&e.fault, nodes)?;
        }
        for r in &self.fault_log {
            validate_fault(&r.fault, nodes)?;
        }
        for r in &self.membership_log {
            let peer = match r.event {
                MembershipEvent::Suspected { peer }
                | MembershipEvent::Evicted { peer }
                | MembershipEvent::Rejoined { peer } => peer,
            };
            if !node_ok(r.observer) || !node_ok(peer) {
                return invalid("membership record");
            }
        }
        for d in &self.schedule_decisions {
            if d.live.is_empty() || !d.live.iter().all(|&n| node_ok(n)) {
                return invalid("schedule decision");
            }
        }
        for (id, n) in self.nodes.iter().enumerate() {
            if n.view.len() != nodes || n.view[id].1 != PeerState::Alive {
                return invalid("membership view");
            }
            if n.confirmed_ms.is_some_and(|d| !d.is_finite()) {
                return invalid("confirmation delay");
            }
            // A session stores signal windows of 2·WINDOW bytes: every
            // partition must keep room for one.
            if !n.partitions.iter().all(|&(capacity, failed)| {
                failed < capacity && capacity - failed >= 2 * WINDOW as u64
            }) {
                return invalid("partition counters");
            }
            if n.hash_bytes.len() != n.hashes.len() * usize::from(self.hash_width)
                || n.hashes.windows(2).any(|p| p[0].slot > p[1].slot)
            {
                return invalid("hash records");
            }
            for h in &n.hashes {
                if usize::from(h.slot) >= self.window_clock.len()
                    || usize::from(h.electrode) >= electrodes
                {
                    return invalid("hash records");
                }
            }
            if !n.stim_log.iter().all(|(_, c)| c.validate().is_ok())
                || !n.stim_energy_uj.is_finite()
            {
                return invalid("stimulation log");
            }
        }
        Ok(())
    }
}

/// The runs `(first, len)` of consecutive (wrapping) sequence numbers
/// in `seqs`, in order: the compact form of a duplicate window.
pub(crate) fn seq_runs(seqs: impl IntoIterator<Item = u16>) -> Vec<(u16, u16)> {
    let mut runs: Vec<(u16, u16)> = Vec::new();
    for seq in seqs {
        match runs.last_mut() {
            Some((first, len)) if first.wrapping_add(*len) == seq && *len < u16::MAX => *len += 1,
            _ => runs.push((seq, 1)),
        }
    }
    runs
}

/// The sequence numbers `runs` ([`seq_runs`]) stand for, in order.
pub(crate) fn seqs_of_runs(runs: &[(u16, u16)]) -> impl Iterator<Item = u16> + '_ {
    runs.iter()
        .flat_map(|&(first, len)| (0..len).map(move |i| first.wrapping_add(i)))
}

/// [`PartitionKind::ALL`] index of `kind`.
pub(crate) fn partition_index(kind: PartitionKind) -> usize {
    PartitionKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is listed")
}

fn flow_stats_fields(s: &FlowStats) -> [usize; 8] {
    [
        s.data_packets,
        s.delivered,
        s.transmissions,
        s.retransmissions,
        s.duplicates,
        s.acks_sent,
        s.acks_lost,
        s.gave_up,
    ]
}

fn peer_state_tag(s: PeerState) -> u8 {
    match s {
        PeerState::Alive => 0,
        PeerState::Suspect => 1,
        PeerState::Evicted => 2,
    }
}

fn read_peer_state(tag: u8) -> Result<PeerState, SnapshotError> {
    match tag {
        0 => Ok(PeerState::Alive),
        1 => Ok(PeerState::Suspect),
        2 => Ok(PeerState::Evicted),
        _ => Err(SnapshotError::Invalid("peer state")),
    }
}

fn put_fault(out: &mut Vec<u8>, fault: &Fault) {
    let (tag, a, b, c) = match *fault {
        Fault::Crash { node } => (0, node as u64, 0, 0),
        Fault::Recover { node } => (1, node as u64, 0, 0),
        Fault::BerSpike { ber, duration_us } => (2, ber.to_bits(), duration_us, 0),
        Fault::ClockDrift { node, offset_us } => (3, node as u64, offset_us as u64, 0),
        Fault::NvmBlockFail { node, kind, bytes } => {
            (4, node as u64, partition_index(kind) as u64, bytes as u64)
        }
    };
    out.push(tag);
    for v in [a, b, c] {
        put_u64(out, v);
    }
}

fn read_fault(r: &mut Reader<'_>) -> Result<Fault, SnapshotError> {
    let tag = r.u8()?;
    let (a, b, c) = (r.u64()?, r.u64()?, r.u64()?);
    let node = usize::try_from(a).unwrap_or(usize::MAX);
    Ok(match tag {
        0 => Fault::Crash { node },
        1 => Fault::Recover { node },
        2 => Fault::BerSpike {
            ber: f64::from_bits(a),
            duration_us: b,
        },
        3 => Fault::ClockDrift {
            node,
            offset_us: b as i64,
        },
        4 => Fault::NvmBlockFail {
            node,
            kind: *PartitionKind::ALL
                .get(b as usize)
                .ok_or(SnapshotError::Invalid("partition kind"))?,
            bytes: usize::try_from(c).unwrap_or(usize::MAX),
        },
        _ => return Err(SnapshotError::Invalid("fault kind")),
    })
}

fn validate_fault(fault: &Fault, nodes: usize) -> Result<(), SnapshotError> {
    let ok = match *fault {
        Fault::Crash { node }
        | Fault::Recover { node }
        | Fault::ClockDrift { node, .. }
        | Fault::NvmBlockFail { node, .. } => node < nodes,
        Fault::BerSpike { ber, .. } => (0.0..1.0).contains(&ber),
    };
    if ok {
        Ok(())
    } else {
        Err(SnapshotError::Invalid("fault"))
    }
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A presence byte, then `put(v)` when present or the same number of
/// zero bytes `put` would have written, so the field keeps a fixed size.
fn put_opt<T: Copy + Default>(out: &mut Vec<u8>, v: Option<T>, put: impl Fn(&mut Vec<u8>, T)) {
    out.push(u8::from(v.is_some()));
    put(out, v.unwrap_or_default());
}
