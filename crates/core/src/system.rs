//! The distributed system: nodes plus the TDMA wireless medium.
//!
//! Beyond the happy-path broadcast medium, the system carries the
//! fault-tolerance machinery of the robustness studies:
//!
//! * a [`FaultPlan`] drained as simulated time
//!   advances — crashes, recoveries, BER spikes, clock drift, NVM block
//!   failures — all deterministic per seed;
//! * heartbeat-driven failure detection
//!   ([`crate::membership::MembershipView`] per node): silence walks a
//!   peer through suspicion to eviction, at which point the
//!   lowest-id live node re-solves the TDMA schedule over the
//!   survivors and re-runs the ILP so throughput planning matches the
//!   shrunken membership;
//! * optional reliable delivery ([`scalo_net::reliable`]) with per-flow
//!   sequence numbers, ACKs, bounded retransmission, and duplicate
//!   suppression, its airtime charged against the simulation clock.

use crate::config::ScaloConfig;
use crate::fault::{Fault, FaultEvent, FaultPlan};
use crate::membership::{MembershipConfig, MembershipEvent, MembershipView};
use crate::node::Node;
use crate::snapshot::SnapshotError;
use crate::state::{seq_runs, seqs_of_runs, LinkImage, NodeImage, SessionState};
use scalo_net::ber::ErrorChannel;
use scalo_net::packet::{
    frame_into, receive, receive_ref, Header, Packet, PayloadKind, Received, ReceivedRef,
};
use scalo_net::reliable::{FlowStats, LinkScratch, ReliableLink, ReliablePolicy, SendOutcome};
use scalo_net::tdma::TdmaSchedule;
use scalo_sched::seizure::{solve as solve_seizure, Priorities};
use scalo_sched::Scenario;
use std::collections::BTreeMap;

/// Delivery outcome of a broadcast, per receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery {
    /// Receiving node id.
    pub to: usize,
    /// What the receiver's UNPACK produced.
    pub received: Received,
}

/// Delivery outcome of a reliable broadcast, per receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct ReliableDelivery {
    /// Receiving node id.
    pub to: usize,
    /// The full exchange outcome (delivery flag, attempts, airtime).
    pub outcome: SendOutcome,
}

/// Per-receiver delivery classification of a scratch broadcast. Payload
/// indices resolve through [`BroadcastScratch::payload`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalWs {
    /// Header and payload verified; slot holds the payload bytes.
    Clean(usize),
    /// Payload checksum failed but the kind's policy delivers anyway
    /// (signal packets); slot holds the corrupted bytes.
    Corrupt(usize),
    /// Nothing delivered (checksum drop, truncation, or a reliable
    /// exchange that exhausted its attempts).
    Dropped,
}

/// Recycled buffers for [`Scalo::broadcast_ws`] and
/// [`Scalo::reliable_broadcast_ws`]: the framed wire, the per-receiver
/// corrupted copy, a pool of payload slots, and the reliable link's frame
/// scratch. One scratch serves any packet size and receiver count; buffers
/// grow to the largest broadcast seen.
#[derive(Debug, Clone, Default)]
pub struct BroadcastScratch {
    wire: Vec<u8>,
    rx: Vec<u8>,
    payloads: Vec<Vec<u8>>,
    used: usize,
    link: LinkScratch,
    /// `(receiver, arrival)` per live receiver, in ascending receiver
    /// order — the same order the allocating broadcasts return.
    pub arrivals: Vec<(usize, ArrivalWs)>,
}

impl BroadcastScratch {
    /// An empty scratch; the first broadcast sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// The payload bytes behind an [`ArrivalWs::Clean`] /
    /// [`ArrivalWs::Corrupt`] slot index. Valid until the next broadcast
    /// through this scratch.
    pub fn payload(&self, slot: usize) -> &[u8] {
        &self.payloads[slot]
    }
}

/// Copies `bytes` into the next recycled payload slot, returning its index.
fn stash(payloads: &mut Vec<Vec<u8>>, used: &mut usize, bytes: &[u8]) -> usize {
    if *used == payloads.len() {
        payloads.push(Vec::new());
    }
    let slot = &mut payloads[*used];
    slot.clear();
    slot.extend_from_slice(bytes);
    *used += 1;
    *used - 1
}

/// Statistics of the medium since construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MediumStats {
    /// Packets transmitted (per receiver), heartbeats excluded.
    pub transmissions: usize,
    /// Deliveries with any bit error.
    pub corrupted: usize,
    /// Deliveries dropped by the error policy.
    pub dropped: usize,
    /// Retransmissions by the reliable transport.
    pub retransmissions: usize,
    /// Receiver-side duplicates suppressed by the reliable transport.
    pub duplicates: usize,
    /// ACK frames lost in flight.
    pub acks_lost: usize,
    /// Heartbeat frames transmitted (tracked separately so protocol
    /// accounting is not polluted by the failure detector).
    pub heartbeats: usize,
}

/// First payload byte of a heartbeat frame.
const HEARTBEAT_MAGIC: u8 = 0x4B;

/// A fault that has been applied, for post-run analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRecord {
    /// When it was applied, in µs.
    pub at_us: u64,
    /// The fault.
    pub fault: Fault,
}

/// A membership transition observed by one node, for post-run analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipRecord {
    /// When the observer's detector transitioned, in µs.
    pub at_us: u64,
    /// The node whose view changed.
    pub observer: usize,
    /// The transition.
    pub event: MembershipEvent,
}

/// One coordinator-triggered schedule re-solve.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleDecision {
    /// When the re-solve ran, in µs.
    pub at_us: u64,
    /// The live membership the schedule was solved for.
    pub live: Vec<usize>,
    /// The ILP's weighted seizure-propagation throughput for the
    /// surviving deployment, if it solved.
    pub weighted_mbps: Option<f64>,
}

/// The SCALO system of Figure 2a.
#[derive(Debug)]
pub struct Scalo {
    config: ScaloConfig,
    nodes: Vec<Node>,
    channel: ErrorChannel,
    tdma: TdmaSchedule,
    time_us: u64,
    stats: MediumStats,
    alive: Vec<bool>,
    membership_cfg: MembershipConfig,
    views: Vec<MembershipView>,
    last_heartbeat_us: u64,
    fault_plan: FaultPlan,
    ber_spike_until_us: Option<u64>,
    reliable_policy: ReliablePolicy,
    /// One reliable link per (src, dst, flow); `BTreeMap` so iteration
    /// (and therefore reporting) is deterministic.
    links: BTreeMap<(usize, usize, u8), ReliableLink>,
    fault_log: Vec<FaultRecord>,
    membership_log: Vec<MembershipRecord>,
    schedule_decisions: Vec<ScheduleDecision>,
    /// Heartbeat wire/receive scratch: heartbeat rounds fire every window
    /// (the interval matches the 4 ms analysis cadence), so they sit on
    /// the zero-allocation hot path.
    hb_wire: Vec<u8>,
    hb_rx: Vec<u8>,
}

impl Scalo {
    /// Builds the system.
    pub fn new(config: ScaloConfig) -> Self {
        let nodes: Vec<Node> = (0..config.nodes).map(|i| Node::new(i, &config)).collect();
        let channel = ErrorChannel::new(config.ber, config.seed);
        let tdma = TdmaSchedule::round_robin(config.nodes);
        let membership_cfg = MembershipConfig::default();
        let views = (0..config.nodes)
            .map(|i| MembershipView::new(i, config.nodes, membership_cfg, 0))
            .collect();
        Self {
            alive: vec![true; config.nodes],
            membership_cfg,
            views,
            last_heartbeat_us: 0,
            fault_plan: FaultPlan::new(),
            ber_spike_until_us: None,
            reliable_policy: ReliablePolicy::default(),
            links: BTreeMap::new(),
            fault_log: Vec::new(),
            membership_log: Vec::new(),
            schedule_decisions: Vec::new(),
            hb_wire: Vec::new(),
            hb_rx: Vec::new(),
            config,
            nodes,
            channel,
            tdma,
            time_us: 0,
            stats: MediumStats::default(),
        }
    }

    /// Number of implants.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The configuration.
    pub fn config(&self) -> &ScaloConfig {
        &self.config
    }

    /// The TDMA schedule.
    pub fn tdma(&self) -> &TdmaSchedule {
        &self.tdma
    }

    /// Medium statistics so far.
    pub fn stats(&self) -> MediumStats {
        self.stats
    }

    /// Borrow a node.
    pub fn node(&self, id: usize) -> &Node {
        &self.nodes[id]
    }

    /// Mutable borrow of a node.
    pub fn node_mut(&mut self, id: usize) -> &mut Node {
        &mut self.nodes[id]
    }

    /// Current simulation time in µs.
    pub fn now_us(&self) -> u64 {
        self.time_us
    }

    /// Whether `node` is up.
    pub fn is_alive(&self, node: usize) -> bool {
        self.alive[node]
    }

    /// Ids of the nodes currently up, ascending.
    pub fn live_nodes(&self) -> Vec<usize> {
        (0..self.nodes.len()).filter(|&i| self.alive[i]).collect()
    }

    /// Installs a fault schedule, replacing any previous one.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Overrides the failure-detector thresholds (resets all views).
    pub fn set_membership_config(&mut self, cfg: MembershipConfig) {
        self.membership_cfg = cfg;
        let (n, now) = (self.nodes.len(), self.time_us);
        self.views = (0..n)
            .map(|i| MembershipView::new(i, n, cfg, now))
            .collect();
    }

    /// Overrides the reliable-transport policy for links created later.
    pub fn set_reliable_policy(&mut self, policy: ReliablePolicy) {
        self.reliable_policy = policy;
    }

    /// The membership view held by `node`.
    pub fn membership(&self, node: usize) -> &MembershipView {
        &self.views[node]
    }

    /// Faults applied so far.
    pub fn fault_log(&self) -> &[FaultRecord] {
        &self.fault_log
    }

    /// Membership transitions observed so far.
    pub fn membership_log(&self) -> &[MembershipRecord] {
        &self.membership_log
    }

    /// Schedule re-solves triggered by membership changes.
    pub fn schedule_decisions(&self) -> &[ScheduleDecision] {
        &self.schedule_decisions
    }

    /// Per-flow reliable-delivery statistics for the (src, dst, flow)
    /// link, if any traffic has used it.
    pub fn flow_stats(&self, from: usize, to: usize, flow: u8) -> Option<FlowStats> {
        self.links.get(&(from, to, flow)).map(|l| l.stats())
    }

    /// Advances simulated time, firing due faults and heartbeat rounds
    /// in timestamp order along the way.
    pub fn advance_us(&mut self, delta: u64) {
        let target = self.time_us + delta;
        loop {
            let next_hb = self
                .last_heartbeat_us
                .saturating_add(self.membership_cfg.heartbeat_interval_us);
            let due_fault = self.fault_plan.peek_at_us().filter(|&t| t <= target);
            let due_hb = (next_hb <= target).then_some(next_hb);
            let Some(at) = [due_fault, due_hb].into_iter().flatten().min() else {
                break;
            };
            self.time_us = self.time_us.max(at);
            self.expire_ber_spike();
            while let Some(ev) = self.fault_plan.pop_due(self.time_us) {
                self.apply_fault(ev);
            }
            if next_hb <= self.time_us {
                self.last_heartbeat_us = next_hb;
                self.heartbeat_round();
            }
        }
        self.time_us = target;
        self.expire_ber_spike();
    }

    /// Takes `node` down: it stops sending, receiving, and heartbeating.
    pub fn crash_node(&mut self, node: usize) {
        if self.alive[node] {
            self.alive[node] = false;
            self.fault_log.push(FaultRecord {
                at_us: self.time_us,
                fault: Fault::Crash { node },
            });
        }
    }

    /// Brings a crashed `node` back with a fresh membership view; peers
    /// re-admit it when its heartbeats resume.
    pub fn recover_node(&mut self, node: usize) {
        if !self.alive[node] {
            self.alive[node] = true;
            self.views[node].reset(self.time_us);
            self.fault_log.push(FaultRecord {
                at_us: self.time_us,
                fault: Fault::Recover { node },
            });
        }
    }

    fn apply_fault(&mut self, ev: FaultEvent) {
        match ev.fault {
            Fault::Crash { node } => self.crash_node(node),
            Fault::Recover { node } => self.recover_node(node),
            Fault::BerSpike { ber, duration_us } => {
                self.channel.set_ber(ber);
                self.ber_spike_until_us = Some(self.time_us.saturating_add(duration_us));
                self.fault_log.push(FaultRecord {
                    at_us: self.time_us,
                    fault: ev.fault,
                });
            }
            Fault::ClockDrift { node, offset_us } => {
                let offset = &mut self.nodes[node].clock_offset_us;
                *offset = offset.saturating_add(offset_us);
                self.fault_log.push(FaultRecord {
                    at_us: self.time_us,
                    fault: ev.fault,
                });
            }
            Fault::NvmBlockFail { node, kind, bytes } => {
                self.nodes[node].fail_nvm_block(kind, bytes);
                self.fault_log.push(FaultRecord {
                    at_us: self.time_us,
                    fault: ev.fault,
                });
            }
        }
    }

    fn expire_ber_spike(&mut self) {
        if let Some(until) = self.ber_spike_until_us {
            if self.time_us >= until {
                self.channel.set_ber(self.config.ber);
                self.ber_spike_until_us = None;
            }
        }
    }

    /// One heartbeat exchange: every live node sends a tiny `Control`
    /// frame in its TDMA slot; receivers refresh their views, then every
    /// detector ticks. If the coordinator's view evicts (or re-admits) a
    /// peer, it re-solves the schedule over its live membership.
    fn heartbeat_round(&mut self) {
        let n = self.nodes.len();
        let now = self.time_us;
        // Observers whose live membership changed this round (rejoins
        // observed during the exchange, evictions during the tick).
        let mut changed: Vec<usize> = Vec::new();
        for from in 0..n {
            if !self.alive[from] {
                continue;
            }
            frame_into(
                Header {
                    src: from as u8,
                    dst: scalo_net::packet::BROADCAST,
                    flow: 0,
                    seq: (now / self.membership_cfg.heartbeat_interval_us) as u16,
                    len: 0,
                    kind: PayloadKind::Control,
                    timestamp_us: now as u32,
                },
                &[HEARTBEAT_MAGIC, from as u8],
                &mut self.hb_wire,
            );
            for to in 0..n {
                if to == from || !self.alive[to] {
                    continue;
                }
                self.stats.heartbeats += 1;
                let _ = self.channel.transmit_into(&self.hb_wire, &mut self.hb_rx);
                if matches!(receive_ref(&self.hb_rx), ReceivedRef::Clean(..)) {
                    if let Some(event) = self.views[to].observe(from, now) {
                        self.membership_log.push(MembershipRecord {
                            at_us: now,
                            observer: to,
                            event,
                        });
                        changed.push(to);
                    }
                }
            }
        }
        for observer in 0..n {
            if !self.alive[observer] {
                continue;
            }
            for event in self.views[observer].tick(now) {
                self.membership_log.push(MembershipRecord {
                    at_us: now,
                    observer,
                    event,
                });
                if matches!(event, MembershipEvent::Evicted { .. }) {
                    changed.push(observer);
                }
            }
        }
        // The coordinator — lowest-id live member of its own view — is
        // the one that re-solves for its membership.
        if let Some(&observer) = changed.iter().find(|&&o| self.views[o].is_coordinator()) {
            let live = self.views[observer].live_members();
            self.resolve_schedule(live);
        }
    }

    /// Re-solves the TDMA slot allocation and the seizure ILP for the
    /// given live membership (the graceful-degradation step).
    fn resolve_schedule(&mut self, live: Vec<usize>) {
        if live.is_empty() {
            return;
        }
        self.tdma = TdmaSchedule::custom(self.config.nodes, live.clone());
        let scenario =
            Scenario::new(live.len(), self.config.power_limit_mw).with_radio(self.config.radio);
        let weighted_mbps = solve_seizure(&scenario, Priorities::equal()).map(|s| s.weighted_mbps);
        self.schedule_decisions.push(ScheduleDecision {
            at_us: self.time_us,
            live,
            weighted_mbps: weighted_mbps.ok(),
        });
    }

    /// Broadcasts a packet from `from` to every other *live* node
    /// through the bit-error channel, applying the receiver-side error
    /// policy. A crashed sender reaches nobody.
    pub fn broadcast(&mut self, from: usize, packet: &Packet) -> Vec<Delivery> {
        assert!(from < self.nodes.len(), "unknown sender {from}");
        if !self.alive[from] {
            return Vec::new();
        }
        let wire = packet.to_wire();
        let mut out = Vec::new();
        for to in 0..self.nodes.len() {
            if to == from || !self.alive[to] {
                continue;
            }
            let (corrupted_wire, flips) = self.channel.transmit(&wire);
            self.stats.transmissions += 1;
            if flips > 0 {
                self.stats.corrupted += 1;
            }
            let received = receive(&corrupted_wire);
            if matches!(
                received,
                Received::DroppedHeaderError | Received::DroppedPayloadError(_)
            ) {
                self.stats.dropped += 1;
            }
            out.push(Delivery { to, received });
        }
        out
    }

    /// [`Scalo::broadcast`] through recycled buffers: identical channel
    /// draws, error policy, and statistics, with per-receiver arrivals
    /// written into `ws` instead of allocating a delivery vector and
    /// payload copies. Allocation-free once `ws` is warm. Like
    /// [`scalo_net::packet::frame_into`], the header's `len` field is
    /// overwritten with the payload length.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn broadcast_ws(
        &mut self,
        from: usize,
        header: Header,
        payload: &[u8],
        ws: &mut BroadcastScratch,
    ) {
        assert!(from < self.nodes.len(), "unknown sender {from}");
        ws.arrivals.clear();
        ws.used = 0;
        if !self.alive[from] {
            return;
        }
        frame_into(header, payload, &mut ws.wire);
        for to in 0..self.nodes.len() {
            if to == from || !self.alive[to] {
                continue;
            }
            let flips = self.channel.transmit_into(&ws.wire, &mut ws.rx);
            self.stats.transmissions += 1;
            if flips > 0 {
                self.stats.corrupted += 1;
            }
            let arrival = match receive_ref(&ws.rx) {
                ReceivedRef::Clean(_, pl) => {
                    ArrivalWs::Clean(stash(&mut ws.payloads, &mut ws.used, pl))
                }
                ReceivedRef::CorruptDelivered(_, pl) => {
                    ArrivalWs::Corrupt(stash(&mut ws.payloads, &mut ws.used, pl))
                }
                ReceivedRef::DroppedHeaderError | ReceivedRef::DroppedPayloadError(_) => {
                    self.stats.dropped += 1;
                    ArrivalWs::Dropped
                }
                ReceivedRef::Truncated => ArrivalWs::Dropped,
            };
            ws.arrivals.push((to, arrival));
        }
    }

    /// [`Scalo::reliable_broadcast`] through recycled buffers: identical
    /// channel draws, link state, statistics, and airtime charging, with
    /// per-receiver arrivals written into `ws`. A delivered arrival is
    /// reported [`ArrivalWs::Clean`] with **no payload slot filled** — the
    /// reliable path serves error-sensitive kinds whose delivered payload
    /// is byte-identical to `payload`, which the caller still holds (the
    /// slot index is `usize::MAX` to make an accidental lookup loud).
    /// Allocation-free once `ws` and the per-receiver links are warm.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, or (debug builds) on a `Signal`
    /// header — corrupt-but-delivered signal payloads need
    /// [`Scalo::reliable_broadcast`].
    pub fn reliable_broadcast_ws(
        &mut self,
        from: usize,
        header: Header,
        payload: &[u8],
        ws: &mut BroadcastScratch,
    ) {
        assert!(from < self.nodes.len(), "unknown sender {from}");
        ws.arrivals.clear();
        ws.used = 0;
        if !self.alive[from] {
            return;
        }
        let rate = self.config.radio.data_rate_mbps;
        let policy = self.reliable_policy;
        let flow = header.flow;
        let mut airtime_ms = 0.0;
        for to in 0..self.nodes.len() {
            if to == from || !self.alive[to] {
                continue;
            }
            let link = self
                .links
                .entry((from, to, flow))
                .or_insert_with(|| ReliableLink::new(flow, policy));
            let mut h = header;
            h.dst = to as u8;
            let before = link.stats();
            let outcome = link.send_ws(&mut self.channel, rate, h, payload, &mut ws.link);
            let after = link.stats();
            self.stats.transmissions += after.transmissions - before.transmissions;
            self.stats.retransmissions += after.retransmissions - before.retransmissions;
            self.stats.duplicates += after.duplicates - before.duplicates;
            self.stats.acks_lost += after.acks_lost - before.acks_lost;
            if !outcome.delivered {
                self.stats.dropped += 1;
            }
            airtime_ms += outcome.airtime_ms;
            let arrival = if outcome.delivered {
                ArrivalWs::Clean(usize::MAX)
            } else {
                ArrivalWs::Dropped
            };
            ws.arrivals.push((to, arrival));
        }
        self.advance_us((airtime_ms * 1_000.0).round() as u64);
    }

    /// Broadcasts a packet reliably: each live receiver gets its own
    /// sequence/ACK/retransmission exchange on the (from, to, flow)
    /// link. The airtime of every attempt and ACK — the exchanges
    /// serialise on the single-frequency medium — is charged to the
    /// simulation clock.
    pub fn reliable_broadcast(&mut self, from: usize, packet: &Packet) -> Vec<ReliableDelivery> {
        assert!(from < self.nodes.len(), "unknown sender {from}");
        if !self.alive[from] {
            return Vec::new();
        }
        let rate = self.config.radio.data_rate_mbps;
        let policy = self.reliable_policy;
        let flow = packet.header.flow;
        let mut out = Vec::new();
        let mut airtime_ms = 0.0;
        for to in 0..self.nodes.len() {
            if to == from || !self.alive[to] {
                continue;
            }
            let link = self
                .links
                .entry((from, to, flow))
                .or_insert_with(|| ReliableLink::new(flow, policy));
            let mut header = packet.header;
            header.dst = to as u8;
            let before = link.stats();
            let outcome = link.send(&mut self.channel, rate, header, packet.payload.clone());
            let after = link.stats();
            self.stats.transmissions += after.transmissions - before.transmissions;
            self.stats.retransmissions += after.retransmissions - before.retransmissions;
            self.stats.duplicates += after.duplicates - before.duplicates;
            self.stats.acks_lost += after.acks_lost - before.acks_lost;
            if !outcome.delivered {
                self.stats.dropped += 1;
            }
            airtime_ms += outcome.airtime_ms;
            out.push(ReliableDelivery { to, outcome });
        }
        self.advance_us((airtime_ms * 1_000.0).round() as u64);
        out
    }

    /// The system's part of a state image: clock, channel, statistics,
    /// links, fault plan and logs, and per node liveness, membership
    /// view, clock offset, partition counters and the hash records
    /// stamped at or after `cutoff_us`, placed on `clock` (the image's
    /// window clock). Node images' run and stimulation fields are left
    /// for the application to fill.
    pub(crate) fn capture(&self, cutoff_us: u64, clock: Vec<u64>) -> SessionState {
        let links = self
            .links
            .iter()
            .map(|(&(src, dst, flow), link)| LinkImage {
                src: src as u8,
                dst: dst as u8,
                flow,
                next_seq: link.next_seq(),
                delivered: seq_runs(link.delivered_window()),
                stats: link.stats(),
            })
            .collect();
        let nodes = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, node)| {
                let view = &self.views[i];
                let mut hash_bytes = Vec::new();
                let hashes = node.horizon_hashes(cutoff_us, &clock, &mut hash_bytes);
                NodeImage {
                    alive: self.alive[i],
                    confirmed_ms: None,
                    clock_offset_us: node.clock_offset_us,
                    view: view
                        .last_heard_us()
                        .iter()
                        .copied()
                        .zip(view.states().iter().copied())
                        .collect(),
                    partitions: node.partition_counters(),
                    hashes,
                    hash_bytes,
                    stim_log: Vec::new(),
                    stim_energy_uj: 0.0,
                }
            })
            .collect();
        SessionState {
            origin_detect: None,
            first_detect_window: None,
            failovers: 0,
            hash_drops: 0,
            window_clock: clock,
            time_us: self.time_us,
            last_heartbeat_us: self.last_heartbeat_us,
            ber_spike_until_us: self.ber_spike_until_us,
            channel_ber: self.channel.ber(),
            channel_word_pos: self.channel.word_pos() as u64,
            stats: self.stats,
            links,
            fault_plan: self.fault_plan.events().cloned().collect(),
            fault_log: self.fault_log.clone(),
            membership_log: self.membership_log.clone(),
            schedule_decisions: self.schedule_decisions.clone(),
            hash_width: self.nodes[0].hasher().wire_bytes() as u8,
            nodes,
        }
    }

    /// Installs the system part of a validated state image
    /// ([`Self::capture`]) on this freshly built system, each node
    /// prepared for `electrodes × windows_back` records. The TDMA
    /// schedule is the one the last re-solve installed.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for a hash width other than this
    /// system's hashers' or a duplicate window no link could hold.
    pub(crate) fn install(
        &mut self,
        state: &SessionState,
        electrodes: usize,
        windows_back: usize,
    ) -> Result<(), SnapshotError> {
        let width = self.nodes[0].hasher().wire_bytes();
        if usize::from(state.hash_width) != width {
            return Err(SnapshotError::Invalid("hash width"));
        }
        self.links.clear();
        for l in &state.links {
            let link = ReliableLink::resume(
                l.flow,
                self.reliable_policy,
                l.next_seq,
                seqs_of_runs(&l.delivered),
                l.stats,
            )
            .ok_or(SnapshotError::Invalid("delivered window"))?;
            self.links
                .insert((usize::from(l.src), usize::from(l.dst), l.flow), link);
        }
        self.time_us = state.time_us;
        self.last_heartbeat_us = state.last_heartbeat_us;
        self.ber_spike_until_us = state.ber_spike_until_us;
        self.channel.set_ber(state.channel_ber);
        self.channel.seek(u128::from(state.channel_word_pos));
        self.stats = state.stats;
        self.fault_plan = FaultPlan::new();
        for e in &state.fault_plan {
            self.fault_plan.schedule(e.at_us, e.fault.clone());
        }
        self.fault_log = state.fault_log.clone();
        self.membership_log = state.membership_log.clone();
        self.schedule_decisions = state.schedule_decisions.clone();
        if let Some(last) = self.schedule_decisions.last() {
            self.tdma = TdmaSchedule::custom(self.config.nodes, last.live.clone());
        }
        for (i, img) in state.nodes.iter().enumerate() {
            self.alive[i] = img.alive;
            let (heard, states) = img.view.iter().copied().unzip();
            self.views[i] = MembershipView::from_parts(i, self.membership_cfg, heard, states);
            let node = &mut self.nodes[i];
            node.clock_offset_us = img.clock_offset_us;
            node.install_records(
                electrodes,
                windows_back,
                &img.partitions,
                &img.hashes,
                &img.hash_bytes,
                width,
                &state.window_clock,
            );
        }
        Ok(())
    }

    /// Time in ms for `from` to put `bytes` of payload on the air under
    /// its TDMA share.
    pub fn transfer_ms(&self, from: usize, bytes: usize) -> f64 {
        self.tdma.transfer_ms(from, bytes, &self.config.radio)
    }

    /// Runs the daily SNTP round (§3.6): the lowest live node is the
    /// server, every other live node corrects its clock offset. The
    /// network-busy time is charged to the simulation clock;
    /// applications that do not need the network (e.g. local detection)
    /// are unaffected.
    pub fn synchronize_clocks(&mut self) -> crate::sntp::SyncReport {
        let live = self.live_nodes();
        let clients: Vec<usize> = live.iter().skip(1).copied().collect();
        let mut offsets: Vec<i64> = clients
            .iter()
            .map(|&i| self.nodes[i].clock_offset_us)
            .collect();
        let report = crate::sntp::synchronize(&mut offsets, &self.config.radio);
        for (&i, &offset) in clients.iter().zip(&offsets) {
            self.nodes[i].clock_offset_us = offset;
        }
        self.advance_us(saturating_ms_to_us(report.network_busy_ms));
        report
    }
}

/// Converts a millisecond duration to whole µs without truncation
/// surprises: negative and non-finite inputs clamp to zero, values past
/// `u64::MAX` µs saturate.
pub fn saturating_ms_to_us(ms: f64) -> u64 {
    if !ms.is_finite() || ms <= 0.0 {
        return 0;
    }
    // `as` saturates on overflow for float→int casts.
    (ms * 1_000.0).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalo_net::packet::{Header, PayloadKind, BROADCAST};
    use scalo_storage::partition::PartitionKind;

    fn packet(kind: PayloadKind) -> Packet {
        Packet::new(
            Header {
                src: 0,
                dst: BROADCAST,
                flow: 1,
                seq: 0,
                len: 0,
                kind,
                timestamp_us: 0,
            },
            vec![0xAB; 64],
        )
    }

    #[test]
    fn clean_broadcast_reaches_everyone() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4).with_ber(0.0));
        let deliveries = sys.broadcast(0, &packet(PayloadKind::Hashes));
        assert_eq!(deliveries.len(), 3);
        assert!(deliveries
            .iter()
            .all(|d| matches!(d.received, Received::Clean(_))));
        assert_eq!(sys.stats().dropped, 0);
    }

    #[test]
    fn noisy_channel_drops_hash_packets() {
        let mut sys = Scalo::new(
            ScaloConfig::default()
                .with_nodes(8)
                .with_ber(5e-3)
                .with_seed(3),
        );
        let mut dropped = 0;
        for _ in 0..50 {
            let d = sys.broadcast(0, &packet(PayloadKind::Hashes));
            dropped += d
                .iter()
                .filter(|d| {
                    matches!(
                        d.received,
                        Received::DroppedPayloadError(_) | Received::DroppedHeaderError
                    )
                })
                .count();
        }
        assert!(dropped > 0, "expected some drops at BER 5e-3");
        assert_eq!(sys.stats().dropped, dropped);
    }

    #[test]
    fn signal_packets_survive_corruption() {
        let mut sys = Scalo::new(
            ScaloConfig::default()
                .with_nodes(2)
                .with_ber(2e-3)
                .with_seed(9),
        );
        let mut delivered_corrupt = 0;
        for _ in 0..200 {
            for d in sys.broadcast(0, &packet(PayloadKind::Signal)) {
                if matches!(d.received, Received::CorruptDelivered(_)) {
                    delivered_corrupt += 1;
                }
            }
        }
        assert!(
            delivered_corrupt > 0,
            "signals should pass through corrupted"
        );
    }

    #[test]
    fn scratch_broadcast_matches_allocating_draw_for_draw() {
        // Same config + seed ⇒ same channel draws; the scratch broadcast
        // must report the identical per-receiver classification, payload
        // bytes, and medium stats as the allocating one.
        let cfg = ScaloConfig::default()
            .with_nodes(6)
            .with_ber(2e-3)
            .with_seed(41);
        let mut a = Scalo::new(cfg.clone());
        let mut b = Scalo::new(cfg);
        let mut ws = BroadcastScratch::new();
        for kind in [PayloadKind::Hashes, PayloadKind::Signal] {
            for rep in 0..200 {
                let p = packet(kind);
                let deliveries = a.broadcast(0, &p);
                b.broadcast_ws(0, p.header, &p.payload, &mut ws);
                assert_eq!(deliveries.len(), ws.arrivals.len());
                for (d, &(to, arr)) in deliveries.iter().zip(&ws.arrivals) {
                    assert_eq!(d.to, to);
                    match (&d.received, arr) {
                        (Received::Clean(dp), ArrivalWs::Clean(s)) => {
                            assert_eq!(dp.payload, ws.payload(s));
                        }
                        (Received::CorruptDelivered(dp), ArrivalWs::Corrupt(s)) => {
                            assert_eq!(dp.payload, ws.payload(s));
                        }
                        (
                            Received::DroppedHeaderError
                            | Received::DroppedPayloadError(_)
                            | Received::Truncated,
                            ArrivalWs::Dropped,
                        ) => {}
                        other => panic!("classification mismatch at rep {rep}: {other:?}"),
                    }
                }
            }
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn scratch_reliable_broadcast_matches_allocating() {
        let cfg = ScaloConfig::default()
            .with_nodes(4)
            .with_ber(1e-3)
            .with_seed(5);
        let mut a = Scalo::new(cfg.clone());
        let mut b = Scalo::new(cfg);
        let mut ws = BroadcastScratch::new();
        for _ in 0..50 {
            let p = packet(PayloadKind::Hashes);
            let deliveries = a.reliable_broadcast(0, &p);
            b.reliable_broadcast_ws(0, p.header, &p.payload, &mut ws);
            assert_eq!(deliveries.len(), ws.arrivals.len());
            for (d, &(to, arr)) in deliveries.iter().zip(&ws.arrivals) {
                assert_eq!(d.to, to);
                match arr {
                    ArrivalWs::Clean(_) => {
                        assert!(d.outcome.delivered);
                        // A delivered hash payload is byte-identical to
                        // the sent one — the contract the scratch path's
                        // slotless Clean arrivals rely on.
                        assert_eq!(
                            d.outcome.packet.as_ref().map(|pk| pk.payload.as_slice()),
                            Some(p.payload.as_slice()),
                        );
                    }
                    ArrivalWs::Dropped => assert!(!d.outcome.delivered),
                    ArrivalWs::Corrupt(_) => panic!("reliable path never reports corrupt"),
                }
            }
            // Airtime charged to the clock must match draw-for-draw too.
            assert_eq!(a.now_us(), b.now_us());
            a.advance_us(4_000);
            b.advance_us(4_000);
        }
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn time_advances() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(2));
        sys.advance_us(4_000);
        assert_eq!(sys.now_us(), 4_000);
    }

    #[test]
    fn clock_sync_corrects_drifted_nodes() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4));
        sys.node_mut(1).clock_offset_us = 80_000;
        sys.node_mut(3).clock_offset_us = -12_345;
        let report = sys.synchronize_clocks();
        assert!(report.converged, "{report:?}");
        for id in 1..4 {
            assert!(sys.node(id).clock_offset_us.abs() <= 5);
        }
        assert!(sys.now_us() > 0, "network-busy time charged");
    }

    #[test]
    fn saturating_ms_to_us_is_total() {
        assert_eq!(saturating_ms_to_us(1.5), 1_500);
        assert_eq!(saturating_ms_to_us(0.0004), 0);
        assert_eq!(saturating_ms_to_us(-3.0), 0);
        assert_eq!(saturating_ms_to_us(f64::NAN), 0);
        assert_eq!(saturating_ms_to_us(f64::INFINITY), 0);
        // Values beyond u64 µs saturate instead of wrapping: the clock
        // jumps to the far future but stays monotone.
        assert_eq!(saturating_ms_to_us(1e40), u64::MAX);
    }

    #[test]
    fn clock_sync_busy_time_never_wraps_the_clock() {
        // Regression for the old `(ms * 1000.0) as u64` conversion: a
        // pathological busy time must not wrap time backwards.
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4));
        let before = sys.now_us();
        sys.node_mut(1).clock_offset_us = i64::MAX / 2;
        let _ = sys.synchronize_clocks();
        assert!(sys.now_us() >= before, "clock must be monotone");
    }

    #[test]
    fn transfer_time_respects_tdma_share() {
        let sys = Scalo::new(ScaloConfig::default().with_nodes(4).with_ber(0.0));
        let t = sys.transfer_ms(0, 1_000);
        assert!(t > 0.0);
    }

    #[test]
    fn crashed_nodes_do_not_send_or_receive() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4).with_ber(0.0));
        sys.crash_node(2);
        let deliveries = sys.broadcast(0, &packet(PayloadKind::Hashes));
        assert_eq!(deliveries.len(), 2, "crashed receiver skipped");
        assert!(deliveries.iter().all(|d| d.to != 2));
        assert!(sys.broadcast(2, &packet(PayloadKind::Hashes)).is_empty());
        assert_eq!(sys.live_nodes(), vec![0, 1, 3]);
    }

    #[test]
    fn fault_plan_crash_is_detected_and_schedule_resolved() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4).with_ber(0.0));
        let mut plan = FaultPlan::new();
        plan.schedule(10_000, Fault::Crash { node: 3 });
        sys.set_fault_plan(plan);
        sys.advance_us(100_000);
        assert!(!sys.is_alive(3));
        // Survivors evicted the crashed node...
        let evictions: Vec<&MembershipRecord> = sys
            .membership_log()
            .iter()
            .filter(|r| r.event == MembershipEvent::Evicted { peer: 3 })
            .collect();
        assert_eq!(evictions.len(), 3, "{:?}", sys.membership_log());
        // ...within the configured detection window of the crash.
        let cfg = MembershipConfig::default();
        for e in &evictions {
            let latency = e.at_us - 10_000;
            assert!(
                latency <= cfg.evict_after_us + cfg.heartbeat_interval_us,
                "latency {latency}"
            );
        }
        // The coordinator re-solved for the survivors.
        let decision = sys.schedule_decisions().last().expect("re-solve ran");
        assert_eq!(decision.live, vec![0, 1, 2]);
        assert!(decision.weighted_mbps.is_some());
        // Dead node owns no TDMA slots; survivors share the round.
        assert_eq!(sys.tdma().slots_for(3), 0);
        assert_eq!(sys.tdma().slots_per_round(), 3);
    }

    #[test]
    fn recovered_node_rejoins_membership() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(3).with_ber(0.0));
        let mut plan = FaultPlan::new();
        plan.schedule(8_000, Fault::Crash { node: 2 });
        plan.schedule(80_000, Fault::Recover { node: 2 });
        sys.set_fault_plan(plan);
        sys.advance_us(150_000);
        assert!(sys.is_alive(2));
        assert!(sys
            .membership_log()
            .iter()
            .any(|r| r.event == MembershipEvent::Rejoined { peer: 2 }));
        // Everyone is live in the survivors' views again.
        assert_eq!(sys.membership(0).live_members(), vec![0, 1, 2]);
    }

    #[test]
    fn ber_spike_applies_and_expires() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(2).with_ber(1e-6));
        let mut plan = FaultPlan::new();
        plan.schedule(
            5_000,
            Fault::BerSpike {
                ber: 0.01,
                duration_us: 20_000,
            },
        );
        sys.set_fault_plan(plan);
        sys.advance_us(6_000);
        let mut dropped_during = 0;
        for _ in 0..30 {
            dropped_during += sys
                .broadcast(0, &packet(PayloadKind::Hashes))
                .iter()
                .filter(|d| !matches!(d.received, Received::Clean(_)))
                .count();
        }
        assert!(dropped_during > 0, "spike BER must bite");
        sys.advance_us(40_000); // spike expires at t=25 ms
        let mut dropped_after = 0;
        for _ in 0..30 {
            dropped_after += sys
                .broadcast(0, &packet(PayloadKind::Hashes))
                .iter()
                .filter(|d| !matches!(d.received, Received::Clean(_)))
                .count();
        }
        assert!(
            dropped_after < dropped_during,
            "baseline restored: {dropped_after} vs {dropped_during}"
        );
    }

    #[test]
    fn clock_drift_and_nvm_faults_apply() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(2).with_ber(0.0));
        let mut plan = FaultPlan::new();
        plan.schedule(
            1_000,
            Fault::ClockDrift {
                node: 1,
                offset_us: 70_000,
            },
        );
        plan.schedule(
            2_000,
            Fault::NvmBlockFail {
                node: 1,
                kind: PartitionKind::Signals,
                bytes: 1024,
            },
        );
        sys.set_fault_plan(plan);
        sys.advance_us(10_000);
        assert_eq!(sys.node(1).clock_offset_us, 70_000);
        assert_eq!(
            sys.node(1)
                .storage()
                .get(PartitionKind::Signals)
                .failed_bytes(),
            1024
        );
        assert_eq!(sys.fault_log().len(), 2);
        // SNTP corrects the drift.
        let report = sys.synchronize_clocks();
        assert!(report.converged);
        assert!(sys.node(1).clock_offset_us.abs() <= 5);
    }

    #[test]
    fn reliable_broadcast_delivers_under_harsh_ber() -> Result<(), String> {
        let mut sys = Scalo::new(
            ScaloConfig::default()
                .with_nodes(4)
                .with_ber(1e-3)
                .with_seed(5),
        );
        let mut delivered = 0;
        let total = 50 * 3;
        for _ in 0..50 {
            for d in sys.reliable_broadcast(0, &packet(PayloadKind::Hashes)) {
                delivered += usize::from(d.outcome.delivered);
            }
        }
        // 64 B payloads at BER 1e-3 lose ~half their frames; 8 attempts
        // still recover essentially everything.
        assert!(
            delivered as f64 >= 0.99 * total as f64,
            "reliable transport recovers ≥99%: {delivered}/{total}"
        );
        let s = sys.stats();
        assert!(s.retransmissions > 0, "{s:?}");
        let fs = sys
            .flow_stats(0, 1, 1)
            .ok_or("link (0, 1, flow 1) carried traffic but has no stats")?;
        assert_eq!(fs.data_packets, 50);
        // Only 50 packets on this one link — a single giving-up loss is
        // 2%, so bound per-link delivery a little looser than aggregate.
        assert!(fs.delivery_rate() >= 0.95, "{fs:?}");
        assert!(sys.now_us() > 0, "airtime charged to the clock");
        Ok(())
    }

    #[test]
    fn heartbeats_do_not_pollute_protocol_stats() {
        let mut sys = Scalo::new(ScaloConfig::default().with_nodes(3).with_ber(0.0));
        sys.advance_us(40_000);
        let s = sys.stats();
        assert!(s.heartbeats > 0);
        assert_eq!(s.transmissions, 0);
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn deterministic_fault_runs() {
        let run = || {
            let mut sys = Scalo::new(
                ScaloConfig::default()
                    .with_nodes(5)
                    .with_ber(1e-4)
                    .with_seed(77),
            );
            let mut plan = FaultPlan::new();
            plan.schedule(12_000, Fault::Crash { node: 4 });
            plan.schedule(20_000, Fault::Crash { node: 1 });
            sys.set_fault_plan(plan);
            for _ in 0..30 {
                let _ = sys.reliable_broadcast(0, &packet(PayloadKind::Hashes));
                sys.advance_us(4_000);
            }
            (
                sys.stats(),
                sys.membership_log().to_vec(),
                sys.schedule_decisions().to_vec(),
            )
        };
        let (a_stats, a_log, a_dec) = run();
        let (b_stats, b_log, b_dec) = run();
        assert_eq!(a_stats, b_stats);
        assert_eq!(a_log, b_log);
        assert_eq!(a_dec, b_dec);
    }
}
