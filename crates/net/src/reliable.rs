//! Reliable transport over the lossy intra-SCALO medium.
//!
//! The base protocol is fire-and-forget: corrupted hash packets are
//! simply dropped (§3.4) and the application retries a window later.
//! That is fine at the radio's nominal BER of 1e-5, but under link
//! degradation (interference spikes, marginal placements) the loss of
//! entire hash batches turns into multi-window confirmation delays.
//! This module layers a sequence-number / ACK / bounded-retransmission
//! scheme over the existing packet format:
//!
//! * per-flow 16-bit sequence numbers (the [`crate::packet::Header`]
//!   already carries `flow` and `seq`, so nothing changes on the wire);
//! * the receiver answers every deliverable data packet with a tiny
//!   `Control` ACK that traverses the *same* error channel — ACKs can be
//!   lost, which is what makes duplicate suppression necessary;
//! * the sender retransmits on ACK timeout with exponential backoff up
//!   to a cap, giving up after a bounded number of attempts;
//! * the receiver suppresses duplicate sequence numbers so a data
//!   packet whose ACK was lost is not delivered twice;
//! * all airtime — data, retransmissions, and ACKs — is accounted so
//!   callers can charge it against their TDMA budget.

use crate::ber::ErrorChannel;
use crate::packet::{
    frame_into, receive, receive_ref, Header, Packet, PayloadKind, Received, ReceivedRef,
};
use crate::tx_time_ms;
use std::collections::HashSet;
use std::collections::VecDeque;

/// First payload byte of an ACK frame (distinguishes ACKs from other
/// `Control` traffic sharing the flow).
pub const ACK_MAGIC: u8 = 0xA6;

/// How many recently-delivered sequence numbers the receiver remembers
/// for duplicate suppression.
pub const DUP_WINDOW: usize = 4096;

/// Retransmission policy of one reliable link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReliablePolicy {
    /// Initial ACK timeout in ms.
    pub ack_timeout_ms: f64,
    /// Timeout multiplier applied after every failed attempt.
    pub backoff: f64,
    /// Upper bound on the (backed-off) timeout in ms.
    pub max_backoff_ms: f64,
    /// Total transmissions allowed per packet (first send included).
    pub max_attempts: u32,
}

impl Default for ReliablePolicy {
    /// Timeouts sized for the Low Power radio: a hash packet plus its
    /// ACK fit comfortably in 2 ms of TDMA airtime, and eight attempts
    /// push residual loss below 1e-9 even at BER 1e-3.
    fn default() -> Self {
        Self {
            ack_timeout_ms: 2.0,
            backoff: 2.0,
            max_backoff_ms: 16.0,
            max_attempts: 8,
        }
    }
}

/// Delivery statistics of one flow direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FlowStats {
    /// Distinct data packets offered to the link.
    pub data_packets: usize,
    /// Distinct data packets the receiver delivered upward.
    pub delivered: usize,
    /// Data transmissions, retransmissions included.
    pub transmissions: usize,
    /// Retransmissions only.
    pub retransmissions: usize,
    /// Receiver-side duplicates suppressed.
    pub duplicates: usize,
    /// ACK frames the receiver sent.
    pub acks_sent: usize,
    /// ACK frames lost in flight (forcing a retransmission of a packet
    /// the receiver already had).
    pub acks_lost: usize,
    /// Packets the sender gave up on after exhausting its attempts.
    pub gave_up: usize,
}

impl FlowStats {
    /// Fraction of offered packets the receiver delivered.
    pub fn delivery_rate(&self) -> f64 {
        if self.data_packets == 0 {
            return 1.0;
        }
        self.delivered as f64 / self.data_packets as f64
    }
}

/// Outcome of one reliable send.
#[derive(Debug, Clone, PartialEq)]
pub struct SendOutcome {
    /// Whether the receiver delivered the packet (even if the final ACK
    /// was lost and the sender gave up).
    pub delivered: bool,
    /// Whether the sender saw an ACK (false means it exhausted its
    /// attempts).
    pub acked: bool,
    /// The packet as delivered to the receiver, if it was.
    pub packet: Option<Packet>,
    /// Transmissions used.
    pub attempts: u32,
    /// Sender-observed latency: airtime plus timeout waits, in ms.
    pub latency_ms: f64,
    /// Channel airtime consumed (data + ACKs), in ms — charge this
    /// against the sender's TDMA budget.
    pub airtime_ms: f64,
}

/// Outcome of one reliable send through recycled buffers: the fields of
/// [`SendOutcome`] minus the materialised packet. A delivered
/// error-sensitive payload (`Hashes`, `Features`, `Control`) is
/// byte-identical to the sent payload, which the caller still holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SendOutcomeWs {
    /// Whether the receiver delivered the packet (even if the final ACK
    /// was lost and the sender gave up).
    pub delivered: bool,
    /// Whether the sender saw an ACK (false means it exhausted its
    /// attempts).
    pub acked: bool,
    /// Transmissions used.
    pub attempts: u32,
    /// Sender-observed latency: airtime plus timeout waits, in ms.
    pub latency_ms: f64,
    /// Channel airtime consumed (data + ACKs), in ms — charge this
    /// against the sender's TDMA budget.
    pub airtime_ms: f64,
}

/// Recycled wire buffers for [`ReliableLink::send_ws`]: the framed data
/// packet, its received copy, and the ACK frame in both directions. One
/// scratch serves any number of links; buffers grow to the largest frame
/// seen.
#[derive(Debug, Clone, Default)]
pub struct LinkScratch {
    wire: Vec<u8>,
    rx: Vec<u8>,
    ack_wire: Vec<u8>,
    ack_rx: Vec<u8>,
}

impl LinkScratch {
    /// An empty scratch; the first send sizes it.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Receiver-side duplicate suppression over a bounded window of
/// recently seen sequence numbers.
#[derive(Debug, Clone, Default)]
struct DupFilter {
    seen: HashSet<u16>,
    order: VecDeque<u16>,
}

impl DupFilter {
    /// Records `seq`; returns `false` if it was already present.
    fn insert(&mut self, seq: u16) -> bool {
        if !self.seen.insert(seq) {
            return false;
        }
        self.order.push_back(seq);
        if self.order.len() > DUP_WINDOW {
            let old = self.order.pop_front().expect("non-empty");
            self.seen.remove(&old);
        }
        true
    }
}

/// One direction of a reliable flow between a sender and a receiver.
///
/// The link simulates both endpoints: [`ReliableLink::send`] runs the
/// full exchange — data transmission, receiver-side duplicate check,
/// ACK transmission back through the same channel, and the sender's
/// timeout/backoff loop — synchronously, which is the natural shape for
/// a discrete-event model where the channel is the only shared state.
#[derive(Debug, Clone)]
pub struct ReliableLink {
    flow: u8,
    policy: ReliablePolicy,
    next_seq: u16,
    dup: DupFilter,
    stats: FlowStats,
}

impl ReliableLink {
    /// A fresh link for `flow` under `policy`.
    pub fn new(flow: u8, policy: ReliablePolicy) -> Self {
        assert!(policy.max_attempts >= 1, "need at least one attempt");
        assert!(policy.backoff >= 1.0, "backoff must not shrink timeouts");
        Self {
            flow,
            policy,
            next_seq: 0,
            // Pre-size the duplicate filter to its bounded window so its
            // growth never lands on the zero-allocation send path.
            dup: DupFilter {
                seen: HashSet::with_capacity(DUP_WINDOW + 1),
                order: VecDeque::with_capacity(DUP_WINDOW + 1),
            },
            stats: FlowStats::default(),
        }
    }

    /// The flow tag this link serves.
    pub fn flow(&self) -> u8 {
        self.flow
    }

    /// Statistics since construction.
    pub fn stats(&self) -> FlowStats {
        self.stats
    }

    /// The sequence number the next send will carry.
    pub fn next_seq(&self) -> u16 {
        self.next_seq
    }

    /// The sequence numbers the receiver remembers for duplicate
    /// suppression, oldest first.
    pub fn delivered_window(&self) -> impl Iterator<Item = u16> + '_ {
        self.dup.order.iter().copied()
    }

    /// A link resumed mid-flow: [`Self::new`], then the sequence counter,
    /// the receiver's remembered window (`delivered`, oldest first, as
    /// [`Self::delivered_window`] lists it) and the statistics set to
    /// what a link that had carried that traffic holds. `None` when
    /// `delivered` repeats a sequence number or overruns
    /// [`DUP_WINDOW`]: no link ever remembers such a window.
    pub fn resume(
        flow: u8,
        policy: ReliablePolicy,
        next_seq: u16,
        delivered: impl IntoIterator<Item = u16>,
        stats: FlowStats,
    ) -> Option<Self> {
        let mut link = Self::new(flow, policy);
        link.next_seq = next_seq;
        link.stats = stats;
        for seq in delivered {
            if link.dup.order.len() == DUP_WINDOW || !link.dup.insert(seq) {
                return None;
            }
        }
        Some(link)
    }

    /// Sends one packet reliably through `channel` at `rate_mbps`.
    ///
    /// The header's `flow` and `seq` fields are overwritten with this
    /// link's flow tag and next sequence number.
    pub fn send(
        &mut self,
        channel: &mut ErrorChannel,
        rate_mbps: f64,
        mut header: Header,
        payload: Vec<u8>,
    ) -> SendOutcome {
        header.flow = self.flow;
        header.seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        let packet = Packet::new(header, payload);
        let wire = packet.to_wire();
        let data_ms = tx_time_ms(packet.payload.len(), rate_mbps);

        self.stats.data_packets += 1;
        let mut delivered_packet = None;
        let mut latency_ms = 0.0;
        let mut airtime_ms = 0.0;
        let mut timeout_ms = self.policy.ack_timeout_ms;

        for attempt in 1..=self.policy.max_attempts {
            self.stats.transmissions += 1;
            if attempt > 1 {
                self.stats.retransmissions += 1;
            }
            latency_ms += data_ms;
            airtime_ms += data_ms;

            let (rx_wire, _) = channel.transmit(&wire);
            let deliverable = match receive(&rx_wire) {
                Received::Clean(p) | Received::CorruptDelivered(p) => Some(p),
                _ => None,
            };
            if let Some(p) = deliverable {
                // Receiver side: suppress duplicates, deliver fresh
                // packets, and ACK either way (the sender is clearly
                // still waiting).
                if self.dup.insert(p.header.seq) {
                    self.stats.delivered += 1;
                    delivered_packet = Some(p.clone());
                } else {
                    self.stats.duplicates += 1;
                }
                let ack = ack_packet(&p.header);
                let ack_ms = tx_time_ms(ack.payload.len(), rate_mbps);
                latency_ms += ack_ms;
                airtime_ms += ack_ms;
                self.stats.acks_sent += 1;
                let (ack_wire, _) = channel.transmit(&ack.to_wire());
                if matches!(receive(&ack_wire), Received::Clean(a) if is_ack(&a, &packet.header)) {
                    // A deliverable arrival is either fresh (recorded in
                    // `delivered_packet`) or a duplicate of an earlier
                    // attempt in this same exchange — delivered either way.
                    return SendOutcome {
                        delivered: true,
                        acked: true,
                        packet: delivered_packet,
                        attempts: attempt,
                        latency_ms,
                        airtime_ms,
                    };
                }
                self.stats.acks_lost += 1;
            }
            latency_ms += timeout_ms;
            timeout_ms = (timeout_ms * self.policy.backoff).min(self.policy.max_backoff_ms);
        }

        self.stats.gave_up += 1;
        SendOutcome {
            delivered: delivered_packet.is_some(),
            acked: false,
            packet: delivered_packet,
            attempts: self.policy.max_attempts,
            latency_ms,
            airtime_ms,
        }
    }

    /// [`ReliableLink::send`] through recycled buffers: identical channel
    /// draws, link state transitions, statistics, and outcome fields, but
    /// the delivered packet is never materialised — allocation-free once
    /// `ws` (and the duplicate filter) are warm.
    ///
    /// Intended for error-sensitive payload kinds (`Hashes`, `Features`,
    /// `Control`), where a delivered payload is byte-identical to the sent
    /// one. A corrupt-but-delivered `Signal` payload would be dropped on
    /// the floor here, so `Signal` flows must use [`ReliableLink::send`].
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if `header.kind` is [`PayloadKind::Signal`].
    pub fn send_ws(
        &mut self,
        channel: &mut ErrorChannel,
        rate_mbps: f64,
        mut header: Header,
        payload: &[u8],
        ws: &mut LinkScratch,
    ) -> SendOutcomeWs {
        debug_assert!(
            header.kind != PayloadKind::Signal,
            "Signal flows deliver corrupted payloads; use `send`"
        );
        header.flow = self.flow;
        header.seq = self.next_seq;
        self.next_seq = self.next_seq.wrapping_add(1);
        frame_into(header, payload, &mut ws.wire);
        let data_ms = tx_time_ms(payload.len(), rate_mbps);

        self.stats.data_packets += 1;
        let mut delivered = false;
        let mut latency_ms = 0.0;
        let mut airtime_ms = 0.0;
        let mut timeout_ms = self.policy.ack_timeout_ms;

        for attempt in 1..=self.policy.max_attempts {
            self.stats.transmissions += 1;
            if attempt > 1 {
                self.stats.retransmissions += 1;
            }
            latency_ms += data_ms;
            airtime_ms += data_ms;

            let _ = channel.transmit_into(&ws.wire, &mut ws.rx);
            let deliverable = match receive_ref(&ws.rx) {
                ReceivedRef::Clean(h, _) | ReceivedRef::CorruptDelivered(h, _) => Some(h),
                _ => None,
            };
            if let Some(h) = deliverable {
                // Receiver side: suppress duplicates, deliver fresh
                // packets, and ACK either way (the sender is clearly
                // still waiting).
                if self.dup.insert(h.seq) {
                    self.stats.delivered += 1;
                    delivered = true;
                } else {
                    self.stats.duplicates += 1;
                }
                let seq = h.seq.to_le_bytes();
                frame_into(
                    Header {
                        src: h.dst,
                        dst: h.src,
                        flow: h.flow,
                        seq: h.seq,
                        len: 0,
                        kind: PayloadKind::Control,
                        timestamp_us: h.timestamp_us,
                    },
                    &[ACK_MAGIC, h.flow, seq[0], seq[1]],
                    &mut ws.ack_wire,
                );
                let ack_ms = tx_time_ms(4, rate_mbps);
                latency_ms += ack_ms;
                airtime_ms += ack_ms;
                self.stats.acks_sent += 1;
                let _ = channel.transmit_into(&ws.ack_wire, &mut ws.ack_rx);
                let acked = matches!(
                    receive_ref(&ws.ack_rx),
                    ReceivedRef::Clean(ah, apl) if is_ack_parts(ah, apl, &header)
                );
                if acked {
                    // A deliverable arrival is either fresh (flagged in
                    // `delivered`) or a duplicate of an earlier attempt in
                    // this same exchange — delivered either way.
                    return SendOutcomeWs {
                        delivered: true,
                        acked: true,
                        attempts: attempt,
                        latency_ms,
                        airtime_ms,
                    };
                }
                self.stats.acks_lost += 1;
            }
            latency_ms += timeout_ms;
            timeout_ms = (timeout_ms * self.policy.backoff).min(self.policy.max_backoff_ms);
        }

        self.stats.gave_up += 1;
        SendOutcomeWs {
            delivered,
            acked: false,
            attempts: self.policy.max_attempts,
            latency_ms,
            airtime_ms,
        }
    }
}

/// Builds the ACK frame for a delivered data header: a 4-byte `Control`
/// payload `[ACK_MAGIC, flow, seq_lo, seq_hi]` flowing back from the
/// data's destination to its source.
pub fn ack_packet(data: &Header) -> Packet {
    let seq = data.seq.to_le_bytes();
    Packet::new(
        Header {
            src: data.dst,
            dst: data.src,
            flow: data.flow,
            seq: data.seq,
            len: 0,
            kind: PayloadKind::Control,
            timestamp_us: data.timestamp_us,
        },
        vec![ACK_MAGIC, data.flow, seq[0], seq[1]],
    )
}

/// Whether `candidate` acknowledges the data packet with header `data`.
pub fn is_ack(candidate: &Packet, data: &Header) -> bool {
    is_ack_parts(candidate.header, &candidate.payload, data)
}

/// [`is_ack`] over a borrowed header/payload pair (the
/// [`crate::packet::ReceivedRef`] shape).
pub fn is_ack_parts(header: Header, payload: &[u8], data: &Header) -> bool {
    header.kind == PayloadKind::Control
        && payload.len() == 4
        && payload[0] == ACK_MAGIC
        && payload[1] == data.flow
        && u16::from_le_bytes([payload[2], payload[3]]) == data.seq
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::BROADCAST;

    const RATE: f64 = 7.0; // Low Power radio

    fn header() -> Header {
        Header {
            src: 0,
            dst: 1,
            flow: 1,
            seq: 0,
            len: 0,
            kind: PayloadKind::Hashes,
            timestamp_us: 0,
        }
    }

    fn send_n(link: &mut ReliableLink, channel: &mut ErrorChannel, n: usize) -> Vec<SendOutcome> {
        (0..n)
            .map(|_| link.send(channel, RATE, header(), vec![0x42; 16]))
            .collect()
    }

    #[test]
    fn clean_channel_delivers_first_try() {
        let mut ch = ErrorChannel::new(0.0, 1);
        let mut link = ReliableLink::new(1, ReliablePolicy::default());
        let out = link.send(&mut ch, RATE, header(), vec![1, 2, 3]);
        assert!(out.delivered && out.acked);
        assert_eq!(out.attempts, 1);
        assert_eq!(out.packet.as_ref().unwrap().payload, vec![1, 2, 3]);
        let s = link.stats();
        assert_eq!((s.data_packets, s.delivered, s.retransmissions), (1, 1, 0));
        // Airtime = one data frame + one 4-byte ACK.
        let expect = tx_time_ms(3, RATE) + tx_time_ms(4, RATE);
        assert!((out.airtime_ms - expect).abs() < 1e-12);
    }

    #[test]
    fn sequence_numbers_increment_per_flow() {
        let mut ch = ErrorChannel::new(0.0, 1);
        let mut link = ReliableLink::new(3, ReliablePolicy::default());
        for expected in 0..5u16 {
            let out = link.send(&mut ch, RATE, header(), vec![0; 8]);
            let p = out.packet.unwrap();
            assert_eq!(p.header.seq, expected);
            assert_eq!(p.header.flow, 3);
        }
    }

    #[test]
    fn lossy_channel_retransmits_until_delivered() {
        // BER 1e-3 corrupts ~24% of 276-bit hash frames; with 8 attempts
        // essentially everything still gets through.
        let mut ch = ErrorChannel::new(1e-3, 0xfa);
        let mut link = ReliableLink::new(1, ReliablePolicy::default());
        let outs = send_n(&mut link, &mut ch, 200);
        let s = link.stats();
        assert_eq!(s.data_packets, 200);
        assert!(s.retransmissions > 0, "{s:?}");
        assert_eq!(s.delivered, 200, "{s:?}");
        assert!(outs.iter().all(|o| o.delivered));
    }

    #[test]
    fn ack_loss_causes_suppressed_duplicates() {
        // At a harsh BER, some ACKs are lost after successful delivery;
        // the retransmitted copies must be suppressed, not re-delivered.
        let mut ch = ErrorChannel::new(5e-3, 0xdead);
        let mut link = ReliableLink::new(1, ReliablePolicy::default());
        let outs = send_n(&mut link, &mut ch, 300);
        let s = link.stats();
        assert!(s.acks_lost > 0, "{s:?}");
        assert!(s.duplicates > 0, "{s:?}");
        // Duplicates only arise from retransmissions after a lost ACK.
        assert!(s.duplicates <= s.acks_lost, "{s:?}");
        assert!(s.duplicates <= s.retransmissions, "{s:?}");
        // Every delivered packet surfaced exactly once.
        let distinct: HashSet<u16> = outs
            .iter()
            .filter_map(|o| o.packet.as_ref().map(|p| p.header.seq))
            .collect();
        assert_eq!(distinct.len(), s.delivered, "{s:?}");
    }

    #[test]
    fn timeout_backoff_caps_and_gives_up() {
        // A channel so harsh nothing survives: the sender must walk the
        // full backoff ladder and then give up.
        let policy = ReliablePolicy {
            ack_timeout_ms: 1.0,
            backoff: 4.0,
            max_backoff_ms: 4.0,
            max_attempts: 4,
        };
        let mut ch = ErrorChannel::new(0.4, 7);
        let mut link = ReliableLink::new(1, policy);
        let out = link.send(&mut ch, RATE, header(), vec![0; 16]);
        assert!(!out.delivered && !out.acked);
        assert_eq!(out.attempts, 4);
        assert_eq!(link.stats().gave_up, 1);
        // Timeouts: 1, then capped at 4 for the remaining three waits.
        let data_ms = tx_time_ms(16, RATE);
        let expect = 4.0 * data_ms + 1.0 + 4.0 + 4.0 + 4.0;
        assert!(
            (out.latency_ms - expect).abs() < 1e-9,
            "latency {} vs {expect}",
            out.latency_ms
        );
    }

    #[test]
    fn send_ws_matches_send_draw_for_draw() {
        // Identical channels, one link driven through `send`, the other
        // through `send_ws`: every outcome field, the link statistics,
        // and the RNG stream (checked implicitly — a divergence on one
        // send desynchronises everything after it) must agree across a
        // long lossy run.
        let mut ch_a = ErrorChannel::new(2e-3, 0xCAFE);
        let mut ch_b = ch_a.clone();
        let mut link_a = ReliableLink::new(1, ReliablePolicy::default());
        let mut link_b = ReliableLink::new(1, ReliablePolicy::default());
        let mut ws = LinkScratch::new();
        for i in 0..300u16 {
            let payload = vec![i as u8; 8 + (i % 9) as usize];
            let a = link_a.send(&mut ch_a, RATE, header(), payload.clone());
            let b = link_b.send_ws(&mut ch_b, RATE, header(), &payload, &mut ws);
            assert_eq!(a.packet.is_some(), b.delivered, "send {i}");
            assert_eq!(a.acked, b.acked, "send {i}");
            assert_eq!(a.attempts, b.attempts, "send {i}");
            assert_eq!(a.latency_ms, b.latency_ms, "send {i}");
            assert_eq!(a.airtime_ms, b.airtime_ms, "send {i}");
        }
        assert_eq!(link_a.stats(), link_b.stats());
        let s = link_a.stats();
        assert!(s.retransmissions > 0 && s.acks_lost > 0, "{s:?}");
    }

    #[test]
    fn deterministic_per_seed() {
        let run = || {
            let mut ch = ErrorChannel::new(1e-3, 99);
            let mut link = ReliableLink::new(1, ReliablePolicy::default());
            let _ = send_n(&mut link, &mut ch, 100);
            link.stats()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ack_frame_roundtrip() {
        let mut h = header();
        h.dst = BROADCAST;
        h.seq = 0xBEEF;
        let ack = ack_packet(&h);
        assert!(is_ack(&ack, &h));
        let mut other = h;
        other.seq = 0xBEEE;
        assert!(!is_ack(&ack, &other));
        match receive(&ack.to_wire()) {
            Received::Clean(p) => assert!(is_ack(&p, &h)),
            other => panic!("{other:?}"),
        }
    }
}
