//! Failure detection and membership.
//!
//! Each node keeps a local view of its peers, refreshed by heartbeats
//! piggybacked on the TDMA rounds ([`crate::Scalo`] runs one heartbeat
//! exchange per interval). Silence moves a peer through a two-stage
//! state machine — `Alive → Suspect → Evicted` — with thresholds wide
//! enough that ordinary packet loss (a missed heartbeat or two at the
//! nominal BER) never evicts a healthy node. On eviction the system
//! re-solves its schedule over the survivors so applications degrade to
//! the live quorum instead of silently waiting on dead peers.

/// Timing thresholds of the failure detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Gap between heartbeat rounds, in µs (defaults to the 4 ms
    /// analysis-window cadence so heartbeats ride existing slots).
    pub heartbeat_interval_us: u64,
    /// Silence before a peer is suspected, in µs.
    pub suspect_after_us: u64,
    /// Silence before a suspected peer is evicted, in µs.
    pub evict_after_us: u64,
}

impl Default for MembershipConfig {
    /// Suspect after 4 missed heartbeats, evict after 10: at BER 1e-4 a
    /// heartbeat frame is lost ~2% of the time, so four consecutive
    /// losses from a live peer have probability ~1e-7 per interval.
    fn default() -> Self {
        Self {
            heartbeat_interval_us: 4_000,
            suspect_after_us: 16_000,
            evict_after_us: 40_000,
        }
    }
}

/// A peer's state in one node's local view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeerState {
    /// Heard from recently.
    Alive,
    /// Silent past the suspicion threshold.
    Suspect,
    /// Silent past the eviction threshold; excluded from schedules.
    Evicted,
}

/// A state transition observed by one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipEvent {
    /// `peer` crossed the suspicion threshold.
    Suspected { peer: usize },
    /// `peer` crossed the eviction threshold.
    Evicted { peer: usize },
    /// An evicted `peer` was heard from again.
    Rejoined { peer: usize },
}

/// One node's local membership view.
#[derive(Debug, Clone, PartialEq)]
pub struct MembershipView {
    owner: usize,
    cfg: MembershipConfig,
    last_heard_us: Vec<u64>,
    states: Vec<PeerState>,
}

impl MembershipView {
    /// A fresh view at `owner` over `nodes` peers, all alive as of
    /// `now_us`.
    ///
    /// # Panics
    ///
    /// Panics unless `owner < nodes`.
    pub fn new(owner: usize, nodes: usize, cfg: MembershipConfig, now_us: u64) -> Self {
        assert!(owner < nodes, "owner out of range");
        Self {
            owner,
            cfg,
            last_heard_us: vec![now_us; nodes],
            states: vec![PeerState::Alive; nodes],
        }
    }

    /// A view restored from its parts: `last_heard_us[p]` and
    /// `states[p]` per peer `p`, as [`Self::last_heard_us`] and
    /// [`Self::states`] report them.
    ///
    /// # Panics
    ///
    /// Panics unless both are one entry per peer and `owner` is a peer.
    pub fn from_parts(
        owner: usize,
        cfg: MembershipConfig,
        last_heard_us: Vec<u64>,
        states: Vec<PeerState>,
    ) -> Self {
        assert_eq!(last_heard_us.len(), states.len(), "one entry per peer");
        assert!(owner < states.len(), "owner out of range");
        Self {
            owner,
            cfg,
            last_heard_us,
            states,
        }
    }

    /// When each peer was last heard from, µs.
    pub fn last_heard_us(&self) -> &[u64] {
        &self.last_heard_us
    }

    /// Each peer's state.
    pub fn states(&self) -> &[PeerState] {
        &self.states
    }

    /// The node holding this view.
    pub fn owner(&self) -> usize {
        self.owner
    }

    /// The detector's thresholds.
    pub fn config(&self) -> MembershipConfig {
        self.cfg
    }

    /// Current state of `peer` (the owner is always `Alive` to itself).
    pub fn state(&self, peer: usize) -> PeerState {
        self.states[peer]
    }

    /// Records a heartbeat (or any packet) from `peer` at `now_us`.
    /// Returns a [`MembershipEvent::Rejoined`] if the peer had been
    /// evicted.
    pub fn observe(&mut self, peer: usize, now_us: u64) -> Option<MembershipEvent> {
        self.last_heard_us[peer] = self.last_heard_us[peer].max(now_us);
        let was = self.states[peer];
        self.states[peer] = PeerState::Alive;
        (was == PeerState::Evicted).then_some(MembershipEvent::Rejoined { peer })
    }

    /// Advances the detector to `now_us`, returning every transition
    /// taken (suspicions before evictions, in peer order).
    pub fn tick(&mut self, now_us: u64) -> Vec<MembershipEvent> {
        let mut events = Vec::new();
        for peer in 0..self.states.len() {
            if peer == self.owner {
                continue;
            }
            let silent_us = now_us.saturating_sub(self.last_heard_us[peer]);
            match self.states[peer] {
                PeerState::Alive if silent_us >= self.cfg.suspect_after_us => {
                    self.states[peer] = PeerState::Suspect;
                    events.push(MembershipEvent::Suspected { peer });
                    if silent_us >= self.cfg.evict_after_us {
                        self.states[peer] = PeerState::Evicted;
                        events.push(MembershipEvent::Evicted { peer });
                    }
                }
                PeerState::Suspect if silent_us >= self.cfg.evict_after_us => {
                    self.states[peer] = PeerState::Evicted;
                    events.push(MembershipEvent::Evicted { peer });
                }
                _ => {}
            }
        }
        events
    }

    /// Members not evicted (the owner included), ascending.
    pub fn live_members(&self) -> Vec<usize> {
        (0..self.states.len())
            .filter(|&p| p == self.owner || self.states[p] != PeerState::Evicted)
            .collect()
    }

    /// Whether the live members form a strict majority of the full
    /// membership.
    pub fn has_quorum(&self) -> bool {
        self.live_members().len() * 2 > self.states.len()
    }

    /// Whether the owner is the lowest-id live member of its own view —
    /// the (deterministic) coordinator that triggers re-scheduling.
    pub fn is_coordinator(&self) -> bool {
        self.live_members().first() == Some(&self.owner)
    }

    /// Resets the view to all-alive as of `now_us` (a recovered node
    /// rejoins with no memory of past silence).
    pub fn reset(&mut self, now_us: u64) {
        self.last_heard_us.fill(now_us);
        self.states.fill(PeerState::Alive);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> MembershipView {
        MembershipView::new(0, 4, MembershipConfig::default(), 0)
    }

    #[test]
    fn silence_walks_suspect_then_evict() {
        let mut v = view();
        assert!(v.tick(15_999).is_empty());
        let ev = v.tick(16_000);
        assert_eq!(ev.len(), 3, "{ev:?}"); // peers 1..3 all suspected
        assert_eq!(v.state(1), PeerState::Suspect);
        assert!(v.tick(39_999).is_empty());
        let ev = v.tick(40_000);
        assert!(ev
            .iter()
            .all(|e| matches!(e, MembershipEvent::Evicted { .. })));
        assert_eq!(v.state(2), PeerState::Evicted);
        assert_eq!(v.live_members(), vec![0]);
        assert!(!v.has_quorum());
    }

    #[test]
    fn heartbeats_keep_peers_alive() {
        let mut v = view();
        for t in (0..100_000).step_by(4_000) {
            for p in 1..4 {
                v.observe(p, t);
            }
            assert!(v.tick(t).is_empty(), "at {t}");
        }
        assert_eq!(v.live_members(), vec![0, 1, 2, 3]);
        assert!(v.has_quorum());
    }

    #[test]
    fn one_silent_peer_evicted_others_stay() {
        let mut v = view();
        for t in (0..60_000).step_by(4_000) {
            v.observe(1, t);
            v.observe(2, t);
            // peer 3 is silent
            v.tick(t);
        }
        assert_eq!(v.state(3), PeerState::Evicted);
        assert_eq!(v.live_members(), vec![0, 1, 2]);
        assert!(v.has_quorum(), "3 of 4 is a quorum");
    }

    #[test]
    fn long_gap_emits_suspect_and_evict_together() {
        let mut v = view();
        let ev = v.tick(100_000);
        let about_1: Vec<_> = ev
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    MembershipEvent::Suspected { peer: 1 } | MembershipEvent::Evicted { peer: 1 }
                )
            })
            .collect();
        assert_eq!(about_1.len(), 2, "{ev:?}");
        assert_eq!(v.state(1), PeerState::Evicted);
    }

    #[test]
    fn rejoin_after_eviction() {
        let mut v = view();
        v.tick(50_000);
        assert_eq!(v.state(1), PeerState::Evicted);
        let ev = v.observe(1, 55_000);
        assert_eq!(ev, Some(MembershipEvent::Rejoined { peer: 1 }));
        assert_eq!(v.state(1), PeerState::Alive);
        assert!(v.tick(55_000).is_empty());
    }

    #[test]
    fn coordinator_is_lowest_live_member() {
        let mut v = MembershipView::new(2, 4, MembershipConfig::default(), 0);
        assert!(!v.is_coordinator(), "node 0 outranks node 2");
        // Nodes 0 and 1 go silent; 3 keeps talking.
        for t in (0..60_000).step_by(4_000) {
            v.observe(3, t);
            v.tick(t);
        }
        assert_eq!(v.live_members(), vec![2, 3]);
        assert!(v.is_coordinator());
    }

    #[test]
    fn observe_ignores_stale_timestamps() {
        let mut v = view();
        v.observe(1, 10_000);
        v.observe(1, 2_000); // late, out-of-order packet
        v.tick(20_000);
        assert_eq!(v.state(1), PeerState::Alive, "fresh observation holds");
    }
}
