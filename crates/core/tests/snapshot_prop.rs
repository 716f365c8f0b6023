//! Property-based and mutation coverage for the SCSS v4 codec — every
//! field of the session state included — plus the snapshot → restore →
//! resume equivalence the durability and swap layers rest on.
//!
//! The binary counts heap traffic ([`scalo_alloc::CountingAllocator`])
//! so a forged length can be shown to allocate nothing large.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;
use scalo_core::catalog::{MOVEMENT_MIX, SEIZURE_RELIABLE, SEIZURE_WATCH};
use scalo_core::fault::{Fault, FaultEvent};
use scalo_core::membership::{MembershipEvent, PeerState};
use scalo_core::node::Node;
use scalo_core::session::{QueryBinding, Session, SessionSpec};
use scalo_core::snapshot::{
    fnv1a, SessionSnapshot, SessionState, SnapshotError, MAX_DURATION_S, MAX_ELECTRODES,
    MAX_IO_STALL_US, MAX_TRACE_CAPACITY,
};
use scalo_core::state::{clock_windows, HashImage, LinkImage, NodeImage};
use scalo_core::stim::StimCommand;
use scalo_core::system::{FaultRecord, MediumStats, MembershipRecord, ScheduleDecision};
use scalo_ml::svm::LinearSvm;
use scalo_net::reliable::FlowStats;
use scalo_storage::partition::PartitionKind;

#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

fn arb_opt_query() -> impl Strategy<Value = Option<String>> {
    prop_oneof![Just(None), "[a-z0-9(). =]{0,32}".prop_map(Some),]
}

fn arb_spec() -> impl Strategy<Value = SessionSpec> {
    (
        (
            any::<u64>(),
            any::<u64>(),
            any::<u8>(),
            1usize..5,
            1usize..9,
            0.1f64..2.0,
        ),
        (
            0.0f64..1e-3,
            any::<bool>(),
            0usize..40,
            1u64..20_000,
            0u64..500,
            0usize..4096,
        ),
        arb_opt_query(),
    )
        .prop_map(
            |(
                (id, seed, priority, nodes, electrodes, duration_s),
                (
                    ber,
                    use_reliable_transport,
                    movement_every,
                    step_deadline_us,
                    io_stall_us,
                    trace_capacity,
                ),
                query,
            )| SessionSpec {
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
            },
        )
}

fn arb_binding() -> impl Strategy<Value = QueryBinding> {
    (0usize..40, any::<bool>(), arb_opt_query()).prop_map(
        |(movement_every, use_reliable_transport, query)| QueryBinding {
            movement_every,
            use_reliable_transport,
            query,
        },
    )
}

/// One detector per possible node (`arb_spec` draws 1..=4 nodes); the
/// snapshot keeps the first `nodes`.
fn arb_detectors() -> impl Strategy<Value = Vec<LinearSvm>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(-1e6f64..1e6, Node::DETECTION_FEATURES),
            -1e6f64..1e6,
        )
            .prop_map(|(weights, bias)| LinearSvm::new(weights, bias)),
        4,
    )
}

/// The session's collision horizon, µs.
const HORIZON_US: u64 = 100_000;

/// An arbitrary state that passes [`SessionState::validate`] for a
/// session of `nodes` implants × `electrodes` at cursor `window`: every
/// field drawn, every list from empty to a few entries.
fn arb_state(rng: &mut TestRng, nodes: usize, electrodes: usize, window: u64) -> SessionState {
    let node_id = |rng: &mut TestRng| rng.gen_range(0..nodes);
    let opt = |rng: &mut TestRng| rng.gen_bool(0.5);
    let clock_len = rng.gen_range(0..=window.min(clock_windows(HORIZON_US) as u64)) as usize;
    let mut t = rng.gen_range(0u64..1 << 40);
    let window_clock: Vec<u64> = (0..clock_len)
        .map(|_| {
            t += rng.gen_range(4_000u64..9_000);
            t
        })
        .collect();
    // A window advances the clock a period or more past its ingest.
    let time_us = t + rng.gen_range(4_000u64..12_000);
    let fault = |rng: &mut TestRng| match rng.gen_range(0..5) {
        0 => Fault::Crash { node: node_id(rng) },
        1 => Fault::Recover { node: node_id(rng) },
        2 => Fault::BerSpike {
            ber: rng.gen_range(0.0..0.5),
            duration_us: rng.gen(),
        },
        3 => Fault::ClockDrift {
            node: node_id(rng),
            offset_us: rng.gen(),
        },
        _ => Fault::NvmBlockFail {
            node: node_id(rng),
            kind: PartitionKind::ALL[rng.gen_range(0..4usize)],
            bytes: rng.gen_range(0..1 << 20),
        },
    };
    let mut at = 0u64;
    let fault_plan = (0..rng.gen_range(0..4))
        .map(|_| {
            at += rng.gen_range(0u64..50_000);
            FaultEvent {
                at_us: at,
                fault: fault(rng),
            }
        })
        .collect();
    let fault_log = (0..rng.gen_range(0..4))
        .map(|_| FaultRecord {
            at_us: rng.gen(),
            fault: fault(rng),
        })
        .collect();
    let membership_log = (0..rng.gen_range(0..5))
        .map(|_| MembershipRecord {
            at_us: rng.gen(),
            observer: node_id(rng),
            event: match rng.gen_range(0..3) {
                0 => MembershipEvent::Suspected { peer: node_id(rng) },
                1 => MembershipEvent::Evicted { peer: node_id(rng) },
                _ => MembershipEvent::Rejoined { peer: node_id(rng) },
            },
        })
        .collect();
    let schedule_decisions = (0..rng.gen_range(0..3))
        .map(|_| {
            let first = node_id(rng);
            ScheduleDecision {
                at_us: rng.gen(),
                live: (first..nodes)
                    .filter(|&n| n == first || rng.gen_bool(0.5))
                    .collect(),
                weighted_mbps: opt(rng).then(|| rng.gen_range(0.0..100.0)),
            }
        })
        .collect();
    let mut links = Vec::new();
    for src in 0..nodes as u8 {
        for dst in 0..nodes as u8 {
            if src != dst && rng.gen_bool(0.3) {
                let mut delivered: Vec<(u16, u16)> = Vec::new();
                let mut seq = rng.gen::<u16>();
                for _ in 0..rng.gen_range(0..4) {
                    seq = seq.wrapping_add(rng.gen_range(2..100));
                    let len = rng.gen_range(1..60);
                    delivered.push((seq, len));
                    seq = seq.wrapping_add(len);
                }
                links.push(LinkImage {
                    src,
                    dst,
                    flow: 1,
                    next_seq: seq,
                    delivered,
                    stats: FlowStats {
                        data_packets: rng.gen_range(0..1 << 20),
                        delivered: rng.gen_range(0..1 << 20),
                        transmissions: rng.gen_range(0..1 << 20),
                        retransmissions: rng.gen_range(0..1 << 20),
                        duplicates: rng.gen_range(0..1 << 20),
                        acks_sent: rng.gen_range(0..1 << 20),
                        acks_lost: rng.gen_range(0..1 << 20),
                        gave_up: rng.gen_range(0..1 << 20),
                    },
                });
            }
        }
    }
    let hash_width = rng.gen_range(1u8..4);
    let nodes_img = (0..nodes)
        .map(|id| {
            let n_hashes = rng.gen_range(0..=electrodes * clock_len).min(40);
            let mut slots: Vec<u16> = (0..n_hashes)
                .map(|_| rng.gen_range(0..clock_len.max(1)) as u16)
                .collect();
            slots.sort_unstable();
            NodeImage {
                alive: rng.gen_bool(0.8),
                confirmed_ms: opt(rng).then(|| rng.gen_range(0.0..400.0)),
                clock_offset_us: rng.gen(),
                view: (0..nodes)
                    .map(|p| {
                        let state = if p == id {
                            PeerState::Alive
                        } else {
                            [PeerState::Alive, PeerState::Suspect, PeerState::Evicted]
                                [rng.gen_range(0..3usize)]
                        };
                        (rng.gen(), state)
                    })
                    .collect(),
                partitions: [0; 4].map(|_| {
                    let capacity = rng.gen_range(1u64 << 12..1 << 30);
                    (capacity, rng.gen_range(0..capacity - 240))
                }),
                hashes: slots
                    .into_iter()
                    .map(|slot| HashImage {
                        slot,
                        electrode: rng.gen_range(0..electrodes) as u16,
                    })
                    .collect(),
                hash_bytes: (0..n_hashes * usize::from(hash_width))
                    .map(|_| rng.gen())
                    .collect(),
                stim_log: (0..rng.gen_range(0..3))
                    .map(|_| {
                        (
                            rng.gen(),
                            StimCommand {
                                electrode: rng.gen_range(0..electrodes),
                                amplitude_ua: rng.gen_range(1.0..1_000.0),
                                duration_ms: rng.gen_range(1.0..5_000.0),
                                frequency_hz: rng.gen_range(1.0..500.0),
                            },
                        )
                    })
                    .collect(),
                stim_energy_uj: rng.gen_range(0.0..1e6),
            }
        })
        .collect();
    let detected = window > 0 && opt(rng);
    SessionState {
        origin_detect: detected.then(|| (rng.gen_range(0..window), node_id(rng) as u64)),
        first_detect_window: detected.then(|| rng.gen_range(0..window)),
        failovers: rng.gen(),
        hash_drops: rng.gen(),
        window_clock,
        time_us,
        last_heartbeat_us: rng.gen(),
        ber_spike_until_us: opt(rng).then(|| rng.gen()),
        channel_ber: rng.gen_range(0.0..1e-3),
        channel_word_pos: rng.gen(),
        stats: MediumStats {
            transmissions: rng.gen_range(0..1 << 30),
            corrupted: rng.gen_range(0..1 << 30),
            dropped: rng.gen_range(0..1 << 30),
            retransmissions: rng.gen_range(0..1 << 30),
            duplicates: rng.gen_range(0..1 << 30),
            acks_lost: rng.gen_range(0..1 << 30),
            heartbeats: rng.gen_range(0..1 << 30),
        },
        links,
        fault_plan,
        fault_log,
        membership_log,
        schedule_decisions,
        hash_width,
        nodes: nodes_img,
    }
}

/// Arbitrary well-formed snapshots: spec, timeline, accounting, state
/// and detectors all drawn, shaped as [`SessionSnapshot::validate`]
/// requires (cursor within the recording, timeline ordered and at most
/// the cursor, one detector per node).
struct ArbSnapshot;

impl Strategy for ArbSnapshot {
    type Value = SessionSnapshot;

    fn sample(&self, rng: &mut TestRng) -> SessionSnapshot {
        let spec = arb_spec().sample(rng);
        let windows_total = (spec.duration_s * scalo_data::SAMPLE_RATE_HZ) as u64 / 120;
        let window = rng.gen_range(0..=windows_total);
        let mut at: Vec<u64> = (0..rng.gen_range(0..4))
            .map(|_| rng.gen_range(0..=window))
            .collect();
        at.sort_unstable();
        let reconfigures = at
            .into_iter()
            .map(|w| (w, arb_binding().sample(rng)))
            .collect();
        let mut detectors = arb_detectors().sample(rng);
        detectors.truncate(spec.nodes);
        let state = arb_state(rng, spec.nodes, spec.electrodes, window);
        SessionSnapshot {
            window,
            steps: rng.gen(),
            deadline_misses: rng.gen(),
            wall_us: rng.gen(),
            rng_word_pos: rng.gen(),
            movement_results: (0..rng.gen_range(0..20))
                .map(|_| (rng.gen(), rng.gen_range(-1e12..1e12)))
                .collect(),
            state,
            step_digest: rng.gen(),
            decisions_fnv: rng.gen(),
            initial_binding: arb_binding().sample(rng),
            reconfigures,
            detectors,
            spec,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_identity(snap in ArbSnapshot) {
        let bytes = snap.encode();
        prop_assert_eq!(SessionSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn every_strict_prefix_is_rejected(snap in ArbSnapshot, frac in 0.0f64..1.0) {
        let bytes = snap.encode();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            SessionSnapshot::decode(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} decoded", bytes.len()
        );
    }

    #[test]
    fn any_single_bit_flip_is_rejected(snap in ArbSnapshot, pos in any::<u64>(), bit in 0u8..8) {
        let mut bytes = snap.encode();
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        let decoded = SessionSnapshot::decode(&bytes);
        prop_assert!(decoded.is_err(), "flip at byte {i} bit {bit} decoded");
    }
}

/// The load-bearing equivalence: a session restored from an encoded
/// snapshot and run to completion makes byte-identical decisions to the
/// session that never stopped.
#[test]
fn restore_resumes_byte_identical() {
    let spec = SessionSpec::new(5, 0xc0ffee)
        .with_duration_s(0.4)
        .with_movement_every(20);
    let mut original = Session::new(spec.clone());
    for _ in 0..37 {
        original.step();
    }
    let image = original.snapshot().encode();

    let snap = SessionSnapshot::decode(&image).unwrap();
    let mut restored = Session::restore(&snap).unwrap();
    assert_eq!(restored.step_digest(), original.step_digest());

    while !original.step().done {}
    while !restored.step().done {}
    assert_eq!(restored.decision_digest(), original.decision_digest());
    let (a, b) = (original.report(), restored.report());
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.run, b.run);
}

/// A tampered digest cursor must fail restore loudly, on the state
/// restore and on the recovery path's verifier alike.
#[test]
fn restore_rejects_forged_digest_cursor() {
    let mut session = Session::new(SessionSpec::new(6, 0xf00).with_duration_s(0.3));
    for _ in 0..10 {
        session.step();
    }
    let mut snap = session.snapshot();
    snap.step_digest ^= 1;
    assert!(matches!(
        Session::restore(&snap),
        Err(SnapshotError::DigestMismatch { session: 6, .. })
    ));
    assert!(matches!(
        Session::restore_verified(&snap),
        Err(SnapshotError::DigestMismatch { session: 6, .. })
    ));
}

/// The verifier installs the image's detectors rather than retraining:
/// a snapshot past seizure onset whose origin detector is negated (and
/// the image re-sealed) replays to a different digest. A verifier that
/// retrained would reproduce the logged run and accept the image.
#[test]
fn restore_installs_the_detectors_the_image_carries() {
    let mut session = Session::new(SessionSpec::new(8, 0xd37).with_duration_s(0.4));
    for _ in 0..90 {
        session.step();
    }
    assert!(
        session
            .decision_digest()
            .contains("origin_detect_window: Some("),
        "the snapshot must follow a detection: {}",
        session.decision_digest()
    );
    let mut snap = session.snapshot();
    let origin = &snap.detectors[0];
    let negated: Vec<f64> = origin.weights().iter().map(|w| -w).collect();
    snap.detectors[0] = LinearSvm::new(negated, -origin.bias());
    // Encoding the edited snapshot re-seals the checksum.
    let forged = SessionSnapshot::decode(&snap.encode()).expect("a re-sealed image decodes");
    assert!(
        matches!(
            Session::restore_verified(&forged),
            Err(SnapshotError::DigestMismatch { session: 8, .. })
        ),
        "a restore that ignores the image's detectors accepted a forged one"
    );
    // The untouched image restores.
    assert!(Session::restore_verified(&session.snapshot()).is_ok());
}

/// Forged detector counts and lengths are refused before anything is
/// allocated for them.
#[test]
fn forged_detector_fields_allocate_nothing_large() {
    let mut session = Session::new(SessionSpec::new(9, 0xa110c).with_duration_s(0.2));
    for _ in 0..5 {
        session.step();
    }
    let snap = session.snapshot();
    let clean = snap.encode();
    // The detector count precedes the detectors (8 + 8 per weight + 8
    // bias bytes each), the two digests and the checksum.
    let per_detector = 8 * (Node::DETECTION_FEATURES + 2);
    let count_at = clean.len() - 8 - 16 - per_detector * snap.detectors.len() - 8;
    for (at, value, what) in [
        (count_at, 1u64 << 40, "detector count"),
        (count_at + 8, 1u64 << 40, "detector length"),
    ] {
        let mut bytes = clean.clone();
        bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
        let body = bytes.len() - 8;
        let checksum = fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        let (decoded, heap) = scalo_alloc::measure(|| SessionSnapshot::decode(&bytes));
        assert_eq!(decoded, Err(SnapshotError::Invalid(what)));
        assert!(heap.bytes < 4096, "{what} forged to {value}: {heap:?}");
    }
}

/// A checksummed image whose spec forges a field restore sizes an
/// allocation or a wait by — electrodes, duration, the recording they
/// make up, the trace ring, the radio wait — is refused by decode and by
/// restore before anything is allocated.
#[test]
fn forged_spec_bounds_fail_closed_before_allocating() {
    let mut session = Session::new(SessionSpec::new(10, 0xb0d).with_duration_s(0.2));
    for _ in 0..5 {
        session.step();
    }
    let clean = session.snapshot();
    type Forge = fn(&mut SessionSpec);
    let cases: [(&str, Forge); 8] = [
        ("electrode count", |s| s.electrodes = MAX_ELECTRODES + 1),
        ("electrode count", |s| s.electrodes = usize::MAX),
        ("duration", |s| s.duration_s = 2.0 * MAX_DURATION_S),
        ("recording size", |s| {
            s.nodes = 16;
            s.electrodes = MAX_ELECTRODES;
            s.duration_s = MAX_DURATION_S;
        }),
        ("trace capacity", |s| {
            s.trace_capacity = MAX_TRACE_CAPACITY + 1
        }),
        ("trace capacity", |s| s.trace_capacity = usize::MAX),
        ("radio wait", |s| s.io_stall_us = MAX_IO_STALL_US + 1),
        ("radio wait", |s| s.io_stall_us = u64::MAX),
    ];
    for (what, forge) in cases {
        let mut snap = clean.clone();
        forge(&mut snap.spec);
        // Encoding the edited snapshot re-seals the checksum.
        let bytes = snap.encode();
        let (decoded, heap) = scalo_alloc::measure(|| SessionSnapshot::decode(&bytes));
        assert_eq!(decoded, Err(SnapshotError::Invalid(what)));
        assert_eq!(
            heap.allocs, 0,
            "decode of a forged {what} allocated: {heap:?}"
        );
        let (restored, heap) = scalo_alloc::measure(|| Session::restore(&snap).map(|_| ()));
        assert_eq!(restored, Err(SnapshotError::Invalid(what)));
        assert_eq!(
            heap.allocs, 0,
            "restore of a forged {what} allocated: {heap:?}"
        );
    }
    // The bounds admit the image as it was served.
    assert!(SessionSnapshot::decode(&clean.encode()).is_ok());
}

/// The verifier re-executes and compares the whole state: an image
/// whose state was edited where no digest looks (a carried hash byte, a
/// link's sequence counter) restores by state, but fails verification.
#[test]
fn verifier_rejects_a_state_the_replay_does_not_reach() {
    let mut session = reliable_noisy(31);
    for _ in 0..100 {
        session.step();
    }
    let clean = session.snapshot();
    assert!(Session::restore_verified(&clean).is_ok());
    assert!(
        !clean.state.links.is_empty(),
        "the exchange ran on the reliable link"
    );
    let mut edits: Vec<SessionSnapshot> = Vec::new();
    let mut snap = clean.clone();
    snap.state.nodes[1].hash_bytes[0] ^= 1;
    edits.push(snap);
    let mut snap = clean.clone();
    snap.state.links[0].next_seq ^= 1;
    edits.push(snap);
    let mut snap = clean.clone();
    snap.state.channel_word_pos += 2;
    edits.push(snap);
    for forged in edits {
        let forged = SessionSnapshot::decode(&forged.encode()).expect("re-sealed");
        assert!(
            Session::restore(&forged).is_ok(),
            "no digest covers the edit"
        );
        assert!(matches!(
            Session::restore_verified(&forged),
            Err(SnapshotError::DigestMismatch { session: 31, .. })
        ));
    }
}

/// A 2×4 reliable session on a noisy channel: its images carry links,
/// delivered windows and a full collision horizon.
fn reliable_noisy(id: u64) -> Session {
    Session::new(
        SessionSpec::new(id, 0x5eed ^ id)
            .with_ber(1e-4)
            .with_query(SEIZURE_RELIABLE)
            .unwrap(),
    )
}

/// Encoded bytes of one detector: weight count, weights, bias.
const DETECTOR_BYTES: usize = 8 * (Node::DETECTION_FEATURES + 2);

/// Where `snap`'s encoded state starts in its image: it is followed by
/// the detector count and detectors, the two digests and the checksum.
fn state_start(snap: &SessionSnapshot, image: &[u8]) -> usize {
    let mut state = Vec::new();
    snap.state.encode_into(&mut state);
    image.len() - 8 - 16 - DETECTOR_BYTES * snap.detectors.len() - 8 - state.len()
}

/// Every count and length field of `snap`'s encoded state, as `(image
/// offset, width in bytes, name)`, found by walking the fixed per-field
/// layout. The walk must land exactly on the end of the state: that is
/// the layout being fixed.
fn state_count_fields(snap: &SessionSnapshot, image: &[u8]) -> Vec<(usize, usize, String)> {
    let st = &snap.state;
    let start = state_start(snap, image);
    let mut fields = Vec::new();
    let mut at = start + 17 + 9 + 8 + 8;
    fields.push((at, 2, "window clock".to_string()));
    at += 2 + 8 * st.window_clock.len() + 8 + 8 + 9 + 8 + 8 + 7 * 8;
    fields.push((at, 4, "links".to_string()));
    at += 4;
    for (i, l) in st.links.iter().enumerate() {
        fields.push((at + 5, 2, format!("link {i} runs")));
        at += 3 + 2 + 2 + 64 + 4 * l.delivered.len();
    }
    for (name, n, bytes) in [
        ("fault plan", st.fault_plan.len(), 33),
        ("fault log", st.fault_log.len(), 33),
        ("membership log", st.membership_log.len(), 11),
        ("schedule decisions", st.schedule_decisions.len(), 19),
    ] {
        fields.push((at, 4, name.to_string()));
        at += 4 + n * bytes;
    }
    fields.push((at, 1, "hash width".to_string()));
    at += 1;
    let nodes = st.nodes.len();
    for (i, n) in st.nodes.iter().enumerate() {
        at += 1 + 9 + 8 + 9 * nodes + 64;
        fields.push((at, 2, format!("node {i} hashes")));
        at += 2 + n.hashes.len() * (4 + usize::from(st.hash_width));
        fields.push((at, 2, format!("node {i} stimulation log")));
        at += 2 + n.stim_log.len() * 34 + 8;
    }
    let mut state = Vec::new();
    st.encode_into(&mut state);
    assert_eq!(
        at,
        start + state.len(),
        "the layout walk must cover the state"
    );
    fields
}

/// Writes `value` (little-endian, `width` bytes) at `at` and reseals.
fn forge(image: &[u8], at: usize, width: usize, value: u64) -> Vec<u8> {
    let mut bytes = image.to_vec();
    bytes[at..at + width].copy_from_slice(&value.to_le_bytes()[..width]);
    reseal(&mut bytes);
    bytes
}

/// Recomputes the trailing checksum, as a forger would.
fn reseal(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let checksum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&checksum.to_le_bytes());
}

/// Forged state counts and lengths — each set to the largest value its
/// field holds, the checksum re-sealed — are refused before anything
/// large is allocated for them.
#[test]
fn forged_state_counts_fail_closed_before_allocating() {
    let mut session = reliable_noisy(32);
    for _ in 0..100 {
        session.step();
    }
    let snap = session.snapshot();
    let image = snap.encode();
    let fields = state_count_fields(&snap, &image);
    assert!(fields.iter().any(|(_, _, n)| n.starts_with("link 0")));
    for (at, width, name) in fields {
        for value in [u64::MAX >> (64 - 8 * width), 1 << (8 * width - 1)] {
            let bytes = forge(&image, at, width, value);
            let (decoded, heap) = scalo_alloc::measure(|| SessionSnapshot::decode(&bytes));
            assert!(decoded.is_err(), "{name} forged to {value} decoded");
            assert!(
                heap.bytes < 16 << 10,
                "{name} forged to {value} allocated {heap:?}"
            );
        }
    }
}

/// A small deterministic generator for the mutator (SplitMix64), so the
/// mutation schedule is std-only and fixed by its seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

/// Mutants per seed image.
const MUTANTS_PER_IMAGE: usize = 600;

/// A seeded mutator over v4 images of several session shapes and
/// cursors: bit flips, truncations and splices (checksum left stale),
/// and count/length edits and arbitrary byte edits (checksum re-sealed),
/// under a fixed budget. Every mutant but the arbitrary edits must
/// decode to an error or restore to `Invalid`/`DigestMismatch`; no
/// mutant may panic decode, restore or the steps after a restore.
#[test]
fn mutated_images_fail_closed_and_never_panic() {
    let short = |s: SessionSpec| s.with_duration_s(0.4);
    let specs = [
        short(
            SessionSpec::new(40, 0x40)
                .with_query(SEIZURE_WATCH)
                .unwrap(),
        ),
        short(
            SessionSpec::new(41, 0x41)
                .with_ber(1e-4)
                .with_query(SEIZURE_RELIABLE)
                .unwrap(),
        ),
        short(SessionSpec::new(42, 0x42).with_query(MOVEMENT_MIX).unwrap()),
    ];
    let mut images = Vec::new();
    for spec in &specs {
        let mut s = Session::new(spec.clone());
        for cursor in [0, 70, 99] {
            while s.window() < cursor {
                s.step();
            }
            let snap = s.snapshot();
            let image = snap.encode();
            let counts: Vec<(usize, usize)> = state_count_fields(&snap, &image)
                .into_iter()
                .map(|(at, width, _)| (at, width))
                .collect();
            images.push((image, counts));
        }
    }
    let mut rng = Mix(0x5c55_0004);
    let (mut rejected, mut restored) = (0usize, 0usize);
    for (i, (image, counts)) in images.iter().enumerate() {
        for _ in 0..MUTANTS_PER_IMAGE {
            let mut bytes = image.clone();
            let kind = rng.below(5);
            match kind {
                0 => {
                    for _ in 0..1 + rng.below(4) {
                        let at = rng.below(bytes.len());
                        bytes[at] ^= 1 << rng.below(8);
                    }
                }
                1 => bytes.truncate(rng.below(bytes.len())),
                2 => {
                    let (other, _) = &images[rng.below(images.len())];
                    let from = rng.below(other.len());
                    let len = 1 + rng.below(64.min(other.len() - from));
                    let at = rng.below(bytes.len());
                    let end = (at + len).min(bytes.len());
                    bytes.splice(at..end, other[from..from + len].iter().copied());
                }
                3 => {
                    let (at, width) = counts[rng.below(counts.len())];
                    let old = image[at..at + width]
                        .iter()
                        .rev()
                        .fold(0u64, |v, &b| v << 8 | u64::from(b));
                    let value = match rng.below(3) {
                        0 => old.wrapping_add(1 + rng.below(3) as u64),
                        1 => old.wrapping_sub(1 + rng.below(3) as u64),
                        _ => rng.next(),
                    };
                    bytes = forge(image, at, width, value);
                }
                _ => {
                    let at = rng.below(bytes.len() - 8);
                    bytes[at] = rng.next() as u8;
                    reseal(&mut bytes);
                }
            }
            if bytes == *image {
                continue;
            }
            let outcome = SessionSnapshot::decode(&bytes).and_then(|snap| Session::restore(&snap));
            // Decode fails with a codec error; restore can only fail
            // with `Invalid` or `DigestMismatch`.
            match outcome {
                Err(_) => rejected += 1,
                Ok(mut session) => {
                    assert_eq!(kind, 4, "image {i}: a kind-{kind} mutant restored");
                    restored += 1;
                    while !session.step().done {}
                }
            }
        }
    }
    assert!(
        rejected > images.len() * MUTANTS_PER_IMAGE / 2,
        "{rejected} rejected"
    );
    assert!(
        restored < images.len() * MUTANTS_PER_IMAGE / 5,
        "{restored} restored"
    );
}
