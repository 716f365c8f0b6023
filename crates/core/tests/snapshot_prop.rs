//! Property-based coverage for the snapshot codec, plus the
//! snapshot → restore → resume equivalence the durability layer rests
//! on.
//!
//! The binary counts heap traffic ([`scalo_alloc::CountingAllocator`])
//! so a forged length can be shown to allocate nothing large.

use proptest::prelude::*;
use scalo_core::node::Node;
use scalo_core::session::{QueryBinding, Session, SessionSpec};
use scalo_core::snapshot::{
    fnv1a, SessionSnapshot, SnapshotError, MAX_DURATION_S, MAX_ELECTRODES, MAX_IO_STALL_US,
    MAX_TRACE_CAPACITY,
};
use scalo_ml::svm::LinearSvm;

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

fn arb_snapshot() -> impl Strategy<Value = SessionSnapshot> {
    (
        arb_spec(),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()),
        (
            any::<u64>(),
            proptest::collection::vec((any::<u64>(), -1e12f64..1e12), 0..20),
            any::<u64>(),
            any::<u64>(),
        ),
        (
            arb_binding(),
            proptest::collection::vec((any::<u64>(), arb_binding()), 0..4),
            arb_detectors(),
        ),
    )
        .prop_map(
            |(
                spec,
                (window, steps, deadline_misses, wall_us),
                (rng_word_pos, movement_results, step_digest, decisions_fnv),
                (initial_binding, raw_reconfigures, mut detectors),
            )| {
                detectors.truncate(spec.nodes);
                // The codec requires transition windows non-decreasing
                // and at most the cursor; fold raw draws into that shape.
                let mut at: Vec<u64> = raw_reconfigures
                    .iter()
                    .map(|(w, _)| w.checked_rem(window.wrapping_add(1)).unwrap_or(*w))
                    .collect();
                at.sort_unstable();
                let reconfigures = at
                    .into_iter()
                    .zip(raw_reconfigures.into_iter().map(|(_, b)| b))
                    .collect();
                SessionSnapshot {
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
                    detectors,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn encode_decode_is_identity(snap in arb_snapshot()) {
        let bytes = snap.encode();
        prop_assert_eq!(SessionSnapshot::decode(&bytes), Ok(snap));
    }

    #[test]
    fn every_strict_prefix_is_rejected(snap in arb_snapshot(), frac in 0.0f64..1.0) {
        let bytes = snap.encode();
        let cut = ((bytes.len() - 1) as f64 * frac) as usize;
        prop_assert!(
            SessionSnapshot::decode(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of {} decoded", bytes.len()
        );
    }

    #[test]
    fn any_single_bit_flip_is_rejected(snap in arb_snapshot(), pos in any::<u64>(), bit in 0u8..8) {
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

/// A tampered digest cursor must fail restore loudly.
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
}

/// Restore installs the image's detectors rather than retraining: a
/// snapshot past seizure onset whose origin detector is negated (and the
/// image re-sealed) replays to a different digest. A restore that
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
            Session::restore(&forged),
            Err(SnapshotError::DigestMismatch { session: 8, .. })
        ),
        "a restore that ignores the image's detectors accepted a forged one"
    );
    // The untouched image restores.
    assert!(Session::restore(&session.snapshot()).is_ok());
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
