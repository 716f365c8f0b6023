//! Restore equivalence: a session resumed from its state image at any
//! cursor makes byte-identical decisions to the session that never
//! stopped, and restore steps no window and synthesizes only the serving
//! windows from the cursor on.
//!
//! The binary counts heap traffic ([`scalo_alloc::CountingAllocator`]).

use scalo_core::catalog::{MOVEMENT_MIX, SEIZURE_RELIABLE, SEIZURE_WATCH};
use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::SessionSnapshot;

#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

/// Runs `spec` uninterrupted, hot-switching to `switch` at its window,
/// and returns its final decision digest, final image, and the window
/// of its first detection.
fn uninterrupted(
    spec: &SessionSpec,
    switch: Option<(u64, &SessionSpec)>,
) -> (String, Vec<u8>, u64) {
    let mut s = Session::new(spec.clone());
    let mut detect = None;
    while !s.is_done() {
        if let Some((at, to)) = switch {
            if s.window() == at {
                s.reconfigure(to.clone(), None).unwrap();
            }
        }
        s.step();
        if detect.is_none() && s.report().run.origin_detect_window.is_some() {
            detect = Some(s.window());
        }
    }
    (
        s.decision_digest(),
        s.snapshot().encode(),
        detect.expect("the session detects its seizure"),
    )
}

/// Serves `spec` to `cursor`, snapshots, restores from the encoded
/// image and serves the rest; returns the final digest and image.
fn resumed(
    spec: &SessionSpec,
    switch: Option<(u64, &SessionSpec)>,
    cursor: u64,
) -> (String, Vec<u8>) {
    let mut s = Session::new(spec.clone());
    let step_to = |s: &mut Session, to: u64| {
        while s.window() < to && !s.is_done() {
            if let Some((at, next)) = switch {
                if s.window() == at {
                    s.reconfigure(next.clone(), None).unwrap();
                }
            }
            s.step();
        }
    };
    step_to(&mut s, cursor);
    let image = s.snapshot().encode();
    let snap = SessionSnapshot::decode(&image).unwrap();
    let mut r = Session::restore(&snap).unwrap();
    assert_eq!(r.step_digest(), s.step_digest(), "cursor {cursor}");
    assert_eq!(
        r.snapshot().encode(),
        image,
        "cursor {cursor}: a restored session re-images to its image"
    );
    step_to(&mut r, u64::MAX);
    (r.decision_digest(), r.snapshot().encode())
}

/// `image` decoded with its wall-clock accounting zeroed: what two runs
/// of one session must agree on.
fn decisions_of(image: &[u8]) -> SessionSnapshot {
    let mut snap = SessionSnapshot::decode(image).unwrap();
    snap.wall_us = 0;
    snap.deadline_misses = 0;
    snap
}

fn check(name: &str, spec: SessionSpec, switch: Option<(u64, SessionSpec)>) {
    let switch = switch.as_ref().map(|(at, s)| (*at, s));
    let (digest, image, detect) = uninterrupted(&spec, switch);
    let end = Session::new(spec.clone()).windows_total() as u64;
    for cursor in [0, detect, detect + 1, detect + 3, end / 2, end - 1] {
        let (d, i) = resumed(&spec, switch, cursor);
        assert_eq!(d, digest, "{name}: restored at {cursor} of {end}");
        assert_eq!(
            decisions_of(&i),
            decisions_of(&image),
            "{name}: final image after a restore at {cursor}"
        );
    }
}

#[test]
fn solo_session_resumes_byte_identical() {
    check(
        "solo",
        SessionSpec::new(1, 0x51).with_query(SEIZURE_WATCH).unwrap(),
        None,
    );
}

#[test]
fn reliable_noisy_session_resumes_byte_identical() {
    check(
        "reliable-noisy",
        SessionSpec::new(2, 0x52)
            .with_ber(1e-4)
            .with_query(SEIZURE_RELIABLE)
            .unwrap(),
        None,
    );
}

#[test]
fn movement_session_resumes_byte_identical() {
    check(
        "movement",
        SessionSpec::new(3, 0x53).with_query(MOVEMENT_MIX).unwrap(),
        None,
    );
}

#[test]
fn hot_reconfigured_session_resumes_byte_identical() {
    let spec = |q| {
        SessionSpec::new(4, 0x54)
            .with_ber(1e-4)
            .with_query(q)
            .unwrap()
    };
    check(
        "hot-reconfigured",
        spec(SEIZURE_WATCH),
        Some((40, spec(SEIZURE_RELIABLE))),
    );
}

/// The fault-in acceptance shape: a 2×4, 1.2 s session restored at half
/// allocates at most 55% of what a cold build's serving recording
/// takes, and no window is stepped during the restore (its span ring
/// stays empty on a traced session).
#[test]
fn restore_at_half_synthesizes_only_the_rest() {
    let spec = SessionSpec::new(5, 0x55)
        .with_deployment(2, 4)
        .with_duration_s(1.2)
        .with_trace_capacity(256);
    let mut s = Session::new(spec);
    let total = s.windows_total() as u64;
    while s.window() < total / 2 {
        s.step();
    }
    let recording_bytes = (spec_samples(&s) * std::mem::size_of::<f64>()) as u64;
    let snap = s.snapshot();
    let (restored, heap) = scalo_alloc::measure(|| Session::restore(&snap));
    let restored = restored.unwrap();
    assert!(
        heap.bytes * 100 <= recording_bytes * 55,
        "restore at half allocated {heap:?}, a cold build's serving recording is {recording_bytes} B"
    );
    assert_eq!(restored.window(), total / 2);
    assert!(
        restored.trace().events().is_empty(),
        "restore stepped a window"
    );
    assert_eq!(restored.step_digest(), s.step_digest());
}

/// Samples in a session's whole serving recording, every channel.
fn spec_samples(s: &Session) -> usize {
    let spec = s.spec();
    spec.nodes * spec.electrodes * (spec.duration_s * scalo_data::SAMPLE_RATE_HZ) as usize
}
