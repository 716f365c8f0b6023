//! Restore equivalence: a session resumed from its state image at any
//! cursor makes byte-identical decisions to the session that never
//! stopped, and restore steps no window and synthesizes only the serving
//! windows from the cursor on. A session that holds one burst of windows
//! at a time, as a swap fleet's does, decides the same too.
//!
//! The binary counts heap traffic ([`scalo_alloc::CountingAllocator`]).

use scalo_core::catalog::{MOVEMENT_MIX, SEIZURE_RELIABLE, SEIZURE_WATCH};
use scalo_core::cohort::Cohort;
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

/// Serves `spec` as a swap fleet does: built holding one burst, each
/// later burst held before it is stepped. Returns the final digest and
/// image.
fn in_bursts(spec: &SessionSpec, burst: u64) -> (String, Vec<u8>) {
    let mut s = Session::new_through(spec.clone(), burst);
    let end = s.windows_total();
    while !s.is_done() {
        let cursor = s.window();
        s.hold_through(cursor + burst);
        let through = (cursor + burst).min(end as u64) as usize;
        assert_eq!(s.held_windows(), cursor as usize..through, "burst {burst}");
        while s.window() < cursor + burst && !s.is_done() {
            s.step();
        }
    }
    (s.decision_digest(), s.snapshot().encode())
}

fn check_bursts(name: &str, spec: SessionSpec) {
    let (digest, image, _) = uninterrupted(&spec, None);
    for burst in [1, 6, 7, 13] {
        let (d, i) = in_bursts(&spec, burst);
        assert_eq!(d, digest, "{name}: bursts of {burst}");
        assert_eq!(
            decisions_of(&i),
            decisions_of(&image),
            "{name}: final image in bursts of {burst}"
        );
    }
}

#[test]
fn burst_held_sessions_match_the_uninterrupted_run() {
    check_bursts(
        "solo",
        SessionSpec::new(6, 0x56).with_query(SEIZURE_WATCH).unwrap(),
    );
    check_bursts(
        "reliable-noisy",
        SessionSpec::new(7, 0x57)
            .with_ber(1e-4)
            .with_query(SEIZURE_RELIABLE)
            .unwrap(),
    );
    check_bursts(
        "movement",
        SessionSpec::new(8, 0x58).with_query(MOVEMENT_MIX).unwrap(),
    );
}

/// A lockstep cohort whose members hold one burst at a time makes the
/// decisions its members make served alone and uninterrupted.
#[test]
fn burst_held_cohort_matches_solo_runs() {
    let specs: Vec<SessionSpec> = (0..3)
        .map(|i| {
            SessionSpec::new(10 + i, 0x5a + i)
                .with_query(SEIZURE_WATCH)
                .unwrap()
        })
        .collect();
    let solo: Vec<(String, Vec<u8>, u64)> = specs.iter().map(|s| uninterrupted(s, None)).collect();
    for burst in [1, 6, 7, 13] {
        let mut members: Vec<Session> = specs
            .iter()
            .map(|s| Session::new_through(s.clone(), burst))
            .collect();
        let (mut cohort, mut out) = (Cohort::new(), Vec::new());
        while !members[0].is_done() {
            let cursor = members[0].window();
            for m in members.iter_mut() {
                m.hold_through(cursor + burst);
            }
            while members[0].window() < cursor + burst && !members[0].is_done() {
                cohort.step_window(&mut members, &mut out);
            }
        }
        for (m, (digest, image, _)) in members.iter().zip(&solo) {
            assert_eq!(
                &m.decision_digest(),
                digest,
                "member {}, bursts of {burst}",
                m.id()
            );
            assert_eq!(
                decisions_of(&m.snapshot().encode()),
                decisions_of(image),
                "member {}, bursts of {burst}",
                m.id()
            );
        }
    }
}

#[test]
fn hold_through_clamps_past_the_end_and_is_a_no_op_when_done() {
    let spec = SessionSpec::new(13, 0x5d).with_duration_s(0.4);
    let mut s = Session::new_through(spec, 6);
    let end = s.windows_total();
    assert_eq!(s.held_windows(), 0..6);
    s.hold_through(u64::MAX);
    assert_eq!(s.held_windows(), 0..end, "clamped to the end");
    while s.window() < 20 {
        s.step();
    }
    s.hold_through(end as u64 + 40);
    assert_eq!(s.held_windows(), 20..end, "served windows dropped, clamped");
    while !s.step().done {}
    let (held, digest) = (s.held_windows(), s.step_digest());
    let ((), heap) = scalo_alloc::measure(|| s.hold_through(end as u64 + 6));
    assert_eq!(heap.allocs, 0, "a finished session synthesizes nothing");
    assert_eq!((s.held_windows(), s.step_digest()), (held, digest));
}

/// Stepping past the held range synthesizes the window on demand: a
/// session that holds nothing, built or restored, still serves every
/// window and decides as the uninterrupted run does.
#[test]
fn stepping_past_the_held_range_synthesizes_on_demand() {
    let spec = SessionSpec::new(14, 0x5e)
        .with_query(SEIZURE_WATCH)
        .unwrap();
    let (digest, image, _) = uninterrupted(&spec, None);
    let mut s = Session::new_through(spec, 0);
    assert!(s.held_windows().is_empty());
    while s.window() < 90 {
        let w = s.window() as usize;
        s.step();
        assert_eq!(s.held_windows(), w..w + 1, "one window at a time");
    }
    let mut r = Session::restore_through(&s.snapshot(), 0).unwrap();
    assert!(r.held_windows().is_empty());
    while !r.step().done {}
    assert_eq!(r.decision_digest(), digest);
    assert_eq!(decisions_of(&r.snapshot().encode()), decisions_of(&image));
}

/// The fault-in a swap fleet performs: a 2×4, 1.2 s session restored at
/// half holding one 6-window burst allocates under a tenth of its whole
/// serving recording.
#[test]
fn restore_holding_one_burst_allocates_a_tenth_of_the_recording() {
    let spec = SessionSpec::new(15, 0x5f)
        .with_deployment(2, 4)
        .with_duration_s(1.2);
    let mut s = Session::new(spec);
    let total = s.windows_total() as u64;
    while s.window() < total / 2 {
        s.step();
    }
    let recording_bytes = (spec_samples(&s) * std::mem::size_of::<f64>()) as u64;
    let snap = s.snapshot();
    let (restored, heap) = scalo_alloc::measure(|| Session::restore_through(&snap, total / 2 + 6));
    let restored = restored.unwrap();
    assert!(
        heap.bytes * 10 < recording_bytes,
        "a one-burst restore at half allocated {heap:?}, the serving recording is {recording_bytes} B"
    );
    let half = total as usize / 2;
    assert_eq!(restored.held_windows(), half..half + 6);
    assert_eq!(restored.step_digest(), s.step_digest());
}
