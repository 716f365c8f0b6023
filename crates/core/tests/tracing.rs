//! Tracing must observe, never steer: a session serves bit-identical
//! decisions whether its recorder is disabled (the default), enabled,
//! or overflowing, and the spans an enabled recorder captures obey the
//! balance and attribution invariants `scalo-trace` promises.

use scalo_core::catalog;
use scalo_core::cohort::Cohort;
use scalo_core::session::{Session, SessionSpec};
use scalo_fleet::{Fleet, FleetConfig};
use scalo_trace::{attribute, deadline_miss_report, SpanEvent, Stage, WindowBreakdown};
use std::time::{Duration, Instant};

fn spec(trace_capacity: usize) -> SessionSpec {
    SessionSpec::new(1, 0xbeef)
        .with_duration_s(0.4)
        .with_movement_every(20)
        .with_trace_capacity(trace_capacity)
}

fn run(spec: SessionSpec) -> Session {
    let mut s = Session::new(spec);
    while !s.step().done {}
    s
}

/// The disabled recorder is a bitwise no-op on decisions: enabling
/// tracing (even with a ring so small it thrashes) changes nothing in
/// the decision digest.
#[test]
fn recorder_state_never_changes_decisions() {
    let untraced = run(spec(0)).decision_digest();
    let traced = run(spec(64 * 1024)).decision_digest();
    let thrashing = run(spec(8)).decision_digest();
    assert_eq!(untraced, traced, "tracing steered a decision");
    assert_eq!(untraced, thrashing, "ring overflow steered a decision");
}

/// A disabled recorder records nothing at all.
#[test]
fn untraced_session_has_no_spans() {
    let mut s = run(spec(0));
    assert!(!s.trace().is_enabled());
    assert!(s.take_trace_events().is_empty());
}

/// Every begin has an end across a full served session: the recorder
/// finishes balanced, and per-window attribution of the real span
/// stream accounts every nanosecond of every window's wall time — for a
/// solo session, for one stepped after radio waits its caller served,
/// and for each member of a cohort, whose windows carry their charged
/// share of the fused pre-pass.
#[test]
fn served_session_spans_are_balanced_and_attributable() {
    assert_balanced_and_attributable(&mut run(spec(256 * 1024)));

    // A modeled radio wait served by the caller and handed to the
    // engine, as a fleet does when a parked wait has passed.
    const STALL_US: u64 = 200;
    let mut waited = Session::new(spec(256 * 1024).with_io_stall_us(STALL_US));
    loop {
        let t0 = Instant::now();
        std::thread::sleep(Duration::from_micros(STALL_US));
        let out = waited.step_after(t0.elapsed().as_nanos() as u64);
        if out.done {
            break;
        }
        // The wait is part of the step.
        assert!(out.wall_us >= STALL_US, "{out:?}");
    }
    let breakdowns = assert_balanced_and_attributable(&mut waited);
    assert_radio_wait_charged(waited.id(), &breakdowns, STALL_US);

    // Three shape twins stepped as one cohort.
    let mut members: Vec<Session> = (0..3)
        .map(|i| {
            let mut s = spec(256 * 1024);
            s.id = 10 + i;
            s.seed = 0xbeef + 7 * i;
            Session::new(s)
        })
        .collect();
    let mut cohort = Cohort::new();
    let mut out = Vec::new();
    loop {
        cohort.step_window(&mut members, &mut out);
        if out.iter().all(|o| o.done) {
            break;
        }
    }
    for s in members.iter_mut() {
        assert_balanced_and_attributable(s);
    }
}

/// The fleet parks a window's radio wait off its worker instead of
/// sleeping on it. The parked path must charge exactly as the blocking
/// one: every window's envelope opens with the whole wait as
/// `radio_wait`, stage totals still equal wall time, and the envelopes
/// fit in the wall time the session reports (each envelope is measured
/// inside its window's wall time, so they add up to at most it). The
/// delay between the
/// wait's deadline and the resume is queueing, outside the envelope:
/// exactly one `queue` span per parked window, so no wait is also
/// booked as a run-queue gap.
///
/// Session 20 hot-reconfigures at window 40. The cutover happens in
/// place, so its trace still attributes every window from 0, and it
/// carries exactly one `reconfigure` span.
#[test]
fn parked_radio_wait_is_charged_like_a_served_one() {
    const STALL_US: u64 = 300;
    for workers in [1, 2] {
        let mut fleet = Fleet::new(FleetConfig::new(workers));
        for id in 0..3 {
            let mut s = spec(256 * 1024).with_io_stall_us(STALL_US);
            s.id = 20 + id;
            s.seed = 0xbeef + 5 * id;
            fleet.submit(s).expect("fits the default budget");
        }
        fleet.schedule_reconfigure(20, 40, catalog::MOVEMENT_MIX, None);
        let report = fleet.run();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.reconfigures.len(), 1);
        assert!(report.reconfigures[0].ok, "{:?}", report.reconfigures[0]);
        for served in &report.sessions {
            let breakdowns = assert_attributable(&served.trace);
            let cutovers = served
                .trace
                .iter()
                .filter(|e| e.stage == Stage::Reconfigure)
                .count();
            assert_eq!(
                cutovers,
                usize::from(served.id == 20),
                "session {}: reconfigure spans",
                served.id
            );
            assert_radio_wait_charged(served.id, &breakdowns, STALL_US);
            let envelopes_us: u64 = breakdowns.iter().map(|b| b.wall_ns / 1_000).sum();
            assert!(
                envelopes_us <= served.wall_us,
                "session {} ({workers} workers): envelopes {envelopes_us} µs vs wall {} µs",
                served.id,
                served.wall_us
            );
            let queue_spans = served
                .trace
                .iter()
                .filter(|e| e.stage == Stage::Queue)
                .count();
            assert_eq!(
                queue_spans,
                breakdowns.len(),
                "session {}: queue spans vs parked windows",
                served.id
            );
        }
    }
}

fn assert_radio_wait_charged(id: u64, breakdowns: &[WindowBreakdown], stall_us: u64) {
    for b in breakdowns {
        assert!(
            b.stage_ns(Stage::RadioWait) >= stall_us * 1_000,
            "session {id} window {}: radio wait {} ns",
            b.window,
            b.stage_ns(Stage::RadioWait)
        );
    }
}

fn assert_balanced_and_attributable(s: &mut Session) -> Vec<WindowBreakdown> {
    let rec = s.trace();
    assert_eq!(rec.unbalanced(), 0, "begin/end mismatch on the hot path");
    assert_eq!(rec.open_depth(), 0, "a span was left open");
    assert_eq!(rec.dropped(), 0, "capacity was sized to hold the run");
    assert_attributable(&s.take_trace_events())
}

fn assert_attributable(events: &[SpanEvent]) -> Vec<WindowBreakdown> {
    assert!(!events.is_empty());
    let breakdowns = attribute(events);
    assert_eq!(breakdowns.len(), 100, "0.4 s = 100 windows, all enveloped");
    for b in &breakdowns {
        assert_eq!(
            b.total_ns(),
            b.wall_ns,
            "window {}: stage totals must equal wall time",
            b.window
        );
    }
    // The pipeline's compute stages all show up somewhere in the run —
    // the pre-pass's gather, hash, and feature stages included.
    for stage in [
        Stage::Gather,
        Stage::Filter,
        Stage::Detect,
        Stage::Sketch,
        Stage::StorageWrite,
    ] {
        assert!(
            breakdowns.iter().any(|b| b.stage_ns(stage) > 0),
            "{stage} never observed"
        );
    }
    // The movement mix ran every 20 windows and was traced.
    assert!(breakdowns.iter().any(|b| b.stage_ns(Stage::Svm) > 0));
    assert!(breakdowns.iter().any(|b| b.stage_ns(Stage::Kalman) > 0));
    assert!(breakdowns.iter().any(|b| b.stage_ns(Stage::Nn) > 0));

    // An impossible budget makes every window a miss, each naming a
    // dominant stage; a generous one makes none.
    let strict = deadline_miss_report(&breakdowns, 0);
    assert_eq!(strict.misses.len(), breakdowns.len());
    assert!(strict.misses.iter().all(|m| m.dominant_ns > 0));
    let lax = deadline_miss_report(&breakdowns, u64::MAX);
    assert!(lax.misses.is_empty());
    assert!(!lax.stage_skews.is_empty());
    breakdowns
}

/// `take_trace_events` drains: a second call returns nothing, and the
/// recorder stays enabled for further serving.
#[test]
fn take_trace_events_drains_but_keeps_recording() {
    let mut s = run(spec(4096));
    assert!(!s.take_trace_events().is_empty());
    assert!(s.take_trace_events().is_empty());
    assert!(s.trace().is_enabled());
}
