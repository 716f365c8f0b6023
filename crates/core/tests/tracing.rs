//! Tracing must observe, never steer: a session serves bit-identical
//! decisions whether its recorder is disabled (the default), enabled,
//! or overflowing, and the spans an enabled recorder captures obey the
//! balance and attribution invariants `scalo-trace` promises.

use scalo_core::cohort::Cohort;
use scalo_core::session::{Session, SessionSpec};
use scalo_trace::{attribute, deadline_miss_report, Stage, WindowBreakdown};

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
/// solo session and for each member of a cohort, whose windows carry
/// their charged share of the fused pre-pass.
#[test]
fn served_session_spans_are_balanced_and_attributable() {
    assert_balanced_and_attributable(&mut run(spec(256 * 1024)));

    // Three shape twins stepped as one cohort, with a modeled radio
    // wait the engine serves once for all of them.
    const STALL_US: u64 = 200;
    let mut members: Vec<Session> = (0..3)
        .map(|i| {
            let mut s = spec(256 * 1024).with_io_stall_us(STALL_US);
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
        // The shared wait is part of every member's step.
        assert!(out.iter().all(|o| o.wall_us >= STALL_US), "{out:?}");
    }
    for s in members.iter_mut() {
        let breakdowns = assert_balanced_and_attributable(s);
        // Every member waited the whole stall, inside its envelope.
        for b in &breakdowns {
            assert!(
                b.stage_ns(Stage::RadioWait) >= STALL_US * 1_000,
                "session {} window {}: radio wait {} ns",
                s.id(),
                b.window,
                b.stage_ns(Stage::RadioWait)
            );
        }
    }
}

fn assert_balanced_and_attributable(s: &mut Session) -> Vec<WindowBreakdown> {
    let rec = s.trace();
    assert_eq!(rec.unbalanced(), 0, "begin/end mismatch on the hot path");
    assert_eq!(rec.open_depth(), 0, "a span was left open");
    assert_eq!(rec.dropped(), 0, "capacity was sized to hold the run");

    let events = s.take_trace_events();
    assert!(!events.is_empty());
    let breakdowns = attribute(&events);
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
