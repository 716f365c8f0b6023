//! Hot-path memory discipline: the per-window serving step must not
//! touch the heap in the steady state, and a dirty [`Workspace`] must
//! never leak one session's state into another's decisions.
//!
//! This binary installs [`scalo_alloc::CountingAllocator`] as its
//! global allocator, so `scalo_alloc::measure` observes every
//! allocation the window loop performs. The invariant under test is the
//! one `Node::prepare_steady_state` + `Workspace` exist to provide: on
//! a quiet recording (no seizure, hence no confirmation exchange),
//! window 0 warms the rings and scratch buffers — it is *expected* to
//! allocate — and every later window performs **zero** heap
//! allocations, mirroring the fixed SRAM budget of the SCALO ASIC.

use scalo_core::apps::seizure::{training_windows, SeizureApp, WINDOW};
use scalo_core::{ScaloConfig, Workspace};
use scalo_data::ieeg::{generate, IeegConfig, MultiSiteRecording, SeizureEvent};

#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

fn config(seed: u64, duration_s: f64, seizures: Vec<SeizureEvent>) -> IeegConfig {
    IeegConfig {
        nodes: 2,
        electrodes_per_node: 4,
        duration_s,
        seizures,
        seed,
        ..Default::default()
    }
}

fn recording(seed: u64, duration_s: f64, seizures: Vec<SeizureEvent>) -> MultiSiteRecording {
    generate(&config(seed, duration_s, seizures))
}

fn trained_app(seed: u64) -> SeizureApp {
    let cfg = ScaloConfig::default()
        .with_nodes(2)
        .with_electrodes(4)
        .with_seed(seed);
    let mut app = SeizureApp::new(cfg);
    // Train on a recording that does contain a seizure so the detector
    // is meaningful (mirrors the unit tests in `apps::seizure`).
    app.train_detectors(&training_windows(&config(
        seed ^ 1,
        0.9,
        vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)],
    )));
    app
}

/// The tentpole acceptance criterion: window 0 allocates (ring prefill,
/// scratch warmup), windows 1..K allocate nothing.
#[test]
fn steady_state_windows_perform_zero_allocations() {
    let quiet = recording(7, 0.4, vec![]);
    let mut app = trained_app(7);
    let mut st = app.begin(&quiet.config);
    let mut ws = Workspace::new();
    let windows_total = st.windows_total();
    assert!(windows_total >= 50, "need a long steady state");

    let (_, warmup) = scalo_alloc::measure(|| app.step_window(&quiet, &mut st, &mut ws));
    assert!(
        warmup.heap_ops() > 0,
        "window 0 warms rings and scratch, so it must allocate: {warmup:?}"
    );

    let mut dirty = Vec::new();
    for w in 1..windows_total {
        let (more, c) = scalo_alloc::measure(|| app.step_window(&quiet, &mut st, &mut ws));
        assert_eq!(more, w + 1 < windows_total);
        if c.heap_ops() != 0 {
            dirty.push((w, c));
        }
    }
    assert!(
        dirty.is_empty(),
        "steady-state windows must not allocate; violations (window, counts): {dirty:?}"
    );

    // The run stayed quiet, so the zero-allocation claim covered the
    // whole recording rather than an early bail-out.
    let run = SeizureApp::snapshot(&st);
    assert!(run.origin_detect_window.is_none(), "{run:?}");
}

/// The scalo-trace guard: an *enabled* recorder must ride the hot path
/// without weakening the zero-allocation guarantee. Its ring is
/// pre-allocated, so recording spans — including recycling slots once
/// the ring wraps — performs no heap operations in the steady state.
#[test]
fn traced_steady_state_windows_perform_zero_allocations() {
    let quiet = recording(13, 0.4, vec![]);
    let mut app = trained_app(13);
    let mut st = app.begin(&quiet.config);
    let mut ws = Workspace::new();
    // Small enough that the ring wraps mid-run: overflow recycling is
    // part of the claim.
    ws.trace = scalo_trace::Recorder::with_capacity(1024, 4);
    let windows_total = st.windows_total();

    let (_, warmup) = scalo_alloc::measure(|| app.step_window(&quiet, &mut st, &mut ws));
    assert!(warmup.heap_ops() > 0, "window 0 still warms: {warmup:?}");

    let mut dirty = Vec::new();
    for w in 1..windows_total {
        let (_, c) = scalo_alloc::measure(|| app.step_window(&quiet, &mut st, &mut ws));
        if c.heap_ops() != 0 {
            dirty.push((w, c));
        }
    }
    assert!(
        dirty.is_empty(),
        "traced steady-state windows must not allocate; violations: {dirty:?}"
    );
    assert!(ws.trace.dropped() > 0, "the ring wrapped as intended");
    assert_eq!(ws.trace.unbalanced(), 0, "instrumentation is balanced");
    assert_eq!(ws.trace.open_depth(), 0, "every begin was ended");
    assert_eq!(ws.trace.len(), 1024, "the ring is full");
}

/// Sessions that *do* seize now obey the same discipline as quiet ones:
/// the confirmation exchange runs through recycled workspace buffers
/// (compression scratch, broadcast wire/payload slots, reliable-link
/// frame scratch), so only the *first* exchange window allocates — it
/// grows those buffers and the per-receiver link state to size — and
/// every steady exchange window after it performs zero heap operations.
#[test]
fn seizure_session_allocations_stay_bounded() {
    let rec = recording(42, 0.9, vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)]);
    let mut app = trained_app(42);
    let mut st = app.begin(&rec.config);
    let mut ws = Workspace::new();
    let windows_total = st.windows_total();

    // Window 0 warms rings and scratch; it is allowed to allocate.
    app.step_window(&rec, &mut st, &mut ws);

    let mut total = 0u64;
    let mut worst = (0usize, 0u64);
    for w in 1..windows_total {
        let (_, c) = scalo_alloc::measure(|| app.step_window(&rec, &mut st, &mut ws));
        total += c.heap_ops();
        if c.heap_ops() > worst.1 {
            worst = (w, c.heap_ops());
        }
    }
    assert!(
        SeizureApp::snapshot(&st).origin_detect_window.is_some(),
        "the recording must actually trigger the exchange path"
    );

    // Measured with the recycled exchange scratch: 87 heap ops for the
    // whole session — 81 on the first exchange window (scratch and link
    // warmup), zero on every steady exchange window after it (down from
    // exactly 10 each before the broadcast/compress scratch landed). The
    // bounds below leave headroom for packet-shape drift while flagging
    // any regression back toward per-exchange-window allocation.
    let mean = total as f64 / (windows_total - 1) as f64;
    assert!(
        mean <= 2.0,
        "per-window heap ops regressed: mean {mean:.2} over {windows_total} windows"
    );
    assert!(
        worst.1 <= 120,
        "worst window {} performed {} heap ops",
        worst.0,
        worst.1
    );
}

/// A workspace that already served one session must produce
/// bit-identical decisions when reused for another: scratch contents
/// never feed forward, only capacity does.
#[test]
fn reused_workspace_does_not_leak_across_sessions() {
    let rec_a = recording(42, 0.9, vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)]);
    let rec_b = recording(99, 0.9, vec![SeizureEvent::uniform(0.3, 0.55, 1, 2, 0.0)]);

    // Session A dirties the workspace end-to-end (detections, hash
    // exchange, DTW confirmation all write into it).
    let mut ws = Workspace::new();
    let mut app_a = trained_app(42);
    let mut st_a = app_a.begin(&rec_a.config);
    while app_a.step_window(&rec_a, &mut st_a, &mut ws) {}
    assert!(
        SeizureApp::snapshot(&st_a).origin_detect_window.is_some(),
        "session A must actually exercise the exchange path"
    );

    // Session B on the dirty workspace vs. an identical twin on a
    // fresh one: decisions must match exactly.
    let mut app_dirty = trained_app(99);
    let mut st_dirty = app_dirty.begin(&rec_b.config);
    while app_dirty.step_window(&rec_b, &mut st_dirty, &mut ws) {}

    let mut fresh_ws = Workspace::new();
    let mut app_fresh = trained_app(99);
    let mut st_fresh = app_fresh.begin(&rec_b.config);
    while app_fresh.step_window(&rec_b, &mut st_fresh, &mut fresh_ws) {}

    assert_eq!(
        SeizureApp::snapshot(&st_dirty),
        SeizureApp::snapshot(&st_fresh),
        "a reused workspace changed session B's decisions"
    );
}

/// `run()` (fresh workspace per call) and the legacy allocating entry
/// points agree with the stepped workspace path on a seizure recording
/// — the bit-identity contract that lets the fleet keep its
/// pre-refactor decision fingerprints.
#[test]
fn stepped_workspace_run_matches_monolithic_run() {
    let rec = recording(11, 0.9, vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)]);
    assert_eq!(rec.nodes[0].num_samples() % WINDOW, 0);

    let mut stepped = trained_app(11);
    let mut st = stepped.begin(&rec.config);
    let mut ws = Workspace::new();
    while stepped.step_window(&rec, &mut st, &mut ws) {}

    let mut monolithic = trained_app(11);
    let run = monolithic.run(&rec);

    assert_eq!(SeizureApp::snapshot(&st), run);
}
