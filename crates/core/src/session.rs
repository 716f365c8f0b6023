//! One patient's serving session: a resumable unit of work.
//!
//! The fleet serving layer (`scalo-fleet`) multiplexes many patients
//! over a shared worker pool, so a patient's implant network must be
//! steppable rather than run-to-completion: [`Session`] wraps a
//! [`SeizureApp`] plus an optional movement-intent decode mix into a
//! non-blocking [`Session::step`] that advances exactly one 4 ms window
//! and returns. Every step is wall-clock timed against the session's
//! response-time deadline (the paper's 10 ms seizure target scaled to
//! the 4 ms window cadence), so the serving layer can account deadline
//! misses without ever letting timing feed back into decisions: all
//! protocol outcomes are functions of the seed alone, which is what
//! makes fleet execution reproducible on any worker count.

use crate::apps::movement;
use crate::apps::seizure::{
    training_windows, PropagationRun, RecordingView, RunState, SeizureApp, WINDOW, WINDOW_US,
};
use crate::cohort::{Charge, MemberLanes};
use crate::config::ScaloConfig;
use crate::plan::{PlanError, ProgramPlan};
use crate::snapshot::{fnv1a, Fnv64, SessionSnapshot, SnapshotError};
use crate::workspace::Workspace;
use scalo_data::ieeg::{
    generate, generate_range, num_samples, IeegConfig, MultiSiteRecording, SeizureEvent,
};
use scalo_trace::{Recorder, SpanEvent, Stage};
use std::time::{Duration, Instant};

/// Everything that defines one patient's session: identity, seed,
/// deployment preset, and application mix.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// Fleet-unique session id.
    pub id: u64,
    /// Seed for the recording, detectors, and channel; decisions are a
    /// function of this alone.
    pub seed: u64,
    /// Admission priority: higher survives longer under budget pressure.
    pub priority: u8,
    /// Implants in this patient's deployment.
    pub nodes: usize,
    /// Electrodes per implant.
    pub electrodes: usize,
    /// Recording length in seconds (250 windows per second).
    pub duration_s: f64,
    /// Channel bit-error ratio.
    pub ber: f64,
    /// Whether hash broadcasts use the reliable transport.
    pub use_reliable_transport: bool,
    /// Run a movement-intent decode round every this many windows
    /// (0 = seizure-propagation only).
    pub movement_every: usize,
    /// Per-step wall-clock deadline in µs.
    pub step_deadline_us: u64,
    /// Modeled per-window device wait in µs (0 = none): the time a real
    /// serving step spends blocked on the implant radio before the
    /// window's samples are available. The window engine never waits:
    /// [`Session::step`] serves it as a blocking sleep, and a fleet
    /// parks the session's job off its worker until the wait has passed
    /// (so a waiting session holds no thread). Either way the wait is
    /// charged to the window's wall time and `radio_wait` stage; it
    /// never touches decision state. Images carry at most
    /// [`crate::snapshot::MAX_IO_STALL_US`].
    pub io_stall_us: u64,
    /// Span-recorder ring capacity in events (0 = tracing disabled, the
    /// default). When nonzero the session's `Workspace` carries an
    /// enabled `scalo-trace` recorder, pre-allocated at admission so
    /// steady-state recording stays allocation-free.
    pub trace_capacity: usize,
    /// The canonical query source this spec was compiled from, if the
    /// session is query-backed ([`SessionSpec::with_query`]). Carried
    /// through snapshots and the WAL so recovery and swap fault-in
    /// restore query-backed sessions as such. Decisions never read it —
    /// the compiled binding already set the fields that matter — so a
    /// query-backed spec digests identically to the equivalent
    /// hand-built one.
    pub query: Option<String>,
}

impl SessionSpec {
    /// A small focal-epilepsy preset: 2 implants × 4 electrodes over a
    /// 0.9 s recording with one propagating seizure.
    pub fn new(id: u64, seed: u64) -> Self {
        Self {
            id,
            seed,
            priority: 1,
            nodes: 2,
            electrodes: 4,
            duration_s: 0.9,
            ber: 0.0,
            use_reliable_transport: false,
            movement_every: 0,
            step_deadline_us: WINDOW_US,
            io_stall_us: 0,
            trace_capacity: 0,
            query: None,
        }
    }

    /// Compiles `source` ([`ProgramPlan::compile`]) and binds the
    /// result: movement cadence and transport from the program, the
    /// canonical re-printed source stored as the spec's query.
    ///
    /// # Errors
    ///
    /// Any [`PlanError`] — the source must compile to a servable
    /// program.
    pub fn with_query(mut self, source: &str) -> Result<Self, PlanError> {
        let plan = ProgramPlan::compile(source)?;
        let binding = plan.binding();
        self.movement_every = binding.movement_every;
        self.use_reliable_transport = binding.use_reliable_transport;
        self.query = Some(plan.source().to_string());
        Ok(self)
    }

    /// Sets the admission priority.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the deployment size.
    pub fn with_deployment(mut self, nodes: usize, electrodes: usize) -> Self {
        assert!(nodes >= 1 && electrodes >= 1, "degenerate deployment");
        self.nodes = nodes;
        self.electrodes = electrodes;
        self
    }

    /// Sets the recording length in seconds.
    pub fn with_duration_s(mut self, duration_s: f64) -> Self {
        assert!(duration_s > 0.0, "empty recording");
        self.duration_s = duration_s;
        self
    }

    /// Sets the channel bit-error ratio.
    pub fn with_ber(mut self, ber: f64) -> Self {
        self.ber = ber;
        self
    }

    /// Adds a movement-intent decode round every `every` windows.
    pub fn with_movement_every(mut self, every: usize) -> Self {
        self.movement_every = every;
        self
    }

    /// Sets the per-step wall-clock deadline.
    pub fn with_step_deadline_us(mut self, us: u64) -> Self {
        self.step_deadline_us = us;
        self
    }

    /// Sets the modeled per-window device wait.
    pub fn with_io_stall_us(mut self, us: u64) -> Self {
        self.io_stall_us = us;
        self
    }

    /// Enables per-window span tracing with a ring of `capacity` events
    /// (0 disables it again).
    pub fn with_trace_capacity(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// The session's compute cost in electrode-windows per step — the
    /// admission controller's budget unit (a proxy for sim-time per
    /// wall-time: per-step work scales with `nodes × electrodes`, plus
    /// the movement mix's share).
    pub fn cost_estimate(&self) -> f64 {
        let base = (self.nodes * self.electrodes) as f64;
        let mix = if self.movement_every > 0 {
            base / self.movement_every as f64
        } else {
            0.0
        };
        base + mix
    }
}

/// The decision-affecting knobs a reconfiguration can change, plus the
/// query they came from: one epoch of a session's binding timeline.
///
/// Snapshots carry the whole timeline, so the re-execution verifier
/// replays a session epoch by epoch — epoch 0's binding from window 0,
/// each later binding from its recorded window — and a snapshot taken
/// *after* a hot reconfiguration still verifies digest-for-digest (see
/// [`Session::restore_verified`]).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryBinding {
    /// Movement-mix cadence in windows (0 = none).
    pub movement_every: usize,
    /// Whether hash broadcasts ride the reliable transport.
    pub use_reliable_transport: bool,
    /// The canonical query source behind this binding, if any.
    pub query: Option<String>,
}

impl QueryBinding {
    /// The binding a spec currently pins down.
    pub fn of(spec: &SessionSpec) -> Self {
        Self {
            movement_every: spec.movement_every,
            use_reliable_transport: spec.use_reliable_transport,
            query: spec.query.clone(),
        }
    }
}

/// Why a hot reconfiguration was refused. Both checks run before the
/// session is touched, so on either variant the live session is exactly
/// as it was: a refused cutover *is* the rollback.
#[derive(Debug, Clone, PartialEq)]
pub enum ReconfigureError {
    /// The new spec changes an identity field (id, seed, deployment,
    /// duration, or BER) — that is a new patient, not a new query.
    Identity {
        /// Which field differed.
        field: &'static str,
    },
    /// The caller's expected digest did not match the live session at
    /// the cutover boundary.
    Digest {
        /// What the caller expected.
        expected: u64,
        /// What the live session digested to.
        actual: u64,
    },
}

impl std::fmt::Display for ReconfigureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Identity { field } => {
                write!(f, "reconfiguration may not change identity field `{field}`")
            }
            Self::Digest { expected, actual } => write!(
                f,
                "cutover digest mismatch: expected {expected:016x}, live session is {actual:016x}"
            ),
        }
    }
}

impl std::error::Error for ReconfigureError {}

/// What one [`Session::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StepOutcome {
    /// The window index that was processed.
    pub window: usize,
    /// Wall-clock time the step took, in µs.
    pub wall_us: u64,
    /// Whether the step overran [`SessionSpec::step_deadline_us`].
    pub deadline_missed: bool,
    /// Whether the session has now processed every window.
    pub done: bool,
}

/// Aggregate accounting for a finished (or in-flight) session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// The session id.
    pub id: u64,
    /// Steps executed so far.
    pub steps: u64,
    /// Steps that overran the deadline.
    pub deadline_misses: u64,
    /// Total wall-clock time spent stepping, in µs.
    pub wall_us: u64,
    /// Simulated time covered, in µs.
    pub sim_us: u64,
    /// The propagation outcome so far.
    pub run: PropagationRun,
}

impl SessionReport {
    /// Simulated µs served per wall-clock µs spent — the admission
    /// controller's measured-load signal.
    pub fn sim_per_wall(&self) -> f64 {
        self.sim_us as f64 / self.wall_us.max(1) as f64
    }
}

/// A resumable patient session: seeded recording, trained detectors,
/// and mid-run protocol state, advanced one window per [`Session::step`].
#[derive(Debug)]
pub struct Session {
    spec: SessionSpec,
    app: SeizureApp,
    /// The serving recording from sample `recording_from` on: all of it
    /// for a cold build, the windows from the cursor on for a restore.
    recording: MultiSiteRecording,
    recording_from: usize,
    state: RunState,
    movement: Option<movement::Session>,
    /// Decode-round results, in order: part of the decision digest.
    movement_results: Vec<(usize, f64)>,
    /// The session-lifetime scratch buffers: created at admission, warmed
    /// by the first window, then reused by every subsequent step — the
    /// steady-state window path allocates nothing. Workers carry the
    /// session (workspace included) across quantum switches.
    workspace: Workspace,
    steps: u64,
    deadline_misses: u64,
    wall_us: u64,
    /// The binding the session was admitted with (epoch 0 of the
    /// timeline).
    initial_binding: QueryBinding,
    /// Hot reconfigurations applied so far: `(window, binding)` pairs in
    /// application order. Snapshots carry the whole timeline so the
    /// verifier ([`Self::restore_verified`]) can replay it faithfully.
    reconfigures: Vec<(u64, QueryBinding)>,
}

impl Session {
    /// Builds the session: generates the recording, trains per-node
    /// detectors on the training windows of the `seed ^ 1` recording
    /// (synthesized alone, [`training_windows`]), and prepares the
    /// resumable run. This is the expensive part; admission control runs
    /// *before* it. The only place a session's detectors are trained.
    pub fn new(spec: SessionSpec) -> Self {
        let mut app = patient_app(&spec);
        app.train_detectors(&training_windows(&patient_config(&spec, spec.seed ^ 1)));
        Self::build(spec, app)
    }

    /// The session around `app`, whose detectors are installed, at
    /// window 0 of its whole serving recording.
    fn build(spec: SessionSpec, mut app: SeizureApp) -> Self {
        let recording = generate(&patient_config(&spec, spec.seed));
        app.use_reliable_transport = spec.use_reliable_transport;
        let state = app.begin(&recording);
        Self::assemble(spec, app, recording, 0, state)
    }

    /// The session around `app` (detectors installed) at `state`, its
    /// serving recording held from sample `recording_from` on: adds the
    /// movement engine and the workspace.
    fn assemble(
        spec: SessionSpec,
        app: SeizureApp,
        recording: MultiSiteRecording,
        recording_from: usize,
        state: RunState,
    ) -> Self {
        let movement =
            (spec.movement_every > 0).then(|| movement::generate_session(24, 8, spec.seed ^ 0x33));
        let mut workspace = Workspace::new();
        if spec.trace_capacity > 0 {
            // The ring is allocated here, at admission, so enabling the
            // recorder adds nothing to the steady-state window path.
            workspace.trace = Recorder::with_capacity(spec.trace_capacity, spec.electrodes);
        }
        let initial_binding = QueryBinding::of(&spec);
        Self {
            spec,
            app,
            recording,
            recording_from,
            state,
            movement,
            movement_results: Vec::new(),
            workspace,
            steps: 0,
            deadline_misses: 0,
            wall_us: 0,
            initial_binding,
            reconfigures: Vec::new(),
        }
    }

    /// The session's spec.
    pub fn spec(&self) -> &SessionSpec {
        &self.spec
    }

    /// The session's synthetic recording, from its first held sample —
    /// the window engine reads it to gather this member's lanes into the
    /// fused block.
    pub(crate) fn recording(&self) -> RecordingView<'_> {
        RecordingView::new(&self.recording, self.recording_from)
    }

    /// The application harness (the window engine borrows a member's
    /// hashers; all members' hashers are identical by construction).
    pub(crate) fn app(&self) -> &SeizureApp {
        &self.app
    }

    /// Fleet-unique id.
    pub fn id(&self) -> u64 {
        self.spec.id
    }

    /// Admission priority.
    pub fn priority(&self) -> u8 {
        self.spec.priority
    }

    /// Whether every window has been processed.
    pub fn is_done(&self) -> bool {
        self.state.is_done()
    }

    /// The next window to be stepped (also the boundary a hot
    /// reconfiguration would cut over at).
    pub fn window(&self) -> u64 {
        self.state.window() as u64
    }

    /// Hot reconfigurations applied so far: `(window, binding)` pairs.
    pub fn reconfigure_log(&self) -> &[(u64, QueryBinding)] {
        &self.reconfigures
    }

    /// Applies a binding's decision-affecting knobs in place. The
    /// movement engine is created or dropped to match — created from
    /// the same seed derivation as admission, so a replayed transition
    /// reproduces the live one exactly.
    fn apply_binding(&mut self, binding: &QueryBinding) {
        self.spec.movement_every = binding.movement_every;
        self.spec.use_reliable_transport = binding.use_reliable_transport;
        self.spec.query = binding.query.clone();
        self.app.use_reliable_transport = binding.use_reliable_transport;
        if binding.movement_every > 0 {
            if self.movement.is_none() {
                self.movement = Some(movement::generate_session(24, 8, self.spec.seed ^ 0x33));
            }
        } else {
            self.movement = None;
        }
    }

    /// Hot-reconfigures the session to `new_spec` at the current window
    /// boundary and returns that window.
    ///
    /// Identity fields (id, seed, deployment, duration, BER) are
    /// immutable — changing the application means changing the query
    /// binding (movement cadence, transport) and forward-only serving
    /// knobs (priority, deadline, stall, trace capacity).
    ///
    /// The cutover happens in place: the new binding is applied to the
    /// live session and appended to its timeline, and the serving knobs
    /// are copied. Nothing is rebuilt or re-executed, and the recorder
    /// keeps every span served so far. A binding only steers windows
    /// from its cutover on, so this is the session
    /// [`Self::restore_verified`] rebuilds from any later snapshot: it
    /// replays the same timeline and applies the binding at the same
    /// window.
    ///
    /// `expected_step_digest` optionally pins the live session's
    /// [`Self::step_digest`] at the boundary (the forced-mismatch
    /// rollback path).
    ///
    /// # Errors
    ///
    /// [`ReconfigureError`] — an identity change or a digest mismatch,
    /// both found before the session is touched.
    pub fn reconfigure(
        &mut self,
        new_spec: SessionSpec,
        expected_step_digest: Option<u64>,
    ) -> Result<u64, ReconfigureError> {
        let identity: [(&'static str, bool); 6] = [
            ("id", new_spec.id == self.spec.id),
            ("seed", new_spec.seed == self.spec.seed),
            ("nodes", new_spec.nodes == self.spec.nodes),
            ("electrodes", new_spec.electrodes == self.spec.electrodes),
            ("duration_s", new_spec.duration_s == self.spec.duration_s),
            ("ber", new_spec.ber == self.spec.ber),
        ];
        for (field, same) in identity {
            if !same {
                return Err(ReconfigureError::Identity { field });
            }
        }
        if let Some(expected) = expected_step_digest {
            let actual = self.step_digest();
            if expected != actual {
                return Err(ReconfigureError::Digest { expected, actual });
            }
        }
        let window = self.window();
        let binding = QueryBinding::of(&new_spec);
        self.apply_binding(&binding);
        self.reconfigures.push((window, binding));
        // Forward-only serving knobs follow the new spec immediately;
        // none of them feed decisions.
        self.spec.priority = new_spec.priority;
        self.spec.step_deadline_us = new_spec.step_deadline_us;
        self.spec.io_stall_us = new_spec.io_stall_us;
        if new_spec.trace_capacity != self.spec.trace_capacity {
            self.set_trace_capacity(new_spec.trace_capacity);
        }
        Ok(window)
    }

    /// Total windows in this session's recording.
    pub fn windows_total(&self) -> usize {
        self.state.windows_total()
    }

    /// Advances the session by exactly one window (plus the movement
    /// mix when due) and accounts the step against the deadline. The
    /// call does a bounded slice of work and returns; wall-clock timing
    /// feeds metrics only, never decisions.
    ///
    /// The modeled radio wait ([`SessionSpec::io_stall_us`]) is served
    /// here as a blocking sleep, then the window is stepped by
    /// [`Self::step_after`]. This is the one place a session's wait
    /// blocks its thread: a fleet parks the wait off its worker and
    /// calls [`Self::step_after`] when it has passed.
    pub fn step(&mut self) -> StepOutcome {
        let mut waited_ns = 0;
        if self.spec.io_stall_us > 0 && !self.is_done() {
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_micros(self.spec.io_stall_us));
            waited_ns = t0.elapsed().as_nanos() as u64;
        }
        self.step_after(waited_ns)
    }

    /// Steps one window after a radio wait of `waited_ns` that the
    /// caller has already served: the wait is charged to the window as
    /// [`Stage::RadioWait`] and to its wall time, and nothing here
    /// waits.
    ///
    /// This is the window engine ([`crate::cohort::Cohort`]) over a
    /// cohort of one, its scratch borrowed from the session's own
    /// workspace for the call: the pre-pass and the window step are the
    /// ones a fleet cohort runs, so decisions are bit-identical
    /// whichever way a session is stepped.
    pub fn step_after(&mut self, waited_ns: u64) -> StepOutcome {
        let mut engine = std::mem::take(&mut self.workspace.engine);
        let mut out = None;
        engine.step_each(std::slice::from_mut(self), waited_ns, |o| out = Some(o));
        self.workspace.engine = engine;
        out.expect("a cohort of one steps one member")
    }

    /// The no-op outcome of stepping a finished session.
    pub(crate) fn finished(&self) -> StepOutcome {
        StepOutcome {
            window: self.state.window(),
            wall_us: 0,
            deadline_missed: false,
            done: true,
        }
    }

    /// One member's part of an engine window: opens the window envelope
    /// with the member's `charge` for the shared pre-pass, runs the
    /// application's window step on its `lanes`, then the movement mix
    /// when due. Wall time runs from `started` (where the engine's
    /// previous piece of work ended) plus the charge; returns the
    /// outcome and when this member's work ended.
    pub(crate) fn step_member(
        &mut self,
        lanes: MemberLanes<'_>,
        charge: &Charge,
        started: Instant,
    ) -> (StepOutcome, Instant) {
        let window = self.state.window();
        self.workspace.trace.set_window(window as u32);
        self.workspace
            .trace
            .begin_charged(Stage::Window, &charge.spans);
        let more = self.app.step_lanes(
            RecordingView::new(&self.recording, self.recording_from),
            &mut self.state,
            &mut self.workspace,
            lanes,
        );
        if let Some(ms) = &self.movement {
            let every = self.spec.movement_every;
            if every > 0 && self.state.window().is_multiple_of(every) {
                // Rotate through the three decode pipelines of §2.2 so
                // the mix exercises SVM, KF, and NN compute shapes.
                let round = self.movement_results.len();
                let tr = &mut self.workspace.trace;
                let value = match round % 3 {
                    0 => {
                        tr.begin(Stage::Svm);
                        let v = movement::svm_accuracy(ms, 2);
                        tr.end(Stage::Svm);
                        v
                    }
                    1 => {
                        tr.begin(Stage::Kalman);
                        // A singular fit is a function of the seeded
                        // features alone, so the sentinel is just as
                        // deterministic as a real decode — every
                        // replica and every replay lands on the same
                        // value, and digests cannot fork on it.
                        let v = movement::kalman_velocity_error(ms).unwrap_or(f64::MAX);
                        tr.end(Stage::Kalman);
                        v
                    }
                    _ => {
                        tr.begin(Stage::Nn);
                        let v = movement::nn_decomposition_error(ms, 2);
                        tr.end(Stage::Nn);
                        v
                    }
                };
                self.movement_results.push((round, value));
            }
        }
        self.workspace.trace.end(Stage::Window);
        let ended = Instant::now();
        let wall_us = ((ended - started).as_nanos() as u64 + charge.ns) / 1_000;
        let deadline_missed = wall_us > self.spec.step_deadline_us;
        self.steps += 1;
        self.wall_us += wall_us;
        self.deadline_misses += u64::from(deadline_missed);
        let out = StepOutcome {
            window,
            wall_us,
            deadline_missed,
            done: !more,
        };
        (out, ended)
    }

    /// The session's span recorder (disabled unless the spec set a
    /// [`SessionSpec::trace_capacity`]).
    pub fn trace(&self) -> &Recorder {
        &self.workspace.trace
    }

    /// Marks the session as picked up by a fleet worker: closes any
    /// pending run-queue gap as a [`Stage::Queue`] span stamped with the
    /// next window to be stepped. Called by the serving layer at the
    /// start of a scheduling quantum.
    pub fn note_scheduled(&mut self) {
        let next = self.state.window() as u32;
        self.workspace.trace.set_window(next);
        self.workspace.trace.mark_scheduled();
    }

    /// Marks the session as parked back on the fleet run queue. Called
    /// by the serving layer when a quantum yields with work remaining.
    pub fn note_yielded(&mut self) {
        self.workspace.trace.mark_queued();
    }

    /// Records the delay between a parked radio wait's deadline and the
    /// worker picking the session back up, `late_ns`, as a
    /// [`Stage::Queue`] span stamped with the next window. The wait
    /// itself is charged by [`Self::step_after`], so a parked window
    /// never also passes through [`Self::note_yielded`] and
    /// [`Self::note_scheduled`]. No-op when untraced.
    pub fn note_resumed(&mut self, late_ns: u64) {
        let next = self.state.window() as u32;
        self.workspace.trace.set_window(next);
        self.workspace.trace.record_external(Stage::Queue, late_ns);
    }

    /// Records an externally timed fault-in as a [`Stage::SwapIn`] span
    /// stamped with the next window to be stepped. The swap manager
    /// calls this right after [`Self::restore`] — the restore that
    /// rebuilt this session (and with it the recorder) *is* the
    /// operation being timed, so the span duration comes from outside.
    /// No-op when untraced.
    pub fn note_swapped_in(&mut self, dur_ns: u64) {
        let next = self.state.window() as u32;
        self.workspace.trace.set_window(next);
        self.workspace.trace.record_external(Stage::SwapIn, dur_ns);
    }

    /// Records an externally timed eviction as a [`Stage::SwapOut`]
    /// span stamped with the next (unserved) window. The swap manager
    /// calls this right before draining the trace and dropping the
    /// session — the snapshot encode and NVM program being timed happen
    /// outside any `step`. No-op when untraced.
    pub fn note_swapped_out(&mut self, dur_ns: u64) {
        let next = self.state.window() as u32;
        self.workspace.trace.set_window(next);
        self.workspace.trace.record_external(Stage::SwapOut, dur_ns);
    }

    /// Records an externally timed hot reconfiguration as a
    /// [`Stage::Reconfigure`] span stamped with the cutover window. The
    /// serving layer calls this right after [`Self::reconfigure`]: the
    /// cutover runs between windows, outside any `step`, so the
    /// duration comes from outside. No-op when untraced.
    pub fn note_reconfigured(&mut self, dur_ns: u64) {
        let next = self.state.window() as u32;
        self.workspace.trace.set_window(next);
        self.workspace
            .trace
            .record_external(Stage::Reconfigure, dur_ns);
    }

    /// Drains the recorded spans (oldest first), leaving the recorder
    /// enabled with an empty ring. Used by the serving layer to export
    /// traces after a session finishes.
    pub fn take_trace_events(&mut self) -> Vec<SpanEvent> {
        let events = self.workspace.trace.events();
        self.workspace.trace.clear();
        events
    }

    /// Aggregate accounting so far.
    pub fn report(&self) -> SessionReport {
        SessionReport {
            id: self.spec.id,
            steps: self.steps,
            deadline_misses: self.deadline_misses,
            wall_us: self.wall_us,
            sim_us: self.app.system().now_us(),
            run: SeizureApp::snapshot(&self.state),
        }
    }

    /// A cheap, allocation-free fingerprint of every decision made so
    /// far: the run-state scalars, medium statistics, membership and
    /// scheduling history lengths, movement results, and the simulation
    /// clock, folded through FNV-1a. The write-ahead log records one of
    /// these per window, so recovery can verify deterministic replay
    /// window-by-window without formatting the full
    /// [`Self::decision_digest`] string on the hot path. Wall-clock
    /// values are excluded, exactly as in the full digest.
    pub fn step_digest(&self) -> u64 {
        let mut h = Fnv64::new();
        self.state.fold_digest(&mut h);
        let sys = self.app.system();
        let stats = sys.stats();
        h.write_u64(stats.transmissions as u64);
        h.write_u64(stats.corrupted as u64);
        h.write_u64(stats.dropped as u64);
        h.write_u64(stats.retransmissions as u64);
        h.write_u64(stats.duplicates as u64);
        h.write_u64(stats.acks_lost as u64);
        h.write_u64(stats.heartbeats as u64);
        h.write_u64(sys.membership_log().len() as u64);
        h.write_u64(sys.schedule_decisions().len() as u64);
        h.write_u64(sys.now_us());
        h.write_u64(self.movement_results.len() as u64);
        for &(round, value) in &self.movement_results {
            h.write_u64(round as u64);
            h.write_f64(value);
        }
        h.finish()
    }

    /// Captures a serializable image of the session at the current
    /// window boundary: spec, cursors, RNG position, movement results,
    /// the session state, the trained detectors, and the digest cursor.
    /// Pair with [`Self::restore`] (or [`Self::restore_verified`]).
    pub fn snapshot(&self) -> SessionSnapshot {
        SessionSnapshot {
            spec: self.spec.clone(),
            window: self.state.window() as u64,
            steps: self.steps,
            deadline_misses: self.deadline_misses,
            wall_us: self.wall_us,
            rng_word_pos: self.app.rng_word_pos(),
            movement_results: self
                .movement_results
                .iter()
                .map(|&(r, v)| (r as u64, v))
                .collect(),
            state: self.app.capture_state(&self.state),
            step_digest: self.step_digest(),
            decisions_fnv: fnv1a(self.decision_digest().as_bytes()),
            initial_binding: self.initial_binding.clone(),
            reconfigures: self.reconfigures.clone(),
            detectors: self.app.detectors(),
        }
    }

    /// Resumes a session at `snap`'s window cursor from its state image.
    ///
    /// The image's detectors and session state are installed as they
    /// are, the application RNG is moved to the image's position, and
    /// only the serving windows from the cursor on are synthesized:
    /// restore never steps a window, never synthesizes the training
    /// recording and never trains. The installed state must digest to
    /// the image's digest cursor (the step digest and the fingerprint of
    /// the full decision digest), so a state that disagrees with its own
    /// cursor is an error, never a silently different session. Wall-clock
    /// accounting (steps, misses, stepping time) is carried over.
    ///
    /// A hot-reconfigured session resumes under its current binding and
    /// keeps its timeline. Signal windows before the cursor are not in
    /// the image; the session re-derives one on read from the seekable
    /// generator when its carried hash records prove it was stored.
    /// [`Self::restore_verified`] re-executes instead and checks the
    /// state itself.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for an image that fails
    /// [`SessionSnapshot::validate`] or does not fit the deployment;
    /// [`SnapshotError::DigestMismatch`] when the installed state does
    /// not reproduce the image's digest cursor.
    pub fn restore(snap: &SessionSnapshot) -> Result<Self, SnapshotError> {
        snap.validate()?;
        let spec = snap.spec.clone();
        let mut app = patient_app(&spec);
        app.install_detectors(snap.detectors.clone());
        app.use_reliable_transport = spec.use_reliable_transport;
        let config = patient_config(&spec, spec.seed);
        let samples = num_samples(&config);
        let cursor = snap.window as usize;
        let state = app.install_state(
            &snap.state,
            snap.rng_word_pos,
            cursor,
            samples / WINDOW,
            spec.electrodes,
        )?;
        let from = cursor * WINDOW;
        // The digests read no samples: check them before synthesizing.
        let empty = MultiSiteRecording {
            nodes: Vec::new(),
            config,
        };
        let mut session = Self::assemble(spec, app, empty, from, state);
        session.initial_binding = snap.initial_binding.clone();
        session.reconfigures = snap.reconfigures.clone();
        session.movement_results = snap
            .movement_results
            .iter()
            .map(|&(r, v)| (r as usize, v))
            .collect();
        session.check_cursor(snap)?;
        session.recording = generate_range(&session.recording.config, from, samples);
        session.steps = snap.steps;
        session.deadline_misses = snap.deadline_misses;
        session.wall_us = snap.wall_us;
        Ok(session)
    }

    /// The re-execution verifier that WAL recovery and `experiments
    /// replay` restore through: rebuilds the session from `snap`'s spec
    /// with the image's detectors (never training), re-executes it to the
    /// cursor, and requires the replayed session to equal the image —
    /// digest cursor, RNG position and the whole session state, byte for
    /// byte. Re-execution runs with the modeled radio stall suppressed,
    /// so it goes at compute speed. Any divergence (a corrupted image
    /// that beat the checksum, detectors or state that are not the ones
    /// the logged run had, or code whose decisions drifted from it) is an
    /// error. Wall-clock accounting is carried over from the image.
    ///
    /// A hot-reconfigured session replays its whole binding timeline:
    /// the rebuild starts from the *initial* binding, and each recorded
    /// reconfiguration is re-applied at its window on the way.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Invalid`] for an image that fails
    /// [`SessionSnapshot::validate`]; [`SnapshotError::DigestMismatch`]
    /// when the replay does not reproduce the image.
    pub fn restore_verified(snap: &SessionSnapshot) -> Result<Self, SnapshotError> {
        snap.validate()?;
        let mut base = snap.spec.clone();
        base.movement_every = snap.initial_binding.movement_every;
        base.use_reliable_transport = snap.initial_binding.use_reliable_transport;
        base.query = snap.initial_binding.query.clone();
        let mut app = patient_app(&base);
        app.install_detectors(snap.detectors.clone());
        let mut session = Self::build(base, app);
        for (window, binding) in &snap.reconfigures {
            while (session.state.window() as u64) < *window && !session.state.is_done() {
                session.step_after(0);
            }
            session.apply_binding(binding);
            session.reconfigures.push((*window, binding.clone()));
        }
        while (session.state.window() as u64) < snap.window && !session.state.is_done() {
            session.step_after(0);
        }
        session.spec = snap.spec.clone();
        session.app.use_reliable_transport = snap.spec.use_reliable_transport;
        // Fast-forward spans are re-execution artifacts, not serving
        // history: drop them so post-recovery traces start clean.
        session.workspace.trace.clear();
        session.check_cursor(snap)?;
        if session.app.rng_word_pos() != snap.rng_word_pos {
            return Err(mismatch(
                snap,
                snap.rng_word_pos,
                session.app.rng_word_pos(),
            ));
        }
        let (mut stored, mut replayed) = (Vec::new(), Vec::new());
        snap.state.encode_into(&mut stored);
        session
            .app
            .capture_state(&session.state)
            .encode_into(&mut replayed);
        if stored != replayed {
            return Err(mismatch(snap, fnv1a(&stored), fnv1a(&replayed)));
        }
        session.steps = snap.steps;
        session.deadline_misses = snap.deadline_misses;
        session.wall_us = snap.wall_us;
        Ok(session)
    }

    /// Checks the session against `snap`'s digest cursor: its window, its
    /// step digest, and the fingerprint of its full decision digest.
    fn check_cursor(&self, snap: &SessionSnapshot) -> Result<(), SnapshotError> {
        if self.window() != snap.window {
            return Err(mismatch(snap, snap.window, self.window()));
        }
        let digest = self.step_digest();
        if digest != snap.step_digest {
            return Err(mismatch(snap, snap.step_digest, digest));
        }
        let decisions = fnv1a(self.decision_digest().as_bytes());
        if decisions != snap.decisions_fnv {
            return Err(mismatch(snap, snap.decisions_fnv, decisions));
        }
        Ok(())
    }

    /// Re-arms (or disables, with 0) the span recorder with a ring of
    /// `capacity` events. Used by time-travel replay to trace sessions
    /// whose original serving run was untraced.
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.spec.trace_capacity = capacity;
        self.workspace.trace = if capacity > 0 {
            Recorder::with_capacity(capacity, self.spec.electrodes)
        } else {
            Recorder::disabled()
        };
    }

    /// A deterministic byte-for-byte digest of every decision the
    /// session made: propagation outcome, medium statistics, membership
    /// and scheduling history, and movement decode results. Two runs of
    /// the same spec must produce identical digests regardless of which
    /// worker (or how many workers) stepped them — wall-clock values are
    /// deliberately excluded.
    pub fn decision_digest(&self) -> String {
        let sys = self.app.system();
        format!(
            "run={:?} stats={:?} members={:?} sched={:?} movement={:?} sim_us={}",
            SeizureApp::snapshot(&self.state),
            sys.stats(),
            sys.membership_log(),
            sys.schedule_decisions(),
            self.movement_results,
            sys.now_us(),
        )
    }
}

/// `snap`'s session disagreeing with the image: `stored` in the image,
/// `replayed` in the restored or re-executed session.
fn mismatch(snap: &SessionSnapshot, stored: u64, replayed: u64) -> SnapshotError {
    SnapshotError::DigestMismatch {
        session: snap.spec.id,
        window: snap.window,
        stored,
        replayed,
    }
}

/// The session's synthetic recording: one seizure propagating across
/// every implant, seeded per patient.
fn patient_config(spec: &SessionSpec, seed: u64) -> IeegConfig {
    IeegConfig {
        nodes: spec.nodes,
        electrodes_per_node: spec.electrodes,
        duration_s: spec.duration_s,
        seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, spec.nodes, 0.0)],
        seed,
        ..Default::default()
    }
}

/// The session's application harness, detectors not yet installed.
fn patient_app(spec: &SessionSpec) -> SeizureApp {
    SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(spec.nodes)
            .with_electrodes(spec.electrodes)
            .with_ber(spec.ber)
            .with_seed(spec.seed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Counts heap traffic so a test can bound what a cutover allocates.
    #[global_allocator]
    static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

    /// The fleet moves sessions between worker threads, so the whole
    /// stack must be (and stay) `Send`.
    #[test]
    fn scalo_and_session_are_send() {
        fn is_send<T: Send>() {}
        is_send::<crate::Scalo>();
        is_send::<SeizureApp>();
        is_send::<Session>();
    }

    #[test]
    fn stepped_session_matches_monolithic_run() {
        let spec = SessionSpec::new(1, 42);
        let mut session = Session::new(spec.clone());
        while !session.step().done {}
        let stepped = session.report().run;

        let recording = generate(&patient_config(&spec, spec.seed));
        let mut app = patient_app(&spec);
        app.train_detectors(&training_windows(&patient_config(&spec, spec.seed ^ 1)));
        let monolithic = app.run(&recording);
        assert_eq!(stepped, monolithic);
        assert!(stepped.origin_detect_window.is_some(), "{stepped:?}");
    }

    #[test]
    fn step_accounting_adds_up() {
        let mut session = Session::new(SessionSpec::new(2, 7).with_duration_s(0.5));
        let total = session.windows_total();
        assert!(total > 0);
        let mut steps = 0;
        while !session.is_done() {
            let out = session.step();
            assert_eq!(out.window, steps);
            steps += 1;
        }
        assert_eq!(steps, total);
        let report = session.report();
        assert_eq!(report.steps, total as u64);
        assert!(report.sim_us > 0);
        assert!(report.sim_per_wall() > 0.0);
        // Stepping a finished session is a no-op.
        let again = session.step();
        assert!(again.done);
        assert_eq!(session.report().run, report.run);
    }

    #[test]
    fn movement_mix_rotates_decoders() {
        let mut session = Session::new(
            SessionSpec::new(3, 9)
                .with_duration_s(0.5)
                .with_movement_every(25),
        );
        while !session.step().done {}
        let digest = session.decision_digest();
        assert!(digest.contains("movement=[(0,"), "{digest}");
        // 125 windows at one round per 25 ⇒ all three pipelines ran.
        assert!(digest.contains("(2,"), "{digest}");
    }

    #[test]
    fn digests_are_seed_deterministic() {
        let run = |seed| {
            let mut s = Session::new(SessionSpec::new(9, seed).with_movement_every(50));
            while !s.step().done {}
            s.decision_digest()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6), "different seeds must differ");
    }

    #[test]
    fn query_backed_spec_digests_like_the_hand_built_one() {
        let run = |spec: SessionSpec| {
            let mut s = Session::new(spec);
            while !s.step().done {}
            s.decision_digest()
        };
        let by_query = SessionSpec::new(11, 0x77)
            .with_duration_s(0.5)
            .with_query(crate::catalog::MOVEMENT_MIX)
            .unwrap();
        assert_eq!(by_query.movement_every, 25);
        let by_hand = SessionSpec::new(11, 0x77)
            .with_duration_s(0.5)
            .with_movement_every(25);
        assert_eq!(run(by_query), run(by_hand));
    }

    #[test]
    fn reconfigure_cuts_over_and_stays_restorable() {
        // Admit plain seizure watch, run a while, then hot-switch to
        // the movement mix.
        let spec = SessionSpec::new(21, 0x9a9)
            .with_duration_s(0.5)
            .with_query(crate::catalog::SEIZURE_WATCH)
            .unwrap();
        let mut session = Session::new(spec.clone());
        for _ in 0..40 {
            session.step();
        }
        let new_spec = SessionSpec::new(21, 0x9a9)
            .with_duration_s(0.5)
            .with_query(crate::catalog::MOVEMENT_MIX)
            .unwrap();
        let expected = session.step_digest();
        assert_eq!(session.reconfigure(new_spec, Some(expected)), Ok(40));
        assert_eq!(session.reconfigure_log().len(), 1);
        assert_eq!(session.spec().movement_every, 25);
        for _ in 0..40 {
            session.step();
        }
        assert!(
            !session.movement_results.is_empty(),
            "the new binding's movement mix must actually run"
        );
        // A snapshot taken after the cutover must restore, by state and
        // by timeline replay, and keep digesting identically.
        let snap = session.snapshot();
        assert!(Session::restore_verified(&snap).is_ok());
        let restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.step_digest(), session.step_digest());
        assert_eq!(restored.decision_digest(), session.decision_digest());
        // And a second reconfiguration on top still works.
        let mut session = restored;
        let back = SessionSpec::new(21, 0x9a9)
            .with_duration_s(0.5)
            .with_query(crate::catalog::SEIZURE_RELIABLE)
            .unwrap();
        session.reconfigure(back, None).unwrap();
        assert_eq!(session.reconfigure_log().len(), 2);
        assert!(session.spec().use_reliable_transport);
        while !session.step().done {}
        let snap = session.snapshot();
        assert!(Session::restore(&snap).is_ok());

        // The cutover is in place. On a traced 1.2 s 2×4 session at
        // window 120 it allocates less than a tenth of the serving
        // recording (a rebuild synthesizes a whole one), and the
        // recorder keeps every span served before it.
        let spec = |query| {
            SessionSpec::new(23, 0x7c7)
                .with_deployment(2, 4)
                .with_duration_s(1.2)
                .with_trace_capacity(1 << 16)
                .with_query(query)
                .unwrap()
        };
        let mut session = Session::new(spec(crate::catalog::SEIZURE_WATCH));
        for _ in 0..120 {
            session.step();
        }
        let served = session.trace().events();
        let recording_bytes: usize = session
            .recording
            .nodes
            .iter()
            .flat_map(|n| &n.channels)
            .map(|c| std::mem::size_of_val(c.as_slice()))
            .sum();
        let new_spec = spec(crate::catalog::MOVEMENT_MIX);
        let expected = session.step_digest();
        let (window, heap) = scalo_alloc::measure(|| session.reconfigure(new_spec, Some(expected)));
        assert_eq!(window, Ok(120));
        assert!(heap.allocs > 0, "the timeline entry is counted: {heap:?}");
        assert!(
            heap.bytes < recording_bytes as u64 / 10,
            "cutover allocated {heap:?}, serving recording is {recording_bytes} B"
        );
        assert_eq!(session.trace().dropped(), 0);
        assert_eq!(
            session.trace().events(),
            served,
            "the cutover must keep the spans served before it"
        );
        let snap = session.snapshot();
        let restored = Session::restore(&snap).unwrap();
        assert_eq!(restored.step_digest(), session.step_digest());
        assert_eq!(restored.decision_digest(), session.decision_digest());
    }

    /// A restored session holds no signal window from before its
    /// cursor, yet must read back every one its hash records prove was
    /// stored exactly as the uninterrupted session's NVM holds it.
    #[test]
    fn restored_nodes_rederive_every_stored_window_in_the_horizon() {
        let mut live = Session::new(SessionSpec::new(24, 0x24).with_deployment(3, 4));
        for _ in 0..80 {
            live.step();
        }
        let snap = live.snapshot();
        let restored = Session::restore(&snap).unwrap();
        let state = &snap.state;
        assert!(state.window_clock.len() >= 25, "{:?}", state.window_clock);
        let mut checked = 0;
        for (node, img) in state.nodes.iter().enumerate() {
            for h in &img.hashes {
                let (e, ts) = (
                    usize::from(h.electrode),
                    state.window_clock[usize::from(h.slot)],
                );
                let stored = live.app.system().node(node).stored_window(e, ts);
                assert!(stored.is_some(), "node {node} e{e} @{ts}");
                let mut rederived = Vec::new();
                assert!(restored.app.rederive_stored_window(
                    restored.recording(),
                    &restored.state,
                    node,
                    e,
                    ts,
                    &mut rederived
                ));
                assert_eq!(Some(rederived), stored, "node {node} e{e} @{ts}");
                checked += 1;
            }
        }
        assert_eq!(checked, 3 * 4 * state.window_clock.len());
        // A window the hash records do not prove stored is not made up.
        let mut out = Vec::new();
        let ts = state.window_clock[0];
        assert!(!restored.app.rederive_stored_window(
            restored.recording(),
            &restored.state,
            0,
            4,
            ts,
            &mut out
        ));
    }

    #[test]
    fn reconfigure_rolls_back_on_digest_mismatch_and_identity_change() {
        let spec = SessionSpec::new(22, 0x5e5).with_duration_s(0.4);
        let mut session = Session::new(spec.clone());
        for _ in 0..20 {
            session.step();
        }
        let live = session.step_digest();
        // Forced mismatch: the caller pins a wrong digest; the live
        // session must be untouched.
        let err = session
            .reconfigure(spec.clone().with_movement_every(25), Some(live ^ 1))
            .unwrap_err();
        assert!(matches!(err, ReconfigureError::Digest { .. }));
        assert_eq!(session.step_digest(), live, "rollback must be total");
        assert_eq!(session.spec().movement_every, 0);
        assert!(session.reconfigure_log().is_empty());
        // Identity fields are immutable.
        let err = session
            .reconfigure(SessionSpec::new(22, 0x5e6).with_duration_s(0.4), None)
            .unwrap_err();
        assert_eq!(err, ReconfigureError::Identity { field: "seed" });
        assert_eq!(session.step_digest(), live);
    }

    #[test]
    fn cost_estimate_scales_with_deployment_and_mix() {
        let small = SessionSpec::new(0, 0).cost_estimate();
        let big = SessionSpec::new(0, 0).with_deployment(4, 8).cost_estimate();
        assert!(big > small);
        let mixed = SessionSpec::new(0, 0)
            .with_movement_every(10)
            .cost_estimate();
        assert!(mixed > small);
    }
}
