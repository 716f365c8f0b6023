//! The serving engine: admission at the front door, one residency table
//! and one epoch loop over the worker pool in the middle, metrics and
//! per-session decision digests on the way out. A closed batch
//! ([`Fleet`]) and a bounded resident set ([`crate::SwapFleet`]) are the
//! same engine; the batch is the case where every session is resident
//! and arrives at t=0 with all of its windows.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionEvent};
use crate::durable::{DurabilityConfig, DurabilityError, FleetLogger, RecoveryReport};
use crate::metrics::{json_string, Counter, Histogram, MetricsRegistry};
use crate::pool::{self, PoolReport, Quantum, WorkUnit};
use crate::swap::arrivals::Arrival;
use crate::swap::SwapTier;
use scalo_core::plan::{resolve_budget, PlanError, ProgramPlan};
use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::{fnv1a, SessionSnapshot};
use scalo_core::ScaloConfig;
use scalo_storage::wal::WalError;
use scalo_trace::SpanEvent;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Worker threads in the pool, which serve the windows. Large
    /// syntheses on the caller's thread (a closed batch's
    /// `Session::new` at [`Fleet::submit`], the rebuilds of
    /// [`Fleet::recover`]) also use idle cores, whatever this number:
    /// `ieeg::generate_range` splits a range of more than one 2×4
    /// quantum's electrode-samples over the host's cores. Pool jobs
    /// synthesize one quantum at a time, so at 2×4 they stay on their
    /// worker.
    pub workers: usize,
    /// Windows a session advances per scheduling quantum before it
    /// yields its worker.
    pub quantum_steps: usize,
    /// Admission-control budget.
    pub admission: AdmissionConfig,
    /// Kill switch for crash-recovery experiments: halt the whole pool
    /// after this many fleet-wide windows, *without* the final WAL sync
    /// a clean shutdown performs — buffered log records are genuinely
    /// lost, exactly as in a process kill.
    pub halt_after_windows: Option<u64>,
}

impl FleetConfig {
    /// A fleet with `workers` threads, an 8-window quantum, and the
    /// default admission budget.
    pub fn new(workers: usize) -> Self {
        Self {
            workers,
            quantum_steps: 8,
            admission: AdmissionConfig::default(),
            halt_after_windows: None,
        }
    }

    /// Sets the scheduling quantum, in windows.
    pub fn with_quantum_steps(mut self, steps: usize) -> Self {
        assert!(steps >= 1, "quantum must make progress");
        self.quantum_steps = steps;
        self
    }

    /// Sets the admission budget.
    pub fn with_budget(mut self, budget: f64) -> Self {
        self.admission.budget = budget;
        self
    }

    /// Arms the seeded-kill switch: the run halts (un-synced) after
    /// `windows` fleet-wide windows.
    pub fn with_halt_after_windows(mut self, windows: u64) -> Self {
        assert!(windows >= 1, "a kill at window 0 serves nothing");
        self.halt_after_windows = Some(windows);
        self
    }
}

/// Why a [`Fleet::submit`] was refused.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmitError {
    /// The session does not fit the remaining admission budget, even
    /// after shedding every strictly lower-priority session.
    BudgetExhausted {
        /// The offered session's cost.
        cost: f64,
        /// Budget headroom after hypothetical shedding.
        headroom: f64,
    },
    /// The id is already admitted (a caller bug, not a capacity
    /// condition). A refused id is not a duplicate: it may be offered
    /// again.
    DuplicateId {
        /// The colliding id.
        id: u64,
    },
    /// The id was admitted earlier and then shed by a higher-priority
    /// submission; it is not silently resurrected.
    Shed {
        /// The shed id.
        id: u64,
    },
    /// The admitted-set capacity (resident **plus** swapped, the
    /// NVM-image-backed tier) is exhausted — distinct from
    /// [`AdmitError::BudgetExhausted`], which is about *resident*
    /// compute.
    CapacityExhausted {
        /// Sessions currently admitted (resident + swapped).
        admitted: usize,
        /// The configured admitted-set capacity.
        capacity: usize,
    },
    /// A pin-priority (never-swapped) session could not be guaranteed a
    /// resident slot: the resident budget is already covered by pinned
    /// sessions.
    PinnedResidencyExhausted {
        /// Pinned sessions already holding resident slots.
        pinned: usize,
        /// The resident-set budget, in sessions.
        resident_budget: usize,
    },
}

impl fmt::Display for AdmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BudgetExhausted { cost, headroom } => {
                write!(f, "admission: cost {cost} exceeds headroom {headroom}")
            }
            Self::DuplicateId { id } => write!(f, "admission: id {id} already submitted"),
            Self::Shed { id } => write!(f, "admission: id {id} was shed; not resubmitting"),
            Self::CapacityExhausted { admitted, capacity } => write!(
                f,
                "admission: admitted set full ({admitted} of {capacity})"
            ),
            Self::PinnedResidencyExhausted {
                pinned,
                resident_budget,
            } => write!(
                f,
                "admission: {pinned} pinned sessions already cover the resident budget of {resident_budget}"
            ),
        }
    }
}

impl std::error::Error for AdmitError {}

/// Why a [`Fleet::submit_query`] was refused: either the query did not
/// compile to a servable, schedulable plan, or the compiled session
/// failed ordinary admission.
#[derive(Debug, Clone, PartialEq)]
pub enum QuerySubmitError {
    /// The compiled spec was refused by admission control.
    Admit(AdmitError),
    /// The query failed to compile or the seizure ILP found no feasible
    /// placement for it.
    Plan(PlanError),
}

impl fmt::Display for QuerySubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Admit(e) => write!(f, "{e}"),
            Self::Plan(e) => write!(f, "query admission: {e}"),
        }
    }
}

impl std::error::Error for QuerySubmitError {}

/// A pending hot reconfiguration: at `at_window`, recompile `source`
/// and cut the session over to it.
#[derive(Debug, Clone, PartialEq)]
struct ReconfigureRequest {
    at_window: u64,
    source: String,
    expected_step_digest: Option<u64>,
}

/// What one scheduled hot reconfiguration did (or failed to do).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReconfigureRecord {
    /// The session id.
    pub id: u64,
    /// The window boundary the cutover ran at.
    pub window: u64,
    /// Whether the cutover committed (false = typed rollback, the live
    /// session kept its old configuration).
    pub ok: bool,
    /// The failure, rendered, when `ok` is false.
    pub error: Option<String>,
    /// Query compile latency, µs.
    pub compile_us: u64,
    /// Seizure-ILP re-solve latency, µs.
    pub resolve_us: u64,
    /// In-place cutover latency (identity and digest checks, binding
    /// applied), µs.
    pub cutover_us: u64,
}

/// Where a submitted session ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitState {
    /// Admitted and (still) scheduled to run.
    Admitted,
    /// Refused at the front door.
    Rejected,
    /// Admitted, then evicted by a later higher-priority submission.
    Shed,
}

/// One served session's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionServing {
    /// Session id.
    pub id: u64,
    /// Admission priority.
    pub priority: u8,
    /// Windows stepped.
    pub steps: u64,
    /// Steps that overran the session's deadline.
    pub deadline_misses: u64,
    /// Wall-clock µs spent stepping this session.
    pub wall_us: u64,
    /// Simulated µs served.
    pub sim_us: u64,
    /// The deterministic decision digest
    /// ([`Session::decision_digest`]).
    pub digest: String,
    /// The session's recorded spans, oldest first (empty unless the
    /// spec enabled tracing via `SessionSpec::trace_capacity`).
    pub trace: Vec<SpanEvent>,
}

/// The full outcome of one [`Fleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time of the serving epoch, ms.
    pub wall_ms: f64,
    /// Windows stepped across all sessions.
    pub windows: u64,
    /// Deadline misses across all sessions.
    pub deadline_misses: u64,
    /// Served sessions, by id.
    pub sessions: Vec<SessionServing>,
    /// Ids refused at submission.
    pub rejected: Vec<u64>,
    /// Ids admitted then shed.
    pub shed: Vec<u64>,
    /// The admission transition log.
    pub admission_log: Vec<AdmissionEvent>,
    /// Hot reconfigurations attempted during the run, by session id.
    pub reconfigures: Vec<ReconfigureRecord>,
    /// Worker-pool accounting.
    pub pool: PoolReport,
    /// The metrics registry's JSON export (counters + histograms).
    pub metrics_json: String,
    /// Write-ahead-log accounting (durable fleets only).
    pub durability: Option<DurabilitySummary>,
}

/// Write-ahead-log accounting for one durable run.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilitySummary {
    /// Records appended.
    pub records: u64,
    /// Frame bytes appended (padding excluded).
    pub appended_bytes: u64,
    /// Zero bytes spent sealing pages at fsync points.
    pub padding_bytes: u64,
    /// Pages programmed.
    pub pages_written: u64,
    /// Fsync points.
    pub fsyncs: u64,
    /// Segment files created.
    pub segments: u64,
    /// Modeled NVM time spent programming log pages, µs.
    pub nvm_time_us: f64,
    /// Whether the run ended with a final sync (false after a
    /// [`FleetConfig::halt_after_windows`] kill).
    pub clean_shutdown: bool,
    /// The first log-append failure, if any.
    pub error: Option<String>,
}

impl FleetReport {
    /// Fleet throughput: windows served per wall-clock second.
    pub fn windows_per_sec(&self) -> f64 {
        self.windows as f64 / (self.wall_ms / 1_000.0).max(1e-9)
    }

    /// Serialises the report as one JSON object (summary, per-session
    /// rows with FNV-1a decision fingerprints, admission log, and the
    /// full metrics export).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"workers\":{},\"wall_ms\":{:.3},\"windows\":{},\"windows_per_sec\":{:.1},\"deadline_misses\":{},\"pool\":{{\"quanta\":{},\"steals\":{}}}",
            self.workers,
            self.wall_ms,
            self.windows,
            self.windows_per_sec(),
            self.deadline_misses,
            self.pool.quanta,
            self.pool.steals,
        );
        out.push_str(",\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\":{},\"priority\":{},\"steps\":{},\"deadline_misses\":{},\"wall_us\":{},\"sim_us\":{},\"decisions_fnv\":\"{:016x}\"}}",
                if i > 0 { "," } else { "" },
                s.id,
                s.priority,
                s.steps,
                s.deadline_misses,
                s.wall_us,
                s.sim_us,
                fnv1a(s.digest.as_bytes()),
            );
        }
        out.push_str("],\"reconfigures\":[");
        for (i, r) in self.reconfigures.iter().enumerate() {
            let _ = write!(
                out,
                "{}{{\"id\":{},\"window\":{},\"ok\":{},\"error\":{},\"compile_us\":{},\"resolve_us\":{},\"cutover_us\":{}}}",
                if i > 0 { "," } else { "" },
                r.id,
                r.window,
                r.ok,
                json_opt(&r.error),
                r.compile_us,
                r.resolve_us,
                r.cutover_us,
            );
        }
        let _ = write!(
            out,
            "],\"rejected\":{:?},\"shed\":{:?},\"admission_events\":{},\"metrics\":{}",
            self.rejected,
            self.shed,
            admission_log_json(&self.admission_log),
            self.metrics_json,
        );
        if let Some(d) = &self.durability {
            let _ = write!(
                out,
                ",\"wal\":{{\"records\":{},\"appended_bytes\":{},\"padding_bytes\":{},\"pages_written\":{},\"fsyncs\":{},\"segments\":{},\"nvm_time_us\":{:.1},\"clean_shutdown\":{},\"error\":{}}}",
                d.records,
                d.appended_bytes,
                d.padding_bytes,
                d.pages_written,
                d.fsyncs,
                d.segments,
                d.nvm_time_us,
                d.clean_shutdown,
                json_opt(&d.error),
            );
        }
        out.push('}');
        out
    }
}

/// An optional message as a JSON string or `null`.
fn json_opt(msg: &Option<String>) -> String {
    msg.as_deref().map_or("null".to_string(), json_string)
}

fn admission_log_json(log: &[AdmissionEvent]) -> String {
    let mut out = String::from("[");
    for (i, ev) in log.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match ev {
            AdmissionEvent::Admitted { id, cost } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"admitted\",\"id\":{id},\"cost\":{cost}}}"
                );
            }
            AdmissionEvent::Rejected { id, cost, headroom } => {
                let _ = write!(
                    out,
                    "{{\"event\":\"rejected\",\"id\":{id},\"cost\":{cost},\"headroom\":{headroom}}}"
                );
            }
            AdmissionEvent::Shed { id, for_id } => {
                let _ = write!(out, "{{\"event\":\"shed\",\"id\":{id},\"for\":{for_id}}}");
            }
        }
    }
    out.push(']');
    out
}

/// How a session not yet in memory enters its job: built cold at its
/// first arrival, or restored from its decoded image (`pre_us`: the NVM
/// read and decode time already spent on the fault-in; `pre_cpu_us`:
/// the CPU time of that read and decode).
pub(crate) enum Start {
    Build(SessionSpec),
    FaultIn {
        snap: Box<SessionSnapshot>,
        pre_us: u64,
        pre_cpu_us: u64,
    },
}

/// What every job of one run shares: the quantum, the kill switch, the
/// write-ahead logger, and the metric handles, resolved once per run so
/// no job takes the registry lock.
struct Shared {
    quantum_steps: usize,
    halt_after_windows: Option<u64>,
    windows_stepped: AtomicU64,
    /// Kill switch: once set, every job returns at its next check.
    halted: AtomicBool,
    logger: Option<Arc<FleetLogger>>,
    step_latency: Arc<Histogram>,
    steps: Arc<Counter>,
    misses: Arc<Counter>,
    reconfigure_total: Arc<Counter>,
    reconfigure_failed: Arc<Counter>,
    cutover_us: Arc<Histogram>,
    /// Image-tier histograms (swap fleets only).
    cold_build_us: Option<Arc<Histogram>>,
    swap_in_us: Option<Arc<Histogram>>,
    /// The same spans' thread CPU time: a span whose wall time far
    /// exceeds it was preempted, not slow.
    cold_build_cpu_us: Option<Arc<Histogram>>,
    swap_in_cpu_us: Option<Arc<Histogram>>,
}

/// Runs `append` against a durable fleet's log (a no-op without one).
/// A failure poisons the log, so the report carries it; `false` then.
pub(crate) fn log_or_poison(
    logger: &Option<Arc<FleetLogger>>,
    append: impl FnOnce(&FleetLogger) -> Result<(), WalError>,
) -> bool {
    let Some(logger) = logger else { return true };
    append(logger).map_err(|e| logger.poison(e)).is_ok()
}

impl Shared {
    /// Runs a log append; a failure also halts the fleet: it must never
    /// keep serving while silently losing its history.
    fn log(&self, append: impl FnOnce(&FleetLogger) -> Result<(), WalError>) {
        if !log_or_poison(&self.logger, append) {
            self.halted.store(true, Ordering::Relaxed);
        }
    }

    /// Per-window durability hooks, run for every served window: one
    /// decision record per window (allocation-free), a checkpoint
    /// snapshot every cadence windows, and a completion record.
    fn log_window(&self, session: &Session, window: usize, done: bool) {
        self.log(|logger| {
            let id = session.id();
            logger.log_decision(id, window as u32, session.step_digest())?;
            let completed = window as u64 + 1;
            if !done && completed.is_multiple_of(logger.checkpoint_every_windows()) {
                logger.log_checkpoint(session)?;
            }
            if done {
                logger.log_done(id, fnv1a(session.decision_digest().as_bytes()))?;
            }
            Ok(())
        });
    }
}

/// The pool's one job type: one arrival's burst for one session. It
/// brings the session into memory first when it is cold or swapped,
/// stops at its burst length or at completion, and yields every
/// `quantum_steps` windows. Before each window with a modeled radio wait
/// it parks ([`Quantum::WaitUntil`]), so the wait holds no worker, and
/// steps the window ([`Session::step_after`]) when it resumes.
struct SessionJob {
    shared: Arc<Shared>,
    id: u64,
    /// How the session enters memory, until the job's first quantum.
    start: Option<Start>,
    /// The session once in memory; `None` before its start runs and
    /// after its restore failed closed.
    session: Option<Session>,
    /// Windows left in this arrival's burst.
    burst: u64,
    /// Pending hot reconfiguration.
    reconfigure: Option<ReconfigureRequest>,
    reconfigure_record: Option<ReconfigureRecord>,
    /// The radio wait the job is parked on: when it began and its
    /// deadline.
    parked: Option<(Instant, Instant)>,
}

impl SessionJob {
    /// Windows to hold ahead of the cursor: the rest of the burst, at
    /// most one quantum.
    fn ahead(&self) -> u64 {
        self.burst.min(self.shared.quantum_steps as u64)
    }

    /// Builds or restores the session from its `start`, holding its
    /// first quantum's windows. This runs on the worker, so synthesis
    /// stays parallel. `None` when its restore failed closed (its state
    /// disagreed with its digests).
    fn bring_in(&self, start: Start) -> Option<Session> {
        let (shared, t0, cpu0) = (&*self.shared, Instant::now(), pool::thread_cpu_us());
        let cpu_since = |pre_cpu_us: u64, h: &Option<Arc<Histogram>>| {
            if let (Some(h), Some(cpu0), Some(cpu1)) = (h, cpu0, pool::thread_cpu_us()) {
                h.observe(pre_cpu_us + cpu1.saturating_sub(cpu0));
            }
        };
        match start {
            Start::Build(spec) => {
                let session = Session::new_through(spec, self.ahead());
                let build_us = t0.elapsed().as_micros() as u64;
                if let Some(h) = &shared.cold_build_us {
                    h.observe(build_us);
                }
                cpu_since(0, &shared.cold_build_cpu_us);
                shared.log(|logger| logger.log_admit(&session));
                Some(session)
            }
            Start::FaultIn {
                snap,
                pre_us,
                pre_cpu_us,
            } => {
                let through = snap.window.saturating_add(self.ahead());
                let mut session = Session::restore_through(&snap, through).ok()?;
                let total_us = pre_us + t0.elapsed().as_micros() as u64;
                if let Some(h) = &shared.swap_in_us {
                    h.observe(total_us);
                }
                cpu_since(pre_cpu_us, &shared.swap_in_cpu_us);
                session.note_swapped_in(total_us.saturating_mul(1_000));
                Some(session)
            }
        }
    }

    /// Steps the session through up to one quantum of its burst.
    fn serve(&mut self, session: &mut Session) -> Quantum {
        if self.burst == 0 {
            return Quantum::Done;
        }
        let mut waited_ns = self.resume(session);
        if waited_ns.is_none() {
            // Close any pending run-queue gap as a `queue` span (no-op
            // when the session's recorder is disabled).
            session.note_scheduled();
        }
        for _ in 0..self.shared.quantum_steps {
            if waited_ns.is_none() {
                self.maybe_reconfigure(session);
                self.hold_ahead(session);
                if let Some(deadline) = self.park(session) {
                    return Quantum::WaitUntil(deadline);
                }
            }
            let out = session.step_after(waited_ns.take().unwrap_or(0));
            self.burst -= 1;
            let shared = &*self.shared;
            shared.step_latency.observe(out.wall_us);
            shared.steps.incr();
            if out.deadline_missed {
                shared.misses.incr();
            }
            shared.log_window(session, out.window, out.done);
            if let Some(halt) = shared.halt_after_windows {
                if shared.windows_stepped.fetch_add(1, Ordering::Relaxed) + 1 >= halt {
                    // The kill: stop the pool mid-flight, no final sync.
                    shared.halted.store(true, Ordering::Relaxed);
                    return Quantum::Done;
                }
            }
            if self.burst == 0 || out.done || shared.halted.load(Ordering::Relaxed) {
                return Quantum::Done;
            }
        }
        session.note_yielded();
        Quantum::Yield
    }

    /// Holds the next quantum's windows once the held range runs out
    /// ([`Session::hold_through`]): the served ones are dropped, and at
    /// most `quantum_steps` windows are synthesized at a time. A session
    /// that still holds the next window is left alone, so a closed-batch
    /// session holding its whole recording is never re-spliced.
    fn hold_ahead(&self, session: &mut Session) {
        let next = session.window();
        if session.held_windows().end as u64 <= next {
            session.hold_through(next + self.ahead());
        }
    }

    /// Starts the next window's radio wait, if the session has one to
    /// serve: returns its deadline.
    fn park(&mut self, session: &Session) -> Option<Instant> {
        let stall_us = session.spec().io_stall_us;
        if stall_us == 0 || session.is_done() {
            return None;
        }
        let since = Instant::now();
        let deadline = since + Duration::from_micros(stall_us);
        self.parked = Some((since, deadline));
        Some(deadline)
    }

    /// Ends a parked wait: the wait is charged from its start to its
    /// deadline (returned, ns), and any delay past the deadline before
    /// this resume is the session's queueing.
    fn resume(&mut self, session: &mut Session) -> Option<u64> {
        let (since, deadline) = self.parked.take()?;
        session.note_resumed(deadline.elapsed().as_nanos() as u64);
        Some((deadline - since).as_nanos() as u64)
    }

    /// Applies a scheduled reconfiguration once its window boundary has
    /// arrived: recompile the new query against the session's
    /// deployment, re-solve the seizure ILP, and hand the resulting
    /// spec to the session's digest-checked cutover. Every failure is a
    /// typed rollback — the session keeps serving its old configuration
    /// and the record says why.
    fn maybe_reconfigure(&mut self, session: &mut Session) {
        let Some(req) = &self.reconfigure else { return };
        if session.window() < req.at_window || session.is_done() {
            return;
        }
        let req = self.reconfigure.take().expect("checked above");
        let shared = &*self.shared;
        shared.reconfigure_total.incr();
        let spec = session.spec().clone();
        let (plan, compile_us, resolve_us) = compile_query(&spec, &req.source);
        let mut record = ReconfigureRecord {
            id: spec.id,
            window: session.window(),
            compile_us,
            resolve_us,
            ..ReconfigureRecord::default()
        };
        let outcome = plan.map_err(|e| e.to_string()).and_then(|plan| {
            let t_cut = Instant::now();
            let result = session
                .reconfigure(bind_plan(spec, &plan), req.expected_step_digest)
                .map_err(|e| e.to_string());
            let cutover_ns = t_cut.elapsed().as_nanos() as u64;
            record.cutover_us = cutover_ns / 1_000;
            shared.cutover_us.observe(record.cutover_us);
            if result.is_ok() {
                session.note_reconfigured(cutover_ns);
            }
            result
        });
        match outcome {
            Ok(_) => {
                record.ok = true;
                // Checkpoint right at the cutover so durable recovery
                // replays the decision suffix from a snapshot that
                // already carries the new binding epoch.
                shared.log(|logger| logger.log_checkpoint(session));
            }
            Err(e) => {
                record.error = Some(e);
                shared.reconfigure_failed.incr();
            }
        }
        self.reconfigure_record = Some(record);
    }
}

impl WorkUnit for SessionJob {
    fn run_quantum(&mut self) -> Quantum {
        if self.shared.halted.load(Ordering::Relaxed) {
            return Quantum::Done;
        }
        if let Some(start) = self.start.take() {
            self.session = self.bring_in(start);
        }
        let Some(mut session) = self.session.take() else {
            return Quantum::Done;
        };
        let quantum = self.serve(&mut session);
        self.session = Some(session);
        quantum
    }
}

/// Compiles `source` and re-solves the seizure ILP budget for `spec`'s
/// deployment; also returns the compile and resolve latency, µs.
fn compile_query(spec: &SessionSpec, source: &str) -> (Result<ProgramPlan, PlanError>, u64, u64) {
    let t0 = Instant::now();
    let plan = ProgramPlan::compile(source);
    let compile_us = t0.elapsed().as_micros() as u64;
    let t1 = Instant::now();
    let plan = plan.and_then(|plan| {
        resolve_budget(&plan, spec.nodes, ScaloConfig::default().power_limit_mw).map(|_| plan)
    });
    (plan, compile_us, t1.elapsed().as_micros() as u64)
}

/// Binds a compiled plan's session knobs (movement cadence, reliable
/// transport, canonical query text) onto `spec`.
fn bind_plan(mut spec: SessionSpec, plan: &ProgramPlan) -> SessionSpec {
    let binding = plan.binding();
    spec.movement_every = binding.movement_every;
    spec.use_reliable_transport = binding.use_reliable_transport;
    spec.query = Some(plan.source().to_string());
    spec
}

/// Where a submitted session stands: refused, shed, or admitted and
/// cold (spec only), resident, swapped (an image on the NVM tier), in a
/// pool job, done, or failed closed.
#[derive(Debug, Default)]
pub(crate) enum Residency {
    Rejected,
    Shed,
    Cold(SessionSpec),
    Resident(Box<Session>),
    Swapped {
        decisions_fnv: u64,
    },
    #[default]
    InFlight,
    Done {
        decisions_fnv: u64,
    },
    Failed,
}

/// One row of the residency table.
#[derive(Debug, Default)]
pub(crate) struct Entry {
    pub(crate) priority: u8,
    /// Never an eviction victim (bounded resident sets only).
    pub(crate) pinned: bool,
    /// Logical LRU clock: the sequence number of this session's latest
    /// arrival (never wall time, so runs replay by seed).
    pub(crate) last_arrival_seq: u64,
    pub(crate) residency: Residency,
    /// Accounting mirrored from the session whenever it is in hand.
    pub(crate) steps: u64,
    pub(crate) deadline_misses: u64,
    pub(crate) swap_ins: u64,
    pub(crate) swap_outs: u64,
}

impl Entry {
    pub(crate) fn new(priority: u8, pinned: bool, residency: Residency) -> Self {
        Self {
            priority,
            pinned,
            residency,
            ..Self::default()
        }
    }

    fn resident(session: Session) -> Self {
        Self::new(
            session.priority(),
            false,
            Residency::Resident(Box::new(session)),
        )
    }
}

/// One epoch-loop pass: wall time, epochs that served an arrival, summed
/// pool accounting, and whether the kill switch (or a log failure) hit.
pub(crate) struct Served {
    pub(crate) wall_ms: f64,
    pub(crate) epochs: usize,
    pub(crate) pool: PoolReport,
    pub(crate) halted: bool,
}

/// The serving engine. Built with [`Fleet::new`] it serves a closed
/// batch: sessions are built at submission and [`Fleet::run`] is one
/// epoch in which each arrives with all of its windows.
/// [`crate::SwapFleet`] is the same engine over a bounded resident set.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    pub(crate) admission: AdmissionController,
    pub(crate) metrics: Arc<MetricsRegistry>,
    /// Every submitted id, ascending.
    pub(crate) table: BTreeMap<u64, Entry>,
    pub(crate) logger: Option<Arc<FleetLogger>>,
    reconfigures: BTreeMap<u64, ReconfigureRequest>,
    /// The NVM image tier (swap fleets only).
    pub(crate) swap: Option<Box<SwapTier>>,
    /// The LRU clock: arrivals sequenced so far.
    next_arrival_seq: u64,
    /// Per-stage trace histograms by `Stage::ALL` position, resolved
    /// lazily so an untraced run never materializes them.
    stage_hists: Vec<Option<Arc<Histogram>>>,
    /// Completed sessions' report rows (closed batches only).
    served: Vec<SessionServing>,
    reconfigure_records: Vec<ReconfigureRecord>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Self {
            cfg,
            admission: AdmissionController::new(cfg.admission),
            metrics: Arc::new(MetricsRegistry::new()),
            table: BTreeMap::new(),
            logger: None,
            reconfigures: BTreeMap::new(),
            swap: None,
            next_arrival_seq: 0,
            stage_hists: vec![None; scalo_trace::Stage::ALL.len()],
            served: Vec::new(),
            reconfigure_records: Vec::new(),
        }
    }

    /// An empty durable fleet: admissions, per-window decisions, and
    /// periodic checkpoints are written ahead to the log at `dcfg.dir`,
    /// so a killed process can [`Self::recover`].
    pub fn open_durable(
        cfg: FleetConfig,
        dcfg: &DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        Self::new(cfg).with_log(dcfg)
    }

    pub(crate) fn with_log(mut self, dcfg: &DurabilityConfig) -> Result<Self, DurabilityError> {
        self.logger = Some(Arc::new(FleetLogger::open(dcfg, &self.metrics)?));
        Ok(self)
    }

    /// Recovers a durable fleet from the log at `dcfg.dir`: every
    /// admitted-but-unfinished session is reconstructed at its last
    /// checkpoint and re-run to the log head with byte-identical digests
    /// asserted window by window (see [`crate::durable::recover_sessions`]).
    /// Recovered sessions are re-admitted, re-checkpointed into a fresh
    /// log segment (bounding the next recovery), and the fleet is ready
    /// to [`Self::run`] the remainder.
    pub fn recover(
        cfg: FleetConfig,
        dcfg: &DurabilityConfig,
    ) -> Result<(Self, RecoveryReport), DurabilityError> {
        let (sessions, report) = crate::durable::recover_sessions(&dcfg.dir)?;
        let mut fleet = Self::new(cfg).with_log(dcfg)?;
        let logger = Arc::clone(fleet.logger.as_ref().expect("just opened"));
        for session in sessions {
            let spec = session.spec();
            let decision = fleet
                .admission
                .offer(spec.id, spec.priority, spec.cost_estimate());
            if !decision.admitted || !decision.shed.is_empty() {
                // Same specs, same budget: re-admission shedding or
                // refusing means the configs diverged from the logged
                // run — refuse to limp along with a partial fleet.
                return Err(DurabilityError::ReadmissionFailed { session: spec.id });
            }
            logger.log_checkpoint(&session)?;
            fleet.table.insert(session.id(), Entry::resident(session));
        }
        let m = &fleet.metrics;
        m.counter("fleet.recoveries").incr();
        m.counter("fleet.recovered_sessions")
            .add(report.sessions_recovered as u64);
        m.counter("fleet.replayed_windows")
            .add(report.windows_replayed);
        m.histogram("fleet.recovery_ms")
            .observe(report.recovery_ms as u64);
        Ok((fleet, report))
    }

    /// The fleet's metrics registry.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// The admission controller (budget usage, transition log).
    pub fn admission(&self) -> &AdmissionController {
        &self.admission
    }

    /// The write-ahead logger (durable fleets only).
    pub fn logger(&self) -> Option<&Arc<FleetLogger>> {
        self.logger.as_ref()
    }

    /// Where each submitted session currently stands.
    pub fn submit_state(&self, id: u64) -> Option<SubmitState> {
        self.table.get(&id).map(|e| match e.residency {
            Residency::Rejected => SubmitState::Rejected,
            Residency::Shed => SubmitState::Shed,
            _ => SubmitState::Admitted,
        })
    }

    /// Offers a session to the fleet. A closed batch builds an admitted
    /// session at once (recording generated, detectors trained) and
    /// drops the sessions admission control shed to make room. A swap
    /// fleet admits it cold, by spec only, charging admitted-set
    /// capacity; its build runs at first arrival. Refusals say why:
    /// budget pressure ([`AdmitError::BudgetExhausted`]), a full
    /// admitted set ([`AdmitError::CapacityExhausted`]), a pinned
    /// session with no guaranteed resident slot
    /// ([`AdmitError::PinnedResidencyExhausted`]), an id collision
    /// ([`AdmitError::DuplicateId`]), or an earlier eviction
    /// ([`AdmitError::Shed`]). A refused id may be offered again.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<(), AdmitError> {
        match self.table.get(&spec.id).map(|e| &e.residency) {
            None | Some(Residency::Rejected) => {}
            Some(Residency::Shed) => return Err(AdmitError::Shed { id: spec.id }),
            Some(_) => return Err(AdmitError::DuplicateId { id: spec.id }),
        }
        if self.swap.is_some() {
            return self.admit_cold(spec);
        }
        let cost = spec.cost_estimate();
        let decision = self.admission.offer(spec.id, spec.priority, cost);
        if !decision.admitted {
            // The controller logged the post-hypothetical-shed headroom
            // with its rejection; surface that number to the caller.
            let headroom = match self.admission.log().last() {
                Some(AdmissionEvent::Rejected { headroom, .. }) => *headroom,
                _ => self.admission.headroom(),
            };
            let err = AdmitError::BudgetExhausted { cost, headroom };
            return self.refuse(spec.id, spec.priority, err);
        }
        for victim in decision.shed {
            if let Some(entry) = self.table.get_mut(&victim) {
                entry.residency = Residency::Shed;
            }
            self.metrics.counter("fleet.shed").incr();
            log_or_poison(&self.logger, |logger| logger.log_shed(victim));
        }
        self.metrics.counter("fleet.admitted").incr();
        let session = Session::new(spec);
        log_or_poison(&self.logger, |logger| logger.log_admit(&session));
        self.table.insert(session.id(), Entry::resident(session));
        Ok(())
    }

    /// Records a refusal at the front door and returns it.
    pub(crate) fn refuse(
        &mut self,
        id: u64,
        priority: u8,
        err: AdmitError,
    ) -> Result<(), AdmitError> {
        self.table
            .insert(id, Entry::new(priority, false, Residency::Rejected));
        self.metrics.counter("fleet.rejected").incr();
        Err(err)
    }

    /// Offers a query-backed session: compiles `source` into a window
    /// plan, re-solves the ILP admission budget for the spec's
    /// deployment, binds the derived session knobs (movement cadence,
    /// reliable transport, canonical query text) onto `base`, and then
    /// admits through the normal [`Fleet::submit`] path. Compile and
    /// budget-resolve latency land in the `fleet.query_compile_us` /
    /// `fleet.query_resolve_us` histograms.
    pub fn submit_query(
        &mut self,
        base: SessionSpec,
        source: &str,
    ) -> Result<(), QuerySubmitError> {
        let (plan, compile_us, resolve_us) = compile_query(&base, source);
        let plan = plan.map_err(QuerySubmitError::Plan)?;
        self.metrics
            .histogram("fleet.query_compile_us")
            .observe(compile_us);
        self.metrics
            .histogram("fleet.query_resolve_us")
            .observe(resolve_us);
        self.submit(bind_plan(base, &plan))
            .map_err(QuerySubmitError::Admit)
    }

    /// Schedules a hot reconfiguration for session `id`: once the
    /// session reaches `at_window` during [`Fleet::run`], `source` is
    /// compiled, the budget re-solved, and the session cut over at the
    /// window boundary — rolling back (and recording the error) if the
    /// compile, solve, or digest pin fails. One pending request per
    /// session; a later call replaces an earlier one.
    pub fn schedule_reconfigure(
        &mut self,
        id: u64,
        at_window: u64,
        source: &str,
        expected_step_digest: Option<u64>,
    ) {
        self.reconfigures.insert(
            id,
            ReconfigureRequest {
                at_window,
                source: source.to_string(),
                expected_step_digest,
            },
        );
    }

    /// Runs every admitted session to completion (or to the
    /// [`FleetConfig::halt_after_windows`] kill point) and reports. The
    /// closed batch is one epoch: every session is resident and arrives
    /// with all of its remaining windows.
    pub fn run(mut self) -> FleetReport {
        let batch: Vec<Arrival> = self
            .table
            .iter()
            .filter(|(_, e)| matches!(e.residency, Residency::Resident(_)))
            .map(|(&session, _)| Arrival {
                at_us: 0,
                session,
                windows: u32::MAX,
            })
            .collect();
        let served = self.serve(std::slice::from_ref(&batch));
        // Sessions the kill stopped mid-run report where they stand.
        for arrival in &batch {
            let residency = &mut self
                .table
                .get_mut(&arrival.session)
                .expect("admitted")
                .residency;
            if let Residency::Resident(_) = residency {
                let Residency::Resident(mut session) = std::mem::take(residency) else {
                    unreachable!("checked above");
                };
                let row = self.serving_row(&mut session);
                self.served.push(row);
            }
        }
        let mut sessions = std::mem::take(&mut self.served);
        sessions.sort_by_key(|s| s.id);
        let mut reconfigures = std::mem::take(&mut self.reconfigure_records);
        reconfigures.sort_by_key(|r| r.id);
        let ids = |want: fn(&Residency) -> bool| -> Vec<u64> {
            self.table
                .iter()
                .filter(|(_, e)| want(&e.residency))
                .map(|(&id, _)| id)
                .collect()
        };
        FleetReport {
            workers: self.cfg.workers,
            wall_ms: served.wall_ms,
            windows: sessions.iter().map(|s| s.steps).sum(),
            deadline_misses: sessions.iter().map(|s| s.deadline_misses).sum(),
            sessions,
            reconfigures,
            rejected: ids(|r| matches!(r, Residency::Rejected)),
            shed: ids(|r| matches!(r, Residency::Shed)),
            admission_log: self.admission.log().to_vec(),
            pool: served.pool,
            metrics_json: self.metrics.to_json(),
            durability: self.durability_summary(!served.halted),
        }
    }

    /// The one epoch loop: serves `epochs` in turn, deferred arrivals
    /// ahead of fresh ones, until both drain or the kill switch fires. A
    /// halted run skips the clean shutdown, losing the buffered log tail
    /// exactly as a killed process would.
    pub(crate) fn serve(&mut self, epochs: &[Vec<Arrival>]) -> Served {
        let m = &self.metrics;
        let tier_histogram = |name| self.swap.as_ref().map(|_| m.histogram(name));
        let shared = Arc::new(Shared {
            quantum_steps: self.cfg.quantum_steps,
            halt_after_windows: self.cfg.halt_after_windows,
            windows_stepped: AtomicU64::new(0),
            halted: AtomicBool::new(false),
            logger: self.logger.clone(),
            step_latency: m.histogram("fleet.step_latency_us"),
            steps: m.counter("fleet.steps"),
            misses: m.counter("fleet.deadline_misses"),
            reconfigure_total: m.counter("fleet.reconfigure_total"),
            reconfigure_failed: m.counter("fleet.reconfigure_failed"),
            cutover_us: m.histogram("fleet.reconfigure_cutover_us"),
            cold_build_us: tier_histogram("fleet.cold_build_us"),
            swap_in_us: tier_histogram("fleet.swap_in_us"),
            cold_build_cpu_us: tier_histogram("fleet.cold_build_cpu_us"),
            swap_in_cpu_us: tier_histogram("fleet.swap_in_cpu_us"),
        });
        let deferred_ctr = m.counter("fleet.arrivals_deferred");
        let dropped_ctr = m.counter("fleet.arrivals_dropped");
        let mut pool = PoolReport {
            workers: self.cfg.workers,
            ..PoolReport::default()
        };
        let mut deferred: Vec<Arrival> = Vec::new();
        let (mut served_epochs, mut next) = (0, 0);
        let t0 = Instant::now();
        while next < epochs.len() || !deferred.is_empty() {
            let fresh = epochs.get(next).cloned().unwrap_or_default();
            next += 1;
            let arrivals = merge_arrivals(std::mem::take(&mut deferred), fresh);
            if arrivals.is_empty() {
                continue;
            }
            self.run_epoch(&shared, &arrivals, &mut deferred, &mut pool);
            served_epochs += 1;
            deferred_ctr.add(deferred.len() as u64);
            if shared.halted.load(Ordering::Relaxed) {
                break;
            }
            if next >= epochs.len() && deferred.len() == arrivals.len() {
                // Drain stall: every remaining arrival needs a slot and
                // none can open (all residents pinned or arriving).
                dropped_ctr.add(deferred.len() as u64);
                deferred.clear();
                break;
            }
        }
        let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;
        let halted = shared.halted.load(Ordering::Relaxed);
        if !halted {
            self.clean_shutdown();
        }
        Served {
            wall_ms,
            epochs: served_epochs,
            pool,
            halted,
        }
    }

    /// Serves one epoch: each arriving session is made resident (as it
    /// is, built cold, or faulted in) in a pool job that steps its
    /// burst, and is put back in the table. Arrivals that get no
    /// resident slot go to `deferred`.
    fn run_epoch(
        &mut self,
        shared: &Arc<Shared>,
        arrivals: &[Arrival],
        deferred: &mut Vec<Arrival>,
        pool: &mut PoolReport,
    ) {
        let arriving: BTreeSet<u64> = arrivals.iter().map(|a| a.session).collect();
        let mut late = 0u64;
        let mut jobs: Vec<SessionJob> = Vec::new();
        for &arrival in arrivals {
            let id = arrival.session;
            let Some(entry) = self.table.get_mut(&id) else {
                late += 1;
                continue;
            };
            match entry.residency {
                Residency::Cold(_) | Residency::Resident(_) | Residency::Swapped { .. } => {}
                Residency::InFlight => unreachable!("one merged arrival per session per epoch"),
                _ => {
                    // Completed, failed, refused, or shed.
                    late += 1;
                    continue;
                }
            }
            entry.last_arrival_seq = self.next_arrival_seq;
            self.next_arrival_seq += 1;
            let (session, start) =
                match std::mem::replace(&mut entry.residency, Residency::InFlight) {
                    Residency::Resident(session) => (Some(*session), None),
                    parked => match self.bring_in(arrival, parked, &arriving, deferred) {
                        Some(start) => (None, Some(start)),
                        None => continue,
                    },
                };
            jobs.push(SessionJob {
                shared: Arc::clone(shared),
                id,
                start,
                session,
                burst: u64::from(arrival.windows),
                reconfigure: self.reconfigures.remove(&id),
                reconfigure_record: None,
                parked: None,
            });
        }
        self.metrics
            .counter("fleet.arrivals_served")
            .add(jobs.len() as u64);
        self.metrics.counter("fleet.arrivals_late").add(late);
        if !jobs.is_empty() {
            let (done, report) = pool::run_to_completion(jobs, self.cfg.workers);
            pool.quanta += report.quanta;
            pool.steals += report.steals;
            for job in done {
                self.finish(job);
            }
        }
        if let Some(tier) = &self.swap {
            tier.refresh_gauges(self.admission.resident_count());
        }
    }

    /// Puts a job's session back: parked again when the kill left its
    /// start unrun, retired when its restore failed closed, otherwise
    /// settled.
    fn finish(&mut self, job: SessionJob) {
        self.reconfigure_records.extend(job.reconfigure_record);
        match (job.start, job.session) {
            (Some(start), _) => self.put_back(start),
            (None, Some(session)) => self.settle(session),
            (None, None) => self.fail_closed(job.id),
        }
    }

    /// Puts a session back after its burst: resident while it has
    /// windows left, otherwise retired with its decision fingerprint.
    fn settle(&mut self, mut session: Session) {
        let id = session.id();
        let report = session.report();
        let entry = self.table.get_mut(&id).expect("in-flight session");
        entry.steps = report.steps;
        entry.deadline_misses = report.deadline_misses;
        if !session.is_done() {
            entry.residency = Residency::Resident(Box::new(session));
            return;
        }
        let row = self.serving_row(&mut session);
        let decisions_fnv = fnv1a(row.digest.as_bytes());
        self.retire(id, Residency::Done { decisions_fnv });
        self.metrics.counter("fleet.completed").incr();
        if self.swap.is_none() {
            self.served.push(row);
        }
    }

    /// Releases `id`'s admission (slot, budget, pin) and records its
    /// final standing.
    pub(crate) fn retire(&mut self, id: u64, residency: Residency) {
        self.admission.release(id);
        let entry = self.table.get_mut(&id).expect("admitted session");
        entry.residency = residency;
        if entry.pinned {
            if let Some(tier) = &mut self.swap {
                tier.pinned_admitted -= 1;
            }
        }
    }

    /// The report row for a session leaving the run.
    fn serving_row(&mut self, session: &mut Session) -> SessionServing {
        let report = session.report();
        SessionServing {
            id: report.id,
            priority: session.priority(),
            steps: report.steps,
            deadline_misses: report.deadline_misses,
            wall_us: report.wall_us,
            sim_us: report.sim_us,
            digest: session.decision_digest(),
            trace: self.drain_trace(session),
        }
    }

    /// Drains `session`'s spans into the `trace.stage.<stage>.span_us`
    /// histograms and the `trace.*` counters.
    pub(crate) fn drain_trace(&mut self, session: &mut Session) -> Vec<SpanEvent> {
        let trace = session.take_trace_events();
        for ev in &trace {
            // A stage this build predates is skipped, not a crash.
            let Some(idx) = scalo_trace::Stage::ALL.iter().position(|s| *s == ev.stage) else {
                continue;
            };
            self.stage_hists[idx]
                .get_or_insert_with(|| {
                    self.metrics
                        .histogram(&format!("trace.stage.{}.span_us", ev.stage.name()))
                })
                .observe(ev.dur_ns() / 1_000);
        }
        let (m, rec) = (&self.metrics, session.trace());
        m.counter("trace.spans").add(trace.len() as u64);
        m.counter("trace.dropped").add(rec.dropped());
        m.counter("trace.unbalanced").add(rec.unbalanced());
        trace
    }

    /// Clean shutdown: durable fleets checkpoint every resident
    /// unfinished session and sync the log tail.
    fn clean_shutdown(&self) {
        log_or_poison(&self.logger, |logger| {
            let checkpoints = self.table.values().try_for_each(|e| match &e.residency {
                Residency::Resident(session) => logger.log_checkpoint(session),
                _ => Ok(()),
            });
            checkpoints.and(logger.finish())
        });
    }

    /// Write-ahead-log accounting (durable fleets only).
    pub(crate) fn durability_summary(&self, clean_shutdown: bool) -> Option<DurabilitySummary> {
        self.logger.as_ref().map(|logger| {
            let stats = logger.stats();
            DurabilitySummary {
                records: stats.records,
                appended_bytes: stats.appended_bytes,
                padding_bytes: stats.padding_bytes,
                pages_written: stats.pages_written,
                fsyncs: stats.fsyncs,
                segments: stats.segments,
                nvm_time_us: logger.cost().time_us,
                clean_shutdown,
                error: logger.error_string(),
            }
        })
    }
}

/// Appends fresh arrivals to the deferred (older) ones, merging a
/// session's fresh burst into its deferred one (an epoch carries at most
/// one arrival per session).
fn merge_arrivals(mut deferred: Vec<Arrival>, fresh: Vec<Arrival>) -> Vec<Arrival> {
    let older = deferred.len();
    for a in fresh {
        match deferred[..older]
            .iter_mut()
            .find(|d| d.session == a.session)
        {
            Some(d) => {
                d.windows = d.windows.saturating_add(a.windows);
                d.at_us = d.at_us.min(a.at_us);
            }
            None => deferred.push(a),
        }
    }
    deferred
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(id: u64) -> SessionSpec {
        SessionSpec::new(id, 0x100 + id).with_duration_s(0.3)
    }

    #[test]
    fn merge_arrivals_sums_bursts_and_keeps_order() {
        let a = |s: u64, w: u32, t: u64| Arrival {
            at_us: t,
            session: s,
            windows: w,
        };
        let merged = merge_arrivals(
            vec![a(1, 4, 10), a(2, 6, 11)],
            vec![a(2, 5, 90), a(3, 1, 95)],
        );
        assert_eq!(merged, vec![a(1, 4, 10), a(2, 11, 11), a(3, 1, 95)]);
        assert_eq!(merge_arrivals(vec![], vec![a(9, 2, 0)]), vec![a(9, 2, 0)]);
    }

    #[test]
    fn serves_a_small_fleet() {
        let mut fleet = Fleet::new(FleetConfig::new(2).with_quantum_steps(4));
        for id in 0..3 {
            fleet.submit(small_spec(id)).unwrap();
        }
        let report = fleet.run();
        assert_eq!(report.sessions.len(), 3);
        assert_eq!(report.windows, 3 * 75);
        assert!(report.windows_per_sec() > 0.0);
        assert!(report.rejected.is_empty());
        assert!(report.metrics_json.contains("fleet.step_latency_us"));
        assert!(report.to_json().contains("\"decisions_fnv\""));
    }

    #[test]
    fn workspace_reuse_across_quantum_switches_keeps_digests() {
        // Each session's Workspace is warmed by its first window and
        // then carried across every quantum switch. Quantum 1 forces a
        // worker to hop sessions after every single window — maximal
        // interleaving of warm workspaces — and must still produce the
        // same decision digests as run-to-completion (quantum larger
        // than any session).
        let run = |quantum: usize| {
            let mut fleet = Fleet::new(FleetConfig::new(1).with_quantum_steps(quantum));
            for id in 0..3 {
                fleet.submit(small_spec(id)).unwrap();
            }
            fleet.run()
        };
        let interleaved = run(1);
        let monolithic = run(100_000);
        assert_eq!(interleaved.sessions.len(), monolithic.sessions.len());
        for (a, b) in interleaved.sessions.iter().zip(&monolithic.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.digest, b.digest, "session {} digest drifted", a.id);
        }
    }

    #[test]
    fn traced_serving_keeps_digests_and_merges_histograms() {
        let run = |cap: usize| {
            let mut fleet = Fleet::new(FleetConfig::new(2).with_quantum_steps(3));
            for id in 0..3 {
                fleet
                    .submit(small_spec(id).with_trace_capacity(cap))
                    .unwrap();
            }
            fleet.run()
        };
        let untraced = run(0);
        let traced = run(16 * 1024);
        // Tracing observes, never steers: per-session decisions are
        // byte-identical with the recorder on or off.
        assert_eq!(untraced.sessions.len(), traced.sessions.len());
        for (a, b) in untraced.sessions.iter().zip(&traced.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.digest, b.digest, "session {} digest drifted", a.id);
        }
        assert!(untraced.sessions.iter().all(|s| s.trace.is_empty()));
        assert!(traced.sessions.iter().all(|s| !s.trace.is_empty()));
        // Quantum switches were recorded as run-queue waits.
        assert!(traced
            .sessions
            .iter()
            .any(|s| s.trace.iter().any(|e| e.stage == scalo_trace::Stage::Queue)));
        // The registry export carries the per-stage latency histograms.
        assert!(traced.metrics_json.contains("trace.stage.window.span_us"));
        assert!(traced.metrics_json.contains("trace.stage.filter.span_us"));
        assert!(!untraced.metrics_json.contains("trace.stage."));
    }

    #[test]
    fn over_budget_submission_is_rejected_not_run() {
        let mut fleet = Fleet::new(FleetConfig::new(1).with_budget(8.0));
        fleet.submit(small_spec(1)).unwrap();
        assert!(
            matches!(
                fleet.submit(small_spec(2)),
                Err(AdmitError::BudgetExhausted { .. })
            ),
            "budget 8 fits one cost-8"
        );
        assert_eq!(fleet.submit_state(2), Some(SubmitState::Rejected));
        let report = fleet.run();
        assert_eq!(report.sessions.len(), 1);
        assert_eq!(report.rejected, vec![2]);
    }

    #[test]
    fn higher_priority_sheds_queued_lower_priority() {
        let mut fleet = Fleet::new(FleetConfig::new(1).with_budget(16.0));
        fleet.submit(small_spec(1).with_priority(1)).unwrap();
        fleet.submit(small_spec(2).with_priority(1)).unwrap();
        fleet.submit(small_spec(3).with_priority(7)).unwrap();
        assert_eq!(fleet.submit_state(2), Some(SubmitState::Shed));
        let report = fleet.run();
        let ids: Vec<u64> = report.sessions.iter().map(|s| s.id).collect();
        assert_eq!(ids, vec![1, 3], "newest low-priority session shed first");
        assert_eq!(report.shed, vec![2]);
    }

    #[test]
    fn query_admission_matches_spec_construction() {
        use scalo_core::catalog;

        // Every built-in app, admitted by query string, must decide
        // byte-identically to the same deployment built by hand.
        let mut reliable = small_spec(2);
        reliable.use_reliable_transport = true;
        let by_hand = [
            small_spec(1),
            reliable,
            small_spec(3).with_movement_every(25),
        ];
        let sources = [
            catalog::SEIZURE_WATCH,
            catalog::SEIZURE_RELIABLE,
            catalog::MOVEMENT_MIX,
        ];

        let mut spec_fleet = Fleet::new(FleetConfig::new(2));
        for spec in &by_hand {
            spec_fleet.submit(spec.clone()).unwrap();
        }
        let baseline = spec_fleet.run();

        let mut query_fleet = Fleet::new(FleetConfig::new(2));
        for (spec, source) in by_hand.iter().zip(sources) {
            // The base spec carries deployment knobs only; the query
            // supplies movement cadence and transport reliability.
            let base = SessionSpec::new(spec.id, spec.seed).with_duration_s(0.3);
            query_fleet.submit_query(base, source).unwrap();
        }
        let report = query_fleet.run();

        for (a, b) in baseline.sessions.iter().zip(&report.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.digest, b.digest, "session {} diverged", a.id);
        }
        assert!(report.metrics_json.contains("fleet.query_compile_us"));
        assert!(report.metrics_json.contains("fleet.query_resolve_us"));
    }

    #[test]
    fn malformed_query_is_refused_before_admission() {
        let mut fleet = Fleet::new(FleetConfig::new(1));
        let err = fleet
            .submit_query(small_spec(9), "var broken = stream.window(wsize=4ms")
            .unwrap_err();
        assert!(matches!(err, QuerySubmitError::Plan(_)));
        assert_eq!(fleet.submit_state(9), None, "nothing was admitted");
    }

    #[test]
    fn hot_reconfigure_cuts_over_mid_run() {
        use scalo_core::catalog;

        let mut fleet = Fleet::new(FleetConfig::new(1).with_quantum_steps(4));
        fleet
            .submit_query(small_spec(4), catalog::SEIZURE_WATCH)
            .unwrap();
        fleet.schedule_reconfigure(4, 20, catalog::MOVEMENT_MIX, None);
        let report = fleet.run();

        assert_eq!(report.reconfigures.len(), 1);
        let rec = &report.reconfigures[0];
        assert_eq!(rec.id, 4);
        assert!(rec.ok, "cutover failed: {:?}", rec.error);
        assert_eq!(rec.window, 20);
        assert!(report.metrics_json.contains("fleet.reconfigure_total"));
        assert!(report.metrics_json.contains("fleet.reconfigure_cutover_us"));
        assert!(report.to_json().contains("\"reconfigures\""));
    }

    #[test]
    fn reconfigure_digest_mismatch_rolls_back() {
        use scalo_core::catalog;

        // Pin the cutover to a digest the session will never have: the
        // reconfiguration must fail, and the session must finish with
        // decisions identical to a run that never tried.
        let mut baseline = Fleet::new(FleetConfig::new(1));
        baseline.submit(small_spec(5)).unwrap();
        let want = baseline.run().sessions[0].digest.clone();

        let mut fleet = Fleet::new(FleetConfig::new(1));
        fleet.submit(small_spec(5)).unwrap();
        fleet.schedule_reconfigure(5, 10, catalog::MOVEMENT_MIX, Some(0xdead_beef));
        let report = fleet.run();

        let rec = &report.reconfigures[0];
        assert!(!rec.ok);
        assert!(
            rec.error.as_deref().unwrap_or("").contains("digest"),
            "unexpected error: {:?}",
            rec.error
        );
        assert_eq!(
            report.sessions[0].digest, want,
            "rolled-back session must keep its old configuration"
        );
        assert!(report.metrics_json.contains("fleet.reconfigure_failed"));
    }
}
