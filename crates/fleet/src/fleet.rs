//! The fleet itself: admission at the front door, a worker pool in the
//! middle, metrics and per-session decision digests on the way out.

use crate::admission::{AdmissionConfig, AdmissionController, AdmissionEvent};
use crate::durable::{DurabilityConfig, DurabilityError, FleetLogger, RecoveryReport};
use crate::metrics::{Counter, Histogram, MetricsRegistry};
use crate::pool::{self, PoolReport, Quantum, WorkUnit};
use scalo_core::cohort::{Cohort, CohortKey};
use scalo_core::plan::{resolve_budget, PlanConfig, PlanError, ProgramPlan};
use scalo_core::session::{Session, SessionSpec, StepOutcome};
use scalo_core::snapshot::fnv1a;
use scalo_core::ScaloConfig;
use scalo_trace::SpanEvent;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Worker threads in the pool.
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
    /// Cohort-batched execution: group admitted sessions whose specs
    /// share a [`CohortKey`] (same deployment shape, duration, BER,
    /// cadence, transport, stall) into one lockstep job — one radio
    /// stall, one block hash, one FFT-plan walk per cohort window.
    /// Every job runs the same window engine; this only decides the
    /// group sizes (off: every session is a group of one). Decisions
    /// are bit-identical either way; sessions with a pending hot
    /// reconfiguration stay groups of one so cutover replay never runs
    /// inside a lockstep group.
    pub cohort: bool,
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
            cohort: false,
        }
    }

    /// Enables (or disables) cohort-batched execution.
    pub fn with_cohort(mut self, on: bool) -> Self {
        self.cohort = on;
        self
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
    /// The id was already submitted (a caller bug, not a capacity
    /// condition).
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
#[derive(Debug, Clone, PartialEq)]
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
    /// Snapshot → digest-verified replay → swap latency, µs.
    pub cutover_us: u64,
    /// Windows the digest-checking replay re-executed.
    pub replayed_windows: u64,
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
    /// End-to-end wall-clock time of the run, ms.
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
    /// Job group sizes the scheduler formed, largest first (cohort mode
    /// only; empty otherwise). A size ≥ 2 is a fused cohort; a 1 is a
    /// solo job — a shape with no twin, or a session ejected for a
    /// pending reconfiguration. The sizes sum to the served session
    /// count, so this doubles as the cohort occupancy histogram.
    pub cohorts: Vec<usize>,
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
        let _ = write!(out, ",\"cohorts\":{:?}", self.cohorts);
        out.push_str(",\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"priority\":{},\"steps\":{},\"deadline_misses\":{},\"wall_us\":{},\"sim_us\":{},\"decisions_fnv\":\"{:016x}\"}}",
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
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"id\":{},\"window\":{},\"ok\":{},\"error\":{},\"compile_us\":{},\"resolve_us\":{},\"cutover_us\":{},\"replayed_windows\":{}}}",
                r.id,
                r.window,
                r.ok,
                match &r.error {
                    Some(e) => format!("{e:?}"),
                    None => "null".to_string(),
                },
                r.compile_us,
                r.resolve_us,
                r.cutover_us,
                r.replayed_windows,
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
                match &d.error {
                    Some(e) => format!("{:?}", e),
                    None => "null".to_string(),
                },
            );
        }
        out.push('}');
        out
    }
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

/// The pool's one job type: a group of sessions stepped in lockstep
/// through the window engine ([`scalo_core::cohort`]), plus the metric
/// handles it feeds (resolved once here so the step loop never takes the
/// registry lock). A solo session is a group of one; one quantum
/// advances every member by `quantum_steps` windows.
struct GroupJob {
    sessions: Vec<Session>,
    engine: Cohort,
    outcomes: Vec<StepOutcome>,
    quantum_steps: usize,
    fleet_latency: Arc<Histogram>,
    /// Per-member `session.<id>.step_latency_us` handles, member order.
    session_latency: Vec<Arc<Histogram>>,
    steps: Arc<Counter>,
    misses: Arc<Counter>,
    /// Write-ahead logging (durable fleets only).
    logger: Option<Arc<FleetLogger>>,
    /// Fleet-wide window counter feeding the kill switch.
    windows_stepped: Arc<AtomicU64>,
    /// Kill switch: once set, every job returns immediately.
    halted: Arc<AtomicBool>,
    halt_after_windows: Option<u64>,
    /// Pending hot reconfiguration (groups of one only: a cutover's
    /// replay would desync a lockstep cursor), taken when its window
    /// arrives.
    reconfigure: Option<ReconfigureRequest>,
    /// What the reconfiguration did, harvested into the report.
    reconfigure_record: Option<ReconfigureRecord>,
    reconfigure_total: Arc<Counter>,
    reconfigure_failed: Arc<Counter>,
    cutover_hist: Arc<Histogram>,
}

/// Per-window durability hooks, run for every member's window: one
/// decision record per window (allocation-free), a checkpoint snapshot
/// every cadence windows, and a completion record. A log failure halts
/// the fleet — it must never keep serving while silently losing its
/// history.
fn log_window(
    logger: &Option<Arc<FleetLogger>>,
    halted: &AtomicBool,
    session: &Session,
    window: usize,
    done: bool,
) {
    let Some(logger) = logger else { return };
    let id = session.id();
    let digest = session.step_digest();
    let mut result = logger.log_decision(id, window as u32, digest);
    if result.is_ok() {
        let completed = window as u64 + 1;
        if !done && completed.is_multiple_of(logger.checkpoint_every_windows()) {
            result = logger.log_checkpoint(session);
        }
        if done && result.is_ok() {
            let fnv = fnv1a(session.decision_digest().as_bytes());
            result = logger.log_done(id, fnv);
        }
    }
    if let Err(e) = result {
        logger.poison(e);
        halted.store(true, Ordering::Relaxed);
    }
}

impl GroupJob {
    /// Applies a scheduled reconfiguration once its window boundary has
    /// arrived: recompile the new query against the session's
    /// deployment, re-solve the seizure ILP, and hand the resulting
    /// spec to the session's digest-checked cutover. Every failure is a
    /// typed rollback — the session keeps serving its old configuration
    /// and the record says why.
    fn maybe_reconfigure(&mut self) {
        let Some(req) = &self.reconfigure else { return };
        let session = &mut self.sessions[0];
        if session.window() < req.at_window || session.is_done() {
            return;
        }
        let req = self.reconfigure.take().expect("checked above");
        self.reconfigure_total.incr();
        let window = session.window();
        let spec = session.spec().clone();
        let t_compile = Instant::now();
        let cfg = PlanConfig {
            channels: spec.electrodes,
            seed: spec.seed,
        };
        let compiled = ProgramPlan::compile(&req.source, &cfg);
        let compile_us = t_compile.elapsed().as_micros() as u64;
        let mut record = ReconfigureRecord {
            id: spec.id,
            window,
            ok: false,
            error: None,
            compile_us,
            resolve_us: 0,
            cutover_us: 0,
            replayed_windows: 0,
        };
        let outcome = compiled
            .and_then(|plan| {
                let t_resolve = Instant::now();
                let budget =
                    resolve_budget(&plan, spec.nodes, ScaloConfig::default().power_limit_mw);
                record.resolve_us = t_resolve.elapsed().as_micros() as u64;
                budget.map(|_| plan)
            })
            .map_err(|e| e.to_string())
            .and_then(|plan| {
                let binding = plan.binding();
                let mut new_spec = spec;
                new_spec.movement_every = binding.movement_every;
                new_spec.use_reliable_transport = binding.use_reliable_transport;
                new_spec.query = Some(plan.source().to_string());
                let t_cut = Instant::now();
                let result = session
                    .reconfigure(new_spec, req.expected_step_digest)
                    .map_err(|e| e.to_string());
                let cutover_ns = t_cut.elapsed().as_nanos() as u64;
                record.cutover_us = cutover_ns / 1_000;
                self.cutover_hist.observe(record.cutover_us);
                if result.is_ok() {
                    session.note_reconfigured(cutover_ns);
                }
                result
            });
        match outcome {
            Ok(out) => {
                record.ok = true;
                record.replayed_windows = out.replayed_windows;
                // Checkpoint right at the cutover so durable recovery
                // replays the decision suffix from a snapshot that
                // already carries the new binding epoch.
                if let Some(logger) = &self.logger {
                    if let Err(e) = logger.log_checkpoint(session) {
                        logger.poison(e);
                        self.halted.store(true, Ordering::Relaxed);
                    }
                }
            }
            Err(e) => {
                record.error = Some(e);
                self.reconfigure_failed.incr();
            }
        }
        self.reconfigure_record = Some(record);
    }
}

impl WorkUnit for GroupJob {
    fn run_quantum(&mut self) -> Quantum {
        if self.halted.load(Ordering::Relaxed) {
            return Quantum::Done;
        }
        // Close any pending run-queue gap as a `queue` span (no-op when
        // a session's recorder is disabled).
        for s in self.sessions.iter_mut() {
            s.note_scheduled();
        }
        for _ in 0..self.quantum_steps {
            self.maybe_reconfigure();
            self.engine
                .step_window(&mut self.sessions, &mut self.outcomes);
            for (m, out) in self.outcomes.iter().enumerate() {
                self.fleet_latency.observe(out.wall_us);
                self.session_latency[m].observe(out.wall_us);
                self.steps.incr();
                if out.deadline_missed {
                    self.misses.incr();
                }
                log_window(
                    &self.logger,
                    &self.halted,
                    &self.sessions[m],
                    out.window,
                    out.done,
                );
            }
            if let Some(halt) = self.halt_after_windows {
                let n = self.outcomes.len() as u64;
                if self.windows_stepped.fetch_add(n, Ordering::Relaxed) + n >= halt {
                    // The kill: stop the pool mid-flight, no final sync.
                    self.halted.store(true, Ordering::Relaxed);
                    return Quantum::Done;
                }
            }
            // Lockstep: a shared duration means members finish together.
            if self.outcomes.iter().all(|o| o.done) {
                return Quantum::Done;
            }
            if self.halted.load(Ordering::Relaxed) {
                return Quantum::Done;
            }
        }
        for s in self.sessions.iter_mut() {
            s.note_yielded();
        }
        Quantum::Yield
    }
}

/// A multi-patient serving fleet: submit sessions, then run the
/// admitted set to completion on the worker pool.
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    admission: AdmissionController,
    metrics: Arc<MetricsRegistry>,
    active: Vec<Session>,
    states: BTreeMap<u64, (u8, SubmitState)>,
    logger: Option<Arc<FleetLogger>>,
    reconfigures: BTreeMap<u64, ReconfigureRequest>,
}

impl Fleet {
    /// An empty fleet.
    pub fn new(cfg: FleetConfig) -> Self {
        assert!(cfg.workers >= 1, "need at least one worker");
        Self {
            cfg,
            admission: AdmissionController::new(cfg.admission),
            metrics: Arc::new(MetricsRegistry::new()),
            active: Vec::new(),
            states: BTreeMap::new(),
            logger: None,
            reconfigures: BTreeMap::new(),
        }
    }

    /// An empty durable fleet: admissions, per-window decisions, and
    /// periodic checkpoints are written ahead to the log at `dcfg.dir`,
    /// so a killed process can [`Self::recover`].
    pub fn open_durable(
        cfg: FleetConfig,
        dcfg: &DurabilityConfig,
    ) -> Result<Self, DurabilityError> {
        let mut fleet = Self::new(cfg);
        fleet.logger = Some(Arc::new(FleetLogger::open(dcfg, &fleet.metrics)?));
        Ok(fleet)
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
        let mut fleet = Self::new(cfg);
        let logger = Arc::new(FleetLogger::open(dcfg, &fleet.metrics)?);
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
            fleet
                .states
                .insert(spec.id, (spec.priority, SubmitState::Admitted));
            logger.log_checkpoint(&session)?;
            fleet.active.push(session);
        }
        fleet.logger = Some(logger);
        fleet.metrics.counter("fleet.recoveries").incr();
        fleet
            .metrics
            .counter("fleet.recovered_sessions")
            .add(report.sessions_recovered as u64);
        fleet
            .metrics
            .counter("fleet.replayed_windows")
            .add(report.windows_replayed);
        fleet
            .metrics
            .histogram("fleet.recovery_ms")
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
        self.states.get(&id).map(|&(_, s)| s)
    }

    /// Offers a session to the fleet. On admission the session is built
    /// (recording generated, detectors trained) and queued; sessions
    /// the admission controller shed to make room are dropped from the
    /// queue. Refusals say why: budget pressure ([`AdmitError::
    /// BudgetExhausted`]), an id collision ([`AdmitError::DuplicateId`]),
    /// or an earlier eviction ([`AdmitError::Shed`]).
    pub fn submit(&mut self, spec: SessionSpec) -> Result<(), AdmitError> {
        match self.states.get(&spec.id) {
            Some(&(_, SubmitState::Shed)) => return Err(AdmitError::Shed { id: spec.id }),
            Some(_) => return Err(AdmitError::DuplicateId { id: spec.id }),
            None => {}
        }
        let cost = spec.cost_estimate();
        let decision = self.admission.offer(spec.id, spec.priority, cost);
        if !decision.admitted {
            self.states
                .insert(spec.id, (spec.priority, SubmitState::Rejected));
            self.metrics.counter("fleet.rejected").incr();
            // The controller logged the post-hypothetical-shed headroom
            // with its rejection; surface that number to the caller.
            let headroom = match self.admission.log().last() {
                Some(AdmissionEvent::Rejected { headroom, .. }) => *headroom,
                _ => self.admission.headroom(),
            };
            return Err(AdmitError::BudgetExhausted { cost, headroom });
        }
        for victim in decision.shed {
            self.active.retain(|s| s.id() != victim);
            if let Some(st) = self.states.get_mut(&victim) {
                st.1 = SubmitState::Shed;
            }
            self.metrics.counter("fleet.shed").incr();
            if let Some(logger) = &self.logger {
                if let Err(e) = logger.log_shed(victim) {
                    logger.poison(e);
                }
            }
        }
        self.states
            .insert(spec.id, (spec.priority, SubmitState::Admitted));
        self.metrics.counter("fleet.admitted").incr();
        let session = Session::new(spec);
        if let Some(logger) = &self.logger {
            if let Err(e) = logger.log_admit(&session) {
                logger.poison(e);
            }
        }
        self.active.push(session);
        Ok(())
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
        let cfg = PlanConfig {
            channels: base.electrodes,
            seed: base.seed,
        };
        let t0 = Instant::now();
        let plan = ProgramPlan::compile(source, &cfg).map_err(QuerySubmitError::Plan)?;
        self.metrics
            .histogram("fleet.query_compile_us")
            .observe(t0.elapsed().as_micros() as u64);
        let t1 = Instant::now();
        resolve_budget(&plan, base.nodes, ScaloConfig::default().power_limit_mw)
            .map_err(QuerySubmitError::Plan)?;
        self.metrics
            .histogram("fleet.query_resolve_us")
            .observe(t1.elapsed().as_micros() as u64);
        let binding = plan.binding();
        let mut spec = base;
        spec.movement_every = binding.movement_every;
        spec.use_reliable_transport = binding.use_reliable_transport;
        spec.query = Some(plan.source().to_string());
        self.submit(spec).map_err(QuerySubmitError::Admit)
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
    /// [`FleetConfig::halt_after_windows`] kill point) and reports.
    pub fn run(mut self) -> FleetReport {
        let windows_stepped = Arc::new(AtomicU64::new(0));
        let halted = Arc::new(AtomicBool::new(false));
        // Group the admitted set into pool jobs: every job steps its
        // group through the window engine, and cohort mode only decides
        // the group sizes. With it on, sessions sharing a CohortKey form
        // one lockstep group; sessions with a pending reconfiguration
        // (whose cutover replay would desync the lockstep cursor) and
        // shapes without a twin are groups of one. Off, every session is
        // a group of one. BTreeMap keeps the grouping order
        // deterministic.
        let groups: Vec<Vec<Session>> = if self.cfg.cohort {
            let mut by_key: BTreeMap<CohortKey, Vec<Session>> = BTreeMap::new();
            let mut solo: Vec<Session> = Vec::new();
            for session in self.active.drain(..) {
                if self.reconfigures.contains_key(&session.id()) {
                    solo.push(session);
                } else {
                    by_key
                        .entry(CohortKey::of(session.spec()))
                        .or_default()
                        .push(session);
                }
            }
            let mut groups: Vec<Vec<Session>> = by_key.into_values().collect();
            groups.extend(solo.into_iter().map(|s| vec![s]));
            groups
        } else {
            self.active.drain(..).map(|s| vec![s]).collect()
        };
        let mut cohorts: Vec<usize> = Vec::new();
        let jobs: Vec<GroupJob> = groups
            .into_iter()
            .map(|sessions| {
                if self.cfg.cohort {
                    cohorts.push(sessions.len());
                }
                let session_latency = sessions
                    .iter()
                    .map(|s| {
                        self.metrics
                            .histogram(&format!("session.{}.step_latency_us", s.id()))
                    })
                    .collect();
                let reconfigure = match sessions.as_slice() {
                    [solo] => self.reconfigures.remove(&solo.id()),
                    _ => None,
                };
                GroupJob {
                    engine: Cohort::new(),
                    outcomes: Vec::with_capacity(sessions.len()),
                    quantum_steps: self.cfg.quantum_steps,
                    fleet_latency: self.metrics.histogram("fleet.step_latency_us"),
                    session_latency,
                    steps: self.metrics.counter("fleet.steps"),
                    misses: self.metrics.counter("fleet.deadline_misses"),
                    logger: self.logger.clone(),
                    windows_stepped: Arc::clone(&windows_stepped),
                    halted: Arc::clone(&halted),
                    halt_after_windows: self.cfg.halt_after_windows,
                    reconfigure,
                    reconfigure_record: None,
                    reconfigure_total: self.metrics.counter("fleet.reconfigure_total"),
                    reconfigure_failed: self.metrics.counter("fleet.reconfigure_failed"),
                    cutover_hist: self.metrics.histogram("fleet.reconfigure_cutover_us"),
                    sessions,
                }
            })
            .collect();
        cohorts.sort_unstable_by(|a, b| b.cmp(a));
        let t0 = Instant::now();
        let (done, pool_report) = pool::run_to_completion(jobs, self.cfg.workers);
        let wall_ms = t0.elapsed().as_secs_f64() * 1_000.0;

        // A clean shutdown seals and fsyncs the log tail; a halted run
        // deliberately skips this — the kill loses the buffered tail.
        let durability = self.logger.as_ref().map(|logger| {
            let clean_shutdown = !halted.load(Ordering::Relaxed);
            if clean_shutdown {
                if let Err(e) = logger.finish() {
                    logger.poison(e);
                }
            }
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
        });

        // Per-stage histogram handles for the trace merge below, resolved
        // lazily (name formatting + registry lock once per *stage*, not
        // once per span — traced fleets drain tens of thousands of spans)
        // so an untraced run never materializes empty trace histograms.
        let mut stage_hists: Vec<Option<Arc<Histogram>>> =
            vec![None; scalo_trace::Stage::ALL.len()];
        let mut reconfigures: Vec<ReconfigureRecord> = Vec::new();
        let mut served: Vec<Session> = Vec::new();
        for job in done {
            reconfigures.extend(job.reconfigure_record);
            served.extend(job.sessions);
        }
        let mut sessions: Vec<SessionServing> = served
            .into_iter()
            .map(|mut session| {
                let report = session.report();
                self.admission.release(report.id);
                let trace = session.take_trace_events();
                // Merge the session's spans into the registry as
                // per-stage latency histograms, alongside the counters
                // the step loop already feeds.
                for ev in &trace {
                    // Stage::ALL covers every stage the recorder can
                    // emit; a span outside it (a future stage this
                    // build predates) is skipped, not a crash.
                    let Some(idx) = scalo_trace::Stage::ALL.iter().position(|s| *s == ev.stage)
                    else {
                        continue;
                    };
                    stage_hists[idx]
                        .get_or_insert_with(|| {
                            self.metrics
                                .histogram(&format!("trace.stage.{}.span_us", ev.stage.name()))
                        })
                        .observe(ev.dur_ns() / 1_000);
                }
                let rec = session.trace();
                self.metrics.counter("trace.spans").add(trace.len() as u64);
                self.metrics.counter("trace.dropped").add(rec.dropped());
                self.metrics
                    .counter("trace.unbalanced")
                    .add(rec.unbalanced());
                SessionServing {
                    id: report.id,
                    priority: session.priority(),
                    steps: report.steps,
                    deadline_misses: report.deadline_misses,
                    wall_us: report.wall_us,
                    sim_us: report.sim_us,
                    digest: session.decision_digest(),
                    trace,
                }
            })
            .collect();
        sessions.sort_by_key(|s| s.id);
        reconfigures.sort_by_key(|r| r.id);

        let by_state = |want: SubmitState| {
            self.states
                .iter()
                .filter(|(_, &(_, s))| s == want)
                .map(|(&id, _)| id)
                .collect::<Vec<u64>>()
        };
        FleetReport {
            workers: self.cfg.workers,
            wall_ms,
            windows: sessions.iter().map(|s| s.steps).sum(),
            deadline_misses: sessions.iter().map(|s| s.deadline_misses).sum(),
            sessions,
            reconfigures,
            cohorts,
            rejected: by_state(SubmitState::Rejected),
            shed: by_state(SubmitState::Shed),
            admission_log: self.admission.log().to_vec(),
            pool: pool_report,
            metrics_json: self.metrics.to_json(),
            durability,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec(id: u64) -> SessionSpec {
        SessionSpec::new(id, 0x100 + id).with_duration_s(0.3)
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
    fn cohort_mode_keeps_digests_and_records_occupancy() {
        // Three shapes: four plain sessions, two movement-mix, one
        // reliable — cohort mode must fuse [4, 2] and leave the loner
        // solo, with every decision digest identical to solo serving.
        let submit_all = |fleet: &mut Fleet| {
            for id in 0..4 {
                fleet.submit(small_spec(id)).unwrap();
            }
            for id in 4..6 {
                fleet
                    .submit(small_spec(id).with_movement_every(25))
                    .unwrap();
            }
            let mut reliable = small_spec(6);
            reliable.use_reliable_transport = true;
            fleet.submit(reliable).unwrap();
        };
        let mut solo = Fleet::new(FleetConfig::new(2).with_quantum_steps(4));
        submit_all(&mut solo);
        let solo = solo.run();
        assert!(solo.cohorts.is_empty(), "cohort mode off records no groups");

        let mut fused = Fleet::new(FleetConfig::new(2).with_quantum_steps(4).with_cohort(true));
        submit_all(&mut fused);
        let fused = fused.run();
        assert_eq!(fused.cohorts, vec![4, 2, 1], "occupancy histogram");
        assert_eq!(
            fused.cohorts.iter().sum::<usize>(),
            fused.sessions.len(),
            "group sizes cover the served set"
        );
        assert_eq!(solo.sessions.len(), fused.sessions.len());
        assert_eq!(solo.windows, fused.windows);
        for (a, b) in solo.sessions.iter().zip(&fused.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.digest, b.digest, "session {} digest drifted", a.id);
            assert_eq!(a.steps, b.steps);
        }
    }

    #[test]
    fn cohort_mode_ejects_pending_reconfigures_to_solo() {
        use scalo_core::catalog;

        // Session 1 has a scheduled cutover: it must run solo (lockstep
        // replay would desync a cohort) while its three shape-twins fuse
        // — and the cutover must still commit with digests matching a
        // solo fleet running the same schedule.
        let run = |cohort: bool| {
            let mut fleet = Fleet::new(
                FleetConfig::new(2)
                    .with_quantum_steps(4)
                    .with_cohort(cohort),
            );
            for id in 0..4 {
                fleet.submit(small_spec(id)).unwrap();
            }
            fleet.schedule_reconfigure(1, 20, catalog::MOVEMENT_MIX, None);
            fleet.run()
        };
        let solo = run(false);
        let fused = run(true);
        assert_eq!(fused.cohorts, vec![3, 1], "reconfigure-due session ejected");
        assert_eq!(fused.reconfigures.len(), 1);
        assert!(
            fused.reconfigures[0].ok,
            "{:?}",
            fused.reconfigures[0].error
        );
        for (a, b) in solo.sessions.iter().zip(&fused.sessions) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.digest, b.digest, "session {} digest drifted", a.id);
        }
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
        assert_eq!(rec.replayed_windows, 20);
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
