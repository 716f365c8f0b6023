//! The three serving workloads. The seeded population is cut into
//! `SLICES` equal slices of consecutive ids. Each round builds a fresh
//! fleet from one slice, times its set-up and serving phases, and
//! returns the round's decision digest and work counts so a run can
//! prove that every round of a slice (and every run of the seed) did
//! the same work.

use crate::host::process_cpu_us;
use crate::layers::{self, Metrics, StageAcc};
use crate::population;
use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::{fnv1a, Fnv64};
use scalo_fleet::{
    ArrivalPlan, DurabilityConfig, Fleet, FleetConfig, FleetReport, SessionServing, SwapConfig,
    SwapFleet, SwapOutcomeState, SwapReport,
};
use scalo_storage::wal::{WalRecord, WalScan};
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Span-ring capacity per traced session: room for every window of a
/// 0.3 s recording, so no envelope is evicted.
const TRACE_CAPACITY: usize = 8192;

/// Cold admissions timed per `swap_churn` round (the loop is short, so
/// one round sets up several fleets; the run reports the median).
const SWAP_SETUP_REPS: usize = 5;

/// Twins stepped by `Session::step` per run, outside the timed phases.
const TWINS: usize = 6;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `Fleet`, solo jobs, 2 workers, 400 µs radio wait per window,
    /// closed batch served to completion.
    FleetRadio,
    /// `SwapFleet` over a small resident set, bursty open-loop plan.
    SwapChurn,
    /// Durable `Fleet`, 1 worker, killed inside a session just past
    /// half the windows, then `Fleet::recover` and the rest served.
    CrashRecover,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fleet_radio" => Some(Self::FleetRadio),
            "swap_churn" => Some(Self::SwapChurn),
            "crash_recover" => Some(Self::CrashRecover),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FleetRadio => "fleet_radio",
            Self::SwapChurn => "swap_churn",
            Self::CrashRecover => "crash_recover",
        }
    }

    /// Sessions in one slice. Few, so that a round takes about half a
    /// second to a second and a run holds a dozen rounds of each slice.
    pub fn slice_sessions(self) -> u64 {
        match self {
            Self::FleetRadio | Self::CrashRecover => 8,
            Self::SwapChurn => 16,
        }
    }

    /// Modeled radio wait per window, µs.
    pub fn io_stall_us(self) -> u64 {
        match self {
            Self::FleetRadio => 400,
            Self::SwapChurn | Self::CrashRecover => 0,
        }
    }

    /// Worker threads wanted (clamped to the host by the caller).
    pub fn workers_wanted(self) -> usize {
        match self {
            Self::FleetRadio | Self::SwapChurn => 2,
            // With two workers the kill point races and the recovered
            // work differs run to run.
            Self::CrashRecover => 1,
        }
    }
}

/// Resident slots of the `swap_churn` fleet.
const RESIDENT_SLOTS: usize = 2;

/// Slices of the population. A run serves them in turn, so its metrics
/// cover `SLICES` × `slice_sessions` patients, while each round stays
/// short.
pub const SLICES: usize = 4;

/// Everything a workload needs, built once per process from the seed.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    pub workers: usize,
    /// The whole population, indexed by session id.
    pub specs: Vec<SessionSpec>,
    /// `swap_churn`'s arrival plan for each slice.
    pub plans: Vec<ArrivalPlan>,
    /// Windows in one session (every session shares one shape).
    pub windows_per_session: u64,
    /// Scratch directory for the write-ahead log.
    pub wal_dir: PathBuf,
}

impl Inputs {
    pub fn new(workload: Workload, seed: u64, workers: usize, scratch: &Path) -> Self {
        let k = workload.slice_sessions();
        let specs = population::population(seed, k * SLICES as u64, workload.io_stall_us());
        let windows_per_session = Session::new(specs[0].clone()).windows_total() as u64;
        Self {
            workload,
            seed,
            workers,
            specs,
            windows_per_session,
            plans: match workload {
                Workload::SwapChurn => (0..SLICES as u64)
                    .map(|i| population::arrival_plan(seed, i * k..(i + 1) * k))
                    .collect(),
                _ => Vec::new(),
            },
            wal_dir: scratch.join(format!("wal-{}-{}", workload.name(), std::process::id())),
        }
    }

    /// The sessions of slice `slice`.
    fn slice(&self, slice: usize) -> &[SessionSpec] {
        let k = self.specs.len() / SLICES;
        &self.specs[slice * k..(slice + 1) * k]
    }

    fn batch(&self, slice: usize, traced: bool) -> Vec<SessionSpec> {
        self.slice(slice)
            .iter()
            .map(|s| {
                let cap = if traced { TRACE_CAPACITY } else { 0 };
                s.clone().with_trace_capacity(cap)
            })
            .collect()
    }
}

/// One round's measurements and evidence.
#[derive(Default)]
pub struct Round {
    /// The population slice the round served.
    pub slice: usize,
    /// Set-up wall times, s (one per fleet set up this round).
    pub setup_s: Vec<f64>,
    /// Wall time of the serving calls, s (recovery included on
    /// `crash_recover`).
    pub serve_s: f64,
    /// Process CPU time over the serving calls, µs.
    pub cpu_us: f64,
    /// Windows served.
    pub windows: u64,
    /// Fleet-wide decision digest.
    pub digest: u64,
    /// Work counts that must repeat exactly for the seed.
    pub work: BTreeMap<&'static str, u64>,
    /// Operations attempted and failed.
    pub attempted: u64,
    pub failed: u64,
    /// Check failures found by this round.
    pub errors: Vec<String>,
    /// FNV-1a of each session's final decision digest, by id (for twin
    /// checks).
    pub finals: BTreeMap<u64, u64>,
    /// Sessions the twin check should cover.
    pub twin_ids: Vec<u64>,
    /// Windows to step each twin (`None` = to completion).
    pub twin_windows: BTreeMap<u64, u64>,
    /// Serving-layer metrics (traced rounds only).
    pub layers: Metrics,
}

impl Round {
    pub fn windows_per_s(&self) -> f64 {
        self.windows as f64 / self.serve_s
    }

    pub fn cpu_us_per_window(&self) -> f64 {
        self.cpu_us / self.windows as f64
    }
}

/// Runs one round of `inputs.workload` on population slice `slice`.
pub fn round(inputs: &Inputs, slice: usize, traced: bool) -> Round {
    let mut r = match inputs.workload {
        Workload::FleetRadio => fleet_radio(inputs, slice, traced),
        Workload::SwapChurn => swap_churn(inputs, slice, traced),
        Workload::CrashRecover => crash_recover(inputs, slice, traced),
    };
    r.slice = slice;
    r
}

/// The ids of slice `slice`.
fn slice_ids(inputs: &Inputs, slice: usize) -> impl Iterator<Item = u64> + '_ {
    inputs.slice(slice).iter().map(|s| s.id)
}

/// FNV-1a over `(id, decisions_fnv)` pairs, ascending by id.
fn fleet_digest(finals: &BTreeMap<u64, u64>) -> u64 {
    let mut h = Fnv64::new();
    for (&id, &d) in finals {
        h.write_u64(id);
        h.write_u64(d);
    }
    h.finish()
}

fn fleet_radio(inputs: &Inputs, slice: usize, traced: bool) -> Round {
    let batch = inputs.batch(slice, traced);
    let n = batch.len();
    let mut r = Round::default();
    let t0 = Instant::now();
    let mut fleet = Fleet::new(FleetConfig::new(inputs.workers).with_budget(16.0 * n as f64));
    let mut refused = 0u64;
    for spec in batch {
        refused += u64::from(fleet.submit(spec).is_err());
    }
    r.setup_s.push(t0.elapsed().as_secs_f64());
    let cpu0 = process_cpu_us();
    let t1 = Instant::now();
    let report = fleet.run();
    r.serve_s = t1.elapsed().as_secs_f64();
    r.cpu_us = process_cpu_us() - cpu0;

    let expected = (n as u64 - refused) * inputs.windows_per_session;
    r.windows = report.windows;
    r.attempted = n as u64 + expected;
    r.failed = refused + report.shed.len() as u64 + expected.saturating_sub(report.windows);
    r.finals = finals_of(&report.sessions);
    r.digest = fleet_digest(&r.finals);
    r.work.insert("admitted", n as u64 - refused);
    r.work.insert("windows", report.windows);
    r.work.insert("pool_quanta", report.pool.quanta);
    r.twin_ids = population::sample_ids(inputs.seed, slice_ids(inputs, slice), TWINS);
    if traced {
        let mut stages = StageAcc::default();
        stages.add_sessions(&report.sessions);
        stages.emit(&mut r.layers);
        pool_layers(&mut r.layers, &[&report]);
        layers::swap_layers(&mut r.layers, None);
        layers::durable_layers(&mut r.layers, None);
        // No swap images and no WAL: this workload writes no NVM.
        r.layers.set("storage.nvm_nj_per_window", 0.0, "nJ");
    }
    r
}

fn finals_of<'a>(sessions: impl IntoIterator<Item = &'a SessionServing>) -> BTreeMap<u64, u64> {
    sessions
        .into_iter()
        .map(|s| (s.id, fnv1a(s.digest.as_bytes())))
        .collect()
}

fn pool_layers(m: &mut Metrics, reports: &[&FleetReport]) {
    let quanta: u64 = reports.iter().map(|r| r.pool.quanta).sum();
    let steals: u64 = reports.iter().map(|r| r.pool.steals).sum();
    m.set("fleet.pool.quanta", quanta as f64, "count");
    m.set("fleet.pool.steals", steals as f64, "count");
}

fn swap_churn(inputs: &Inputs, slice: usize, traced: bool) -> Round {
    let plan = &inputs.plans[slice];
    let cfg = SwapConfig::new(inputs.workers, RESIDENT_SLOTS);
    let mut r = Round::default();
    let mut refused = 0u64;
    let mut fleet = None;
    for _ in 0..SWAP_SETUP_REPS {
        let batch = inputs.batch(slice, traced);
        drop(fleet.take());
        let t0 = Instant::now();
        let mut f = SwapFleet::new(cfg);
        refused = 0;
        for spec in batch {
            refused += u64::from(f.submit(spec).is_err());
        }
        r.setup_s.push(t0.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up");
    let metrics = std::sync::Arc::clone(fleet.metrics());
    let cpu0 = process_cpu_us();
    let t1 = Instant::now();
    let report: SwapReport = fleet.run(plan);
    r.serve_s = t1.elapsed().as_secs_f64();
    r.cpu_us = process_cpu_us() - cpu0;

    let failed_sessions = report.count_state(SwapOutcomeState::Failed) as u64;
    r.windows = report.windows;
    r.attempted = inputs.slice(slice).len() as u64 + plan.total_arrivals as u64;
    r.failed = refused + report.arrivals_dropped + report.fault_failures + failed_sessions;
    r.digest = report.digest_fnv;
    r.work.insert("windows", report.windows);
    r.work.insert("cold_builds", report.cold_builds);
    r.work.insert("swap_ins", report.swap_ins);
    r.work.insert("swap_outs", report.swap_outs);
    r.work.insert("arrivals_served", report.arrivals_served);
    r.work.insert("arrivals_deferred", report.arrivals_deferred);
    r.work
        .insert("nvm_pages_read", report.nvm.pages_read as u64);
    r.work
        .insert("nvm_pages_written", report.nvm.pages_written as u64);
    // Twins for the most-swapped sessions: each fault-in restored them
    // by re-execution, so their digests are the strongest evidence.
    let mut by_swaps: Vec<_> = report.sessions.iter().filter(|s| s.windows > 0).collect();
    by_swaps.sort_by_key(|s| (std::cmp::Reverse(s.swap_ins), s.id));
    for s in by_swaps.iter().take(TWINS) {
        r.twin_ids.push(s.id);
        r.twin_windows.insert(s.id, s.windows);
        r.finals.insert(s.id, s.decisions_fnv);
    }
    if traced {
        let m = &mut r.layers;
        m.set("fleet.pool.quanta", report.pool.quanta as f64, "count");
        m.set("fleet.pool.steals", report.pool.steals as f64, "count");
        layers::swap_layers(m, Some((&report, &metrics)));
        layers::durable_layers(m, None);
        StageAcc::from_registry(&metrics).emit(m);
    }
    r
}

/// Checkpoint cadence on `crash_recover`, in per-session windows. The
/// default group commit fsyncs every `sync_every_records` decisions,
/// counted from the last checkpoint, so windows 40..=71 of a session
/// are on disk once it has stepped past window 71. (At the default
/// cadence of 64, a 75-window session ends before the next commit and
/// recovery would never replay a decision.)
const CHECKPOINT_EVERY: u64 = 40;

/// Sessions recovered from a checkpoint (not their admission snapshot):
/// live at the log head, with a checkpoint record. Read from the log
/// itself, before `Fleet::recover` sees it.
fn checkpointed_live_sessions(dir: &Path) -> Result<Vec<u64>, String> {
    let scan = WalScan::open(dir).map_err(|e| format!("wal scan: {e}"))?;
    let (mut checkpointed, mut ended) = (BTreeSet::new(), BTreeSet::new());
    for record in &scan.records {
        match record {
            WalRecord::Checkpoint { session, .. } => {
                checkpointed.insert(*session);
            }
            WalRecord::Done { session, .. } | WalRecord::Shed { session } => {
                ended.insert(*session);
            }
            _ => {}
        }
    }
    Ok(checkpointed.difference(&ended).copied().collect())
}

fn crash_recover(inputs: &Inputs, slice: usize, traced: bool) -> Round {
    let batch = inputs.batch(slice, traced);
    let n = batch.len() as u64;
    let wps = inputs.windows_per_session;
    let dir = &inputs.wal_dir;
    let _ = std::fs::remove_dir_all(dir);
    let dcfg = DurabilityConfig::new(dir).with_checkpoint_every_windows(CHECKPOINT_EVERY);
    let cfg = FleetConfig::new(inputs.workers).with_budget(16.0 * n as f64);
    let total = n * wps;
    // The one worker serves sessions one after another, so the kill
    // lands inside the session that follows the first half, after its
    // checkpoint and the group commit past it: recovery restores that
    // session from the checkpoint and replays the committed decisions,
    // and rebuilds the untouched half from admission snapshots. The
    // point is the same for every seed, so every seed does this work.
    let into_session = CHECKPOINT_EVERY + dcfg.sync_every_records + 1;
    let mut r = Round::default();
    if into_session >= wps {
        r.errors.push(format!(
            "kill at window {into_session} is past the end of a {wps}-window session"
        ));
        return r;
    }
    let kill = (n / 2) * wps + into_session;
    let t0 = Instant::now();
    let mut fleet = match Fleet::open_durable(cfg.with_halt_after_windows(kill), &dcfg) {
        Ok(f) => f,
        Err(e) => {
            r.errors.push(format!("open_durable: {e}"));
            return r;
        }
    };
    let mut refused = 0u64;
    for spec in batch {
        refused += u64::from(fleet.submit(spec).is_err());
    }
    r.setup_s.push(t0.elapsed().as_secs_f64());

    // Serving is timed in two spans, leaving out the benchmark's own
    // log scan between them. Recovery is part of serving: it is what
    // the crash costs the patients' windows.
    let cpu0 = process_cpu_us();
    let t1 = Instant::now();
    let first = fleet.run();
    let (first_s, first_cpu) = (t1.elapsed().as_secs_f64(), process_cpu_us() - cpu0);
    let from_checkpoint = match checkpointed_live_sessions(dir) {
        Ok(ids) => ids,
        Err(e) => {
            r.errors.push(e);
            let _ = std::fs::remove_dir_all(dir);
            return r;
        }
    };
    let cpu0 = process_cpu_us();
    let t_rec = Instant::now();
    let recovered = Fleet::recover(cfg, &dcfg);
    let recover_s = t_rec.elapsed().as_secs_f64();
    let (fleet, rec) = match recovered {
        Ok(x) => x,
        Err(e) => {
            r.errors.push(format!("recover: {e}"));
            let _ = std::fs::remove_dir_all(dir);
            return r;
        }
    };
    let second = fleet.run();
    r.serve_s = first_s + t_rec.elapsed().as_secs_f64();
    r.cpu_us = first_cpu + process_cpu_us() - cpu0;
    let _ = std::fs::remove_dir_all(dir);

    let (Some(w1), Some(w2)) = (&first.durability, &second.durability) else {
        r.errors
            .push("durable fleet reported no WAL accounting".to_string());
        return r;
    };
    if rec.windows_replayed == 0 || from_checkpoint.is_empty() {
        r.errors.push(format!(
            "recovery replayed {} windows and restored {} sessions from checkpoints; \
             the kill must leave both to do",
            rec.windows_replayed,
            from_checkpoint.len()
        ));
    }
    let wal_errors = u64::from(w1.error.is_some()) + u64::from(w2.error.is_some());
    // Sessions that finished before the kill keep their first-run
    // digest; every other session's final digest is post-recovery.
    let mut last: BTreeMap<u64, &SessionServing> =
        first.sessions.iter().map(|s| (s.id, s)).collect();
    last.extend(second.sessions.iter().map(|s| (s.id, s)));
    let unfinished = (n - refused) as usize - rec.sessions_done;
    let incomplete = last.values().filter(|s| s.steps < wps).count();
    // Windows served to patients: each session's final cursor. Windows
    // served again after the kill count once; replay is recovery work.
    r.windows = last.values().map(|s| s.steps).sum();
    r.attempted = n + total + unfinished as u64;
    r.failed = refused
        + wal_errors
        + unfinished.saturating_sub(rec.sessions_recovered) as u64
        + incomplete as u64;
    r.finals = finals_of(last.into_values());
    r.digest = fleet_digest(&r.finals);
    // Twins: every session restored from a checkpoint (the replay path),
    // then a seeded sample of those rebuilt from admission.
    r.twin_ids = from_checkpoint.clone();
    let rebuilt = second
        .sessions
        .iter()
        .map(|s| s.id)
        .filter(|id| !from_checkpoint.contains(id));
    let room = TWINS.saturating_sub(r.twin_ids.len());
    r.twin_ids
        .extend(population::sample_ids(inputs.seed, rebuilt, room));
    r.work.insert("windows_before_kill", first.windows);
    r.work.insert("windows_after_recover", second.windows);
    r.work.insert("wal_records", w1.records + w2.records);
    r.work
        .insert("wal_bytes", w1.appended_bytes + w2.appended_bytes);
    r.work.insert("wal_fsyncs", w1.fsyncs + w2.fsyncs);
    r.work
        .insert("wal_pages", w1.pages_written + w2.pages_written);
    r.work
        .insert("sessions_recovered", rec.sessions_recovered as u64);
    r.work
        .insert("sessions_from_checkpoint", from_checkpoint.len() as u64);
    r.work.insert("windows_replayed", rec.windows_replayed);
    r.work.insert("log_records", rec.log_records as u64);
    if traced {
        let m = &mut r.layers;
        layers::durable_layers(
            m,
            Some(layers::Durable {
                recover_s,
                report: &rec,
                wal: [w1, w2],
                windows: r.windows,
            }),
        );
        layers::swap_layers(m, None);
        let mut stages = StageAcc::default();
        stages.add_sessions(&first.sessions);
        stages.add_sessions(&second.sessions);
        stages.emit(m);
        pool_layers(m, &[&first, &second]);
    }
    r
}

/// Steps a fresh twin of `spec` by `Session::step` (to completion, or
/// `windows` windows) and returns FNV-1a of its decision digest.
pub fn twin_digest(spec: &SessionSpec, windows: Option<u64>) -> u64 {
    let mut s = Session::new(spec.clone().with_io_stall_us(0).with_trace_capacity(0));
    let limit = windows.unwrap_or(u64::MAX);
    let mut stepped = 0;
    while stepped < limit && !s.is_done() {
        stepped += 1;
        if s.step().done {
            break;
        }
    }
    fnv1a(s.decision_digest().as_bytes())
}

/// Compares every twin the round asked for with its served digest.
pub fn check_twins(inputs: &Inputs, r: &Round) -> Vec<String> {
    let mut errors = Vec::new();
    if r.twin_ids.is_empty() {
        errors.push("no sessions to check against twins".to_string());
    }
    for &id in &r.twin_ids {
        let spec = &inputs.specs[id as usize];
        let twin = twin_digest(spec, r.twin_windows.get(&id).copied());
        match r.finals.get(&id) {
            Some(&served) if served == twin => {}
            Some(_) => errors.push(format!("session {id}: served digest != twin digest")),
            None => errors.push(format!("session {id}: no served digest")),
        }
    }
    errors
}
