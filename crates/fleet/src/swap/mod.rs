//! `scalo-swap`: resident-set management — serving 10k+ admitted
//! sessions through a bounded resident set with NVM session swapping.
//!
//! There is one serving engine ([`crate::Fleet`]) with two entry
//! points: a closed batch, where every session is resident and arrives
//! at t=0 with all of its windows, and [`SwapFleet`], the same engine
//! over a bounded resident set. Most sessions are quiet most of the
//! time, so a swap fleet keeps only the active ones materialized and
//! parks the rest as SCSS snapshots on the modeled NVM tier:
//!
//! * **Cold admission** — [`SwapFleet::submit`] admits a
//!   session *by spec only*, charging admitted-set capacity, not
//!   resident budget; its pool job builds it at its first data arrival.
//! * **Swap-out** — under resident pressure the LRU session (by
//!   last-arrival sequence, id tie-break — never wall clock, so runs
//!   replay by seed) is serialized through the *single* SCSS codec
//!   ([`SessionSnapshot::encode_into`]) into the
//!   [`scalo_storage::image::ImageStore`], charged per page via
//!   [`NvmParams`]. Durable fleets append the **same bytes** as a WAL
//!   checkpoint ([`crate::FleetLogger::log_checkpoint_image`]).
//! * **Priority pinning** — sessions at or above
//!   [`SwapConfig::pin_priority`] are never evicted; submission
//!   refuses pinned sessions that cannot be guaranteed a resident slot
//!   ([`AdmitError::PinnedResidencyExhausted`]).
//! * **Fault-in** — an arrival reads the image back (modeled NVM read
//!   time) and decodes it (SCSS checksum; seeded read-disturb faults are
//!   retried up to [`SwapConfig::fault_retries`] times and then **fail
//!   closed** — the burst is dropped, image and decisions intact). Its
//!   pool job restores the state image (`Session::restore`): the
//!   session state and detectors are installed, only the serving
//!   windows from the cursor on are synthesized, and the installed
//!   state must digest to the image's cursor; no window is stepped. The
//!   fault-in latency lands in `fleet.swap_in_us` and a
//!   [`Stage::SwapIn`](scalo_trace::Stage) span on traced sessions.
//!
//! Arrivals come from the open-loop generator ([`arrivals`]) quantized
//! into epochs; the coordinator applies admissions, evictions, and
//! durability between epochs, so decisions stay a pure function of each
//! session's seed no matter how the resident set churns.

pub mod arrivals;

use crate::admission::AdmissionConfig;
use crate::durable::{DurabilityConfig, DurabilityError};
use crate::fleet::{
    log_or_poison, AdmitError, DurabilitySummary, Entry, Fleet, FleetConfig, QuerySubmitError,
    Residency, Start,
};
use crate::metrics::{Gauge, Histogram, MetricsRegistry};
use crate::pool::PoolReport;
use arrivals::{Arrival, ArrivalPlan};
use scalo_core::session::SessionSpec;
use scalo_core::snapshot::{fnv1a, Fnv64, SessionSnapshot};
use scalo_storage::image::{ImageStore, ImageStoreError};
use scalo_storage::nvm::{NvmCost, NvmParams};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Swap-fleet configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwapConfig {
    /// Worker threads stepping arrival bursts.
    pub workers: usize,
    /// Maximum sessions materialized in DRAM at once.
    pub resident_budget: usize,
    /// Sessions with priority ≥ this are **pinned**: once resident,
    /// never evicted. `u8::MAX` disables pinning.
    pub pin_priority: u8,
    /// Maximum admitted sessions, resident + swapped + cold.
    pub admitted_capacity: usize,
    /// Swap-device size in 4 KB pages.
    pub image_pages: usize,
    /// NVM timing/energy parameters charged per image page.
    pub nvm: NvmParams,
    /// Seeded read-disturb fault probability per page read, ppm.
    pub fault_rate_ppm: u32,
    /// Seed for the fault schedule.
    pub fault_seed: u64,
    /// Image-read attempts per fault-in before failing closed.
    pub fault_retries: u32,
    /// Crash switch: halt the pool after this many fleet-wide windows,
    /// skipping the final resident checkpoints and WAL sync a clean
    /// shutdown does (the engine's one kill switch, as
    /// [`FleetConfig::halt_after_windows`]).
    pub halt_after_windows: Option<u64>,
}

impl SwapConfig {
    /// A swap fleet with `workers` threads and a `resident_budget`-slot
    /// resident set: capacity for 16 Ki admitted sessions, a 64 Ki-page
    /// (256 MB) swap device, pinning at priority 200, three fault
    /// retries, fault injection off.
    pub fn new(workers: usize, resident_budget: usize) -> Self {
        Self {
            workers,
            resident_budget,
            pin_priority: 200,
            admitted_capacity: 16 * 1024,
            image_pages: 64 * 1024,
            nvm: NvmParams::default(),
            fault_rate_ppm: 0,
            fault_seed: 0,
            fault_retries: 3,
            halt_after_windows: None,
        }
    }

    /// Sets the admitted-set capacity.
    pub fn with_admitted_capacity(mut self, capacity: usize) -> Self {
        self.admitted_capacity = capacity;
        self
    }

    /// Sets the pin threshold.
    pub fn with_pin_priority(mut self, priority: u8) -> Self {
        self.pin_priority = priority;
        self
    }

    /// Enables seeded read-disturb faults on the swap device.
    pub fn with_faults(mut self, rate_ppm: u32, seed: u64) -> Self {
        self.fault_rate_ppm = rate_ppm;
        self.fault_seed = seed;
        self
    }

    /// Sets the swap-device size, in pages.
    pub fn with_image_pages(mut self, pages: usize) -> Self {
        self.image_pages = pages;
        self
    }

    /// Arms the crash switch: serving halts (un-synced) after `windows`
    /// fleet-wide windows.
    pub fn with_halt_after_windows(mut self, windows: u64) -> Self {
        assert!(windows >= 1, "a kill at window 0 serves nothing");
        self.halt_after_windows = Some(windows);
        self
    }
}

/// One session's final standing in a [`SwapReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapOutcomeState {
    /// Never built (no arrival reached it).
    Cold,
    /// Still materialized at end of run.
    Resident,
    /// Parked on the swap device at end of run.
    Swapped,
    /// Ran to completion.
    Completed,
    /// Failed closed during a fault-in restore.
    Failed,
}

/// Per-session outcome row.
#[derive(Debug, Clone, PartialEq)]
pub struct SwapSessionOutcome {
    /// Session id.
    pub id: u64,
    /// Admission priority.
    pub priority: u8,
    /// Whether the session was pinned resident.
    pub pinned: bool,
    /// Window cursor reached (windows stepped since window 0).
    pub windows: u64,
    /// Deadline misses across its stepped windows.
    pub deadline_misses: u64,
    /// Times this session was faulted in.
    pub swap_ins: u64,
    /// Times this session was swapped out.
    pub swap_outs: u64,
    /// FNV-1a of [`scalo_core::session::Session::decision_digest`] at the
    /// cursor (0 when the session never ran).
    pub decisions_fnv: u64,
    /// Final standing.
    pub state: SwapOutcomeState,
}

/// Latency percentiles lifted from one metrics histogram.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyQuantiles {
    /// Observations.
    pub count: u64,
    /// p50, µs.
    pub p50_us: u64,
    /// p99, µs.
    pub p99_us: u64,
    /// p99.9, µs.
    pub p999_us: u64,
    /// Max, µs.
    pub max_us: u64,
}

impl LatencyQuantiles {
    fn from(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            p50_us: h.quantile_us(0.50),
            p99_us: h.quantile_us(0.99),
            p999_us: h.quantile_us(0.999),
            max_us: h.max_us(),
        }
    }

    fn to_json(self) -> String {
        format!(
            "{{\"count\":{},\"p50_us\":{},\"p99_us\":{},\"p999_us\":{},\"max_us\":{}}}",
            self.count, self.p50_us, self.p99_us, self.p999_us, self.max_us
        )
    }
}

/// Deadline-miss-rate distribution across sessions that stepped.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MissRates {
    /// Fleet-wide misses / windows.
    pub overall: f64,
    /// Median per-session miss rate.
    pub p50: f64,
    /// p99 per-session miss rate.
    pub p99: f64,
    /// p99.9 per-session miss rate.
    pub p999: f64,
}

/// The full outcome of one [`SwapFleet::run`].
#[derive(Debug, Clone, PartialEq)]
pub struct SwapReport {
    /// Worker threads used.
    pub workers: usize,
    /// Resident-set budget, sessions.
    pub resident_budget: usize,
    /// End-to-end wall time, ms.
    pub wall_ms: f64,
    /// Windows stepped across all sessions.
    pub windows: u64,
    /// Deadline misses across all sessions.
    pub deadline_misses: u64,
    /// Sessions admitted (cold or otherwise).
    pub admitted: usize,
    /// Ids refused at submission.
    pub rejected: Vec<u64>,
    /// Arrivals served (a burst actually stepped).
    pub arrivals_served: u64,
    /// Arrivals pushed to a later epoch for want of a resident slot.
    pub arrivals_deferred: u64,
    /// Arrivals for already-completed (or failed) sessions, ignored.
    pub arrivals_late: u64,
    /// Deferred arrivals dropped because no slot ever opened.
    pub arrivals_dropped: u64,
    /// Epochs served.
    pub epochs: usize,
    /// Fault-ins (image read + decode + restore).
    pub swap_ins: u64,
    /// Evictions (encode + image program).
    pub swap_outs: u64,
    /// First-arrival session builds.
    pub cold_builds: u64,
    /// Corrupt image reads that were retried.
    pub fault_retries: u64,
    /// Fault-ins that failed closed after all retries.
    pub fault_failures: u64,
    /// Read-disturb faults the seeded device injected.
    pub faults_injected: u64,
    /// Peak resident sessions.
    pub resident_peak: u64,
    /// Peak bytes of parked images.
    pub nvm_image_bytes_peak: u64,
    /// Accumulated swap-device cost.
    pub nvm: NvmCost,
    /// Fault-in latency distribution (modeled NVM read + decode +
    /// restore).
    pub swap_in_us: LatencyQuantiles,
    /// Eviction latency distribution (encode + modeled NVM program).
    pub swap_out_us: LatencyQuantiles,
    /// Per-window step latency distribution.
    pub step_us: LatencyQuantiles,
    /// Deadline-miss-rate distribution.
    pub miss_rates: MissRates,
    /// Per-session rows, by id.
    pub sessions: Vec<SwapSessionOutcome>,
    /// Fleet-wide decision fingerprint: FNV-1a over every stepped
    /// session's `(id, cursor, decisions_fnv)`, ascending by id —
    /// byte-identical across runs of the same seeds and plan.
    pub digest_fnv: u64,
    /// Pool accounting summed over every epoch.
    pub pool: PoolReport,
    /// The metrics registry's JSON export.
    pub metrics_json: String,
    /// Write-ahead-log accounting (durable fleets only).
    pub durability: Option<DurabilitySummary>,
}

impl SwapReport {
    /// Fleet throughput: windows served per wall-clock second.
    pub fn windows_per_sec(&self) -> f64 {
        self.windows as f64 / (self.wall_ms / 1_000.0).max(1e-9)
    }

    /// Sessions in a given final standing.
    pub fn count_state(&self, state: SwapOutcomeState) -> usize {
        self.sessions.iter().filter(|s| s.state == state).count()
    }

    /// Serialises the report as the `"swap"` JSON section (per-session
    /// rows summarized, not dumped — 10k sessions stay 10k struct rows,
    /// one aggregate object on disk).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        let _ = write!(
            out,
            "\"sessions\":{},\"resident_budget\":{},\"workers\":{},\"wall_ms\":{:.3},\
             \"windows\":{},\"windows_per_sec\":{:.1},\"deadline_misses\":{},\"epochs\":{}",
            self.admitted,
            self.resident_budget,
            self.workers,
            self.wall_ms,
            self.windows,
            self.windows_per_sec(),
            self.deadline_misses,
            self.epochs,
        );
        let _ = write!(
            out,
            ",\"arrivals\":{{\"served\":{},\"deferred\":{},\"late\":{},\"dropped\":{}}}",
            self.arrivals_served, self.arrivals_deferred, self.arrivals_late, self.arrivals_dropped,
        );
        let _ = write!(
            out,
            ",\"completed\":{},\"resident\":{},\"swapped\":{},\"cold\":{},\"failed\":{},\"rejected\":{}",
            self.count_state(SwapOutcomeState::Completed),
            self.count_state(SwapOutcomeState::Resident),
            self.count_state(SwapOutcomeState::Swapped),
            self.count_state(SwapOutcomeState::Cold),
            self.count_state(SwapOutcomeState::Failed),
            self.rejected.len(),
        );
        let _ = write!(
            out,
            ",\"swap_ins\":{},\"swap_outs\":{},\"cold_builds\":{},\"fault_retries\":{},\
             \"fault_failures\":{},\"faults_injected\":{}",
            self.swap_ins,
            self.swap_outs,
            self.cold_builds,
            self.fault_retries,
            self.fault_failures,
            self.faults_injected,
        );
        let _ = write!(
            out,
            ",\"resident_peak\":{},\"nvm_image_bytes_peak\":{}",
            self.resident_peak, self.nvm_image_bytes_peak,
        );
        let _ = write!(
            out,
            ",\"nvm\":{{\"time_us\":{:.1},\"energy_nj\":{:.1},\"pages_read\":{},\
             \"pages_written\":{},\"blocks_erased\":{}}}",
            self.nvm.time_us,
            self.nvm.energy_nj,
            self.nvm.pages_read,
            self.nvm.pages_written,
            self.nvm.blocks_erased,
        );
        let _ = write!(
            out,
            ",\"swap_in_us\":{},\"swap_out_us\":{},\"step_us\":{}",
            self.swap_in_us.to_json(),
            self.swap_out_us.to_json(),
            self.step_us.to_json(),
        );
        let _ = write!(
            out,
            ",\"miss_rate\":{:.6},\"miss_rate_p50\":{:.6},\"miss_rate_p99\":{:.6},\
             \"miss_rate_p999\":{:.6}",
            self.miss_rates.overall, self.miss_rates.p50, self.miss_rates.p99, self.miss_rates.p999,
        );
        let _ = write!(out, ",\"digest_fnv\":\"{:016x}\"", self.digest_fnv);
        out.push('}');
        out
    }
}

/// The NVM image tier behind a bounded resident set.
#[derive(Debug)]
pub(crate) struct SwapTier {
    cfg: SwapConfig,
    store: ImageStore,
    /// Pinned sessions admitted and not yet retired.
    pub(crate) pinned_admitted: usize,
    /// Reusable SCSS encode buffer.
    image_buf: Vec<u8>,
    resident_gauge: Arc<Gauge>,
    swapped_gauge: Arc<Gauge>,
    image_bytes_gauge: Arc<Gauge>,
    swap_out_us: Arc<Histogram>,
}

impl SwapTier {
    fn new(cfg: SwapConfig, metrics: &MetricsRegistry) -> Self {
        Self {
            store: ImageStore::new(cfg.image_pages, cfg.nvm)
                .with_faults(cfg.fault_rate_ppm, cfg.fault_seed),
            pinned_admitted: 0,
            image_buf: Vec::with_capacity(4 * 1024),
            resident_gauge: metrics.gauge("fleet.resident_sessions"),
            swapped_gauge: metrics.gauge("fleet.swapped_sessions"),
            image_bytes_gauge: metrics.gauge("fleet.nvm_image_bytes"),
            swap_out_us: metrics.histogram("fleet.swap_out_us"),
            cfg,
        }
    }

    /// Sets the occupancy gauges (between epochs).
    pub(crate) fn refresh_gauges(&self, resident: usize) {
        self.resident_gauge.set(resident as u64);
        self.swapped_gauge.set(self.store.len() as u64);
        self.image_bytes_gauge.set(self.store.bytes_stored());
    }
}

/// The serving engine over a bounded resident set. See the
/// [module docs](self). It dereferences to the engine for reads
/// ([`Fleet::metrics`], [`Fleet::admission`]); of the engine's
/// mutators it forwards only submission, so hot reconfiguration (which
/// needs a session's whole remaining run in one job) stays a
/// closed-batch feature.
#[derive(Debug)]
pub struct SwapFleet(Fleet);

impl std::ops::Deref for SwapFleet {
    type Target = Fleet;

    fn deref(&self) -> &Fleet {
        &self.0
    }
}

impl SwapFleet {
    /// An empty swap fleet. Its bursts yield their worker every 8
    /// windows, the engine's default quantum ([`FleetConfig::new`]).
    pub fn new(cfg: SwapConfig) -> Self {
        assert!(cfg.resident_budget >= 1, "need at least one resident slot");
        let mut fleet_cfg = FleetConfig::new(cfg.workers);
        fleet_cfg.admission = AdmissionConfig {
            budget: cfg.resident_budget as f64,
            admitted_capacity: cfg.admitted_capacity,
        };
        fleet_cfg.halt_after_windows = cfg.halt_after_windows;
        let mut fleet = Fleet::new(fleet_cfg);
        fleet.swap = Some(Box::new(SwapTier::new(cfg, &fleet.metrics)));
        Self(fleet)
    }

    /// An empty durable swap fleet, logging as [`Fleet::open_durable`]
    /// does (admissions at first build) plus a checkpoint per swap-out,
    /// so a crashed process can hand its sessions to [`Fleet::recover`].
    pub fn open_durable(cfg: SwapConfig, dcfg: &DurabilityConfig) -> Result<Self, DurabilityError> {
        Self::new(cfg).0.with_log(dcfg).map(Self)
    }

    /// Admits a session cold (see [`Fleet::submit`]).
    pub fn submit(&mut self, spec: SessionSpec) -> Result<(), AdmitError> {
        self.0.submit(spec)
    }

    /// Admits a query-backed session cold (see [`Fleet::submit_query`]).
    pub fn submit_query(
        &mut self,
        base: SessionSpec,
        source: &str,
    ) -> Result<(), QuerySubmitError> {
        self.0.submit_query(base, source)
    }

    /// Serves the arrival plan epoch by epoch and reports.
    pub fn run(self, plan: &ArrivalPlan) -> SwapReport {
        let mut fleet = self.0;
        let served = fleet.serve(&plan.epochs);
        let tier = fleet.swap.as_ref().expect("a swap fleet has an image tier");
        let mut sessions: Vec<SwapSessionOutcome> = Vec::with_capacity(fleet.table.len());
        let mut rejected = Vec::new();
        let mut digest = Fnv64::new();
        for (&id, entry) in &fleet.table {
            let (state, decisions_fnv) = match &entry.residency {
                Residency::Rejected => {
                    rejected.push(id);
                    continue;
                }
                Residency::Cold(_) => (SwapOutcomeState::Cold, 0),
                Residency::Resident(session) => (
                    SwapOutcomeState::Resident,
                    fnv1a(session.decision_digest().as_bytes()),
                ),
                Residency::Swapped { decisions_fnv } => (SwapOutcomeState::Swapped, *decisions_fnv),
                Residency::Done { decisions_fnv } => (SwapOutcomeState::Completed, *decisions_fnv),
                Residency::Failed => (SwapOutcomeState::Failed, 0),
                Residency::Shed | Residency::InFlight => {
                    unreachable!("swap fleets never shed, and no job is in flight after a run")
                }
            };
            if entry.steps > 0 && state != SwapOutcomeState::Failed {
                digest.write_u64(id);
                digest.write_u64(entry.steps);
                digest.write_u64(decisions_fnv);
            }
            sessions.push(SwapSessionOutcome {
                id,
                priority: entry.priority,
                pinned: entry.pinned,
                windows: entry.steps,
                deadline_misses: entry.deadline_misses,
                swap_ins: entry.swap_ins,
                swap_outs: entry.swap_outs,
                decisions_fnv,
                state,
            });
        }
        let mut rates: Vec<f64> = sessions
            .iter()
            .filter(|s| s.windows > 0)
            .map(|s| s.deadline_misses as f64 / s.windows as f64)
            .collect();
        rates.sort_by(f64::total_cmp);
        let rate_q = |q: f64| {
            let rank = (q * rates.len() as f64).ceil() as usize;
            rates.get(rank.max(1) - 1).copied().unwrap_or(0.0)
        };
        let windows: u64 = sessions.iter().map(|s| s.windows).sum();
        let deadline_misses: u64 = sessions.iter().map(|s| s.deadline_misses).sum();
        let counter = |name: &str| fleet.metrics.counter(name).get();
        let quantiles = |name: &str| LatencyQuantiles::from(&fleet.metrics.histogram(name));
        SwapReport {
            workers: tier.cfg.workers,
            resident_budget: tier.cfg.resident_budget,
            wall_ms: served.wall_ms,
            windows,
            deadline_misses,
            admitted: sessions.len(),
            rejected,
            arrivals_served: counter("fleet.arrivals_served"),
            arrivals_deferred: counter("fleet.arrivals_deferred"),
            arrivals_late: counter("fleet.arrivals_late"),
            arrivals_dropped: counter("fleet.arrivals_dropped"),
            epochs: served.epochs,
            swap_ins: counter("fleet.swap_ins"),
            swap_outs: counter("fleet.swap_outs"),
            cold_builds: counter("fleet.cold_builds"),
            fault_retries: counter("fleet.swap_fault_retries"),
            fault_failures: counter("fleet.swap_fault_failures"),
            faults_injected: tier.store.faults_injected(),
            resident_peak: tier.resident_gauge.peak(),
            nvm_image_bytes_peak: tier.image_bytes_gauge.peak(),
            nvm: tier.store.cost(),
            swap_in_us: quantiles("fleet.swap_in_us"),
            swap_out_us: quantiles("fleet.swap_out_us"),
            step_us: quantiles("fleet.step_latency_us"),
            miss_rates: MissRates {
                overall: deadline_misses as f64 / windows.max(1) as f64,
                p50: rate_q(0.50),
                p99: rate_q(0.99),
                p999: rate_q(0.999),
            },
            sessions,
            digest_fnv: digest.finish(),
            pool: served.pool,
            metrics_json: fleet.metrics.to_json(),
            durability: fleet.durability_summary(!served.halted),
        }
    }
}

/// The image tier's side of the engine.
impl Fleet {
    /// Cold admission: charges admitted-set capacity only.
    pub(crate) fn admit_cold(&mut self, spec: SessionSpec) -> Result<(), AdmitError> {
        let tier = self
            .swap
            .as_mut()
            .expect("cold admission needs an image tier");
        let (id, priority) = (spec.id, spec.priority);
        let pinned = priority >= tier.cfg.pin_priority;
        if pinned && tier.pinned_admitted >= tier.cfg.resident_budget {
            let err = AdmitError::PinnedResidencyExhausted {
                pinned: tier.pinned_admitted,
                resident_budget: tier.cfg.resident_budget,
            };
            return self.refuse(id, priority, err);
        }
        if !self.admission.offer_swapped(id, priority, 1.0) {
            let err = AdmitError::CapacityExhausted {
                admitted: self.admission.admitted_count(),
                capacity: tier.cfg.admitted_capacity,
            };
            return self.refuse(id, priority, err);
        }
        tier.pinned_admitted += usize::from(pinned);
        self.metrics.counter("fleet.admitted").incr();
        self.table
            .insert(id, Entry::new(priority, pinned, Residency::Cold(spec)));
        Ok(())
    }

    /// Gives a parked (cold or swapped) arriving session a resident slot
    /// and its [`Start`]. `None` when no slot opened (the arrival is
    /// deferred) or its image failed closed (the burst is dropped).
    pub(crate) fn bring_in(
        &mut self,
        arrival: Arrival,
        parked: Residency,
        arriving: &BTreeSet<u64>,
        deferred: &mut Vec<Arrival>,
    ) -> Option<Start> {
        let id = arrival.session;
        if !self.ensure_resident_slot(arriving) {
            self.table.get_mut(&id).expect("admitted").residency = parked;
            deferred.push(arrival);
            return None;
        }
        let start = match parked {
            Residency::Cold(spec) => {
                self.metrics.counter("fleet.cold_builds").incr();
                Start::Build(spec)
            }
            Residency::Swapped { decisions_fnv } => {
                let Some((snap, pre_us)) = self.fault_in(id) else {
                    self.metrics.counter("fleet.swap_fault_failures").incr();
                    self.table.get_mut(&id).expect("admitted").residency =
                        Residency::Swapped { decisions_fnv };
                    return None;
                };
                self.table.get_mut(&id).expect("admitted").swap_ins += 1;
                self.metrics.counter("fleet.swap_ins").incr();
                Start::FaultIn {
                    snap: Box::new(snap),
                    pre_us,
                }
            }
            _ => unreachable!("only parked sessions are brought in"),
        };
        assert!(
            self.admission.make_resident(id),
            "slot was just ensured for session {id}"
        );
        Some(start)
    }

    /// Makes sure a resident slot is free, evicting the LRU
    /// non-pinned, non-arriving resident if needed. `false` = no slot.
    fn ensure_resident_slot(&mut self, arriving: &BTreeSet<u64>) -> bool {
        let tier = self
            .swap
            .as_ref()
            .expect("parked sessions imply an image tier");
        if self.admission.resident_count() < tier.cfg.resident_budget {
            return true;
        }
        let victim = self
            .table
            .iter()
            .filter(|(id, e)| {
                matches!(e.residency, Residency::Resident(_)) && !e.pinned && !arriving.contains(id)
            })
            .min_by_key(|(id, e)| (e.last_arrival_seq, **id))
            .map(|(&id, _)| id);
        victim.is_some_and(|id| self.swap_out(id))
    }

    /// Evicts resident session `id`: snapshot encoded once, image
    /// programmed (and WAL-checkpointed from the same bytes), trace
    /// drained, session dropped. `false` when the swap device is full.
    fn swap_out(&mut self, id: u64) -> bool {
        let t0 = Instant::now();
        let Residency::Resident(session) = &self.table[&id].residency else {
            unreachable!("only resident sessions are evicted");
        };
        let snap = session.snapshot();
        let tier = self.swap.as_mut().expect("image tier");
        let mut buf = std::mem::take(&mut tier.image_buf);
        snap.encode_into(&mut buf);
        let cost = match tier.store.put(id, &buf) {
            Ok(cost) => cost,
            Err(ImageStoreError::Full { .. }) => {
                // Nowhere to park it: it stays resident, no slot opened.
                tier.image_buf = buf;
                self.metrics.counter("fleet.swap_device_full").incr();
                return false;
            }
            Err(e) => unreachable!("swap-out put cannot fail with {e}"),
        };
        // Its admission was logged at its build, so the checkpoint alone
        // keeps recovery whole.
        log_or_poison(&self.logger, |logger| logger.log_checkpoint_image(id, &buf));
        tier.image_buf = buf;
        let swap_us = t0.elapsed().as_micros() as u64 + cost.time_us as u64;
        tier.swap_out_us.observe(swap_us);
        let entry = self.table.get_mut(&id).expect("admitted");
        let Residency::Resident(mut session) = std::mem::replace(
            &mut entry.residency,
            Residency::Swapped {
                decisions_fnv: snap.decisions_fnv,
            },
        ) else {
            unreachable!("checked above");
        };
        entry.swap_outs += 1;
        entry.steps = snap.steps;
        entry.deadline_misses = snap.deadline_misses;
        session.note_swapped_out(swap_us.saturating_mul(1_000));
        self.drain_trace(&mut session);
        self.metrics.counter("fleet.swap_outs").incr();
        self.admission.make_swapped(id);
        true
    }

    /// Reads and decodes `id`'s image, retrying seeded read faults up
    /// to the configured attempts; `None` = fail closed. Returns the
    /// snapshot and the µs spent (modeled NVM reads + decode). A decoded
    /// image is freed at once; a failed one stays on the device.
    fn fault_in(&mut self, id: u64) -> Option<(SessionSnapshot, u64)> {
        let tier = self.swap.as_mut().expect("image tier");
        let mut pre_us = 0u64;
        for attempt in 0..=tier.cfg.fault_retries {
            let t0 = Instant::now();
            let (bytes, cost) = tier
                .store
                .read(id)
                .expect("a swapped session always has an image");
            pre_us += cost.time_us as u64;
            let decoded = SessionSnapshot::decode(&bytes);
            pre_us += t0.elapsed().as_micros() as u64;
            match decoded {
                Ok(snap) => {
                    tier.store.remove(id).expect("just read");
                    return Some((snap, pre_us));
                }
                Err(_) if attempt < tier.cfg.fault_retries => {
                    self.metrics.counter("fleet.swap_fault_retries").incr();
                }
                Err(_) => {}
            }
        }
        None
    }

    /// Parks a member whose job never started where it was. Only the
    /// kill switch leaves a start unrun, and a halted engine serves no
    /// more: a faulted-in member is reported swapped at its image's
    /// cursor, and its state survives in the WAL's swap-out checkpoint.
    pub(crate) fn put_back(&mut self, start: Start) {
        let (id, residency) = match start {
            Start::Build(spec) => (spec.id, Residency::Cold(spec)),
            Start::FaultIn { snap, .. } => (
                snap.spec.id,
                Residency::Swapped {
                    decisions_fnv: snap.decisions_fnv,
                },
            ),
        };
        self.admission.make_swapped(id);
        self.table.get_mut(&id).expect("admitted").residency = residency;
    }

    /// Retires a session whose restore diverged from its digests.
    pub(crate) fn fail_closed(&mut self, id: u64) {
        self.metrics.counter("fleet.swap_fault_failures").incr();
        self.metrics.counter("fleet.restore_failures").incr();
        self.retire(id, Residency::Failed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scalo_storage::wal::{WalRecord, WalScan};
    use std::path::PathBuf;

    fn wal_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("scalo-swap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// The dedup satellite: the bytes the swap manager parks on the
    /// image tier and the WAL checkpoint it appends for the same
    /// session come from ONE `SessionSnapshot::encode_into` call, so
    /// they are byte-identical — there is no second encoder to drift.
    #[test]
    fn swap_image_and_wal_checkpoint_are_byte_identical() {
        let dir = wal_dir("imagewal");
        let dcfg = DurabilityConfig::new(&dir);
        let mut fleet = SwapFleet::open_durable(SwapConfig::new(1, 2), &dcfg).unwrap();
        fleet
            .submit(SessionSpec::new(7, 0xabc).with_duration_s(0.4))
            .unwrap();
        let burst = Arrival {
            at_us: 0,
            session: 7,
            windows: 23,
        };
        let mut fleet = fleet.0;
        fleet.serve(&[vec![burst]]);
        assert!(fleet.swap_out(7), "eviction of a resident session");

        let tier = fleet.swap.as_mut().unwrap();
        let (image, _) = tier.store.read(7).unwrap();
        let snap = SessionSnapshot::decode(&image).expect("swap image is valid SCSS");
        assert_eq!(snap.steps, 23, "evicted at the burst boundary");

        // The last checkpoint is the swap-out's (a clean epoch-loop
        // finish checkpoints resident sessions too).
        let scan = WalScan::open(&dir).unwrap();
        let checkpoint = scan
            .records
            .iter()
            .rev()
            .find_map(|r| match r {
                WalRecord::Checkpoint {
                    session: 7,
                    snapshot,
                } => Some(snapshot.clone()),
                _ => None,
            })
            .expect("swap-out appends a WAL checkpoint");
        assert_eq!(checkpoint, image, "swap image and WAL checkpoint drifted");
        let decisions = scan
            .records
            .iter()
            .filter(|r| matches!(r, WalRecord::Decision { session: 7, .. }))
            .count();
        assert_eq!(decisions, 23, "one decision record per served window");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn submit_distinguishes_capacity_and_pinned_refusals() {
        let cfg = SwapConfig::new(1, 2).with_admitted_capacity(3);
        let mut fleet = SwapFleet::new(cfg);
        let spec = |id: u64, prio: u8| {
            SessionSpec::new(id, 0x100 + id)
                .with_duration_s(0.1)
                .with_priority(prio)
        };
        fleet.submit(spec(1, 255)).unwrap();
        fleet.submit(spec(2, 201)).unwrap();
        // Both resident slots are spoken for by pinned sessions.
        assert!(matches!(
            fleet.submit(spec(3, 255)),
            Err(AdmitError::PinnedResidencyExhausted {
                pinned: 2,
                resident_budget: 2
            })
        ));
        // Unpinned sessions still fit — until the admitted set is full.
        fleet.submit(spec(3, 1)).unwrap();
        assert!(matches!(
            fleet.submit(spec(4, 1)),
            Err(AdmitError::CapacityExhausted {
                admitted: 3,
                capacity: 3
            })
        ));
        assert!(matches!(
            fleet.submit(spec(2, 1)),
            Err(AdmitError::DuplicateId { id: 2 })
        ));
    }
}
