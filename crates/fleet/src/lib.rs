//! `scalo-fleet`: a concurrent multi-patient serving layer.
//!
//! The core crates simulate *one* patient's implant network. This crate
//! serves *many*: each patient is a [`scalo_core::session::Session`]
//! (own seed, deployment preset, and application mix — a resumable unit
//! of work), and the fleet multiplexes them over a std-only worker
//! pool:
//!
//! * [`pool`] — lock-free Chase-Lev work-stealing deques (built on
//!   `std::thread` and atomics, no locks), so one patient's slow
//!   seizure-confirmation step never stalls the rest of the fleet and
//!   idle workers steal without contending on a mutex, and a job
//!   waiting on its radio parks on a timer instead of holding a worker;
//! * [`admission`] — an aggregate compute budget at the front door,
//!   degrading gracefully by shedding lowest-priority sessions first
//!   (the membership layer's eviction idiom, one level up);
//! * [`metrics`] — atomic counters, gauges, and fixed-bucket latency
//!   histograms, fleet-wide only (per-session totals ride in the report
//!   rows), exported as JSON;
//! * [`fleet`] — the one serving engine tying the three together;
//! * [`durable`] — write-ahead durability: admissions, per-window
//!   decision digests, and periodic checkpoints in a page-structured
//!   log (`scalo_storage::wal`), with crash recovery by deterministic
//!   re-execution and digest-verified replay;
//! * [`swap`] — the engine over a bounded resident set ([`SwapFleet`]):
//!   cold admission of 10k+ sessions, LRU eviction to a modeled NVM
//!   image tier through the single SCSS codec, priority pinning, and
//!   fault-in on arrival from an open-loop generator ([`swap::arrivals`]).
//!   A closed batch ([`Fleet`]) is the case where every session is
//!   resident and arrives at t=0.
//!
//! Determinism is the load-bearing property: a session owns all of its
//! state and wall-clock timing feeds metrics only, so the same set of
//! seeded sessions produces byte-identical per-session decisions on one
//! worker or many — threading changes the interleaving, never a result.
//!
//! # Quickstart
//!
//! ```
//! use scalo_core::session::SessionSpec;
//! use scalo_fleet::{Fleet, FleetConfig};
//!
//! let mut fleet = Fleet::new(FleetConfig::new(2));
//! for id in 0..4 {
//!     fleet
//!         .submit(SessionSpec::new(id, 0xbc1 + id).with_duration_s(0.3))
//!         .unwrap();
//! }
//! let report = fleet.run();
//! assert_eq!(report.sessions.len(), 4);
//! ```

pub mod admission;
pub mod durable;
pub mod fleet;
pub mod metrics;
pub mod pool;
pub mod swap;

pub use admission::{AdmissionConfig, AdmissionController, AdmissionEvent};
pub use durable::{DurabilityConfig, DurabilityError, FleetLogger, RecoveryReport};
pub use fleet::{
    AdmitError, DurabilitySummary, Fleet, FleetConfig, FleetReport, QuerySubmitError,
    ReconfigureRecord, SessionServing, SubmitState,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use pool::{PoolReport, Quantum, WorkUnit};
pub use swap::arrivals::{Arrival, ArrivalConfig, ArrivalPlan};
pub use swap::{SwapConfig, SwapFleet, SwapOutcomeState, SwapReport, SwapSessionOutcome};
