//! The SCALO distributed BCI: nodes, the wireless network between them,
//! and the three application classes of §2.2 running end-to-end.
//!
//! This crate composes every lower layer into the system of Figure 2:
//!
//! * [`node`] — one implant: fabric, storage, hashers, detector, clock;
//! * [`system`] — the network of implants with a TDMA medium and
//!   bit-error injection;
//! * [`apps`] — functional applications on real (synthetic) signals:
//!   seizure propagation, movement intent (SVM/NN/KF), spike sorting,
//!   and interactive queries;
//! * [`arch`] — the alternative architectures of Table 2 for the
//!   Figure 8a comparison;
//! * [`fault`] — deterministic seeded fault injection (crashes, BER
//!   spikes, clock drift, NVM block failures);
//! * [`membership`] — heartbeat failure detection and the
//!   suspicion/eviction state machine driving graceful degradation;
//! * [`session`] — resumable per-patient serving sessions (the unit of
//!   work the `scalo-fleet` serving layer schedules);
//! * [`cohort`] — the window engine every served window runs through:
//!   structurally identical sessions (a solo session is a cohort of
//!   one) share one radio stall, one fused block hash, and one FFT-plan
//!   walk per window, with per-session decisions unchanged;
//! * [`plan`] — query → plan binding compiler: typed validation,
//!   chain roles and cadences, the session binding, and the ILP
//!   admission budget;
//! * [`catalog`] — named query registry with cached compiled plans and
//!   the three built-in applications;
//! * [`workspace`] — reusable per-session scratch buffers backing the
//!   zero-allocation steady-state window pipeline;
//! * [`sntp`] — daily clock synchronisation (§3.6);
//! * [`runtime`] — the MC runtime that compiles queries (via
//!   `scalo-query` + `scalo-sched`) and reconfigures node pipelines.
//!
//! # Quickstart
//!
//! ```
//! use scalo_core::{Scalo, ScaloConfig};
//!
//! let system = Scalo::new(ScaloConfig::default().with_nodes(4));
//! assert_eq!(system.node_count(), 4);
//! ```

pub mod apps;
pub mod arch;
pub mod catalog;
pub mod cohort;
pub mod config;
pub mod fault;
pub mod membership;
pub mod node;
pub mod plan;
pub mod runtime;
pub mod session;
pub mod snapshot;
pub mod sntp;
pub mod state;
pub mod stim;
pub mod system;
pub mod workspace;

pub use catalog::{CatalogEntry, QueryCatalog};
pub use cohort::{Cohort, CohortKey};
pub use config::ScaloConfig;
pub use plan::{PlanConfig, PlanError, ProgramPlan, SessionBinding, WindowPlan};
pub use session::{Session, SessionSpec};
pub use snapshot::{SessionSnapshot, SnapshotError};
pub use system::Scalo;
pub use workspace::Workspace;
