//! Fleet determinism: threading must never change results.
//!
//! The same set of seeded sessions must produce byte-identical
//! per-session decisions whether the fleet runs on 1 worker or N —
//! work stealing and quantum interleaving may reorder *execution*, but
//! every decision is a function of the session's seed alone.

use scalo_core::session::SessionSpec;
use scalo_fleet::{Fleet, FleetConfig};
use std::collections::BTreeMap;

/// A mixed population: varying seeds, mixes, transports, and BERs.
fn population() -> Vec<SessionSpec> {
    (0..8u64)
        .map(|id| {
            let mut spec = SessionSpec::new(id, 0xd00d + 17 * id)
                .with_duration_s(0.4)
                .with_io_stall_us(if id % 5 == 0 { 25 } else { 0 })
                .with_movement_every(if id % 3 == 0 { 20 } else { 0 });
            if id % 2 == 0 {
                spec = spec.with_ber(1e-4);
                spec.use_reliable_transport = true;
            }
            spec
        })
        .collect()
}

/// Runs the population on `workers` threads and returns each session's
/// decision digest by id.
fn digests(workers: usize, quantum: usize) -> BTreeMap<u64, String> {
    serve(
        population(),
        FleetConfig::new(workers).with_quantum_steps(quantum),
    )
}

/// Serves `specs` on a fleet configured by `cfg` and returns each
/// session's decision digest by id.
fn serve(specs: Vec<SessionSpec>, cfg: FleetConfig) -> BTreeMap<u64, String> {
    let mut fleet = Fleet::new(cfg);
    for spec in specs {
        fleet
            .submit(spec)
            .expect("population fits the default budget");
    }
    fleet
        .run()
        .sessions
        .into_iter()
        .map(|s| (s.id, s.digest))
        .collect()
}

#[test]
fn one_worker_vs_many_workers_byte_identical() {
    let baseline = digests(1, 8);
    assert_eq!(baseline.len(), 8);
    for (workers, quantum) in [(2, 8), (4, 8), (4, 3)] {
        let threaded = digests(workers, quantum);
        for (id, digest) in &baseline {
            assert_eq!(
                threaded.get(id),
                Some(digest),
                "session {id} decisions diverged on {workers} workers (quantum {quantum})"
            );
        }
    }
}

#[test]
fn repeated_runs_are_reproducible() {
    assert_eq!(digests(4, 8), digests(4, 8));
}

#[test]
fn digests_separate_sessions() {
    let d = digests(2, 8);
    let unique: std::collections::BTreeSet<&String> = d.values().collect();
    assert_eq!(
        unique.len(),
        d.len(),
        "each seed must yield distinct decisions"
    );
}

/// Every session waits on its radio each window, so the fleet parks
/// every window off its worker and resumes it when the wait is over.
/// Parking reorders execution only: on 1 or 4 workers, every session
/// decides byte-for-byte as with no wait.
#[test]
fn parked_radio_waits_keep_digests() {
    let baseline = digests(1, 8);
    let stalled = || -> Vec<SessionSpec> {
        population()
            .into_iter()
            .map(|s| s.with_io_stall_us(150))
            .collect()
    };
    for workers in [1, 4] {
        let parked = serve(stalled(), FleetConfig::new(workers));
        assert_eq!(
            parked, baseline,
            "parked waits changed decisions on {workers} workers"
        );
    }
}
