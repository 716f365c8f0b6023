//! Crash recovery end to end: kill a durable fleet mid-run, recover
//! from the write-ahead log, continue serving, and prove the combined
//! decisions are byte-identical to an uninterrupted run.
//!
//! The binary installs the counting allocator so the last test can hold
//! the durability layer to the fleet's steady-state discipline: quiet
//! windows with logging enabled allocate nothing.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scalo_core::session::{Session, SessionSpec};
use scalo_fleet::{DurabilityConfig, Fleet, FleetConfig, FleetLogger, MetricsRegistry};
use std::collections::BTreeMap;
use std::path::PathBuf;

#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalo-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A small mixed population (movement mix on one session so replay
/// covers the decode rotation too).
fn population() -> Vec<SessionSpec> {
    (0..3u64)
        .map(|id| {
            SessionSpec::new(id, 0x5eed + 31 * id)
                .with_duration_s(0.3)
                .with_movement_every(if id == 1 { 20 } else { 0 })
        })
        .collect()
}

fn digests(report: &scalo_fleet::FleetReport) -> BTreeMap<u64, String> {
    report
        .sessions
        .iter()
        .map(|s| (s.id, s.digest.clone()))
        .collect()
}

fn durability_config(dir: &PathBuf) -> DurabilityConfig {
    DurabilityConfig::new(dir)
        .with_checkpoint_every_windows(16)
        .with_sync_every_records(8)
}

#[test]
fn durable_logging_observes_never_steers() {
    let mut plain = Fleet::new(FleetConfig::new(2));
    for spec in population() {
        plain.submit(spec).unwrap();
    }
    let baseline = plain.run();

    let dir = wal_dir("observe");
    let mut durable = Fleet::open_durable(FleetConfig::new(2), &durability_config(&dir)).unwrap();
    for spec in population() {
        durable.submit(spec).unwrap();
    }
    let logged = durable.run();

    assert_eq!(digests(&baseline), digests(&logged), "logging steered");
    let d = logged.durability.as_ref().expect("durable run reports WAL");
    assert!(d.clean_shutdown);
    assert!(d.error.is_none(), "{:?}", d.error);
    assert!(d.records > 200, "3 sessions × 75 windows: {d:?}");
    assert!(d.pages_written >= 1);
    assert!(logged.metrics_json.contains("wal.records"));
    assert!(logged.metrics_json.contains("wal.checkpoints"));
    assert!(logged.to_json().contains("\"clean_shutdown\":true"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_recover_replay_is_byte_identical() {
    // Uninterrupted baseline.
    let mut plain = Fleet::new(FleetConfig::new(2));
    for spec in population() {
        plain.submit(spec).unwrap();
    }
    let baseline = digests(&plain.run());
    assert_eq!(baseline.len(), 3);

    // Seeded crash schedule: two kills, then a run to completion. Both
    // kill points land before any session's 75 windows can finish.
    let mut rng = ChaCha8Rng::seed_from_u64(0xdead_beef);
    let kill_1 = rng.gen_range(20..60);
    let kill_2 = rng.gen_range(20..60);

    let dir = wal_dir("kill");
    let dcfg = durability_config(&dir);

    let mut fleet =
        Fleet::open_durable(FleetConfig::new(2).with_halt_after_windows(kill_1), &dcfg).unwrap();
    for spec in population() {
        fleet.submit(spec).unwrap();
    }
    let crashed = fleet.run();
    let d = crashed.durability.as_ref().unwrap();
    assert!(!d.clean_shutdown, "the kill must skip the final sync");

    // First recovery: every admitted session comes back, and the
    // decision suffix past the checkpoints is digest-verified.
    let (fleet, rec) =
        Fleet::recover(FleetConfig::new(2).with_halt_after_windows(kill_2), &dcfg).unwrap();
    assert_eq!(rec.sessions_recovered, 3, "{rec:?}");
    assert_eq!(rec.sessions_done, 0);
    assert!(rec.log_records > 0);
    let crashed_again = fleet.run();
    assert!(!crashed_again.durability.as_ref().unwrap().clean_shutdown);

    // Second recovery runs to completion.
    let (fleet, rec2) = Fleet::recover(FleetConfig::new(2), &dcfg).unwrap();
    assert_eq!(rec2.sessions_recovered, 3, "{rec2:?}");
    let finished = fleet.run();
    assert!(finished.durability.as_ref().unwrap().clean_shutdown);
    assert!(finished.metrics_json.contains("fleet.recovered_sessions"));

    assert_eq!(
        digests(&finished),
        baseline,
        "recovered decisions diverged from the uninterrupted run"
    );

    // A third recovery of the now-complete log resurrects nothing.
    let (fleet, rec3) = Fleet::recover(FleetConfig::new(2), &dcfg).unwrap();
    assert_eq!(rec3.sessions_recovered, 0, "{rec3:?}");
    assert_eq!(rec3.sessions_done, 3);
    assert_eq!(fleet.run().sessions.len(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shed_sessions_are_not_resurrected() {
    let dir = wal_dir("shed");
    let dcfg = durability_config(&dir);
    let mut fleet = Fleet::open_durable(
        FleetConfig::new(1)
            .with_budget(16.0)
            .with_halt_after_windows(10),
        &dcfg,
    )
    .unwrap();
    fleet
        .submit(
            SessionSpec::new(1, 0xa)
                .with_duration_s(0.3)
                .with_priority(1),
        )
        .unwrap();
    fleet
        .submit(
            SessionSpec::new(2, 0xb)
                .with_duration_s(0.3)
                .with_priority(1),
        )
        .unwrap();
    // Priority 7 sheds the newest priority-1 session (id 2).
    fleet
        .submit(
            SessionSpec::new(3, 0xc)
                .with_duration_s(0.3)
                .with_priority(7),
        )
        .unwrap();
    let _ = fleet.run();

    let (_, rec) = Fleet::recover(FleetConfig::new(1).with_budget(16.0), &dcfg).unwrap();
    assert_eq!(rec.sessions_recovered, 2, "{rec:?}");
    assert_eq!(rec.sessions_shed, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A hot reconfiguration survives a crash: the cutover forces a
/// checkpoint carrying the new binding epoch, so a kill *after* the
/// cutover recovers a session that finishes byte-identical to an
/// uninterrupted reconfigured run.
#[test]
fn reconfigured_session_recovers_byte_identical() {
    use scalo_core::catalog;

    let spec = SessionSpec::new(7, 0x7ec0).with_duration_s(0.3);

    // Uninterrupted reconfigured baseline.
    let mut plain = Fleet::new(FleetConfig::new(1));
    plain.submit(spec.clone()).unwrap();
    plain.schedule_reconfigure(7, 20, catalog::MOVEMENT_MIX, None);
    let baseline = plain.run();
    assert!(baseline.reconfigures[0].ok, "{:?}", baseline.reconfigures);
    let want = baseline.sessions[0].digest.clone();

    // Durable run, killed after the cutover but before completion.
    let dir = wal_dir("reconfig");
    let dcfg = durability_config(&dir);
    let mut fleet =
        Fleet::open_durable(FleetConfig::new(1).with_halt_after_windows(40), &dcfg).unwrap();
    fleet.submit(spec).unwrap();
    fleet.schedule_reconfigure(7, 20, catalog::MOVEMENT_MIX, None);
    let crashed = fleet.run();
    assert!(crashed.reconfigures[0].ok, "{:?}", crashed.reconfigures);
    assert!(!crashed.durability.as_ref().unwrap().clean_shutdown);

    // Recovery restores the query-backed epoch from the checkpoint and
    // the run completes with the baseline's decisions.
    let (fleet, rec) = Fleet::recover(FleetConfig::new(1), &dcfg).unwrap();
    assert_eq!(rec.sessions_recovered, 1, "{rec:?}");
    let finished = fleet.run();
    assert_eq!(
        finished.sessions[0].digest, want,
        "recovered reconfigured session diverged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery replays at compute speed: each replayed window is charged
/// its modeled radio wait but does not wait for it. A 2×2 session with
/// a 2 ms wait is killed at window 248, over 100 logged windows past
/// its checkpoint at window 128. Sleeping through the replay would cost
/// twice the bound below; restoring and replaying cost a fraction of
/// it.
#[test]
fn recovery_charges_radio_waits_without_sleeping() {
    const STALL_US: u64 = 2_000;
    let spec = SessionSpec::new(3, 0x51ee)
        .with_deployment(2, 2)
        .with_duration_s(1.0)
        .with_io_stall_us(STALL_US);
    let mut plain = Fleet::new(FleetConfig::new(1));
    plain.submit(spec.clone()).unwrap();
    let baseline = digests(&plain.run());

    let dir = wal_dir("nosleep");
    let dcfg = durability_config(&dir).with_checkpoint_every_windows(128);
    let mut fleet =
        Fleet::open_durable(FleetConfig::new(1).with_halt_after_windows(248), &dcfg).unwrap();
    fleet.submit(spec).unwrap();
    fleet.run();

    let (fleet, rec) = Fleet::recover(FleetConfig::new(1), &dcfg).unwrap();
    assert_eq!(rec.sessions_recovered, 1, "{rec:?}");
    assert!((100..=120).contains(&rec.windows_replayed), "{rec:?}");
    let bound_ms = rec.windows_replayed as f64 * STALL_US as f64 / 1_000.0 / 2.0;
    assert!(
        rec.recovery_ms < bound_ms,
        "recovery took {} ms for {} replayed windows (bound {bound_ms} ms)",
        rec.recovery_ms,
        rec.windows_replayed
    );
    assert_eq!(
        digests(&fleet.run()),
        baseline,
        "recovered decisions diverged from the uninterrupted run"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Quiet windows stay zero-alloc with logging enabled: for every
/// window, (step + digest + decision append) performs exactly as many
/// heap operations as the same window on an unlogged twin session —
/// i.e. the durability layer adds zero.
#[test]
fn quiet_windows_with_logging_stay_zero_alloc() {
    let dir = wal_dir("zeroalloc");
    let metrics = MetricsRegistry::new();
    let logger = FleetLogger::open(&durability_config(&dir), &metrics).unwrap();
    let spec = SessionSpec::new(1, 0x9a9a).with_duration_s(0.4);
    let mut logged = Session::new(spec.clone());
    let mut plain = Session::new(spec);

    // Window 0 warms rings and scratch on both; the first append sizes
    // the WAL's reusable buffers.
    let out = logged.step();
    logger
        .log_decision(1, out.window as u32, logged.step_digest())
        .unwrap();
    plain.step();

    let mut diverged = Vec::new();
    let mut quiet_zero = 0u32;
    while !logged.is_done() {
        let (_, c_plain) = scalo_alloc::measure(|| {
            plain.step();
            plain.step_digest()
        });
        let (_, c_logged) = scalo_alloc::measure(|| {
            let out = logged.step();
            let digest = logged.step_digest();
            logger.log_decision(1, out.window as u32, digest).unwrap();
        });
        if c_logged.heap_ops() != c_plain.heap_ops() {
            diverged.push((out.window, c_plain, c_logged));
        }
        if c_logged.heap_ops() == 0 {
            quiet_zero += 1;
        }
    }
    assert!(
        diverged.is_empty(),
        "logging added heap ops on some windows: {diverged:?}"
    );
    assert!(
        quiet_zero > 20,
        "expected many fully quiet zero-alloc windows, saw {quiet_zero}"
    );
    logger.finish().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}
