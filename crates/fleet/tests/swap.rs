//! `scalo-swap` end to end: a bounded resident set serving many more
//! admitted sessions than it can hold, with LRU eviction to the NVM
//! image tier and fault-in on arrival — and decisions that stay a pure
//! function of each session's seed no matter how the set churns.
//!
//! The binary installs the counting allocator so the last test can hold
//! the resident hot loop to the fleet's zero-alloc discipline.

use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::fnv1a;
use scalo_fleet::{
    ArrivalConfig, ArrivalPlan, DurabilityConfig, Fleet, FleetConfig, MetricsRegistry, SwapConfig,
    SwapFleet, SwapOutcomeState, SwapReport,
};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: scalo_alloc::CountingAllocator = scalo_alloc::CountingAllocator;

fn wal_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("scalo-swaptest-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A mixed population: varied seeds and priorities, movement mix on a
/// third of the sessions so fault-in replay covers the decode rotation.
fn population(n: u64) -> Vec<SessionSpec> {
    (0..n)
        .map(|id| {
            SessionSpec::new(id, 0x51ee7 + 131 * id)
                .with_duration_s(0.25)
                .with_priority((id % 5) as u8)
                .with_movement_every(if id % 3 == 1 { 20 } else { 0 })
        })
        .collect()
}

/// A dense schedule: every session arrives several times inside the
/// horizon, so a small resident set has to churn constantly.
fn dense_plan(sessions: u64, seed: u64) -> ArrivalPlan {
    ArrivalPlan::generate(&ArrivalConfig {
        horizon_us: 400_000,
        mean_gap_us: 60_000,
        ..ArrivalConfig::new(sessions, seed)
    })
}

/// The never-swapped oracle: a fresh session stepped the same number of
/// windows, decisions fingerprinted the same way.
fn twin_fnv(spec: &SessionSpec, windows: u64) -> u64 {
    let mut twin = Session::new(spec.clone());
    for _ in 0..windows {
        twin.step();
    }
    fnv1a(twin.decision_digest().as_bytes())
}

fn run_plan(specs: &[SessionSpec], cfg: SwapConfig, plan: &ArrivalPlan) -> SwapReport {
    let mut fleet = SwapFleet::new(cfg);
    for spec in specs {
        fleet.submit(spec.clone()).unwrap();
    }
    fleet.run(plan)
}

/// The tentpole property: evict → fault-in → resume is invisible to
/// decisions. A 3-slot fleet churning 12 sessions produces the same
/// fleet digest as a 64-slot fleet that never swaps, and every
/// session's fingerprint matches its never-swapped twin.
#[test]
fn evict_fault_in_resume_is_byte_identical_to_never_swapped() {
    let specs = population(12);
    let plan = dense_plan(12, 0x5ca1);

    let big = run_plan(&specs, SwapConfig::new(2, 64), &plan);
    let small = run_plan(&specs, SwapConfig::new(2, 3), &plan);

    assert_eq!(big.swap_outs, 0, "64 slots never need to evict");
    assert!(small.swap_outs > 0, "3 slots must churn: {small:?}");
    assert!(small.swap_ins > 0);
    assert!(small.resident_peak <= 3, "budget breached: {small:?}");
    assert!(big.resident_peak > 3);

    assert_eq!(
        small.digest_fnv, big.digest_fnv,
        "swapping changed decisions"
    );
    for s in &small.sessions {
        if s.windows == 0 {
            continue;
        }
        assert_eq!(
            s.decisions_fnv,
            twin_fnv(&specs[s.id as usize], s.windows),
            "session {} diverged from its never-swapped twin",
            s.id
        );
    }

    // The run is replayable: same plan, same budget, same digest.
    let again = run_plan(&specs, SwapConfig::new(2, 3), &plan);
    assert_eq!(again.digest_fnv, small.digest_fnv);
    assert_eq!(again.swap_outs, small.swap_outs);

    // Observability: gauges and swap histograms land in the export.
    assert!(small.metrics_json.contains("fleet.resident_sessions"));
    assert!(small.metrics_json.contains("fleet.nvm_image_bytes"));
    assert!(small.swap_in_us.count >= small.swap_ins);
    assert!(small.to_json().contains("\"digest_fnv\""));
}

/// Query-backed sessions swap like any other: admitted by query
/// string, evicted and faulted back in through the snapshot codec
/// (which round-trips the query), and byte-identical to the equivalent
/// spec-constructed population under the same churn.
#[test]
fn query_backed_sessions_survive_swap_churn() {
    use scalo_core::catalog;

    let sources = [
        catalog::SEIZURE_WATCH,
        catalog::SEIZURE_RELIABLE,
        catalog::MOVEMENT_MIX,
    ];
    // The spec-constructed twin population: bindings mirrored by hand.
    let specs: Vec<SessionSpec> = (0..6u64)
        .map(|id| {
            let mut spec = SessionSpec::new(id, query_seed(id)).with_duration_s(0.25);
            match id % 3 {
                1 => spec.use_reliable_transport = true,
                2 => spec.movement_every = 25,
                _ => {}
            }
            spec
        })
        .collect();
    let plan = dense_plan(6, 0x933);

    let baseline = run_plan(&specs, SwapConfig::new(2, 2), &plan);
    assert!(baseline.swap_outs > 0, "2 slots over 6 sessions must churn");

    let mut fleet = SwapFleet::new(SwapConfig::new(2, 2));
    for id in 0..6u64 {
        let base = SessionSpec::new(id, query_seed(id)).with_duration_s(0.25);
        fleet
            .submit_query(base, sources[(id % 3) as usize])
            .unwrap();
    }
    let queried = fleet.run(&plan);

    assert_eq!(
        queried.digest_fnv, baseline.digest_fnv,
        "query admission changed decisions under swap churn"
    );
    assert!(queried.metrics_json.contains("fleet.query_compile_us"));
}

fn query_seed(id: u64) -> u64 {
    0x9a0 + 977 * id
}

/// Priority pinning: pinned sessions are never eviction victims, while
/// the low-priority tail swaps around them.
#[test]
fn pinned_sessions_are_never_swapped() {
    let mut specs = population(8);
    specs[0] = specs[0].clone().with_priority(255);
    specs[4] = specs[4].clone().with_priority(200);
    let plan = dense_plan(8, 0x9177);

    let report = run_plan(&specs, SwapConfig::new(2, 3), &plan);
    assert!(report.swap_outs > 0, "the tail must churn: {report:?}");
    for s in &report.sessions {
        if s.pinned {
            assert_eq!(s.swap_outs, 0, "pinned session {} was evicted", s.id);
            assert!(s.windows > 0, "pinned session {} starved", s.id);
        }
        if s.windows > 0 {
            assert_eq!(s.decisions_fnv, twin_fnv(&specs[s.id as usize], s.windows));
        }
    }
    assert_eq!(report.sessions.iter().filter(|s| s.pinned).count(), 2);
}

/// Crash a durable swap fleet mid-schedule with sessions parked on the
/// image tier, recover from the WAL alone, and run everything to
/// completion: the swapped-then-recovered decisions are byte-identical
/// to sessions that never stopped.
#[test]
fn crashed_swap_fleet_recovers_swapped_sessions_byte_identical() {
    let specs = population(8);
    let plan = dense_plan(8, 0xc4a5);
    let dir = wal_dir("crash");
    let dcfg = DurabilityConfig::new(&dir);

    let mut fleet =
        SwapFleet::open_durable(SwapConfig::new(2, 2).with_halt_after_epochs(5), &dcfg).unwrap();
    for spec in &specs {
        fleet.submit(spec.clone()).unwrap();
    }
    let crashed = fleet.run(&plan);
    let d = crashed
        .durability
        .as_ref()
        .expect("durable run reports WAL");
    assert!(!d.clean_shutdown, "the halt must skip the final sync");
    assert!(d.error.is_none(), "{:?}", d.error);
    assert!(
        crashed.swap_outs > 0,
        "the crash must land with sessions parked on NVM: {crashed:?}"
    );

    // Recovery uses the classic fleet: every session the WAL knows
    // comes back (resident or swapped alike — the checkpoint IS the
    // swap image) and runs to completion.
    let (recovered, rec) = Fleet::recover(FleetConfig::new(2).with_budget(1e9), &dcfg).unwrap();
    let built: Vec<u64> = crashed
        .sessions
        .iter()
        .filter(|s| {
            matches!(
                s.state,
                SwapOutcomeState::Resident
                    | SwapOutcomeState::Swapped
                    | SwapOutcomeState::Completed
            )
        })
        .map(|s| s.id)
        .collect();
    assert_eq!(
        rec.sessions_recovered + rec.sessions_done,
        built.len(),
        "every built session is in the log: {rec:?}"
    );
    let finished = recovered.run();
    assert!(finished.durability.as_ref().unwrap().clean_shutdown);
    for s in &finished.sessions {
        let mut twin = Session::new(specs[s.id as usize].clone());
        while !twin.step().done {}
        assert_eq!(
            s.digest,
            twin.decision_digest(),
            "recovered session {} diverged from the uninterrupted run",
            s.id
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seeded read-disturb faults on the swap device: transient corruption
/// is caught by the SCSS checksum and retried; a fully-corrupt device
/// fails closed — bursts are dropped, decisions never drift.
#[test]
fn nvm_faults_retry_then_fail_closed_without_corrupting_decisions() {
    let specs = population(10);
    let plan = dense_plan(10, 0xfa57);

    // Transient: 12% of page reads flip a bit; retries absorb them.
    let flaky = run_plan(
        &specs,
        SwapConfig::new(2, 2).with_faults(120_000, 0xbad5eed),
        &plan,
    );
    assert!(flaky.faults_injected > 0, "no faults fired: {flaky:?}");
    assert!(flaky.fault_retries > 0, "faults must surface as retries");
    assert!(flaky.swap_ins > 0);

    // Catastrophic: every page read is corrupt, so no fault-in ever
    // succeeds — swapped sessions stay parked at their old cursor.
    let dead = run_plan(
        &specs,
        SwapConfig::new(2, 2).with_faults(1_000_000, 1),
        &plan,
    );
    assert!(
        dead.fault_failures > 0,
        "all-corrupt reads must fail: {dead:?}"
    );
    assert_eq!(dead.swap_ins, 0, "no corrupt image may restore");
    assert_eq!(dead.count_state(SwapOutcomeState::Failed), 0);

    // Fail-closed means pure: whatever each session managed to step,
    // its decisions match the never-swapped twin at that cursor.
    for report in [&flaky, &dead] {
        for s in &report.sessions {
            if s.windows == 0 || s.state == SwapOutcomeState::Failed {
                continue;
            }
            assert_eq!(
                s.decisions_fnv,
                twin_fnv(&specs[s.id as usize], s.windows),
                "session {} corrupted by fault handling",
                s.id
            );
        }
    }
}

/// Scale smoke: thousands of cold-admitted sessions over a resident
/// set two orders of magnitude smaller, deterministic end to end.
#[test]
fn thousands_admitted_over_a_small_resident_set() {
    let n = 2_000u64;
    let specs: Vec<SessionSpec> = (0..n)
        .map(|id| {
            // Single-electrode implants keep 2k cold builds cheap; the
            // bench covers 10k sessions at realistic spec sizes.
            SessionSpec::new(id, 0xace + 7 * id)
                .with_deployment(1, 1)
                .with_duration_s(0.2)
                .with_priority((id % 3) as u8)
        })
        .collect();
    // Sparse arrivals: most sessions get one or two bursts, a hot tenth
    // keeps returning — only a fraction is ever warm at once.
    let plan = ArrivalPlan::generate(&ArrivalConfig {
        horizon_us: 200_000,
        mean_gap_us: 150_000,
        burst_windows: 6,
        ..ArrivalConfig::new(n, 0x10ad)
    });

    let cfg = SwapConfig::new(4, 64).with_admitted_capacity(4_096);
    let a = run_plan(&specs, cfg, &plan);
    assert_eq!(a.admitted, n as usize);
    assert!(a.resident_peak <= 64, "{a:?}");
    assert!(a.swap_outs > 0);
    assert!(a.windows > 0);

    let b = run_plan(&specs, cfg, &plan);
    assert_eq!(a.digest_fnv, b.digest_fnv, "scale run not replayable");
}

/// The resident hot loop — step, observe latency, bump counters — does
/// exactly what a fleet group job does, and quiet windows stay zero-alloc.
#[test]
fn resident_burst_hot_loop_stays_zero_alloc() {
    let metrics = MetricsRegistry::new();
    let hist = metrics.histogram("fleet.step_latency_us");
    let steps = metrics.counter("fleet.steps");
    let misses = metrics.counter("fleet.deadline_misses");
    let mut session = Session::new(SessionSpec::new(1, 0x2e20).with_duration_s(0.4));
    // Window 0 warms rings and scratch.
    session.step();

    let mut quiet_zero = 0u32;
    while !session.is_done() {
        let (_, counts) = scalo_alloc::measure(|| {
            let out = session.step();
            hist.observe(out.wall_us);
            steps.incr();
            if out.deadline_missed {
                misses.incr();
            }
        });
        if counts.heap_ops() == 0 {
            quiet_zero += 1;
        }
    }
    assert!(
        quiet_zero > 20,
        "expected many zero-alloc resident windows, saw {quiet_zero}"
    );
}
