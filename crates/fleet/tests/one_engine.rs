//! One serving engine, two entry points: a closed batch is a swap fleet
//! whose sessions are all resident and arrive at t=0 with all of their
//! windows. Serving one population both ways must make the same
//! decisions, window for window, and never touch the image tier.

use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::fnv1a;
use scalo_fleet::{
    Arrival, ArrivalPlan, Fleet, FleetConfig, SwapConfig, SwapFleet, SwapOutcomeState,
};
use std::collections::BTreeMap;

/// Two shapes (plain and movement mix) with mixed priorities.
fn population() -> Vec<SessionSpec> {
    (0..6u64)
        .map(|id| {
            SessionSpec::new(id, 0x0e1 + 37 * id)
                .with_duration_s(0.3)
                .with_priority((id % 3) as u8)
                .with_movement_every(if id % 3 == 2 { 20 } else { 0 })
        })
        .collect()
}

/// `(windows, decisions_fnv)` per session, from a closed batch.
fn closed_batch(specs: &[SessionSpec]) -> BTreeMap<u64, (u64, u64)> {
    let mut fleet = Fleet::new(FleetConfig::new(2));
    for spec in specs {
        fleet.submit(spec.clone()).unwrap();
    }
    let report = fleet.run();
    assert_eq!(report.sessions.len(), specs.len());
    report
        .sessions
        .iter()
        .map(|s| (s.id, (s.steps, fnv1a(s.digest.as_bytes()))))
        .collect()
}

#[test]
fn closed_batch_is_a_swap_fleet_that_never_swaps() {
    let specs = population();
    let windows = Session::new(specs[0].clone()).windows_total() as u32;
    // Every session arrives in epoch 0 with all of its windows.
    let plan = ArrivalPlan {
        epochs: vec![specs
            .iter()
            .map(|s| Arrival {
                at_us: 0,
                session: s.id,
                windows,
            })
            .collect()],
        total_arrivals: specs.len(),
        epoch_us: 50_000,
    };
    let mut swap = SwapFleet::new(SwapConfig::new(2, specs.len()));
    for spec in &specs {
        swap.submit(spec.clone()).unwrap();
    }
    let report = swap.run(&plan);
    assert_eq!(report.swap_outs, 0, "{report:?}");
    assert_eq!(report.swap_ins, 0);
    assert_eq!(report.epochs, 1);
    assert_eq!(report.count_state(SwapOutcomeState::Completed), specs.len());
    let swapped: BTreeMap<u64, (u64, u64)> = report
        .sessions
        .iter()
        .map(|s| (s.id, (s.windows, s.decisions_fnv)))
        .collect();

    let batch = closed_batch(&specs);
    assert!(batch.values().all(|&(w, _)| w == u64::from(windows)));
    assert_eq!(batch, swapped, "closed batch and swap fleet decided apart");
}
