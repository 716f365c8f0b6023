//! Seeded inputs: the patient population and the open-loop arrival
//! plan. The program under test only ever sees what these build.

use scalo_core::catalog::QueryCatalog;
use scalo_core::plan::PlanConfig;
use scalo_core::session::SessionSpec;
use scalo_fleet::{Arrival, ArrivalPlan};
use std::ops::Range;

/// Recording length. At 0.3 s a session still detects seizure onset and
/// runs probe, DTW and radio spans, and its build stays cheap and
/// linear; longer recordings hit the quadratic seizure ramp in
/// recording synthesis, whose cost dominated (and destabilised) every
/// timed phase.
const DURATION_S: f64 = 0.3;

/// Implants per patient and electrodes per implant.
const NODES: usize = 2;
const ELECTRODES: usize = 4;

/// Channel bit-error ratio on odd session ids.
const NOISY_BER: f64 = 1e-4;

/// The catalog applications, assigned round-robin by session id.
const APPS: [&str; 3] = ["movement_mix", "seizure_reliable", "seizure_watch"];

/// SplitMix64: one well-mixed word from `x`.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// `sessions` patients drawn from the query catalog. The shape mix is
/// fixed by id (so every seed does comparable work); the seed picks
/// each patient's recording, detectors and channel.
pub fn population(seed: u64, sessions: u64, io_stall_us: u64) -> Vec<SessionSpec> {
    let catalog = QueryCatalog::with_builtins(PlanConfig::default());
    (0..sessions)
        .map(|id| {
            let entry = catalog
                .get(APPS[(id % 3) as usize])
                .expect("built-in catalog entry");
            let mut spec = entry
                .spec(id, mix(seed ^ mix(id)))
                .with_deployment(NODES, ELECTRODES)
                .with_duration_s(DURATION_S)
                .with_priority(1 + (id % 3) as u8)
                .with_io_stall_us(io_stall_us);
            if id % 2 == 1 {
                spec = spec.with_ber(NOISY_BER);
            }
            spec
        })
        .collect()
}

/// Open-loop horizon and epoch of `swap_churn`'s plan, µs.
const HORIZON_US: u64 = 1_000_000;
const EPOCH_US: u64 = 50_000;
/// Windows each arrival carries.
const BURST_WINDOWS: u32 = 6;
/// Arrivals per session over the horizon: one per ~143 ms, and 8× as
/// many for the hot sessions.
const ARRIVALS: u64 = 7;
const HOT_SPEEDUP: u64 = 8;

/// The bursty open-loop plan `swap_churn` replays for the sessions
/// `ids`. The lowest-id tenth of them (at least one) is hot. Each
/// session arrives once per equal slot of the horizon, at the same
/// offset into every slot. The seed shuffles the sessions, and the
/// k-th of n in that order takes offset k/n of a slot. Arrivals of one
/// session that land in one epoch merge into a bigger burst.
///
/// The library's generator draws Poisson gaps instead. On one
/// 16-session slice, the number of arrivals then moved the fault-ins
/// from 11 to 23 between seeds. With each arrival placed at random
/// inside its slot, the fault-ins of four slices still ranged from 69
/// to 84 over seeds 51–58; with the shuffle, from 74 to 77.
pub fn arrival_plan(seed: u64, ids: Range<u64>) -> ArrivalPlan {
    let n = ids.end - ids.start;
    let hot = n.div_ceil(10);
    let mut order: Vec<u64> = ids.clone().collect();
    order.sort_by_key(|&id| mix(seed ^ 0xa441_7a15 ^ mix(id)));
    let mut epochs: Vec<Vec<Arrival>> = vec![Vec::new(); HORIZON_US.div_ceil(EPOCH_US) as usize];
    let mut total_arrivals = 0;
    for (k, &id) in (0u64..).zip(&order) {
        let arrivals = if id - ids.start < hot {
            ARRIVALS * HOT_SPEEDUP
        } else {
            ARRIVALS
        };
        let slot_us = HORIZON_US / arrivals;
        let offset_us = k * slot_us / n;
        let mut last_epoch = None;
        for i in 0..arrivals {
            let at_us = i * slot_us + offset_us;
            let epoch = (at_us / EPOCH_US) as usize;
            if last_epoch == Some(epoch) {
                // This session's arrivals are pushed in time order, so
                // its latest one is the epoch's last entry.
                let merged = epochs[epoch].last_mut().expect("pushed just before");
                merged.windows += BURST_WINDOWS;
            } else {
                epochs[epoch].push(Arrival {
                    at_us,
                    session: id,
                    windows: BURST_WINDOWS,
                });
                total_arrivals += 1;
                last_epoch = Some(epoch);
            }
        }
    }
    for epoch in &mut epochs {
        epoch.sort_by_key(|a| (a.at_us, a.session));
    }
    ArrivalPlan {
        epochs,
        total_arrivals,
        epoch_us: EPOCH_US,
    }
}

/// `k` of the `candidates` ids, picked by the seed, ascending.
pub fn sample_ids(seed: u64, candidates: impl IntoIterator<Item = u64>, k: usize) -> Vec<u64> {
    let mut ids: Vec<u64> = candidates.into_iter().collect();
    ids.sort_by_key(|&id| mix(seed ^ 0x5a3c ^ mix(id)));
    ids.truncate(k);
    ids.sort_unstable();
    ids
}
