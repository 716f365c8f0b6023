//! Cross-commit decision fingerprints: the `decisions_fnv` of one
//! session per built-in catalog entry, pinned to recorded values.
//!
//! The equivalence suites (`cohort_equiv.rs`, the fleet twin checks)
//! compare two execution shapes of the *same* build against each other,
//! so a change that moves every shape the same way passes them. These
//! constants hold the window engine to the digests it produced before,
//! byte for byte: a refactor of the serving path must leave them alone.
//! A deliberate change of the decision semantics updates them, and says
//! so.

use scalo_core::apps::seizure::SeizureApp;
use scalo_core::session::{Session, SessionSpec};
use scalo_core::snapshot::fnv1a;
use scalo_core::{PlanConfig, QueryCatalog, ScaloConfig};
use scalo_data::ieeg::{generate, IeegConfig, SeizureEvent};

/// One 0.9 s session (a seizure that propagates, so the hash/DTW
/// exchange runs) per built-in entry, on a bit-error channel so the
/// reliable transport changes the outcome.
fn catalog_digests() -> Vec<(String, u64)> {
    let catalog = QueryCatalog::with_builtins(PlanConfig {
        channels: 4,
        seed: 0x5ca1,
    });
    catalog
        .entries()
        .enumerate()
        .map(|(i, entry)| {
            let spec: SessionSpec = entry.spec(i as u64, 0x5ca1 + i as u64).with_ber(1e-4);
            let mut s = Session::new(spec);
            while !s.step().done {}
            (
                entry.name().to_string(),
                fnv1a(s.decision_digest().as_bytes()),
            )
        })
        .collect()
}

#[test]
fn catalog_sessions_keep_their_decision_fingerprints() {
    let got = catalog_digests();
    let want: [(&str, u64); 3] = [
        ("movement_mix", 0xf1d2_870a_2d99_223e),
        ("seizure_reliable", 0xef8a_9d69_3a6d_a084),
        ("seizure_watch", 0x3ad0_e57e_ddf2_40b5),
    ];
    let got: Vec<(&str, u64)> = got.iter().map(|(n, f)| (n.as_str(), *f)).collect();
    assert_eq!(got, want);
}

/// The hash-encoding error path draws from the application RNG per
/// electrode hash; the exchange must consume exactly the same draws.
#[test]
fn encoding_error_run_keeps_its_fingerprint() {
    let recording = |seed| {
        generate(&IeegConfig {
            nodes: 2,
            electrodes_per_node: 4,
            duration_s: 0.9,
            seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)],
            seed,
            ..Default::default()
        })
    };
    let mut app = SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(2)
            .with_electrodes(4)
            .with_seed(11),
    );
    app.train_detectors(&recording(11 ^ 1));
    app.hash_error_rate = 0.5;
    let run = app.run(&recording(11));
    let fnv = fnv1a(format!("{run:?} rng={}", app.rng_word_pos()).as_bytes());
    assert_eq!(fnv, 0xaa10_75ea_1758_240a);
}
