//! Cross-crate integration tests: whole-stack scenarios through the
//! `scalo` facade.

use scalo::core::apps::seizure::{training_windows, SeizureApp};
use scalo::core::arch::{architecture_throughput, Architecture, Fig8Task};
use scalo::core::runtime::McRuntime;
use scalo::core::{Scalo, ScaloConfig};
use scalo::data::ieeg::{generate, IeegConfig, SeizureEvent};
use scalo::sched::Scenario;

#[test]
fn three_node_seizure_propagation_end_to_end() {
    let nodes = 3;
    let recording = |seed| IeegConfig {
        nodes,
        electrodes_per_node: 4,
        duration_s: 0.9,
        seizures: vec![SeizureEvent::uniform(0.25, 0.55, 0, nodes, 0.02)],
        seed,
        ..Default::default()
    };
    let mut app = SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(nodes)
            .with_electrodes(4)
            .with_seed(314),
    );
    app.train_detectors(&training_windows(&recording(1)));
    let run = app.run(&generate(&recording(2)));
    assert!(run.origin_detect_window.is_some());
    assert!(
        !run.confirmations.is_empty(),
        "at least one remote site confirms: {run:?}"
    );
    for c in &run.confirmations {
        assert!(c.delay_ms <= 120.0, "confirmation {c:?} unreasonably late");
    }
}

#[test]
fn query_language_to_fabric_deployment() {
    // Listing 1 (movement decoding) and Listing 2 (interactive query)
    // both compile, schedule and deploy onto one fabric.
    let mut rt = McRuntime::new();
    let l1 = rt
        .deploy(
            "var movements = stream.window(wsize=50ms).sbp().kf(kf_params).call_runtime()",
            &Scenario::new(4, 15.0),
            50.0,
            4.0,
        )
        .unwrap();
    assert!(l1.schedule.electrodes >= 96, "{:?}", l1.schedule);
    let l2 = rt
        .deploy(
            "var seizure_data = stream.Map( s => s.select(s => s.data), s.locID)\
             .window(wsize=4ms).select(w => w.time >= -5000)\
             .select(w => w.seizure_detect(), w[-100ms:100ms])",
            &Scenario::new(4, 15.0),
            300.0,
            0.0,
        )
        .unwrap();
    assert!(l2.schedule.electrodes > 0);
    // Both pipelines coexist on one fabric (different PEs).
    assert_eq!(rt.fabric().pipelines().len(), 2);
}

#[test]
fn figure8a_invariants_hold_across_node_counts() {
    for nodes in [4usize, 11, 16] {
        for task in Fig8Task::ALL {
            let scalo = architecture_throughput(Architecture::Scalo, task, nodes, 15.0);
            for arch in [
                Architecture::ScaloNoHash,
                Architecture::Central,
                Architecture::CentralNoHash,
                Architecture::HaloNvm,
            ] {
                let other = architecture_throughput(arch, task, nodes, 15.0);
                assert!(
                    scalo >= other * 0.99,
                    "{task} @ {nodes} nodes: SCALO {scalo} vs {arch} {other}"
                );
            }
        }
    }
}

#[test]
fn system_survives_harsh_network() {
    // A harsh BER does not wedge the system; hash packets drop, the run
    // completes.
    let mut app = SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(2)
            .with_electrodes(4)
            .with_ber(5e-4)
            .with_seed(99),
    );
    let rec = generate(&IeegConfig {
        nodes: 2,
        electrodes_per_node: 4,
        duration_s: 0.6,
        seizures: vec![SeizureEvent::uniform(0.2, 0.35, 0, 2, 0.0)],
        seed: 5,
        ..Default::default()
    });
    app.train_detectors(&training_windows(&rec.config));
    let run = app.run(&rec);
    assert!(app.system().stats().transmissions > 0);
    // The run itself must complete regardless of confirmation outcome.
    let _ = run.max_delay_ms();
}

#[test]
fn sntp_then_exchange() {
    // Clock sync converges, then the system still broadcasts normally.
    let mut offsets = vec![120_000i64, -75_000, 3_000];
    let report = scalo::core::sntp::synchronize(&mut offsets, &scalo::net::radio::LOW_POWER);
    assert!(report.converged);
    let mut sys = Scalo::new(ScaloConfig::default().with_nodes(4).with_ber(0.0));
    let pkt = scalo::net::packet::Packet::new(
        scalo::net::packet::Header {
            src: 0,
            dst: scalo::net::packet::BROADCAST,
            flow: 0,
            seq: 0,
            len: 0,
            kind: scalo::net::packet::PayloadKind::Control,
            timestamp_us: 0,
        },
        vec![1, 2, 3],
    );
    assert_eq!(sys.broadcast(0, &pkt).len(), 3);
}

#[test]
fn facade_reexports_compose() {
    // The facade exposes every layer; a cross-layer one-liner compiles
    // and behaves.
    let window: Vec<f64> = (0..120).map(|i| (i as f64 * 0.2).sin()).collect();
    let hasher = scalo::lsh::SshHasher::new(scalo::lsh::HashConfig::for_measure(
        scalo::lsh::Measure::Dtw,
    ));
    let hash = hasher.hash(&window);
    let compressed = scalo::net::compress::hcomp_compress(hash.as_ref());
    let restored = scalo::net::compress::dcomp_decompress(&compressed).unwrap();
    let mut a = hash.as_ref().to_vec();
    let mut b = restored;
    a.sort_unstable();
    b.sort_unstable();
    assert_eq!(a, b);
}
