//! End-to-end seizure propagation: synthetic multi-site iEEG, per-node
//! detection, hash broadcast, collision check, DTW confirmation.
//!
//! Run with: `cargo run --example seizure_propagation`

use scalo::core::apps::seizure::{training_windows, SeizureApp};
use scalo::core::ScaloConfig;
use scalo::data::ieeg::{generate, IeegConfig, SeizureEvent};

fn main() {
    let nodes = 3;
    let electrodes = 4;

    // A seizure starting at node 0 at t = 0.25 s, reaching the other
    // sites with 20 ms propagation lag per hop.
    let recording = |seed| IeegConfig {
        nodes,
        electrodes_per_node: electrodes,
        duration_s: 1.0,
        seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, nodes, 0.02)],
        seed,
        ..Default::default()
    };

    let config = ScaloConfig::default()
        .with_nodes(nodes)
        .with_electrodes(electrodes)
        .with_seed(2026);
    let mut app = SeizureApp::new(config);

    println!("Training per-node seizure detectors on a calibration recording…");
    app.train_detectors(&training_windows(&recording(1)));

    println!("Streaming a test recording through the distributed protocol…\n");
    let run = app.run(&generate(&recording(2)));

    match run.origin_detect_window {
        Some(w) => println!(
            "Origin detected the seizure at window {w} (t = {} ms)",
            w * 4
        ),
        None => {
            println!("No seizure detected — nothing to propagate.");
            return;
        }
    }
    if run.confirmations.is_empty() {
        println!("No propagation confirmed at other sites.");
    }
    for c in &run.confirmations {
        println!(
            "Node {} confirmed seizure propagation {} ms after origin detection → stimulate",
            c.node, c.delay_ms
        );
    }
    println!(
        "\nNetwork: {} transmissions, {} corrupted, {} dropped (BER {})",
        app.system().stats().transmissions,
        app.system().stats().corrupted,
        app.system().stats().dropped,
        app.system().config().ber
    );
    if let Some(d) = run.max_delay_ms() {
        println!("Worst confirmation delay: {d} ms (paper target: 10 ms from a matched detection)");
    }
}
