//! One function per paper table/figure. Each prints the same rows/series
//! the paper reports (shape reproduction; absolute numbers come from the
//! component models, not the authors' testbed).

use crate::fmt::{f, header, table};
use scalo_core::apps::seizure::{training_windows, SeizureApp};
use scalo_core::apps::spike_sort::{modeled_sort_rate_per_node, sort_dataset};
use scalo_core::arch::{architecture_throughput, Architecture, Fig8Task};
use scalo_core::catalog::{self, QueryCatalog};
use scalo_core::fault::{Fault, FaultPlan};
use scalo_core::membership::MembershipEvent;
use scalo_core::plan::{resolve_budget, PlanConfig};
use scalo_core::session::SessionSpec;
use scalo_core::ScaloConfig;
use scalo_data::ieeg::{generate as gen_ieeg, IeegConfig, SeizureEvent};
use scalo_data::spikes::{generate as gen_spikes, SpikeConfig};
use scalo_fleet::{
    AdmissionEvent, AdmitError, ArrivalConfig, ArrivalPlan, DurabilityConfig, Fleet, FleetConfig,
    FleetReport, RecoveryReport, SwapConfig, SwapFleet, SwapReport,
};
use scalo_lsh::eval::{
    calibrated_threshold, generate_pairs, hash_error_histogram, total_error_rate,
};
use scalo_lsh::ssh::BlockHashScratch;
use scalo_lsh::tuning::sweep;
use scalo_lsh::{HashConfig, Measure, SignalHash, SshHasher};
use scalo_net::ber::ErrorChannel;
use scalo_net::compress::{hcomp_compress, lz_compress, ratio};
use scalo_net::packet::{Header, Packet, PayloadKind, Received, BROADCAST};
use scalo_net::radio::{Radio, EXTERNAL, TABLE3};
use scalo_net::reliable::{ReliableLink, ReliablePolicy};
use scalo_net::wire_bits;
use scalo_sched::local::local_scaling;
use scalo_sched::movement::intents_per_second;
use scalo_sched::queries::{evaluate, QueryKind, DATA_POINTS, MATCH_FRACTIONS};
use scalo_sched::seizure::{optimal_node_count, solve as solve_seizure, Priorities};
use scalo_sched::throughput::max_aggregate_throughput_mbps;
use scalo_sched::{Scenario, TaskKind};
use scalo_signal::block::ChannelBlock;
use scalo_signal::dtw::{dtw_distance, dtw_distance_pruned, DtwParams, DtwScratch};
use scalo_signal::fft::{
    band_power_features, band_power_features_into, fft_real, fft_real_into, FftScratch,
};
use scalo_signal::filter::{BandpassBank, BandpassDesign, ButterworthBandpass};
use scalo_signal::{ELECTRODES_PER_NODE, SAMPLE_RATE_HZ, WINDOW_SAMPLES};
use scalo_storage::layout::paper_trade;
use scalo_storage::nvm::NvmParams;
use scalo_trace::chrome::{chrome_trace_json, is_valid_json};
use scalo_trace::{attribute, deadline_miss_report, DeadlineMissReport, SpanEvent, Stage};

/// Table 1: the PE catalog with derived power at 96 electrodes.
pub fn table1() {
    header("Table 1: latency and power of the PEs (28 nm, worst corner)");
    let rows: Vec<Vec<String>> = scalo_hw::pe::PeKind::ALL
        .iter()
        .map(|&k| {
            let s = scalo_hw::pe::spec(k);
            let lat = match s.latency {
                scalo_hw::pe::Latency::Fixed(ms) => f(ms, 3),
                scalo_hw::pe::Latency::DataDependent => "-".into(),
                scalo_hw::pe::Latency::Storage {
                    available_ms,
                    busy_ms,
                } => {
                    format!("{available_ms}-{busy_ms}")
                }
            };
            vec![
                s.name.to_string(),
                f(s.max_freq_mhz, 3),
                f(s.leakage_uw, 2),
                f(s.sram_leakage_uw, 2),
                f(s.dyn_per_electrode_uw, 3),
                lat,
                f(s.area_kge, 0),
                f(s.power_uw(96) / 1_000.0, 3),
            ]
        })
        .collect();
    table(
        &[
            "PE", "MHz", "leak µW", "SRAM µW", "dyn/elec", "lat ms", "KGE", "mW@96",
        ],
        &rows,
    );
}

/// Table 2: the alternative architectures.
pub fn table2() {
    header("Table 2: alternative BCI architectures");
    let rows: Vec<Vec<String>> = Architecture::ALL
        .iter()
        .map(|&a| {
            vec![
                a.name().to_string(),
                if a.is_distributed() {
                    "Distributed"
                } else {
                    "Centralized"
                }
                .into(),
                if a.has_hash_pes() {
                    "Hash, Signal"
                } else {
                    "Signal"
                }
                .into(),
                if a.is_distributed() {
                    "Wireless"
                } else {
                    "Wired"
                }
                .into(),
            ]
        })
        .collect();
    table(
        &["Design", "Architecture", "Comparison", "Communication"],
        &rows,
    );
}

/// Table 3: the radio design points.
pub fn table3() {
    header("Table 3: alternative radio designs (default: Low Power)");
    let rows: Vec<Vec<String>> = TABLE3
        .iter()
        .chain(std::iter::once(&EXTERNAL))
        .map(|r| {
            vec![
                r.name.to_string(),
                format!("{:.0e}", r.ber),
                f(r.data_rate_mbps, 1),
                f(r.power_mw, 3),
                f(r.range_m, 1),
            ]
        })
        .collect();
    table(&["Name", "BER", "Mbps", "mW", "range m"], &rows);
}

/// Figure 8a: max aggregate throughput of the five architectures across
/// the six tasks, at 11 nodes / 15 mW.
pub fn fig8a() {
    header("Figure 8a: max aggregate throughput (Mbps), 11 nodes, 15 mW/implant");
    let mut rows = Vec::new();
    for task in Fig8Task::ALL {
        let mut row = vec![task.name().to_string()];
        for arch in Architecture::ALL {
            row.push(f(architecture_throughput(arch, task, 11, 15.0), 1));
        }
        rows.push(row);
    }
    let cols: Vec<&str> = std::iter::once("Task")
        .chain(Architecture::ALL.iter().map(|a| a.name()))
        .collect();
    table(&cols, &rows);
}

/// Figure 8b: signal-similarity throughput vs node count × power.
pub fn fig8b() {
    header("Figure 8b: max aggregate throughput of signal similarity (Mbps)");
    for power in Scenario::power_sweep() {
        println!("\n-- {power} mW per implant --");
        let mut rows = Vec::new();
        for k in Scenario::node_sweep() {
            let s = Scenario::new(k, power);
            rows.push(vec![
                k.to_string(),
                f(max_aggregate_throughput_mbps(TaskKind::DtwAllAll, &s), 2),
                f(max_aggregate_throughput_mbps(TaskKind::DtwOneAll, &s), 1),
                f(max_aggregate_throughput_mbps(TaskKind::HashAllAll, &s), 1),
                f(max_aggregate_throughput_mbps(TaskKind::HashOneAll, &s), 1),
            ]);
        }
        table(
            &[
                "nodes",
                "DTW All-All",
                "DTW One-All",
                "Hash All-All",
                "Hash One-All",
            ],
            &rows,
        );
    }
}

/// Figure 8c: movement-intent throughput vs node count × power.
pub fn fig8c() {
    header("Figure 8c: max aggregate throughput of movement intent (Mbps)");
    for power in Scenario::power_sweep() {
        println!("\n-- {power} mW per implant --");
        let mut rows = Vec::new();
        for k in Scenario::node_sweep() {
            let s = Scenario::new(k, power);
            rows.push(vec![
                k.to_string(),
                f(max_aggregate_throughput_mbps(TaskKind::MiSvm, &s), 1),
                f(max_aggregate_throughput_mbps(TaskKind::MiNn, &s), 1),
                f(max_aggregate_throughput_mbps(TaskKind::MiKf, &s), 1),
            ]);
        }
        table(&["nodes", "MI SVM", "MI NN", "MI KF"], &rows);
    }
}

/// Figure 9a: priority-weighted seizure-propagation throughput.
pub fn fig9a() {
    header("Figure 9a: weighted seizure-propagation throughput (Mbps), 15 mW");
    let mut rows = Vec::new();
    for k in Scenario::node_sweep() {
        let s = Scenario::new(k, 15.0);
        let mut row = vec![k.to_string()];
        for p in Priorities::paper_set() {
            let thr = solve_seizure(&s, p).map(|x| x.weighted_mbps).unwrap_or(0.0);
            row.push(f(thr, 1));
        }
        let eq = solve_seizure(&s, Priorities::equal())
            .map(|x| x.weighted_mbps)
            .unwrap_or(0.0);
        row.push(f(eq, 1));
        rows.push(row);
    }
    table(&["nodes", "11:1:1", "3:1:1", "1:3:1", "1:1:1"], &rows);
    let opt = optimal_node_count(Priorities::equal(), 15.0);
    println!("\nOptimal node count (equal weights, per-node throughput peak): {opt} (paper: 11)");
}

/// Figure 9b: movement intents per second.
pub fn fig9b() {
    header("Figure 9b: max movement intents per second, 15 mW");
    let mut rows = Vec::new();
    for k in Scenario::node_sweep() {
        let s = Scenario::new(k, 15.0);
        rows.push(vec![
            k.to_string(),
            f(intents_per_second(TaskKind::MiSvm, &s), 1),
            f(intents_per_second(TaskKind::MiNn, &s), 1),
            f(intents_per_second(TaskKind::MiKf, &s), 1),
        ]);
    }
    table(&["nodes", "SVM", "NN", "KF"], &rows);
    println!("\n(Conventional decoders: 20 intents/s. KF retains the 50 ms window cadence.)");
}

/// Figure 10: interactive query throughput.
pub fn fig10() {
    header("Figure 10: interactive queries per second, 11 nodes");
    let scenario = Scenario::headline();
    let mut rows = Vec::new();
    for &(mb, range_ms) in &DATA_POINTS {
        for &frac in &MATCH_FRACTIONS {
            let q1 = evaluate(QueryKind::Q1SeizureSignals, mb, frac, &scenario);
            let q2 = evaluate(QueryKind::Q2TemplateHash, mb, frac, &scenario);
            rows.push(vec![
                format!("{mb} MB ({range_ms} ms)"),
                format!("{:.0}%", frac * 100.0),
                f(q1.qps, 2),
                f(q2.qps, 2),
            ]);
        }
        let q3 = evaluate(QueryKind::Q3AllData, mb, 1.0, &scenario);
        rows.push(vec![
            format!("{mb} MB ({range_ms} ms)"),
            "all".into(),
            "-".into(),
            format!("Q3: {}", f(q3.qps, 2)),
        ]);
    }
    table(&["data (range)", "match", "Q1 QPS", "Q2 QPS"], &rows);
    let dtw = evaluate(QueryKind::Q2TemplateDtw, 7.0, 0.05, &scenario);
    let hash = evaluate(QueryKind::Q2TemplateHash, 7.0, 0.05, &scenario);
    println!(
        "\nQ2 with exact DTW instead of hashes: {:.1} QPS at {:.1} mW (hash: {:.1} QPS at {:.2} mW)",
        dtw.qps, dtw.power_mw, hash.qps, hash.power_mw
    );
}

/// Figure 11: hash-vs-exact comparison errors by distance from threshold.
pub fn fig11(pairs_per_measure: usize) {
    header("Figure 11: hash comparison errors vs distance from threshold (%)");
    for measure in Measure::ALL {
        let pairs = generate_pairs(measure, pairs_per_measure, 0x11 + measure as u64);
        let thr = calibrated_threshold(measure, &pairs);
        let bins = hash_error_histogram(measure, &pairs, thr, 20.0, 60.0);
        let total = total_error_rate(measure, &pairs, thr);
        let cells: Vec<String> = bins
            .iter()
            .map(|b| format!("{:+.0}%:{:.1}%", b.distance_pct, b.error_rate * 100.0))
            .collect();
        println!(
            "{measure:>10}  total {:.1}%  [{}]",
            total * 100.0,
            cells.join("  ")
        );
    }
    println!("\n(Paper: total errors < 8.5%, concentrated near the threshold.)");
}

/// Figure 12: packet error rates and DTW failures vs BER.
pub fn fig12(packets: usize) {
    header("Figure 12: network errors vs BER");
    let hash_bits = wire_bits(16); // a compressed per-node hash batch
    let signal_bits = wire_bits(240); // one signal window
    let mut rows = Vec::new();
    for &ber in &[1e-4, 1e-5, 1e-6] {
        let mut channel = ErrorChannel::new(ber, 0xbe5);
        let mut hash_err = 0usize;
        let mut sig_err = 0usize;
        let mut dtw_flips = 0usize;
        let mut sig_total = 0usize;
        let pairs = generate_pairs(Measure::Dtw, 64, 3);
        for i in 0..packets {
            // Hash packet.
            let hp = Packet::new(
                Header {
                    src: 0,
                    dst: BROADCAST,
                    flow: 1,
                    seq: i as u16,
                    len: 0,
                    kind: PayloadKind::Hashes,
                    timestamp_us: 0,
                },
                vec![0x42; 16],
            );
            let (wire, flips) = channel.transmit(&hp.to_wire());
            hash_err += usize::from(flips > 0);
            let _ = scalo_net::packet::receive(&wire);

            // Signal packet carrying a real window; check DTW resilience.
            let pair = &pairs[i % pairs.len()];
            let payload: Vec<u8> = pair
                .a
                .iter()
                .flat_map(|&x| ((x * 8_192.0) as i16).to_le_bytes())
                .collect();
            let sp = Packet::new(
                Header {
                    src: 0,
                    dst: BROADCAST,
                    flow: 2,
                    seq: i as u16,
                    len: 0,
                    kind: PayloadKind::Signal,
                    timestamp_us: 0,
                },
                payload,
            );
            let (wire, flips) = channel.transmit(&sp.to_wire());
            sig_total += 1;
            sig_err += usize::from(flips > 0);
            if let Received::Clean(p) | Received::CorruptDelivered(p) =
                scalo_net::packet::receive(&wire)
            {
                let got: Vec<f64> = p
                    .payload
                    .chunks_exact(2)
                    .map(|b| i16::from_le_bytes([b[0], b[1]]) as f64 / 8_192.0)
                    .collect();
                if got.len() == pair.b.len() {
                    let clean = dtw_distance(&pair.a, &pair.b, DtwParams::default());
                    let noisy = dtw_distance(&got, &pair.b, DtwParams::default());
                    // A "failure" flips the similarity decision at the
                    // calibrated threshold.
                    let thr = 5.0;
                    if (clean < thr) != (noisy < thr) {
                        dtw_flips += 1;
                    }
                }
            }
        }
        rows.push(vec![
            format!("{ber:.0e}"),
            format!("{:.2}%", hash_err as f64 / packets as f64 * 100.0),
            format!("{:.2}%", sig_err as f64 / sig_total as f64 * 100.0),
            format!("{:.2}%", dtw_flips as f64 / sig_total as f64 * 100.0),
        ]);
    }
    table(
        &["BER", "hash pkt err", "signal pkt err", "DTW failures"],
        &rows,
    );
    println!(
        "\n(Frame sizes: hash {hash_bits} bits, signal {signal_bits} bits. Radio BER is 1e-5;\n paper: <1% hash packets err there, zero DTW failures.)"
    );
}

/// Figure 13: application throughput under the Table 3 radios.
pub fn fig13() {
    header("Figure 13: throughput under alternative radios (normalised to Low Power)");
    let base: &Radio = &TABLE3[0];
    let tasks = [TaskKind::HashAllAll, TaskKind::DtwOneAll];
    // 16 nodes: the regime where both applications are
    // communication-sensitive (the paper's premise for this sweep).
    let k = 16;
    let mut rows = Vec::new();
    for radio in &TABLE3 {
        let mut row = vec![radio.name.to_string(), f(radio.power_mw, 2)];
        for task in tasks {
            let t = max_aggregate_throughput_mbps(task, &Scenario::new(k, 15.0).with_radio(*radio));
            let t0 = max_aggregate_throughput_mbps(task, &Scenario::new(k, 15.0).with_radio(*base));
            row.push(f(t / t0, 2));
        }
        rows.push(row);
    }
    table(&["radio", "mW", "Hash All-All ×", "DTW One-All ×"], &rows);
    println!("\n(Paper: High Perf ≈ 2× both apps at 4× radio power; Low Data Rate ≈ 0.5×.)");
}

/// Figure 14: LSH parameter flexibility sweep.
pub fn fig14(pairs: usize) {
    header("Figure 14: LSH parameter sweep (best window/n-gram per measure)");
    for measure in [Measure::Xcor, Measure::Dtw, Measure::Euclidean] {
        let result = sweep(measure, pairs, 0x14 + measure as u64);
        let best = result.best_point();
        let good = result.within_of_best(0.9);
        println!(
            "{measure:>10}: best window={:<3} ngram={} (TP {:.2}, FP {:.2}); {} configs within 90%",
            best.window,
            best.ngram,
            best.true_positive,
            best.false_positive,
            good.len()
        );
    }
    println!("\n(Multiple near-optimal cells per measure ⇒ one PE family serves all three.)");
}

/// Figure 15a: seizure-propagation delay vs hash-encoding error rate.
pub fn fig15a(repetitions: usize) {
    header("Figure 15a: added seizure-propagation delay vs hash encoding errors");
    // The paper's y-axis is the delay *added by errors*: each noisy run is
    // compared against the error-free run of the same recording.
    let baselines: Vec<Option<f64>> = (0..repetitions)
        .map(|rep| run_propagation(0x15a + rep as u64, 0.0, 0.0))
        .collect();
    let mut rows = Vec::new();
    for &err in &[0.0, 0.2, 0.4, 0.6, 0.8] {
        let (mut worst, mut sum, mut confirmed) = (0.0f64, 0.0, 0usize);
        for (rep, &baseline) in baselines.iter().enumerate() {
            let seed = 0x15a + rep as u64;
            let (Some(d), Some(base)) = (run_propagation(seed, err, 0.0), baseline) else {
                continue;
            };
            let added = (d - base).max(0.0);
            worst = worst.max(added);
            sum += added;
            confirmed += 1;
        }
        rows.push(vec![
            format!("{:.0}%", err * 100.0),
            f(worst, 1),
            f(sum / confirmed.max(1) as f64, 1),
            format!("{confirmed}/{repetitions}"),
        ]);
    }
    table(
        &[
            "hash err rate",
            "max added ms",
            "mean added ms",
            "confirmed",
        ],
        &rows,
    );
    println!("\n(Paper: no noticeable impact until ~50% error rate — many electrodes carry\n the seizure and the exchange retries every window.)");
}

/// Figure 15b: seizure-propagation delay vs network BER.
pub fn fig15b(repetitions: usize) {
    header("Figure 15b: added seizure-propagation delay vs network BER");
    let baselines: Vec<Option<f64>> = (0..repetitions)
        .map(|rep| run_propagation(0x15b + rep as u64, 0.0, 0.0))
        .collect();
    let mut rows = Vec::new();
    for &ber in &[1e-6, 1e-5, 1e-4, 1e-3] {
        let (mut worst, mut confirmed) = (0.0f64, 0usize);
        for (rep, &baseline) in baselines.iter().enumerate() {
            let seed = 0x15b + rep as u64;
            let (Some(d), Some(base)) = (run_propagation(seed, 0.0, ber), baseline) else {
                continue;
            };
            worst = worst.max((d - base).max(0.0));
            confirmed += 1;
        }
        rows.push(vec![
            format!("{ber:.0e}"),
            f(worst, 1),
            format!("{confirmed}/{repetitions}"),
        ]);
    }
    table(&["BER", "max added ms", "confirmed"], &rows);
    println!("\n(Paper: worst delay 0.5 ms even at BER 1e-4; radio BER is 1e-5.)");
}

/// Runs one propagation experiment; returns the max confirmation delay.
fn run_propagation(seed: u64, hash_error_rate: f64, ber: f64) -> Option<f64> {
    let rec = two_site_recording(seed);
    let mut app = SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(2)
            .with_electrodes(4)
            .with_ber(ber)
            .with_seed(seed),
    );
    app.train_detectors(&training_windows(&two_site_config(seed ^ 1)));
    app.hash_error_rate = hash_error_rate;
    app.run(&rec).max_delay_ms()
}

/// §6.2 scalars: local-task scaling with the power limit.
pub fn local_scaling_exp() {
    header("§6.2: local task throughput vs power limit (per node, Mbps)");
    let det = local_scaling(TaskKind::SeizureDetection);
    let sort = local_scaling(TaskKind::SpikeSorting);
    let rows: Vec<Vec<String>> = det
        .iter()
        .zip(&sort)
        .map(|(d, s)| {
            vec![
                f(d.power_mw, 0),
                f(d.throughput_mbps, 1),
                f(s.throughput_mbps, 1),
            ]
        })
        .collect();
    table(&["mW", "seizure detection", "spike sorting"], &rows);
    println!("\n(Paper: 79→46 Mbps quadratic; 118→38.4 Mbps linear.)");
}

/// §6.3 scalars: spike sorting accuracy and rate.
pub fn spike_sorting_exp() {
    header("§6.3: spike sorting accuracy and rate");
    let mut rows = Vec::new();
    for (name, cfg) in [
        ("SpikeForest-like", SpikeConfig::spikeforest_like()),
        ("MEArec-like", SpikeConfig::mearec_like()),
        ("Kilosort-like", SpikeConfig::kilosort_like()),
    ] {
        let r = sort_dataset(&gen_spikes(&cfg));
        rows.push(vec![
            name.into(),
            cfg.neurons.to_string(),
            r.labelled.to_string(),
            format!("{:.1}%", r.hash_accuracy() * 100.0),
            format!("{:.1}%", r.exact_accuracy() * 100.0),
            format!("{:.1}x", r.comparison_reduction()),
        ]);
    }
    table(
        &[
            "dataset",
            "neurons",
            "spikes",
            "hash acc",
            "exact acc",
            "cmp ↓",
        ],
        &rows,
    );
    println!(
        "\nModelled sorting rate: {:.0} spikes/s/node (paper: 12,250; exact off-device: ~15,000)",
        modeled_sort_rate_per_node()
    );
}

/// §3.3 scalars: the NVM layout trade.
pub fn storage_layout_exp() {
    header("§3.3: NVM layout reorganisation trade");
    let t = paper_trade(&NvmParams::default());
    println!(
        "chunked write: {:.2} ms ({}x interleaved)",
        t.chunked_write_ms, t.write_slowdown
    );
    println!(
        "chunked read:  {:.3} ms ({}x faster than interleaved)",
        t.chunked_read_ms, t.read_speedup
    );
    println!("(Paper: writes 1.75 ms — 5× slower; reads 0.035 ms — 10× faster.)");
}

/// §3.2 scalars: HCOMP vs LZ compression on hash batches.
pub fn compression_exp() {
    header("§3.2: hash compression — HCOMP vs LZ");
    // A realistic hash batch: 10 windows × 96 electrodes of temporally
    // correlated hash values.
    let pairs = generate_pairs(Measure::Dtw, 96, 7);
    let hasher = scalo_lsh::SshHasher::new(scalo_lsh::HashConfig::for_measure(Measure::Dtw));
    let mut batch = Vec::new();
    for _ in 0..10 {
        for p in &pairs {
            batch.extend(hasher.hash(&p.a).0.clone());
        }
    }
    let h = ratio(batch.len(), hcomp_compress(&batch).len());
    let l = ratio(batch.len(), lz_compress(&batch).len());
    let hcomp_pw = scalo_hw::pe::spec(scalo_hw::pe::PeKind::Hcomp).power_uw(96)
        + scalo_hw::pe::spec(scalo_hw::pe::PeKind::Hfreq).power_uw(96);
    let lz_pw = scalo_hw::pe::spec(scalo_hw::pe::PeKind::Lz).power_uw(96);
    println!("batch: {} hash bytes", batch.len());
    println!("HCOMP ratio {h:.2}  at {:.2} mW", hcomp_pw / 1000.0);
    println!("LZ    ratio {l:.2}  at {:.2} mW", lz_pw / 1000.0);
    println!(
        "HCOMP/LZ ratio: {:.0}%; LZ uses {:.1}× the power",
        h / l * 100.0,
        lz_pw / hcomp_pw
    );
    println!("(Paper: HCOMP within ~10% of LZ-class ratio at ~7× less power.)");
}

/// Ablation: HALO's external-radio compression suite (LIC, RC, MA→RC,
/// LZ) on neural samples — the path §3.2 contrasts HCOMP against.
pub fn external_compression_exp() {
    header("Ablation: external-radio compression on neural data (LIC / RC / MA→RC / LZ)");
    // One second of one synthetic electrode at 30 kHz, quantised 16-bit.
    let rec = gen_ieeg(&IeegConfig {
        nodes: 1,
        electrodes_per_node: 1,
        duration_s: 1.0,
        seizures: vec![SeizureEvent::uniform(0.4, 0.4, 0, 1, 0.0)],
        seed: 0xc0de,
        ..Default::default()
    });
    let samples: Vec<i16> = rec.nodes[0].channels[0]
        .iter()
        .map(|&x| (x * 8_192.0) as i16)
        .collect();
    let raw_bytes: Vec<u8> = samples.iter().flat_map(|s| s.to_le_bytes()).collect();

    use scalo_net::halo_comp::{lic_compress, ma_rc_compress, rc_compress};
    let lic = lic_compress(&samples);
    let lic_rc = rc_compress(&lic);
    let rows = vec![
        vec![
            "raw 16-bit".into(),
            raw_bytes.len().to_string(),
            "1.00".into(),
        ],
        vec![
            "LIC".into(),
            lic.len().to_string(),
            f(ratio(raw_bytes.len(), lic.len()), 2),
        ],
        vec![
            "RC (order-0)".into(),
            rc_compress(&raw_bytes).len().to_string(),
            f(ratio(raw_bytes.len(), rc_compress(&raw_bytes).len()), 2),
        ],
        vec![
            "MA→RC (order-1)".into(),
            ma_rc_compress(&raw_bytes).len().to_string(),
            f(ratio(raw_bytes.len(), ma_rc_compress(&raw_bytes).len()), 2),
        ],
        vec![
            "LIC→RC".into(),
            lic_rc.len().to_string(),
            f(ratio(raw_bytes.len(), lic_rc.len()), 2),
        ],
        vec![
            "LZ".into(),
            lz_compress(&raw_bytes).len().to_string(),
            f(ratio(raw_bytes.len(), lz_compress(&raw_bytes).len()), 2),
        ],
    ];
    table(&["codec", "bytes", "ratio"], &rows);
    println!("\n(HALO streams off-body data through this suite; chained LIC→RC is the\n high-ratio point, matching HALO's observation that model-based coding\n beats LZ on neural waveforms.)");
}

/// One reliable-vs-naive delivery comparison over the same kind of
/// channel (hash-sized packets, LOW POWER rate).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransportTrial {
    /// Packets offered each way.
    pub packets: usize,
    /// Fire-and-forget packets received clean.
    pub naive_delivered: usize,
    /// Packets the reliable transport delivered.
    pub reliable_delivered: usize,
    /// Retransmissions the reliable transport spent.
    pub retransmissions: usize,
    /// Receiver-side duplicates it suppressed.
    pub duplicates: usize,
    /// Packets it gave up on after exhausting attempts.
    pub gave_up: usize,
}

/// Sends `packets` 16-byte hash packets at `ber`, once fire-and-forget
/// and once over the reliable transport, deterministically per `seed`.
pub fn transport_trial(ber: f64, packets: usize, seed: u64) -> TransportTrial {
    let payload = vec![0x5c; 16];
    let head = |seq: u16| Header {
        src: 0,
        dst: 1,
        flow: 1,
        seq,
        len: 0,
        kind: PayloadKind::Hashes,
        timestamp_us: 0,
    };
    let mut naive_ch = ErrorChannel::new(ber, seed);
    let mut naive_delivered = 0;
    for i in 0..packets {
        let p = Packet::new(head(i as u16), payload.clone());
        let (wire, _) = naive_ch.transmit(&p.to_wire());
        if matches!(scalo_net::packet::receive(&wire), Received::Clean(_)) {
            naive_delivered += 1;
        }
    }
    let mut rel_ch = ErrorChannel::new(ber, seed ^ 0x5eed);
    let mut link = ReliableLink::new(1, ReliablePolicy::default());
    for _ in 0..packets {
        let _ = link.send(&mut rel_ch, 7.0, head(0), payload.clone());
    }
    let s = link.stats();
    TransportTrial {
        packets,
        naive_delivered,
        reliable_delivered: s.delivered,
        retransmissions: s.retransmissions,
        duplicates: s.duplicates,
        gave_up: s.gave_up,
    }
}

/// One seizure-propagation run on an 8-node deployment with the
/// highest-id `crashes` nodes crashing before the seizure onset.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashTrial {
    /// Nodes crashed.
    pub crashed: usize,
    /// Nodes still up at the end.
    pub live_nodes: usize,
    /// Window of first seizure detection, if any.
    pub detect_window: Option<usize>,
    /// Surviving nodes that confirmed propagation.
    pub confirmations: usize,
    /// Mean crash→eviction detection latency across crashed nodes, ms
    /// (0 when nothing crashed).
    pub mean_eviction_latency_ms: f64,
    /// The re-solved ILP's weighted throughput for the surviving
    /// membership, if a re-solve ran.
    pub resolved_weighted_mbps: Option<f64>,
}

/// Runs the seizure app (reliable hash transport on) on 8 nodes with
/// `crashes` nodes failing at ~150 ms, deterministically per `seed`.
pub fn crash_trial(crashes: usize, seed: u64) -> CrashTrial {
    let nodes = 8;
    assert!(crashes < nodes, "must leave at least one survivor");
    let rec = gen_ieeg(&IeegConfig {
        nodes,
        electrodes_per_node: 4,
        duration_s: 0.9,
        seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, nodes, 0.0)],
        seed,
        ..Default::default()
    });
    let mut app = SeizureApp::new(
        ScaloConfig::default()
            .with_nodes(nodes)
            .with_electrodes(4)
            .with_seed(seed),
    );
    app.train_detectors(&training_windows(&rec.config));
    app.use_reliable_transport = true;
    let mut plan = FaultPlan::new();
    for i in 0..crashes {
        plan.schedule(
            150_000 + 8_000 * i as u64,
            Fault::Crash {
                node: nodes - 1 - i,
            },
        );
    }
    app.system_mut().set_fault_plan(plan);
    let run = app.run(&rec);
    let sys = app.system();
    let mut latencies = Vec::new();
    for fr in sys.fault_log() {
        if let Fault::Crash { node } = fr.fault {
            let evicted = sys
                .membership_log()
                .iter()
                .find(|m| m.event == MembershipEvent::Evicted { peer: node });
            if let Some(m) = evicted {
                latencies.push((m.at_us - fr.at_us) as f64 / 1_000.0);
            }
        }
    }
    CrashTrial {
        crashed: crashes,
        live_nodes: sys.live_nodes().len(),
        detect_window: run.origin_detect_window,
        confirmations: run.confirmations.len(),
        mean_eviction_latency_ms: latencies.iter().sum::<f64>() / latencies.len().max(1) as f64,
        resolved_weighted_mbps: sys
            .schedule_decisions()
            .last()
            .and_then(|d| d.weighted_mbps),
    }
}

/// Robustness study: reliable transport vs fire-and-forget across BERs,
/// and graceful degradation of seizure propagation under node crashes.
pub fn fault_tolerance(reps: usize) {
    header("Fault tolerance: reliable transport and graceful degradation");
    let reps = reps.max(1);
    let packets = 400;
    println!("\n-- hash-packet delivery, {packets} packets x {reps} seeds per BER --");
    let mut rows = Vec::new();
    for &ber in &[1e-5, 1e-4, 1e-3] {
        let (mut naive, mut rel, mut total, mut retrans) = (0usize, 0usize, 0usize, 0usize);
        for rep in 0..reps {
            let t = transport_trial(ber, packets, 0xfa17 + rep as u64);
            naive += t.naive_delivered;
            rel += t.reliable_delivered;
            total += t.packets;
            retrans += t.retransmissions;
        }
        rows.push(vec![
            format!("{ber:.0e}"),
            format!("{:.2}%", naive as f64 / total as f64 * 100.0),
            format!("{:.3}%", rel as f64 / total as f64 * 100.0),
            f(retrans as f64 / total as f64, 3),
        ]);
    }
    table(&["BER", "naive", "reliable", "retrans/pkt"], &rows);

    println!("\n-- seizure propagation, 8 nodes, highest-id nodes crash at ~150 ms --");
    let mut rows = Vec::new();
    for crashes in 0..=3 {
        let t = crash_trial(crashes, 0xc7a5);
        rows.push(vec![
            crashes.to_string(),
            t.live_nodes.to_string(),
            t.detect_window.map_or("-".into(), |w| w.to_string()),
            t.confirmations.to_string(),
            if t.crashed == 0 {
                "-".into()
            } else {
                f(t.mean_eviction_latency_ms, 1)
            },
            t.resolved_weighted_mbps.map_or("-".into(), |m| f(m, 1)),
        ]);
    }
    table(
        &[
            "crashed",
            "live",
            "detect win",
            "confirms",
            "evict ms",
            "resolved Mbps",
        ],
        &rows,
    );
    println!(
        "\n(Same seed, same report: fault injection and the channel are seeded.\n Heartbeat eviction re-solves the TDMA schedule and the seizure ILP over\n the surviving quorum, so detection and confirmation continue.)"
    );
}

/// A mixed patient population for fleet experiments: varying seeds,
/// priorities, movement mixes, and transports, 0.6 s of signal each.
/// Every session models a 400 µs per-window device wait (the time a
/// real serving step waits on the implant radio). The fleet parks each
/// wait off its worker, so even one worker serves other patients
/// through it: the throughput [`fleet`] measures is the serving work
/// plus each session's chain of waits, not a worker sleeping.
fn fleet_population(sessions: usize) -> Vec<SessionSpec> {
    // The app mix per patient comes from the query catalog — the same
    // compiled plans the serving layer admits by — so the population's
    // pipeline shapes are defined once (in `scalo_core::catalog`), and
    // only the serving envelope (duration, priority, radio wait, BER)
    // is set here.
    let catalog = QueryCatalog::with_builtins(PlanConfig);
    (0..sessions as u64)
        .map(|id| {
            let app = if id % 4 == 0 {
                "movement_mix"
            } else if id % 2 == 1 {
                "seizure_reliable"
            } else {
                "seizure_watch"
            };
            let entry = catalog.get(app).expect("built-in catalog entry");
            let mut spec = entry
                .spec(id, 0xf1ee7 + 31 * id)
                .with_duration_s(0.6)
                .with_priority(1 + (id % 3) as u8)
                .with_io_stall_us(400);
            if id % 2 == 1 {
                spec = spec.with_ber(1e-4);
            }
            spec
        })
        .collect()
}

/// Serves the standard fleet population on `workers` threads. The
/// budget is sized so the whole population is admitted; decisions are a
/// function of each session's seed, never of `workers` or `quantum`.
///
/// Besides the report, returns the heap allocations per served window
/// incurred by the serving loop itself (session construction in
/// `submit` is excluded; per-session window-0 warmup is included). The
/// number is only meaningful when the calling binary installs
/// [`scalo_alloc::CountingAllocator`] as its global allocator — the
/// `experiments` bin does — and reads 0.0 otherwise.
pub fn fleet_trial(sessions: usize, workers: usize, quantum: usize) -> (FleetReport, f64) {
    fleet_trial_with(sessions, workers, quantum, false)
}

/// [`fleet_trial`] with cohort batching on: sessions sharing a pipeline
/// shape step as one fused lockstep job (one parked radio wait, one
/// block hash, one FFT-plan walk per cohort window).
pub fn fleet_trial_cohort(sessions: usize, workers: usize, quantum: usize) -> (FleetReport, f64) {
    fleet_trial_with(sessions, workers, quantum, true)
}

fn fleet_trial_with(
    sessions: usize,
    workers: usize,
    quantum: usize,
    cohort: bool,
) -> (FleetReport, f64) {
    let mut fl = Fleet::new(
        FleetConfig::new(workers)
            .with_quantum_steps(quantum)
            .with_budget(16.0 * sessions as f64)
            .with_cohort(cohort),
    );
    for spec in fleet_population(sessions) {
        fl.submit(spec)
            .expect("population is sized to fit the budget");
    }
    let (report, served) = scalo_alloc::measure_process(|| fl.run());
    let allocs_per_window = served.heap_ops() as f64 / report.windows.max(1) as f64;
    (report, allocs_per_window)
}

/// Writes the swept fleet reports (throughput, per-session rows with
/// decision fingerprints, step-latency histograms, and serving-loop
/// allocations per window) to `BENCH_fleet.json` at the repo root.
/// When `traced` is given, its report — whose metrics registry carries
/// the per-stage `trace.stage.*.span_us` latency histograms — is
/// embedded as a `"traced"` object. When `cohort` is given (a
/// pre-rendered JSON object from the cohort sweep), it is embedded as
/// the `"cohort"` section. Returns the path written.
pub fn write_bench_fleet_json(
    reports: &[(FleetReport, f64)],
    traced: Option<&FleetReport>,
    cohort: Option<&str>,
) -> std::io::Result<&'static str> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let allocs = reports
        .iter()
        .map(|(r, apw)| {
            format!(
                "{{\"workers\":{},\"allocs_per_window\":{apw:.2}}}",
                r.workers
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let traced_field = traced
        .map(|r| format!(",\"traced\":{}", r.to_json()))
        .unwrap_or_default();
    let cohort_field = cohort
        .map(|c| format!(",\"cohort\":{c}"))
        .unwrap_or_default();
    let isa = scalo_signal::simd::SimdLevel::active().name();
    let body = format!(
        "{{\"bench\":\"fleet\",\"simd_isa\":\"{isa}\",\"allocs_per_window\":[{allocs}],\"sweep\":[{}]{cohort_field}{traced_field}}}\n",
        reports
            .iter()
            .map(|(r, _)| r.to_json())
            .collect::<Vec<_>>()
            .join(",")
    );
    std::fs::write(path, body)?;
    Ok(path)
}

/// Fleet serving: one patient population swept across worker counts,
/// plus an admission-control showcase. Also writes `BENCH_fleet.json`.
pub fn fleet(sessions: usize) {
    let sessions = sessions.max(1);
    header(&format!(
        "Fleet serving: {sessions} patient sessions, 0.6 s of signal each"
    ));
    // Best of two trials per worker count — standard min-of-reps timing
    // discipline, so the recorded throughput reflects the configuration
    // rather than scheduler noise. The repeat doubles as a determinism
    // check: both trials must produce identical decision digests.
    let reports: Vec<(FleetReport, f64)> = [1usize, 2, 4]
        .iter()
        .map(|&w| {
            let (a, a_allocs) = fleet_trial(sessions, w, 8);
            let (b, b_allocs) = fleet_trial(sessions, w, 8);
            assert!(
                a.sessions
                    .iter()
                    .zip(&b.sessions)
                    .all(|(x, y)| x.id == y.id && x.digest == y.digest),
                "decision digests drifted between identical trials at {w} workers"
            );
            if b.windows_per_sec() > a.windows_per_sec() {
                (b, b_allocs)
            } else {
                (a, a_allocs)
            }
        })
        .collect();
    let base = &reports[0].0;
    let rows: Vec<Vec<String>> = reports
        .iter()
        .map(|(r, allocs_per_window)| {
            let mean_step_us =
                r.sessions.iter().map(|s| s.wall_us).sum::<u64>() as f64 / r.windows.max(1) as f64;
            vec![
                r.workers.to_string(),
                f(r.wall_ms, 1),
                f(r.windows_per_sec(), 0),
                f(base.wall_ms / r.wall_ms.max(1e-9), 2),
                f(mean_step_us, 1),
                f(*allocs_per_window, 2),
                r.pool.steals.to_string(),
                r.deadline_misses.to_string(),
            ]
        })
        .collect();
    table(
        &[
            "workers",
            "wall ms",
            "win/s",
            "speedup",
            "step us",
            "allocs/win",
            "steals",
            "misses",
        ],
        &rows,
    );
    let identical = reports.iter().all(|(r, _)| {
        r.sessions.len() == base.sessions.len()
            && r.sessions
                .iter()
                .zip(&base.sessions)
                .all(|(a, b)| a.id == b.id && a.digest == b.digest)
    });
    println!(
        "decisions identical across worker counts: {}",
        if identical { "yes" } else { "NO (bug)" }
    );

    println!("\n-- admission: budget 40 (five default sessions), mixed priorities --");
    let mut fl = Fleet::new(FleetConfig::new(2).with_budget(40.0));
    for (id, &priority) in [1u8, 2, 1, 2, 3].iter().enumerate() {
        let spec = SessionSpec::new(id as u64, 0xad0 + id as u64)
            .with_duration_s(0.3)
            .with_priority(priority);
        fl.submit(spec).expect("showcase population fits");
    }
    // Equal-priority arrival with no headroom: rejected, nothing shed.
    let rejected = matches!(
        fl.submit(
            SessionSpec::new(5, 0xad5)
                .with_duration_s(0.3)
                .with_priority(1),
        ),
        Err(AdmitError::BudgetExhausted { .. })
    );
    // Emergency arrival: sheds the newest lowest-priority session.
    let admitted = fl
        .submit(
            SessionSpec::new(6, 0xad6)
                .with_duration_s(0.3)
                .with_priority(9),
        )
        .is_ok();
    let rows: Vec<Vec<String>> = fl
        .admission()
        .log()
        .iter()
        .map(|ev| match ev {
            AdmissionEvent::Admitted { id, cost } => {
                vec![
                    "admit".into(),
                    id.to_string(),
                    format!("cost {}", f(*cost, 1)),
                ]
            }
            AdmissionEvent::Rejected { id, cost, headroom } => vec![
                "reject".into(),
                id.to_string(),
                format!("cost {} > headroom {}", f(*cost, 1), f(*headroom, 1)),
            ],
            AdmissionEvent::Shed { id, for_id } => {
                vec![
                    "shed".into(),
                    id.to_string(),
                    format!("for session {for_id}"),
                ]
            }
        })
        .collect();
    table(&["event", "id", "detail"], &rows);
    assert!(rejected && admitted, "admission showcase regressed");

    // Cohort batching: the same population served with shape-twin
    // sessions fused into lockstep jobs — one parked radio wait, one
    // block hash, one FFT-plan walk per cohort window. Decisions must stay
    // byte-identical to solo serving at every worker count; the section
    // lands in BENCH_fleet.json so CI can hold the speedup floor.
    println!("\n-- cohort batching: fused shape-twin lockstep vs solo jobs --");
    let solo8 = {
        let (a, _) = fleet_trial(sessions, 8, 8);
        let (b, _) = fleet_trial(sessions, 8, 8);
        if b.windows_per_sec() > a.windows_per_sec() {
            b
        } else {
            a
        }
    };
    let solo_by_workers: Vec<&FleetReport> = reports
        .iter()
        .map(|(r, _)| r)
        .chain(std::iter::once(&solo8))
        .collect();
    let mut occupancy: Vec<usize> = Vec::new();
    let mut cohort_rows: Vec<(usize, f64, f64)> = Vec::new();
    for (i, &w) in [1usize, 2, 4, 8].iter().enumerate() {
        let (a, _) = fleet_trial_cohort(sessions, w, 8);
        let (b, _) = fleet_trial_cohort(sessions, w, 8);
        let fused = if b.windows_per_sec() > a.windows_per_sec() {
            b
        } else {
            a
        };
        let solo = solo_by_workers[i];
        assert!(
            solo.sessions.len() == fused.sessions.len()
                && solo
                    .sessions
                    .iter()
                    .zip(&fused.sessions)
                    .all(|(x, y)| x.id == y.id && x.digest == y.digest),
            "cohort decisions diverged from solo serving at {w} workers"
        );
        if occupancy.is_empty() {
            occupancy = fused.cohorts.clone();
        }
        cohort_rows.push((w, solo.windows_per_sec(), fused.windows_per_sec()));
    }
    let rows: Vec<Vec<String>> = cohort_rows
        .iter()
        .map(|(w, solo_wps, cohort_wps)| {
            vec![
                w.to_string(),
                f(*solo_wps, 0),
                f(*cohort_wps, 0),
                f(cohort_wps / solo_wps.max(1e-9), 2),
            ]
        })
        .collect();
    table(&["workers", "solo win/s", "cohort win/s", "speedup"], &rows);
    println!(
        "cohort occupancy (sessions per pool job): {occupancy:?}; decisions identical to solo: yes"
    );
    let cohort_json = format!(
        "{{\"digests_match\":true,\"occupancy\":[{}],\"sweep\":[{}]}}",
        occupancy
            .iter()
            .map(|n| n.to_string())
            .collect::<Vec<_>>()
            .join(","),
        cohort_rows
            .iter()
            .map(|(w, s, c)| format!(
                "{{\"workers\":{w},\"solo_wps\":{s:.1},\"cohort_wps\":{c:.1},\"speedup\":{:.2}}}",
                c / s.max(1e-9)
            ))
            .collect::<Vec<_>>()
            .join(",")
    );

    // One traced serving pass so BENCH_fleet.json also carries the
    // per-stage `trace.stage.*.span_us` latency histograms.
    let traced = traced_fleet_trial(sessions.min(8), 2);
    let spans: usize = traced.sessions.iter().map(|s| s.trace.len()).sum();
    println!("\ntraced serving pass: {spans} spans merged into the metrics registry");
    match write_bench_fleet_json(&reports, Some(&traced), Some(&cohort_json)) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }
}

/// The swap-fleet population: `sessions` single-node implants with a
/// mixed priority spread and a pinned closed-loop cohort at the top.
/// Small specs keep 10k cold builds affordable; the `fleet` experiment
/// covers full-size implants at resident scale.
fn swap_population(sessions: u64, pinned: u64) -> Vec<SessionSpec> {
    // Each spec is a catalog entry plus the single-electrode deployment
    // and the swap envelope; a plan's binding does not depend on the
    // deployment, so the fleet population's catalog serves here too.
    let catalog = QueryCatalog::with_builtins(PlanConfig);
    (0..sessions)
        .map(|id| {
            let app = if id % 7 == 1 {
                "movement_mix"
            } else {
                "seizure_watch"
            };
            let entry = catalog.get(app).expect("built-in catalog entry");
            entry
                .spec(id, 0x5a10 + 193 * id)
                .with_deployment(1, 1)
                .with_duration_s(0.2)
                .with_priority(if id < pinned { 255 } else { (id % 5) as u8 })
        })
        .collect()
}

/// One open-loop serving pass over the swap fleet.
fn swap_trial(specs: &[SessionSpec], cfg: SwapConfig, plan: &ArrivalPlan) -> SwapReport {
    let mut fleet = SwapFleet::new(cfg);
    for spec in specs {
        fleet
            .submit(spec.clone())
            .expect("population sized to the admitted capacity");
    }
    fleet.run(plan)
}

/// Merges `report` into `BENCH_fleet.json` as the top-level `"swap"`
/// section, with `fleet_shape` (the fleet-shaped trial's object) nested
/// in it as `"fleet_shape"`, preserving whatever the `fleet` experiment
/// wrote (and replacing any previous swap section). Returns the path
/// written.
pub fn write_bench_swap_json(
    report: &SwapReport,
    fleet_shape: &str,
) -> std::io::Result<&'static str> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let report_json = report.to_json();
    let swap_json = format!(
        "{},\"fleet_shape\":{fleet_shape}}}",
        report_json.strip_suffix('}').expect("a JSON object")
    );
    let base = std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim_end().to_string())
        .filter(|s| s.starts_with('{') && s.ends_with('}'));
    let body = match base {
        Some(existing) => {
            // The swap section is always appended last, so cutting at
            // its key (or the closing brace) leaves the fleet payload.
            let head = match existing.find(",\"swap\":") {
                Some(i) => &existing[..i],
                None => &existing[..existing.len() - 1],
            };
            format!("{head},\"swap\":{swap_json}}}\n")
        }
        None => format!("{{\"bench\":\"fleet\",\"swap\":{swap_json}}}\n"),
    };
    std::fs::write(path, body)?;
    Ok(path)
}

/// `scalo-swap` at scale: 10k+ sessions admitted cold over a resident
/// set two orders of magnitude smaller, served from a bursty open-loop
/// arrival schedule with LRU eviction to the modeled NVM image tier.
/// Reports deadline-miss-rate percentiles, swap-fault latency, and
/// resident occupancy, and merges them into `BENCH_fleet.json` under
/// `"swap"`.
pub fn swap(sessions: usize) {
    let sessions = sessions.max(1) as u64;
    let resident = 512.min(sessions as usize).max(1);
    let pinned = if resident >= 64 { 16 } else { 0 };
    header(&format!(
        "scalo-swap: {sessions} sessions admitted over {resident} resident slots"
    ));
    let specs = swap_population(sessions, pinned);
    let plan = ArrivalPlan::generate(&ArrivalConfig {
        horizon_us: 250_000,
        mean_gap_us: 150_000,
        burst_windows: 6,
        ..ArrivalConfig::new(sessions, 0x0a5b)
    });
    let cfg = SwapConfig::new(4, resident)
        .with_admitted_capacity((sessions as usize).max(16 * 1024))
        .with_image_pages(256 * 1024);

    // Two trials: min-of-reps timing plus a whole-fleet determinism
    // check — same plan, same seeds, same fleet digest.
    let a = swap_trial(&specs, cfg, &plan);
    let b = swap_trial(&specs, cfg, &plan);
    assert_eq!(
        a.digest_fnv, b.digest_fnv,
        "swap serving not replayable by seed"
    );
    let report = if b.windows_per_sec() > a.windows_per_sec() {
        b
    } else {
        a
    };

    // Spot-check the tentpole property against never-swapped twins: a
    // hot session (many fault-ins) and a quiet one must both match.
    let mut checked = 0;
    for s in report.sessions.iter().filter(|s| s.swap_ins > 0).take(2) {
        let mut twin = scalo_core::session::Session::new(specs[s.id as usize].clone());
        for _ in 0..s.windows {
            twin.step();
        }
        assert_eq!(
            s.decisions_fnv,
            scalo_core::snapshot::fnv1a(twin.decision_digest().as_bytes()),
            "session {} diverged from its never-swapped twin",
            s.id
        );
        checked += 1;
    }

    table(
        &["metric", "value"],
        &[
            vec!["admitted sessions".into(), report.admitted.to_string()],
            vec!["resident budget".into(), report.resident_budget.to_string()],
            vec!["resident peak".into(), report.resident_peak.to_string()],
            vec![
                "swapped peak bytes".into(),
                report.nvm_image_bytes_peak.to_string(),
            ],
            vec!["windows served".into(), report.windows.to_string()],
            vec!["wall ms".into(), f(report.wall_ms, 1)],
            vec!["win/s".into(), f(report.windows_per_sec(), 0)],
            vec![
                "arrivals served/deferred/dropped".into(),
                format!(
                    "{}/{}/{}",
                    report.arrivals_served, report.arrivals_deferred, report.arrivals_dropped
                ),
            ],
            vec![
                "cold builds / swap-outs / swap-ins".into(),
                format!(
                    "{}/{}/{}",
                    report.cold_builds, report.swap_outs, report.swap_ins
                ),
            ],
        ],
    );
    println!("\n-- deadline-miss rate (per-session distribution) --");
    table(
        &["overall", "p50", "p99", "p99.9"],
        &[vec![
            f(report.miss_rates.overall, 4),
            f(report.miss_rates.p50, 4),
            f(report.miss_rates.p99, 4),
            f(report.miss_rates.p999, 4),
        ]],
    );
    println!("\n-- swap-fault latency, µs (modeled NVM read + decode + restore) --");
    table(
        &["count", "p50", "p99", "p99.9", "max"],
        &[vec![
            report.swap_in_us.count.to_string(),
            report.swap_in_us.p50_us.to_string(),
            report.swap_in_us.p99_us.to_string(),
            report.swap_in_us.p999_us.to_string(),
            report.swap_in_us.max_us.to_string(),
        ]],
    );
    println!(
        "never-swapped twin cross-check: {checked} sessions byte-identical; \
         fleet digest {:016x}",
        report.digest_fnv
    );
    let fleet_shape = swap_fleet_shape();
    match write_bench_swap_json(&report, &fleet_shape) {
        Ok(path) => println!("wrote {path} (\"swap\" section)"),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }
}

/// Sessions in the fleet-shaped swap trial.
const SHAPE_SESSIONS: u64 = 256;

/// Resident slots of the fleet-shaped swap trial.
const SHAPE_RESIDENT: usize = 32;

/// Workers of the fleet-shaped swap trial: a fault-in's latency is wall
/// time, so more workers than the 2-vCPU reference host has cores would
/// charge it their time slices.
const SHAPE_WORKERS: usize = 2;

/// The seizure response deadline a fault-in is held against, µs.
const SEIZURE_DEADLINE_US: u64 = 10_000;

/// The fleet-shaped swap trial: [`SHAPE_SESSIONS`] sessions of the shape
/// the fleet serves (2 implants × 4 electrodes, 0.9 s, the fleet
/// population's app mix) over [`SHAPE_RESIDENT`] resident slots, from a
/// fixed bursty plan. The 1×1, 0.2 s sessions of the 10k smoke make
/// fault-ins look cheaper than they are at this shape. Prints fault-in
/// latency (modeled NVM read + decode + restore) against the 10 ms
/// seizure deadline and the image size in bytes and 4 KB pages; returns
/// the `"fleet_shape"` JSON object of the swap section. Its keys avoid
/// the swap section's own (`swap_ins`, `digest_fnv`, ...).
fn swap_fleet_shape() -> String {
    let specs: Vec<SessionSpec> = fleet_population(SHAPE_SESSIONS as usize)
        .into_iter()
        .map(|s| {
            s.with_deployment(2, 4)
                .with_duration_s(0.9)
                .with_io_stall_us(0)
        })
        .collect();
    let plan = ArrivalPlan::generate(&ArrivalConfig {
        horizon_us: 900_000,
        mean_gap_us: 150_000,
        burst_windows: 6,
        ..ArrivalConfig::new(SHAPE_SESSIONS, 0x2b4)
    });
    let report = swap_trial(
        &specs,
        SwapConfig::new(SHAPE_WORKERS, SHAPE_RESIDENT),
        &plan,
    );
    let twin = report
        .sessions
        .iter()
        .max_by_key(|s| (s.swap_ins, std::cmp::Reverse(s.id)))
        .filter(|s| s.swap_ins > 0)
        .expect("the trial faults sessions in");
    let mut session = scalo_core::session::Session::new(specs[twin.id as usize].clone());
    for _ in 0..twin.windows {
        session.step();
    }
    assert_eq!(
        twin.decisions_fnv,
        scalo_core::snapshot::fnv1a(session.decision_digest().as_bytes()),
        "fleet-shaped session {} diverged from its never-swapped twin",
        twin.id
    );
    // Exact fault-in cost off the pool: decode + restore of images taken
    // at eight evenly spread cursors of eight sessions, one at a time.
    // The image at half (past detection, a full collision horizon) gives
    // the size.
    let (mut fault_in_us, mut image_bytes) = (Vec::new(), 0);
    for spec in specs.iter().take(8) {
        let mut session = scalo_core::session::Session::new(spec.clone());
        let end = session.windows_total() as u64;
        for k in 0..8 {
            while session.window() < k * end / 8 {
                session.step();
            }
            let image = session.snapshot().encode();
            if k == 4 {
                image_bytes = image_bytes.max(image.len());
            }
            let t0 = std::time::Instant::now();
            let snap = scalo_core::snapshot::SessionSnapshot::decode(&image).expect("valid image");
            let restored = scalo_core::session::Session::restore(&snap).expect("restores");
            fault_in_us.push(t0.elapsed().as_micros() as u64);
            assert_eq!(restored.step_digest(), session.step_digest());
        }
    }
    fault_in_us.sort_unstable();
    let exact = |q: f64| fault_in_us[((fault_in_us.len() - 1) as f64 * q).round() as usize];
    let (p50, p99) = (exact(0.5), exact(0.99));
    let image_pages = image_bytes.div_ceil(scalo_storage::PAGE_BYTES);
    let q = &report.swap_in_us;
    println!(
        "\n-- fleet-shaped trial: {SHAPE_SESSIONS} sessions of 2×4 electrodes, 0.9 s, \
         over {SHAPE_RESIDENT} slots, {SHAPE_WORKERS} workers --"
    );
    table(
        &["metric", "value"],
        &[
            vec!["windows served".into(), report.windows.to_string()],
            vec![
                "cold builds / evictions / fault-ins".into(),
                format!(
                    "{}/{}/{}",
                    report.cold_builds, report.swap_outs, report.swap_ins
                ),
            ],
            vec![
                "in the fleet: fault-in p50 / p99 / max, µs".into(),
                format!("≤{} / ≤{} / {}", q.p50_us, q.p99_us, q.max_us),
            ],
            vec![
                "decode + restore p50 / p99, µs".into(),
                format!("{p50} / {p99}"),
            ],
            vec![
                "p99 within the 10 ms deadline".into(),
                (p99 <= SEIZURE_DEADLINE_US).to_string(),
            ],
            vec![
                "image at half, bytes / 4 KB pages".into(),
                format!("{image_bytes} / {image_pages}"),
            ],
            vec!["fleet digest".into(), format!("{:016x}", report.digest_fnv)],
        ],
    );
    println!(
        "(in the fleet, p50/p99 are the latency histogram's bucket upper bounds and the \
         max is exact, NVM read and worker contention included; decode + restore is timed \
         exactly off the pool at cursors k/8 of 8 sessions; session {} matched its \
         never-swapped twin)",
        twin.id
    );
    format!(
        "{{\"sessions\":{SHAPE_SESSIONS},\"nodes\":2,\"electrodes\":4,\"duration_s\":0.9,\
         \"resident_budget\":{SHAPE_RESIDENT},\"windows\":{},\"cold_builds\":{},\
         \"evictions\":{},\"fault_ins\":{},\"fault_in_p50_us\":{},\"fault_in_p99_us\":{},\
         \"fault_in_max_us\":{},\"restore_p50_us\":{p50},\"restore_p99_us\":{p99},\
         \"deadline_us\":{SEIZURE_DEADLINE_US},\
         \"image_bytes\":{image_bytes},\"image_pages\":{image_pages},\"fleet_digest\":\"{:016x}\"}}",
        report.windows,
        report.cold_builds,
        report.swap_outs,
        report.swap_ins,
        q.p50_us,
        q.p99_us,
        q.max_us,
        report.digest_fnv,
    )
}

/// Merges `query_json` into `BENCH_fleet.json` as the top-level
/// `"query"` section, preserving the fleet payload and any `"swap"`
/// section (which stays last), replacing a previous query section.
pub fn write_bench_query_json(query_json: &str) -> std::io::Result<&'static str> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_fleet.json");
    let base = std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim_end().to_string())
        .filter(|s| s.starts_with('{') && s.ends_with('}'));
    let body = match base {
        Some(existing) => {
            // Peel the swap tail (always last), then any stale query
            // section, and re-insert query before swap.
            let (head, swap_tail) = match existing.find(",\"swap\":") {
                Some(i) => (&existing[..i], &existing[i..existing.len() - 1]),
                None => (&existing[..existing.len() - 1], ""),
            };
            let head = match head.find(",\"query\":") {
                Some(i) => &head[..i],
                None => head,
            };
            format!("{head},\"query\":{query_json}{swap_tail}}}\n")
        }
        None => format!("{{\"bench\":\"fleet\",\"query\":{query_json}}}\n"),
    };
    std::fs::write(path, body)?;
    Ok(path)
}

/// Query compilation end to end: compile every catalog entry, admit one
/// session per query and prove decision-digest equality with its
/// spec-constructed twin, then hot-reconfigure mid-run — one clean
/// digest-pinned cutover and one forced mismatch that must roll back.
/// Merges compile / ILP re-solve / cutover latency into
/// `BENCH_fleet.json` under `"query"`.
pub fn query() {
    header("Query compilation: source -> catalog -> plan -> fleet");
    let catalog = QueryCatalog::with_builtins(PlanConfig);

    // -- the catalog: every built-in app as a compiled plan --
    let rows: Vec<Vec<String>> = catalog
        .entries()
        .map(|e| {
            let serving = e.plan().serving_chain();
            let budget = resolve_budget(e.plan(), 4, ScaloConfig::default().power_limit_mw)
                .expect("built-ins fit the default deployment");
            let b = e.binding();
            vec![
                e.name().to_string(),
                e.plan().chains().len().to_string(),
                serving.step_names().join(">"),
                format!(
                    "every={} reliable={}",
                    b.movement_every, b.use_reliable_transport
                ),
                e.compile_us().to_string(),
                f(budget.predicted_window_ms, 3),
            ]
        })
        .collect();
    table(
        &[
            "query",
            "chains",
            "serving plan",
            "binding",
            "compile us",
            "pred ms",
        ],
        &rows,
    );

    // -- admission by query string vs spec construction --
    let entries: Vec<(u64, &str, &str)> = vec![
        (0, "seizure_watch", catalog::SEIZURE_WATCH),
        (1, "seizure_reliable", catalog::SEIZURE_RELIABLE),
        (2, "movement_mix", catalog::MOVEMENT_MIX),
    ];
    let base = |id: u64| SessionSpec::new(id, 0xbc1 + 7 * id).with_duration_s(0.3);

    let mut spec_fleet = Fleet::new(FleetConfig::new(2));
    for &(id, name, _) in &entries {
        let entry = catalog.get(name).expect("built-in catalog entry");
        spec_fleet
            .submit(entry.spec(id, 0xbc1 + 7 * id).with_duration_s(0.3))
            .unwrap();
    }
    let baseline = spec_fleet.run();

    let mut query_fleet = Fleet::new(FleetConfig::new(2));
    for &(id, _, source) in &entries {
        query_fleet
            .submit_query(base(id), source)
            .expect("built-in queries admit");
    }
    let report = query_fleet.run();
    let identical = baseline
        .sessions
        .iter()
        .zip(&report.sessions)
        .all(|(a, b)| a.id == b.id && a.digest == b.digest);
    assert!(identical, "query admission changed decisions");
    println!(
        "query-admitted decisions identical to spec-constructed twins: {}",
        if identical { "yes" } else { "NO (bug)" }
    );

    // -- hot reconfiguration: clean cutover + forced-mismatch rollback --
    let mut fleet = Fleet::new(FleetConfig::new(2));
    fleet.submit_query(base(0), catalog::SEIZURE_WATCH).unwrap();
    fleet
        .submit_query(base(1), catalog::SEIZURE_RELIABLE)
        .unwrap();
    fleet.schedule_reconfigure(0, 25, catalog::MOVEMENT_MIX, None);
    // Session 1's pin can never match: the cutover must roll back.
    fleet.schedule_reconfigure(1, 25, catalog::MOVEMENT_MIX, Some(0x0bad_0bad));
    let reconfigured = fleet.run();
    let records = &reconfigured.reconfigures;
    assert_eq!(records.len(), 2);
    assert!(
        records[0].ok,
        "clean cutover failed: {:?}",
        records[0].error
    );
    assert!(!records[1].ok, "forced digest mismatch must roll back");
    let rolled_back = reconfigured
        .sessions
        .iter()
        .find(|s| s.id == 1)
        .map(|s| &s.digest)
        == baseline
            .sessions
            .iter()
            .find(|s| s.id == 1)
            .map(|s| &s.digest);
    assert!(rolled_back, "rolled-back session drifted from its twin");
    let rec_rows: Vec<Vec<String>> = records
        .iter()
        .map(|r| {
            vec![
                r.id.to_string(),
                r.window.to_string(),
                if r.ok {
                    "cutover".into()
                } else {
                    "rollback".into()
                },
                r.compile_us.to_string(),
                r.resolve_us.to_string(),
                r.cutover_us.to_string(),
                r.error.clone().unwrap_or_default(),
            ]
        })
        .collect();
    println!("\n-- hot reconfiguration at window 25 --");
    table(
        &[
            "session",
            "window",
            "outcome",
            "compile us",
            "resolve us",
            "cutover us",
            "error",
        ],
        &rec_rows,
    );

    // -- BENCH_fleet.json "query" section --
    let compile_rows = catalog
        .entries()
        .map(|e| {
            format!(
                "{{\"name\":\"{}\",\"compile_us\":{}}}",
                e.name(),
                e.compile_us()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let rec_json = records
        .iter()
        .map(|r| {
            format!(
                "{{\"id\":{},\"window\":{},\"ok\":{},\"compile_us\":{},\"resolve_us\":{},\
                 \"cutover_us\":{}}}",
                r.id, r.window, r.ok, r.compile_us, r.resolve_us, r.cutover_us
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let query_json = format!(
        "{{\"catalog\":[{compile_rows}],\"digests_match\":{identical},\"reconfigures\":[{rec_json}]}}"
    );
    match write_bench_query_json(&query_json) {
        Ok(path) => println!("wrote {path} (\"query\" section)"),
        Err(e) => eprintln!("could not write BENCH_fleet.json: {e}"),
    }
}

/// Response-time budget for the `trace` experiment, in µs per window.
/// Deliberately tight (the paper's 4 ms cadence leaves ~150 µs of host
/// CPU per window at the modeled serving density) so the experiment
/// reliably produces deadline misses to attribute.
const TRACE_DEADLINE_US: u64 = 150;

/// The traced population: every session records spans into a
/// pre-allocated ring. Even ids model a 300 µs radio wait — double the
/// budget, so their misses are radio-dominated; odd ids have no stall,
/// so any misses they take are compute-dominated.
fn traced_population(sessions: usize) -> Vec<SessionSpec> {
    (0..sessions as u64)
        .map(|id| {
            SessionSpec::new(id, 0x7ace + 31 * id)
                .with_duration_s(0.3)
                .with_step_deadline_us(TRACE_DEADLINE_US)
                .with_io_stall_us(if id % 2 == 0 {
                    2 * TRACE_DEADLINE_US
                } else {
                    0
                })
                .with_movement_every(if id % 2 == 1 { 25 } else { 0 })
                .with_trace_capacity(16_384)
        })
        .collect()
}

/// Serves the traced population and returns the report (every session's
/// spans attached, per-stage histograms merged into the metrics
/// registry by the fleet).
pub fn traced_fleet_trial(sessions: usize, workers: usize) -> FleetReport {
    let mut fl = Fleet::new(
        FleetConfig::new(workers)
            .with_quantum_steps(4)
            .with_budget(16.0 * sessions.max(1) as f64),
    );
    for spec in traced_population(sessions.max(1)) {
        fl.submit(spec)
            .expect("population is sized to fit the budget");
    }
    fl.run()
}

/// Per-window span tracing with deadline-miss attribution: serves a
/// traced fleet under deliberate deadline pressure, writes the combined
/// `trace.json` (chrome://tracing format) at the repo root, and prints
/// the deadline-miss report — dominant stage per miss plus the
/// predicted-vs-observed skew against the Table 1 ILP latency model.
pub fn trace(sessions: usize) {
    let sessions = sessions.max(2);
    header(&format!(
        "Per-window tracing: {sessions} sessions, {TRACE_DEADLINE_US} µs budget"
    ));
    let report = traced_fleet_trial(sessions, 2);
    let deadline_ns = TRACE_DEADLINE_US * 1_000;

    // Attribute every session and fold the misses into a fleet view.
    let mut per_session: Vec<(u64, DeadlineMissReport)> = Vec::new();
    let mut dominant_tally: Vec<(Stage, usize)> = Vec::new();
    for s in &report.sessions {
        let breakdowns = attribute(&s.trace);
        assert!(
            !breakdowns.is_empty(),
            "traced session {} produced no attributable windows",
            s.id
        );
        for b in &breakdowns {
            // The attribution invariant the export relies on: stage
            // spans sum to the window wall time, residual included.
            assert_eq!(
                b.total_ns(),
                b.wall_ns,
                "session {} window {} attribution drifted",
                s.id,
                b.window
            );
        }
        let miss_report = deadline_miss_report(&breakdowns, deadline_ns);
        for m in &miss_report.misses {
            match dominant_tally.iter_mut().find(|(st, _)| *st == m.dominant) {
                Some((_, n)) => *n += 1,
                None => dominant_tally.push((m.dominant, 1)),
            }
        }
        per_session.push((s.id, miss_report));
    }

    let windows: usize = per_session.iter().map(|(_, r)| r.windows).sum();
    let misses: usize = per_session.iter().map(|(_, r)| r.misses.len()).sum();
    println!(
        "{windows} windows attributed, {misses} deadline misses ({:.1}%)",
        100.0 * misses as f64 / windows.max(1) as f64
    );
    dominant_tally.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    let rows: Vec<Vec<String>> = dominant_tally
        .iter()
        .map(|&(stage, n)| {
            vec![
                stage.name().to_string(),
                n.to_string(),
                stage.predicted_ms().map_or("-".into(), |p| f(p, 3)),
            ]
        })
        .collect();
    table(&["dominant stage", "misses", "Table 1 budget ms"], &rows);

    // A worked example: the first session with misses, truncated to its
    // first few lines (the full report is in the span data itself).
    if let Some((id, r)) = per_session.iter().find(|(_, r)| !r.misses.is_empty()) {
        const SHOW: usize = 5;
        println!("\n-- session {id} deadline-miss report (first {SHOW} misses) --");
        // `to_text` lays out one header line, one line per miss, then
        // the per-stage skew table; elide the middle beyond SHOW.
        let text = r.to_text();
        let lines: Vec<&str> = text.lines().collect();
        let n_miss = r.misses.len();
        for line in &lines[..1 + n_miss.min(SHOW)] {
            println!("{line}");
        }
        if n_miss > SHOW {
            println!("  … {} further misses elided", n_miss - SHOW);
        }
        for line in &lines[1 + n_miss..] {
            println!("{line}");
        }
    } else {
        println!("\nno session missed its deadline — raise --sessions or tighten the budget");
    }

    // chrome://tracing export: one process per session.
    let streams: Vec<(String, Vec<SpanEvent>)> = report
        .sessions
        .iter()
        .map(|s| (format!("session-{}", s.id), s.trace.clone()))
        .collect();
    let json = chrome_trace_json(&streams);
    assert!(is_valid_json(&json), "emitted trace must be valid JSON");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../trace.json");
    match std::fs::write(path, &json) {
        Ok(()) => println!(
            "\nwrote {path} ({} events) — load it in chrome://tracing or ui.perfetto.dev",
            streams.iter().map(|(_, e)| e.len()).sum::<usize>()
        ),
        Err(e) => eprintln!("\ncould not write trace.json: {e}"),
    }
}

/// Root for the WAL directories the durability experiments write,
/// keyed by experiment name so reruns never scan each other's logs.
fn wal_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::path::Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../target"))
        .join("scalo-wal")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Durability under a seeded crash schedule: measures write-ahead log
/// overhead on a clean run, then kills the fleet twice mid-run,
/// recovers from the log each time, and proves the merged decisions are
/// byte-identical to an uninterrupted baseline. Writes
/// `BENCH_durability.json` at the repo root.
pub fn durability(sessions: usize) {
    use rand::{Rng, SeedableRng};
    let sessions = sessions.clamp(2, 64);
    header(&format!(
        "Durability: {sessions} sessions, write-ahead log + kill/recover/replay"
    ));

    // Uninterrupted baseline — the digest ground truth, and the wall
    // time the log overhead is measured against.
    let mut plain = Fleet::new(FleetConfig::new(2).with_budget(16.0 * sessions as f64));
    for spec in fleet_population(sessions) {
        plain.submit(spec).expect("population fits the budget");
    }
    let baseline = plain.run();
    let baseline_digests: std::collections::BTreeMap<u64, String> = baseline
        .sessions
        .iter()
        .map(|s| (s.id, s.digest.clone()))
        .collect();

    // Clean durable run: same decisions, plus a log. This is where the
    // steady-state overhead numbers come from.
    let dcfg = DurabilityConfig::new(wal_dir("durability-clean"));
    let mut durable = Fleet::open_durable(
        FleetConfig::new(2).with_budget(16.0 * sessions as f64),
        &dcfg,
    )
    .expect("WAL dir is writable");
    for spec in fleet_population(sessions) {
        durable.submit(spec).expect("population fits the budget");
    }
    let logged = durable.run();
    let d = logged
        .durability
        .clone()
        .expect("durable run reports WAL stats");
    assert!(d.clean_shutdown && d.error.is_none(), "clean run: {d:?}");
    let logged_digests: std::collections::BTreeMap<u64, String> = logged
        .sessions
        .iter()
        .map(|s| (s.id, s.digest.clone()))
        .collect();
    assert_eq!(
        baseline_digests, logged_digests,
        "logging must observe, never steer"
    );
    let bytes_per_window = d.appended_bytes as f64 / logged.windows.max(1) as f64;
    let wall_overhead_pct = 100.0 * (logged.wall_ms - baseline.wall_ms) / baseline.wall_ms;
    table(
        &[
            "run", "wall ms", "records", "log KiB", "pad KiB", "pages", "fsyncs", "B/window",
            "nvm µs",
        ],
        &[vec![
            "clean".into(),
            f(logged.wall_ms, 1),
            d.records.to_string(),
            f(d.appended_bytes as f64 / 1024.0, 1),
            f(d.padding_bytes as f64 / 1024.0, 1),
            d.pages_written.to_string(),
            d.fsyncs.to_string(),
            f(bytes_per_window, 1),
            f(d.nvm_time_us, 0),
        ]],
    );
    println!(
        "baseline {} ms → logged {} ms ({}{}% wall overhead; timing is noisy, bytes are not)",
        f(baseline.wall_ms, 1),
        f(logged.wall_ms, 1),
        if wall_overhead_pct >= 0.0 { "+" } else { "" },
        f(wall_overhead_pct, 1),
    );

    // Crash schedule: two seeded kills inside (30%, 60%) of the total
    // window count — early enough that no session has finished, so the
    // final report alone carries every session's digest.
    let total_windows = baseline.windows;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x5ca1_0dbe);
    let kills = [
        rng.gen_range(total_windows * 3 / 10..total_windows * 6 / 10),
        rng.gen_range(total_windows * 3 / 10..total_windows * 6 / 10),
    ];
    let (merged, recoveries) = kill_cycles(sessions, kills, "durability-crash");
    let recovery_rows: Vec<Vec<String>> = recoveries
        .iter()
        .enumerate()
        .map(|(i, rec)| {
            vec![
                format!("recovery {}", i + 1),
                rec.sessions_recovered.to_string(),
                rec.windows_replayed.to_string(),
                rec.log_records.to_string(),
                rec.torn_bytes.to_string(),
                f(rec.recovery_ms, 2),
            ]
        })
        .collect();
    table(
        &["", "sessions", "replayed", "log recs", "torn B", "ms"],
        &recovery_rows,
    );
    let digests_match = merged == baseline_digests;
    println!(
        "kill at {:?} windows; merged digests match uninterrupted baseline: {}",
        kills,
        if digests_match { "yes" } else { "NO (bug)" }
    );
    assert!(digests_match, "recovered decisions diverged from baseline");

    let recoveries_json = recoveries
        .iter()
        .map(|r| {
            format!(
                "{{\"sessions_recovered\":{},\"windows_replayed\":{},\"log_records\":{},\
                 \"torn_bytes\":{},\"recovery_ms\":{:.3}}}",
                r.sessions_recovered,
                r.windows_replayed,
                r.log_records,
                r.torn_bytes,
                r.recovery_ms
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let body = format!(
        "{{\"bench\":\"durability\",\"sessions\":{sessions},\"windows\":{},\
         \"digests_match\":{digests_match},\
         \"log\":{{\"records\":{},\"appended_bytes\":{},\"padding_bytes\":{},\
         \"bytes_per_window\":{bytes_per_window:.2},\"pages_written\":{},\"fsyncs\":{},\
         \"segments\":{},\"nvm_time_us\":{:.1}}},\
         \"kills\":[{},{}],\"recoveries\":[{recoveries_json}]}}\n",
        logged.windows,
        d.records,
        d.appended_bytes,
        d.padding_bytes,
        d.pages_written,
        d.fsyncs,
        d.segments,
        d.nvm_time_us,
        kills[0],
        kills[1],
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_durability.json");
    match std::fs::write(path, body) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_durability.json: {e}"),
    }
}

/// The crash schedule of [`durability`] for `sessions` patients: a
/// durable fleet killed after `kills[0]` windows, recovered and killed
/// again after `kills[1]`, then recovered and run to the end, its log
/// under `target/scalo-wal/<tag>`. Returns every session's final digest
/// and the two recovery reports. The kill cycles run as perfbench's
/// `crash_recover` does: on one worker and without the modeled radio
/// wait. With two workers, which windows a kill interrupts races the
/// workers' quanta; with parked waits, it races the wall clock that
/// wakes them. Either would make what recovery replays vary run to run.
/// Decisions never read the wait, so the digests are the population's.
fn kill_cycles(
    sessions: usize,
    kills: [u64; 2],
    tag: &str,
) -> (std::collections::BTreeMap<u64, String>, Vec<RecoveryReport>) {
    let cfg = || FleetConfig::new(1).with_budget(16.0 * sessions as f64);
    let dcfg = DurabilityConfig::new(wal_dir(tag));
    let mut fleet = Fleet::open_durable(cfg().with_halt_after_windows(kills[0]), &dcfg)
        .expect("WAL dir is writable");
    for spec in fleet_population(sessions) {
        fleet
            .submit(spec.with_io_stall_us(0))
            .expect("population fits the budget");
    }
    let mut merged = std::collections::BTreeMap::new();
    let mut absorb = |r: &FleetReport| {
        for s in &r.sessions {
            merged.insert(s.id, s.digest.clone());
        }
    };
    absorb(&fleet.run());
    let mut recoveries = Vec::new();
    for halt in [Some(kills[1]), None] {
        let cfg = match halt {
            Some(h) => cfg().with_halt_after_windows(h),
            None => cfg(),
        };
        let (fleet, rec) = Fleet::recover(cfg, &dcfg).expect("recovery succeeds");
        recoveries.push(rec);
        absorb(&fleet.run());
    }
    (merged, recoveries)
}

/// Time-travel replay of windows `[from, to)` for deadline-miss
/// forensics: serves the traced population durably, then — for each
/// session — restores the latest logged checkpoint at or before `from`,
/// replays up to `from` dark and the requested range with span tracing
/// on, both through the recovery path's digest-checked
/// [`scalo_fleet::durable::replay`], and attributes the range's
/// deadline misses by stage.
pub fn replay(from: usize, to: usize) {
    use scalo_fleet::durable::{fold_log, replay};
    use scalo_storage::wal::WalScan;
    use scalo_trace::attribute_range;

    let (from, to) = (from.min(to), to.max(from + 1));
    header(&format!(
        "Replay forensics: windows [{from}, {to}), {TRACE_DEADLINE_US} µs budget"
    ));

    // The log under forensics: a durable run of the traced population.
    // A tight checkpoint cadence keeps the restore-and-fast-forward
    // distance to any requested range short.
    let dir = wal_dir("replay");
    let dcfg = DurabilityConfig::new(&dir).with_checkpoint_every_windows(16);
    let mut fleet = Fleet::open_durable(FleetConfig::new(2).with_budget(16.0 * 4.0), &dcfg)
        .expect("WAL dir is writable");
    for spec in traced_population(4) {
        fleet.submit(spec).expect("population fits the budget");
    }
    let live = fleet.run();
    println!(
        "serving pass logged {} windows across {} sessions\n",
        live.windows,
        live.sessions.len()
    );

    let scan = WalScan::open(&dir).expect("log scans clean after a clean shutdown");
    let mut rows = Vec::new();
    let mut all_misses = 0usize;
    for (&id, log) in &fold_log(&scan) {
        // The admit image at window 0 bounds every range.
        let mut session = log
            .restore(id, from as u64)
            .expect("logged checkpoint restores");
        let start = session.window();
        let to = to.min(session.windows_total());
        replay(&mut session, &log.decisions, from as u64)
            .expect("fast-forward matches the logged decisions");
        // Only the range under forensics is traced; the fast-forward
        // stays dark so attribution sees exactly [from, to).
        session.set_trace_capacity(16_384);
        let verified = replay(&mut session, &log.decisions, to as u64)
            .unwrap_or_else(|e| panic!("session {id} replayed a different decision: {e}"));
        assert_eq!(
            verified as usize,
            to.saturating_sub(from),
            "session {id}: the log must cover the range"
        );
        let events = session.take_trace_events();
        let breakdowns = attribute_range(&events, from as u32, to as u32);
        let miss_report = deadline_miss_report(&breakdowns, TRACE_DEADLINE_US * 1_000);
        all_misses += miss_report.misses.len();
        let dominant = miss_report
            .misses
            .iter()
            .map(|m| m.dominant)
            .next()
            .map_or("-".to_string(), |s| s.name().to_string());
        rows.push(vec![
            id.to_string(),
            format!("{start}..{to}"),
            verified.to_string(),
            miss_report.windows.to_string(),
            miss_report.misses.len().to_string(),
            dominant,
        ]);
    }
    table(
        &[
            "session",
            "replayed",
            "verified",
            "attributed",
            "misses",
            "first dominant",
        ],
        &rows,
    );
    println!(
        "\nevery replayed window matched its logged decision digest; \
         {all_misses} deadline misses attributed in the range"
    );
}

/// One before/after row of the kernel microbenchmark.
pub struct KernelStage {
    /// Stage label as it appears in `BENCH_kernels.json`.
    pub name: &'static str,
    /// Minimum wall-clock of the legacy per-channel path, µs.
    pub per_channel_us: f64,
    /// Minimum wall-clock of the batched channel-major path, µs.
    pub batched_us: f64,
}

impl KernelStage {
    /// Per-channel time over batched time.
    pub fn speedup(&self) -> f64 {
        self.per_channel_us / self.batched_us
    }
}

/// Minimum wall-clock over `reps` runs of `f`, in µs, plus the checksum
/// `f` computed (the checksum keeps the optimizer from deleting the
/// kernels and doubles as an equivalence witness between variants).
fn min_time_us(reps: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut check = 0.0;
    for _ in 0..reps.max(1) {
        let t = std::time::Instant::now();
        check = std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64() * 1e6);
    }
    (best, check)
}

/// Writes `BENCH_kernels.json` at the repo root. The `simd_isa` field
/// records which dispatch level the batched kernels actually ran at
/// (`SCALO_SIMD` clamps it), so a stored result is never mistaken for a
/// different lane's numbers.
pub fn write_bench_kernels_json(
    reps: usize,
    channels: usize,
    stages: &[KernelStage],
) -> std::io::Result<&'static str> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    let rows = stages
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"per_channel_us\":{:.2},\"batched_us\":{:.2},\"speedup\":{:.2}}}",
                s.name,
                s.per_channel_us,
                s.batched_us,
                s.speedup()
            )
        })
        .collect::<Vec<_>>()
        .join(",");
    let isa = scalo_signal::simd::SimdLevel::active().name();
    let body = format!(
        "{{\"bench\":\"kernels\",\"simd_isa\":\"{isa}\",\"channels\":{channels},\"samples\":{WINDOW_SAMPLES},\"reps\":{reps},\"stages\":[{rows}]}}\n"
    );
    std::fs::write(path, body)?;
    Ok(path)
}

/// Kernel-engine microbenchmark: the batched channel-major hot-path
/// kernels against the legacy per-channel APIs they wrap. Each pair is
/// checked for equivalence (bitwise checksums, or decision equality for
/// pruned DTW) before the timings are trusted; results land in
/// `BENCH_kernels.json`.
///
/// `channels` scales the electrode count for the filter/FFT/sketch
/// stages (`0` means the full node width); the DTW stage confirms a
/// fixed candidate set and does not vary with it. The SIMD level is the
/// process-wide active one — pin it with `SCALO_SIMD` for per-ISA runs.
pub fn kernels(reps: usize, channels: usize) {
    let channels = if channels == 0 {
        ELECTRODES_PER_NODE
    } else {
        channels
    };
    let isa = scalo_signal::simd::SimdLevel::active();
    header(&format!(
        "Kernel engine: batched channel-major vs per-channel scalar ({channels} ch × {WINDOW_SAMPLES} samples, simd_isa={isa}, min of {reps} reps)"
    ));
    let samples = WINDOW_SAMPLES;

    // Deterministic per-channel tones with drifting frequency and phase:
    // enough spectral spread that the filter, FFT, and hash all do real
    // work. `windows[c]` is the gathered form, `interleaved` the
    // frame-major block the ADC DMA would deposit.
    let windows: Vec<Vec<f64>> = (0..channels)
        .map(|c| {
            (0..samples)
                .map(|t| {
                    let t = t as f64;
                    let c = c as f64;
                    (t * (0.05 + 0.002 * c)).sin() * 40.0 + (t * 0.71 + c).cos() * 5.0
                })
                .collect()
        })
        .collect();
    let mut interleaved = vec![0.0; channels * samples];
    for (c, w) in windows.iter().enumerate() {
        for (t, &v) in w.iter().enumerate() {
            interleaved[t * channels + c] = v;
        }
    }

    let mut stages = Vec::new();

    // -- Stage 1: bandpass filter + band-power features ------------------
    // Legacy: per-channel `filter()` then `band_power_features()` — one
    // fresh Vec per filter call and six separate FFTs per channel, each
    // regenerating twiddles on the fly. Batched: one fused bank pass over
    // the interleaved block, then a single planned FFT per channel shared
    // by all six bands.
    let design = BandpassDesign::new(2, 8.0, 150.0, SAMPLE_RATE_HZ);
    let mut filters: Vec<ButterworthBandpass> = (0..channels)
        .map(|_| ButterworthBandpass::from_design(&design))
        .collect();
    let (legacy_us, legacy_check) = min_time_us(reps, || {
        let mut acc = 0.0;
        for (f, w) in filters.iter_mut().zip(&windows) {
            let filtered = f.filter(w);
            for v in band_power_features(&filtered) {
                acc += v;
            }
            f.reset();
        }
        acc
    });
    let mut bank = BandpassBank::new(&design, channels);
    let mut block_buf = vec![0.0; interleaved.len()];
    let mut fft_scratch = FftScratch::new();
    let mut chan: Vec<f64> = Vec::with_capacity(samples);
    let mut features: Vec<f64> = Vec::with_capacity(6);
    let (batched_us, batched_check) = min_time_us(reps, || {
        block_buf.copy_from_slice(&interleaved);
        bank.process_interleaved(&mut block_buf);
        bank.reset();
        let mut acc = 0.0;
        for c in 0..channels {
            chan.clear();
            chan.extend((0..samples).map(|t| block_buf[t * channels + c]));
            band_power_features_into(&chan, &mut fft_scratch, &mut features);
            for &v in &features {
                acc += v;
            }
        }
        acc
    });
    assert_eq!(
        legacy_check.to_bits(),
        batched_check.to_bits(),
        "batched filter+FFT features must be bitwise identical"
    );
    if std::env::var("SCALO_KERNEL_PROFILE").is_ok() {
        let (t_copy_bank, _) = min_time_us(reps, || {
            block_buf.copy_from_slice(&interleaved);
            bank.process_interleaved(&mut block_buf);
            bank.reset();
            block_buf[0]
        });
        let (t_gather, _) = min_time_us(reps, || {
            let mut acc = 0.0;
            for c in 0..channels {
                chan.clear();
                chan.extend((0..samples).map(|t| block_buf[t * channels + c]));
                acc += chan[0];
            }
            acc
        });
        let (t_feat, _) = min_time_us(reps, || {
            let mut acc = 0.0;
            for _ in 0..channels {
                band_power_features_into(&chan, &mut fft_scratch, &mut features);
                acc += features[0];
            }
            acc
        });
        let (t_fft_only, _) = min_time_us(reps, || {
            let mut acc = 0.0;
            for _ in 0..channels {
                acc += fft_real_into(&chan, &mut fft_scratch)[5].re;
            }
            acc
        });
        println!(
            "profile: copy+bank {t_copy_bank:.1}µs gather {t_gather:.1}µs \
             features {t_feat:.1}µs (fft only {t_fft_only:.1}µs)"
        );
    }
    stages.push(KernelStage {
        name: "filter_fft_features",
        per_channel_us: legacy_us,
        batched_us,
    });

    // -- Stage 2: FFT alone, transform-for-transform ---------------------
    // Same number of transforms on both sides, isolating what the cached
    // plan buys: no output Vec, no bit-reversal recomputation, no
    // per-butterfly twiddle recurrence.
    let (legacy_us, legacy_check) = min_time_us(reps, || {
        let mut acc = 0.0;
        for w in &windows {
            acc += fft_real(w)[5].re;
        }
        acc
    });
    let (batched_us, batched_check) = min_time_us(reps, || {
        let mut acc = 0.0;
        for w in &windows {
            acc += fft_real_into(w, &mut fft_scratch)[5].re;
        }
        acc
    });
    assert_eq!(
        legacy_check.to_bits(),
        batched_check.to_bits(),
        "planned FFT must be bitwise identical"
    );
    stages.push(KernelStage {
        name: "fft",
        per_channel_us: legacy_us,
        batched_us,
    });

    // -- Stage 3: LSH sketching ------------------------------------------
    // Legacy: `hash()` per electrode window. Batched: scatter into the
    // channel-major block, then one `hash_block_into` pass (the scatter
    // is charged to the batched side — it is part of that path).
    let hasher = SshHasher::new(HashConfig::default());
    let mut legacy_hashes: Vec<SignalHash> = Vec::new();
    let (legacy_us, _) = min_time_us(reps, || {
        legacy_hashes.clear();
        for w in &windows {
            legacy_hashes.push(hasher.hash(w));
        }
        legacy_hashes.iter().map(|h| h.0[0] as f64).sum()
    });
    let mut block = ChannelBlock::new();
    block.reset(channels, samples);
    let mut hash_scratch = BlockHashScratch::new();
    let mut hashes: Vec<SignalHash> = Vec::new();
    let (batched_us, _) = min_time_us(reps, || {
        block.reset(channels, samples);
        block.fill_channels(|c| windows[c].as_slice());
        hasher.hash_block_into(&block, &mut hash_scratch, &mut hashes);
        hashes.iter().map(|h| h.0[0] as f64).sum()
    });
    assert_eq!(legacy_hashes, hashes, "batched hashes must match exactly");
    stages.push(KernelStage {
        name: "sketch",
        per_channel_us: legacy_us,
        batched_us,
    });

    // -- Stage 4: DTW confirmation ---------------------------------------
    // Legacy: exact banded DTW on every candidate pair. Batched engine:
    // LB_Keogh lower bound + early-abandon row cutoff at the decision
    // threshold. Decisions (dist < threshold) must agree pair-for-pair.
    const DTW_THRESHOLD: f64 = 6.0;
    let params = DtwParams::default();
    let pairs: Vec<(Vec<f64>, Vec<f64>)> = (0..24)
        .map(|p| {
            let a: Vec<f64> = (0..samples)
                .map(|t| ((t + 3 * p) as f64 * 0.21).sin())
                .collect();
            let b: Vec<f64> = match p % 3 {
                // A warped near-match: lands under the threshold, so the
                // full DP runs and the result is exact.
                0 => (0..samples)
                    .map(|t| ((t + 3 * p + 2) as f64 * 0.21).sin())
                    .collect(),
                // Same band, different shape: the DP abandons once every
                // in-band cell of a row reaches the cutoff.
                1 => (0..samples)
                    .map(|t| ((t * (p + 2)) as f64 * 0.13).cos() * 2.0)
                    .collect(),
                // A burst riding a level shift (e.g. an artifact window):
                // leaves the envelope immediately, so LB_Keogh rejects it
                // without running the DP at all.
                _ => (0..samples)
                    .map(|t| ((t + p) as f64 * 0.33).sin() + 4.0)
                    .collect(),
            };
            (a, b)
        })
        .collect();
    let (legacy_us, legacy_check) = min_time_us(reps, || {
        pairs
            .iter()
            .filter(|(a, b)| dtw_distance(a, b, params) < DTW_THRESHOLD)
            .count() as f64
    });
    let mut dtw_scratch = DtwScratch::default();
    let (batched_us, batched_check) = min_time_us(reps, || {
        pairs
            .iter()
            .filter(|(a, b)| {
                dtw_distance_pruned(&mut dtw_scratch, a, b, params, DTW_THRESHOLD).distance
                    < DTW_THRESHOLD
            })
            .count() as f64
    });
    assert_eq!(
        legacy_check, batched_check,
        "pruned DTW must preserve every threshold decision"
    );
    assert!(legacy_check > 0.0, "some pairs must actually confirm");
    stages.push(KernelStage {
        name: "dtw",
        per_channel_us: legacy_us,
        batched_us,
    });

    let rows: Vec<Vec<String>> = stages
        .iter()
        .map(|s| {
            vec![
                s.name.to_string(),
                f(s.per_channel_us, 1),
                f(s.batched_us, 1),
                format!("{:.2}x", s.speedup()),
            ]
        })
        .collect();
    table(&["stage", "per-channel µs", "batched µs", "speedup"], &rows);

    match write_bench_kernels_json(reps, channels, &stages) {
        Ok(path) => println!("wrote {path}"),
        Err(e) => eprintln!("could not write BENCH_kernels.json: {e}"),
    }
}

/// A small two-site recording with a simultaneous seizure, used by the
/// Figure 15 experiments.
fn two_site_config(seed: u64) -> IeegConfig {
    IeegConfig {
        nodes: 2,
        electrodes_per_node: 4,
        duration_s: 0.9,
        seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, 2, 0.0)],
        seed,
        ..Default::default()
    }
}

fn two_site_recording(seed: u64) -> scalo_data::ieeg::MultiSiteRecording {
    gen_ieeg(&two_site_config(seed))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The durability experiment's kill cycles are reproducible: two
    /// runs of one schedule recover the same sessions, replay the same
    /// windows and scan the same log records, cycle by cycle.
    #[test]
    fn kill_cycles_repeat_run_to_run() {
        let kills = [300, 250];
        let (digests_a, a) = kill_cycles(6, kills, "kill-cycles-a");
        let (digests_b, b) = kill_cycles(6, kills, "kill-cycles-b");
        assert_eq!(digests_a, digests_b);
        let counts = |r: &[RecoveryReport]| {
            r.iter()
                .map(|r| (r.sessions_recovered, r.windows_replayed, r.log_records))
                .collect::<Vec<_>>()
        };
        assert_eq!(counts(&a), counts(&b));
        assert!(a.iter().any(|r| r.windows_replayed > 0), "{a:?}");
    }

    #[test]
    fn quick_experiments_run() {
        table1();
        table2();
        table3();
        fig8a();
        fig9b();
        fig13();
        local_scaling_exp();
        storage_layout_exp();
        compression_exp();
    }

    #[test]
    fn medium_experiments_run() {
        fig8b();
        fig8c();
        fig9a();
        fig10();
        fig12(50);
    }

    #[test]
    fn reliable_transport_meets_delivery_target() {
        // Acceptance: at BER 1e-4 the reliable transport recovers ≥99%
        // of hash packets while fire-and-forget does not.
        let t = transport_trial(1e-4, 2_000, 42);
        let naive = t.naive_delivered as f64 / t.packets as f64;
        let reliable = t.reliable_delivered as f64 / t.packets as f64;
        assert!(reliable >= 0.99, "{t:?}");
        assert!(naive < 0.99, "{t:?}");
        assert!(t.retransmissions > 0, "{t:?}");
    }

    #[test]
    fn fleet_trial_is_deterministic_across_workers() {
        let (a, _) = fleet_trial(2, 1, 8);
        let (b, _) = fleet_trial(2, 2, 3);
        assert_eq!(a.windows, 2 * 150, "0.6 s at 250 windows/s per session");
        let digests = |r: &FleetReport| {
            r.sessions
                .iter()
                .map(|s| (s.id, s.digest.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&a), digests(&b));
    }

    #[test]
    fn fault_tolerance_is_deterministic() {
        assert_eq!(transport_trial(1e-3, 300, 7), transport_trial(1e-3, 300, 7));
        assert_eq!(crash_trial(2, 9), crash_trial(2, 9));
    }

    #[test]
    fn crashed_quorum_still_detects() {
        // Acceptance: 3 of 8 nodes crash mid-run; the surviving quorum
        // still detects and confirms, and the schedule was re-solved.
        let t = crash_trial(3, 0xc7a5);
        assert_eq!(t.live_nodes, 5);
        assert!(t.detect_window.is_some(), "{t:?}");
        assert!(t.confirmations >= 1, "{t:?}");
        assert!(t.mean_eviction_latency_ms > 0.0, "{t:?}");
        assert!(t.resolved_weighted_mbps.is_some(), "{t:?}");
    }
}
