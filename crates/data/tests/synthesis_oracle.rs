//! The chunked, oscillator-major iEEG kernel against the per-sample
//! generator it replaced, kept here as the oracle: every sample bit and
//! every seizure-mask bit must agree, over random shapes, seizure layouts
//! and ranges.

use proptest::collection;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use scalo_data::ieeg::{
    generate_range, num_samples, IeegConfig, MultiSiteRecording, NodeRecording, SeizureEvent,
};
use scalo_data::SAMPLE_RATE_HZ;

/// The spike-and-wave discharge shape, as the generator defines it.
fn spike_wave(phase: f64) -> f64 {
    if phase < 0.15 {
        let p = phase / 0.15;
        (p * std::f64::consts::PI).sin() * 2.0 * (1.0 - p * 0.5)
    } else {
        let p = (phase - 0.15) / 0.85;
        -(p * std::f64::consts::PI).sin() * 0.8
    }
}

/// Samples `from..to` one sample at a time: for each node and electrode,
/// the preamble draws, then per sample the seven oscillators summed in
/// order, the noise draw and the ramped discharge.
fn oracle_range(config: &IeegConfig, from: usize, to: usize) -> MultiSiteRecording {
    const PREAMBLE_DRAWS: usize = 9;
    const WORDS_PER_DRAW: u128 = 2;
    let samples = num_samples(config);
    assert!(from <= to && to <= samples);
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let electrode_words = (PREAMBLE_DRAWS + samples) as u128 * WORDS_PER_DRAW;

    let mut nodes = Vec::with_capacity(config.nodes);
    for node in 0..config.nodes {
        let mut channels = Vec::with_capacity(config.electrodes_per_node);
        let mut runs = Vec::with_capacity(config.seizures.len());
        for ev in &config.seizures {
            if let Some(onset) = ev.onset_at(node) {
                let lo = (onset * SAMPLE_RATE_HZ) as usize;
                let hi = (((onset + ev.duration_s) * SAMPLE_RATE_HZ) as usize).min(samples);
                runs.push((lo, hi));
            }
        }
        let seizure_mask: Vec<bool> = (from..to)
            .map(|t| runs.iter().any(|&(lo, hi)| lo <= t && t < hi))
            .collect();
        let mut run_start = from;
        while let Some(&(lo, _)) = runs
            .iter()
            .find(|&&(lo, hi)| lo < run_start && run_start <= hi)
        {
            run_start = lo;
        }

        for e in 0..config.electrodes_per_node {
            let preamble = (node * config.electrodes_per_node + e) as u128 * electrode_words;
            rng.set_word_pos(preamble);
            let bank: Vec<(f64, f64, f64)> = (3..=9)
                .map(|oct| {
                    let f = 2f64.powi(oct);
                    let amp = 1.0 / (oct as f64).max(1.0);
                    let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                    (f, amp, phase)
                })
                .collect();
            let jitter = rng.gen::<f64>() * 0.002;
            let elec_amp = 0.8 + 0.4 * rng.gen::<f64>();
            rng.set_word_pos(preamble + (PREAMBLE_DRAWS + from) as u128 * WORDS_PER_DRAW);

            let mut ch = Vec::with_capacity(to - from);
            let mut into_event = from - run_start;
            for (t, &seizing) in (from..to).zip(&seizure_mask) {
                let time_s = t as f64 / SAMPLE_RATE_HZ;
                let mut v = 0.0;
                for &(f, amp, phase) in &bank {
                    v += amp * (std::f64::consts::TAU * f * time_s + phase).sin();
                }
                v *= config.background_amp / 2.0;
                v += config.background_amp * 0.2 * (rng.gen::<f64>() - 0.5);
                if seizing {
                    let ramp_len = (0.1 * SAMPLE_RATE_HZ) as usize;
                    let ramp = (into_event as f64 / ramp_len as f64).min(1.0);
                    let phase = ((time_s + jitter) * config.seizure_hz).fract();
                    v += config.seizure_amp * elec_amp * ramp * spike_wave(phase);
                    into_event += 1;
                } else {
                    into_event = 0;
                }
                ch.push(v);
            }
            channels.push(ch);
        }
        nodes.push(NodeRecording {
            channels,
            seizure: seizure_mask,
        });
    }
    MultiSiteRecording {
        nodes,
        config: config.clone(),
    }
}

/// Kernel and oracle over `from..to`, bit for bit.
fn assert_matches_oracle(cfg: &IeegConfig, from: usize, to: usize) -> Result<(), TestCaseError> {
    let got = generate_range(cfg, from, to);
    let want = oracle_range(cfg, from, to);
    prop_assert_eq!(got.nodes.len(), want.nodes.len());
    for (n, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
        prop_assert_eq!(&g.seizure, &w.seizure, "node {} mask {}..{}", n, from, to);
        prop_assert_eq!(g.channels.len(), w.channels.len());
        for (e, (gc, wc)) in g.channels.iter().zip(&w.channels).enumerate() {
            prop_assert_eq!(gc.len(), to - from);
            let first_diff = gc
                .iter()
                .zip(wc)
                .position(|(a, b)| a.to_bits() != b.to_bits());
            prop_assert!(
                first_diff.is_none(),
                "node {} electrode {} range {}..{}: sample {:?} differs",
                n,
                e,
                from,
                to,
                first_diff.map(|i| from + i)
            );
        }
    }
    Ok(())
}

/// A sample index `frac` of the way through `0..=n`.
fn at(frac: f64, n: usize) -> usize {
    ((frac * n as f64) as usize).min(n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn kernel_matches_the_per_sample_oracle(
        (seed, nodes, electrodes, duration_ms) in (any::<u64>(), 1usize..=16, 1usize..=6, 4usize..=110),
        events in collection::vec((0.0f64..1.0, 0.0f64..0.6, 0.0f64..0.01, 0usize..16, any::<bool>()), 0..3),
        (kind, a, b, d) in (0usize..6, 0.0f64..1.0, 0.0f64..1.0, 0usize..5),
    ) {
        let duration_s = duration_ms as f64 / 1_000.0;
        let seizures: Vec<SeizureEvent> = events
            .iter()
            .map(|&(onset, len, lag, unreachable, cut)| {
                let mut ev = SeizureEvent::uniform(
                    onset * duration_s,
                    len * duration_s,
                    unreachable % nodes,
                    nodes,
                    lag,
                );
                // A node the seizure never reaches (the origin included).
                if cut {
                    ev.lags_s[(unreachable / 2) % nodes] = f64::INFINITY;
                }
                ev
            })
            .collect();
        let cfg = IeegConfig {
            nodes,
            electrodes_per_node: electrodes,
            duration_s,
            seizures,
            seed,
            ..Default::default()
        };
        let n = num_samples(&cfg);
        let (from, to) = match kind {
            // Empty, anywhere up to the end.
            0 => (at(a, n), at(a, n)),
            // One sample.
            1 => {
                let t = at(a, n - 1);
                (t, t + 1)
            }
            // From inside the first event's ramp (100 ms) at its origin.
            2 => {
                let onset = cfg
                    .seizures
                    .first()
                    .and_then(|ev| ev.onset_at(ev.origin_node))
                    .map_or(0, |s| (s * SAMPLE_RATE_HZ) as usize);
                let from = (onset + at(a, 3_000)).min(n);
                (from, from + at(b, n - from))
            }
            // Around and across 240-sample chunk edges.
            3 => {
                let len = [239, 240, 241, 479, 481][d].min(n);
                let from = at(a, n - len);
                (from, from + len)
            }
            // To the recording's end.
            4 => (at(a, n), n),
            _ => {
                let (x, y) = (at(a, n), at(b, n));
                (x.min(y), x.max(y))
            }
        };
        assert_matches_oracle(&cfg, from, to)?;
    }
}

#[test]
fn whole_recordings_match_the_oracle() {
    // The served shapes (2x4 at 0.3 s, 1x96) and a lagged 3-node one.
    for (nodes, electrodes, duration_s, lag) in
        [(2, 4, 0.3, 0.05), (1, 96, 0.02, 0.0), (3, 5, 0.2, 0.01)]
    {
        let cfg = IeegConfig {
            nodes,
            electrodes_per_node: electrodes,
            duration_s,
            seizures: vec![SeizureEvent::uniform(
                duration_s / 3.0,
                duration_s / 2.0,
                0,
                nodes,
                lag,
            )],
            seed: 0xbead + nodes as u64,
            ..Default::default()
        };
        assert_matches_oracle(&cfg, 0, num_samples(&cfg)).unwrap();
    }
}
