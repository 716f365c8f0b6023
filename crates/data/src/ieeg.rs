//! Synthetic intracranial EEG with propagating seizures.
//!
//! Background activity is pink-ish noise (a sum of octave-spaced
//! oscillators with random phases plus white noise — the classic Voss
//! construction), which matches the 1/f spectral profile of cortical
//! recordings well enough to drive filters, FFT features and hashing.
//! Seizures are 3 Hz spike-and-wave discharges whose amplitude ramps up
//! and which appear at each implant site with a configurable onset lag —
//! the spatio-temporal correlation structure the seizure-propagation
//! pipeline detects.

use crate::SAMPLE_RATE_HZ;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One seizure event in a recording.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeizureEvent {
    /// Onset time at the *origin* site, in seconds.
    pub onset_s: f64,
    /// Duration in seconds.
    pub duration_s: f64,
    /// Index of the node where the seizure originates.
    pub origin_node: usize,
    /// Per-node propagation lag in seconds (lag from origin onset to
    /// onset at node `i`); `f64::INFINITY` means the seizure never
    /// reaches that node.
    pub lags_s: [f64; MAX_NODES],
    /// Number of nodes the lag table covers.
    pub nodes: usize,
}

/// Maximum nodes a lag table covers.
pub const MAX_NODES: usize = 16;

impl SeizureEvent {
    /// A seizure reaching every node with a uniform inter-node lag.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds [`MAX_NODES`] or is zero.
    pub fn uniform(onset_s: f64, duration_s: f64, origin: usize, nodes: usize, lag_s: f64) -> Self {
        assert!((1..=MAX_NODES).contains(&nodes), "bad node count {nodes}");
        assert!(origin < nodes, "origin out of range");
        let mut lags_s = [f64::INFINITY; MAX_NODES];
        for (i, lag) in lags_s.iter_mut().enumerate().take(nodes) {
            *lag = (i as f64 - origin as f64).abs() * lag_s;
        }
        Self {
            onset_s,
            duration_s,
            origin_node: origin,
            lags_s,
            nodes,
        }
    }

    /// Onset time at `node`, or `None` if it never arrives.
    pub fn onset_at(&self, node: usize) -> Option<f64> {
        let lag = self.lags_s[node];
        lag.is_finite().then_some(self.onset_s + lag)
    }
}

/// Configuration for a multi-site recording.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IeegConfig {
    /// Number of implants (nodes).
    pub nodes: usize,
    /// Electrodes per node.
    pub electrodes_per_node: usize,
    /// Recording length in seconds.
    pub duration_s: f64,
    /// Background amplitude (arbitrary units).
    pub background_amp: f64,
    /// Seizure amplitude at full ramp.
    pub seizure_amp: f64,
    /// Seizure discharge frequency in Hz (classically 3 Hz).
    pub seizure_hz: f64,
    /// Seizures to inject.
    pub seizures: Vec<SeizureEvent>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for IeegConfig {
    fn default() -> Self {
        Self {
            nodes: 2,
            electrodes_per_node: 8,
            duration_s: 1.0,
            background_amp: 0.1,
            seizure_amp: 0.8,
            seizure_hz: 3.0,
            seizures: vec![SeizureEvent::uniform(0.3, 0.5, 0, 2, 0.05)],
            seed: 0xbead,
        }
    }
}

/// One implant's recording: channels × samples, plus per-sample seizure
/// ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeRecording {
    /// `channels[c][t]` is electrode `c` at sample `t`.
    pub channels: Vec<Vec<f64>>,
    /// Ground-truth: `seizure[t]` is true while a seizure is active at
    /// this node.
    pub seizure: Vec<bool>,
}

impl NodeRecording {
    /// Number of electrodes.
    pub fn num_channels(&self) -> usize {
        self.channels.len()
    }

    /// Number of samples per channel.
    pub fn num_samples(&self) -> usize {
        self.channels.first().map_or(0, Vec::len)
    }
}

/// A full multi-site recording.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSiteRecording {
    /// Per-node recordings.
    pub nodes: Vec<NodeRecording>,
    /// The configuration that produced it.
    pub config: IeegConfig,
}

/// The spike-and-wave discharge shape: one sharp spike followed by a
/// slow wave, repeating at `seizure_hz`.
fn spike_wave(phase: f64) -> f64 {
    // phase in [0, 1): spike in the first 15%, slow wave after.
    if phase < 0.15 {
        // Sharp biphasic transient.
        let p = phase / 0.15;
        (p * std::f64::consts::PI).sin() * 2.0 * (1.0 - p * 0.5)
    } else {
        // Slow rounded wave of opposite polarity.
        let p = (phase - 0.15) / 0.85;
        -(p * std::f64::consts::PI).sin() * 0.8
    }
}

/// Generates a multi-site recording.
///
/// # Panics
///
/// Panics on degenerate configs (no nodes/electrodes, non-positive
/// duration, too many nodes for a seizure lag table).
pub fn generate(config: &IeegConfig) -> MultiSiteRecording {
    assert!(config.nodes >= 1, "need at least one node");
    assert!(config.electrodes_per_node >= 1, "need electrodes");
    assert!(config.duration_s > 0.0, "duration must be positive");
    let samples = (config.duration_s * SAMPLE_RATE_HZ) as usize;
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);

    let mut nodes = Vec::with_capacity(config.nodes);
    for node in 0..config.nodes {
        let mut channels = Vec::with_capacity(config.electrodes_per_node);
        let mut seizure_mask = vec![false; samples];

        // Mark seizure intervals for this node.
        for ev in &config.seizures {
            assert!(ev.nodes <= config.nodes, "seizure lag table too small");
            if let Some(onset) = ev.onset_at(node) {
                let from = (onset * SAMPLE_RATE_HZ) as usize;
                let to = (((onset + ev.duration_s) * SAMPLE_RATE_HZ) as usize).min(samples);
                for m in seizure_mask.iter_mut().take(to).skip(from.min(samples)) {
                    *m = true;
                }
            }
        }

        for _ in 0..config.electrodes_per_node {
            // Octave oscillator bank for 1/f background: 8–512 Hz.
            // Sub-8 Hz background is deliberately absent so the 3 Hz
            // ictal discharge is spectrally separable (as it is in real
            // iEEG, where delta-band power surges at seizure onset).
            let bank: Vec<(f64, f64, f64)> = (3..=9)
                .map(|oct| {
                    let f = 2f64.powi(oct);
                    let amp = 1.0 / (oct as f64).max(1.0);
                    let phase = rng.gen::<f64>() * std::f64::consts::TAU;
                    (f, amp, phase)
                })
                .collect();
            // Per-electrode seizure phase jitter: electrodes at one site
            // see the discharge nearly in phase.
            let jitter = rng.gen::<f64>() * 0.002;
            let elec_amp = 0.8 + 0.4 * rng.gen::<f64>();

            let mut ch = Vec::with_capacity(samples);
            // Consecutive seizure samples just before `t`: how far into
            // the current event the ramp is, kept as a running count
            // rather than re-scanned back from every sample.
            let mut into_event = 0usize;
            for (t, &seizing) in seizure_mask.iter().enumerate() {
                let time_s = t as f64 / SAMPLE_RATE_HZ;
                let mut v = 0.0;
                for &(f, amp, phase) in &bank {
                    v += amp * (std::f64::consts::TAU * f * time_s + phase).sin();
                }
                v *= config.background_amp / 2.0;
                v += config.background_amp * 0.2 * (rng.gen::<f64>() - 0.5);

                if seizing {
                    // Ramp amplitude over the first 100 ms of the event.
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

#[cfg(test)]
mod tests {
    use super::*;
    use scalo_signal::stats::rms;
    use scalo_signal::xcor::pearson;

    fn small_config() -> IeegConfig {
        IeegConfig {
            nodes: 2,
            electrodes_per_node: 4,
            duration_s: 0.8,
            seizures: vec![SeizureEvent::uniform(0.3, 0.4, 0, 2, 0.05)],
            ..Default::default()
        }
    }

    #[test]
    fn shapes_match_config() {
        let rec = generate(&small_config());
        assert_eq!(rec.nodes.len(), 2);
        assert_eq!(rec.nodes[0].num_channels(), 4);
        assert_eq!(rec.nodes[0].num_samples(), 24_000);
    }

    /// The generated samples, bit for bit, at a shape with a long
    /// seizure ramp: pins the ramp bookkeeping to the recordings every
    /// recorded decision digest was computed from.
    #[test]
    fn recording_bits_are_pinned() {
        let rec = generate(&small_config());
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for node in &rec.nodes {
            for ch in &node.channels {
                for x in ch {
                    h = (h ^ x.to_bits()).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(h, 0x4030_c270_3c46_a162, "{h:#018x}");
    }

    #[test]
    fn seizure_raises_amplitude() {
        let rec = generate(&small_config());
        let ch = &rec.nodes[0].channels[0];
        let quiet = rms(&ch[0..6_000]); // first 200 ms: no seizure
        let ictal = rms(&ch[12_000..18_000]); // 400–600 ms: seizing
        assert!(ictal > 2.0 * quiet, "ictal {ictal} vs quiet {quiet}");
    }

    #[test]
    fn propagation_lag_delays_onset() {
        let rec = generate(&small_config());
        let onset0 = rec.nodes[0].seizure.iter().position(|&s| s).unwrap();
        let onset1 = rec.nodes[1].seizure.iter().position(|&s| s).unwrap();
        let lag_samples = (0.05 * SAMPLE_RATE_HZ) as usize;
        assert_eq!(onset1 - onset0, lag_samples);
    }

    #[test]
    fn ictal_signals_correlate_across_nodes() {
        let mut cfg = small_config();
        cfg.seizures = vec![SeizureEvent::uniform(0.2, 0.5, 0, 2, 0.0)];
        let rec = generate(&cfg);
        // Same-time ictal windows at the two sites share the 3 Hz
        // discharge; background windows do not correlate.
        let a = &rec.nodes[0].channels[0][9_000..18_000];
        let b = &rec.nodes[1].channels[0][9_000..18_000];
        let ictal_corr = pearson(a, b).abs();
        let qa = &rec.nodes[0].channels[0][0..5_000];
        let qb = &rec.nodes[1].channels[0][0..5_000];
        let quiet_corr = pearson(qa, qb).abs();
        assert!(
            ictal_corr > quiet_corr + 0.2,
            "ictal {ictal_corr:.2} quiet {quiet_corr:.2}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate(&small_config());
        let b = generate(&small_config());
        assert_eq!(a.nodes[0].channels[0], b.nodes[0].channels[0]);
    }

    #[test]
    fn unreachable_node_never_seizes() {
        let mut ev = SeizureEvent::uniform(0.1, 0.2, 0, 2, 0.01);
        ev.lags_s[1] = f64::INFINITY;
        let cfg = IeegConfig {
            seizures: vec![ev],
            ..small_config()
        };
        let rec = generate(&cfg);
        assert!(rec.nodes[0].seizure.iter().any(|&s| s));
        assert!(!rec.nodes[1].seizure.iter().any(|&s| s));
    }
}
