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
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;

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

/// `f64` draws each electrode makes before its first sample: 7
/// oscillator phases, the seizure phase jitter and the electrode
/// amplitude.
const PREAMBLE_DRAWS: usize = 9;

/// ChaCha words per `f64` draw.
const WORDS_PER_DRAW: u128 = 2;

/// Oscillators in each electrode's background bank.
const OSCILLATORS: usize = 7;

/// The background bank's octaves: oscillator `k` runs at 2^`(3 + k)` Hz
/// (8–512 Hz).
const FIRST_OCTAVE: i32 = 3;

/// Samples per chunk of the synthesis loop: the span whose sample times
/// and oscillator arguments are computed once and shared by the
/// electrodes of a node.
const CHUNK: usize = 240;

/// Samples over which a seizure's amplitude ramps up (100 ms).
const RAMP_SAMPLES: usize = (0.1 * SAMPLE_RATE_HZ) as usize;

/// Samples per channel in the full recording `config` describes.
pub fn num_samples(config: &IeegConfig) -> usize {
    (config.duration_s * SAMPLE_RATE_HZ) as usize
}

/// Generates a multi-site recording: [`generate_range`] over every
/// sample.
///
/// # Panics
///
/// Panics on degenerate configs (no nodes/electrodes, non-positive
/// duration, too many nodes for a seizure lag table).
pub fn generate(config: &IeegConfig) -> MultiSiteRecording {
    generate_range(config, 0, num_samples(config))
}

/// One electrode's draws and its place in the shared ChaCha8 stream.
struct Electrode {
    /// Positioned at the electrode's next sample draw.
    rng: ChaCha8Rng,
    phases: [f64; OSCILLATORS],
    /// Seizure phase jitter: electrodes at one site see the discharge
    /// nearly in phase.
    jitter: f64,
    amp: f64,
}

/// Electrode-samples a synthesis thread is given at least: one pool
/// quantum of a 2×4 session (8 electrodes × 8 windows × 120 samples),
/// ~0.65 ms of synthesis at ~85 ns an electrode sample. A scoped spawn
/// and join of one thread costs 15 µs at best and 33–39 µs at the median
/// (2,000 trials; 2-vCPU avx2 KVM guest, Intel Xeon), ~5% of such a
/// group, so a range is split only into groups at least this large.
const MIN_GROUP: usize = 7_680;

/// The cores this process may run on, read once (the lookup reads
/// cgroup files on Linux).
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Generates samples `from..to` of the recording `config` describes,
/// bit-identical to that slice of [`generate`]: every channel and
/// seizure mask holds `to - from` samples, the first being sample
/// `from`.
///
/// The cost is that of the samples asked for. All draws come from one
/// ChaCha8 stream in a fixed layout (per node, per electrode: the
/// preamble draws, then one draw per sample of the full recording, two
/// words each), so each electrode seeks to its preamble and then to
/// sample `from`, and keeps its own generator positioned there. The
/// seizure ramp at `from` is the distance back to the start of the mask
/// run `from` is in.
///
/// A sample is `Σ_k amp_k·sin((2π·f_k)·t + phase_k)` over the octave
/// bank (k = 3..9 in that order, summed from 0.0), scaled by half the
/// background amplitude, plus white noise and, while seizing, the ramped
/// spike-and-wave discharge. Each node's electrodes walk the range in
/// chunks of 240 samples. Each chunk's sample times and the seven
/// arguments `(2π·f_k)·t` are computed once and shared by the node's
/// electrodes. Each electrode then sums its bank oscillator by
/// oscillator over the chunk, so consecutive `sin` calls feed different
/// sums and overlap, where a per-sample loop adds each call into one
/// running sum before the next. The result is bit-identical to that
/// per-sample loop, because every sample still sees the same operations
/// on the same operands in the same order:
/// - the oscillators are added in the same k order, onto 0.0;
/// - Rust never contracts `a * b + c` into a fused multiply-add;
/// - each electrode keeps its own generator, seeked to its own draws,
///   so the chunk edges do not move a draw;
/// - the ramp counts carry across chunks per node.
///
/// A large range is synthesized on several threads. The electrodes
/// (numbered node-major) are cut into contiguous groups of about equal
/// size, one per thread: as many as the process has cores, at most one
/// per electrode, and no more than leave each group 7,680
/// electrode-samples (one 2×4 pool quantum). The caller's thread
/// synthesizes one group and waits for the others. Each group runs the
/// same chunk loop over its own electrodes and recomputes the ramp of
/// every node it touches from that node's count at `from`, so the split
/// moves no bit. A range of less than two quanta (a swap fleet's burst,
/// a training window) stays on the caller's thread.
///
/// Every output vector is allocated on the caller's thread before any
/// group runs, at its final size; the scratch is a few stack arrays of
/// one chunk (~20 KB) per group, so nothing but the output grows with
/// the range.
///
/// # Panics
///
/// Panics on degenerate configs (as [`generate`]) or a range that is
/// reversed or runs past the recording.
pub fn generate_range(config: &IeegConfig, from: usize, to: usize) -> MultiSiteRecording {
    let electrodes = config.nodes * config.electrodes_per_node;
    let groups = match to.saturating_sub(from) * electrodes / MIN_GROUP {
        0 | 1 => 1,
        quanta => quanta.min(electrodes).min(cores()),
    };
    generate_in_groups(config, from, to, groups)
}

/// [`generate_range`] split into `groups` contiguous electrode groups
/// (clamped to `1..=electrodes`), each but the last on a scoped thread
/// of its own.
fn generate_in_groups(
    config: &IeegConfig,
    from: usize,
    to: usize,
    groups: usize,
) -> MultiSiteRecording {
    assert!(config.nodes >= 1, "need at least one node");
    assert!(config.electrodes_per_node >= 1, "need electrodes");
    assert!(config.duration_s > 0.0, "duration must be positive");
    let samples = num_samples(config);
    assert!(
        from <= to && to <= samples,
        "range {from}..{to} outside 0..{samples}"
    );
    for ev in &config.seizures {
        assert!(ev.nodes <= config.nodes, "seizure lag table too small");
    }
    let seeded = ChaCha8Rng::seed_from_u64(config.seed);
    let electrode_words = (PREAMBLE_DRAWS + samples) as u128 * WORDS_PER_DRAW;

    let mut masks = Vec::with_capacity(config.nodes);
    // Per node: consecutive seizure samples just before `from`, i.e. how
    // far into the current event the ramp is.
    let mut into_event = Vec::with_capacity(config.nodes);
    for node in 0..config.nodes {
        // Seizure intervals `[lo, hi)` at this node.
        let mut runs = Vec::with_capacity(config.seizures.len());
        for ev in &config.seizures {
            if let Some(onset) = ev.onset_at(node) {
                let lo = (onset * SAMPLE_RATE_HZ) as usize;
                let hi = (((onset + ev.duration_s) * SAMPLE_RATE_HZ) as usize).min(samples);
                runs.push((lo, hi));
            }
        }
        masks.push(
            (from..to)
                .map(|t| runs.iter().any(|&(lo, hi)| lo <= t && t < hi))
                .collect::<Vec<bool>>(),
        );
        // Start of the mask run that sample `from - 1` is in (`from`
        // itself when that sample is not seizing).
        let mut run_start = from;
        while let Some(&(lo, _)) = runs
            .iter()
            .find(|&&(lo, hi)| lo < run_start && run_start <= hi)
        {
            run_start = lo;
        }
        into_event.push(from - run_start);
    }

    let total = config.nodes * config.electrodes_per_node;
    let mut electrodes: Vec<Electrode> = (0..total)
        .map(|index| {
            let preamble = index as u128 * electrode_words;
            let mut rng = seeded.clone();
            rng.set_word_pos(preamble);
            let phases = std::array::from_fn(|_| rng.gen::<f64>() * std::f64::consts::TAU);
            let jitter = rng.gen::<f64>() * 0.002;
            let amp = 0.8 + 0.4 * rng.gen::<f64>();
            rng.set_word_pos(preamble + (PREAMBLE_DRAWS + from) as u128 * WORDS_PER_DRAW);
            Electrode {
                rng,
                phases,
                jitter,
                amp,
            }
        })
        .collect();
    let mut channels: Vec<Vec<f64>> = (0..total).map(|_| Vec::with_capacity(to - from)).collect();
    let range = Shared {
        config,
        from,
        to,
        masks: &masks,
        into_event: &into_event,
    };
    let groups = groups.clamp(1, total);
    if groups == 1 {
        range.fill(0, &mut electrodes, &mut channels);
    } else {
        thread::scope(|scope| {
            let (mut electrodes, mut channels) = (&mut electrodes[..], &mut channels[..]);
            let mut first = 0;
            for g in 1..groups {
                let len = g * total / groups - first;
                let (el, rest_el) = electrodes.split_at_mut(len);
                let (out, rest_out) = channels.split_at_mut(len);
                scope.spawn(move || range.fill(first, el, out));
                (electrodes, channels, first) = (rest_el, rest_out, first + len);
            }
            range.fill(first, electrodes, channels);
        });
    }

    let mut channels = channels.into_iter();
    let nodes = masks
        .into_iter()
        .map(|seizure| NodeRecording {
            channels: channels.by_ref().take(config.electrodes_per_node).collect(),
            seizure,
        })
        .collect();
    MultiSiteRecording {
        nodes,
        config: config.clone(),
    }
}

/// What every electrode group of one [`generate_range`] call reads.
#[derive(Clone, Copy)]
struct Shared<'a> {
    config: &'a IeegConfig,
    from: usize,
    to: usize,
    /// Per node, the seizure mask over `from..to`.
    masks: &'a [Vec<bool>],
    /// Per node, the ramp count at `from`.
    into_event: &'a [usize],
}

impl Shared<'_> {
    /// Synthesizes electrodes `first..first + out.len()` (node-major over
    /// the recording) into `out`, whose vectors hold `to - from` samples
    /// of capacity: node by node, the chunk loop over that node's
    /// electrodes in the group.
    fn fill(self, first: usize, electrodes: &mut [Electrode], out: &mut [Vec<f64>]) {
        let per_node = self.config.electrodes_per_node;
        let (mut electrodes, mut out, mut index) = (electrodes, out, first);
        while !out.is_empty() {
            let node = index / per_node;
            let len = ((node + 1) * per_node - index).min(out.len());
            let (el, rest_el) = electrodes.split_at_mut(len);
            let (ch, rest_out) = out.split_at_mut(len);
            self.fill_node(node, el, ch);
            (electrodes, out, index) = (rest_el, rest_out, index + len);
        }
    }

    /// The chunk loop over `electrodes` of `node`.
    fn fill_node(self, node: usize, electrodes: &mut [Electrode], out: &mut [Vec<f64>]) {
        let Self {
            config, from, to, ..
        } = self;
        // Octave oscillator bank for 1/f background: 8–512 Hz. Sub-8 Hz
        // background is deliberately absent so the 3 Hz ictal discharge
        // is spectrally separable (as it is in real iEEG, where
        // delta-band power surges at seizure onset).
        let mut omegas = [0.0; OSCILLATORS];
        let mut amps = [0.0; OSCILLATORS];
        for (k, (omega, amp)) in omegas.iter_mut().zip(&mut amps).enumerate() {
            let oct = FIRST_OCTAVE + k as i32;
            *omega = std::f64::consts::TAU * 2f64.powi(oct);
            *amp = 1.0 / (oct as f64).max(1.0);
        }
        let mut into_event = self.into_event[node];
        let mut times = [0.0; CHUNK];
        let mut args = [[0.0; CHUNK]; OSCILLATORS];
        let mut ramps = [0.0; CHUNK];
        let mut sums = [0.0; CHUNK];
        for t0 in (from..to).step_by(CHUNK) {
            let n = CHUNK.min(to - t0);
            let times = &mut times[..n];
            for (i, time_s) in times.iter_mut().enumerate() {
                *time_s = (t0 + i) as f64 / SAMPLE_RATE_HZ;
            }
            for (args, &omega) in args.iter_mut().zip(&omegas) {
                for (arg, &time_s) in args[..n].iter_mut().zip(&*times) {
                    *arg = omega * time_s;
                }
            }
            let mask = &self.masks[node][t0 - from..t0 - from + n];
            for (ramp, &seizing) in ramps[..n].iter_mut().zip(mask) {
                if seizing {
                    *ramp = (into_event as f64 / RAMP_SAMPLES as f64).min(1.0);
                    into_event += 1;
                } else {
                    into_event = 0;
                }
            }
            for (ch, el) in out.iter_mut().zip(electrodes.iter_mut()) {
                let sums = &mut sums[..n];
                sums.fill(0.0);
                for ((args, &amp), &phase) in args.iter().zip(&amps).zip(&el.phases) {
                    for (v, &arg) in sums.iter_mut().zip(&args[..n]) {
                        *v += amp * (arg + phase).sin();
                    }
                }
                for (i, v) in sums.iter_mut().enumerate() {
                    *v *= config.background_amp / 2.0;
                    *v += config.background_amp * 0.2 * (el.rng.gen::<f64>() - 0.5);
                    if mask[i] {
                        let phase = ((times[i] + el.jitter) * config.seizure_hz).fract();
                        *v += config.seizure_amp * el.amp * ramps[i] * spike_wave(phase);
                    }
                }
                ch.extend_from_slice(sums);
            }
        }
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

    /// `generate_range` against the matching slice of `generate`, bit
    /// for bit, samples and seizure mask.
    fn assert_range_is_slice(cfg: &IeegConfig, full: &MultiSiteRecording, from: usize, to: usize) {
        let part = generate_range(cfg, from, to);
        for (n, (p, f)) in part.nodes.iter().zip(&full.nodes).enumerate() {
            assert_eq!(p.seizure, f.seizure[from..to], "node {n} mask {from}..{to}");
            for (e, (pc, fc)) in p.channels.iter().zip(&f.channels).enumerate() {
                let same = pc.len() == to - from
                    && pc
                        .iter()
                        .zip(&fc[from..to])
                        .all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "node {n} electrode {e} samples {from}..{to}");
            }
        }
    }

    #[test]
    fn ranges_are_slices_of_the_full_recording() {
        // Serving shapes: 1x1 swap-experiment sessions, 2x4 benchmark
        // (0.3 s) and catalog (0.9 s) sessions, the 2x8 default, and an
        // odd one; ranges whole, window-aligned, ragged, empty and at
        // the end.
        for (nodes, electrodes, duration_s) in [
            (1, 1, 0.2),
            (2, 4, 0.3),
            (2, 4, 0.9),
            (2, 8, 1.0),
            (3, 5, 0.3),
        ] {
            let cfg = IeegConfig {
                nodes,
                electrodes_per_node: electrodes,
                duration_s,
                seizures: vec![SeizureEvent::uniform(0.25, 0.6, 0, nodes, 0.0)],
                seed: 0x5eed + nodes as u64,
                ..Default::default()
            };
            let full = generate(&cfg);
            let n = num_samples(&cfg);
            for (from, to) in [(0, n), (480, 600), (1_234, 5_679), (77, 77), (n - 13, n)] {
                assert_range_is_slice(&cfg, &full, from, to);
            }
        }
    }

    #[test]
    fn a_range_starting_mid_ramp_continues_the_ramp() {
        // Two overlapping events and a lagged node: the run at node 0
        // starts at 0.3 s, so 0.31 s is 300 samples into a 3,000-sample
        // ramp, and node 1's run starts 0.05 s later.
        let mut cfg = small_config();
        cfg.seizures
            .push(SeizureEvent::uniform(0.35, 0.2, 0, 2, 0.05));
        let full = generate(&cfg);
        let mid = (0.31 * SAMPLE_RATE_HZ) as usize;
        assert!(full.nodes[0].seizure[mid - 300] && !full.nodes[0].seizure[mid - 301]);
        for (from, to) in [(mid, mid + 500), (11_000, 17_000), (16_500, 24_000)] {
            assert_range_is_slice(&cfg, &full, from, to);
        }
        // Chained runs: 0.30–0.34 s and 0.33–0.38 s overlap, so at
        // 0.35 s (sample 10,500, past the first event's end) the ramp
        // is 1,500 samples in, counted from the first event's onset.
        cfg.seizures = vec![
            SeizureEvent::uniform(0.30, 0.04, 0, 2, 0.0),
            SeizureEvent::uniform(0.33, 0.05, 0, 2, 0.0),
        ];
        let full = generate(&cfg);
        assert!(full.nodes[0].seizure[9_000..11_400].iter().all(|&s| s));
        for (from, to) in [(10_500, 12_000), (10_200, 10_300), (11_399, 11_401)] {
            assert_range_is_slice(&cfg, &full, from, to);
        }
    }

    /// Samples `from..to` one at a time, the oscillators summed in order
    /// per sample and the ramp counted from sample 0: the per-sample
    /// generator the chunked kernel replaced.
    fn per_sample(cfg: &IeegConfig, from: usize, to: usize) -> MultiSiteRecording {
        let samples = num_samples(cfg);
        let electrode_words = (9 + samples) as u128 * 2;
        let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let nodes = (0..cfg.nodes)
            .map(|node| {
                let seizing = |t: usize| {
                    cfg.seizures.iter().any(|ev| {
                        ev.onset_at(node).is_some_and(|onset| {
                            let hi = ((onset + ev.duration_s) * SAMPLE_RATE_HZ) as usize;
                            (onset * SAMPLE_RATE_HZ) as usize <= t && t < hi.min(samples)
                        })
                    })
                };
                let mut run = 0;
                let mut ramps = Vec::new();
                for t in 0..to {
                    if t >= from {
                        ramps.push(seizing(t).then(|| (run as f64 / 3_000.0).min(1.0)));
                    }
                    run = if seizing(t) { run + 1 } else { 0 };
                }
                let channels = (0..cfg.electrodes_per_node)
                    .map(|e| {
                        let preamble =
                            (node * cfg.electrodes_per_node + e) as u128 * electrode_words;
                        rng.set_word_pos(preamble);
                        let phases: Vec<f64> = (0..7)
                            .map(|_| rng.gen::<f64>() * std::f64::consts::TAU)
                            .collect();
                        let jitter = rng.gen::<f64>() * 0.002;
                        let amp = 0.8 + 0.4 * rng.gen::<f64>();
                        rng.set_word_pos(preamble + (9 + from) as u128 * 2);
                        (from..to)
                            .zip(&ramps)
                            .map(|(t, ramp)| {
                                let time_s = t as f64 / SAMPLE_RATE_HZ;
                                let mut v = 0.0;
                                for (k, phase) in phases.iter().enumerate() {
                                    let oct = 3 + k as i32;
                                    let omega = std::f64::consts::TAU * 2f64.powi(oct);
                                    v += (1.0 / oct as f64) * (omega * time_s + phase).sin();
                                }
                                v *= cfg.background_amp / 2.0;
                                v += cfg.background_amp * 0.2 * (rng.gen::<f64>() - 0.5);
                                if let Some(ramp) = ramp {
                                    let phase = ((time_s + jitter) * cfg.seizure_hz).fract();
                                    v += cfg.seizure_amp * amp * ramp * spike_wave(phase);
                                }
                                v
                            })
                            .collect()
                    })
                    .collect();
                NodeRecording {
                    channels,
                    seizure: ramps.iter().map(Option::is_some).collect(),
                }
            })
            .collect();
        MultiSiteRecording {
            nodes,
            config: cfg.clone(),
        }
    }

    /// Every sample bit and mask bit of `got` equals `want`'s.
    fn assert_same_bits(got: &MultiSiteRecording, want: &MultiSiteRecording, what: &str) {
        assert_eq!(got.nodes.len(), want.nodes.len(), "{what}");
        for (n, (g, w)) in got.nodes.iter().zip(&want.nodes).enumerate() {
            assert_eq!(g.seizure, w.seizure, "{what}: node {n} mask");
            assert_eq!(g.channels.len(), w.channels.len(), "{what}: node {n}");
            for (e, (gc, wc)) in g.channels.iter().zip(&w.channels).enumerate() {
                let same = gc.len() == wc.len()
                    && gc.iter().zip(wc).all(|(a, b)| a.to_bits() == b.to_bits());
                assert!(same, "{what}: node {n} electrode {e}");
            }
        }
    }

    /// The electrode groups a large range is split into, driven directly
    /// at 1, 2, 3 and 7 groups: at 2×4 three groups are uneven (2, 3, 3
    /// electrodes) and one straddles the node boundary, and seven leave
    /// groups of one and two; at 1×96 seven groups are uneven. Over a
    /// range that starts mid-ramp at both nodes, one whose start is
    /// mid-ramp at node 0 and before onset at node 1, and one spanning
    /// the whole seizure, every split equals one group and the
    /// per-sample oracle, bit for bit.
    #[test]
    fn split_groups_match_one_group_and_the_oracle() {
        for (nodes, electrodes) in [(2, 4), (1, 96)] {
            // Onset at sample 3,000 at node 0 and 3,300 at node 1; the
            // event ends 3,000 samples later at each.
            let cfg = IeegConfig {
                nodes,
                electrodes_per_node: electrodes,
                duration_s: 0.3,
                seizures: vec![SeizureEvent::uniform(0.1, 0.1, 0, nodes, 0.01)],
                seed: 0x5eed_0024,
                ..Default::default()
            };
            for (from, to) in [(3_400, 3_900), (3_100, 4_000), (2_500, 7_000)] {
                let oracle = per_sample(&cfg, from, to);
                let one = generate_in_groups(&cfg, from, to, 1);
                assert_same_bits(&one, &oracle, &format!("{nodes}x{electrodes} one group"));
                for groups in [2, 3, 7] {
                    let split = generate_in_groups(&cfg, from, to, groups);
                    let what = format!("{nodes}x{electrodes} {groups} groups {from}..{to}");
                    assert_same_bits(&split, &one, &what);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn a_range_past_the_end_is_refused() {
        let cfg = small_config();
        generate_range(&cfg, 0, num_samples(&cfg) + 1);
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
