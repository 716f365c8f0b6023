//! Spike-domain operators: NEO, THR, and spike extraction.
//!
//! These are the PEs at the front of the spike-sorting pipeline (Figure 7).

/// Non-linear energy operator: `ψ[n] = x[n]² − x[n−1]·x[n+1]`.
///
/// Emphasises transients (spikes) over slow oscillations; the output has
/// the same length as the input, with the two boundary samples set to 0.
///
/// # Example
///
/// ```
/// use scalo_signal::spike::neo;
///
/// let x = [0.0, 0.0, 1.0, 0.0, 0.0];
/// let e = neo(&x);
/// assert!(e[2] > e[1] && e[2] > e[3]);
/// ```
pub fn neo(x: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(x.len());
    neo_into(x, &mut out);
    out
}

/// [`neo`] written into a caller-provided vector (cleared first).
/// Bit-identical to the allocating form; allocation-free once `out` has
/// capacity for `x.len()` samples.
pub fn neo_into(x: &[f64], out: &mut Vec<f64>) {
    let n = x.len();
    out.clear();
    out.resize(n, 0.0);
    for i in 1..n.saturating_sub(1) {
        out[i] = x[i] * x[i] - x[i - 1] * x[i + 1];
    }
}

/// Adaptive threshold used by the THR PE: `k` times the robust noise
/// estimate `median(|x|) / 0.6745` (Quiroga's rule).
pub fn spike_threshold(x: &[f64], k: f64) -> f64 {
    spike_threshold_with(&mut Vec::new(), x, k)
}

/// [`spike_threshold`] using a caller-provided magnitude buffer, so repeated
/// thresholding reuses one sort scratch instead of allocating per call.
pub fn spike_threshold_with(scratch: &mut Vec<f64>, x: &[f64], k: f64) -> f64 {
    if x.is_empty() {
        return 0.0;
    }
    scratch.clear();
    scratch.extend(x.iter().map(|&v| v.abs()));
    scratch.sort_by(f64::total_cmp);
    let median = scratch[scratch.len() / 2];
    k * median / 0.6745
}

/// A spike detected in a channel: the sample index of its (absolute) peak
/// and the extracted waveform around it.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedSpike {
    /// Index of the spike peak in the source buffer.
    pub peak_index: usize,
    /// The waveform snippet (length = `pre + post` passed to the detector).
    pub waveform: Vec<f64>,
}

/// Detects spikes by NEO-energy threshold crossing and extracts aligned
/// waveforms of `pre` samples before and `post` samples after each peak.
///
/// A refractory period of `pre + post` samples suppresses double counting.
/// Spikes too close to the buffer edges for a full snippet are skipped.
///
/// # Panics
///
/// Panics if `pre + post` is zero.
pub fn detect_spikes(x: &[f64], threshold_k: f64, pre: usize, post: usize) -> Vec<DetectedSpike> {
    assert!(pre + post > 0, "snippet length must be positive");
    let energy = neo(x);
    let thr = spike_threshold(&energy, threshold_k);
    if thr <= 0.0 {
        return Vec::new();
    }
    let mut spikes = Vec::new();
    let mut i = pre;
    while i + post < x.len() {
        if energy[i] > thr {
            // Find the local energy peak within the refractory window.
            let end = (i + pre + post).min(x.len() - post);
            let peak = (i..end)
                .max_by(|&a, &b| energy[a].total_cmp(&energy[b]))
                .unwrap_or(i);
            if peak >= pre && peak + post <= x.len() {
                spikes.push(DetectedSpike {
                    peak_index: peak,
                    waveform: x[peak - pre..peak + post].to_vec(),
                });
            }
            i = peak + pre + post; // refractory skip
        } else {
            i += 1;
        }
    }
    spikes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_with_spikes(spike_at: &[usize], n: usize) -> Vec<f64> {
        let mut x = vec![0.0; n];
        // Low-amplitude background.
        for (i, v) in x.iter_mut().enumerate() {
            *v = 0.05 * ((i as f64) * 0.7).sin();
        }
        for &s in spike_at {
            // Biphasic spike shape.
            for (k, amp) in [(0usize, 0.4), (1, 1.0), (2, -0.6), (3, -0.2)] {
                if s + k < n {
                    x[s + k] += amp;
                }
            }
        }
        x
    }

    #[test]
    fn neo_highlights_impulse() {
        let mut x = vec![0.0; 64];
        x[32] = 1.0;
        let e = neo(&x);
        let max_i = (0..64).max_by(|&a, &b| e[a].total_cmp(&e[b])).unwrap();
        assert_eq!(max_i, 32);
    }

    #[test]
    fn neo_preserves_length_and_zeroes_boundaries() {
        let e = neo(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e[0], 0.0);
        assert_eq!(e[3], 0.0);
    }

    #[test]
    fn detect_spikes_finds_planted_events() {
        let x = synth_with_spikes(&[100, 300, 500], 700);
        let spikes = detect_spikes(&x, 6.0, 10, 22);
        assert_eq!(spikes.len(), 3, "{spikes:?}");
        for (spike, &planted) in spikes.iter().zip(&[100usize, 300, 500]) {
            assert!(
                spike.peak_index.abs_diff(planted) <= 3,
                "peak {} vs planted {planted}",
                spike.peak_index
            );
            assert_eq!(spike.waveform.len(), 32);
        }
    }

    #[test]
    fn quiet_signal_has_no_spikes() {
        let x: Vec<f64> = (0..500).map(|i| 0.01 * (i as f64 * 0.3).sin()).collect();
        assert!(detect_spikes(&x, 8.0, 10, 22).is_empty());
    }

    #[test]
    fn refractory_prevents_double_detection() {
        let x = synth_with_spikes(&[200], 400);
        let spikes = detect_spikes(&x, 5.0, 10, 22);
        assert_eq!(spikes.len(), 1);
    }
}
