//! Butterworth band-pass filtering (the BBF PE).
//!
//! Seizure detection in SCALO extracts features with Butterworth band-pass
//! filters (Figure 5). We implement the classical design: an order-`2n`
//! band-pass realised as a cascade of `n` high-pass and `n` low-pass
//! second-order sections whose Q values come from the Butterworth pole
//! positions, discretised with the bilinear transform (RBJ cookbook form).

/// One second-order IIR section in direct form II transposed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Biquad {
    b0: f64,
    b1: f64,
    b2: f64,
    a1: f64,
    a2: f64,
    z1: f64,
    z2: f64,
}

impl Biquad {
    /// Creates a section from normalised coefficients (`a0` already divided
    /// out).
    pub fn from_coefficients(b0: f64, b1: f64, b2: f64, a1: f64, a2: f64) -> Self {
        Self {
            b0,
            b1,
            b2,
            a1,
            a2,
            z1: 0.0,
            z2: 0.0,
        }
    }

    /// RBJ-cookbook low-pass section at cutoff `fc` (Hz), quality `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs / 2`.
    pub fn lowpass(fc: f64, q: f64, fs: f64) -> Self {
        assert!(
            fc > 0.0 && fc < fs / 2.0,
            "cutoff {fc} out of (0, {})",
            fs / 2.0
        );
        let w0 = 2.0 * std::f64::consts::PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            (1.0 - cosw) / 2.0 / a0,
            (1.0 - cosw) / a0,
            (1.0 - cosw) / 2.0 / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// RBJ-cookbook high-pass section at cutoff `fc` (Hz), quality `q`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < fc < fs / 2`.
    pub fn highpass(fc: f64, q: f64, fs: f64) -> Self {
        assert!(
            fc > 0.0 && fc < fs / 2.0,
            "cutoff {fc} out of (0, {})",
            fs / 2.0
        );
        let w0 = 2.0 * std::f64::consts::PI * fc / fs;
        let alpha = w0.sin() / (2.0 * q);
        let cosw = w0.cos();
        let a0 = 1.0 + alpha;
        Self::from_coefficients(
            (1.0 + cosw) / 2.0 / a0,
            -(1.0 + cosw) / a0,
            (1.0 + cosw) / 2.0 / a0,
            -2.0 * cosw / a0,
            (1.0 - alpha) / a0,
        )
    }

    /// Processes one sample.
    pub fn process(&mut self, x: f64) -> f64 {
        let y = self.b0 * x + self.z1;
        self.z1 = self.b1 * x - self.a1 * y + self.z2;
        self.z2 = self.b2 * x - self.a2 * y;
        y
    }

    /// Clears the filter state.
    pub fn reset(&mut self) {
        self.z1 = 0.0;
        self.z2 = 0.0;
    }

    /// The normalised coefficients `(b0, b1, b2, a1, a2)` of this section.
    pub fn coefficients(&self) -> (f64, f64, f64, f64, f64) {
        (self.b0, self.b1, self.b2, self.a1, self.a2)
    }
}

/// The Q of Butterworth section `section` (0-based) in an order-`2 *
/// n_sections` cascade — the scalar form of the old per-call `Vec`
/// builder, so cascade construction never allocates a Q table.
///
/// # Panics
///
/// Panics if `n_sections` is zero or `section` is out of range.
pub fn butterworth_q(section: usize, n_sections: usize) -> f64 {
    assert!(n_sections > 0, "need at least one section");
    assert!(section < n_sections, "section {section} of {n_sections}");
    let order = 2 * n_sections;
    let theta = std::f64::consts::PI * (2.0 * section as f64 + 1.0) / (2.0 * order as f64);
    1.0 / (2.0 * theta.sin())
}

/// A Butterworth band-pass filter: cascade of high-pass then low-pass
/// Butterworth sections.
///
/// # Example
///
/// ```
/// use scalo_signal::filter::ButterworthBandpass;
///
/// let mut f = ButterworthBandpass::new(2, 2.0, 5.0, 30_000.0);
/// let y = f.process(1.0);
/// assert!(y.is_finite());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ButterworthBandpass {
    sections: Vec<Biquad>,
    lo_hz: f64,
    hi_hz: f64,
}

impl ButterworthBandpass {
    /// Creates an order-`2 * sections_per_side` band-pass for
    /// `[lo_hz, hi_hz]` at sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Panics if the band is empty, if `sections_per_side` is zero, or if
    /// either edge is outside `(0, fs / 2)`.
    pub fn new(sections_per_side: usize, lo_hz: f64, hi_hz: f64, fs: f64) -> Self {
        assert!(sections_per_side > 0, "need at least one section per side");
        assert!(lo_hz < hi_hz, "band [{lo_hz}, {hi_hz}] is empty");
        let mut sections = Vec::with_capacity(2 * sections_per_side);
        for k in 0..sections_per_side {
            sections.push(Biquad::highpass(
                lo_hz,
                butterworth_q(k, sections_per_side),
                fs,
            ));
        }
        for k in 0..sections_per_side {
            sections.push(Biquad::lowpass(
                hi_hz,
                butterworth_q(k, sections_per_side),
                fs,
            ));
        }
        Self {
            sections,
            lo_hz,
            hi_hz,
        }
    }

    /// Stamps a filter out of a precomputed [`BandpassDesign`] — one
    /// allocation for the section vector, no coefficient re-derivation.
    pub fn from_design(design: &BandpassDesign) -> Self {
        Self {
            sections: design.sections.clone(),
            lo_hz: design.lo_hz,
            hi_hz: design.hi_hz,
        }
    }

    /// Re-points an existing filter at `design`, reusing the section
    /// vector's allocation and clearing state. Allocation-free once the
    /// vector has capacity for the design's section count, so admission
    /// pools can recycle filters without churning small `Vec`s.
    pub fn reconfigure(&mut self, design: &BandpassDesign) {
        self.sections.clear();
        self.sections.extend_from_slice(&design.sections);
        self.lo_hz = design.lo_hz;
        self.hi_hz = design.hi_hz;
    }

    /// Lower band edge in Hz.
    pub fn lo_hz(&self) -> f64 {
        self.lo_hz
    }

    /// Upper band edge in Hz.
    pub fn hi_hz(&self) -> f64 {
        self.hi_hz
    }

    /// Filters one sample.
    pub fn process(&mut self, x: f64) -> f64 {
        self.sections.iter_mut().fold(x, |acc, s| s.process(acc))
    }

    /// Filters a whole buffer, returning the output.
    pub fn filter(&mut self, xs: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(xs.len());
        self.filter_into(xs, &mut out);
        out
    }

    /// [`ButterworthBandpass::filter`] written into a caller-provided vector
    /// (cleared first). Bit-identical to the allocating form; allocation-free
    /// once `out` has capacity for `xs.len()` samples.
    pub fn filter_into(&mut self, xs: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(xs.iter().map(|&x| self.process(x)));
    }

    /// Clears the filter state (e.g. between electrodes).
    pub fn reset(&mut self) {
        for s in &mut self.sections {
            s.reset();
        }
    }
}

/// Convenience: band-pass a buffer with a fresh order-4 filter.
pub fn bandpass(xs: &[f64], lo_hz: f64, hi_hz: f64, fs: f64) -> Vec<f64> {
    ButterworthBandpass::new(2, lo_hz, hi_hz, fs).filter(xs)
}

/// Precomputed coefficients of a Butterworth band-pass cascade.
///
/// Filter design (per-section trig and divisions) is admission-time work:
/// compute a design once per band and stamp out [`ButterworthBandpass`]
/// instances ([`ButterworthBandpass::from_design`] /
/// [`ButterworthBandpass::reconfigure`]) and [`BandpassBank`]s
/// ([`BandpassBank::reconfigure`]) without re-deriving coefficients or
/// allocating per call.
#[derive(Debug, Clone, PartialEq)]
pub struct BandpassDesign {
    /// Designed sections with zeroed state: high-pass first, then
    /// low-pass, exactly the [`ButterworthBandpass::new`] order.
    sections: Vec<Biquad>,
    lo_hz: f64,
    hi_hz: f64,
    fs: f64,
}

impl BandpassDesign {
    /// Designs an order-`2 * sections_per_side` band-pass for
    /// `[lo_hz, hi_hz]` at sample rate `fs`.
    ///
    /// # Panics
    ///
    /// Same conditions as [`ButterworthBandpass::new`].
    pub fn new(sections_per_side: usize, lo_hz: f64, hi_hz: f64, fs: f64) -> Self {
        let filter = ButterworthBandpass::new(sections_per_side, lo_hz, hi_hz, fs);
        Self {
            sections: filter.sections,
            lo_hz,
            hi_hz,
            fs,
        }
    }

    /// Number of second-order sections in the cascade.
    pub fn section_count(&self) -> usize {
        self.sections.len()
    }

    /// Lower band edge in Hz.
    pub fn lo_hz(&self) -> f64 {
        self.lo_hz
    }

    /// Upper band edge in Hz.
    pub fn hi_hz(&self) -> f64 {
        self.hi_hz
    }

    /// Sample rate the design targets, in Hz.
    pub fn sample_rate_hz(&self) -> f64 {
        self.fs
    }
}

/// A fused multi-channel Butterworth cascade: one coefficient set shared
/// by every channel, with flat `f64` state slabs laid out channel-fastest
/// so the per-sample section update runs channels as SIMD lanes (see
/// [`crate::simd`]; the dispatch level is captured at construction). Per
/// channel, the output is **bitwise identical** to running one
/// [`ButterworthBandpass`] per channel — the bank only changes the
/// iteration order *across* channels and sections, never the operation
/// order within one channel's section stream.
///
/// # Example
///
/// ```
/// use scalo_signal::filter::{BandpassBank, BandpassDesign};
///
/// let design = BandpassDesign::new(2, 10.0, 200.0, 1_000.0);
/// let mut bank = BandpassBank::new(&design, 3);
/// let mut frame = [0.5, -0.25, 1.0]; // one sample per channel
/// bank.process_frame(&mut frame);
/// assert!(frame.iter().all(|y| y.is_finite()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BandpassBank {
    /// `(b0, b1, b2, a1, a2)` per section, shared by all channels.
    coeffs: Vec<[f64; 5]>,
    /// Per-section `z1`/`z2` slabs: section `s` owns
    /// `state[2 s c .. (2 s + 1) c]` (`z1`) and the next `c` floats
    /// (`z2`), where `c` is the channel count.
    state: Vec<f64>,
    channels: usize,
    level: crate::simd::SimdLevel,
}

impl BandpassBank {
    /// A bank filtering `channels` parallel streams through `design`,
    /// dispatching at the process-wide [`crate::simd::SimdLevel::active`]
    /// level.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn new(design: &BandpassDesign, channels: usize) -> Self {
        Self::with_level(design, channels, crate::simd::SimdLevel::active())
    }

    /// [`BandpassBank::new`] pinned to an explicit dispatch level — for
    /// the ISA-sweep equivalence tests and A/B benchmarking.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn with_level(
        design: &BandpassDesign,
        channels: usize,
        level: crate::simd::SimdLevel,
    ) -> Self {
        let mut bank = Self {
            coeffs: Vec::new(),
            state: Vec::new(),
            channels: 0,
            level,
        };
        bank.reconfigure(design, channels);
        bank
    }

    /// The dispatch level this bank was constructed with.
    pub fn simd_level(&self) -> crate::simd::SimdLevel {
        self.level
    }

    /// Re-points the bank at `design` with `channels` streams, reusing the
    /// coefficient and state allocations and clearing state. Allocation
    /// free once the buffers have capacity for the new shape, so pooled
    /// banks survive re-admission without heap churn.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero.
    pub fn reconfigure(&mut self, design: &BandpassDesign, channels: usize) {
        assert!(channels > 0, "bank needs at least one channel");
        self.coeffs.clear();
        self.coeffs.extend(design.sections.iter().map(|s| {
            let (b0, b1, b2, a1, a2) = s.coefficients();
            [b0, b1, b2, a1, a2]
        }));
        self.channels = channels;
        self.state.clear();
        self.state.resize(2 * self.coeffs.len() * channels, 0.0);
    }

    /// Number of parallel channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Clears all channel state.
    pub fn reset(&mut self) {
        self.state.fill(0.0);
    }

    /// Filters one time step: `frame[c]` is channel `c`'s input sample and
    /// is replaced by its output sample.
    ///
    /// # Panics
    ///
    /// Panics if `frame.len()` differs from the channel count.
    pub fn process_frame(&mut self, frame: &mut [f64]) {
        let c = self.channels;
        assert_eq!(frame.len(), c, "frame width vs {c} channels");
        for (s, slab) in self.state.chunks_exact_mut(2 * c).enumerate() {
            let [b0, b1, b2, a1, a2] = self.coeffs[s];
            let (z1, z2) = slab.split_at_mut(c);
            for ((x, z1), z2) in frame.iter_mut().zip(z1).zip(z2) {
                let y = b0 * *x + *z1;
                *z1 = b1 * *x - a1 * y + *z2;
                *z2 = b2 * *x - a2 * y;
                *x = y;
            }
        }
    }

    /// Filters an interleaved block in place: `data[t * channels + c]` is
    /// channel `c` at time `t` (the [`crate::block::ChannelBlock`]
    /// layout).
    ///
    /// Runs section-outer (each section streams the whole block before
    /// the next starts) so one section's biquad state stays in registers
    /// across the block — bitwise identical to the frame-outer order
    /// because each channel's per-section sample stream is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of the channel count.
    pub fn process_interleaved(&mut self, data: &mut [f64]) {
        let c = self.channels;
        assert_eq!(data.len() % c, 0, "interleaved length vs {c} channels");
        for (s, slab) in self.state.chunks_exact_mut(2 * c).enumerate() {
            let (z1, z2) = slab.split_at_mut(c);
            crate::simd::biquad_block(self.level, data, c, &self.coeffs[s], z1, z2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tone(f: f64, fs: f64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (2.0 * std::f64::consts::PI * f * i as f64 / fs).sin())
            .collect()
    }

    fn steady_state_rms(y: &[f64]) -> f64 {
        let tail = &y[y.len() / 2..];
        (tail.iter().map(|x| x * x).sum::<f64>() / tail.len() as f64).sqrt()
    }

    #[test]
    fn passband_tone_passes_stopband_tone_attenuates() {
        let fs = 1000.0;
        let mut f = ButterworthBandpass::new(2, 20.0, 60.0, fs);
        let pass = steady_state_rms(&f.filter(&tone(40.0, fs, 4000)));
        f.reset();
        let stop = steady_state_rms(&f.filter(&tone(200.0, fs, 4000)));
        assert!(pass > 0.5, "passband rms {pass}");
        assert!(stop < 0.05 * pass, "stopband rms {stop} vs pass {pass}");
    }

    #[test]
    fn dc_is_rejected() {
        let fs = 1000.0;
        let mut f = ButterworthBandpass::new(2, 20.0, 60.0, fs);
        let y = f.filter(&vec![1.0; 4000]);
        assert!(steady_state_rms(&y) < 1e-3);
    }

    #[test]
    fn reset_restores_determinism() {
        let fs = 1000.0;
        let mut f = ButterworthBandpass::new(1, 5.0, 50.0, fs);
        let x = tone(25.0, fs, 256);
        let y1 = f.filter(&x);
        f.reset();
        let y2 = f.filter(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn butterworth_qs_match_known_order4() {
        // Order-4 Butterworth: Q = {0.5412, 1.3066} (in some order).
        let mut qs = [butterworth_q(0, 2), butterworth_q(1, 2)];
        qs.sort_by(f64::total_cmp);
        assert!((qs[0] - 0.5412).abs() < 1e-3, "{qs:?}");
        assert!((qs[1] - 1.3066).abs() < 1e-3, "{qs:?}");
    }

    #[test]
    fn design_stamped_filter_equals_direct_construction() {
        let design = BandpassDesign::new(2, 20.0, 60.0, 1000.0);
        assert_eq!(design.section_count(), 4);
        assert_eq!(design.sample_rate_hz(), 1000.0);
        let direct = ButterworthBandpass::new(2, 20.0, 60.0, 1000.0);
        let stamped = ButterworthBandpass::from_design(&design);
        assert_eq!(direct, stamped);
        // Reconfigure recycles an existing filter to the same state.
        let mut pooled = ButterworthBandpass::new(1, 5.0, 10.0, 1000.0);
        let x = tone(40.0, 1000.0, 64);
        let mut sink = Vec::new();
        pooled.filter_into(&x, &mut sink); // dirty the state
        pooled.reconfigure(&design);
        assert_eq!(direct, pooled);
        assert_eq!(pooled.lo_hz(), design.lo_hz());
        assert_eq!(pooled.hi_hz(), design.hi_hz());
    }

    #[test]
    fn bank_is_bitwise_identical_to_per_channel_filters() {
        let fs = 1000.0;
        let channels = 5;
        let samples = 256;
        let design = BandpassDesign::new(2, 20.0, 60.0, fs);
        // Per-channel reference filters.
        let mut reference: Vec<ButterworthBandpass> = (0..channels)
            .map(|_| ButterworthBandpass::from_design(&design))
            .collect();
        // Interleaved block: channel c at time t is data[t * channels + c].
        let mut data: Vec<f64> = (0..samples * channels)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) * 0.11)
            .collect();
        let expected: Vec<Vec<f64>> = (0..channels)
            .map(|c| {
                let xs: Vec<f64> = (0..samples).map(|t| data[t * channels + c]).collect();
                reference[c].filter(&xs)
            })
            .collect();
        let mut bank = BandpassBank::new(&design, channels);
        bank.process_interleaved(&mut data);
        for c in 0..channels {
            for t in 0..samples {
                assert_eq!(
                    data[t * channels + c].to_bits(),
                    expected[c][t].to_bits(),
                    "channel {c} sample {t}"
                );
            }
        }
    }

    #[test]
    fn bank_reset_and_reconfigure_restore_determinism() {
        let design = BandpassDesign::new(1, 5.0, 50.0, 1000.0);
        let mut bank = BandpassBank::new(&design, 2);
        let run = |bank: &mut BandpassBank| {
            let mut data: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
            bank.process_interleaved(&mut data);
            data
        };
        let first = run(&mut bank);
        bank.reset();
        assert_eq!(first, run(&mut bank));
        bank.reconfigure(&design, 2);
        assert_eq!(first, run(&mut bank));
        // Reshaping to a different channel count still works.
        bank.reconfigure(&design, 7);
        assert_eq!(bank.channels(), 7);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn inverted_band_panics() {
        let _ = ButterworthBandpass::new(1, 60.0, 20.0, 1000.0);
    }
}
