//! DSP kernels used by the SCALO BCI processing fabric.
//!
//! Every signal-processing PE in the SCALO node (Table 4 of the paper) that
//! transforms samples has a software counterpart here:
//!
//! | PE | module |
//! |---|---|
//! | FFT | [`fft`] |
//! | BBF (Butterworth band-pass) | [`filter`] |
//! | XCOR (Pearson cross-correlation) | [`xcor`] |
//! | DTW (Sakoe–Chiba banded dynamic time warping) | [`dtw`] |
//! | NEO (non-linear energy operator) | [`spike`] |
//! | THR (threshold) | [`spike`] |
//! | DWT (discrete wavelet transform) | [`dwt`] |
//! | (EMD on the microcontroller) | [`emd`] |
//!
//! SBP (spike-band power) has no kernel here: the movement-intent
//! workloads synthesise their spike-band features directly.
//!
//! All kernels operate on [`f64`] sample buffers; the implant ADC path is
//! modelled by [`window::Adc`], which quantises to the 16-bit resolution the
//! hardware uses.
//!
//! The batched hot paths ([`filter::BandpassBank`], [`fft::FftPlan`],
//! [`block`], [`dtw`]) dispatch to runtime-selected SIMD lanes — see
//! [`simd`] and the `PERFORMANCE.md` guide at the repository root.
//!
//! # Example
//!
//! ```
//! use scalo_signal::dtw::{dtw_distance, DtwParams};
//!
//! let a = [0.0, 1.0, 2.0, 1.0, 0.0];
//! let b = [0.0, 0.0, 1.0, 2.0, 1.0];
//! let d = dtw_distance(&a, &b, DtwParams::with_band(2));
//! // DTW absorbs the one-sample shift (Euclidean distance would be 2.0).
//! assert!(d <= 1.0 + 1e-12, "time-warped signals should be close, got {d}");
//! ```

#![deny(unsafe_op_in_unsafe_fn)]

pub mod block;
pub mod dtw;
pub mod dwt;
pub mod emd;
pub mod fft;
pub mod filter;
pub mod resample;
pub mod simd;
pub mod spike;
pub mod stats;
pub mod window;
pub mod xcor;

/// Sampling rate used by every SCALO ADC (30 kHz per electrode, §2.1/§5).
pub const SAMPLE_RATE_HZ: f64 = 30_000.0;

/// Samples in the 4 ms analysis window used for seizure work (§5: 120 samples).
pub const WINDOW_SAMPLES: usize = 120;

/// Electrodes in the standard per-node array (§5: 96-electrode array).
pub const ELECTRODES_PER_NODE: usize = 96;

/// ADC resolution in bits (§3: 16-bit ADCs/DACs).
pub const ADC_BITS: u32 = 16;

/// Bytes occupied by one raw sample (16-bit).
pub const SAMPLE_BYTES: usize = 2;

/// Duration of the standard analysis window in milliseconds.
pub const WINDOW_MS: f64 = WINDOW_SAMPLES as f64 / SAMPLE_RATE_HZ * 1_000.0;
