//! Property-based tests for the DSP kernels.

use proptest::prelude::*;
use scalo_signal::dwt::{haar_level, haar_level_inverse};
use scalo_signal::fft::{fft_in_place, fft_real, ifft_in_place, Complex};
use scalo_signal::filter::ButterworthBandpass;
use scalo_signal::spike::neo;
use scalo_signal::window::Adc;
use scalo_signal::xcor::pearson;

fn sig(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-100.0f64..100.0, len..=len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fft_ifft_roundtrip(x in sig(64)) {
        let mut buf: Vec<Complex> = x.iter().map(|&v| Complex::new(v, 0.0)).collect();
        fft_in_place(&mut buf);
        ifft_in_place(&mut buf);
        for (orig, got) in x.iter().zip(&buf) {
            prop_assert!((orig - got.re).abs() < 1e-6);
            prop_assert!(got.im.abs() < 1e-6);
        }
    }

    #[test]
    fn parseval_holds(x in sig(128)) {
        let time: f64 = x.iter().map(|v| v * v).sum();
        let spec = fft_real(&x);
        let freq: f64 = spec.iter().map(|c| { let m = c.abs(); m * m }).sum::<f64>() / spec.len() as f64;
        prop_assert!((time - freq).abs() <= 1e-6 * time.max(1.0));
    }

    #[test]
    fn fft_is_linear(a in sig(32), b in sig(32), k in -5.0f64..5.0) {
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + k * y).collect();
        let fa = fft_real(&a);
        let fb = fft_real(&b);
        let fc = fft_real(&combo);
        for i in 0..fa.len() {
            prop_assert!((fc[i].re - (fa[i].re + k * fb[i].re)).abs() < 1e-6 * 600.0);
            prop_assert!((fc[i].im - (fa[i].im + k * fb[i].im)).abs() < 1e-6 * 600.0);
        }
    }

    #[test]
    fn filter_output_is_finite_and_bounded(x in sig(512)) {
        let mut f = ButterworthBandpass::new(2, 10.0, 200.0, 1_000.0);
        let y = f.filter(&x);
        let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1.0);
        for v in y {
            prop_assert!(v.is_finite());
            prop_assert!(v.abs() < 100.0 * peak, "stable filter");
        }
    }

    #[test]
    fn pearson_in_unit_range_and_self_is_one(a in sig(20), b in sig(20)) {
        let r = pearson(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&r));
        // Self-correlation is 1 unless a is constant.
        let std: f64 = {
            let m = a.iter().sum::<f64>() / a.len() as f64;
            (a.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / a.len() as f64).sqrt()
        };
        if std > 1e-6 {
            prop_assert!((pearson(&a, &a) - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn haar_roundtrip_and_energy(x in sig(64)) {
        let (a, d) = haar_level(&x);
        let back = haar_level_inverse(&a, &d);
        for (orig, got) in x.iter().zip(&back) {
            prop_assert!((orig - got).abs() < 1e-9);
        }
        let e_in: f64 = x.iter().map(|v| v * v).sum();
        let e_out: f64 = a.iter().chain(&d).map(|v| v * v).sum();
        prop_assert!((e_in - e_out).abs() < 1e-6 * e_in.max(1.0));
    }

    #[test]
    fn neo_preserves_length(x in sig(50)) {
        prop_assert_eq!(neo(&x).len(), 50);
    }

    #[test]
    fn adc_roundtrip_error_bounded(x in -0.999f64..0.999) {
        let adc = Adc::new(1.0);
        let y = adc.dequantize(adc.quantize(x));
        prop_assert!((x - y).abs() <= 1.0 / 32_767.0 + 1e-9);
    }

    #[test]
    fn adc_quantize_is_monotone(a in -2.0f64..2.0, b in -2.0f64..2.0) {
        let adc = Adc::new(1.0);
        if a <= b {
            prop_assert!(adc.quantize(a) <= adc.quantize(b));
        }
    }
}

// --- `*_into` / `*_with` scratch-buffer equivalence ---------------------
//
// The zero-allocation hot path calls the scratch-reusing forms below
// with whatever junk the previous window left behind, so equivalence
// must hold bitwise (`==` on f64, not approximately) and regardless of
// the prior contents or capacity of the output buffers.

use scalo_signal::dtw::{dtw_distance, dtw_distance_with, DtwParams, DtwScratch};
use scalo_signal::fft::{band_power_features, band_power_features_into, FftScratch};
use scalo_signal::filter::ButterworthBandpass as Bandpass;
use scalo_signal::spike::{neo_into, spike_threshold, spike_threshold_with};
use scalo_signal::stats::{z_normalize, z_normalize_into};
use scalo_signal::WINDOW_SAMPLES;

/// Junk a previous caller plausibly left in a reused output buffer.
fn dirty(len: usize) -> Vec<f64> {
    (0..len).map(|i| i as f64 * -3.25).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn band_power_features_into_equals_legacy(x in sig(WINDOW_SAMPLES)) {
        let legacy = band_power_features(&x);
        let mut scratch = FftScratch::default();
        let mut out = dirty(3);
        // Two passes through the same scratch: the second sees it warm.
        for _ in 0..2 {
            band_power_features_into(&x, &mut scratch, &mut out);
            prop_assert_eq!(&out, &legacy);
        }
    }

    #[test]
    fn z_normalize_into_equals_legacy(x in sig(120)) {
        let legacy = z_normalize(&x);
        let mut out = dirty(7);
        z_normalize_into(&x, &mut out);
        prop_assert_eq!(out, legacy);
    }

    #[test]
    fn dtw_distance_with_equals_legacy(a in sig(60), b in sig(60)) {
        let params = DtwParams::default();
        let legacy = dtw_distance(&a, &b, params);
        let mut scratch = DtwScratch::default();
        for _ in 0..2 {
            let got = dtw_distance_with(&mut scratch, &a, &b, params);
            prop_assert_eq!(got.to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn filter_into_equals_legacy(x in sig(256)) {
        // The filter carries state, so equivalence needs twin instances.
        let mut f_legacy = Bandpass::new(2, 10.0, 200.0, 1_000.0);
        let mut f_into = Bandpass::new(2, 10.0, 200.0, 1_000.0);
        let mut out = dirty(5);
        for chunk in x.chunks(64) {
            let legacy = f_legacy.filter(chunk);
            f_into.filter_into(chunk, &mut out);
            prop_assert_eq!(&out, &legacy);
        }
    }

    #[test]
    fn neo_into_equals_legacy(x in sig(50)) {
        let legacy = neo(&x);
        let mut out = dirty(9);
        neo_into(&x, &mut out);
        prop_assert_eq!(out, legacy);
    }

    #[test]
    fn spike_threshold_with_equals_legacy(x in sig(80), k in 0.5f64..8.0) {
        let legacy = spike_threshold(&x, k);
        let mut scratch = dirty(13);
        for _ in 0..2 {
            let got = spike_threshold_with(&mut scratch, &x, k);
            prop_assert_eq!(got.to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn quantize_window_into_equals_legacy(x in sig(WINDOW_SAMPLES)) {
        let adc = Adc::new(1.0);
        let legacy = adc.quantize_window(&x);
        let mut out: Vec<i16> = vec![i16::MIN; 3];
        adc.quantize_window_into(&x, &mut out);
        prop_assert_eq!(out, legacy);
    }
}

// --- batched kernel engine ≡ scalar kernels -----------------------------
//
// The channel-major engine (planned FFT, fused biquad bank, pruned DTW)
// must be indistinguishable from the scalar kernels it replaced: bitwise
// on values where the hot path compares raw floats, and decision-exact
// where a threshold is the only consumer.

use scalo_signal::dtw::{dtw_distance_pruned, DtwResolution};
use scalo_signal::fft::{fft_in_place_planned, FftPlan};
use scalo_signal::filter::{BandpassBank, BandpassDesign};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn planned_fft_equals_legacy_bitwise(x in sig(256), log_n in 1usize..9) {
        let n = 1 << log_n;
        let mut legacy: Vec<Complex> = x[..n].iter().map(|&v| Complex::new(v, 0.0)).collect();
        let mut planned = legacy.clone();
        fft_in_place(&mut legacy);
        let plan = FftPlan::new(n);
        fft_in_place_planned(&plan, &mut planned);
        for (a, b) in legacy.iter().zip(&planned) {
            prop_assert_eq!(a.re.to_bits(), b.re.to_bits());
            prop_assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
    }

    #[test]
    fn pruned_dtw_preserves_threshold_decisions(
        a in sig(60),
        b in sig(60),
        cutoff in 0.5f64..400.0,
    ) {
        let params = DtwParams::default();
        let exact = dtw_distance(&a, &b, params);
        let mut scratch = DtwScratch::default();
        let pruned = dtw_distance_pruned(&mut scratch, &a, &b, params, cutoff);
        // The only consumer of a pruned distance is `dist < cutoff`.
        prop_assert_eq!(pruned.distance < cutoff, exact < cutoff);
        match pruned.resolution {
            // A pruned exit certifies the true distance reaches the cutoff.
            DtwResolution::LowerBounded | DtwResolution::Abandoned => {
                prop_assert!(pruned.distance >= cutoff);
                prop_assert!(exact >= cutoff);
            }
            // A completed pass is the exact distance, bit for bit.
            DtwResolution::Exact => {
                prop_assert_eq!(pruned.distance.to_bits(), exact.to_bits());
            }
        }
    }

    #[test]
    fn unpruned_dtw_equals_exact_bitwise(a in sig(40), b in sig(40)) {
        // An infinite cutoff disables pruning entirely: the pruned entry
        // point must degenerate to the exact banded distance.
        let params = DtwParams::default();
        let exact = dtw_distance(&a, &b, params);
        let mut scratch = DtwScratch::default();
        let got = dtw_distance_pruned(&mut scratch, &a, &b, params, f64::INFINITY);
        prop_assert_eq!(got.resolution, DtwResolution::Exact);
        prop_assert_eq!(got.distance.to_bits(), exact.to_bits());
    }

    #[test]
    fn bank_equals_per_channel_filters(
        data in proptest::collection::vec(-50.0f64..50.0, 0..=6 * 64),
        channels in 1usize..7,
    ) {
        let samples = data.len() / channels;
        let data = &data[..samples * channels];
        let design = BandpassDesign::new(2, 10.0, 200.0, 1_000.0);
        let mut interleaved = data.to_vec();
        let mut bank = BandpassBank::new(&design, channels);
        bank.process_interleaved(&mut interleaved);
        for c in 0..channels {
            let xs: Vec<f64> = (0..samples).map(|t| data[t * channels + c]).collect();
            let mut reference = Bandpass::from_design(&design);
            let expected = reference.filter(&xs);
            for t in 0..samples {
                prop_assert_eq!(
                    interleaved[t * channels + c].to_bits(),
                    expected[t].to_bits(),
                    "channel {} sample {}", c, t
                );
            }
        }
    }
}

// --- SIMD lanes ≡ scalar reference, at every detected ISA level ---------
//
// Each dispatchable kernel is swept over `SimdLevel::supported()` (the
// narrowest-first list this host can run) and compared against a pinned
// scalar instance on the same input. Channel counts deliberately include
// odd values and counts below/above the vector widths, so the 16/4/2-lane
// main loops, the cross-width tail handoffs, and the scalar remainders
// are all exercised. Equality is bitwise (`to_bits`) throughout — the
// lanes preserve the scalar operation order, not just the mathematics.

use scalo_signal::block::{z_normalize_block, BlockStatsScratch, ChannelBlock};
use scalo_signal::simd::SimdLevel;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bank_isa_sweep_is_bitwise_identical(
        data in proptest::collection::vec(-50.0f64..50.0, 0..=9 * 40),
        channels in 1usize..10,
    ) {
        let samples = data.len() / channels;
        let data = &data[..samples * channels];
        let design = BandpassDesign::new(2, 10.0, 200.0, 1_000.0);
        let mut scalar_out = data.to_vec();
        BandpassBank::with_level(&design, channels, SimdLevel::Scalar)
            .process_interleaved(&mut scalar_out);
        for level in SimdLevel::supported() {
            let mut out = data.to_vec();
            BandpassBank::with_level(&design, channels, level).process_interleaved(&mut out);
            for (i, (a, b)) in out.iter().zip(&scalar_out).enumerate() {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "level {} index {}", level, i);
            }
        }
    }

    #[test]
    fn planned_fft_isa_sweep_is_bitwise_identical(x in sig(512), log_n in 0usize..10) {
        let n = 1 << log_n;
        let input: Vec<Complex> = x[..n].iter().map(|&v| Complex::new(v, 0.0)).collect();
        let mut scalar_buf = input.clone();
        fft_in_place_planned(&FftPlan::with_level(n, SimdLevel::Scalar), &mut scalar_buf);
        for level in SimdLevel::supported() {
            let mut buf = input.clone();
            fft_in_place_planned(&FftPlan::with_level(n, level), &mut buf);
            for (a, b) in buf.iter().zip(&scalar_buf) {
                prop_assert_eq!(a.re.to_bits(), b.re.to_bits(), "level {}", level);
                prop_assert_eq!(a.im.to_bits(), b.im.to_bits(), "level {}", level);
            }
        }
    }

    #[test]
    fn znorm_isa_sweep_is_bitwise_identical(
        data in proptest::collection::vec(-50.0f64..50.0, 0..=9 * 40),
        channels in 1usize..10,
    ) {
        let samples = data.len() / channels;
        let mut block = ChannelBlock::new();
        block.reset(channels, samples);
        block.data_mut().copy_from_slice(&data[..samples * channels]);
        let mut scalar_out = ChannelBlock::new();
        z_normalize_block(
            &block,
            &mut BlockStatsScratch::with_level(SimdLevel::Scalar),
            &mut scalar_out,
        );
        for level in SimdLevel::supported() {
            let mut out = ChannelBlock::new();
            z_normalize_block(&block, &mut BlockStatsScratch::with_level(level), &mut out);
            for (a, b) in out.data().iter().zip(scalar_out.data()) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "level {}", level);
            }
        }
    }

    #[test]
    fn dtw_isa_sweep_is_value_identical(a in sig(60), b in sig(60), cutoff in 0.5f64..400.0) {
        let params = DtwParams::default();
        let mut scalar_scratch = DtwScratch::with_level(SimdLevel::Scalar);
        let exact_scalar = dtw_distance_with(&mut scalar_scratch, &a, &b, params);
        let pruned_scalar = dtw_distance_pruned(&mut scalar_scratch, &a, &b, params, cutoff);
        for level in SimdLevel::supported() {
            let mut scratch = DtwScratch::with_level(level);
            let exact = dtw_distance_with(&mut scratch, &a, &b, params);
            prop_assert_eq!(exact.to_bits(), exact_scalar.to_bits(), "level {}", level);
            let pruned = dtw_distance_pruned(&mut scratch, &a, &b, params, cutoff);
            prop_assert_eq!(
                pruned.distance.to_bits(),
                pruned_scalar.distance.to_bits(),
                "level {}", level
            );
            prop_assert_eq!(pruned.resolution, pruned_scalar.resolution, "level {}", level);
        }
    }
}
