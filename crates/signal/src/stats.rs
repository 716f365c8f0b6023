//! Small statistics helpers shared by the DSP kernels and classifiers.

/// Arithmetic mean of `xs`; `0.0` for an empty slice.
///
/// # Example
///
/// ```
/// assert_eq!(scalo_signal::stats::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of `xs`; `0.0` for slices shorter than two samples.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation of `xs`.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Root-mean-square amplitude of `xs`.
pub fn rms(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|&x| x * x).sum::<f64>() / xs.len() as f64).sqrt()
}

/// Z-score normalisation: returns `(x - mean) / std` per element.
///
/// If the standard deviation is (numerically) zero the original offsets are
/// returned unscaled, avoiding division blow-up on constant windows.
pub fn z_normalize(xs: &[f64]) -> Vec<f64> {
    let mut out = Vec::with_capacity(xs.len());
    z_normalize_into(xs, &mut out);
    out
}

/// [`z_normalize`] written into a caller-provided vector (cleared first).
/// Bit-identical to the allocating form; allocation-free once `out` has
/// capacity for `xs.len()` elements.
pub fn z_normalize_into(xs: &[f64], out: &mut Vec<f64>) {
    let m = mean(xs);
    let s = std_dev(xs);
    out.clear();
    if s < 1e-12 {
        out.extend(xs.iter().map(|&x| x - m));
    } else {
        out.extend(xs.iter().map(|&x| (x - m) / s));
    }
}

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product of unequal lengths");
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// Squared Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn squared_euclidean(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "distance of unequal lengths");
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

/// Euclidean (L2) distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn euclidean(a: &[f64], b: &[f64]) -> f64 {
    squared_euclidean(a, b).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert!((variance(&xs) - 4.0).abs() < 1e-12);
        assert!((std_dev(&xs) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn empty_slices_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[]), 0.0);
        assert_eq!(rms(&[]), 0.0);
    }

    #[test]
    fn z_normalize_has_zero_mean_unit_std() {
        let xs = [1.0, 2.0, 3.0, 4.0, 10.0];
        let z = z_normalize(&xs);
        assert!(mean(&z).abs() < 1e-12);
        assert!((std_dev(&z) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn z_normalize_constant_window() {
        let z = z_normalize(&[3.0, 3.0, 3.0]);
        assert!(z.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn euclidean_matches_hand_value() {
        assert!((euclidean(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-12);
    }
}
