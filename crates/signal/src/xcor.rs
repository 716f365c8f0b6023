//! Pearson cross-correlation (the XCOR PE, reused from HALO).

use crate::stats::{mean, std_dev};

/// Pearson correlation coefficient between two equal-length signals.
///
/// Returns a value in `[-1, 1]`; `0.0` if either signal is constant.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// use scalo_signal::xcor::pearson;
///
/// let a = [1.0, 2.0, 3.0, 4.0];
/// let b = [2.0, 4.0, 6.0, 8.0];
/// assert!((pearson(&a, &b) - 1.0).abs() < 1e-12);
/// ```
pub fn pearson(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "correlation of unequal lengths");
    assert!(!a.is_empty(), "correlation of empty signals");
    let (ma, mb) = (mean(a), mean(b));
    let (sa, sb) = (std_dev(a), std_dev(b));
    if sa < 1e-12 || sb < 1e-12 {
        return 0.0;
    }
    let cov = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| (x - ma) * (y - mb))
        .sum::<f64>()
        / a.len() as f64;
    (cov / (sa * sb)).clamp(-1.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anti_correlated_signals() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [4.0, 3.0, 2.0, 1.0];
        assert!((pearson(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn constant_signal_yields_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn pearson_is_symmetric() {
        let a = [0.3, -1.2, 2.5, 0.0, 1.1];
        let b = [1.0, 0.2, -0.7, 2.2, 0.4];
        assert!((pearson(&a, &b) - pearson(&b, &a)).abs() < 1e-14);
    }
}
