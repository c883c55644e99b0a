//! Order statistics over samples.

/// Nearest-rank `q`-quantile of `samples` (sorted here); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    sorted[rank - 1]
}

/// The median, averaging the two middle values of an even sample.
pub fn median(samples: &[f64]) -> f64 {
    let n = samples.len();
    if n % 2 == 1 || n == 0 {
        return quantile(samples, 0.5);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
}

/// The percentiles a tail may be reported at, lowest first.
const TAIL_QUANTILES: [f64; 6] = [0.5, 0.75, 0.9, 0.95, 0.99, 0.999];

/// Whether at least ten of `n` samples lie beyond the nearest rank of `q`.
fn supports(n: usize, q: f64) -> bool {
    n.saturating_sub((q * n as f64).ceil() as usize) >= 10
}

/// The tail at `preferred` when the sample has at least ten values
/// beyond it, else at the highest of [`TAIL_QUANTILES`] that does (the
/// median when none does): `(quantile used, value)`. A workload fixes
/// `preferred` from its expected sample size, so runs report the same
/// percentile.
pub fn tail(samples: &[f64], preferred: f64) -> (f64, f64) {
    let n = samples.len();
    let q = if supports(n, preferred) {
        preferred
    } else {
        TAIL_QUANTILES
            .iter()
            .copied()
            .rev()
            .find(|&q| supports(n, q))
            .unwrap_or(0.5)
    };
    (q, quantile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 leaves exactly 10 samples above rank 90; p95 only 5
        assert_eq!(tail(&xs, 0.9), (0.9, 90.0));
        assert_eq!(tail(&xs, 0.95), (0.9, 90.0));
        assert_eq!(tail(&xs, 0.75), (0.75, 75.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs, 0.999), (0.99, 990.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(tail(&[1.0, 2.0], 0.9).0, 0.5);
    }
}
