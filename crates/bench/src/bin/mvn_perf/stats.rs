//! Order statistics for the benchmark's reported numbers.
//!
//! Every timing the benchmark prints is a median over repetitions; the tail
//! latency follows the rule "the highest percentile with at least ten
//! samples beyond it", and the run-to-run spread is computed exactly like the
//! driver does (`statistics.quantiles(values, n=4)`, exclusive method).

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One reported number: the headline `value` plus the spread of the
/// repetitions/segments it was taken over.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// A number measured once (a counter, a ratio, peak RSS).
    pub fn single(value: f64) -> Self {
        Self {
            value,
            min: value,
            max: value,
            count: 1,
        }
    }

    /// The median of `samples` with their min, max and count.
    pub fn median_of(samples: &[f64]) -> Self {
        Self::around(median(samples), samples)
    }

    /// A headline `value` computed elsewhere (e.g. a pooled percentile),
    /// reported with the spread of the per-segment `samples`.
    pub fn around(value: f64, samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        Self {
            value,
            min: samples.iter().copied().fold(f64::INFINITY, f64::min),
            max: samples.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            count: samples.len(),
        }
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let v = sorted(samples);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Nearest-rank percentile `p ∈ (0, 1]` of `samples`, with the number of
/// samples strictly beyond the chosen rank.
pub fn percentile(samples: &[f64], p: f64) -> (f64, usize) {
    assert!(!samples.is_empty() && p > 0.0 && p <= 1.0);
    let v = sorted(samples);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    (v[rank - 1], v.len() - rank)
}

/// The tail latency: the 99th percentile when at least [`MIN_BEYOND`] samples
/// lie beyond it, otherwise the maximum (a smoke run's few requests support
/// no percentile). Returns the value and the number of samples beyond it.
pub fn tail(samples: &[f64]) -> (f64, usize) {
    let (p99, beyond) = percentile(samples, 0.99);
    if beyond >= MIN_BEYOND {
        (p99, beyond)
    } else {
        percentile(samples, 1.0)
    }
}

/// Quartiles by Python's `statistics.quantiles(values, n=4)` (exclusive
/// method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let v = sorted(values);
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the median —
/// the spread the driver holds each end-to-end metric's bound against.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values);
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_unsorted_input() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        let s = Summary::median_of(&[5.0, 1.0, 9.0]);
        assert_eq!((s.value, s.min, s.max, s.count), (5.0, 1.0, 9.0, 3));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 4,500 pooled serve_hot latencies: 45 beyond the 99th percentile.
        let hot: Vec<f64> = (1..=4500).map(f64::from).collect();
        assert_eq!(tail(&hot), (4455.0, 45));
        // 1,050 pooled serve_churn latencies: exactly ten beyond.
        let churn: Vec<f64> = (1..=1050).map(f64::from).collect();
        assert_eq!(tail(&churn), (1040.0, 10));
        // One sample fewer leaves nine beyond p99: fall back to the maximum.
        let short: Vec<f64> = (1..=949).map(f64::from).collect();
        assert_eq!(percentile(&short, 0.99).1, 9);
        assert_eq!(tail(&short), (949.0, 0));
        // A handful of samples: the slowest one.
        assert_eq!(tail(&[2.0, 9.0, 4.0]), (9.0, 0));
        // A failed request is recorded as +inf and so counts as beyond.
        let mut with_failure = hot.clone();
        with_failure[0] = f64::INFINITY;
        assert_eq!(tail(&with_failure), (4456.0, 45));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((quartile_spread(&v).unwrap() - 1.0).abs() < 1e-12);
    }
}
