//! Order statistics and aggregates over latency samples.

/// Quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the driver uses to judge run-to-run spread.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [0.0; 3],
        1 => [v[0]; 3],
        _ => [1usize, 2, 3].map(|i| {
            // Position i*(n+1)/4 on a 1-based axis; the bracketing pair is
            // clamped to the data and the position extrapolates past it.
            let num = i * (n + 1);
            let j = (num / 4).clamp(1, n - 1);
            let frac = num as f64 / 4.0 - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        }),
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The smallest sample; 0 for an empty sample.
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Geometric mean; every value counts equally, as in the paper's
/// averaged speedups. 0 when the input is empty or holds a non-positive
/// value (a class with no samples must not vanish from the aggregate).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn rel_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// `num / den`, 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 19.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 95.0), 0.0);
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(fastest(&[]), 0.0);
    }

    #[test]
    fn geomean_weights_classes_equally() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[4.0, 4.0, 4.0]) - 4.0).abs() < 1e-9);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(rel_spread(&[2.0, 2.0, 2.0]), 0.0);
    }
}
