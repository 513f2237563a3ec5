//! Estimators. A throughput is `work per rep ÷ the fast-decile rep
//! time`; diagnostics use the median and the highest percentile that
//! still has ten samples beyond it; `compare` uses the quartiles as
//! Python's `statistics.quantiles(values, n=4)` gives them.

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank percentile of `xs` (`p` in `0..=100`). Panics on an
/// empty sample: every caller measures at least one rep.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let v = sorted(xs);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The fast decile: the estimator behind every throughput metric.
pub fn p10(xs: &[f64]) -> f64 {
    percentile(xs, 10.0)
}

pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    assert!(!v.is_empty(), "median of an empty sample");
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `(value, percentile)` of the highest percentile, at most the 99th,
/// that has at least ten samples beyond it; the maximum (as the 100th)
/// when the sample is too small for any.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    assert!(!v.is_empty(), "tail of an empty sample");
    let n = v.len();
    if n <= 10 {
        return (v[n - 1], 100.0);
    }
    let p99_rank = (0.99 * n as f64).ceil() as usize;
    let rank = p99_rank.min(n - 10);
    (v[rank - 1], 100.0 * rank as f64 / n as f64)
}

/// Quartiles by the exclusive method (Python's default). `None` for
/// fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the spread the benchmark's bounds are set against.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1).abs() / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fast_decile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p10(&xs), 10.0);
        assert_eq!(p10(&[7.0]), 7.0);
        assert_eq!(p10(&[9.0, 3.0, 5.0]), 3.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs), (40.0, 80.0));
        let big: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&big), (1980.0, 99.0));
        assert_eq!(tail(&[4.0, 2.0]), (4.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
