//! Sample summaries: median, the tail-percentile rule, and the
//! quartile spread used to judge whether a metric is steady.

/// Ascending copy of `xs` (NaN-free by construction: every sample is a
/// measured duration or count).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    v
}

/// The median (mean of the two middle samples for an even count);
/// `None` for an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at `percentile` of `samples` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Nearest-rank percentile the value sits at (0–100).
    pub percentile: f64,
    /// The sample at that rank.
    pub value: f64,
    /// Sample count.
    pub samples: usize,
}

/// The highest nearest-rank percentile with at least [`TAIL_BEYOND`]
/// samples beyond it, never below the median's rank; `None` for an
/// empty sample. With `n` samples the rank is `max(n − 10, ⌈n/2⌉)`, so
/// exactly ten samples lie beyond it once `n ≥ 20`, and a smaller
/// sample reports its median rather than an unsupported tail.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    if xs.is_empty() {
        return None;
    }
    let v = sorted(xs);
    let n = v.len();
    let rank = n.saturating_sub(TAIL_BEYOND).max(n.div_ceil(2));
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        samples: n,
    })
}

/// Quartiles `(q1, q2, q3)` by the same rule as Python's
/// `statistics.quantiles(xs, n=4)` (the default `exclusive` method);
/// `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as i64 + 1;
    let q = |i: i64| {
        let j = (i * m / 4).clamp(1, n as i64 - 1);
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// The distance between the first and third quartile as a share of
/// the median; `None` below two samples or for a zero median.
pub fn quartile_spread(xs: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.samples, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);

        // 1,000 samples: p99 is the highest percentile the rule allows.
        let xs: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.percentile), (990.0, 99.0));
    }

    #[test]
    fn tail_of_a_small_sample_is_its_median_rank() {
        let xs: Vec<f64> = (1..=15).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.value, 8.0, "rank ⌈15/2⌉ = 8, not the unsupported rank 5");
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs).unwrap().value, 10.0);
        assert_eq!(tail(&[7.0]).unwrap().value, 7.0);
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // Reference values from `statistics.quantiles(v, n=4)`.
        type Case<'a> = (&'a [f64], (f64, f64, f64));
        let cases: [Case; 5] = [
            (&[1.0, 2.0, 3.0, 4.0], (1.25, 2.5, 3.75)),
            (&[5.0, 1.0, 4.0, 2.0, 3.0], (1.5, 3.0, 4.5)),
            (
                &[10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0],
                (27.5, 55.0, 82.5),
            ),
            (&[2.5, 2.5, 2.5], (2.5, 2.5, 2.5)),
            (&[1.0, 2.0], (0.75, 1.5, 2.25)),
        ];
        for (xs, want) in cases {
            let got = quartiles(xs).unwrap();
            for (g, w) in [(got.0, want.0), (got.1, want.1), (got.2, want.2)] {
                assert!((g - w).abs() < 1e-12, "{xs:?}: got {got:?}, want {want:?}");
            }
        }
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0, 70.0, 80.0, 90.0, 100.0];
        assert!((quartile_spread(&xs).unwrap() - 55.0 / 55.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[2.5, 2.5, 2.5]), Some(0.0));
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
