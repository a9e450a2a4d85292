//! Order statistics of one run's samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `sorted`, linearly interpolated
/// between the two nearest ranks; `0` for an empty slice.
pub(crate) fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let at = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = at.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (at - lo as f64)
        }
    }
}

/// Median, 90th percentile and within-run spread of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// Interquartile range over the median: the within-run spread.
    pub spread: f64,
}

impl Summary {
    /// Summarises `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = quantile(&sorted, 0.5);
        let iqr = quantile(&sorted, 0.75) - quantile(&sorted, 0.25);
        Summary {
            n: sorted.len(),
            p50,
            p90: quantile(&sorted, 0.9),
            spread: if p50 > 0.0 { iqr / p50 } else { 0.0 },
        }
    }
}

/// Splits `values` into consecutive chunks of `len / parts` values (plus a
/// short tail chunk when the split is uneven) and applies `rate` to each — the within-run spread of a
/// ratio metric such as events per second.
pub(crate) fn chunked<T>(values: &[T], parts: usize, rate: impl Fn(&[T]) -> f64) -> Vec<f64> {
    let size = (values.len() / parts.max(1)).max(1);
    values.chunks(size).map(rate).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert!((quantile(&s, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn summary_spread_is_iqr_over_median() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.n, 5);
        assert_eq!(s.p50, 3.0);
        assert!((s.spread - 2.0 / 3.0).abs() < 1e-12);
    }
}
