//! Order statistics over per-operation samples.

use bonsai_util::stats::percentile_sorted;

/// Samples beyond the reported tail percentile (choosing-metrics §1: the
/// highest percentile with at least ten samples beyond it).
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count); 0 for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    percentile_sorted(&sorted(values), 0.5)
}

/// The tail of a latency sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample value with exactly [`TAIL_BEYOND`] samples above it.
    pub value: f64,
    /// Its percentile: the share of samples at or below it, in percent.
    pub percentile: f64,
    /// Samples in the whole set.
    pub samples: usize,
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it;
/// `None` when there are too few samples for one.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(values);
    let k = n - TAIL_BEYOND - 1;
    Some(Tail {
        value: v[k],
        percentile: 100.0 * (k + 1) as f64 / n as f64,
        samples: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 30.0);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert!(tail(&v[..10]).is_none());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
