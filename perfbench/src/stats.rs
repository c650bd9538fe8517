//! Order statistics and the trace reconciliation rule.

/// Nearest-rank percentile of `values` (`0 < p ≤ 100`): the smallest
/// sample with at least `p` % of the samples at or below it. `None` for
/// an empty slice. Sorts a copy; the input order is untouched.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile must lie in (0, 100]");
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// The median as the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// Samples strictly above the `p`-th percentile — the tail a reported
/// percentile rests on (at least ten are needed to report it).
pub fn samples_beyond(values: &[f64], p: f64) -> usize {
    match percentile(values, p) {
        Some(cut) => values.iter().filter(|&&v| v > cut).count(),
        None => 0,
    }
}

/// Whether the layer self times of an operation, summed, account for
/// the untraced operation latency: `|layer_sum − untraced| ≤ tolerance ·
/// untraced`. Returns the absolute relative gap `|layer_sum − untraced|
/// / untraced` alongside the verdict.
pub fn reconcile(layer_sum: f64, untraced: f64, tolerance: f64) -> (f64, bool) {
    let gap = ((layer_sum - untraced) / untraced).abs();
    (gap, gap.is_finite() && gap <= tolerance)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 100.0), Some(10.0));
        assert_eq!(percentile(&v, 0.1), Some(1.0));
        assert_eq!(percentile(&[7.0], 90.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    #[should_panic(expected = "percentile must lie in")]
    fn percentile_rejects_zero() {
        percentile(&[1.0], 0.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_count_excludes_ties_at_the_cut() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(samples_beyond(&v, 90.0), 10);
        assert_eq!(samples_beyond(&[1.0, 1.0, 1.0], 50.0), 0);
    }

    #[test]
    fn reconcile_bounds_the_relative_gap() {
        let (gap, ok) = reconcile(9.0, 10.0, 0.15);
        assert!((gap - 0.1).abs() < 1e-12 && ok, "the gap is absolute");
        let (gap, ok) = reconcile(12.0, 10.0, 0.15);
        assert!((gap - 0.2).abs() < 1e-12 && !ok);
        assert!(
            !reconcile(1.0, 0.0, 0.15).1,
            "a zero latency never reconciles"
        );
        assert!(!reconcile(0.0, 0.0, 0.15).1, "nor does an empty run");
    }
}
