//! The one nearest-rank percentile every report and soak quotes.

/// Nearest-rank percentile of an unsorted sample: sorts `sample` in place
/// and returns the `⌈p·n⌉`-th smallest value (the smallest for `p <= 0`,
/// the largest for `p >= 1`), or 0.0 when the sample is empty.
pub fn percentile(sample: &mut [f64], p: f64) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    sample.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let rank = ((p * sample.len() as f64).ceil() as usize).clamp(1, sample.len());
    sample[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn nearest_rank_on_unsorted_input_and_edges() {
        assert_eq!(percentile(&mut [], 0.5), 0.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 0.99), 3.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], -1.0), 1.0);
        assert_eq!(percentile(&mut [3.0, 1.0, 2.0], 7.0), 3.0);
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.95), 95.0);
    }
}
