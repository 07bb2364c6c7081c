//! Order statistics over timing samples.

/// The `p`-quantile (`0 < p <= 1`) of an ascending slice, nearest-rank:
/// the smallest sample with at least `p` of the samples at or below it.
/// `None` for an empty slice.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unordered samples (mean of the two middle ones for an even
/// count). `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Distance between the first and third quartile as a share of the median,
/// quartiles as Python's `statistics.quantiles(values, n=4)` gives them.
/// `None` for fewer than four samples or a zero median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    let m = samples.len();
    let mid = median(samples).filter(|mid| m >= 4 && *mid != 0.0)?;
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((quartile(3) - quartile(1)) / mid.abs())
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Percentiles of one timing distribution, with how many samples back them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub max: f64,
    /// Values the percentiles were taken over.
    pub n: usize,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            p50: percentile_sorted(&v, 0.50)?,
            p95: percentile_sorted(&v, 0.95)?,
            p99: percentile_sorted(&v, 0.99)?,
            max: *v.last()?,
            n: v.len(),
        })
    }
}

/// One whole pass over the item set, built segment by segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pass {
    /// Seconds the pass took, each segment divided by its host factor.
    pub wall_s: f64,
    /// The same, undivided.
    pub raw_wall_s: f64,
    /// Latency of every call in it, ms, divided by its segment's factor.
    pub samples_ms: Vec<f64>,
}

impl Pass {
    /// Adds a stretch of the pass that took `wall_s` raw seconds and whose
    /// calls took `raw_ms`, measured under host `factor` (see `calib.rs`;
    /// 1.0 where times are left raw).
    pub fn add_segment(&mut self, wall_s: f64, raw_ms: &[f64], factor: f64) {
        self.wall_s += wall_s / factor;
        self.raw_wall_s += wall_s;
        self.samples_ms.extend(raw_ms.iter().map(|ms| ms / factor));
    }

    /// The factor the pass's wall time was divided by, all in all.
    pub fn host(&self) -> f64 {
        self.raw_wall_s / self.wall_s
    }
}

/// The timed passes of a run. Each end-to-end figure is computed per pass,
/// over that pass's per-call samples, and the median across passes is
/// reported: a stall the program produces on every pass lands in every
/// pass's tail and so in the reported one, while a spell of host noise
/// spoils only the passes it covers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Passes(Vec<Pass>);

impl Passes {
    pub fn push(&mut self, pass: Pass) {
        self.0.push(pass);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Pass> {
        self.0.iter()
    }

    /// Every sample taken, items × passes.
    pub fn samples(&self) -> usize {
        self.0.iter().map(|p| p.samples_ms.len()).sum()
    }

    pub fn all(&self) -> Vec<f64> {
        self.0
            .iter()
            .flat_map(|p| p.samples_ms.iter().copied())
            .collect()
    }

    /// Median across passes of `f(pass)`.
    pub fn median_of(&self, f: impl Fn(&Pass) -> Option<f64>) -> Option<f64> {
        median(&self.0.iter().filter_map(f).collect::<Vec<_>>())
    }

    /// Median across passes of the pass's `p`-quantile latency, ms.
    pub fn latency_ms(&self, p: f64) -> Option<f64> {
        self.median_of(|pass| {
            let mut v = pass.samples_ms.clone();
            v.sort_by(f64::total_cmp);
            percentile_sorted(&v, p)
        })
    }

    /// Median across passes of seconds per pass.
    pub fn wall_s(&self) -> Option<f64> {
        self.median_of(|pass| Some(pass.wall_s))
    }

    /// The same without the host factors.
    pub fn raw_wall_s(&self) -> Option<f64> {
        self.median_of(|pass| Some(pass.raw_wall_s))
    }

    /// Mean host factor of the passes (1.0 for none).
    pub fn mean_host(&self) -> f64 {
        if self.0.is_empty() {
            1.0
        } else {
            mean(&self.0.iter().map(Pass::host).collect::<Vec<_>>())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_and_sample_count() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), Some(50.0));
        assert_eq!(percentile_sorted(&v, 0.95), Some(95.0));
        assert_eq!(percentile_sorted(&v, 1.0), Some(100.0));
        assert_eq!(percentile_sorted(&v[..1], 0.95), Some(1.0));
        assert_eq!(percentile_sorted(&[], 0.5), None);

        let s = Summary::of(&[5.0, 1.0, 3.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.p50, s.p95, s.p99, s.max, s.n), (3.0, 5.0, 5.0, 5.0, 5));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn median_handles_even_odd_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v).unwrap() - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 14, 7, 10, 13], n=4) == [8.5, 10.0, 13.5]
        assert!((spread(&[10.0, 14.0, 7.0, 10.0, 13.0]).unwrap() - 0.5).abs() < 1e-12);
        assert_eq!(spread(&[1.0, 2.0, 3.0]), None);
        assert_eq!(spread(&[0.0; 5]), None);
    }

    #[test]
    fn passes_report_the_median_pass_on_the_reference_host() {
        let mut passes = Passes::default();
        // Three passes over four items; the host ran the second one 2.5
        // times slower, and its slices say so.
        for (wall_s, host, raw_ms) in [
            (1.0, 1.0, [1.0, 2.0, 3.0, 9.0]),
            (2.5, 2.5, [2.5, 5.0, 7.5, 22.0]),
            (1.1, 1.0, [1.1, 2.1, 3.1, 9.5]),
        ] {
            let mut pass = Pass::default();
            // Two segments of two calls each.
            pass.add_segment(wall_s / 2.0, &raw_ms[..2], host);
            pass.add_segment(wall_s / 2.0, &raw_ms[2..], host);
            assert!((pass.host() - host).abs() < 1e-12);
            passes.push(pass);
        }
        assert_eq!((passes.len(), passes.samples()), (3, 12));
        assert_eq!(passes.all().len(), 12);
        // Per pass p50 (nearest rank) is 2.0, 2.0, 2.1 on the reference
        // host, the tail 9.0, 8.8, 9.5.
        assert_eq!(passes.latency_ms(0.50), Some(2.0));
        assert_eq!(passes.latency_ms(0.95), Some(9.0));
        assert_eq!(
            (passes.wall_s(), passes.raw_wall_s()),
            (Some(1.0), Some(1.1))
        );
        assert!((passes.mean_host() - 1.5).abs() < 1e-12);
        // An item slow on every pass stays in the reported tail.
        assert!(passes.latency_ms(0.95).unwrap() > 4.0 * passes.latency_ms(0.50).unwrap());
        assert_eq!(Passes::default().latency_ms(0.5), None);
        assert_eq!(Passes::default().mean_host(), 1.0);
    }
}
