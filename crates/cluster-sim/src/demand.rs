//! Deterministic sampling of question service demands.
//!
//! Each simulated question gets:
//!
//! * a whole-question scale factor (TREC question times vary widely around
//!   the Table 8 means);
//! * per-sub-collection PR demands — lognormal around
//!   `T_PR / sub_collections` with the coefficient of variation observed in
//!   the paper's Q226 trace (0.19–1.52 s per collection);
//! * per-paragraph AP demands — lognormal, then sorted *descending* so that
//!   paragraph rank correlates with processing cost. This reproduces the
//!   paper's observation that "the PO module provides also a good ranking of
//!   the paragraph processing complexity", which is what makes ISEND work.

use qa_types::rng::{LogNormal, Rng};
use qa_types::ModuleProfile;

/// All demands of one simulated question, in seconds of dedicated service.
#[derive(Debug, Clone, PartialEq)]
pub struct QuestionDemand {
    /// QP demand (CPU, home node).
    pub qp: f64,
    /// Per-sub-collection PR demand (split 20 % CPU / 80 % disk by Table 3).
    pub pr_per_collection: Vec<f64>,
    /// Per-sub-collection PS demand (CPU), proportional to PR share.
    pub ps_per_collection: Vec<f64>,
    /// PO demand (CPU, home node).
    pub po: f64,
    /// Per-paragraph AP demand (CPU), descending — index = paragraph rank.
    pub ap_per_paragraph: Vec<f64>,
    /// Memory footprint of the question in bytes.
    pub memory: u64,
}

impl QuestionDemand {
    /// Sample demands for question `index` of a run seeded with `seed`.
    /// Pure function of `(profile, seed, index)`.
    pub fn sample(profile: &ModuleProfile, seed: u64, index: u64) -> QuestionDemand {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(index));

        // Whole-question scale: lognormal with CV 0.6, mean 1.
        let scale = lognormal_mean1(0.6).sample(&mut rng);

        let k = profile.sub_collections.max(1);
        let pr_mean = profile.times.pr * scale / k as f64;
        let pr_dist = LogNormal::new(
            mu_for(pr_mean, profile.pr_granularity_cv),
            sigma_for(profile.pr_granularity_cv),
        )
        .expect("valid lognormal");
        let pr_per_collection: Vec<f64> = (0..k).map(|_| pr_dist.sample(&mut rng)).collect();
        let pr_total: f64 = pr_per_collection.iter().sum();
        let ps_per_collection: Vec<f64> = pr_per_collection
            .iter()
            .map(|d| profile.times.ps * scale * d / pr_total.max(1e-12))
            .collect();

        // Bigger questions accept more paragraphs (the paper's intra-question
        // experiments select "complex" questions by exactly this property),
        // while the per-paragraph cost stays roughly constant.
        let n_par = ((profile.paragraphs_accepted as f64 * scale).round() as usize).max(40);
        let ap_mean = profile.times.ap / profile.paragraphs_accepted.max(1) as f64;
        let ap_dist = LogNormal::new(
            mu_for(ap_mean, profile.ap_granularity_cv),
            sigma_for(profile.ap_granularity_cv),
        )
        .expect("valid lognormal");
        let mut ap_per_paragraph: Vec<f64> = (0..n_par).map(|_| ap_dist.sample(&mut rng)).collect();
        // Rank order: heaviest paragraphs first (see module docs), then
        // multiplicative noise — PO's relevance ranking predicts processing
        // cost well but not perfectly, which is why RECV still edges out
        // ISEND in Table 11.
        ap_per_paragraph.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let rank_noise = lognormal_mean1(0.75);
        for d in &mut ap_per_paragraph {
            *d *= rank_noise.sample(&mut rng);
        }

        let memory = rng.range(
            profile.question_memory_lo..=profile.question_memory_hi.max(profile.question_memory_lo),
        );

        QuestionDemand {
            qp: profile.times.qp * scale,
            pr_per_collection,
            ps_per_collection,
            po: profile.times.po * scale,
            ap_per_paragraph,
            memory,
        }
    }

    /// Total PR demand.
    pub fn pr_total(&self) -> f64 {
        self.pr_per_collection.iter().sum()
    }

    /// Total PS demand.
    pub fn ps_total(&self) -> f64 {
        self.ps_per_collection.iter().sum()
    }

    /// Total AP demand.
    pub fn ap_total(&self) -> f64 {
        self.ap_per_paragraph.iter().sum()
    }

    /// Total sequential demand (all modules).
    pub fn total(&self) -> f64 {
        self.qp + self.pr_total() + self.ps_total() + self.po + self.ap_total()
    }
}

/// Lognormal `mu` for a target mean and coefficient of variation.
fn mu_for(mean: f64, cv: f64) -> f64 {
    let v = (1.0 + cv * cv).ln();
    mean.max(1e-12).ln() - 0.5 * v
}

/// Lognormal `sigma` for a coefficient of variation.
fn sigma_for(cv: f64) -> f64 {
    (1.0 + cv * cv).ln().sqrt()
}

/// A lognormal with mean 1 and the given CV.
fn lognormal_mean1(cv: f64) -> LogNormal {
    LogNormal::new(mu_for(1.0, cv), sigma_for(cv)).expect("valid lognormal")
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::Trec9Profile;

    #[test]
    fn deterministic_given_seed_and_index() {
        let p = Trec9Profile::complex();
        let a = QuestionDemand::sample(&p, 7, 3);
        let b = QuestionDemand::sample(&p, 7, 3);
        assert_eq!(a, b);
        let c = QuestionDemand::sample(&p, 7, 4);
        assert_ne!(a, c);
    }

    #[test]
    fn mean_total_tracks_profile() {
        let p = Trec9Profile::complex();
        let n = 400;
        let mean: f64 = (0..n)
            .map(|i| QuestionDemand::sample(&p, 11, i).total())
            .sum::<f64>()
            / n as f64;
        let expected = p.sequential_total();
        let ratio = mean / expected;
        assert!(
            (0.8..=1.25).contains(&ratio),
            "mean {mean:.1} vs profile {expected:.1}"
        );
    }

    #[test]
    fn pr_collection_times_have_trace_like_spread() {
        // Q226 trace: 0.19 s to 1.52 s per collection, i.e. max/min ≈ 8.
        let p = Trec9Profile::complex();
        let mut high_spread = 0;
        for i in 0..50 {
            let d = QuestionDemand::sample(&p, 13, i);
            let max = d.pr_per_collection.iter().cloned().fold(f64::MIN, f64::max);
            let min = d.pr_per_collection.iter().cloned().fold(f64::MAX, f64::min);
            if max / min > 3.0 {
                high_spread += 1;
            }
        }
        assert!(
            high_spread > 25,
            "only {high_spread}/50 questions show spread"
        );
    }

    #[test]
    fn ap_demands_trend_descending_with_rank() {
        let p = Trec9Profile::complex();
        let d = QuestionDemand::sample(&p, 17, 0);
        assert!(d.ap_per_paragraph.len() >= 40);
        // Imperfect but real correlation: the top quarter of ranks must be
        // substantially heavier on average than the bottom quarter.
        let q = d.ap_per_paragraph.len() / 4;
        let head: f64 = d.ap_per_paragraph[..q].iter().sum::<f64>() / q as f64;
        let tail: f64 = d.ap_per_paragraph[d.ap_per_paragraph.len() - q..]
            .iter()
            .sum::<f64>()
            / q as f64;
        assert!(head > 1.5 * tail, "head {head:.4} vs tail {tail:.4}");
        // And it must NOT be perfectly sorted (the noise is there).
        assert!(
            d.ap_per_paragraph.windows(2).any(|w| w[0] < w[1]),
            "ranking should be imperfect"
        );
    }

    #[test]
    fn memory_in_profile_band() {
        let p = Trec9Profile::complex();
        for i in 0..20 {
            let d = QuestionDemand::sample(&p, 19, i);
            assert!(d.memory >= p.question_memory_lo);
            assert!(d.memory <= p.question_memory_hi);
        }
    }

    #[test]
    fn all_demands_positive() {
        let p = Trec9Profile::complex();
        for i in 0..20 {
            let d = QuestionDemand::sample(&p, 23, i);
            assert!(d.qp > 0.0 && d.po > 0.0);
            assert!(d.pr_per_collection.iter().all(|&x| x > 0.0));
            assert!(d.ps_per_collection.iter().all(|&x| x >= 0.0));
            assert!(d.ap_per_paragraph.iter().all(|&x| x > 0.0));
        }
    }
}
