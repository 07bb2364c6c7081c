//! Calibration profiles taken from the paper's measurements.
//!
//! The discrete-event simulator (`cluster-sim`) does not run real NLP on
//! 3 GB of news text; instead it replays the *service demands* the paper
//! measured on its Pentium III cluster. Two profiles are provided:
//!
//! * [`Trec8Profile`] — Table 2, TREC-8 column (48 s average question,
//!   2 GB collection);
//! * [`Trec9Profile`] — Table 2, TREC-9 column plus the absolute module
//!   times of Table 8 (1-processor row: 158.47 s for the 307 "complex"
//!   questions used in the intra-question experiments, 94 s for the average
//!   question).

use crate::modules::ModuleTimings;
use crate::resources::ResourceWeights;

/// Measured per-module service demands plus resource mix for one platform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModuleProfile {
    /// Mean sequential execution times per module (seconds).
    pub times: ModuleTimings,
    /// Number of sub-collections the collection is divided into
    /// (PR granularity).
    pub sub_collections: usize,
    /// Mean number of paragraphs retrieved by PR.
    pub paragraphs_retrieved: usize,
    /// Mean number of paragraphs accepted by PO (AP granularity).
    pub paragraphs_accepted: usize,
    /// Coefficient of variation of per-sub-collection PR demand. The Q226
    /// trace shows 0.19–1.52 s per collection, i.e. high variance.
    pub pr_granularity_cv: f64,
    /// Coefficient of variation of per-paragraph AP demand.
    pub ap_granularity_cv: f64,
    /// Memory required by one in-flight question, bytes (25–40 MB measured).
    pub question_memory_lo: u64,
    /// Upper bound of the per-question memory band, bytes.
    pub question_memory_hi: u64,
    /// Per-node memory, bytes (256 MB on the paper's cluster).
    pub node_memory: u64,
    /// Whole-task resource weights (Table 3 row "QA").
    pub qa_weights: ResourceWeights,
    /// PR resource weights (Table 3 row "PR").
    pub pr_weights: ResourceWeights,
    /// AP resource weights (Table 3 row "AP").
    pub ap_weights: ResourceWeights,
}

impl ModuleProfile {
    /// Average sequential question time `T̄` (Eq. 10 denominator).
    pub fn sequential_total(&self) -> f64 {
        self.times.total()
    }

    /// Time of the inherently sequential part `T_QP + T_PO` (part of Eq. 33).
    pub fn sequential_fixed(&self) -> f64 {
        self.times.qp + self.times.po
    }
}

/// Marker type exposing the TREC-8 profile (Table 2, first column).
pub struct Trec8Profile;

impl Trec8Profile {
    /// Table 2 percentages applied to the 48 s average TREC-8 question.
    pub fn profile() -> ModuleProfile {
        let total = 48.0;
        ModuleProfile {
            times: ModuleTimings {
                qp: 0.011 * total,
                pr: 0.444 * total,
                ps: 0.054 * total,
                po: 0.001 * total,
                ap: 0.487 * total,
                overhead: 0.0,
            },
            sub_collections: 8,
            paragraphs_retrieved: 1000,
            paragraphs_accepted: 600,
            pr_granularity_cv: 0.8,
            ap_granularity_cv: 0.5,
            question_memory_lo: 25 << 20,
            question_memory_hi: 40 << 20,
            node_memory: 256 << 20,
            qa_weights: ResourceWeights::QA,
            pr_weights: ResourceWeights::PR,
            ap_weights: ResourceWeights::AP,
        }
    }
}

/// Marker type exposing the TREC-9 profiles.
pub struct Trec9Profile;

impl Trec9Profile {
    /// The *average* TREC-9 question (Table 2 percentages on 94 s total).
    pub fn average() -> ModuleProfile {
        let total = 94.0;
        ModuleProfile {
            times: ModuleTimings {
                qp: 0.012 * total,
                pr: 0.265 * total,
                ps: 0.022 * total,
                po: 0.001 * total,
                ap: 0.697 * total,
                overhead: 0.0,
            },
            ..Self::complex()
        }
    }

    /// The "complex" question profile of Table 8 (307 questions with at
    /// least 20 paragraphs per AP module on 12 nodes): absolute 1-processor
    /// module times.
    pub fn complex() -> ModuleProfile {
        ModuleProfile {
            times: ModuleTimings {
                qp: 0.81,
                pr: 38.01,
                ps: 2.06,
                po: 0.02,
                ap: 117.55,
                overhead: 0.0,
            },
            sub_collections: 8,
            paragraphs_retrieved: 1500,
            paragraphs_accepted: 880,
            // The Q226 trace shows per-collection PR times of 0.19–1.52 s
            // around a ~0.66 s mean: CV ≈ 0.65.
            pr_granularity_cv: 0.65,
            ap_granularity_cv: 0.5,
            question_memory_lo: 25 << 20,
            question_memory_hi: 40 << 20,
            node_memory: 256 << 20,
            qa_weights: ResourceWeights::QA,
            pr_weights: ResourceWeights::PR,
            ap_weights: ResourceWeights::AP,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trec9_complex_matches_table8_row1() {
        let p = Trec9Profile::complex();
        assert_eq!(p.times.qp, 0.81);
        assert_eq!(p.times.pr, 38.01);
        assert_eq!(p.times.ps, 2.06);
        assert_eq!(p.times.po, 0.02);
        assert_eq!(p.times.ap, 117.55);
        // Table 8's 1-processor response time is 158.47 s; the module times
        // printed in the paper sum to 158.45 (rounding in the source table).
        assert!((p.sequential_total() - 158.45).abs() < 0.05);
    }

    #[test]
    fn trec9_average_percentages_match_table2() {
        let p = Trec9Profile::average();
        let pct = p.times.percentages().unwrap();
        // The Table-2 column does not sum to exactly 100 % (rounding), so the
        // reconstructed percentages land within half a point.
        assert!((pct[0] - 1.2).abs() < 0.1, "QP {}", pct[0]);
        assert!((pct[1] - 26.5).abs() < 0.5, "PR {}", pct[1]);
        assert!((pct[4] - 69.7).abs() < 0.5, "AP {}", pct[4]);
    }

    #[test]
    fn trec8_bottlenecks_are_pr_and_ap() {
        let p = Trec8Profile::profile();
        assert!(p.times.pr > 20.0 && p.times.ap > 20.0);
        assert!(p.times.qp < 1.0 && p.times.po < 0.1);
    }

    #[test]
    fn parallelizable_fraction_exceeds_90_percent() {
        // Section 5.2: "over 90% of the overall execution time can be
        // parallelized".
        for p in [
            Trec8Profile::profile(),
            Trec9Profile::average(),
            Trec9Profile::complex(),
        ] {
            // T_par = T_PR + T_PS + T_AP (Eq. 32).
            let parallelizable = p.times.pr + p.times.ps + p.times.ap;
            assert!(parallelizable / p.sequential_total() > 0.90);
        }
    }

    #[test]
    fn memory_band_matches_section6() {
        let p = Trec9Profile::complex();
        assert_eq!(p.question_memory_lo, 25 << 20);
        assert_eq!(p.question_memory_hi, 40 << 20);
        assert_eq!(p.node_memory, 256 << 20);
        // Four simultaneous questions fit; more than four overload (§6).
        assert!(4 * p.question_memory_hi <= p.node_memory + (64 << 20));
    }
}
