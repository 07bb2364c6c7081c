//! The five pipeline modules and per-module timing records.
//!
//! Fig. 1 of the paper: Question Processing → Paragraph Retrieval →
//! Paragraph Scoring → Paragraph Ordering → Answer Processing. Table 2
//! classifies PR, PS and AP as *iterative* (partitionable) with collection or
//! paragraph granularity, while QP and PO are inherently sequential.

use serde::Serialize;
use std::fmt;
use std::ops::{Add, AddAssign};
use std::time::Duration;

/// One of the five modules of the sequential Q/A architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub enum QaModule {
    /// Question Processing: answer-type detection + keyword extraction.
    Qp,
    /// Paragraph Retrieval: Boolean IR plus paragraph extraction.
    Pr,
    /// Paragraph Scoring: three surface-text heuristics.
    Ps,
    /// Paragraph Ordering: sort by rank and filter with a threshold.
    Po,
    /// Answer Processing: candidate detection, answer windows, ranking.
    Ap,
}

impl fmt::Display for QaModule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            QaModule::Qp => "QP",
            QaModule::Pr => "PR",
            QaModule::Ps => "PS",
            QaModule::Po => "PO",
            QaModule::Ap => "AP",
        };
        f.write_str(s)
    }
}

/// Wall-clock time attributed to each module for one question.
///
/// This is the record behind Tables 2 and 8 of the paper. Stored as `f64`
/// seconds so the same type serves both real measurements (`qa-pipeline`)
/// and simulated virtual time (`cluster-sim`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize)]
pub struct ModuleTimings {
    /// Question processing seconds.
    pub qp: f64,
    /// Paragraph retrieval seconds.
    pub pr: f64,
    /// Paragraph scoring seconds.
    pub ps: f64,
    /// Paragraph ordering seconds.
    pub po: f64,
    /// Answer processing seconds.
    pub ap: f64,
    /// Distribution/partitioning overhead seconds (zero for sequential runs).
    pub overhead: f64,
}

impl ModuleTimings {
    /// Access one module's time.
    pub fn get(&self, m: QaModule) -> f64 {
        match m {
            QaModule::Qp => self.qp,
            QaModule::Pr => self.pr,
            QaModule::Ps => self.ps,
            QaModule::Po => self.po,
            QaModule::Ap => self.ap,
        }
    }

    /// Set one module's time.
    pub fn set(&mut self, m: QaModule, secs: f64) {
        match m {
            QaModule::Qp => self.qp = secs,
            QaModule::Pr => self.pr = secs,
            QaModule::Ps => self.ps = secs,
            QaModule::Po => self.po = secs,
            QaModule::Ap => self.ap = secs,
        }
    }

    /// Accumulate time onto one module.
    pub fn accumulate(&mut self, m: QaModule, secs: f64) {
        let cur = self.get(m);
        self.set(m, cur + secs);
    }

    /// Record a real elapsed duration against a module.
    pub fn add_duration(&mut self, m: QaModule, d: Duration) {
        self.accumulate(m, d.as_secs_f64());
    }

    /// Total question time including overhead (the paper's "question
    /// response time (including overhead)" column of Table 8).
    pub fn total(&self) -> f64 {
        self.qp + self.pr + self.ps + self.po + self.ap + self.overhead
    }

    /// Fraction of the task each module accounts for, in pipeline order
    /// (Table 2's "% of task time" column). Returns `None` when total is 0.
    pub fn percentages(&self) -> Option<[f64; 5]> {
        let t = self.total();
        if t <= 0.0 {
            return None;
        }
        Some([
            self.qp / t * 100.0,
            self.pr / t * 100.0,
            self.ps / t * 100.0,
            self.po / t * 100.0,
            self.ap / t * 100.0,
        ])
    }

    /// Element-wise average of a set of timings (e.g. over a question set).
    pub fn mean<'a>(items: impl IntoIterator<Item = &'a ModuleTimings>) -> ModuleTimings {
        let mut sum = ModuleTimings::default();
        let mut n = 0usize;
        for t in items {
            sum += *t;
            n += 1;
        }
        if n == 0 {
            return sum;
        }
        let n = n as f64;
        ModuleTimings {
            qp: sum.qp / n,
            pr: sum.pr / n,
            ps: sum.ps / n,
            po: sum.po / n,
            ap: sum.ap / n,
            overhead: sum.overhead / n,
        }
    }
}

impl Add for ModuleTimings {
    type Output = ModuleTimings;
    fn add(self, rhs: ModuleTimings) -> ModuleTimings {
        ModuleTimings {
            qp: self.qp + rhs.qp,
            pr: self.pr + rhs.pr,
            ps: self.ps + rhs.ps,
            po: self.po + rhs.po,
            ap: self.ap + rhs.ap,
            overhead: self.overhead + rhs.overhead,
        }
    }
}

impl AddAssign for ModuleTimings {
    fn add_assign(&mut self, rhs: ModuleTimings) {
        *self = *self + rhs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_includes_overhead() {
        let t = ModuleTimings {
            qp: 1.0,
            pr: 2.0,
            ps: 3.0,
            po: 4.0,
            ap: 5.0,
            overhead: 0.5,
        };
        assert!((t.total() - 15.5).abs() < 1e-12);
    }

    #[test]
    fn percentages_sum_close_to_100_without_overhead() {
        let t = ModuleTimings {
            qp: 1.0,
            pr: 2.0,
            ps: 3.0,
            po: 4.0,
            ap: 5.0,
            overhead: 0.0,
        };
        let p = t.percentages().unwrap();
        assert!((p.iter().sum::<f64>() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn percentages_none_for_zero_total() {
        assert!(ModuleTimings::default().percentages().is_none());
    }

    #[test]
    fn get_set_add_round_trip() {
        let mut t = ModuleTimings::default();
        for m in [
            QaModule::Qp,
            QaModule::Pr,
            QaModule::Ps,
            QaModule::Po,
            QaModule::Ap,
        ] {
            t.set(m, 2.0);
            t.accumulate(m, 1.0);
            assert_eq!(t.get(m), 3.0);
        }
    }

    #[test]
    fn mean_averages_elementwise() {
        let a = ModuleTimings {
            qp: 1.0,
            pr: 2.0,
            ..Default::default()
        };
        let b = ModuleTimings {
            qp: 3.0,
            pr: 6.0,
            ..Default::default()
        };
        let m = ModuleTimings::mean([&a, &b]);
        assert_eq!(m.qp, 2.0);
        assert_eq!(m.pr, 4.0);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        let m = ModuleTimings::mean(std::iter::empty());
        assert_eq!(m.total(), 0.0);
    }
}
