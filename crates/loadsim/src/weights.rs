//! Empirical resource-weight measurement (§4.2, Table 3).
//!
//! "In practice, the weight associated with the CPU resource is computed as
//! the percentage spent by the CPU in a non-idle state during the module
//! execution. Because the only other resource highly utilized by the
//! sequential Q/A application is the disk, the remaining CPU cycles are
//! assumed to be spent performing I/O accesses."

use qa_types::{QaModule, ResourceWeights};
use std::collections::BTreeMap;

/// Accumulates per-module CPU/disk time and derives load-function weights.
/// Module totals live in an ordered map so that `task_weights` folds in a
/// fixed order (floating-point addition is not associative).
#[derive(Debug, Clone, Default)]
pub struct WeightEstimator {
    totals: BTreeMap<QaModule, (f64, f64)>,
}

impl WeightEstimator {
    /// Start with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one module execution: seconds of CPU work and seconds of
    /// disk work.
    pub fn record(&mut self, module: QaModule, cpu_secs: f64, disk_secs: f64) {
        let e = self.totals.entry(module).or_insert((0.0, 0.0));
        e.0 += cpu_secs.max(0.0);
        e.1 += disk_secs.max(0.0);
    }

    /// Weights for one module, `None` if unobserved or all-zero.
    pub fn weights(&self, module: QaModule) -> Option<ResourceWeights> {
        let &(cpu, disk) = self.totals.get(&module)?;
        if cpu + disk <= 0.0 {
            return None;
        }
        Some(ResourceWeights::normalized(cpu, disk))
    }

    /// Whole-task weights: totals across every observed module.
    pub fn task_weights(&self) -> Option<ResourceWeights> {
        let (cpu, disk) = self
            .totals
            .values()
            .fold((0.0, 0.0), |(c, d), &(mc, md)| (c + mc, d + md));
        if cpu + disk <= 0.0 {
            return None;
        }
        Some(ResourceWeights::normalized(cpu, disk))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_table3_from_module_times() {
        // Feed the paper's mix: PR 20 % CPU / 80 % disk, AP pure CPU.
        let mut w = WeightEstimator::new();
        w.record(QaModule::Pr, 2.0, 8.0);
        w.record(QaModule::Ap, 10.0, 0.0);
        let pr = w.weights(QaModule::Pr).unwrap();
        assert!((pr.cpu - 0.20).abs() < 1e-12);
        assert!((pr.disk - 0.80).abs() < 1e-12);
        let ap = w.weights(QaModule::Ap).unwrap();
        assert!((ap.cpu - 1.0).abs() < 1e-12);
    }

    #[test]
    fn accumulates_across_questions() {
        let mut w = WeightEstimator::new();
        w.record(QaModule::Pr, 1.0, 1.0);
        w.record(QaModule::Pr, 3.0, 1.0);
        let pr = w.weights(QaModule::Pr).unwrap();
        assert!((pr.cpu - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn task_weights_combine_modules() {
        let mut w = WeightEstimator::new();
        w.record(QaModule::Pr, 2.0, 8.0);
        w.record(QaModule::Ap, 10.0, 0.0);
        let t = w.task_weights().unwrap();
        // 12 cpu / 8 disk of 20 total.
        assert!((t.cpu - 0.6).abs() < 1e-12);
        assert!((t.disk - 0.4).abs() < 1e-12);
    }

    #[test]
    fn unobserved_module_is_none() {
        let w = WeightEstimator::new();
        assert!(w.weights(QaModule::Pr).is_none());
        assert!(w.task_weights().is_none());
    }

    #[test]
    fn negative_inputs_clamped() {
        let mut w = WeightEstimator::new();
        w.record(QaModule::Ps, -5.0, 1.0);
        let ps = w.weights(QaModule::Ps).unwrap();
        assert_eq!(ps.disk, 1.0);
    }
}
