//! Load functions (Eqs. 1–6) and under-load conditions (Eqs. 7–8).
//!
//! Using the weights measured on the paper's platform (Table 3):
//!
//! * `load_QA(P) = 0.79·cpuLoad(P) + 0.21·diskLoad(P)`   (Eq. 4)
//! * `load_PR(P) = 0.20·cpuLoad(P) + 0.80·diskLoad(P)`   (Eq. 5)
//! * `load_AP(P) = cpuLoad(P)`                            (Eq. 6)
//!
//! A node is *under-loaded* for PR/AP when its module load function is
//! below the load observed when a single such sub-task runs alone
//! (Eqs. 7–8).

use qa_types::{QaModule, ResourceVector, ResourceWeights};

/// The whole-task load function (Eq. 4).
pub fn qa_load(v: ResourceVector) -> f64 {
    ResourceWeights::QA.load(v)
}

/// The PR dispatcher's load function (Eq. 5).
pub fn pr_load(v: ResourceVector) -> f64 {
    ResourceWeights::PR.load(v)
}

/// The AP dispatcher's load function (Eq. 6).
pub fn ap_load(v: ResourceVector) -> f64 {
    ResourceWeights::AP.load(v)
}

/// Under-load condition (Eqs. 7–8): true when the module load is below the
/// single-sub-task baseline.
pub fn underloaded(module_load: f64, single_task_load: f64) -> bool {
    module_load < single_task_load
}

/// A bundle of load functions + baselines used by one deployment.
///
/// Makes the weights swappable so the ablation bench can compare Table-3
/// weights against uniform weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoadFunctions {
    /// Whole-task weights (question dispatcher).
    pub qa: ResourceWeights,
    /// PR dispatcher weights.
    pub pr: ResourceWeights,
    /// AP dispatcher weights.
    pub ap: ResourceWeights,
    /// Load of a single PR sub-task running alone (the Eq. 7 baseline).
    pub pr_single_task_load: f64,
    /// Load of a single AP sub-task running alone (the Eq. 8 baseline).
    pub ap_single_task_load: f64,
}

impl LoadFunctions {
    /// The paper's measured configuration: Table-3 weights with baselines
    /// derived from the §4.2 experiment (a single PR sub-task saturates
    /// ~80 % of the disk; a single AP sub-task saturates one CPU).
    pub fn paper() -> Self {
        Self {
            qa: ResourceWeights::QA,
            pr: ResourceWeights::PR,
            ap: ResourceWeights::AP,
            pr_single_task_load: pr_load(ResourceVector::new(0.2, 0.8)),
            ap_single_task_load: ap_load(ResourceVector::new(1.0, 0.0)),
        }
    }

    /// Evaluate the load function a dispatcher uses for `module`.
    pub fn load_for(&self, module: QaModule, v: ResourceVector) -> f64 {
        match module {
            QaModule::Pr => self.pr.load(v),
            QaModule::Ap => self.ap.load(v),
            _ => self.qa.load(v),
        }
    }

    /// The under-load condition for `module` (only PR and AP have one).
    pub fn is_underloaded(&self, module: QaModule, v: ResourceVector) -> bool {
        match module {
            QaModule::Pr => underloaded(self.pr.load(v), self.pr_single_task_load),
            QaModule::Ap => underloaded(self.ap.load(v), self.ap_single_task_load),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq4_eq5_eq6_values() {
        let v = ResourceVector::new(1.0, 0.5);
        assert!((qa_load(v) - (0.79 + 0.21 * 0.5)).abs() < 1e-12);
        assert!((pr_load(v) - (0.20 + 0.80 * 0.5)).abs() < 1e-12);
        assert!((ap_load(v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn idle_node_is_underloaded_for_both_modules() {
        let f = LoadFunctions::paper();
        let idle = ResourceVector::new(0.0, 0.0);
        assert!(f.is_underloaded(QaModule::Pr, idle));
        assert!(f.is_underloaded(QaModule::Ap, idle));
    }

    #[test]
    fn busy_node_is_not_underloaded() {
        let f = LoadFunctions::paper();
        // One AP sub-task already saturates the CPU (Eq. 8 baseline).
        let busy_cpu = ResourceVector::new(1.0, 0.0);
        assert!(!f.is_underloaded(QaModule::Ap, busy_cpu));
        // One PR sub-task already saturates the disk at 0.8.
        let busy_disk = ResourceVector::new(0.2, 0.8);
        assert!(!f.is_underloaded(QaModule::Pr, busy_disk));
    }

    #[test]
    fn disk_load_does_not_affect_ap_underload() {
        let f = LoadFunctions::paper();
        let disk_only = ResourceVector::new(0.0, 1.0);
        assert!(
            f.is_underloaded(QaModule::Ap, disk_only),
            "AP cares about CPU only (Eq. 6)"
        );
    }

    #[test]
    fn qa_module_never_underloaded_condition() {
        let f = LoadFunctions::paper();
        assert!(!f.is_underloaded(QaModule::Qp, ResourceVector::new(0.0, 0.0)));
        assert!(!f.is_underloaded(QaModule::Po, ResourceVector::new(0.0, 0.0)));
    }

    #[test]
    fn load_for_dispatches_to_module_weights() {
        let f = LoadFunctions::paper();
        let v = ResourceVector::new(0.4, 0.9);
        assert_eq!(f.load_for(QaModule::Pr, v), pr_load(v));
        assert_eq!(f.load_for(QaModule::Ap, v), ap_load(v));
        assert_eq!(f.load_for(QaModule::Qp, v), qa_load(v));
    }
}
