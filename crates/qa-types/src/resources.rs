//! Resources and the weighted load-function machinery.
//!
//! The paper's load functions (Eqs. 1–3) are weighted sums of per-resource
//! loads: `load(P) = w_cpu · cpuLoad(P) + w_disk · diskLoad(P)` where the
//! weights equal the fraction of module execution time spent on each
//! resource (Table 3).

/// A per-resource measurement: utilization (0.0 = idle, 1.0 = saturated) or
/// queue length, depending on context.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ResourceVector {
    /// CPU load.
    pub cpu: f64,
    /// Disk load.
    pub disk: f64,
}

impl ResourceVector {
    /// Construct from components.
    pub const fn new(cpu: f64, disk: f64) -> Self {
        Self { cpu, disk }
    }
}

/// Weights of a load function: how significant each resource is for a task.
///
/// Invariant: both weights are non-negative; they typically sum to 1 because
/// they are measured as fractions of execution time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResourceWeights {
    /// Weight of the CPU load component.
    pub cpu: f64,
    /// Weight of the disk load component.
    pub disk: f64,
}

impl ResourceWeights {
    /// Weights measured for the whole Q/A task on the paper's platform
    /// (Table 3, first row).
    pub const QA: ResourceWeights = ResourceWeights {
        cpu: 0.79,
        disk: 0.21,
    };
    /// Weights for the Paragraph Retrieval module (Table 3, second row).
    pub const PR: ResourceWeights = ResourceWeights {
        cpu: 0.20,
        disk: 0.80,
    };
    /// Weights for the Answer Processing module (Table 3, third row).
    pub const AP: ResourceWeights = ResourceWeights {
        cpu: 1.00,
        disk: 0.00,
    };
    /// Uniform weights, used by the ablation bench.
    pub const UNIFORM: ResourceWeights = ResourceWeights {
        cpu: 0.5,
        disk: 0.5,
    };

    /// Construct weights, normalizing so they sum to 1 (when nonzero).
    pub fn normalized(cpu: f64, disk: f64) -> Self {
        let s = cpu + disk;
        if s > 0.0 {
            Self {
                cpu: cpu / s,
                disk: disk / s,
            }
        } else {
            Self::UNIFORM
        }
    }

    /// Evaluate the weighted load function (Eqs. 1–3) for a load vector.
    pub fn load(&self, v: ResourceVector) -> f64 {
        self.cpu * v.cpu + self.disk * v.disk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_constants_match_paper() {
        assert_eq!(ResourceWeights::QA.cpu, 0.79);
        assert_eq!(ResourceWeights::QA.disk, 0.21);
        assert_eq!(ResourceWeights::PR.cpu, 0.20);
        assert_eq!(ResourceWeights::PR.disk, 0.80);
        assert_eq!(ResourceWeights::AP.cpu, 1.00);
        assert_eq!(ResourceWeights::AP.disk, 0.00);
    }

    #[test]
    fn load_is_weighted_sum() {
        let v = ResourceVector::new(0.5, 1.0);
        // Eq. 5: 0.2 * 0.5 + 0.8 * 1.0
        assert!((ResourceWeights::PR.load(v) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ap_load_ignores_disk() {
        let low_disk = ResourceVector::new(0.7, 0.0);
        let high_disk = ResourceVector::new(0.7, 1.0);
        assert_eq!(
            ResourceWeights::AP.load(low_disk),
            ResourceWeights::AP.load(high_disk)
        );
    }

    #[test]
    fn normalized_sums_to_one() {
        let w = ResourceWeights::normalized(2.0, 6.0);
        assert!((w.cpu - 0.25).abs() < 1e-12);
        assert!((w.disk - 0.75).abs() < 1e-12);
    }

    #[test]
    fn normalized_zero_falls_back_to_uniform() {
        assert_eq!(
            ResourceWeights::normalized(0.0, 0.0),
            ResourceWeights::UNIFORM
        );
    }
}
