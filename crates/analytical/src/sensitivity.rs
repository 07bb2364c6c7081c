//! Parameter sensitivity analysis of the analytical model.
//!
//! Table 4 varies two parameters (network and disk bandwidth); this module
//! generalizes the exercise: perturb each model parameter by a relative
//! factor and report how the practical processor limit `N_max` and the
//! asymptotic question speedup move. Useful both as a robustness check on
//! the calibration (DESIGN.md §5) and as a capacity-planning tool —
//! "which knob should we actually buy hardware for?"

use crate::intra::IntraQuestionModel;
use qa_types::{ModuleProfile, SystemParams};

/// The perturbable parameters of the intra-question model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parameter {
    /// `B_net` — network bandwidth.
    NetBandwidth,
    /// `B_disk` — disk bandwidth.
    DiskBandwidth,
    /// `N_p` — paragraphs retrieved.
    ParagraphsRetrieved,
    /// `N_pa` — paragraphs accepted.
    ParagraphsAccepted,
    /// `S_par` — paragraph size.
    ParagraphBytes,
    /// `T_ctl` — constant partition-control cost.
    PartitionConstant,
    /// Disk read amplification `κ`.
    ReadAmplification,
}

impl Parameter {
    /// Every perturbable parameter.
    pub const ALL: [Parameter; 7] = [
        Parameter::NetBandwidth,
        Parameter::DiskBandwidth,
        Parameter::ParagraphsRetrieved,
        Parameter::ParagraphsAccepted,
        Parameter::ParagraphBytes,
        Parameter::PartitionConstant,
        Parameter::ReadAmplification,
    ];

    /// Apply a multiplicative factor to this parameter.
    pub fn scale(self, mut params: SystemParams, factor: f64) -> SystemParams {
        match self {
            Parameter::NetBandwidth => params.net_bandwidth *= factor,
            Parameter::DiskBandwidth => params.disk_bandwidth *= factor,
            Parameter::ParagraphsRetrieved => params.paragraphs_retrieved *= factor,
            Parameter::ParagraphsAccepted => params.paragraphs_accepted *= factor,
            Parameter::ParagraphBytes => params.paragraph_bytes *= factor,
            Parameter::PartitionConstant => params.partition_constant_secs *= factor,
            Parameter::ReadAmplification => params.disk_read_amplification *= factor,
        }
        params
    }
}

/// Effect of one parameter perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sensitivity {
    /// Which parameter was perturbed.
    pub parameter: Parameter,
    /// The multiplicative factor applied.
    pub factor: f64,
    /// `N_max` at baseline.
    pub n_max_base: usize,
    /// `N_max` after perturbation.
    pub n_max: usize,
    /// Asymptotic speedup at baseline.
    pub limit_base: f64,
    /// Asymptotic speedup after perturbation.
    pub limit: f64,
}

impl Sensitivity {
    /// Relative change of `N_max` per relative change of the parameter
    /// (a finite-difference elasticity).
    pub fn elasticity(&self) -> f64 {
        let dp = self.factor - 1.0;
        if dp.abs() < 1e-12 || self.n_max_base == 0 {
            return 0.0;
        }
        let dn = (self.n_max as f64 - self.n_max_base as f64) / self.n_max_base as f64;
        dn / dp
    }
}

/// Perturb every parameter by `factor` and collect the effects.
pub fn sweep(params: SystemParams, profile: ModuleProfile, factor: f64) -> Vec<Sensitivity> {
    let base = IntraQuestionModel::new(params, profile);
    let n_max_base = base.n_max();
    let limit_base = base.speedup_limit();
    Parameter::ALL
        .iter()
        .map(|&p| {
            let m = IntraQuestionModel::new(p.scale(params, factor), profile);
            Sensitivity {
                parameter: p,
                factor,
                n_max_base,
                n_max: m.n_max(),
                limit_base,
                limit: m.speedup_limit(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::Trec9Profile;

    fn base() -> (SystemParams, ModuleProfile) {
        (SystemParams::trec9(), Trec9Profile::complex())
    }

    #[test]
    fn sweep_covers_every_parameter() {
        let (p, prof) = base();
        let s = sweep(p, prof, 1.5);
        assert_eq!(s.len(), Parameter::ALL.len());
        let params: Vec<_> = s.iter().map(|x| x.parameter).collect();
        for want in Parameter::ALL {
            assert!(params.contains(&want));
        }
    }

    #[test]
    fn identity_factor_changes_nothing() {
        let (p, prof) = base();
        for s in sweep(p, prof, 1.0) {
            assert_eq!(s.n_max, s.n_max_base, "{:?}", s.parameter);
            assert!((s.limit - s.limit_base).abs() < 1e-9);
            assert_eq!(s.elasticity(), 0.0);
        }
    }

    #[test]
    fn directions_match_the_model() {
        let (p, prof) = base();
        let up = sweep(p, prof, 2.0);
        let by = |param: Parameter| up.iter().find(|s| s.parameter == param).unwrap();
        // More network bandwidth → higher practical limit.
        assert!(by(Parameter::NetBandwidth).n_max >= by(Parameter::NetBandwidth).n_max_base);
        // Bigger paragraphs → more transfer overhead → lower limit.
        assert!(by(Parameter::ParagraphBytes).n_max <= by(Parameter::ParagraphBytes).n_max_base);
        // A larger constant control cost → lower limit.
        assert!(
            by(Parameter::PartitionConstant).n_max <= by(Parameter::PartitionConstant).n_max_base
        );
        // Faster disks shrink T_par → lower practical limit (Table 4 columns).
        assert!(by(Parameter::DiskBandwidth).n_max <= by(Parameter::DiskBandwidth).n_max_base);
    }

    #[test]
    fn elasticity_sign_matches_direction() {
        let (p, prof) = base();
        for s in sweep(p, prof, 1.5) {
            let dn = s.n_max as i64 - s.n_max_base as i64;
            if dn > 0 {
                assert!(s.elasticity() > 0.0, "{:?}", s.parameter);
            }
            if dn < 0 {
                assert!(s.elasticity() < 0.0, "{:?}", s.parameter);
            }
        }
    }

    #[test]
    fn scale_is_local_to_one_parameter() {
        let (p, _) = base();
        let scaled = Parameter::NetBandwidth.scale(p, 2.0);
        assert_eq!(scaled.net_bandwidth, p.net_bandwidth * 2.0);
        assert_eq!(scaled.disk_bandwidth, p.disk_bandwidth);
        assert_eq!(scaled.paragraph_bytes, p.paragraph_bytes);
    }
}
