//! Intra-question parallelism model (Eqs. 24–36).
//!
//! The question time on `N` nodes splits into (Eq. 31)
//!
//! ```text
//! T_N = T_par / N + T_seq
//! T_par = T_PR + T_PS + T_AP                               (Eq. 32)
//! T_seq = T_QP + T_PO + T_ctl
//!       + (N_p + N_pa)·S_par / B_net                        (network copy)
//!       + κ·(N_p + N_pa)·S_par / B_disk                     (merging reads)
//! ```
//!
//! where `T_ctl` is the constant CPU cost of the partition-control modules
//! and `κ` the disk read amplification (Eq. 33 with the two calibration
//! constants made explicit). `T_PR` itself is disk-bound: its disk portion
//! (80 %, Table 3) rescales with the modeled disk bandwidth relative to the
//! measurement platform — this is why Fig. 9b's speedup *decreases* as disk
//! bandwidth increases ("T_par decreases as disk bandwidth increases, hence
//! the distribution overhead becomes comparatively more significant").
//!
//! The practical processor limit is where the shrinking parallel part stops
//! dominating: `N_max = ⌊T_par / T_seq⌋` (Eq. 34).

use qa_types::{ModuleProfile, SystemParams};

/// The intra-question speedup model.
///
/// # Examples
/// ```
/// use analytical::IntraQuestionModel;
/// use qa_types::{SystemParams, Trec9Profile};
///
/// let model = IntraQuestionModel::new(SystemParams::trec9(), Trec9Profile::complex());
/// assert!((model.speedup(1) - 1.0).abs() < 1e-9);
/// let (n_max, s) = model.practical_limit();
/// assert!(n_max > 10 && s > 5.0, "partitioning pays well below the limit");
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntraQuestionModel {
    /// Model parameters (bandwidths, paragraph counts/sizes, …).
    pub params: SystemParams,
    /// Question profile measured at `params.ref_disk_bandwidth`.
    pub profile: ModuleProfile,
}

impl IntraQuestionModel {
    /// Build from parameters and a question profile.
    pub fn new(params: SystemParams, profile: ModuleProfile) -> Self {
        Self { params, profile }
    }

    /// `T_PR` rescaled to the modeled disk bandwidth.
    pub fn t_pr(&self) -> f64 {
        let w = self.profile.pr_weights;
        let scale = self.params.ref_disk_bandwidth / self.params.disk_bandwidth;
        self.profile.times.pr * (w.cpu + w.disk * scale)
    }

    /// The parallelizable part `T_par` (Eq. 32), disk-rescaled.
    pub fn t_par(&self) -> f64 {
        self.t_pr() + self.profile.times.ps + self.profile.times.ap
    }

    /// The sequential remainder `T_seq` (Eq. 33).
    pub fn t_seq(&self) -> f64 {
        let p = &self.params;
        let payload = p.retrieved_bytes() + p.accepted_bytes();
        self.profile.sequential_fixed()
            + p.partition_constant_secs
            + payload / p.net_bandwidth
            + p.disk_read_amplification * payload / p.disk_bandwidth
    }

    /// Sequential (1-node, no partitioning) question time at the modeled
    /// disk bandwidth.
    pub fn t1(&self) -> f64 {
        self.profile.sequential_fixed() + self.t_par()
    }

    /// Question time on `N` nodes (Eq. 31).
    pub fn t_n(&self, n: usize) -> f64 {
        if n == 0 {
            return f64::INFINITY;
        }
        if n == 1 {
            return self.t1();
        }
        self.t_seq() + self.t_par() / n as f64
    }

    /// Individual question speedup (Eq. 36).
    pub fn speedup(&self, n: usize) -> f64 {
        self.t1() / self.t_n(n)
    }

    /// Practical upper limit on the processor count (Eq. 34):
    /// the `N` at which `T_par / N` drops to `T_seq`.
    pub fn n_max(&self) -> usize {
        (self.t_par() / self.t_seq()).floor().max(1.0) as usize
    }

    /// A Table-4 cell: `(N_max, speedup at N_max)`.
    pub fn practical_limit(&self) -> (usize, f64) {
        let n = self.n_max();
        (n, self.speedup(n))
    }

    /// Asymptotic speedup as `N → ∞`.
    pub fn speedup_limit(&self) -> f64 {
        self.t1() / self.t_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::params::{GBPS, MBPS};
    use qa_types::Trec9Profile;

    fn model(net_mbps: f64, disk_mbps: f64) -> IntraQuestionModel {
        IntraQuestionModel::new(
            SystemParams::trec9()
                .with_net_bandwidth(net_mbps * MBPS)
                .with_disk_bandwidth(disk_mbps * MBPS),
            Trec9Profile::complex(),
        )
    }

    #[test]
    fn speedup_of_one_is_one() {
        let m = model(100.0, 100.0);
        assert!((m.speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn table4_disk_100mbps_row_matches_paper() {
        // Paper row (disk 100 Mbps): N = 17, 64, 89, 93 for nets of
        // 1 Mbps, 10 Mbps, 100 Mbps, 1 Gbps. The calibrated model must land
        // within ±3 of each.
        let expected = [(1.0, 17i64), (10.0, 64), (100.0, 89), (1000.0, 93)];
        for (net, n_paper) in expected {
            let n = model(net, 100.0).n_max() as i64;
            assert!(
                (n - n_paper).abs() <= 3,
                "net {net} Mbps: N_max {n} vs paper {n_paper}"
            );
        }
    }

    #[test]
    fn table4_speedups_track_paper_factors() {
        // Paper speedups for the disk=100 Mbps row: 8.65, 32.84, 45.75, 47.73.
        let expected = [(1.0, 8.65), (10.0, 32.84), (100.0, 45.75), (1000.0, 47.73)];
        for (net, s_paper) in expected {
            let (_, s) = model(net, 100.0).practical_limit();
            let ratio = s / s_paper;
            assert!(
                (0.8..=1.25).contains(&ratio),
                "net {net} Mbps: speedup {s:.2} vs paper {s_paper} (ratio {ratio:.2})"
            );
        }
    }

    #[test]
    fn n_max_grows_with_network_bandwidth() {
        for disk in [100.0, 250.0, 500.0, 1000.0] {
            let ns: Vec<usize> = [1.0, 10.0, 100.0, 1000.0]
                .iter()
                .map(|&net| model(net, disk).n_max())
                .collect();
            for w in ns.windows(2) {
                assert!(w[0] <= w[1], "N_max not monotone in net bw: {ns:?}");
            }
        }
    }

    #[test]
    fn n_max_shrinks_with_disk_bandwidth() {
        // Table 4's columns: faster disks lower the practical limit because
        // T_par shrinks while the distribution overhead does not.
        for net in [1.0, 10.0, 100.0, 1000.0] {
            let n_slow = model(net, 100.0).n_max();
            let n_fast = model(net, 1000.0).n_max();
            assert!(
                n_fast <= n_slow,
                "net {net}: N_max grew with disk bw ({n_slow} -> {n_fast})"
            );
        }
    }

    #[test]
    fn practical_range_spans_roughly_10_to_100() {
        // Abstract: "practical up to about 90 processors, depending on the
        // system parameters"; Table 4 spans 11–93.
        let mut lo = usize::MAX;
        let mut hi = 0;
        for net in [1.0, 10.0, 100.0, 1000.0] {
            for disk in [100.0, 250.0, 500.0, 1000.0] {
                let n = model(net, disk).n_max();
                lo = lo.min(n);
                hi = hi.max(n);
            }
        }
        assert!((8..=25).contains(&lo), "lower bound {lo}");
        assert!((80..=130).contains(&hi), "upper bound {hi}");
    }

    #[test]
    fn speedup_decreases_with_disk_bandwidth_fig9b() {
        let s_slow = model(1000.0, 100.0).speedup(60);
        let s_fast = model(1000.0, 1000.0).speedup(60);
        assert!(
            s_slow > s_fast,
            "Fig 9b inversion: {s_slow:.1} !> {s_fast:.1}"
        );
    }

    #[test]
    fn speedup_increases_with_network_bandwidth_fig9a() {
        let s_slow = model(1.0, 1000.0).speedup(60);
        let s_fast = model(1000.0, 1000.0).speedup(60);
        assert!(s_fast > s_slow);
    }

    #[test]
    fn speedup_saturates_below_limit() {
        let m = model(100.0, 100.0);
        let lim = m.speedup_limit();
        for n in [10, 50, 100, 1000, 100000] {
            assert!(m.speedup(n) < lim);
        }
        assert!(m.speedup(100000) > 0.95 * lim);
    }

    #[test]
    fn t_n_degenerate_inputs() {
        let m = model(100.0, 100.0);
        assert!(m.t_n(0).is_infinite());
        assert!((m.t_n(1) - m.t1()).abs() < 1e-12);
    }

    #[test]
    fn gigabit_everything_uses_params_constructor() {
        let m = IntraQuestionModel::new(
            SystemParams::trec9()
                .with_net_bandwidth(GBPS)
                .with_disk_bandwidth(GBPS),
            Trec9Profile::complex(),
        );
        assert!(m.n_max() > 10);
    }
}
