//! Inter-question parallelism model (Eqs. 9–23).
//!
//! `S(N) = N / (1 + T_overhead(N) / T̄)` (Eq. 12), where the per-question
//! distribution overhead (Eq. 13) is the sum of:
//!
//! * **load monitoring** (Eq. 14): once per second for the duration of the
//!   question, each node measures its load (`T_loc`), broadcasts a packet on
//!   a medium shared by all `N` simultaneous broadcasters, and stores `N`
//!   received packets to memory;
//! * **dispatching** (Eq. 15): three dispatchers each scan the `N`-entry
//!   load table;
//! * **migration** (Eq. 20): with probabilities `p_QA`, `p_PR`, `p_AP` the
//!   question/keywords/paragraphs travel over a network whose per-flow
//!   bandwidth is `B_net / (N·q·p_net)` — `q` simultaneous questions per
//!   node, each on the wire with probability `p_net`.

use qa_types::{ModuleProfile, SystemParams};

/// The inter-question speedup model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterQuestionModel {
    /// Model parameters (`B_net`, migration probabilities, …).
    pub params: SystemParams,
    /// Average question execution profile (`T̄` and module times).
    pub profile: ModuleProfile,
}

impl InterQuestionModel {
    /// Build from parameters and a question profile.
    pub fn new(params: SystemParams, profile: ModuleProfile) -> Self {
        Self { params, profile }
    }

    /// Average sequential question time `T̄`.
    pub fn t_bar(&self) -> f64 {
        self.profile.sequential_total()
    }

    /// Load-monitoring overhead per question (Eq. 14).
    pub fn monitoring_overhead(&self, n: usize) -> f64 {
        let p = &self.params;
        let n = n as f64;
        let per_second = p.load_measure_secs
            + p.load_packet_bytes * n / p.net_bandwidth
            + n * p.load_packet_bytes / p.mem_bandwidth;
        self.t_bar() * per_second
    }

    /// Dispatcher-scan overhead per question (Eq. 15): three dispatchers,
    /// each linear in `N`.
    pub fn dispatch_overhead(&self, n: usize) -> f64 {
        3.0 * self.params.dispatch_scan_secs_per_node * n as f64
    }

    /// Migration overhead per question (Eqs. 16–20).
    pub fn migration_overhead(&self, n: usize) -> f64 {
        let p = &self.params;
        // Bytes that cross the network when each dispatcher fires, weighted
        // by its firing probability. Question migration moves the question
        // out and the answers back (Eq. 17); PR migration moves keywords out
        // and paragraphs back (Eq. 18, keyword term negligible); AP migration
        // moves accepted paragraphs out and answers back (Eq. 19). Both
        // directions are charged.
        let qa_bytes = p.p_migrate_qa * (p.question_bytes + p.answers_requested * p.answer_bytes);
        let pr_bytes =
            p.p_migrate_pr * (p.keywords_per_question * p.keyword_bytes + p.retrieved_bytes());
        let ap_bytes = p.p_migrate_ap * (p.accepted_bytes() + p.answers_requested * p.answer_bytes);
        let bytes = 2.0 * (qa_bytes + pr_bytes + ap_bytes);
        // Effective per-flow bandwidth: B_net shared by N·q·p_net flows.
        let contention = (n as f64 * p.questions_per_node * p.p_net).max(1.0);
        bytes * contention / p.net_bandwidth
    }

    /// Total distribution overhead per question (Eq. 21).
    pub fn distribution_overhead(&self, n: usize) -> f64 {
        self.monitoring_overhead(n) + self.dispatch_overhead(n) + self.migration_overhead(n)
    }

    /// System speedup over one node for the same workload (Eq. 23).
    pub fn speedup(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let t = self.t_bar();
        n as f64 * t / (t + self.distribution_overhead(n))
    }

    /// Efficiency `E = S/N`.
    pub fn efficiency(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        self.speedup(n) / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::params::{GBPS, MBPS};
    use qa_types::Trec9Profile;

    fn model(net: f64) -> InterQuestionModel {
        InterQuestionModel::new(
            SystemParams::trec9().with_net_bandwidth(net),
            Trec9Profile::average(),
        )
    }

    #[test]
    fn speedup_of_one_node_is_one() {
        let m = model(GBPS);
        let s = m.speedup(1);
        assert!((s - 1.0).abs() < 0.01, "S(1) = {s}");
    }

    #[test]
    fn gigabit_network_stays_efficient_at_1000_nodes() {
        // Headline claim: "the system efficiency is good (approximately 0.9)
        // even for 1000 processors" on a fast interconnection network.
        let m = model(GBPS);
        let e = m.efficiency(1000);
        assert!(e > 0.85 && e <= 1.0, "efficiency {e}");
    }

    #[test]
    fn slower_networks_lose_efficiency() {
        let e_1g = model(GBPS).efficiency(1000);
        let e_100m = model(100.0 * MBPS).efficiency(1000);
        let e_10m = model(10.0 * MBPS).efficiency(1000);
        assert!(e_1g > e_100m, "{e_1g} vs {e_100m}");
        assert!(e_100m > e_10m, "{e_100m} vs {e_10m}");
        // 10 Mbps collapses hard at scale.
        assert!(e_10m < 0.4, "{e_10m}");
    }

    #[test]
    fn hundred_nodes_on_100mbps_stay_decent() {
        // §5.1: "the system obtains an efficiency ≈ 0.8 for 100 processors
        // and a 100 Mbps interconnection network".
        let e = model(100.0 * MBPS).efficiency(100);
        assert!(e > 0.7 && e < 1.0, "efficiency {e}");
    }

    #[test]
    fn speedup_monotonically_increases_with_n_on_fast_net() {
        let m = model(GBPS);
        let mut prev = 0.0;
        for n in [1, 10, 100, 500, 1000] {
            let s = m.speedup(n);
            assert!(s > prev, "S({n}) = {s} not increasing");
            prev = s;
        }
    }

    #[test]
    fn overhead_components_are_nonnegative_and_scale() {
        let m = model(100.0 * MBPS);
        for n in [1, 10, 100] {
            assert!(m.monitoring_overhead(n) >= 0.0);
            assert!(m.dispatch_overhead(n) >= 0.0);
            assert!(m.migration_overhead(n) >= 0.0);
        }
        assert!(m.migration_overhead(100) > m.migration_overhead(10));
        assert!(m.monitoring_overhead(100) > m.monitoring_overhead(10));
    }

    #[test]
    fn zero_nodes_degenerate() {
        let m = model(GBPS);
        assert_eq!(m.speedup(0), 0.0);
        assert_eq!(m.efficiency(0), 0.0);
    }
}
