//! The analytical-model parameter block (Section 5 / Fig. 8b of the paper).
//!
//! The published figure listing the plot parameters is partially garbled in
//! the archived text, so the defaults below are reconstructed from the
//! quantities the paper states elsewhere (Q226 trace: ~880 accepted
//! paragraphs; Table 8 module times; 100 Mbps test network) and tuned so the
//! model reproduces the paper's headline analytical results: efficiency ≈ 0.9
//! at 1000 processors on a 1 Gbps network (Fig. 8a) and practical
//! intra-question limits of roughly 11–93 processors (Table 4). Every value
//! is documented with its symbol from the paper's notation list.

/// Bandwidth and size constants are expressed in bytes and bytes/second.
pub const MBPS: f64 = 1_000_000.0 / 8.0;
/// One gigabit per second in bytes/second.
pub const GBPS: f64 = 1_000.0 * MBPS;

/// Parameters of the analytical performance model (Section 5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SystemParams {
    /// `N_k` — average number of keywords extracted from a question.
    pub keywords_per_question: f64,
    /// `N_p` — average number of paragraphs produced by paragraph retrieval.
    pub paragraphs_retrieved: f64,
    /// `N_pa` — average number of paragraphs accepted after paragraph ordering.
    pub paragraphs_accepted: f64,
    /// `S_kw` — average keyword length in bytes.
    pub keyword_bytes: f64,
    /// `S_par` — average paragraph size in bytes.
    pub paragraph_bytes: f64,
    /// `N_a` — number of answers requested by the user.
    pub answers_requested: f64,
    /// `S_ans` — answer size in bytes.
    pub answer_bytes: f64,
    /// `T_loc` — average time to measure the local system load (seconds).
    pub load_measure_secs: f64,
    /// `S_load` — size of the load-monitoring broadcast packet (bytes).
    pub load_packet_bytes: f64,
    /// `S_q` — average question size in bytes.
    pub question_bytes: f64,
    /// `B_net` — network bandwidth (bytes/second).
    pub net_bandwidth: f64,
    /// `B_disk` — disk bandwidth (bytes/second).
    pub disk_bandwidth: f64,
    /// `B_mem` — local memory bandwidth (bytes/second).
    pub mem_bandwidth: f64,
    /// Reference disk bandwidth of the measurement platform (bytes/second):
    /// the `T_PR` of Table 8 was measured at this bandwidth, and the
    /// intra-question model rescales PR's disk portion as
    /// `ref_disk_bandwidth / disk_bandwidth`.
    pub ref_disk_bandwidth: f64,
    /// Disk read amplification of the partition-overhead term: the merging
    /// modules read paragraph data back at block granularity, touching more
    /// bytes than the logical paragraph payload.
    pub disk_read_amplification: f64,
    /// Constant CPU cost of the extra partition-control modules (paragraph
    /// assignment, paragraph/answer merging, answer sorting), seconds.
    pub partition_constant_secs: f64,
    /// `p_QA` — probability a task is migrated before it is started
    /// (measured in Table 7: 37/96 questions at 12 nodes).
    pub p_migrate_qa: f64,
    /// `p_PR` — probability of migration at the PR dispatcher (43/96).
    pub p_migrate_pr: f64,
    /// `p_AP` — probability of migration at the AP dispatcher (41/96).
    pub p_migrate_ap: f64,
    /// `p_net` — probability a Q/A task accesses the network at any time.
    pub p_net: f64,
    /// `q` — average number of simultaneous questions per processor.
    pub questions_per_node: f64,
    /// Per-dispatcher scan cost per node (seconds); the dispatcher scan is
    /// linear in N (Eq. 15).
    pub dispatch_scan_secs_per_node: f64,
}

impl SystemParams {
    /// Parameters reconstructed for the TREC-9 question set (see module docs).
    pub fn trec9() -> Self {
        Self {
            keywords_per_question: 6.0,
            paragraphs_retrieved: 1500.0,
            paragraphs_accepted: 880.0,
            keyword_bytes: 8.0,
            paragraph_bytes: 400.0,
            answers_requested: 5.0,
            answer_bytes: 250.0,
            load_measure_secs: 1e-3,
            load_packet_bytes: 64.0,
            question_bytes: 100.0,
            net_bandwidth: 100.0 * MBPS,
            disk_bandwidth: 250.0 * MBPS,
            mem_bandwidth: 800.0 * GBPS / 1000.0, // 100 MB/s-class PC100 SDRAM
            ref_disk_bandwidth: 100.0 * MBPS,
            disk_read_amplification: 3.3,
            partition_constant_secs: 0.61,
            p_migrate_qa: 37.0 / 96.0,
            p_migrate_pr: 43.0 / 96.0,
            p_migrate_ap: 41.0 / 96.0,
            p_net: 0.25,
            questions_per_node: 4.0,
            dispatch_scan_secs_per_node: 1e-6,
        }
    }

    /// Same parameter block with a different network bandwidth (bytes/s).
    pub fn with_net_bandwidth(mut self, bps_bytes: f64) -> Self {
        self.net_bandwidth = bps_bytes;
        self
    }

    /// Same parameter block with a different disk bandwidth (bytes/s).
    pub fn with_disk_bandwidth(mut self, bps_bytes: f64) -> Self {
        self.disk_bandwidth = bps_bytes;
        self
    }

    /// Bytes of paragraph data produced by PR (`N_p · S_par`).
    pub fn retrieved_bytes(&self) -> f64 {
        self.paragraphs_retrieved * self.paragraph_bytes
    }

    /// Bytes of paragraph data accepted by PO (`N_pa · S_par`).
    pub fn accepted_bytes(&self) -> f64 {
        self.paragraphs_accepted * self.paragraph_bytes
    }
}

impl Default for SystemParams {
    fn default() -> Self {
        Self::trec9()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_constants() {
        assert_eq!(MBPS, 125_000.0);
        assert_eq!(GBPS, 125_000_000.0);
    }

    #[test]
    fn trec9_defaults_are_positive() {
        let p = SystemParams::trec9();
        assert!(p.paragraphs_retrieved >= p.paragraphs_accepted);
        assert!(p.net_bandwidth > 0.0 && p.disk_bandwidth > 0.0 && p.mem_bandwidth > 0.0);
        assert!(p.p_migrate_qa > 0.0 && p.p_migrate_qa < 1.0);
    }

    #[test]
    fn builders_override_bandwidths() {
        let p = SystemParams::trec9()
            .with_net_bandwidth(GBPS)
            .with_disk_bandwidth(2.0 * GBPS);
        assert_eq!(p.net_bandwidth, GBPS);
        assert_eq!(p.disk_bandwidth, 2.0 * GBPS);
    }

    #[test]
    fn byte_totals() {
        let p = SystemParams::trec9();
        assert_eq!(p.retrieved_bytes(), 1500.0 * 400.0);
        assert_eq!(p.accepted_bytes(), 880.0 * 400.0);
        assert!(p.ref_disk_bandwidth > 0.0);
        assert!(p.disk_read_amplification >= 1.0);
        assert!(p.partition_constant_secs >= 0.0);
    }
}
