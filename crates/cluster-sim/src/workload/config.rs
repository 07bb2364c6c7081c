//! What a simulation run is configured with: the balancing strategy and
//! [`SimConfig`], with the paper's two §6 presets.

use dqa_obs::MetricsRegistry;
use faults::FaultSchedule;
use qa_types::{ModuleProfile, OverloadPolicy, ResourceVector, ResourceWeights};
use rebalance::ElasticConfig;
use scheduler::partition::PartitionStrategy;

/// Which load-balancing model runs (§6.1's three contenders plus two
/// classic baselines from the related work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BalancingStrategy {
    /// Round-robin DNS placement, nothing else.
    Dns,
    /// DNS + question dispatcher.
    Inter,
    /// DNS + question, PR and AP dispatchers (the paper's model).
    Dqa,
    /// DNS + sender-initiated diffusion at arrival (bounded probing).
    SenderDiffusion,
    /// DNS + gradient-model routing at arrival (ring topology, one hop).
    Gradient,
}

/// Simulation parameters.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster size.
    pub nodes: usize,
    /// Shared network bandwidth, bytes/s (paper: 100 Mbps Ethernet).
    pub net_bandwidth: f64,
    /// Load-balancing strategy.
    pub strategy: BalancingStrategy,
    /// AP partitioning algorithm (PR always uses receiver-controlled
    /// single-collection chunks, per §4.1.3).
    pub ap_partition: PartitionStrategy,
    /// Question profiles; question `i` uses `profiles[i % len]`.
    pub profiles: Vec<ModuleProfile>,
    /// Number of questions to run.
    pub questions: usize,
    /// Uniform range of inter-arrival gaps (seconds). Ignored in serial
    /// mode.
    pub arrival_spacing: (f64, f64),
    /// Serial mode: submit question `i+1` only when `i` completes (the
    /// low-load intra-question experiments).
    pub serial: bool,
    /// RNG seed (demands + arrival jitter).
    pub seed: u64,
    /// CPU slowdown per excess resident question.
    pub thrash_slope: f64,
    /// Bytes per paragraph on the wire.
    pub paragraph_bytes: f64,
    /// Bytes of one answer set returned by an AP partition.
    pub answer_bytes: f64,
    /// Question-dispatcher hysteresis in load-function units.
    pub hysteresis: f64,
    /// Closed-loop multiprogramming cap: when set, at most this many
    /// questions are in flight system-wide (the §4.2 concurrency
    /// experiment). `None` = open-loop arrivals.
    pub max_in_flight: Option<usize>,
    /// Minimum accepted-paragraph count per question: demands below it are
    /// resampled. The paper's §6.2 selects 307 questions "complex enough to
    /// justify distribution on all nodes" (≥ 20 paragraphs per AP module);
    /// this reproduces that selection.
    pub min_ap_paragraphs: usize,
    /// Cost-aware PR scheduling (the §1.4 / Cahoon-et-al. extension):
    /// workers pull sub-collections in *decreasing estimated cost* order
    /// (LPT), instead of collection-id order. The estimate is the true
    /// demand blurred by `pr_estimate_cv` multiplicative noise.
    pub pr_cost_aware: bool,
    /// Coefficient of variation of the cost-estimator error.
    pub pr_estimate_cv: f64,
    /// Per-node relative speed (CPU and disk), for heterogeneous clusters.
    /// `None` = homogeneous (all 1.0). The paper's cluster was homogeneous;
    /// heterogeneity stresses the load functions harder.
    pub node_speeds: Option<Vec<f64>>,
    /// Switched network: each node gets a dedicated full-bandwidth link
    /// instead of the paper's shared Ethernet segment, so transfers of
    /// different questions do not contend. An ablation of the network
    /// assumption behind Fig. 8.
    pub switched_network: bool,
    /// Record a virtual-time event trace (Fig. 7's listings, from the DES).
    pub record_trace: bool,
    /// Fault schedule (crash+rejoin, stragglers, message
    /// loss/delay/duplication, monitor packet loss). Event times are
    /// virtual seconds; per-message decisions are a pure hash of the
    /// schedule seed, so any schedule replays bit-stably. A crashed node's
    /// running sub-tasks are lost and recovered via the Fig. 5c / Fig. 6b
    /// mechanisms, and questions homed there are re-homed; at least one
    /// node must survive.
    pub faults: FaultSchedule,
    /// Admission control and load shedding: the same [`OverloadPolicy`]
    /// the thread runtime runs, decided by the same code
    /// ([`OverloadPolicy::offer`], [`OverloadPolicy::cannot_afford`],
    /// `scheduler::points`), so both backends report comparable
    /// saturation curves. Where the runtime estimates phase demand online
    /// (EWMA over observed timings), the simulator consults the sampled
    /// [`QuestionDemand`](crate::QuestionDemand) directly — an oracle
    /// estimator, which is exactly what a calibrated simulator should use.
    /// The default is fully permissive: no existing experiment changes.
    pub overload: OverloadPolicy,
    /// Elastic-membership tier parameters (standbys, detector thresholds,
    /// migration throttle, skew trigger). `None` still activates the tier
    /// with [`ElasticConfig::default`] whenever the fault schedule
    /// contains `NodeDecommission`/`NodeJoin`/`RebalanceStall` events —
    /// the way coordinator faults activate the journal model — so
    /// existing schedules replay bit-identically while elastic schedules
    /// need no extra wiring. `Some` forces the tier on (ownership-routed
    /// PR dispatch, skew-triggered rebalancing) even without membership
    /// events.
    pub elastic: Option<ElasticConfig>,
    /// Metrics registry to record into. `None` makes the simulation create
    /// its own enabled registry (its snapshot still lands in
    /// [`SimReport::metrics`]); pass a shared handle to aggregate several
    /// runs — the soak harnesses do — or a
    /// [`MetricsRegistry::disabled`] one to measure instrumentation
    /// overhead. Virtual-time histograms use the same catalogue
    /// ([`dqa_obs::names`]) as the thread runtime, so the two backends
    /// export directly comparable series.
    pub metrics: Option<MetricsRegistry>,
}

impl SimConfig {
    /// The §6.1 high-load configuration: 8 questions per node launched with
    /// 0–2 s spacing, mixed TREC-8/TREC-9 questions, 100 Mbps Ethernet.
    pub fn paper_high_load(nodes: usize, strategy: BalancingStrategy, seed: u64) -> SimConfig {
        use qa_types::{Trec8Profile, Trec9Profile};
        SimConfig {
            nodes,
            net_bandwidth: 100.0 * 125_000.0,
            strategy,
            ap_partition: PartitionStrategy::Recv { chunk_size: 40 },
            profiles: vec![Trec8Profile::profile(), Trec9Profile::average()],
            questions: 8 * nodes,
            arrival_spacing: (0.0, 2.0),
            serial: false,
            seed,
            thrash_slope: 0.1,
            paragraph_bytes: 2048.0,
            answer_bytes: 5.0 * 250.0,
            hysteresis: ResourceWeights::QA.load(ResourceVector::new(0.79, 0.21)),
            max_in_flight: None,
            min_ap_paragraphs: 0,
            pr_cost_aware: false,
            pr_estimate_cv: 0.3,
            node_speeds: None,
            switched_network: false,
            record_trace: false,
            faults: FaultSchedule::none(),
            overload: OverloadPolicy::default(),
            elastic: None,
            metrics: None,
        }
    }

    /// The §6.2 low-load configuration: complex TREC-9 questions run one at
    /// a time with partitioning over all nodes.
    pub fn paper_low_load(
        nodes: usize,
        ap_partition: PartitionStrategy,
        questions: usize,
        seed: u64,
    ) -> SimConfig {
        use qa_types::Trec9Profile;
        SimConfig {
            questions,
            serial: true,
            arrival_spacing: (0.0, 0.0),
            strategy: BalancingStrategy::Dqa,
            ap_partition,
            profiles: vec![Trec9Profile::complex()],
            min_ap_paragraphs: 880,
            ..SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, seed)
        }
    }
}
