//! The per-question state machine: dispatchers, partitioning, merging.
//!
//! This module turns the paper's Fig. 3 into engine tasks. Each question
//! walks QP → (PR dispatcher) → PR partitions → paragraph merge + PO →
//! (AP dispatcher) → AP partitions → answer merge/sort, with the three
//! scheduling points active according to the selected
//! [`BalancingStrategy`]:
//!
//! * [`BalancingStrategy::Dns`] — round-robin arrival placement only;
//! * [`BalancingStrategy::Inter`] — plus the question dispatcher (migrate
//!   before the task starts);
//! * [`BalancingStrategy::Dqa`] — plus the PR and AP dispatchers, each
//!   running the meta-scheduler: under low load they *partition* the module
//!   across under-loaded nodes, under high load they degenerate to pure
//!   migration to the single best node (the paper's §6 observation that the
//!   system "dynamically detects the current load and selects the
//!   appropriate degree of inter and intra task parallelism").

use crate::demand::QuestionDemand;
use crate::engine::{Advance, Engine, Stage};
use dqa_obs::{
    critical_path, derive_span_id, derive_trace_id, DqaMetrics, Gauge, ManualClock,
    MetricsRegistry, PhaseTimer, Snapshot, Span,
};
use dqa_obs::{CausalSpan, CauseSet, CriticalPath};
use faults::{FaultEvent, FaultSchedule, LinkDecision, LinkJudge, LossJudge};
use loadsim::functions::LoadFunctions;
use qa_types::rng::Rng;
use qa_types::stats::percentile;
use qa_types::{
    ModuleProfile, ModuleTimings, NodeId, OverloadCounts, OverloadPolicy, QaModule,
    QuestionOutcome, ResourceVector, ResourceWeights,
};
use rebalance::{
    plan_evacuation, plan_join, plan_skew, ElasticConfig, MigrationPlan, MigrationStep,
    OwnershipMap, RebalanceReason,
};
use scheduler::diffusion::{GradientModel, SenderDiffusion};
use scheduler::dispatcher::QuestionDispatcher;
use scheduler::meta::meta_schedule;
use scheduler::partition::{partition_isend, partition_recv, partition_send, PartitionStrategy};
use scheduler::recovery::ChunkQueue;
use serde::{Deserialize, Serialize};

/// Which load-balancing model runs (§6.1's three contenders plus two
/// classic baselines from the related work).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
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
    /// Questions per node beyond which memory thrashing begins (paper: 4).
    pub overload_threshold: u32,
    /// CPU slowdown per excess resident question.
    pub thrash_slope: f64,
    /// Bytes per paragraph on the wire.
    pub paragraph_bytes: f64,
    /// Bytes of one answer set returned by an AP partition.
    pub answer_bytes: f64,
    /// Extra protocol bytes per RECV chunk (request + headers).
    pub per_chunk_net_bytes: f64,
    /// Fixed CPU cost per RECV chunk (local ranking of `N_a` answers).
    pub per_chunk_cpu_secs: f64,
    /// Fixed CPU cost per remote partition (connection + thread setup).
    pub per_partition_cpu_secs: f64,
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
    /// Failure injection: (virtual time, node index) pairs. At each time the
    /// node dies permanently — its running sub-tasks are lost and recovered
    /// via the Fig. 5c / Fig. 6b mechanisms, and questions homed there are
    /// re-homed. At least one node must survive.
    pub node_failures: Vec<(f64, u32)>,
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
    /// Unified fault schedule (crash+rejoin, stragglers, message
    /// loss/delay/duplication, monitor packet loss). Event times are
    /// virtual seconds; per-message decisions are a pure hash of the
    /// schedule seed, so any schedule replays bit-stably. Legacy
    /// [`SimConfig::node_failures`] entries are merged into the same
    /// timeline as permanent crashes.
    pub faults: FaultSchedule,
    /// Admission control and load shedding, mirroring the thread runtime's
    /// interpretation of the same [`OverloadPolicy`] so both backends
    /// report comparable saturation curves. Where the runtime estimates
    /// phase demand online (EWMA over observed timings), the simulator
    /// consults the sampled [`QuestionDemand`] directly — an oracle
    /// estimator, which is exactly what a calibrated simulator should use.
    /// The default is fully permissive: no existing experiment changes.
    pub overload: OverloadPolicy,
    /// Elastic-membership tier parameters (detector thresholds, migration
    /// throttle, skew trigger). `None` still activates the tier with
    /// [`ElasticConfig::default`] whenever the fault schedule contains
    /// `NodeDecommission`/`NodeJoin`/`RebalanceStall` events — mirroring
    /// how coordinator faults activate the journal model — so existing
    /// schedules replay bit-identically while elastic schedules need no
    /// extra wiring. `Some` forces the tier on (ownership-routed PR
    /// dispatch, skew-triggered rebalancing) even without membership
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
            overload_threshold: 4,
            thrash_slope: 0.1,
            paragraph_bytes: 2048.0,
            answer_bytes: 5.0 * 250.0,
            per_chunk_net_bytes: 4096.0,
            per_chunk_cpu_secs: 0.08,
            per_partition_cpu_secs: 0.05,
            hysteresis: ResourceWeights::QA.load(ResourceVector::new(0.79, 0.21)),
            max_in_flight: None,
            min_ap_paragraphs: 0,
            node_failures: Vec::new(),
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

/// Counts of dispatcher "disagreements" (Table 7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MigrationCounts {
    /// Question dispatcher overrode the DNS placement.
    pub qa: usize,
    /// PR dispatcher overrode the question dispatcher.
    pub pr: usize,
    /// AP dispatcher overrode the question dispatcher.
    pub ap: usize,
}

/// Analytic distribution-overhead breakdown per question (Table 9).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct OverheadBreakdown {
    /// Keyword sending to remote PR partitions.
    pub kw_send: f64,
    /// Paragraph receiving from remote PS outputs.
    pub par_recv: f64,
    /// Paragraph sending to remote AP partitions.
    pub par_send: f64,
    /// Answer receiving from remote AP partitions.
    pub ans_recv: f64,
    /// Final answer sorting.
    pub ans_sort: f64,
}

impl OverheadBreakdown {
    /// Total overhead (last column of Table 9).
    pub fn total(&self) -> f64 {
        self.kw_send + self.par_recv + self.par_send + self.ans_recv + self.ans_sort
    }

    /// Element-wise mean across questions.
    pub fn mean<'a>(items: impl IntoIterator<Item = &'a OverheadBreakdown>) -> OverheadBreakdown {
        let mut sum = OverheadBreakdown::default();
        let mut n = 0usize;
        for o in items {
            sum.kw_send += o.kw_send;
            sum.par_recv += o.par_recv;
            sum.par_send += o.par_send;
            sum.ans_recv += o.ans_recv;
            sum.ans_sort += o.ans_sort;
            n += 1;
        }
        if n == 0 {
            return sum;
        }
        let n = n as f64;
        OverheadBreakdown {
            kw_send: sum.kw_send / n,
            par_recv: sum.par_recv / n,
            par_send: sum.par_send / n,
            ans_recv: sum.ans_recv / n,
            ans_sort: sum.ans_sort / n,
        }
    }
}

/// One virtual-time trace event (Fig. 7-style, from the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimEvent {
    /// Virtual time (seconds).
    pub at: f64,
    /// Question index (submission order).
    pub question: usize,
    /// What happened.
    pub kind: SimEventKind,
}

/// Event kinds of the simulator trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SimEventKind {
    /// Question placed: DNS target and (possibly migrated) home.
    Submitted {
        /// Round-robin DNS target.
        dns: NodeId,
        /// Final home after the question dispatcher.
        home: NodeId,
    },
    /// A PR worker finished one sub-collection.
    PrChunkDone {
        /// Worker node.
        node: NodeId,
        /// Sub-collection index.
        collection: u32,
    },
    /// Paragraph merge + PO completed on the home node.
    PoMerged {
        /// Home node.
        node: NodeId,
    },
    /// An AP worker finished a batch.
    ApBatchDone {
        /// Worker node.
        node: NodeId,
        /// Paragraphs in the batch.
        paragraphs: u32,
    },
    /// The question completed (answers sorted).
    Completed {
        /// Home node.
        node: NodeId,
    },
    /// The question was refused at admission (queue full, every node at
    /// its resident cap, or its deadline expired while waiting).
    Rejected,
    /// A phase was shed: the remaining deadline budget could not cover its
    /// estimated demand, so the question short-circuited to a degraded
    /// completion.
    Shed {
        /// The phase that was shed.
        module: QaModule,
    },
}

/// Per-question outcome record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionRecord {
    /// Arrival (submission) time.
    pub arrival: f64,
    /// Completion time.
    pub finished: f64,
    /// Wall-clock per module (phase durations).
    pub timings: ModuleTimings,
    /// Analytic distribution overhead.
    pub overhead: OverheadBreakdown,
    /// Node the question ended on.
    pub home: NodeId,
    /// Number of nodes its PR phase used.
    pub pr_nodes: usize,
    /// Number of nodes its AP phase used.
    pub ap_nodes: usize,
    /// How the question left the system. Rejected questions carry zero
    /// timings and a `finished` equal to the rejection instant.
    pub outcome: QuestionOutcome,
}

impl QuestionRecord {
    /// Response time (completion − arrival).
    pub fn response_time(&self) -> f64 {
        self.finished - self.arrival
    }
}

/// Aggregate simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Per-question records, submission order.
    pub questions: Vec<QuestionRecord>,
    /// Dispatcher disagreement counts (Table 7).
    pub migrations: MigrationCounts,
    /// Time the last question completed.
    pub makespan: f64,
    /// Virtual-time event trace (empty unless `record_trace` was set).
    pub trace: Vec<SimEvent>,
    /// Final snapshot of the run's metrics registry: the same catalogue
    /// the thread runtime exports, recorded in virtual time. Deserializes
    /// as empty from reports written before this field existed.
    #[serde(default)]
    pub metrics: Snapshot,
}

impl SimReport {
    /// System throughput in questions/minute (Table 5).
    pub fn throughput_per_minute(&self) -> f64 {
        if self.makespan <= 0.0 {
            return 0.0;
        }
        self.questions.len() as f64 / (self.makespan / 60.0)
    }

    /// Mean question response time in seconds (Table 6).
    pub fn mean_response_time(&self) -> f64 {
        if self.questions.is_empty() {
            return 0.0;
        }
        self.questions
            .iter()
            .map(QuestionRecord::response_time)
            .sum::<f64>()
            / self.questions.len() as f64
    }

    /// Mean per-module wall-clock (Table 8 rows).
    pub fn mean_timings(&self) -> ModuleTimings {
        ModuleTimings::mean(self.questions.iter().map(|q| &q.timings))
    }

    /// Response-time percentile (`p` in `[0, 1]`; nearest-rank method).
    /// Interactive services care about the tail, not just Table 6's means.
    pub fn response_time_percentile(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self
            .questions
            .iter()
            .map(QuestionRecord::response_time)
            .collect();
        percentile(&mut times, p)
    }

    /// Mean overhead breakdown (Table 9 rows).
    pub fn mean_overhead(&self) -> OverheadBreakdown {
        OverheadBreakdown::mean(self.questions.iter().map(|q| &q.overhead))
    }

    /// Outcome tally: answered + degraded + rejected always equals the
    /// offered question count (zero silent drops, by construction).
    pub fn outcome_counts(&self) -> OverloadCounts {
        let mut counts = OverloadCounts::default();
        for q in &self.questions {
            counts.record(q.outcome);
        }
        counts
    }

    /// Response-time percentile over *admitted* questions only (answered or
    /// degraded). Rejections bounce at the door in near-zero time and would
    /// otherwise drag the tail estimate down exactly when the system is
    /// most overloaded. Returns 0 when nothing was admitted.
    pub fn admitted_response_percentile(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self
            .questions
            .iter()
            .filter(|q| q.outcome != QuestionOutcome::Rejected)
            .map(QuestionRecord::response_time)
            .collect();
        percentile(&mut times, p)
    }

    /// Per-phase [`Span`]s of question `q` in virtual time (QP → PR → PO →
    /// AP → SORT laid end to end from the recorded phase durations), the
    /// simulator's side of the shared timeline abstraction — the runtime
    /// derives the same spans from its trace ring. Empty for rejected
    /// questions and out-of-range indices.
    pub fn phase_spans(&self, q: usize) -> Vec<Span> {
        let Some(rec) = self.questions.get(q) else {
            return Vec::new();
        };
        if rec.outcome == QuestionOutcome::Rejected {
            return Vec::new();
        }
        let t = rec.timings;
        let mut at = rec.arrival;
        let mut spans = Vec::new();
        // PS is fused into PR, matching the runtime's observation model.
        for (label, dur) in [
            ("QP", t.qp),
            ("PR", t.pr + t.ps),
            ("PO", t.po),
            ("AP", t.ap),
        ] {
            if dur > 0.0 {
                spans.push(Span::new(label, at, at + dur));
                at += dur;
            }
        }
        if rec.finished > at {
            spans.push(Span::new("SORT", at, rec.finished));
        }
        spans
    }

    /// Fig. 7-style waterfall rendering of question `q`'s phase spans.
    pub fn waterfall(&self, q: usize, width: usize) -> Vec<String> {
        dqa_obs::render_waterfall(&self.phase_spans(q), width)
    }

    /// Causal-span tree of question `q` in virtual time: a `question`
    /// root over `[arrival, finished]` with one child per phase (the
    /// same QP → PR → PO → AP → SORT layout as [`SimReport::phase_spans`]).
    /// Identity comes from [`derive_trace_id`]`(q, seed)` plus the
    /// deterministic ordinal chain, and every timestamp is virtual —
    /// two runs of the same seeded config export bit-identical span
    /// streams. Empty for rejected questions and out-of-range indices.
    pub fn causal_spans(&self, q: usize, seed: u64) -> Vec<CausalSpan> {
        let Some(rec) = self.questions.get(q) else {
            return Vec::new();
        };
        if rec.outcome == QuestionOutcome::Rejected {
            return Vec::new();
        }
        let trace = derive_trace_id(q as u64, seed);
        let mut ordinal = 0u64;
        let mut next = || {
            ordinal += 1;
            derive_span_id(trace, ordinal)
        };
        let root_causes = if rec.outcome == QuestionOutcome::Degraded {
            CauseSet::none().with(CauseSet::DEGRADED)
        } else {
            CauseSet::none()
        };
        let mut root = CausalSpan::new(
            trace,
            None,
            "question",
            Some(rec.home.raw()),
            rec.arrival,
            rec.finished,
            0.0,
            root_causes,
        );
        root.id = next();
        let root_id = root.id;
        let mut spans = vec![root];
        for ph in self.phase_spans(q) {
            // The analytic overhead share of PR (kw_send/par_recv) and AP
            // (par_send/ans_recv) rides at the head of the phase — surface
            // it as queue-wait so the critical path splits coordination
            // from computation the way Table 9 does.
            let queue = match ph.label.as_str() {
                "PR" => (rec.overhead.kw_send + rec.overhead.par_recv).min(ph.end - ph.start),
                "AP" => (rec.overhead.par_send + rec.overhead.ans_recv).min(ph.end - ph.start),
                "SORT" => rec.overhead.ans_sort.min(ph.end - ph.start),
                _ => 0.0,
            };
            let mut s = CausalSpan::new(
                trace,
                Some(root_id),
                &ph.label,
                Some(rec.home.raw()),
                ph.start,
                ph.end,
                queue.max(0.0),
                CauseSet::none(),
            );
            s.id = next();
            spans.push(s);
        }
        spans
    }

    /// Every completed question's causal spans, submission order — the
    /// export surface for `dqa trace` and the double-run identity gate.
    pub fn all_causal_spans(&self, seed: u64) -> Vec<CausalSpan> {
        (0..self.questions.len())
            .flat_map(|q| self.causal_spans(q, seed))
            .collect()
    }

    /// Critical-path attribution for question `q` (`None` if rejected).
    pub fn question_critical_path(&self, q: usize, seed: u64) -> Option<CriticalPath> {
        critical_path(&self.causal_spans(q, seed))
    }

    /// Perfetto/chrome-tracing JSON of the whole run, byte-stable across
    /// seeded reruns.
    pub fn chrome_trace(&self, seed: u64) -> String {
        dqa_obs::to_chrome_json(&self.all_causal_spans(seed))
    }
}

/// Engine task tags.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Tag {
    Qp(usize),
    PrPart {
        q: usize,
        node: NodeId,
        collection: u32,
    },
    PoMerge(usize),
    ApPart {
        q: usize,
        node: NodeId,
        paragraphs: u32,
    },
    ApChunk {
        q: usize,
        node: NodeId,
        paragraphs: u32,
    },
    ApSort(usize),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pending,
    Qp,
    Pr,
    Po,
    Ap,
    Sort,
    Done,
}

struct QState {
    demand: QuestionDemand,
    /// Deadline in virtual time, anchored at the *offer* instant (so time
    /// parked in the admission queue counts against the budget).
    deadline: Option<f64>,
    /// How the question will be recorded; flips to `Degraded` on shed.
    outcome: QuestionOutcome,
    /// Ratio of this question's total demand to the profile mean; load
    /// commitments are scaled by it so dispatchers see *work*, not counts
    /// (the real load monitor measures utilization, which reflects work).
    work_scale: f64,
    arrival: f64,
    home: NodeId,
    phase: Phase,
    phase_start: f64,
    /// Response-time timer over the simulation's virtual clock — the same
    /// [`PhaseTimer`] the runtime drives with wall time.
    timer: PhaseTimer,
    timings: ModuleTimings,
    overhead: OverheadBreakdown,
    // PR state: receiver-controlled queue of collection indices.
    pr_queue: ChunkQueue<usize>,
    pr_outstanding: usize,
    pr_nodes_used: Vec<NodeId>,
    pr_remote_demand: f64,
    pr_total_demand: f64,
    // AP state.
    ap_queue: Option<ChunkQueue<usize>>,
    ap_outstanding: usize,
    ap_nodes_used: Vec<NodeId>,
    /// SEND/ISEND in-flight partitions, kept for Fig. 5c failure recovery.
    /// Ordered map: partition dispatch/recovery order must be seed-stable.
    ap_partitions: std::collections::BTreeMap<NodeId, Vec<usize>>,
}

/// One entry of the unified fault timeline (config events flattened into
/// point actions applied at their virtual time).
#[derive(Debug, Clone, Copy, PartialEq)]
enum FaultAction {
    /// Node dies (permanent when no matching `Rejoin` follows).
    Die(NodeId),
    /// Node comes back with reset state.
    Rejoin(NodeId),
    /// Straggler window opens: node runs at the given speed factor.
    Slow(NodeId, f64),
    /// Straggler window closes.
    Unslow(NodeId),
    /// The leader coordinator crashes: admissions stop until a standby's
    /// lease expires and it replays the journal (virtual-time mirror of
    /// the runtime's [`dqa-runtime`] failover path).
    CoordinatorDown,
    /// The crashed ex-leader process returns — as a fenced standby, so
    /// this is a no-op for the workload (modeled for schedule symmetry).
    CoordinatorUp,
    /// The leader is partitioned from the standbys: it keeps serving, but
    /// once the lease lapses a standby promotes and every append the
    /// zombie attempts is fenced.
    PartitionStart,
    /// The partition heals; the ex-leader observes the higher term and
    /// stops appending.
    PartitionEnd,
    /// Operator drain: the node stops taking new placements, its
    /// sub-collections evacuate under the migration throttle, and it
    /// departs once the evacuation plan completes.
    Decommission(NodeId),
    /// A standby or previously drained node enters the pool and receives
    /// its fair share of sub-collections.
    Join(NodeId),
}

/// Virtual-time state of the elastic-membership tier. Allocated only when
/// the run is elastic (config or schedule), so non-elastic runs replay
/// bit-identically to before the tier existed — the same activation
/// pattern as the `journaled` flag.
struct ElasticState {
    /// Tier parameters ([`SimConfig::elastic`] or defaults).
    cfg: ElasticConfig,
    /// Sub-collection universe size (max PR collection count sampled).
    subs: u32,
    /// Which node owns each sub-collection; PR dispatch routes to owners.
    ownership: OwnershipMap,
    /// Nodes mid-drain (or drained): excluded from new placements, not
    /// yet (or no longer) dead.
    draining: Vec<bool>,
    /// Scheduled migration steps `(virtual apply time, step)`, time order.
    /// Applied through the drive loop like promotions and fault actions.
    pending_steps: std::collections::VecDeque<(f64, MigrationStep)>,
    /// Monotone plan-id counter (unique per run, mirrors the runtime's
    /// per-incarnation counter).
    plan_seq: u64,
    /// When the oldest unhealed membership change was detected — the
    /// start of the `dqa_rebalance_heal_seconds` observation.
    heal_start: Option<f64>,
    /// `RebalanceStall` windows from the schedule, sorted by start: the
    /// rebalancer may plan inside one but steps land after it closes.
    stall_windows: Vec<(f64, f64)>,
}

impl ElasticState {
    /// Push `t` past every stall window containing it. Windows are sorted
    /// by start, so one forward pass reaches the fixpoint.
    fn clear_of_stalls(&self, mut t: f64) -> f64 {
        for &(from, until) in &self.stall_windows {
            if t >= from && t < until {
                t = until;
            }
        }
        t
    }

    /// Whether `node` owns any sub-collection this question's PR phase
    /// touches (collections `0..subs`).
    fn owns_any(&self, node: NodeId, subs: u32) -> bool {
        self.ownership.owned_by(node).iter().any(|s| s.raw() < subs)
    }
}

/// Standby lease length in virtual seconds: how long after the last
/// heartbeat a standby waits before promoting itself (mirrors
/// `dqa_runtime::LeaderLease`).
const FAILOVER_LEASE_SECS: f64 = 0.5;

/// Virtual seconds a standby spends folding one journal record during
/// replay. Recovery latency is therefore `lease + records × this`, the
/// same linear shape the runtime recovery-soak measures.
const REPLAY_SECS_PER_RECORD: f64 = 2e-5;

/// The simulation controller.
pub struct QaSimulation {
    cfg: SimConfig,
    engine: Engine<Tag>,
    states: Vec<QState>,
    arrivals: Vec<f64>,
    next_arrival: usize,
    resident: Vec<u32>,
    commit: Vec<ResourceVector>,
    migrations: MigrationCounts,
    dispatcher: QuestionDispatcher,
    functions: LoadFunctions,
    records: Vec<Option<QuestionRecord>>,
    completed: usize,
    in_flight: usize,
    dead: Vec<bool>,
    /// Per-node straggler speed factor (1.0 = full speed).
    slow: Vec<f64>,
    /// Unified fault timeline: legacy `node_failures` + `faults.events`,
    /// sorted by time.
    timeline: Vec<(f64, FaultAction)>,
    next_fault: usize,
    /// Per-message link-fault decider (stateless hash of the fault seed).
    link_judge: LinkJudge,
    /// Per-transfer sequence number feeding the link judge.
    net_seq: u64,
    /// Load-monitor packet-loss decider.
    monitor_judge: LossJudge,
    monitor_seq: u64,
    /// `observed[o][n]`: node `o`'s last successfully received load report
    /// from node `n` (only maintained when monitor loss is injected).
    observed: Vec<Vec<ResourceVector>>,
    trace: Vec<SimEvent>,
    /// Bounded virtual admission queue (question indices, offer order).
    /// Mirrors the runtime's [`AdmissionGate`] waiting room: at most
    /// `overload.admission_queue` questions park here; the head is
    /// re-examined whenever an in-flight slot frees.
    admission_wait: std::collections::VecDeque<usize>,
    /// Catalogue instruments bound against the run's registry.
    metrics: DqaMetrics,
    /// Whether the schedule contains coordinator faults: only then is the
    /// question journal modeled (record counting, replay latency, terms).
    journaled: bool,
    /// Coordinator term in force (fencing mirror; starts at 1).
    term: u64,
    /// Leader crashed and no standby has promoted yet: admissions halt.
    leader_down: bool,
    /// Virtual time of the in-force outage (crash or partition start).
    down_at: f64,
    /// When the standby's lease expires and journal replay completes —
    /// the promotion instant.
    pending_promote: Option<f64>,
    /// Partition zombie window: the deposed ex-leader is still serving
    /// and every journal append it attempts is fenced.
    zombie: bool,
    /// Journal records appended so far (drives replay latency).
    journal_records: u64,
    /// Elastic-membership tier, present only on elastic runs.
    elastic: Option<ElasticState>,
    /// The virtual clock feeding every [`PhaseTimer`]: advanced to the
    /// engine's time at each instrumented event.
    clock: ManualClock,
    /// Pre-bound Eq. 1–3 load gauges, one `[QA, PR, AP]` triple per node.
    node_load: Vec<[(ResourceWeights, Gauge); 3]>,
}

impl QaSimulation {
    /// Build the simulation (generates demands and the arrival schedule).
    pub fn new(cfg: SimConfig) -> QaSimulation {
        assert!(cfg.nodes > 0, "at least one node");
        assert!(!cfg.profiles.is_empty(), "at least one profile");
        let registry = cfg.metrics.clone().unwrap_or_else(MetricsRegistry::new);
        let metrics = DqaMetrics::new(&registry);
        let node_load: Vec<[(ResourceWeights, Gauge); 3]> = (0..cfg.nodes)
            .map(|n| {
                [
                    (ResourceWeights::QA, metrics.node_load(n as u32, "QA")),
                    (ResourceWeights::PR, metrics.node_load(n as u32, "PR")),
                    (ResourceWeights::AP, metrics.node_load(n as u32, "AP")),
                ]
            })
            .collect();
        let clock = ManualClock::new();
        let mut rng = Rng::new(cfg.seed ^ 0xd1b5_4a32_d192_ed03);

        let mut arrivals = Vec::with_capacity(cfg.questions);
        let mut t = 0.0;
        for i in 0..cfg.questions {
            if i > 0 && !cfg.serial {
                let (lo, hi) = cfg.arrival_spacing;
                t += if hi > lo { rng.uniform(lo..hi) } else { lo };
            }
            arrivals.push(t);
        }

        let states: Vec<QState> = (0..cfg.questions)
            .map(|i| {
                let profile = &cfg.profiles[i % cfg.profiles.len()];
                let mut demand = QuestionDemand::sample(profile, cfg.seed, i as u64);
                // Complex-question selection (§6.2): skip small questions.
                let mut attempt = 1u64;
                while demand.ap_per_paragraph.len() < cfg.min_ap_paragraphs && attempt < 64 {
                    demand = QuestionDemand::sample(
                        profile,
                        cfg.seed,
                        i as u64 + attempt * cfg.questions as u64,
                    );
                    attempt += 1;
                }
                let work_scale =
                    (demand.total() / profile.sequential_total().max(1e-9)).clamp(0.2, 5.0);
                QState {
                    demand,
                    deadline: None,
                    outcome: QuestionOutcome::Answered,
                    work_scale,
                    arrival: arrivals[i],
                    home: NodeId::new((i % cfg.nodes) as u32),
                    phase: Phase::Pending,
                    phase_start: 0.0,
                    timer: PhaseTimer::start(&clock),
                    timings: ModuleTimings::default(),
                    overhead: OverheadBreakdown::default(),
                    pr_queue: ChunkQueue::new(Vec::new()),
                    pr_outstanding: 0,
                    pr_nodes_used: Vec::new(),
                    pr_remote_demand: 0.0,
                    pr_total_demand: 0.0,
                    ap_queue: None,
                    ap_outstanding: 0,
                    ap_nodes_used: Vec::new(),
                    ap_partitions: std::collections::BTreeMap::new(),
                }
            })
            .collect();

        let hysteresis = cfg.hysteresis;
        let mut engine = Engine::new(cfg.nodes, cfg.net_bandwidth);
        if let Some(speeds) = &cfg.node_speeds {
            assert_eq!(speeds.len(), cfg.nodes, "one speed per node");
            for (i, &sp) in speeds.iter().enumerate() {
                let n = NodeId::new(i as u32);
                engine.set_cpu_mult(n, sp.max(1e-3));
                engine.set_disk_mult(n, sp.max(1e-3));
            }
        }
        let journaled = cfg.faults.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::CoordinatorCrash { .. } | FaultEvent::LeaderPartition { .. }
            )
        });
        if journaled {
            metrics.leader_term.set(1.0);
        }
        let elastic_events = cfg.faults.events.iter().any(|ev| {
            matches!(
                ev,
                FaultEvent::NodeDecommission { .. }
                    | FaultEvent::NodeJoin { .. }
                    | FaultEvent::RebalanceStall { .. }
            )
        });
        let elastic = if elastic_events || cfg.elastic.is_some() {
            let ecfg = cfg.elastic.unwrap_or_default();
            // The sub-collection universe is whatever the sampled demands
            // can touch; ownership starts as the paper's static striping.
            let subs = states
                .iter()
                .map(|s: &QState| s.demand.pr_per_collection.len())
                .max()
                .unwrap_or(0) as u32;
            let all: Vec<NodeId> = (0..cfg.nodes).map(|n| NodeId::new(n as u32)).collect();
            let mut stall_windows: Vec<(f64, f64)> = cfg
                .faults
                .events
                .iter()
                .filter_map(|ev| match *ev {
                    FaultEvent::RebalanceStall { from, until } => Some((from, until)),
                    _ => None,
                })
                .collect();
            stall_windows
                .sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
            metrics.rebalance_converged.set(1.0);
            metrics.ownership_epoch.set(0.0);
            Some(ElasticState {
                cfg: ecfg,
                subs,
                ownership: OwnershipMap::balanced(subs, &all),
                draining: vec![false; cfg.nodes],
                pending_steps: std::collections::VecDeque::new(),
                plan_seq: 0,
                heal_start: None,
                stall_windows,
            })
        } else {
            None
        };
        QaSimulation {
            engine,
            states,
            arrivals,
            next_arrival: 0,
            resident: vec![0; cfg.nodes],
            commit: vec![ResourceVector::default(); cfg.nodes],
            migrations: MigrationCounts::default(),
            dispatcher: QuestionDispatcher {
                functions: LoadFunctions::paper(),
                hysteresis,
            },
            functions: LoadFunctions::paper(),
            records: (0..cfg.questions).map(|_| None).collect(),
            completed: 0,
            in_flight: 0,
            dead: vec![false; cfg.nodes],
            slow: vec![1.0; cfg.nodes],
            timeline: {
                let mut t: Vec<(f64, FaultAction)> = cfg
                    .node_failures
                    .iter()
                    .map(|&(at, n)| (at, FaultAction::Die(NodeId::new(n))))
                    .collect();
                for ev in &cfg.faults.events {
                    match *ev {
                        FaultEvent::Crash { node, at, rejoin } => {
                            t.push((at, FaultAction::Die(node)));
                            if let Some(r) = rejoin {
                                t.push((r, FaultAction::Rejoin(node)));
                            }
                        }
                        FaultEvent::Straggler {
                            node,
                            from,
                            until,
                            factor,
                        } => {
                            t.push((from, FaultAction::Slow(node, factor)));
                            t.push((until, FaultAction::Unslow(node)));
                        }
                        FaultEvent::CoordinatorCrash { at, rejoin } => {
                            t.push((at, FaultAction::CoordinatorDown));
                            if let Some(r) = rejoin {
                                t.push((r, FaultAction::CoordinatorUp));
                            }
                        }
                        FaultEvent::LeaderPartition { from, until } => {
                            t.push((from, FaultAction::PartitionStart));
                            t.push((until, FaultAction::PartitionEnd));
                        }
                        FaultEvent::NodeDecommission { node, at } => {
                            t.push((at, FaultAction::Decommission(node)));
                        }
                        FaultEvent::NodeJoin { node, at } => {
                            t.push((at, FaultAction::Join(node)));
                        }
                        // Stall windows pace the migration scheduler, not
                        // the task engine: they were collected into
                        // `ElasticState::stall_windows` above.
                        FaultEvent::RebalanceStall { .. } => {}
                        // Federation faults address the broker tier above
                        // this per-shard simulation: the `federation`
                        // crate's virtual-time mirror consumes them, a
                        // single-coordinator run has no shard to lose.
                        FaultEvent::ShardDown { .. }
                        | FaultEvent::ShardPartition { .. }
                        | FaultEvent::BrokerCrash { .. } => {}
                        // Corruption events damage persisted byte stores;
                        // the integrity DES (crate::integrity) models the
                        // detect→quarantine→scrub→repair cycle in virtual
                        // time. The question-latency engine here treats
                        // storage as abstract demand, so there is nothing
                        // to flip.
                        FaultEvent::BitFlip { .. } | FaultEvent::TornWrite { .. } => {}
                    }
                }
                // Stable sort: same-time actions apply in config order,
                // which is itself deterministic.
                t.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
                t
            },
            next_fault: 0,
            link_judge: cfg.faults.link_judge(),
            net_seq: 0,
            monitor_judge: cfg.faults.monitor_judge(),
            monitor_seq: 0,
            observed: if cfg.faults.monitor_loss > 0.0 {
                vec![vec![ResourceVector::default(); cfg.nodes]; cfg.nodes]
            } else {
                Vec::new()
            },
            trace: Vec::new(),
            admission_wait: std::collections::VecDeque::new(),
            journaled,
            term: 1,
            leader_down: false,
            down_at: 0.0,
            pending_promote: None,
            zombie: false,
            journal_records: 0,
            elastic,
            metrics,
            clock,
            node_load,
            cfg,
        }
    }

    /// Sum of all outstanding load commitments (diagnostics: must be zero
    /// when no question is in flight).
    pub fn residual_commit(&self) -> f64 {
        self.commit.iter().map(|v| v.cpu + v.disk).sum()
    }

    /// Test helper: run to completion in place and return the residual
    /// commitment sum (see [`residual_commit`](Self::residual_commit)).
    #[doc(hidden)]
    pub fn run_ref(&mut self) -> f64 {
        self.drive();
        self.residual_commit()
    }

    /// Run to completion and report.
    pub fn run(mut self) -> SimReport {
        self.drive();
        let makespan = self.engine.now();
        SimReport {
            questions: self
                .records
                .into_iter()
                .map(|r| r.expect("all questions completed"))
                .collect(),
            migrations: self.migrations,
            makespan,
            trace: self.trace,
            metrics: self.metrics.registry().snapshot(),
        }
    }

    /// The main event loop: arrivals, failures and task completions.
    fn drive(&mut self) {
        loop {
            let gate_open = self
                .cfg
                .max_in_flight
                .map(|cap| self.in_flight < cap)
                .unwrap_or(true);
            let next_arrival_t = if self.leader_down {
                // No coordinator: arrivals park at the (dead) front door
                // until a standby promotes. Nothing is lost — the journal
                // has every admitted question, and held arrivals resume
                // under the new term.
                None
            } else if self.cfg.serial {
                (self.next_arrival < self.states.len() && self.completed == self.next_arrival)
                    .then(|| self.engine.now())
            } else if !gate_open {
                None
            } else if self.cfg.max_in_flight.is_some() {
                // Closed loop: arrivals are immediate once the gate opens.
                (self.next_arrival < self.states.len()).then(|| self.engine.now())
            } else {
                self.arrivals.get(self.next_arrival).copied()
            };
            let next_failure_t = self.timeline.get(self.next_fault).map(|&(t, _)| t);
            let next_migration_t = self
                .elastic
                .as_ref()
                .and_then(|e| e.pending_steps.front().map(|&(t, _)| t));

            // Standby promotion due? (Fires before arrivals so held
            // questions are admitted under the new term, not the old.)
            if let Some(p) = self.pending_promote {
                if p <= self.engine.now() {
                    self.promote(self.engine.now());
                    continue;
                }
            }

            // Immediate arrival?
            if let Some(t) = next_arrival_t {
                if t <= self.engine.now()
                    && next_failure_t
                        .map(|ft| ft > self.engine.now())
                        .unwrap_or(true)
                {
                    self.submit(self.next_arrival);
                    self.next_arrival += 1;
                    continue;
                }
            }
            // Immediate fault action?
            if let Some(ft) = next_failure_t {
                if ft <= self.engine.now() {
                    let (_, action) = self.timeline[self.next_fault];
                    self.next_fault += 1;
                    match action {
                        FaultAction::Die(node) => {
                            self.fail_node(node);
                            self.elastic_on_loss(node, ft);
                        }
                        FaultAction::Rejoin(node) => {
                            self.revive_node(node);
                            self.elastic_on_rejoin(node, ft);
                        }
                        FaultAction::Slow(node, factor) => self.set_slow(node, factor),
                        FaultAction::Unslow(node) => self.set_slow(node, 1.0),
                        FaultAction::CoordinatorDown => self.coordinator_down(ft),
                        FaultAction::CoordinatorUp => {
                            // The ex-leader rejoins as a fenced standby;
                            // the workload itself is unaffected.
                        }
                        FaultAction::PartitionStart => self.partition_start(ft),
                        FaultAction::PartitionEnd => self.zombie = false,
                        FaultAction::Decommission(node) => self.decommission(node, ft),
                        FaultAction::Join(node) => self.node_join(node, ft),
                    }
                    continue;
                }
            }
            // Migration step due? (After fault actions: a same-instant
            // membership change reshapes the plan the step belongs to.)
            if let Some(mt) = next_migration_t {
                if mt <= self.engine.now() {
                    self.apply_next_migration(mt.max(self.engine.now()));
                    continue;
                }
            }

            let next_ext = [
                next_arrival_t,
                next_failure_t,
                next_migration_t,
                self.pending_promote,
            ]
            .into_iter()
            .flatten()
            .reduce(f64::min);

            match self.engine.advance(next_ext) {
                Advance::TaskDone { tag, at, .. } => self.handle(tag, at),
                Advance::ReachedTime(_) => {
                    // The immediate-arrival/failure branches above fire on
                    // the next iteration.
                }
                Advance::Idle => {
                    if self.next_arrival >= self.states.len() {
                        break;
                    }
                    self.submit(self.next_arrival);
                    self.next_arrival += 1;
                }
            }

            if self.completed == self.states.len() && self.next_arrival >= self.states.len() {
                break;
            }
        }
        // A promotion still pending when the workload drains must fire
        // anyway: the standby's lease expires on the virtual clock whether
        // or not new work arrives, and the failover/recovery metrics must
        // record the event.
        if let Some(p) = self.pending_promote {
            self.promote(p.max(self.engine.now()));
        }
        // Migration steps still pending when the workload drains apply on
        // the virtual clock anyway: healing is a property of the
        // membership protocol, not of question traffic.
        loop {
            let Some(t) = self
                .elastic
                .as_ref()
                .and_then(|e| e.pending_steps.front().map(|&(t, _)| t))
            else {
                break;
            };
            self.apply_next_migration(t.max(self.engine.now()));
        }
        // Anything still parked in the admission queue when the system
        // goes idle is waiting on a slot that will never free; reject it
        // deterministically so every offered question has a record.
        while let Some(q) = self.admission_wait.pop_front() {
            self.reject(q);
        }
    }

    /// The leader coordinator crashes. In-flight sub-tasks keep running —
    /// the standbys tail the journal over the link layer, so the work
    /// already granted is never lost — but no new question can be admitted
    /// until a standby's lease expires and it finishes replaying the
    /// journal (linear in the record count).
    fn coordinator_down(&mut self, at: f64) {
        if self.leader_down {
            return;
        }
        self.leader_down = true;
        self.down_at = at;
        self.pending_promote =
            Some(at + FAILOVER_LEASE_SECS + REPLAY_SECS_PER_RECORD * self.journal_records as f64);
    }

    /// The leader is partitioned from its standbys. Unlike a crash it
    /// keeps serving (arrivals flow), but once the lease lapses a standby
    /// promotes to the next term and the isolated ex-leader becomes a
    /// zombie whose journal appends are fenced.
    fn partition_start(&mut self, at: f64) {
        self.down_at = at;
        self.pending_promote =
            Some(at + FAILOVER_LEASE_SECS + REPLAY_SECS_PER_RECORD * self.journal_records as f64);
    }

    /// A standby's lease expired and its journal replay finished: it is
    /// now the leader for the next term.
    fn promote(&mut self, at: f64) {
        self.pending_promote = None;
        self.term += 1;
        if self.leader_down {
            self.leader_down = false;
        } else {
            // Partition promotion: the deposed ex-leader keeps serving
            // until the partition heals; every append it attempts in the
            // meantime is rejected by the term fence.
            self.zombie = true;
        }
        self.metrics.failovers.inc();
        self.metrics.leader_term.set(self.term as f64);
        self.metrics
            .recovery_seconds
            .observe((at - self.down_at).max(0.0));
        self.metrics.replayed_records.add(self.journal_records);
        self.metrics.resumed_questions.add(self.in_flight as u64);
    }

    /// Account `n` journal appends by the serving coordinator. Inert
    /// unless the schedule contains coordinator faults; a zombie
    /// ex-leader's appends land in `dqa_fenced_grants_total` instead of
    /// the journal.
    fn journal_mark(&mut self, n: u64) {
        if !self.journaled {
            return;
        }
        if self.zombie {
            self.metrics.fenced_grants.add(n);
            return;
        }
        self.journal_records += n;
        self.metrics.journal_records.add(n);
    }

    /// Inject a permanent node failure: kill its tasks, recover their work
    /// (Fig. 5c for sender partitions, Fig. 6b for chunks), re-home its
    /// resident questions.
    fn fail_node(&mut self, node: NodeId) {
        if self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = true;
        self.metrics.worker_failures.inc();
        assert!(
            self.dead.iter().any(|d| !d),
            "failure injection killed every node"
        );
        // Its committed load is gone with it.
        self.commit[node.index()] = ResourceVector::default();

        let killed = self.engine.kill_where(|tag| match *tag {
            Tag::Qp(q) => self.states[q].home == node,
            Tag::PrPart { node: n, .. }
            | Tag::ApPart { node: n, .. }
            | Tag::ApChunk { node: n, .. } => n == node,
            Tag::PoMerge(q) | Tag::ApSort(q) => self.states[q].home == node,
        });

        // Re-home questions resident on the dead node first, so recovery
        // paths that consult `home` see a live node.
        let resident: Vec<usize> = (0..self.states.len())
            .filter(|&q| {
                self.states[q].home == node
                    && !matches!(self.states[q].phase, Phase::Pending | Phase::Done)
            })
            .collect();
        for q in resident {
            let new_home = self.least_loaded_live();
            self.resident[node.index()] = self.resident[node.index()].saturating_sub(1);
            self.update_thrash(node);
            self.resident[new_home.index()] += 1;
            let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
            self.add_commit(new_home, c);
            self.update_thrash(new_home);
            self.states[q].home = new_home;
        }

        for tag in killed {
            match tag {
                Tag::Qp(q) => {
                    // Restart QP on the (re-homed) node.
                    let home = self.states[q].home;
                    let qp = self.states[q].demand.qp;
                    self.engine.spawn(vec![Stage::cpu(home, qp)], Tag::Qp(q));
                }
                Tag::PrPart { q, node: n, .. } => {
                    self.states[q].pr_outstanding -= 1;
                    self.states[q].pr_queue.fail(n);
                    self.redispatch_pr(q);
                }
                Tag::PoMerge(q) => {
                    let now = self.engine.now();
                    self.start_po(q, now);
                }
                Tag::ApPart { q, node: n, .. } => {
                    self.states[q].ap_outstanding -= 1;
                    let items = self.states[q].ap_partitions.remove(&n).unwrap_or_default();
                    if !items.is_empty() {
                        // Fig. 5c: build a new task from the unprocessed
                        // partition and reschedule it.
                        let target = self.least_loaded_live();
                        self.spawn_ap_partition(q, target, items);
                    } else if self.states[q].ap_outstanding == 0 {
                        let now = self.engine.now();
                        self.start_sort(q, now);
                    }
                }
                Tag::ApChunk { q, node: n, .. } => {
                    self.states[q].ap_outstanding -= 1;
                    if let Some(queue) = self.states[q].ap_queue.as_mut() {
                        queue.fail(n);
                    }
                    self.redispatch_ap_chunks(q);
                }
                Tag::ApSort(q) => {
                    let now = self.engine.now();
                    self.start_sort(q, now);
                }
            }
        }
    }

    /// A transiently crashed node rejoins with reset state: it becomes
    /// eligible for new placements again. Work it lost was already
    /// recovered at crash time; its pre-crash load commitments stay
    /// zeroed (the runtime's rejoin hygiene, mirrored in virtual time).
    fn revive_node(&mut self, node: NodeId) {
        if !self.dead[node.index()] {
            return;
        }
        self.dead[node.index()] = false;
        self.commit[node.index()] = ResourceVector::default();
        self.resident[node.index()] = 0;
        self.update_thrash(node);
    }

    /// Open or close a straggler window: the node's CPU and disk run at
    /// `factor` of their normal speed until further notice.
    fn set_slow(&mut self, node: NodeId, factor: f64) {
        self.slow[node.index()] = factor.clamp(1e-3, 1.0);
        self.update_thrash(node);
    }

    // ---- elastic membership (virtual-time mirror of `rebalance`) -----

    /// Whether `node` must not receive new placements: dead, or draining
    /// out of the pool under the elastic tier.
    fn is_retired(&self, node: usize) -> bool {
        self.dead[node] || self.elastic.as_ref().is_some_and(|e| e.draining[node])
    }

    /// Operator drain ([`FaultEvent::NodeDecommission`]): the node stops
    /// taking new placements immediately, its sub-collections evacuate
    /// one throttle quantum at a time, and it departs — through the same
    /// recovery paths a crash exercises, so nothing is lost — once the
    /// evacuation plan completes. Without the elastic tier (impossible
    /// via the fault schedule, reachable programmatically) a decommission
    /// degenerates to a permanent crash.
    fn decommission(&mut self, node: NodeId, at: f64) {
        let Some(mut es) = self.elastic.take() else {
            self.fail_node(node);
            return;
        };
        if self.dead[node.index()] || es.draining[node.index()] {
            self.elastic = Some(es);
            return;
        }
        let survivors: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&n| !self.dead[n] && !es.draining[n] && n != node.index())
            .map(|n| NodeId::new(n as u32))
            .collect();
        assert!(!survivors.is_empty(), "decommission would empty the pool");
        es.draining[node.index()] = true;
        es.plan_seq += 1;
        let plan = plan_evacuation(
            &es.ownership,
            node,
            &survivors,
            RebalanceReason::Drain,
            es.plan_seq,
            self.term,
        );
        self.admit_plan(&mut es, plan, at);
        let idle = es.pending_steps.is_empty();
        self.elastic = Some(es);
        if idle {
            // The node owned nothing: it departs without a plan.
            self.finish_rebalance(at);
        }
    }

    /// A standby or previously drained node joins
    /// ([`FaultEvent::NodeJoin`]): it becomes placeable again and
    /// receives its fair share of sub-collections, throttled behind
    /// foreground traffic.
    fn node_join(&mut self, node: NodeId, at: f64) {
        if self.dead[node.index()] {
            self.revive_node(node);
        }
        let Some(mut es) = self.elastic.take() else {
            return;
        };
        es.draining[node.index()] = false;
        // A join cancels any unapplied evacuation off this node.
        es.pending_steps.retain(|(_, s)| s.from != node);
        let live: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&n| !self.dead[n] && !es.draining[n])
            .map(|n| NodeId::new(n as u32))
            .collect();
        es.plan_seq += 1;
        let plan = plan_join(&es.ownership, node, &live, es.plan_seq, self.term);
        self.admit_plan(&mut es, plan, at);
        self.elastic = Some(es);
    }

    /// Permanent loss under the elastic tier: once the detector's lease
    /// floor elapses (the DES knows ground truth, so detection latency is
    /// the configured lease rather than phi accrual over heartbeats), the
    /// dead node's sub-collections evacuate onto the survivors.
    fn elastic_on_loss(&mut self, node: NodeId, at: f64) {
        let Some(mut es) = self.elastic.take() else {
            return;
        };
        // Unapplied steps touching the dead node are void: transfers off
        // it are now the evacuation's job, and transfers onto it would
        // orphan the sub-collection. Anything thereby left behind on a
        // draining donor is re-planned when the queue next drains.
        es.pending_steps
            .retain(|(_, s)| s.from != node && s.to != node);
        if es.ownership.owned_by(node).is_empty() {
            self.elastic = Some(es);
            return;
        }
        let detect = at + es.cfg.detector.lease_secs.max(0.0);
        let survivors: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&n| !self.dead[n] && !es.draining[n])
            .map(|n| NodeId::new(n as u32))
            .collect();
        es.plan_seq += 1;
        let plan = plan_evacuation(
            &es.ownership,
            node,
            &survivors,
            RebalanceReason::PermanentLoss,
            es.plan_seq,
            self.term,
        );
        self.admit_plan(&mut es, plan, detect);
        self.elastic = Some(es);
    }

    /// A transiently crashed node rejoined: under the elastic tier that
    /// is a join — it takes back a fair share (its sub-collections may
    /// have been evacuated while it was down).
    fn elastic_on_rejoin(&mut self, node: NodeId, at: f64) {
        if self.elastic.is_some() {
            self.node_join(node, at);
        }
    }

    /// Record a freshly minted plan and schedule its steps on the virtual
    /// clock: one step per throttle quantum, queued behind any steps
    /// already pending (the concurrency cap), pushed past stall windows.
    /// Empty plans vanish without a trace.
    fn admit_plan(&mut self, es: &mut ElasticState, plan: MigrationPlan, at: f64) {
        if plan.is_empty() {
            return;
        }
        self.metrics.rebalance_plans(&plan.reason.to_string()).inc();
        // The plan record lands in the journal before any step applies.
        self.journal_mark(1);
        self.metrics.rebalance_converged.set(0.0);
        es.heal_start.get_or_insert(at);
        let quantum = es.cfg.throttle.step_secs.max(1e-6);
        if !es.pending_steps.is_empty() {
            self.metrics.rebalance_throttled("saturated").inc();
        }
        let mut t = at.max(es.pending_steps.back().map_or(at, |&(t, _)| t));
        for step in plan.steps {
            t += quantum;
            let clear = es.clear_of_stalls(t);
            if clear > t {
                self.metrics.rebalance_throttled("stalled").inc();
                t = clear;
            }
            es.pending_steps.push_back((t, step));
        }
    }

    /// Apply the head migration step at its scheduled time, or defer it
    /// one quantum when the throttle says foreground questions need the
    /// headroom — migration never competes with question deadlines.
    fn apply_next_migration(&mut self, at: f64) {
        let Some(mut es) = self.elastic.take() else {
            return;
        };
        let Some((t, step)) = es.pending_steps.pop_front() else {
            self.elastic = Some(es);
            return;
        };
        let verdict =
            es.cfg
                .throttle
                .grant(self.in_flight, self.cfg.overload.max_in_flight, 0, false);
        if !verdict.is_go() {
            self.metrics.rebalance_throttled("yielding").inc();
            es.pending_steps
                .push_front((t + es.cfg.throttle.step_secs.max(1e-6), step));
            self.elastic = Some(es);
            return;
        }
        if es.ownership.apply_step(&step) {
            self.metrics.rebalance_migrated.inc();
            self.metrics
                .ownership_epoch
                .set(es.ownership.epoch() as f64);
            // The completed transfer is journaled (step-done record).
            self.journal_mark(1);
        }
        let drained = es.pending_steps.is_empty();
        self.elastic = Some(es);
        if drained {
            self.finish_rebalance(at);
        }
    }

    /// The step queue drained: re-plan anything a mid-plan membership
    /// change orphaned, let fully evacuated drained nodes depart, and
    /// close the heal window once the ownership invariant holds again.
    fn finish_rebalance(&mut self, at: f64) {
        let Some(mut es) = self.elastic.take() else {
            return;
        };
        // 1. A drain whose remaining steps were voided (its target died
        // mid-plan) re-plans against the current survivor set.
        let mut replanned = false;
        for n in 0..self.cfg.nodes {
            let node = NodeId::new(n as u32);
            if !es.draining[n] || self.dead[n] || es.ownership.owned_by(node).is_empty() {
                continue;
            }
            let survivors: Vec<NodeId> = (0..self.cfg.nodes)
                .filter(|&m| !self.dead[m] && !es.draining[m])
                .map(|m| NodeId::new(m as u32))
                .collect();
            if survivors.is_empty() {
                continue;
            }
            es.plan_seq += 1;
            let plan = plan_evacuation(
                &es.ownership,
                node,
                &survivors,
                RebalanceReason::Drain,
                es.plan_seq,
                self.term,
            );
            self.admit_plan(&mut es, plan, at);
            replanned = true;
        }
        if replanned {
            self.elastic = Some(es);
            return;
        }
        // 2. Fully evacuated drained nodes depart for real; their
        // still-running work recovers through the crash paths.
        let departures: Vec<NodeId> = (0..self.cfg.nodes)
            .filter(|&n| {
                es.draining[n]
                    && !self.dead[n]
                    && es.ownership.owned_by(NodeId::new(n as u32)).is_empty()
            })
            .map(|n| NodeId::new(n as u32))
            .collect();
        self.elastic = Some(es);
        for node in departures {
            self.fail_node(node);
        }
        // 3. Convergence: every sub-collection owned by a live,
        // non-draining node again closes the heal window.
        let converged = {
            let es = self.elastic.as_ref().expect("restored above");
            let mut live = Vec::new();
            for n in 0..self.cfg.nodes {
                if !self.dead[n] && !es.draining[n] {
                    live.push(NodeId::new(n as u32));
                }
            }
            es.ownership.verify_complete(es.subs, &live).is_ok()
        };
        if converged {
            self.metrics.rebalance_converged.set(1.0);
            // Convergence is journaled: a successor replaying the log
            // knows the plan is retired, not resumable.
            self.journal_mark(1);
            if let Some(start) = self.elastic.as_mut().and_then(|e| e.heal_start.take()) {
                self.metrics.heal_seconds.observe((at - start).max(0.0));
            }
        } else {
            self.metrics.rebalance_converged.set(0.0);
        }
    }

    /// Skew trigger: when the whole-task Eq. 1 gauge spread across live
    /// nodes exceeds the configured threshold and no plan is in flight,
    /// move one sub-collection from the hottest node to the coolest.
    /// Evaluated at question completion — the same sampling point as the
    /// load gauges.
    fn maybe_rebalance_skew(&mut self, at: f64) {
        let (threshold, idle) = match &self.elastic {
            Some(es) => (es.cfg.skew_threshold, es.pending_steps.is_empty()),
            None => return,
        };
        let Some(threshold) = threshold else {
            return;
        };
        if !idle {
            return;
        }
        let f = self.functions;
        let loads: Vec<(NodeId, f64)> = self
            .loads()
            .into_iter()
            .map(|(n, v)| (n, f.load_for(QaModule::Qp, v)))
            .collect();
        let Some(mut es) = self.elastic.take() else {
            return;
        };
        if let Some(plan) = plan_skew(&es.ownership, &loads, threshold, es.plan_seq + 1, self.term)
        {
            es.plan_seq += 1;
            self.admit_plan(&mut es, plan, at);
        }
        self.elastic = Some(es);
    }

    /// Test/bench helper: `(ownership epoch, invariant holds)` when the
    /// elastic tier is active.
    #[doc(hidden)]
    pub fn elastic_snapshot(&self) -> Option<(u64, bool)> {
        self.elastic.as_ref().map(|es| {
            let live: Vec<NodeId> = (0..self.cfg.nodes)
                .filter(|&n| !self.dead[n] && !es.draining[n])
                .map(|n| NodeId::new(n as u32))
                .collect();
            (
                es.ownership.epoch(),
                es.ownership.verify_complete(es.subs, &live).is_ok(),
            )
        })
    }

    /// After a PR worker failure: hand recovered collection chunks to live
    /// workers that are currently idle for this question.
    fn redispatch_pr(&mut self, q: usize) {
        let live: Vec<NodeId> = self.states[q]
            .pr_nodes_used
            .iter()
            .copied()
            .filter(|n| !self.dead[n.index()])
            .collect();
        let workers = if live.is_empty() {
            vec![self.states[q].home]
        } else {
            live
        };
        for node in workers {
            if self.states[q].pr_queue.outstanding(node) == 0 {
                if let Some(chunk) = self.states[q].pr_queue.pull(node) {
                    self.spawn_pr_chunk(q, node, chunk);
                }
            }
        }
        if self.states[q].pr_outstanding == 0 && self.states[q].pr_queue.drained() {
            let now = self.engine.now();
            let dt = now - self.states[q].phase_start;
            self.states[q].timings.accumulate(QaModule::Pr, dt);
            self.start_po(q, now);
        }
    }

    /// After an AP worker failure in RECV mode: live workers pull the
    /// recovered chunks.
    fn redispatch_ap_chunks(&mut self, q: usize) {
        let live: Vec<NodeId> = self.states[q]
            .ap_nodes_used
            .iter()
            .copied()
            .filter(|n| !self.dead[n.index()])
            .collect();
        let workers = if live.is_empty() {
            vec![self.states[q].home]
        } else {
            live
        };
        for node in workers {
            let outstanding = self.states[q]
                .ap_queue
                .as_ref()
                .map(|x| x.outstanding(node))
                .unwrap_or(0);
            if outstanding == 0 {
                let chunk = self.states[q].ap_queue.as_mut().and_then(|x| x.pull(node));
                if let Some(chunk) = chunk {
                    let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                    self.add_commit(node, c);
                    self.spawn_ap_chunk(q, node, chunk);
                }
            }
        }
        let drained = self.states[q]
            .ap_queue
            .as_ref()
            .map(|x| x.drained())
            .unwrap_or(true);
        if self.states[q].ap_outstanding == 0 && drained {
            let now = self.engine.now();
            let dt = now - self.states[q].phase_start;
            self.states[q].timings.accumulate(QaModule::Ap, dt);
            self.start_sort(q, now);
        }
    }

    // ---- placement & load bookkeeping -------------------------------

    fn record(&mut self, question: usize, kind: SimEventKind) {
        if self.cfg.record_trace {
            let at = self.engine.now();
            self.trace.push(SimEvent { at, question, kind });
        }
    }

    fn loads(&self) -> Vec<(NodeId, ResourceVector)> {
        (0..self.cfg.nodes)
            .filter(|&n| !self.is_retired(n))
            .map(|n| (NodeId::new(n as u32), self.commit[n]))
            .collect()
    }

    /// Publish the admission-gate gauges (`dqa_in_flight`,
    /// `dqa_admission_waiting`) from the current counters.
    fn publish_gate(&self) {
        self.metrics.in_flight.set(self.in_flight as f64);
        self.metrics
            .admission_waiting
            .set(self.admission_wait.len() as f64);
    }

    /// Publish every node's Eq. 1–3 load values into the `dqa_node_load`
    /// gauges — the simulator's analogue of the runtime's broadcast-monitor
    /// sampling point, evaluated at each admission and completion.
    fn publish_node_loads(&self) {
        for (n, gauges) in self.node_load.iter().enumerate() {
            for (weights, gauge) in gauges {
                gauge.set(weights.load(self.commit[n]));
            }
        }
    }

    /// Record one finished question into the catalogue: response time via
    /// the virtual-clock [`PhaseTimer`], the per-module durations of every
    /// phase that actually ran, the five Table 9 overhead slices, and the
    /// outcome counter.
    fn observe_question(&self, q: usize, at: f64) {
        self.clock.set(at);
        let st = &self.states[q];
        st.timer.stop(&self.clock, &self.metrics.question_seconds);
        let t = st.timings;
        for (hist, dur) in [
            (&self.metrics.qp_seconds, t.qp),
            (&self.metrics.pr_seconds, t.pr + t.ps),
            (&self.metrics.po_seconds, t.po),
            (&self.metrics.ap_seconds, t.ap),
        ] {
            if dur > 0.0 {
                hist.observe(dur);
            }
        }
        let o = st.overhead;
        self.metrics.overhead_kw_send.observe(o.kw_send);
        self.metrics.overhead_par_recv.observe(o.par_recv);
        self.metrics.overhead_par_send.observe(o.par_send);
        self.metrics.overhead_ans_recv.observe(o.ans_recv);
        self.metrics.overhead_ans_sort.observe(o.ans_sort);
        match st.outcome {
            QuestionOutcome::Answered => self.metrics.answered.inc(),
            QuestionOutcome::Degraded => self.metrics.degraded.inc(),
            QuestionOutcome::Rejected => {}
        }
    }

    /// The cluster view as `observer` sees it. Without monitor-loss
    /// injection this is the true [`QaSimulation::loads`]; with it, each
    /// peer's row refreshes only when that broadcast packet survives, so
    /// dispatchers act on stale load values (liveness is unaffected — a
    /// dead node is dropped from every view, mirroring the runtime's
    /// heartbeat-staleness check, which monitor loss does not defeat).
    fn loads_seen_by(&mut self, observer: NodeId) -> Vec<(NodeId, ResourceVector)> {
        if self.cfg.faults.monitor_loss <= 0.0 {
            return self.loads();
        }
        let o = observer.index();
        for n in 0..self.cfg.nodes {
            let msg = self.monitor_seq;
            self.monitor_seq += 1;
            let flow = ((o as u64) << 32) | n as u64;
            if n == o || !self.monitor_judge.lost(flow, msg) {
                self.observed[o][n] = self.commit[n];
            }
        }
        (0..self.cfg.nodes)
            .filter(|&n| !self.is_retired(n))
            .map(|n| (NodeId::new(n as u32), self.observed[o][n]))
            .collect()
    }

    /// The least-loaded live node (whole-task load function).
    fn least_loaded_live(&self) -> NodeId {
        let f = self.functions;
        self.loads()
            .into_iter()
            .min_by(|a, b| {
                f.load_for(QaModule::Qp, a.1)
                    .partial_cmp(&f.load_for(QaModule::Qp, b.1))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            })
            .map(|(n, _)| n)
            .expect("at least one live node")
    }

    fn add_commit(&mut self, node: NodeId, v: ResourceVector) {
        let c = &mut self.commit[node.index()];
        c.cpu += v.cpu;
        c.disk += v.disk;
    }

    fn remove_commit(&mut self, node: NodeId, v: ResourceVector) {
        let c = &mut self.commit[node.index()];
        c.cpu = (c.cpu - v.cpu).max(0.0);
        c.disk = (c.disk - v.disk).max(0.0);
        // Snap floating-point residue to zero: an ε-load would otherwise
        // make the meta-scheduler treat an idle node as the most loaded of
        // an all-idle set and exclude it from partitions.
        if c.cpu < 1e-9 {
            c.cpu = 0.0;
        }
        if c.disk < 1e-9 {
            c.disk = 0.0;
        }
    }

    /// A network stage routed per the configured network model: the home
    /// node's switched link, or the shared segment.
    fn net_stage(&self, home: NodeId, bytes: f64) -> Stage {
        if self.cfg.switched_network {
            Stage::net_link(home, bytes)
        } else {
            Stage::net(bytes)
        }
    }

    /// Network stage(s) for one message after link-fault injection. A lost
    /// message is charged the modeled retransmission timeout before the
    /// retry goes out; a delayed one is held back by the configured
    /// latency; a duplicated one doubles the bytes on the wire (chunk-id
    /// dedup at the receiver is free). Flow = destination link, msg = a
    /// global per-transfer sequence number — both deterministic, so any
    /// schedule replays bit-stably. With a clean link this is exactly
    /// [`QaSimulation::net_stage`].
    fn faulty_net_stages(&mut self, home: NodeId, bytes: f64) -> Vec<Stage> {
        if self.cfg.faults.link.is_clean() {
            return vec![self.net_stage(home, bytes)];
        }
        let msg = self.net_seq;
        self.net_seq += 1;
        match self.link_judge.decide(u64::from(home.raw()), msg) {
            LinkDecision::Deliver => vec![self.net_stage(home, bytes)],
            LinkDecision::Drop => vec![
                Stage::delay(self.link_judge.retransmit_secs()),
                self.net_stage(home, bytes),
            ],
            LinkDecision::Delay(d) => vec![Stage::delay(d), self.net_stage(home, bytes)],
            LinkDecision::Duplicate => vec![self.net_stage(home, 2.0 * bytes)],
        }
    }

    fn question_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::QA.cpu, ResourceWeights::QA.disk)
    }

    fn pr_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::PR.cpu, ResourceWeights::PR.disk)
    }

    fn ap_commit() -> ResourceVector {
        ResourceVector::new(ResourceWeights::AP.cpu, ResourceWeights::AP.disk)
    }

    fn node_speed(&self, node: NodeId) -> f64 {
        self.cfg
            .node_speeds
            .as_ref()
            .and_then(|v| v.get(node.index()).copied())
            .unwrap_or(1.0)
            .max(1e-3)
    }

    fn update_thrash(&mut self, node: NodeId) {
        let count = self.resident[node.index()];
        let excess = count.saturating_sub(self.cfg.overload_threshold) as f64;
        // Piecewise-linear slowdown: each excess resident question costs a
        // fixed fraction of the node's speed (page-stealing), floored at
        // 20 %. Linearity makes total cluster capacity invariant under
        // migrations *between* overloaded nodes, so balancing pays off
        // exactly when it moves work toward under-loaded nodes — the effect
        // the paper's experiments measure.
        // Straggler injection composes multiplicatively with thrashing.
        let speed = self.node_speed(node) * self.slow[node.index()];
        let cpu_mult = speed * (1.0 - self.cfg.thrash_slope * excess).max(0.2);
        let disk_mult = speed * (1.0 - 0.7 * self.cfg.thrash_slope * excess).max(0.2);
        self.engine.set_cpu_mult(node, cpu_mult);
        self.engine.set_disk_mult(node, disk_mult);
    }

    fn scaled(v: ResourceVector, s: f64) -> ResourceVector {
        ResourceVector::new(v.cpu * s, v.disk * s)
    }

    fn host_question(&mut self, q: usize, node: NodeId) {
        self.resident[node.index()] += 1;
        let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.update_thrash(node);
        self.states[q].home = node;
    }

    fn unhost_question(&mut self, q: usize) {
        let node = self.states[q].home;
        self.resident[node.index()] = self.resident[node.index()].saturating_sub(1);
        let c = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        self.remove_commit(node, c);
        self.update_thrash(node);
    }

    // ---- phases ------------------------------------------------------

    /// Offer one question: the admission mirror point. The offer either
    /// passes straight into [`QaSimulation::admit`], parks in the bounded
    /// virtual admission queue, or is rejected outright — the same
    /// trichotomy as the runtime's [`AdmissionGate`].
    fn submit(&mut self, q: usize) {
        let now = self.engine.now();
        {
            let st = &mut self.states[q];
            st.arrival = now.max(st.arrival);
            if let Some(d) = self.cfg.overload.deadline_secs {
                st.deadline = Some(st.arrival + d.max(0.0));
            }
        }
        if let Some(cap) = self.cfg.overload.max_in_flight {
            if self.in_flight >= cap {
                // A zero cap can never free a slot, so queueing would
                // strand the question forever: reject immediately.
                if cap > 0 && self.admission_wait.len() < self.cfg.overload.admission_queue {
                    self.admission_wait.push_back(q);
                    self.publish_gate();
                } else {
                    self.reject(q);
                }
                return;
            }
        }
        self.admit(q);
    }

    /// Refuse one offered question: it gets a zero-timing record at the
    /// rejection instant so the outcome accounting stays conservative
    /// (offered == answered + degraded + rejected, no silent drops).
    fn reject(&mut self, q: usize) {
        let at = self.engine.now();
        self.record(q, SimEventKind::Rejected);
        self.metrics.rejected.inc();
        self.publish_gate();
        let st = &mut self.states[q];
        st.phase = Phase::Done;
        st.outcome = QuestionOutcome::Rejected;
        self.records[q] = Some(QuestionRecord {
            arrival: st.arrival,
            finished: at,
            timings: ModuleTimings::default(),
            overhead: OverheadBreakdown::default(),
            home: st.home,
            pr_nodes: 0,
            ap_nodes: 0,
            outcome: QuestionOutcome::Rejected,
        });
        self.completed += 1;
    }

    /// A completion freed an in-flight slot: re-examine the head of the
    /// admission queue. Waiters whose deadline lapsed while parked are
    /// rejected (the runtime's timed condition-variable wait, in virtual
    /// time); the rest are admitted in offer order.
    fn drain_admission(&mut self) {
        let Some(cap) = self.cfg.overload.max_in_flight else {
            return;
        };
        while self.in_flight < cap {
            let Some(q) = self.admission_wait.pop_front() else {
                return;
            };
            let now = self.engine.now();
            if self.states[q].deadline.is_some_and(|d| now >= d) {
                self.reject(q);
                continue;
            }
            self.admit(q);
        }
    }

    fn admit(&mut self, q: usize) {
        let now = self.engine.now();
        // Per-node admission cap, mirrored from the runtime: when every
        // live node already hosts `cap` questions the cluster is saturated
        // and the question bounces rather than queueing on a node.
        if let Some(cap) = self.cfg.overload.max_per_node {
            let saturated = (0..self.cfg.nodes)
                .filter(|&n| !self.is_retired(n))
                .all(|n| self.resident[n] as usize >= cap);
            if saturated {
                self.reject(q);
                return;
            }
        }
        let mut dns_home = self.states[q].home;
        // DNS pointing at a dead (or draining) node: walk the ring to the
        // next placeable one.
        let mut hops = 0;
        while self.is_retired(dns_home.index()) && hops < self.cfg.nodes {
            dns_home = NodeId::new(((dns_home.raw() as usize + 1) % self.cfg.nodes) as u32);
            hops += 1;
        }
        self.states[q].home = dns_home;

        // Scheduling point 1: arrival placement per strategy, driven by the
        // cluster view as the DNS target observes it.
        let view = self.loads_seen_by(dns_home);
        let decision = match self.cfg.strategy {
            BalancingStrategy::Dns => None,
            BalancingStrategy::Inter | BalancingStrategy::Dqa => {
                self.dispatcher.decide(QaModule::Qp, dns_home, &view)
            }
            BalancingStrategy::SenderDiffusion => {
                let f = self.functions;
                SenderDiffusion::default().decide(dns_home, &view, |v| f.load_for(QaModule::Qp, v))
            }
            BalancingStrategy::Gradient => {
                let f = self.functions;
                GradientModel::default().decide(dns_home, &view, |v| f.load_for(QaModule::Qp, v))
            }
        };
        let home = match decision {
            Some(target) => {
                self.migrations.qa += 1;
                self.metrics.migrations_qa.inc();
                target
            }
            None => dns_home,
        };

        self.host_question(q, home);
        self.record(
            q,
            SimEventKind::Submitted {
                dns: dns_home,
                home,
            },
        );
        self.in_flight += 1;
        // Admission + scheduling point 1 are journaled (two records).
        self.journal_mark(2);
        self.clock.set(now);
        self.states[q].timer = PhaseTimer::start(&self.clock);
        self.publish_gate();
        self.publish_node_loads();
        let st = &mut self.states[q];
        st.phase = Phase::Qp;
        st.phase_start = now;
        let qp = st.demand.qp;
        self.engine.spawn(vec![Stage::cpu(home, qp)], Tag::Qp(q));
    }

    fn handle(&mut self, tag: Tag, at: f64) {
        match tag {
            Tag::Qp(q) => {
                let dt = at - self.states[q].phase_start;
                self.states[q].timings.accumulate(QaModule::Qp, dt);
                self.start_pr(q, at);
            }
            Tag::PrPart {
                q,
                node,
                collection,
            } => {
                self.record(q, SimEventKind::PrChunkDone { node, collection });
                // Chunk grant + partial result land in the journal.
                self.journal_mark(2);
                let c = Self::scaled(Self::pr_commit(), self.states[q].work_scale);
                self.remove_commit(node, c);
                self.states[q].pr_queue.complete_one(node);
                self.states[q].pr_outstanding -= 1;
                // Receiver-controlled: pull the next collection.
                if let Some(chunk) = self.states[q].pr_queue.pull(node) {
                    self.spawn_pr_chunk(q, node, chunk);
                } else if self.states[q].pr_outstanding == 0 {
                    let dt = at - self.states[q].phase_start;
                    self.states[q].timings.accumulate(QaModule::Pr, dt);
                    self.start_po(q, at);
                }
            }
            Tag::PoMerge(q) => {
                let home = self.states[q].home;
                self.record(q, SimEventKind::PoMerged { node: home });
                let dt = at - self.states[q].phase_start;
                self.states[q].timings.accumulate(QaModule::Po, dt);
                self.start_ap(q, at);
            }
            Tag::ApPart {
                q,
                node,
                paragraphs,
            } => {
                self.record(q, SimEventKind::ApBatchDone { node, paragraphs });
                self.journal_mark(2);
                let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                self.remove_commit(node, c);
                self.states[q].ap_partitions.remove(&node);
                self.states[q].ap_outstanding -= 1;
                if self.states[q].ap_outstanding == 0 {
                    let dt = at - self.states[q].phase_start;
                    self.states[q].timings.accumulate(QaModule::Ap, dt);
                    self.start_sort(q, at);
                }
            }
            Tag::ApChunk {
                q,
                node,
                paragraphs,
            } => {
                self.record(q, SimEventKind::ApBatchDone { node, paragraphs });
                self.journal_mark(2);
                self.states[q].ap_outstanding -= 1;
                {
                    let queue = self.states[q].ap_queue.as_mut().expect("recv mode");
                    queue.complete_one(node);
                }
                let next = self.states[q]
                    .ap_queue
                    .as_mut()
                    .expect("recv mode")
                    .pull(node);
                match next {
                    Some(chunk) => self.spawn_ap_chunk(q, node, chunk),
                    None => {
                        let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                        self.remove_commit(node, c);
                        if self.states[q].ap_outstanding == 0 {
                            let dt = at - self.states[q].phase_start;
                            self.states[q].timings.accumulate(QaModule::Ap, dt);
                            self.start_sort(q, at);
                        }
                    }
                }
            }
            Tag::ApSort(q) => {
                self.finish(q, at);
            }
        }
    }

    fn module_allocation(&mut self, q: usize, module: QaModule) -> Vec<NodeId> {
        let home = self.states[q].home;
        if self.cfg.strategy != BalancingStrategy::Dqa {
            return vec![home];
        }
        // The dispatcher schedules the *remainder* of this question, so the
        // question's own commitment on its home node must not count against
        // that node (otherwise an otherwise-idle home would be excluded
        // from its own partitions).
        let own = Self::scaled(Self::question_commit(), self.states[q].work_scale);
        let mut loads = self.loads_seen_by(home);
        if let Some(entry) = loads.iter_mut().find(|(n, _)| *n == home) {
            entry.1.cpu = (entry.1.cpu - own.cpu).max(0.0);
            entry.1.disk = (entry.1.disk - own.disk).max(0.0);
        }
        let f = self.functions;
        // Per-node overload breaker (policy mirror): nodes past the
        // saturation threshold are excluded from this partition decision,
        // like the runtime's quarantine-tripped breaker. When everything is
        // saturated, fall back to the home node rather than stalling.
        if let Some(threshold) = self.cfg.overload.breaker_load {
            let before = loads.len();
            loads.retain(|(_, v)| f.load_for(module, *v) <= threshold);
            let tripped = before - loads.len();
            if tripped > 0 {
                self.metrics.breaker_trips.add(tripped as u64);
            }
            if loads.is_empty() {
                return vec![home];
            }
        }
        // Elastic routing: PR chunks go to sub-collection owners. The
        // ownership map is control-plane state — any node *can* serve any
        // chunk — so when no owner is in view the home node serves as the
        // degraded fallback rather than stalling the question.
        if module == QaModule::Pr {
            if let Some(es) = &self.elastic {
                let subs = self.states[q].demand.pr_per_collection.len() as u32;
                loads.retain(|(n, _)| es.owns_any(*n, subs));
                if loads.is_empty() {
                    return vec![home];
                }
            }
        }
        let alloc = meta_schedule(
            &loads,
            |v| f.load_for(module, v),
            |v| f.is_underloaded(module, v),
        )
        .expect("nodes exist");
        let nodes: Vec<NodeId> = alloc.iter().map(|a| a.node).collect();
        let disagrees = nodes.len() != 1 || nodes[0] != home;
        if disagrees {
            match module {
                QaModule::Pr => {
                    self.migrations.pr += 1;
                    self.metrics.migrations_pr.inc();
                }
                QaModule::Ap => {
                    self.migrations.ap += 1;
                    self.metrics.migrations_ap.inc();
                }
                _ => {}
            }
        }
        nodes
    }

    /// Whether the remaining deadline budget can no longer cover the
    /// estimated demand of `module`. The simulator's estimate is the
    /// question's own sampled demand spread over the live pool — the
    /// oracle analogue of the runtime's EWMA estimator. PR carries its
    /// fused PS share, matching the runtime's observation model.
    fn should_shed(&self, q: usize, module: QaModule, now: f64) -> bool {
        let Some(deadline) = self.states[q].deadline else {
            return false;
        };
        let live = self.dead.iter().filter(|&&dead| !dead).count().max(1) as f64;
        let demand = match module {
            QaModule::Pr => self.states[q].demand.pr_total() + self.states[q].demand.ps_total(),
            QaModule::Ap => self.states[q].demand.ap_total(),
            _ => return false,
        };
        let estimate = demand / live;
        (deadline - now) < estimate * self.cfg.overload.shed_headroom.max(0.0)
    }

    /// Shed `module`: skip it (and everything after it except the final
    /// sort) and complete degraded — the virtual-time mirror of the
    /// runtime's coverage-annotated short-circuit.
    fn shed(&mut self, q: usize, module: QaModule, now: f64) {
        self.record(q, SimEventKind::Shed { module });
        match module {
            QaModule::Ap => self.metrics.shed_ap.inc(),
            _ => self.metrics.shed_pr.inc(),
        }
        self.states[q].outcome = QuestionOutcome::Degraded;
        self.start_sort(q, now);
    }

    fn start_pr(&mut self, q: usize, now: f64) {
        // Shedding decision point 1: a question whose budget cannot cover
        // PR returns an empty degraded answer before occupying workers.
        if self.should_shed(q, QaModule::Pr, now) {
            self.shed(q, QaModule::Pr, now);
            return;
        }
        // Scheduling point 2: the PR dispatcher (journaled).
        let nodes = self.module_allocation(q, QaModule::Pr);
        self.journal_mark(1);
        let st = &mut self.states[q];
        st.phase = Phase::Pr;
        st.phase_start = now;
        st.pr_total_demand = st.demand.pr_total().max(1e-12);
        st.pr_nodes_used = nodes.clone();

        let mut order: Vec<usize> = (0..st.demand.pr_per_collection.len()).collect();
        if self.cfg.pr_cost_aware {
            // LPT: sort sub-collections by decreasing *estimated* demand.
            // The estimator's error is modeled as multiplicative noise
            // (deterministic per question/collection).
            let cv = self.cfg.pr_estimate_cv;
            let seed = self.cfg.seed;
            let estimates: Vec<f64> = st
                .demand
                .pr_per_collection
                .iter()
                .enumerate()
                .map(|(c, &d)| {
                    let mut rng = Rng::new(seed ^ (q as u64) << 8 ^ c as u64);
                    let noise: f64 = 1.0 + cv * (rng.f64() - 0.5) * 2.0;
                    d * noise.max(0.1)
                })
                .collect();
            order.sort_by(|&a, &b| {
                estimates[b]
                    .partial_cmp(&estimates[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        let collections: Vec<Vec<usize>> = order.into_iter().map(|c| vec![c]).collect();
        st.pr_queue = ChunkQueue::new(collections);

        // Keyword propagation overhead (analytic; negligible bytes).
        let remote = nodes.iter().filter(|n| **n != st.home).count();
        st.overhead.kw_send += remote as f64 * 64.0 / self.cfg.net_bandwidth;

        // Each selected node pulls its first collection.
        let mut started = 0;
        for node in nodes {
            let chunk = self.states[q].pr_queue.pull(node);
            match chunk {
                Some(c) => {
                    self.spawn_pr_chunk(q, node, c);
                    started += 1;
                }
                None => break,
            }
        }
        debug_assert!(started > 0, "at least one PR sub-task");
    }

    fn spawn_pr_chunk(&mut self, q: usize, node: NodeId, chunk: Vec<usize>) {
        let home = self.states[q].home;
        let w = ResourceWeights::PR;
        let collection = chunk.first().copied().unwrap_or(0) as u32;
        let mut disk = 0.0;
        let mut cpu = 0.0;
        for c in chunk {
            let d = self.states[q].demand.pr_per_collection[c];
            disk += w.disk * d;
            cpu += w.cpu * d + self.states[q].demand.ps_per_collection[c];
            if node != home {
                self.states[q].pr_remote_demand += d;
            }
        }
        let c = Self::scaled(Self::pr_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.states[q].pr_outstanding += 1;
        self.engine.spawn(
            vec![Stage::disk(node, disk), Stage::cpu(node, cpu)],
            Tag::PrPart {
                q,
                node,
                collection,
            },
        );
    }

    fn start_po(&mut self, q: usize, now: f64) {
        let st = &mut self.states[q];
        st.phase = Phase::Po;
        st.phase_start = now;
        let home = st.home;
        // Paragraphs produced remotely come back over the network.
        let remote_share = st.pr_remote_demand / st.pr_total_demand;
        let profile_paragraphs = st.demand.ap_per_paragraph.len() as f64 * 1.7; // retrieved > accepted
        let bytes = remote_share * profile_paragraphs * self.cfg.paragraph_bytes;
        st.overhead.par_recv += bytes / self.cfg.net_bandwidth;
        let merge_cpu = st.demand.po
            + self.cfg.per_partition_cpu_secs * st.pr_nodes_used.len().saturating_sub(1) as f64;
        let mut stages = self.faulty_net_stages(home, bytes);
        stages.push(Stage::cpu(home, merge_cpu));
        self.engine.spawn(stages, Tag::PoMerge(q));
    }

    fn start_ap(&mut self, q: usize, now: f64) {
        // Shedding decision point 2: AP is the most expensive phase
        // (Table 2); a question that cannot fit it keeps its PR/PO work
        // and completes degraded instead of dispatching doomed batches.
        if self.should_shed(q, QaModule::Ap, now) {
            self.shed(q, QaModule::Ap, now);
            return;
        }
        // Scheduling point 3: the AP dispatcher (journaled).
        let nodes = self.module_allocation(q, QaModule::Ap);
        self.journal_mark(1);
        let st = &mut self.states[q];
        st.phase = Phase::Ap;
        st.phase_start = now;
        st.ap_nodes_used = nodes.clone();

        let n_par = st.demand.ap_per_paragraph.len();
        let items: Vec<usize> = (0..n_par).collect();

        match self.cfg.ap_partition {
            PartitionStrategy::Recv { chunk_size } => {
                let chunks = partition_recv(items, chunk_size);
                self.states[q].ap_queue = Some(ChunkQueue::new(chunks));
                for node in nodes {
                    let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                    self.add_commit(node, c);
                    let chunk = self.states[q]
                        .ap_queue
                        .as_mut()
                        .expect("just set")
                        .pull(node);
                    match chunk {
                        Some(c) => self.spawn_ap_chunk(q, node, c),
                        None => {
                            let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
                            self.remove_commit(node, c);
                        }
                    }
                }
                if self.states[q].ap_outstanding == 0 {
                    // No paragraphs at all: straight to sorting.
                    self.states[q].timings.accumulate(QaModule::Ap, 0.0);
                    self.start_sort(q, now);
                }
            }
            strategy => {
                let weights = vec![1.0 / nodes.len() as f64; nodes.len()];
                let parts = match strategy {
                    PartitionStrategy::Send => partition_send(items, &weights),
                    PartitionStrategy::Isend => partition_isend(items, &weights),
                    PartitionStrategy::Recv { .. } => unreachable!("handled above"),
                };
                let mut any = false;
                for (node, part) in nodes.iter().copied().zip(parts) {
                    if part.is_empty() {
                        continue;
                    }
                    any = true;
                    self.spawn_ap_partition(q, node, part);
                }
                if !any {
                    self.states[q].timings.accumulate(QaModule::Ap, 0.0);
                    self.start_sort(q, now);
                }
            }
        }
    }

    fn ap_stage_list(
        &mut self,
        q: usize,
        node: NodeId,
        items: &[usize],
        per_task_cpu: f64,
        per_task_net: f64,
    ) -> Vec<Stage> {
        let home = self.states[q].home;
        let demand: f64 = items
            .iter()
            .map(|&i| self.states[q].demand.ap_per_paragraph[i])
            .sum();
        let mut stages = Vec::with_capacity(3);
        if node != home {
            let bytes = items.len() as f64 * self.cfg.paragraph_bytes + per_task_net;
            self.states[q].overhead.par_send += bytes / self.cfg.net_bandwidth;
            stages.extend(self.faulty_net_stages(home, bytes));
        }
        stages.push(Stage::cpu(node, demand + per_task_cpu));
        if node != home {
            self.states[q].overhead.ans_recv += self.cfg.answer_bytes / self.cfg.net_bandwidth;
            stages.extend(self.faulty_net_stages(home, self.cfg.answer_bytes));
        }
        stages
    }

    fn spawn_ap_partition(&mut self, q: usize, node: NodeId, items: Vec<usize>) {
        let stages = self.ap_stage_list(q, node, &items, self.cfg.per_partition_cpu_secs, 0.0);
        let c = Self::scaled(Self::ap_commit(), self.states[q].work_scale);
        self.add_commit(node, c);
        self.states[q].ap_outstanding += 1;
        let paragraphs = items.len() as u32;
        self.states[q].ap_partitions.insert(node, items);
        self.engine.spawn(
            stages,
            Tag::ApPart {
                q,
                node,
                paragraphs,
            },
        );
    }

    fn spawn_ap_chunk(&mut self, q: usize, node: NodeId, items: Vec<usize>) {
        let stages = self.ap_stage_list(
            q,
            node,
            &items,
            self.cfg.per_chunk_cpu_secs,
            self.cfg.per_chunk_net_bytes,
        );
        self.states[q].ap_outstanding += 1;
        let paragraphs = items.len() as u32;
        self.engine.spawn(
            stages,
            Tag::ApChunk {
                q,
                node,
                paragraphs,
            },
        );
    }

    fn start_sort(&mut self, q: usize, now: f64) {
        let st = &mut self.states[q];
        st.phase = Phase::Sort;
        st.phase_start = now;
        let home = st.home;
        let sort_cpu = 0.002 * st.ap_nodes_used.len() as f64;
        st.overhead.ans_sort += sort_cpu;
        self.engine
            .spawn(vec![Stage::cpu(home, sort_cpu)], Tag::ApSort(q));
    }

    fn finish(&mut self, q: usize, at: f64) {
        let home = self.states[q].home;
        self.record(q, SimEventKind::Completed { node: home });
        self.unhost_question(q);
        let st = &mut self.states[q];
        st.phase = Phase::Done;
        let record = QuestionRecord {
            arrival: st.arrival,
            finished: at,
            timings: st.timings,
            overhead: st.overhead,
            home: st.home,
            pr_nodes: st.pr_nodes_used.len(),
            ap_nodes: st.ap_nodes_used.len(),
            outcome: st.outcome,
        };
        self.records[q] = Some(record);
        // The final answer record closes the question's journal entry.
        self.journal_mark(1);
        self.completed += 1;
        self.in_flight -= 1;
        self.observe_question(q, at);
        self.publish_node_loads();
        self.maybe_rebalance_skew(at);
        // The freed slot may admit (or deadline-reject) queued arrivals.
        self.drain_admission();
        self.publish_gate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::Trec9Profile;

    fn low_load(nodes: usize, strategy: PartitionStrategy, questions: usize) -> SimReport {
        QaSimulation::new(SimConfig::paper_low_load(nodes, strategy, questions, 42)).run()
    }

    #[test]
    fn single_node_serial_matches_profile_total() {
        let r = low_load(1, PartitionStrategy::Recv { chunk_size: 40 }, 5);
        assert_eq!(r.questions.len(), 5);
        let t = r.mean_timings();
        let profile = Trec9Profile::complex();
        // Mean response should be within the lognormal-variance band of the
        // 158 s profile total.
        let ratio = t.total() / profile.sequential_total();
        assert!((0.5..=2.0).contains(&ratio), "ratio {ratio}");
        // No partitioning on a single node → no remote overhead.
        let o = r.mean_overhead();
        assert!(o.par_send < 1e-9 && o.par_recv < 1e-9, "{o:?}");
    }

    #[test]
    fn partitioning_speeds_up_individual_questions() {
        let q = 6;
        let r1 = low_load(1, PartitionStrategy::Recv { chunk_size: 40 }, q);
        let r4 = low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, q);
        let r8 = low_load(8, PartitionStrategy::Recv { chunk_size: 40 }, q);
        let t1 = r1.mean_response_time();
        let t4 = r4.mean_response_time();
        let t8 = r8.mean_response_time();
        let s4 = t1 / t4;
        let s8 = t1 / t8;
        // Paper Table 10: measured speedups 3.67 (4p) and 5.85 (8p).
        assert!((2.5..=4.0).contains(&s4), "4-node speedup {s4}");
        assert!((4.0..=7.5).contains(&s8), "8-node speedup {s8}");
        assert!(s8 > s4);
    }

    #[test]
    fn pr_limited_by_eight_subcollections() {
        // Table 8: PR time on 12 nodes equals PR time on 8 nodes because
        // there are only 8 sub-collections.
        let r8 = low_load(8, PartitionStrategy::Recv { chunk_size: 40 }, 8);
        let r12 = low_load(12, PartitionStrategy::Recv { chunk_size: 40 }, 8);
        let pr8 = r8.mean_timings().pr;
        let pr12 = r12.mean_timings().pr;
        let ratio = pr12 / pr8;
        assert!(
            (0.85..=1.15).contains(&ratio),
            "PR 8n {pr8:.2} vs 12n {pr12:.2}"
        );
    }

    #[test]
    fn high_load_strategies_rank_dns_inter_dqa() {
        // Tables 5-6 are a claim about means: a single run is arrival-jitter
        // noisy, exactly like a single benchmark run on real hardware, so
        // rank the means over seeds 1..=8 and ask for a 2 % margin per step.
        let mean = |strategy| -> (f64, f64) {
            let runs: Vec<SimReport> = (1..=8)
                .map(|seed| QaSimulation::new(SimConfig::paper_high_load(4, strategy, seed)).run())
                .collect();
            let over = |f: fn(&SimReport) -> f64| runs.iter().map(f).sum::<f64>() / 8.0;
            (
                over(SimReport::throughput_per_minute),
                over(SimReport::mean_response_time),
            )
        };
        let (t_dns, l_dns) = mean(BalancingStrategy::Dns);
        let (t_inter, _) = mean(BalancingStrategy::Inter);
        let (t_dqa, l_dqa) = mean(BalancingStrategy::Dqa);
        assert!(
            t_inter > 1.02 * t_dns,
            "INTER {t_inter:.2} q/min should beat DNS {t_dns:.2}"
        );
        assert!(
            t_dqa > 1.02 * t_inter,
            "DQA {t_dqa:.2} q/min should beat INTER {t_inter:.2}"
        );
        // Latency ranks the same way end to end (Table 6).
        assert!(l_dqa < 0.98 * l_dns, "DQA {l_dqa:.1}s vs DNS {l_dns:.1}s");
    }

    #[test]
    fn migrations_counted_only_for_active_dispatchers() {
        let nodes = 4;
        let dns =
            QaSimulation::new(SimConfig::paper_high_load(nodes, BalancingStrategy::Dns, 3)).run();
        assert_eq!(dns.migrations, MigrationCounts::default());
        let inter = QaSimulation::new(SimConfig::paper_high_load(
            nodes,
            BalancingStrategy::Inter,
            3,
        ))
        .run();
        assert!(inter.migrations.qa > 0, "question dispatcher should fire");
        assert_eq!(inter.migrations.pr, 0);
        let dqa =
            QaSimulation::new(SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, 3)).run();
        assert!(dqa.migrations.pr + dqa.migrations.ap > 0);
    }

    #[test]
    fn all_questions_complete_and_are_ordered() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 9)).run();
        assert_eq!(r.questions.len(), 32);
        for q in &r.questions {
            assert!(q.finished >= q.arrival);
            assert!(q.response_time() > 0.0);
            assert!(q.timings.total() > 0.0);
        }
        assert!(r.makespan >= r.questions.iter().map(|q| q.finished).fold(0.0, f64::max) - 1e-9);
    }

    #[test]
    fn commitments_drain_after_serial_run() {
        let cfg = SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 2001);
        let mut sim = QaSimulation::new(cfg);
        // Drive manually: run to completion, then inspect commitments.
        // (run() consumes self, so replicate its loop via run+rebuild.)
        let report = {
            let residual = {
                // run a clone-by-rebuild to completion

                QaSimulation::new(SimConfig::paper_low_load(
                    4,
                    PartitionStrategy::Recv { chunk_size: 40 },
                    4,
                    2001,
                ))
                .run()
            };
            let _ = &mut sim;
            residual
        };
        assert_eq!(report.questions.len(), 4);
        // Direct white-box check: drive `sim` the same way via run_ref.
        let residual = sim.run_ref();
        assert!(residual < 1e-9, "leaked commitments: {residual}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let b = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        assert_eq!(a, b);
    }

    #[test]
    fn trace_records_the_question_lifecycle_in_virtual_time() {
        let cfg = SimConfig {
            record_trace: true,
            ..SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 2, 226)
        };
        let r = QaSimulation::new(cfg).run();
        assert!(!r.trace.is_empty());
        // Monotone virtual time.
        for w in r.trace.windows(2) {
            assert!(w[0].at <= w[1].at + 1e-9);
        }
        // Each question: submitted once, 8 PR chunks, one PO merge, ≥1 AP
        // batch, completed once.
        for q in 0..2 {
            let ev: Vec<_> = r.trace.iter().filter(|e| e.question == q).collect();
            let count =
                |pred: &dyn Fn(&SimEventKind) -> bool| ev.iter().filter(|e| pred(&e.kind)).count();
            assert_eq!(count(&|k| matches!(k, SimEventKind::Submitted { .. })), 1);
            assert_eq!(count(&|k| matches!(k, SimEventKind::PrChunkDone { .. })), 8);
            assert_eq!(count(&|k| matches!(k, SimEventKind::PoMerged { .. })), 1);
            assert!(count(&|k| matches!(k, SimEventKind::ApBatchDone { .. })) >= 1);
            assert_eq!(count(&|k| matches!(k, SimEventKind::Completed { .. })), 1);
        }
        // Every sub-collection appears exactly once per question.
        let mut colls: Vec<u32> = r
            .trace
            .iter()
            .filter(|e| e.question == 0)
            .filter_map(|e| match e.kind {
                SimEventKind::PrChunkDone { collection, .. } => Some(collection),
                _ => None,
            })
            .collect();
        colls.sort_unstable();
        assert_eq!(colls, (0..8).collect::<Vec<u32>>());
    }

    #[test]
    fn trace_is_empty_when_disabled() {
        let r = QaSimulation::new(SimConfig::paper_low_load(
            2,
            PartitionStrategy::Recv { chunk_size: 40 },
            1,
            1,
        ))
        .run();
        assert!(r.trace.is_empty());
    }

    #[test]
    fn percentiles_are_ordered_and_bounded() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let p50 = r.response_time_percentile(0.5);
        let p95 = r.response_time_percentile(0.95);
        let p100 = r.response_time_percentile(1.0);
        assert!(p50 <= p95 && p95 <= p100);
        assert!(p50 > 0.0);
        let max = r
            .questions
            .iter()
            .map(QuestionRecord::response_time)
            .fold(f64::MIN, f64::max);
        assert!((p100 - max).abs() < 1e-9);
        assert!(
            r.response_time_percentile(0.0) > 0.0,
            "p0 = min, nearest rank"
        );
    }

    #[test]
    fn heterogeneous_cluster_dqa_exploits_fast_nodes() {
        // Nodes 0-1 run at half speed. DQA's dispatchers must route enough
        // work to the fast nodes to beat DNS by more than it does on the
        // homogeneous cluster.
        let speeds = Some(vec![0.5, 0.5, 1.0, 1.0]);
        let run = |strategy, speeds: Option<Vec<f64>>| {
            let mut tp = 0.0;
            for seed in [61u64, 62, 63] {
                let cfg = SimConfig {
                    node_speeds: speeds.clone(),
                    ..SimConfig::paper_high_load(4, strategy, seed)
                };
                tp += QaSimulation::new(cfg).run().throughput_per_minute();
            }
            tp / 3.0
        };
        let dns = run(BalancingStrategy::Dns, speeds.clone());
        let dqa = run(BalancingStrategy::Dqa, speeds);
        assert!(
            dqa > dns,
            "DQA {dqa:.2} vs DNS {dns:.2} on heterogeneous cluster"
        );
        let dns_h = run(BalancingStrategy::Dns, None);
        let dqa_h = run(BalancingStrategy::Dqa, None);
        let gain_hetero = dqa / dns;
        let gain_homo = dqa_h / dns_h;
        assert!(
            gain_hetero > gain_homo * 0.95,
            "heterogeneity should not shrink DQA's edge: {gain_hetero:.2} vs {gain_homo:.2}"
        );
    }

    #[test]
    fn node_failure_mid_run_recovers_all_questions() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 77);
        // Kill node 2 early: several questions lose PR/AP sub-tasks.
        cfg.node_failures = vec![(30.0, 2)];
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 6, "every question completes");
        for q in &r.questions {
            assert!(q.finished > q.arrival);
            assert_ne!(q.home, NodeId::new(2), "no question ends on the dead node");
        }
    }

    #[test]
    fn failure_slows_but_does_not_stop_high_load_run() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7);
        cfg.node_failures = vec![(60.0, 1)];
        let with_failure = QaSimulation::new(cfg).run();
        let healthy =
            QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7)).run();
        assert_eq!(with_failure.questions.len(), healthy.questions.len());
        assert!(
            with_failure.makespan > healthy.makespan,
            "losing a quarter of the cluster must cost time: {:.0} vs {:.0}",
            with_failure.makespan,
            healthy.makespan
        );
    }

    #[test]
    fn sender_partition_failure_recovers_via_fig5c() {
        let mut cfg = SimConfig::paper_low_load(4, PartitionStrategy::Isend, 4, 78);
        cfg.node_failures = vec![(50.0, 3)];
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 4);
    }

    #[test]
    fn dns_skips_dead_nodes_for_new_arrivals() {
        let mut cfg = SimConfig::paper_high_load(3, BalancingStrategy::Dns, 9);
        cfg.node_failures = vec![(0.5, 0)];
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 24);
        for q in r.questions.iter().skip(3) {
            assert_ne!(q.home, NodeId::new(0));
        }
    }

    #[test]
    fn crashed_node_rejoins_and_serves_new_arrivals() {
        // Node 1 dies at t=20 and rejoins at t=200: questions arriving
        // while it is down must avoid it, questions arriving after the
        // rejoin may use it again, and nothing is lost either way.
        let mut cfg =
            SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 8, 91);
        cfg.faults = FaultSchedule::seeded(91).crash_rejoin(NodeId::new(1), 20.0, 200.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 8, "every question completes");
        let during: Vec<_> = r
            .questions
            .iter()
            .filter(|q| q.arrival > 20.0 && q.finished < 200.0)
            .collect();
        for q in &during {
            assert_ne!(q.home, NodeId::new(1), "down node must not host");
        }
        let after: Vec<_> = r.questions.iter().filter(|q| q.arrival >= 200.0).collect();
        assert!(
            during.is_empty() || !after.is_empty(),
            "serial run long enough to straddle the rejoin"
        );
    }

    #[test]
    fn straggler_window_slows_the_run_then_releases() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            2,
            PartitionStrategy::Recv { chunk_size: 40 },
            4,
            92,
        ))
        .run();
        let mut cfg =
            SimConfig::paper_low_load(2, PartitionStrategy::Recv { chunk_size: 40 }, 4, 92);
        cfg.faults = FaultSchedule::seeded(92).straggler(NodeId::new(0), 0.0, 1e6, 0.25);
        let slowed = QaSimulation::new(cfg).run();
        assert_eq!(slowed.questions.len(), 4);
        assert!(
            slowed.makespan > clean.makespan,
            "a 4x straggler must cost time: {:.1} vs {:.1}",
            slowed.makespan,
            clean.makespan
        );
    }

    #[test]
    fn link_faults_slow_but_never_lose_questions() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            4,
            93,
        ))
        .run();
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 93);
        cfg.faults = FaultSchedule::seeded(93)
            .message_loss(0.2)
            .message_delay(0.2, 0.5)
            .message_dup(0.1);
        cfg.faults.link.retransmit_secs = 1.0;
        let faulty = QaSimulation::new(cfg).run();
        assert_eq!(faulty.questions.len(), 4, "no question lost to the link");
        assert!(
            faulty.makespan >= clean.makespan,
            "retransmissions and delays cannot make the run faster: {:.2} vs {:.2}",
            faulty.makespan,
            clean.makespan
        );
    }

    #[test]
    fn coordinator_crash_fails_over_and_loses_nothing() {
        let clean = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            6,
            96,
        ))
        .run();
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 96);
            cfg.faults = FaultSchedule::seeded(96).coordinator_crash(20.0);
            QaSimulation::new(cfg)
        };
        let crashed = build().run();
        assert_eq!(crashed.questions.len(), 6, "zero questions lost");
        assert_eq!(
            crashed.metrics.counter("dqa_failovers_total"),
            1,
            "exactly one standby promotion"
        );
        assert!(
            crashed.metrics.counter("dqa_replayed_records_total") > 0,
            "the standby replays a non-empty journal"
        );
        assert_eq!(crashed.metrics.gauges["dqa_leader_term"], 2.0);
        assert!(
            crashed
                .metrics
                .histograms
                .contains_key("dqa_recovery_seconds"),
            "recovery latency lands in the catalogue"
        );
        assert!(
            crashed.makespan >= clean.makespan,
            "held arrivals cannot make the run faster: {:.1} vs {:.1}",
            crashed.makespan,
            clean.makespan
        );
        assert_eq!(crashed, build().run(), "failover replays bit-stably");
    }

    #[test]
    fn leader_partition_fences_the_zombie_and_completes_everything() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 97);
            cfg.faults = FaultSchedule::seeded(97).leader_partition(10.0, 400.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 6, "the zombie's answers still count");
        assert_eq!(r.metrics.counter("dqa_failovers_total"), 1);
        assert!(
            r.metrics.counter("dqa_fenced_grants_total") > 0,
            "every append the deposed leader attempts must be fenced"
        );
        assert_eq!(r.metrics.gauges["dqa_leader_term"], 2.0);
        assert_eq!(r, build().run(), "partition schedule replays bit-stably");
    }

    #[test]
    fn monitor_loss_degrades_balancing_but_is_deterministic() {
        let run = |loss: f64| {
            let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 94);
            cfg.faults = FaultSchedule::seeded(94).monitor_loss(loss);
            QaSimulation::new(cfg).run()
        };
        let lossy = run(0.8);
        assert_eq!(lossy.questions.len(), 32, "stale views lose no questions");
        assert_eq!(lossy, run(0.8), "monitor loss must replay bit-stably");
        // A fully-informed run and a mostly-blind run may place questions
        // differently; both must still complete everything.
        assert_eq!(run(0.0).questions.len(), 32);
    }

    #[test]
    fn every_fault_type_is_inert_at_zero_rate() {
        // A seeded-but-empty schedule must reproduce the unfaulted run
        // bit for bit (guards the fast paths in faulty_net_stages and
        // loads_seen_by).
        let base =
            QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 95)).run();
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 95);
        cfg.faults = FaultSchedule::seeded(12345)
            .message_loss(0.0)
            .message_delay(0.0, 1.0)
            .message_dup(0.0)
            .monitor_loss(0.0);
        assert_eq!(QaSimulation::new(cfg).run(), base);
    }

    #[test]
    fn permissive_policy_answers_everything() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.answered, r.questions.len());
        assert_eq!(counts.rejected + counts.degraded, 0);
    }

    #[test]
    fn admission_cap_rejects_past_queue_depth_and_conserves() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 6);
        cfg.overload = OverloadPolicy::server(2).with_queue(1);
        // Compress arrivals so the burst genuinely contends for 2+1 slots.
        cfg.arrival_spacing = (0.0, 0.1);
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.offered(), r.questions.len(), "zero silent drops");
        assert_eq!(counts.offered(), 32);
        assert!(
            counts.rejected > 0,
            "32-question burst must bounce: {counts:?}"
        );
        assert!(counts.answered > 0, "someone gets through: {counts:?}");
        for q in &r.questions {
            if q.outcome == QuestionOutcome::Rejected {
                assert_eq!(q.timings.total(), 0.0, "rejected questions do no work");
                assert_eq!(q.pr_nodes + q.ap_nodes, 0);
            }
        }
    }

    #[test]
    fn admission_control_is_deterministic() {
        let build = || {
            let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 7);
            cfg.overload = OverloadPolicy::server(3).with_deadline(60.0);
            cfg
        };
        let a = QaSimulation::new(build()).run();
        let b = QaSimulation::new(build()).run();
        assert_eq!(a, b);
    }

    #[test]
    fn tight_deadline_sheds_phases_and_degrades() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 44);
        // Complex TREC-9 questions need ~158 s of sequential service; a 2 s
        // budget can cover QP but never PR, so every question sheds.
        cfg.overload = OverloadPolicy::default().with_deadline(2.0);
        cfg.record_trace = true;
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.degraded, 4, "{counts:?}");
        assert_eq!(counts.rejected, 0, "nothing is rejected, only shed");
        let sheds = r
            .trace
            .iter()
            .filter(|e| matches!(e.kind, SimEventKind::Shed { .. }))
            .count();
        assert_eq!(sheds, 4, "one shed decision per question");
        // Shed questions still finish promptly — that is the whole point.
        for q in &r.questions {
            assert!(q.response_time() < 30.0, "shed question lingered");
        }
    }

    #[test]
    fn saturated_per_node_cap_rejects_everything() {
        let mut cfg = SimConfig::paper_high_load(2, BalancingStrategy::Dns, 8);
        cfg.overload = OverloadPolicy::default().with_per_node_cap(0);
        let r = QaSimulation::new(cfg).run();
        let counts = r.outcome_counts();
        assert_eq!(counts.rejected, r.questions.len());
        assert_eq!(counts.answered + counts.degraded, 0);
    }

    #[test]
    fn admitted_percentile_ignores_rejections() {
        let mut cfg = SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 9);
        cfg.overload = OverloadPolicy::server(2).with_queue(1);
        cfg.arrival_spacing = (0.0, 0.1);
        let r = QaSimulation::new(cfg).run();
        assert!(
            r.outcome_counts().rejected > 0,
            "need rejections to compare"
        );
        let all_p50 = r.response_time_percentile(0.5);
        let admitted_p50 = r.admitted_response_percentile(0.5);
        assert!(
            admitted_p50 >= all_p50,
            "near-instant rejections must not drag the admitted tail: {admitted_p50} < {all_p50}"
        );
        assert!(r.admitted_response_percentile(0.99) >= admitted_p50);
    }

    #[test]
    fn metrics_snapshots_are_bit_identical_across_replays() {
        let a = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let b = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        // The DES is deterministic and single-threaded, so the whole
        // registry — f64 histogram sums included — must replay bit-stably,
        // down to the serialized form.
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.metrics.to_json(), b.metrics.to_json());
        let round = Snapshot::from_json(&a.metrics.to_json()).expect("parses");
        assert_eq!(round, a.metrics);
        dqa_obs::validate_prometheus(&a.metrics.to_prometheus()).expect("valid exposition");
    }

    #[test]
    fn causal_span_exports_are_bit_identical_across_chaos_replays() {
        // The chaos replay matrix: every schedule shape the elastic and
        // fault tiers inject must still export byte-identical span
        // streams on a seeded double run — span identity is derived
        // arithmetic, never allocation or wall-clock order.
        let matrix: Vec<(&str, Box<dyn Fn() -> SimConfig>)> = vec![
            (
                "baseline",
                Box::new(|| SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 31)),
            ),
            (
                "crash",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.faults = FaultSchedule::seeded(31).crash(NodeId::new(2), 20.0);
                    cfg
                }),
            ),
            (
                "straggler",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.faults =
                        FaultSchedule::seeded(31).straggler(NodeId::new(1), 10.0, 30.0, 4.0);
                    cfg
                }),
            ),
            (
                "drain",
                Box::new(|| {
                    let mut cfg = SimConfig::paper_low_load(
                        4,
                        PartitionStrategy::Recv { chunk_size: 40 },
                        4,
                        31,
                    );
                    cfg.elastic = Some(ElasticConfig::default());
                    cfg.faults = FaultSchedule::seeded(31).decommission(NodeId::new(1), 15.0);
                    cfg
                }),
            ),
        ];
        for (name, build) in matrix {
            let a = QaSimulation::new(build()).run();
            let b = QaSimulation::new(build()).run();
            assert_eq!(
                a.chrome_trace(31),
                b.chrome_trace(31),
                "{name}: span export diverged across a seeded double run"
            );
            let spans = a.all_causal_spans(31);
            assert!(!spans.is_empty(), "{name}: no spans exported");
            dqa_obs::validate_nesting(&spans).unwrap_or_else(|e| panic!("{name}: {e}"));
            dqa_obs::validate_chrome_json(&a.chrome_trace(31))
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn critical_path_attributes_the_measured_latency_within_one_percent() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let mut attributed = 0usize;
        for (q, rec) in r.questions.iter().enumerate() {
            if rec.outcome == QuestionOutcome::Rejected {
                assert!(r.causal_spans(q, 5).is_empty(), "rejected q{q} has spans");
                continue;
            }
            let cp = r.question_critical_path(q, 5).expect("critical path");
            let e2e = rec.finished - rec.arrival;
            assert!(
                (cp.total() - e2e).abs() <= 1e-9 * e2e.max(1.0),
                "q{q}: path total {} vs measured e2e {e2e}",
                cp.total()
            );
            let residual = (cp.total() - cp.attributed()).abs();
            assert!(
                residual <= 0.01 * cp.total().max(f64::MIN_POSITIVE),
                "q{q}: residual {residual} on e2e {e2e}"
            );
            attributed += 1;
        }
        assert!(attributed > 0, "no completed questions to attribute");
    }

    #[test]
    fn metrics_catalogue_agrees_with_the_report() {
        let r = QaSimulation::new(SimConfig::paper_high_load(4, BalancingStrategy::Dqa, 5)).run();
        let counts = r.outcome_counts();
        let m = &r.metrics;
        assert_eq!(
            m.counter(r#"dqa_questions_total{outcome="answered"}"#),
            counts.answered as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="qa"}"#),
            r.migrations.qa as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="pr"}"#),
            r.migrations.pr as u64
        );
        assert_eq!(
            m.counter(r#"dqa_migrations_total{kind="ap"}"#),
            r.migrations.ap as u64
        );
        let h = &m.histograms["dqa_question_seconds"];
        assert_eq!(h.count as usize, r.questions.len());
        let tol = 1e-9 * r.mean_response_time().max(1.0);
        assert!((h.mean() - r.mean_response_time()).abs() < tol);
        // Eq. 1–3 gauges exist for every node/module pair; all-idle at end.
        for n in 0..4u32 {
            for module in ["QA", "PR", "AP"] {
                let key = format!(r#"dqa_node_load{{module="{module}",node="{n}"}}"#);
                assert_eq!(m.gauges[&key], 0.0, "{key} after drain");
            }
        }
        assert_eq!(m.gauges["dqa_in_flight"], 0.0);
    }

    #[test]
    fn shed_and_reject_flow_into_the_catalogue() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 44);
        cfg.overload = OverloadPolicy::default().with_deadline(2.0);
        let r = QaSimulation::new(cfg).run();
        let shed = r.metrics.counter_family("dqa_sheds_total");
        assert_eq!(shed, 4, "one shed per question");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_questions_total{outcome="degraded"}"#),
            4
        );
        let mut cfg = SimConfig::paper_high_load(2, BalancingStrategy::Dns, 8);
        cfg.overload = OverloadPolicy::default().with_per_node_cap(0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(
            r.metrics
                .counter(r#"dqa_questions_total{outcome="rejected"}"#),
            r.questions.len() as u64
        );
    }

    #[test]
    fn shared_registry_aggregates_across_runs() {
        let registry = MetricsRegistry::new();
        for seed in [5u64, 6] {
            let cfg = SimConfig {
                metrics: Some(registry.clone()),
                ..SimConfig::paper_high_load(2, BalancingStrategy::Dqa, seed)
            };
            QaSimulation::new(cfg).run();
        }
        let snap = registry.snapshot();
        assert_eq!(snap.counter_family("dqa_questions_total"), 32, "2 × 16");
    }

    #[test]
    fn phase_spans_render_a_virtual_time_waterfall() {
        let r = QaSimulation::new(SimConfig::paper_low_load(
            4,
            PartitionStrategy::Recv { chunk_size: 40 },
            2,
            226,
        ))
        .run();
        let spans = r.phase_spans(0);
        assert!(spans.len() >= 4, "QP/PR/PO/AP at least: {spans:?}");
        assert_eq!(spans[0].label, "QP");
        for w in spans.windows(2) {
            assert!(w[1].start >= w[0].start, "spans out of order");
        }
        let last = spans.last().expect("nonempty");
        assert!((last.end - r.questions[0].finished).abs() < 1e-6);
        let lines = r.waterfall(0, 40);
        assert_eq!(lines.len(), spans.len());
        assert!(lines[0].contains("QP"));
        assert!(r.phase_spans(99).is_empty(), "out of range is empty");
    }

    #[test]
    fn isend_beats_send_for_ap() {
        let send = low_load(8, PartitionStrategy::Send, 8);
        let isend = low_load(8, PartitionStrategy::Isend, 8);
        assert!(
            isend.mean_timings().ap < send.mean_timings().ap,
            "ISEND {:.2} !< SEND {:.2}",
            isend.mean_timings().ap,
            send.mean_timings().ap
        );
    }

    // ---- elastic membership ------------------------------------------

    #[test]
    fn decommission_evacuates_then_departs_with_nothing_lost() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 8, 301);
            cfg.faults = FaultSchedule::seeded(301).decommission(NodeId::new(1), 15.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 8, "zero questions lost to the drain");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="drain"}"#),
            1,
            "one drain plan minted"
        );
        assert!(
            r.metrics.counter("dqa_rebalance_migrated_total") > 0,
            "the drained node's sub-collections moved"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "ownership converged after the drain"
        );
        assert!(
            r.metrics.gauges["dqa_rebalance_ownership_epoch"] > 0.0,
            "migrations bumped the epoch"
        );
        // Questions arriving after the drain never land on the victim.
        for q in r.questions.iter().filter(|q| q.arrival > 15.0) {
            assert_ne!(q.home, NodeId::new(1), "drained node must not host");
        }
        assert_eq!(r, build().run(), "decommission replays bit-stably");
    }

    #[test]
    fn node_join_heals_a_drain_and_serves_again() {
        let build = || {
            let mut cfg =
                SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 9, 302);
            cfg.faults = FaultSchedule::seeded(302)
                .decommission(NodeId::new(2), 10.0)
                .node_join(NodeId::new(2), 120.0);
            QaSimulation::new(cfg)
        };
        let r = build().run();
        assert_eq!(r.questions.len(), 9, "every question completes");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="join"}"#),
            1,
            "the rejoin mints a join plan"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "converged again after the round trip"
        );
        assert!(
            r.metrics
                .histograms
                .contains_key("dqa_rebalance_heal_seconds"),
            "heal latency lands in the catalogue"
        );
        assert_eq!(r, build().run(), "drain/join round trip is deterministic");
    }

    #[test]
    fn rebalance_stall_window_defers_healing_but_not_questions() {
        let run_with_stall = |until: f64| {
            let mut cfg =
                SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, 303);
            cfg.faults = FaultSchedule::seeded(303)
                .decommission(NodeId::new(1), 5.0)
                .rebalance_stall(5.0, until);
            QaSimulation::new(cfg).run()
        };
        let quick = run_with_stall(5.5);
        let stalled = run_with_stall(400.0);
        assert_eq!(stalled.questions.len(), 6, "foreground unaffected");
        assert_eq!(
            stalled.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "healing completes once the window closes"
        );
        assert!(
            stalled
                .metrics
                .counter("dqa_rebalance_throttled_total{cause=\"stalled\"}")
                > 0,
            "deferred steps are counted"
        );
        let heal = |r: &SimReport| r.metrics.histograms["dqa_rebalance_heal_seconds"].sum;
        assert!(
            heal(&stalled) > heal(&quick),
            "a long stall window must delay convergence: {:.1} !> {:.1}",
            heal(&stalled),
            heal(&quick)
        );
    }

    #[test]
    fn permanent_loss_triggers_evacuation_after_the_lease() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 8, 304);
        cfg.elastic = Some(ElasticConfig::default());
        cfg.faults = FaultSchedule::seeded(304).crash(NodeId::new(2), 20.0);
        let r = QaSimulation::new(cfg).run();
        assert_eq!(r.questions.len(), 8, "crash recovery still conserves");
        assert_eq!(
            r.metrics
                .counter(r#"dqa_rebalance_plans_total{reason="permanent-loss"}"#),
            1,
            "the detector verdict mints an evacuation plan"
        );
        assert_eq!(
            r.metrics.gauges["dqa_rebalance_converged"], 1.0,
            "survivors own everything after healing"
        );
    }

    #[test]
    fn clean_elastic_run_stays_converged_and_plans_nothing() {
        let mut cfg =
            SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 4, 305);
        cfg.elastic = Some(ElasticConfig::default());
        let mut sim = QaSimulation::new(cfg);
        assert_eq!(sim.run_ref(), 0.0, "commitments drain");
        let (epoch, ok) = sim.elastic_snapshot().expect("elastic tier active");
        assert_eq!(epoch, 0, "no membership change, no migration");
        assert!(ok, "striped ownership satisfies the invariant");
    }

    #[test]
    fn elastic_schedules_without_elastic_config_activate_the_tier() {
        // The activation mirror of the `journaled` flag: a schedule with
        // membership events needs no explicit ElasticConfig.
        let mut cfg =
            SimConfig::paper_low_load(3, PartitionStrategy::Recv { chunk_size: 40 }, 4, 306);
        cfg.faults = FaultSchedule::seeded(306).decommission(NodeId::new(1), 8.0);
        let r = QaSimulation::new(cfg).run();
        assert!(r.metrics.gauges.contains_key("dqa_rebalance_converged"));
        assert_eq!(r.questions.len(), 4);
    }
}
