//! The thread-backed federation broker.
//!
//! [`FederationBroker::start`] partitions a corpus across `shards`
//! coordinator shards (each a full [`Cluster`] reusing the existing
//! admission/journal/failover machinery), optionally pairs every shard
//! with a replica over the same partition, and scatter-gathers every
//! question:
//!
//! 1. **Scatter** — the question is offered to every shard's primary over
//!    a bounded request queue, with a per-shard deadline derived from the
//!    question deadline ([`FederationPolicy::shard_deadline`]).
//! 2. **Hedge** — a shard slower than `max(hedge_after, EWMA tail)` gets
//!    one budgeted hedged retry against its replica; whichever reply
//!    lands first wins, the loser is discarded (first-result-wins dedup,
//!    like the coordinator's chunk speculation).
//! 3. **Breaker** — consecutive shard failures open a per-shard circuit
//!    breaker: primary traffic routes to the replica (or the shard sits
//!    questions out) for a cooldown.
//! 4. **Merge** — whatever responded is merged deterministically
//!    ([`RankedAnswers::merge`]) into a Coverage-annotated federation
//!    answer. A responding quorum short of `policy.quorum` is *counted*,
//!    never errored; zero responders with at least one admission
//!    rejection aggregates a max-over-shards retry-after hint; zero
//!    responders otherwise yields an empty answer with zero coverage.
//!    A question is never dropped silently and never returns an error.
//!
//! Federation faults ([`faults::FaultEvent::ShardDown`] /
//! `ShardPartition` / `BrokerCrash`) are applied broker-side from the
//! same [`FaultSchedule`] vocabulary the lower tiers use, mapped to wall
//! time by `fault_time_scale` exactly as the runtime chaos driver maps
//! node faults.

use crate::breaker::ShardBreaker;
use crate::estimator::LatencyEstimator;
use crate::partition::partition_documents;
use crate::windows::FaultWindows;
use dqa_obs::{
    names, splitmix64, CausalSpan, CauseSet, Clock, DqaMetrics, MetricsRegistry, TraceRecorder,
    WallClock, DEFAULT_FLIGHT_RECORDER_CAPACITY,
};
use dqa_runtime::channel::{bounded, Receiver, RecvTimeoutError, Sender};
use dqa_runtime::{now_instant, Admission, Cluster, ClusterConfig};
use faults::FaultSchedule;
use ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig, ShardedIndex};
use nlp::NamedEntityRecognizer;
use qa_types::{
    Coverage, Document, FederationPolicy, OverloadPolicy, Question, QuestionOutcome, RankedAnswers,
    ShardReport, ShardStatus,
};
use rebalance::ElasticConfig;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long an idle broker worker waits on its queue before re-checking
/// the shutdown flag.
const WORKER_POLL: Duration = Duration::from_millis(25);

/// Bound of each shard target's request queue.
const QUEUE_PER_SHARD: usize = 16;

/// Consecutive shard failures (timeouts or hard errors) that open the
/// shard's circuit breaker.
const BREAKER_FAILURES: u32 = 3;

/// How long an open breaker bypasses the primary, seconds.
const BREAKER_COOLDOWN_SECS: f64 = 1.0;

/// Answers kept in the merged global ranking.
const KEEP_ANSWERS: usize = 5;

/// Broker configuration.
#[derive(Debug)]
pub struct FederationConfig {
    /// Coordinator shards the corpus is partitioned across.
    pub shards: usize,
    /// Worker nodes inside each shard cluster.
    pub nodes_per_shard: usize,
    /// Pair every shard with a replica cluster over the same partition
    /// (the hedge target and breaker bypass).
    pub replicated: bool,
    /// Scatter-gather policy (quorum, hedging, breakers, deadlines).
    pub policy: FederationPolicy,
    /// Admission policy applied inside every shard cluster.
    pub overload: OverloadPolicy,
    /// Registry for the broker's own federation metrics (`dqa_shard_*`,
    /// hedge/merge/quorum counters). Each shard cluster records into its
    /// own private registry.
    pub metrics: Option<MetricsRegistry>,
    /// Fault schedule; only the federation-tier events are consumed here.
    pub faults: FaultSchedule,
    /// Seconds of wall clock per virtual schedule second (the same
    /// mapping the runtime chaos driver uses).
    pub fault_time_scale: f64,
    /// Broker worker threads per shard target (primary and replica
    /// each get their own pool) — the shard's concurrent-question lane
    /// count as seen from the broker.
    pub workers_per_shard: usize,
    /// Identity seed for causal-span trace ids. The broker's own spans
    /// (scatter, per-shard gather, hedges, merge) use it directly; each
    /// shard cluster gets a deterministically derived sub-seed so its
    /// internal question trees stay distinct traces.
    pub trace_seed: u64,
    /// Run every shard cluster under elastic membership (ownership-map
    /// chunk routing, optional warm standbys) — [`ClusterConfig::elastic`]
    /// applied per shard.
    pub elastic: Option<ElasticConfig>,
}

impl FederationConfig {
    /// Defaults for `shards` shards: 2 nodes per shard, replicated,
    /// majority quorum, permissive admission.
    pub fn new(shards: usize) -> FederationConfig {
        FederationConfig {
            shards: shards.max(1),
            nodes_per_shard: 2,
            replicated: true,
            policy: FederationPolicy::for_shards(shards.max(1)),
            overload: OverloadPolicy::default(),
            metrics: None,
            faults: FaultSchedule::none(),
            fault_time_scale: 1.0,
            workers_per_shard: 2,
            trace_seed: 0,
            elastic: None,
        }
    }
}

/// The merged result of one scatter-gathered question.
#[derive(Debug)]
pub struct FederatedAnswer {
    /// Deterministically merged global ranking.
    pub answers: RankedAnswers,
    /// Shard-level coverage composed with the responders' own coverage
    /// ([`Coverage::and`]): any lost shard or shed phase shows up here.
    pub coverage: Coverage,
    /// Whether at least `policy.quorum` shards responded.
    pub quorum_met: bool,
    /// Exactly one report per shard — the conservation ledger.
    pub shards: Vec<ShardReport>,
    /// Broker-observed end-to-end latency, seconds.
    pub latency_secs: f64,
}

/// Outcome of offering one question to the broker. Mirrors the shard
/// clusters' [`Admission`] contract one tier up: a question is either
/// answered (possibly with degraded coverage) or rejected with a
/// retry-after hint — never errored, never silently dropped.
#[derive(Debug)]
pub enum FederatedAdmission {
    /// Merged (possibly partial) federation answer.
    Answered(Box<FederatedAnswer>),
    /// Every shard refused admission (or the broker itself is down); the
    /// hint aggregates the shard hints (max over shards), so a client
    /// backing off by it clears the *slowest* gate, not just the first.
    Rejected {
        /// Aggregated client back-off hint.
        retry_after: Duration,
    },
}

impl FederatedAdmission {
    /// Three-way outcome classification (for ledgers and reports).
    pub fn outcome(&self) -> QuestionOutcome {
        match self {
            FederatedAdmission::Answered(a) if a.coverage.is_complete() => {
                QuestionOutcome::Answered
            }
            FederatedAdmission::Answered(_) => QuestionOutcome::Degraded,
            FederatedAdmission::Rejected { .. } => QuestionOutcome::Rejected,
        }
    }

    /// The merged answer, when one was produced.
    pub fn answer(&self) -> Option<&FederatedAnswer> {
        match self {
            FederatedAdmission::Answered(a) => Some(a),
            FederatedAdmission::Rejected { .. } => None,
        }
    }
}

/// Which cluster of a shard served a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    Primary,
    Replica,
}

struct ShardRequest {
    question: Question,
    reply: Sender<ShardReply>,
    origin: Origin,
}

struct ShardReply {
    origin: Origin,
    admission: Admission,
}

/// One shard target (a cluster plus its broker-side worker pool).
struct ShardHandle {
    cluster: Arc<Cluster>,
    tx: Option<Sender<ShardRequest>>,
    workers: Vec<JoinHandle<()>>,
}

impl ShardHandle {
    fn start(
        cluster: Arc<Cluster>,
        workers: usize,
        shutdown: Arc<AtomicBool>,
        shard: u32,
        role: &str,
    ) -> ShardHandle {
        let (tx, rx) = bounded::<ShardRequest>(QUEUE_PER_SHARD);
        let mut pool = Vec::with_capacity(workers.max(1));
        for w in 0..workers.max(1) {
            let cluster = Arc::clone(&cluster);
            let rx = rx.clone();
            let shutdown = Arc::clone(&shutdown);
            if let Ok(h) = std::thread::Builder::new()
                .name(format!("fed-shard-{shard}-{role}-{w}"))
                .spawn(move || run_worker(cluster, rx, shutdown))
            {
                pool.push(h);
            }
        }
        ShardHandle {
            cluster,
            tx: Some(tx),
            workers: pool,
        }
    }

    fn sender(&self) -> Option<&Sender<ShardRequest>> {
        self.tx.as_ref()
    }

    fn stop(&mut self) {
        // Dropping the sender disconnects the queue; workers drain and
        // exit on Disconnected (or on the shutdown flag at the next poll).
        self.tx = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn run_worker(cluster: Arc<Cluster>, rx: Receiver<ShardRequest>, shutdown: Arc<AtomicBool>) {
    loop {
        match rx.recv_timeout(WORKER_POLL) {
            Ok(req) => {
                let reply = ShardReply {
                    origin: req.origin,
                    admission: cluster.submit(&req.question),
                };
                // The gatherer may have moved on (deadline passed, or the
                // other lane won the hedge) — a dead reply channel is the
                // expected dedup path, not an error.
                let _ = req.reply.send_timeout(reply, WORKER_POLL);
            }
            Err(RecvTimeoutError::Timeout) => {
                if shutdown.load(Ordering::Acquire) {
                    return;
                }
            }
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

struct Shard {
    id: u32,
    primary: ShardHandle,
    replica: Option<ShardHandle>,
    breaker: ShardBreaker,
    estimator: LatencyEstimator,
}

/// Tracer-clock timestamps of one shard gather, collected inside
/// `gather_one` and turned into causal spans once the scatter's root
/// span id is known.
struct GatherTiming {
    /// Tracer seconds when the gather began.
    started: f64,
    /// Tracer seconds when the reply (or the timeout) landed.
    finished: f64,
    /// Tracer seconds the hedged retry was issued, when one was.
    hedged_at: Option<f64>,
}

struct GatherOutcome {
    report: ShardReport,
    answer: Option<(RankedAnswers, Coverage)>,
    retry_after: Option<Duration>,
    timing: GatherTiming,
}

/// A running federation: shard clusters, worker pools, breakers and the
/// broker-level metric surface.
pub struct FederationBroker {
    cfg: FederationConfig,
    shards: Vec<Shard>,
    metrics: DqaMetrics,
    windows: FaultWindows,
    shutdown: Arc<AtomicBool>,
    started: std::time::Instant,
    tracer: Arc<TraceRecorder>,
}

impl FederationBroker {
    /// Partition `documents` (indexed over `sub_collections`
    /// sub-collections) across `cfg.shards` shard clusters and start the
    /// broker tier over them.
    pub fn start(
        documents: &[Document],
        sub_collections: usize,
        cfg: FederationConfig,
    ) -> FederationBroker {
        let registry = cfg.metrics.clone().unwrap_or_else(MetricsRegistry::new);
        let metrics = DqaMetrics::new(&registry);
        let shutdown = Arc::new(AtomicBool::new(false));
        let parts = partition_documents(documents, cfg.shards);
        let mut shards = Vec::with_capacity(parts.len());
        for (i, part) in parts.iter().enumerate() {
            let index = Arc::new(ShardedIndex::build(part, sub_collections));
            let store = Arc::new(DocumentStore::new(part.clone()));
            let start_cluster = |role_salt: u64| {
                let retriever = ParagraphRetriever::new(
                    Arc::clone(&index),
                    Arc::clone(&store),
                    RetrievalConfig::default(),
                );
                let shard_cfg = ClusterConfig {
                    nodes: cfg.nodes_per_shard.max(1),
                    overload: cfg.overload,
                    metrics: Some(MetricsRegistry::new()),
                    // Distinct per-target sub-seed: the shard's internal
                    // question trees must not collide with the broker's
                    // (or each other's) traces.
                    trace_seed: cfg.trace_seed ^ splitmix64(((i as u64) << 1) | role_salt),
                    elastic: cfg.elastic.clone(),
                    ..ClusterConfig::default()
                };
                Arc::new(Cluster::start(
                    retriever,
                    NamedEntityRecognizer::standard(),
                    shard_cfg,
                ))
            };
            let primary = ShardHandle::start(
                start_cluster(0),
                cfg.workers_per_shard,
                Arc::clone(&shutdown),
                i as u32,
                "p",
            );
            let replica = cfg.replicated.then(|| {
                ShardHandle::start(
                    start_cluster(1),
                    cfg.workers_per_shard,
                    Arc::clone(&shutdown),
                    i as u32,
                    "r",
                )
            });
            shards.push(Shard {
                id: i as u32,
                primary,
                replica,
                breaker: ShardBreaker::new(BREAKER_FAILURES, BREAKER_COOLDOWN_SECS),
                estimator: LatencyEstimator::new(),
            });
        }
        let windows = FaultWindows::from_schedule(&cfg.faults);
        let tracer = Arc::new(TraceRecorder::new(
            Arc::new(WallClock::new()) as Arc<dyn Clock>,
            cfg.trace_seed,
            DEFAULT_FLIGHT_RECORDER_CAPACITY,
            registry.counter(names::TRACE_DROPPED_TOTAL, &[]),
        ));
        FederationBroker {
            cfg,
            shards,
            metrics,
            windows,
            shutdown,
            started: now_instant(),
            tracer,
        }
    }

    /// The broker's causal-span recorder: one `federated` root per
    /// scatter-gathered question, with per-shard gather spans, hedge
    /// spans and the merge step as children.
    pub fn tracer(&self) -> &Arc<TraceRecorder> {
        &self.tracer
    }

    /// A shard's primary-cluster span recorder (its internal question
    /// trees, under the shard's derived sub-seed).
    pub fn shard_tracer(&self, shard: usize) -> Option<&Arc<TraceRecorder>> {
        self.shards.get(shard).map(|s| s.primary.cluster.tracer())
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Wall seconds since the broker started.
    fn elapsed_secs(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Virtual schedule time corresponding to now (the inverse of the
    /// chaos driver's `virtual × scale → wall` mapping).
    fn virtual_now(&self) -> f64 {
        let scale = self.cfg.fault_time_scale.max(1e-9);
        self.elapsed_secs() / scale
    }

    /// Scatter one question to every shard, hedge stragglers, and merge
    /// whatever responded. See the module docs for the full contract.
    pub fn ask(&self, question: &Question) -> FederatedAdmission {
        let scatter_start = now_instant();
        let enqueued_secs = self.tracer.now();
        let mut broker_paused = false;
        // Broker-tier faults: a transient crash holds the question until
        // rejoin (the client sees latency, not loss); a permanent crash
        // refuses it with a retry hint.
        if let Some(rejoin) = self.windows.broker_down(self.virtual_now()) {
            if rejoin.is_finite() {
                let wake = rejoin * self.cfg.fault_time_scale.max(1e-9);
                let pause = wake - self.elapsed_secs();
                if pause > 0.0 {
                    broker_paused = true;
                    std::thread::sleep(Duration::from_secs_f64(pause));
                }
            } else {
                return FederatedAdmission::Rejected {
                    retry_after: Duration::from_secs_f64(
                        self.cfg.overload.retry_after_secs.max(0.0),
                    ),
                };
            }
        }
        let admitted_secs = self.tracer.now();
        let deadline_secs = self
            .cfg
            .policy
            .shard_deadline(self.cfg.overload.deadline_secs);
        let budget = AtomicUsize::new(self.cfg.policy.hedge_budget);
        let budget = &budget;
        let outcomes: Vec<GatherOutcome> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .shards
                .iter()
                .map(|sh| scope.spawn(move || self.gather_one(sh, question, deadline_secs, budget)))
                .collect();
            handles
                .into_iter()
                .zip(self.shards.iter())
                .map(|(h, sh)| {
                    h.join().unwrap_or_else(|_| GatherOutcome {
                        report: ShardReport {
                            shard: sh.id,
                            status: ShardStatus::Failed,
                            latency_secs: 0.0,
                            hedged: false,
                            hedge_won: false,
                        },
                        answer: None,
                        retry_after: None,
                        timing: GatherTiming {
                            started: admitted_secs,
                            finished: self.tracer.now(),
                            hedged_at: None,
                        },
                    })
                })
                .collect()
        });
        let gather_done_secs = self.tracer.now();
        // Draft the per-shard spans before `merge` consumes the outcomes;
        // they are parented (and emitted) only once the question resolves
        // to an answer, so rejected scatters leave no partial trees.
        let trace = self.tracer.trace_id(u64::from(question.id.raw()));
        let mut drafts: Vec<(CausalSpan, Option<CausalSpan>)> = Vec::new();
        for o in &outcomes {
            let t = &o.timing;
            if t.finished <= t.started {
                continue;
            }
            let mut causes = CauseSet::none();
            if o.report.hedged {
                causes = causes.with(CauseSet::HEDGED);
            }
            if matches!(o.report.status, ShardStatus::Degraded) {
                causes = causes.with(CauseSet::DEGRADED);
            }
            let shard_span = CausalSpan::new(
                trace,
                None,
                "shard",
                Some(o.report.shard),
                t.started,
                t.finished,
                0.0,
                causes,
            );
            let hedge_span = t.hedged_at.map(|h| {
                CausalSpan::new(
                    trace,
                    None,
                    "hedge",
                    Some(o.report.shard),
                    h.min(t.finished),
                    t.finished,
                    0.0,
                    CauseSet::none().with(CauseSet::HEDGED),
                )
            });
            drafts.push((shard_span, hedge_span));
        }
        let latency_secs = scatter_start.elapsed().as_secs_f64();
        let verdict = self.merge(outcomes, latency_secs);
        if let FederatedAdmission::Answered(answer) = &verdict {
            let merge_end_secs = self.tracer.now();
            let mut causes = CauseSet::none();
            if broker_paused {
                causes = causes.with(CauseSet::THROTTLED);
            }
            if !answer.coverage.is_complete() {
                causes = causes.with(CauseSet::DEGRADED);
            }
            let root = self.tracer.emit(CausalSpan::new(
                trace,
                None,
                "federated",
                None,
                enqueued_secs,
                merge_end_secs,
                (admitted_secs - enqueued_secs).max(0.0),
                causes,
            ));
            for (mut shard_span, hedge_span) in drafts {
                shard_span.parent = Some(root);
                let sid = self.tracer.emit(shard_span);
                if let Some(mut h) = hedge_span {
                    h.parent = Some(sid);
                    self.tracer.emit(h);
                }
            }
            self.tracer.emit(CausalSpan::new(
                trace,
                Some(root),
                "merge",
                None,
                gather_done_secs,
                merge_end_secs,
                0.0,
                CauseSet::none(),
            ));
        }
        verdict
    }

    /// Offer many questions concurrently, one scatter each; results come
    /// back in input order (the burst-demo surface).
    pub fn ask_many(&self, questions: &[Question]) -> Vec<FederatedAdmission> {
        std::thread::scope(|scope| {
            let handles: Vec<_> = questions
                .iter()
                .map(|q| scope.spawn(move || self.ask(q)))
                .collect();
            handles
                .into_iter()
                .map(|h| match h.join() {
                    Ok(a) => a,
                    Err(_) => FederatedAdmission::Rejected {
                        retry_after: Duration::ZERO,
                    },
                })
                .collect()
        })
    }

    fn gather_one(
        &self,
        sh: &Shard,
        question: &Question,
        deadline_secs: f64,
        budget: &AtomicUsize,
    ) -> GatherOutcome {
        let gather_started = self.tracer.now();
        let mut report = ShardReport {
            shard: sh.id,
            status: ShardStatus::Down,
            latency_secs: 0.0,
            hedged: false,
            hedge_won: false,
        };
        let fail = |status: ShardStatus, report: ShardReport, hedged_at: Option<f64>| {
            let mut report = report;
            report.status = status;
            self.metrics
                .shard_requests(report.shard, status.label())
                .inc();
            GatherOutcome {
                report,
                answer: None,
                retry_after: None,
                timing: GatherTiming {
                    started: gather_started,
                    finished: self.tracer.now(),
                    hedged_at,
                },
            }
        };
        // Injected shard loss/partition takes the whole member (primary
        // and replica) off the air for the window.
        if self.windows.shard_down(sh.id, self.virtual_now()) {
            return fail(ShardStatus::Down, report, None);
        }
        let now = self.elapsed_secs();
        let breaker_open = sh.breaker.is_open(now);
        self.metrics
            .shard_breaker_open(sh.id)
            .set(if breaker_open { 1.0 } else { 0.0 });
        let target = if breaker_open {
            if sh.replica.is_none() {
                return fail(ShardStatus::BreakerOpen, report, None);
            }
            Origin::Replica
        } else {
            Origin::Primary
        };
        let handle = match target {
            Origin::Primary => &sh.primary,
            Origin::Replica => match &sh.replica {
                Some(r) => r,
                None => return fail(ShardStatus::BreakerOpen, report, None),
            },
        };
        let Some(tx) = handle.sender() else {
            return fail(ShardStatus::Down, report, None);
        };
        let (reply_tx, reply_rx) = bounded::<ShardReply>(2);
        let start = now_instant();
        let req = ShardRequest {
            question: question.clone(),
            reply: reply_tx.clone(),
            origin: target,
        };
        if tx
            .send_timeout(req, Duration::from_secs_f64(deadline_secs))
            .is_err()
        {
            sh.breaker.record_failure(self.elapsed_secs());
            return fail(ShardStatus::TimedOut, report, None);
        }
        // First wait: up to the hedge trigger (capped by the deadline).
        let hedge_at = sh
            .estimator
            .hedge_trigger(self.cfg.policy.hedge_after_secs)
            .min(deadline_secs);
        let first_wait = (hedge_at - start.elapsed().as_secs_f64()).max(0.0);
        let mut reply = match reply_rx.recv_timeout(Duration::from_secs_f64(first_wait)) {
            Ok(r) => Some(r),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => None,
        };
        let mut hedged_at: Option<f64> = None;
        if reply.is_none() && target == Origin::Primary {
            // Straggling primary: hedge to the replica, budget permitting.
            if let Some(rep) = &sh.replica {
                let replica_up = rep.sender().is_some();
                let hedge_allowed = replica_up
                    && budget
                        .fetch_update(Ordering::AcqRel, Ordering::Acquire, |b| b.checked_sub(1))
                        .is_ok();
                if hedge_allowed {
                    report.hedged = true;
                    hedged_at = Some(self.tracer.now());
                    self.metrics.hedges.inc();
                    if let Some(rtx) = rep.sender() {
                        let hreq = ShardRequest {
                            question: question.clone(),
                            reply: reply_tx.clone(),
                            origin: Origin::Replica,
                        };
                        let _ = rtx.send_timeout(hreq, WORKER_POLL);
                    }
                }
            }
            let remaining = (deadline_secs - start.elapsed().as_secs_f64()).max(0.0);
            reply = reply_rx
                .recv_timeout(Duration::from_secs_f64(remaining))
                .ok();
        } else if reply.is_none() {
            // Replica-only path (breaker bypass): just wait out the rest.
            let remaining = (deadline_secs - start.elapsed().as_secs_f64()).max(0.0);
            reply = reply_rx
                .recv_timeout(Duration::from_secs_f64(remaining))
                .ok();
        }
        drop(reply_tx);
        let Some(reply) = reply else {
            sh.breaker.record_failure(self.elapsed_secs());
            return fail(ShardStatus::TimedOut, report, hedged_at);
        };
        report.latency_secs = start.elapsed().as_secs_f64();
        report.hedge_won = report.hedged && reply.origin == Origin::Replica;
        if report.hedge_won {
            self.metrics.hedge_wins.inc();
        }
        match reply.admission {
            Admission::Answered(a) => {
                report.status = if a.coverage.is_complete() {
                    ShardStatus::Answered
                } else {
                    ShardStatus::Degraded
                };
                sh.estimator.observe(report.latency_secs);
                sh.breaker.record_success();
                self.metrics
                    .shard_requests(sh.id, report.status.label())
                    .inc();
                self.metrics
                    .shard_seconds(sh.id)
                    .observe(report.latency_secs);
                GatherOutcome {
                    report,
                    answer: Some((a.answers, a.coverage)),
                    retry_after: None,
                    timing: GatherTiming {
                        started: gather_started,
                        finished: self.tracer.now(),
                        hedged_at,
                    },
                }
            }
            Admission::Rejected { retry_after } => {
                report.status = ShardStatus::Rejected;
                self.metrics
                    .shard_requests(sh.id, report.status.label())
                    .inc();
                GatherOutcome {
                    report,
                    answer: None,
                    retry_after: Some(retry_after),
                    timing: GatherTiming {
                        started: gather_started,
                        finished: self.tracer.now(),
                        hedged_at,
                    },
                }
            }
            Admission::Failed(_) => {
                sh.breaker.record_failure(self.elapsed_secs());
                fail(ShardStatus::Failed, report, hedged_at)
            }
        }
    }

    fn merge(&self, outcomes: Vec<GatherOutcome>, latency_secs: f64) -> FederatedAdmission {
        let total = outcomes.len() as u32;
        let mut reports = Vec::with_capacity(outcomes.len());
        let mut parts = Vec::new();
        let mut inner = Vec::new();
        let mut retry: Option<Duration> = None;
        for o in outcomes {
            reports.push(o.report);
            if let Some((answers, coverage)) = o.answer {
                parts.push(answers);
                inner.push(coverage);
            }
            if let Some(r) = o.retry_after {
                retry = Some(match retry {
                    Some(prev) => prev.max(r),
                    None => r,
                });
            }
        }
        let responders = inner.len();
        if let (0, Some(retry_after)) = (responders, retry) {
            // Aggregated-rejection contract: no shard produced answers
            // and at least one refused admission, so surface the
            // max-over-shards hint instead of failing on the first
            // rejecting shard.
            self.metrics.rejected.inc();
            return FederatedAdmission::Rejected { retry_after };
        }
        self.metrics.merges.inc();
        let quorum_met = responders >= self.cfg.policy.quorum.max(1);
        if !quorum_met {
            self.metrics.quorum_shortfalls.inc();
        }
        let mut coverage = Coverage {
            completed: responders as u32,
            total,
        };
        for c in inner {
            coverage = coverage.and(c);
        }
        let answers = RankedAnswers::merge(parts, KEEP_ANSWERS);
        let answer = FederatedAnswer {
            answers,
            coverage,
            quorum_met,
            shards: reports,
            latency_secs,
        };
        if answer.coverage.is_complete() {
            self.metrics.answered.inc();
        } else {
            self.metrics.degraded.inc();
        }
        self.metrics.question_seconds.observe(latency_secs);
        FederatedAdmission::Answered(Box::new(answer))
    }

    /// Stop the worker pools and shut every shard cluster down.
    pub fn shutdown(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        for sh in &mut self.shards {
            sh.primary.stop();
            if let Some(r) = &mut sh.replica {
                r.stop();
            }
        }
        // Shard clusters drain and join their node threads on drop.
        self.shards.clear();
    }
}

impl Drop for FederationBroker {
    fn drop(&mut self) {
        self.halt();
    }
}
