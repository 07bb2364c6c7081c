//! The cluster facade and the per-question coordinator.
//!
//! One module per tier seam, each with its own tests:
//!
//! * this file — [`ClusterConfig`], [`Cluster::start`], the accessors and
//!   failure-injection switches, shutdown;
//! * `ask` — the question entry points (`ask`, `submit`, `ask_many`,
//!   `resume`) and outcome accounting;
//! * `coordinate` — the Fig. 3 dataflow of one question and its three
//!   scheduling points;
//! * `phase` — the single scatter/gather driver both fan-out phases (PR,
//!   AP) run through, with its robustness policy;
//! * `elastic` — drain/join/heal and throttled, journal-fenced migration;
//! * `integrity` — corruption injection, read-path quarantine, scrub;
//! * `journaling` — the durable-decision helpers the others append through.

mod ask;
mod coordinate;
mod elastic;
mod integrity;
mod journaling;
mod phase;

use crate::board::LoadBoard;
use crate::channel::bounded;
use crate::chaos::ChaosDriver;
use crate::failover::CoordinatorJournal;
use crate::integrity::{IntegrityConfig, IntegrityRuntime};
use crate::links::FaultyLink;
use crate::message::Envelope;
use crate::monitor::BroadcastMonitors;
use crate::node::{run_node, NodeContext};
use crate::overload::{AdmissionGate, PhaseEstimator};
use crate::sync::Mutex;
use crate::trace::{TraceLog, DEFAULT_FLIGHT_RECORDER_CAPACITY};
use dqa_obs::{names, Clock, DqaMetrics, Gauge, MetricsRegistry, TraceRecorder, WallClock};
use elastic::ElasticRuntime;
use faults::{FaultSchedule, RetryPolicy};
use ir_engine::{DocumentStore, ParagraphRetriever};
use loadsim::functions::LoadFunctions;
use nlp::{NamedEntityRecognizer, QuestionProcessor};
use qa_pipeline::PipelineConfig;
use qa_types::{
    Coverage, ModuleTimings, NodeId, OverloadPolicy, ProcessedQuestion, RankedAnswers,
    ResourceVector, Trec9Profile,
};
use rebalance::ElasticConfig;
use scheduler::partition::PartitionStrategy;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Load-monitor broadcast interval (§3.1). Dispatch decisions read the
/// observing node's broadcast view when it is warm, falling back to the
/// shared board before the first packets land.
const MONITOR_INTERVAL: Duration = Duration::from_millis(5);

/// Capacity of each node's bounded ingress queue. Past it, senders block
/// up to the phase driver's send timeout and then re-queue the chunk
/// (backpressure instead of unbounded growth).
const NODE_QUEUE: usize = 256;

/// Cluster construction parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of worker nodes.
    pub nodes: usize,
    /// Pipeline knobs (answer length, PO threshold, …).
    pub pipeline: PipelineConfig,
    /// AP partitioning algorithm.
    pub ap_partition: PartitionStrategy,
    /// Coordinator sub-task poll timeout before it checks worker liveness
    /// (the failure-detection latency).
    pub subtask_poll: Duration,
    /// Heartbeat staleness window after which peers consider a node dead.
    pub staleness: Duration,
    /// Service threads per node. The paper's nodes run up to 4 questions'
    /// worth of sub-tasks concurrently (§4.2); two service threads let a
    /// node overlap a disk-bound PR chunk with a CPU-bound AP batch.
    pub workers_per_node: usize,
    /// Fault schedule the cluster runs under (crashes/rejoins/stragglers
    /// via the chaos driver, link faults on every envelope, monitor packet
    /// loss). [`FaultSchedule::none`] — the default — is fully inert.
    pub faults: FaultSchedule,
    /// Wall-clock seconds per schedule second (`0.001` runs a schedule
    /// authored in simulator seconds at millisecond scale).
    pub fault_time_scale: f64,
    /// Bounded retry budget per phase: every recovered (re-queued or
    /// speculated) chunk spends one unit; an exhausted budget degrades the
    /// answer instead of retrying forever.
    pub retry: RetryPolicy,
    /// Speculative re-execution trigger: after this many consecutive empty
    /// poll rounds, a straggler's oldest chunk is cloned onto an idle
    /// worker (first result wins). `None` (default) disables speculation.
    pub speculate_after: Option<u32>,
    /// Admission control and load shedding (see [`OverloadPolicy`]). The
    /// default is fully permissive, preserving the pre-overload behavior.
    /// Its `deadline_secs` is the per-question deadline: past it,
    /// coordinators abandon outstanding chunks and return a degraded,
    /// coverage-annotated answer instead of blocking.
    pub overload: OverloadPolicy,
    /// Metrics registry the cluster records into. `None` (default) makes
    /// the cluster create its own enabled registry; pass a shared one to
    /// aggregate across clusters, or [`MetricsRegistry::disabled`] to
    /// turn every instrument into a no-op (the overhead baseline).
    pub metrics: Option<MetricsRegistry>,
    /// Identity seed for causal-span trace ids
    /// ([`dqa_obs::derive_trace_id`]). A federation broker and its shard
    /// clusters must share it so their span streams stitch into one
    /// trace per question; the value never influences execution.
    pub trace_seed: u64,
    /// Durable question journal the coordinator appends its decisions to
    /// (admission, the three scheduling points, chunk grants, partial
    /// results, final answers). `None` (default) disables journaling; with
    /// a journal, a successor coordinator can replay it and
    /// [`Cluster::resume`] every in-flight question. All journal file I/O
    /// lives in the `journal` crate — the `raw-fs-write` lint rule keeps
    /// ad-hoc writes out of this one.
    pub journal: Option<CoordinatorJournal>,
    /// Elastic membership: ownership-mapped sub-collections, a lease/phi
    /// failure detector, and operator [`Cluster::drain`]/[`Cluster::join`]
    /// verbs backed by throttled, journal-fenced migration plans. The last
    /// [`ElasticConfig::standby_nodes`] of `nodes` start suspended (warm
    /// spares owning nothing) until a `join` pulls them in. `None`
    /// (default) disables the tier; every pre-elastic behavior — routing,
    /// recovery, journaling — is unchanged.
    pub elastic: Option<ElasticConfig>,
    /// Data-integrity tier: a checksummed `DQAIDX3` segment image of the
    /// index plus a replica copy, corruption fault injection against it,
    /// read-path spot checks, quarantine of checksum-failing
    /// sub-collections (questions skip them and close coverage-annotated),
    /// and a throttled [`Cluster::scrub`]/[`Cluster::scrub_step`] engine
    /// that detects and repairs damage in the background. `None` (default)
    /// disables the tier entirely.
    pub integrity: Option<IntegrityConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 4,
            pipeline: PipelineConfig::default(),
            ap_partition: PartitionStrategy::Recv { chunk_size: 40 },
            subtask_poll: Duration::from_millis(20),
            staleness: Duration::from_millis(200),
            workers_per_node: 2,
            faults: FaultSchedule::none(),
            fault_time_scale: 1.0,
            retry: RetryPolicy::default(),
            speculate_after: None,
            overload: OverloadPolicy::default(),
            metrics: None,
            trace_seed: 0,
            journal: None,
            elastic: None,
            integrity: None,
        }
    }
}

/// Output of a distributed question execution.
#[derive(Debug, Clone)]
pub struct DistributedAnswer {
    /// QP output.
    pub processed: ProcessedQuestion,
    /// Final merged answers.
    pub answers: RankedAnswers,
    /// Wall-clock per phase.
    pub timings: ModuleTimings,
    /// Node chosen as the question's home.
    pub home: NodeId,
    /// Distinct nodes that served PR chunks.
    pub pr_nodes: Vec<NodeId>,
    /// Distinct nodes that served AP batches.
    pub ap_nodes: Vec<NodeId>,
    /// Paragraphs accepted by PO.
    pub paragraphs_accepted: usize,
    /// Chunk coverage of the answer: complete on a clean run; below 1.0
    /// when the coordinator degraded gracefully (deadline or retry budget
    /// exhausted) instead of failing the question.
    pub coverage: Coverage,
}

/// A running cluster of worker threads.
pub struct Cluster {
    cfg: ClusterConfig,
    board: Arc<LoadBoard>,
    trace: TraceLog,
    tracer: Arc<TraceRecorder>,
    links: Vec<FaultyLink>,
    workers: Vec<JoinHandle<()>>,
    qp: QuestionProcessor,
    functions: LoadFunctions,
    rr: AtomicUsize,
    shards: usize,
    /// The collection the cluster is started over: what a journaled PR
    /// partial's paragraph references are resolved against on resume.
    store: Arc<DocumentStore>,
    monitors: BroadcastMonitors,
    chaos: Option<ChaosDriver>,
    gate: AdmissionGate,
    estimator: PhaseEstimator,
    metrics: DqaMetrics,
    queue_depth: Vec<Gauge>,
    elastic: Option<Mutex<ElasticRuntime>>,
    integrity: Option<Mutex<IntegrityRuntime>>,
}

impl Cluster {
    /// Start `cfg.nodes` worker threads over a built retriever + NER.
    pub fn start(
        retriever: ParagraphRetriever,
        ner: NamedEntityRecognizer,
        cfg: ClusterConfig,
    ) -> Cluster {
        assert!(cfg.nodes > 0, "at least one node");
        let board = Arc::new(LoadBoard::new(cfg.nodes, cfg.staleness.as_secs_f64()));
        // Not `unwrap_or_default`: the derived default is the disabled registry.
        #[allow(clippy::unwrap_or_default)]
        let registry = cfg.metrics.clone().unwrap_or_else(MetricsRegistry::new);
        let metrics = DqaMetrics::new(&registry);
        let queue_depth: Vec<Gauge> = (0..cfg.nodes)
            .map(|i| metrics.queue_depth(i as u32))
            .collect();
        // One wall epoch for the event log and the causal-span recorder,
        // so sealed spans and Fig. 7 listings share a timeline.
        let span_clock: Arc<dyn Clock> = Arc::new(WallClock::new());
        let trace = TraceLog::with(
            Arc::clone(&span_clock),
            DEFAULT_FLIGHT_RECORDER_CAPACITY,
            registry.counter(names::TRACE_DROPPED_TOTAL, &[]),
        );
        let tracer = Arc::new(TraceRecorder::new(
            span_clock,
            cfg.trace_seed,
            DEFAULT_FLIGHT_RECORDER_CAPACITY,
            registry.counter(names::TRACE_DROPPED_TOTAL, &[]),
        ));
        let shards = retriever.index().shard_count();
        let store = Arc::clone(retriever.store());
        let link_judge = (!cfg.faults.link.is_clean()).then(|| cfg.faults.link_judge());
        let mut links = Vec::with_capacity(cfg.nodes);
        let mut workers = Vec::with_capacity(cfg.nodes);
        let workers_per_node = cfg.workers_per_node.max(1);
        let mut spawnless: Vec<NodeId> = Vec::new();
        for i in 0..cfg.nodes {
            // Bounded ingress: a saturated node pushes back through send
            // timeouts instead of hoarding an ever-growing queue.
            let (tx, rx) = bounded::<Envelope>(NODE_QUEUE);
            // Crossbeam channels are MPMC: every service thread of the node
            // consumes from the same queue, so sub-tasks overlap (a
            // disk-bound PR chunk next to a CPU-bound AP batch — the §4.2
            // overlap effect).
            let mut spawned = 0usize;
            for w in 0..workers_per_node {
                let ctx = NodeContext {
                    id: NodeId::new(i as u32),
                    retriever: retriever.clone(),
                    ner: ner.clone(),
                    board: Arc::clone(&board),
                    trace: trace.clone(),
                };
                let rx = rx.clone();
                // A node that cannot field all its service threads runs
                // degraded; one that fields none is treated exactly like a
                // failed node (recovery re-routes its work).
                if let Ok(handle) = std::thread::Builder::new()
                    .name(format!("dqa-node-{i}-{w}"))
                    .spawn(move || run_node(ctx, rx))
                {
                    workers.push(handle);
                    spawned += 1;
                }
            }
            if spawned == 0 {
                spawnless.push(NodeId::new(i as u32));
            }
            links.push(match link_judge {
                Some(judge) => FaultyLink::faulty(tx, judge, i as u64),
                None => FaultyLink::clean(tx),
            });
        }
        // Give every node one heartbeat so dispatchers see a full pool,
        // then retire the nodes that never came up.
        for i in 0..cfg.nodes {
            board.heartbeat(NodeId::new(i as u32));
        }
        for n in spawnless {
            board.set_alive(n, false);
        }
        let monitor_judge = (cfg.faults.monitor_loss > 0.0).then(|| cfg.faults.monitor_judge());
        let monitors = BroadcastMonitors::start_instrumented(
            Arc::clone(&board),
            MONITOR_INTERVAL,
            cfg.staleness.as_secs_f64(),
            monitor_judge,
            &metrics,
        );
        let chaos = (!cfg.faults.events.is_empty())
            .then(|| ChaosDriver::start(Arc::clone(&board), &cfg.faults, cfg.fault_time_scale));
        let gate = AdmissionGate::new(&cfg.overload);
        if let Some(journal) = &cfg.journal {
            metrics.leader_term.set(journal.term() as f64);
        }
        let integrity = cfg
            .integrity
            .clone()
            .map(|icfg| Mutex::new(IntegrityRuntime::new(icfg, Arc::clone(retriever.index()))));
        let elastic = cfg.elastic.map(|ecfg| {
            Mutex::new(ElasticRuntime::boot(
                ecfg, cfg.nodes, shards, &board, &metrics,
            ))
        });
        Cluster {
            monitors,
            cfg,
            board,
            trace,
            tracer,
            links,
            workers,
            qp: QuestionProcessor::new(),
            functions: LoadFunctions::paper(),
            rr: AtomicUsize::new(0),
            shards,
            store,
            chaos,
            gate,
            estimator: PhaseEstimator::new(Trec9Profile::average()),
            metrics,
            queue_depth,
            elastic,
            integrity,
        }
    }

    /// The metrics registry this cluster records into — the same
    /// catalogue (`dqa_*` names) the simulator backend exports.
    pub fn metrics(&self) -> &MetricsRegistry {
        self.metrics.registry()
    }

    /// The shared trace log.
    pub fn trace(&self) -> &TraceLog {
        &self.trace
    }

    /// The causal-span recorder: per-question span trees sealed at
    /// completion (admission wait, phases, chunks), plus migration and
    /// journal-replay spans. Feed its spans to [`dqa_obs::critical_path`]
    /// or [`dqa_obs::to_chrome_json`].
    pub fn tracer(&self) -> &Arc<TraceRecorder> {
        &self.tracer
    }

    /// The shared load board.
    pub fn board(&self) -> &Arc<LoadBoard> {
        &self.board
    }

    /// Inject a node failure: the node stops serving and its queued work is
    /// recovered by coordinators.
    pub fn kill_node(&self, node: NodeId) {
        self.board.set_alive(node, false);
    }

    /// Inject a transient crash: the node goes silent (queued envelopes
    /// discarded, no heartbeats) but its threads survive, so
    /// [`Cluster::resume_node`] brings it back into the pool.
    pub fn suspend_node(&self, node: NodeId) {
        self.board.suspend(node);
    }

    /// End a transient crash: the node rejoins with reset load counters;
    /// repeated quick rejoins trip the flap quarantine.
    pub fn resume_node(&self, node: NodeId) {
        self.board.resume(node);
    }

    /// The cluster view scheduling decisions are taken over: the loads of
    /// the board-alive nodes, ascending, minus — under elastic membership —
    /// standbys and draining nodes, which take nothing new however alive
    /// they still look. With `owners`, also which of those nodes own a
    /// sub-collection right now (`None` without the elastic tier): the PR
    /// owner predicate, read under the same lock acquisition.
    fn member_view(&self, owners: bool) -> (Vec<(NodeId, ResourceVector)>, Option<Vec<NodeId>>) {
        let mut loads = self.board.live_loads();
        let Some(e) = &self.elastic else {
            return (loads, None);
        };
        let es = e.lock();
        loads.retain(|(n, _)| es.is_member(*n));
        let nodes = loads.iter().map(|(n, _)| *n);
        let owning = owners.then(|| nodes.filter(|n| es.owns(*n, self.shards as u32)).collect());
        (loads, owning)
    }

    /// The board-alive nodes, ascending: the liveness half of every
    /// membership decision. Who is a *member* is the rebalancer's call — a
    /// suspended standby stays board-alive until its heartbeat goes stale.
    fn live_pool(&self) -> Vec<NodeId> {
        (0..self.cfg.nodes)
            .map(|i| NodeId::new(i as u32))
            .filter(|n| self.board.is_alive(*n))
            .collect()
    }

    /// Shut the cluster down, joining every worker. Taking `self` by value
    /// proves no `ask`/`submit` borrow is still running; queued admissions
    /// are woken and rejected by the gate drain (shutdown is deterministic:
    /// reject, never hang or race). The work itself is [`Drop`]'s.
    pub fn shutdown(self) {}
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.gate.drain();
        self.chaos.take();
        self.links.clear(); // close channels → workers exit
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Fixtures shared by the tests of every module below `cluster`.
#[cfg(test)]
mod testkit {
    use super::*;
    pub use corpus::{Corpus, CorpusConfig, QuestionGenerator};
    pub use ir_engine::{DocumentStore, RetrievalConfig, ShardedIndex};

    pub fn retriever(c: &Corpus) -> ParagraphRetriever {
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        ParagraphRetriever::new(index, store, RetrievalConfig::default())
    }

    pub fn cluster(nodes: usize, strategy: PartitionStrategy) -> (Corpus, Cluster) {
        let c = Corpus::generate(CorpusConfig::small(91)).unwrap();
        let retriever = retriever(&c);
        let cfg = ClusterConfig {
            nodes,
            ap_partition: strategy,
            ..ClusterConfig::default()
        };
        let cl = Cluster::start(retriever, NamedEntityRecognizer::standard(), cfg);
        (c, cl)
    }

    pub fn cluster_with_policy(nodes: usize, overload: OverloadPolicy) -> (Corpus, Cluster) {
        let c = Corpus::generate(CorpusConfig::small(91)).unwrap();
        let retriever = retriever(&c);
        let cfg = ClusterConfig {
            nodes,
            overload,
            ..ClusterConfig::default()
        };
        let cl = Cluster::start(retriever, NamedEntityRecognizer::standard(), cfg);
        (c, cl)
    }
}

#[cfg(test)]
mod tests {
    use super::testkit::*;
    use super::*;

    #[test]
    fn worker_pools_overlap_subtasks_on_one_node() {
        let (c, _) = cluster(1, PartitionStrategy::Recv { chunk_size: 4 });
        // A single node with two service threads still answers correctly
        // (results merge identically regardless of intra-node overlap).
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
        let cl = Cluster::start(
            retriever,
            NamedEntityRecognizer::standard(),
            ClusterConfig {
                nodes: 1,
                workers_per_node: 3,
                ap_partition: PartitionStrategy::Recv { chunk_size: 4 },
                ..ClusterConfig::default()
            },
        );
        let qs = QuestionGenerator::new(&c, 9).generate(4);
        for gq in &qs {
            let out = cl.ask(&gq.question).expect("single node answers");
            assert!(out.pr_nodes.len() == 1);
        }
        cl.shutdown();
    }

    #[test]
    fn shutdown_joins_a_drained_node() {
        // A suspended node's threads only poll; they must still notice the
        // closed channel, or `shutdown` joins them forever.
        let (_c, cl) = cluster(2, PartitionStrategy::Send);
        cl.drain(NodeId::new(1));
        cl.shutdown();
    }
}
