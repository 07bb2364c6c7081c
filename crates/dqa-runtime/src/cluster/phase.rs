//! The phase driver: the one scatter/gather loop behind both fan-out
//! phases.
//!
//! Fig. 3 distributes two phases, PR and AP, and the paper gives them a
//! single mechanism: meta-scheduled workers pulling chunks (Fig. 4), with
//! one failure-recovery scheme (Figs. 5c/6b). [`Cluster::run_phase`] is
//! that mechanism; a [`Phase`] describes only what differs between the two.

use super::Cluster;
use crate::channel::{bounded, RecvTimeoutError, Sender};
use crate::clock::now_instant;
use crate::links::SendError;
use crate::message::{Envelope, SubTask, SubTaskResult};
use crate::trace::TraceKind;
use dqa_obs::{DqaMetrics, Histogram};
use faults::RetryPolicy;
use journal::{JournalPhase, JournalRecord, QuestionRecovery};
use qa_pipeline::answer::ApItem;
use qa_pipeline::scoring::ScoredParagraph;
use qa_types::{Coverage, NodeId, ProcessedQuestion, QaError, RankedAnswers, SubCollectionId};
use scheduler::recovery::{ChunkOutcome, ChunkQueue};
use std::time::{Duration, Instant};

/// What differs between the PR and the AP phase; everything else is
/// [`Cluster::run_phase`]. A description carries no state: it names types
/// and functions, dispatched statically.
pub(super) trait Phase {
    /// What a chunk is made of.
    type Item: Clone;
    /// One chunk's result, as a worker returns it.
    type Partial;
    /// The partials gathered so far.
    type Acc: Default;
    /// The merged result of the whole phase.
    type Output;
    /// The phase's tag on journal records.
    const JOURNAL: JournalPhase;
    /// The phase's name in error texts.
    const NAME: &'static str;

    /// Reply-channel capacity over `shards` sub-collections and `workers`
    /// nodes.
    fn reply_capacity(shards: usize, workers: usize) -> usize;
    /// The Table 9 overhead slice the initial fan-out is timed into.
    fn fan_out_overhead(metrics: &DqaMetrics) -> &Histogram;
    /// Whether `chunk` travels whole in one sub-task. One chunk is one
    /// envelope and one result — the loop completes a chunk at its first
    /// result — so [`Cluster::run_phase`] refuses any other chunk before it
    /// sends anything.
    fn fits_one_task(chunk: &[Self::Item]) -> bool;
    /// The sub-task that carries chunk `id` (one that fits) to a worker.
    fn task(cl: &Cluster, processed: &ProcessedQuestion, id: u32, chunk: &[Self::Item]) -> SubTask;
    /// Unpack a worker's reply; the other phase's variant is a protocol
    /// error.
    fn payload(result: SubTaskResult) -> Result<Self::Partial, QaError>;
    /// The bytes the journal keeps of one chunk's partial.
    fn encode(partial: &Self::Partial) -> Vec<u8>;
    /// Decode a partial the journal preserved; `None` when the bytes are
    /// not a partial of this cluster's collection.
    fn decode(cl: &Cluster, payload: &[u8]) -> Option<Self::Partial>;
    /// Fold one chunk's partial into the gathered ones.
    fn fold(acc: &mut Self::Acc, partial: Self::Partial);
    /// Close the phase: merge what was gathered.
    fn finish(acc: Self::Acc, cl: &Cluster) -> Self::Output;
}

/// Receiver-controlled PR (+ PS, fused as in Fig. 3): a chunk is one
/// sub-collection, sent as a `PrShard` envelope; the partials are scored
/// paragraphs, concatenated for PO.
pub(super) struct PrPhase;

impl Phase for PrPhase {
    type Item = SubCollectionId;
    type Partial = Vec<ScoredParagraph>;
    type Acc = Vec<ScoredParagraph>;
    type Output = Vec<ScoredParagraph>;
    const JOURNAL: JournalPhase = JournalPhase::Pr;
    const NAME: &'static str = "PR";

    // Bounded ×2: link duplication can double the results in flight.
    fn reply_capacity(shards: usize, _workers: usize) -> usize {
        shards.max(1) * 2
    }

    // The keyword fan-out is the runtime analog of the paper's `kw_send`:
    // pushing the question's keywords into every PR worker's ingress queue.
    fn fan_out_overhead(metrics: &DqaMetrics) -> &Histogram {
        &metrics.overhead_kw_send
    }

    // A worker answers a `PrShard` per shard, so a chunk of two would be
    // completed by whichever answered first and lose the other's paragraphs.
    fn fits_one_task(chunk: &[SubCollectionId]) -> bool {
        chunk.len() == 1
    }

    fn task(
        _cl: &Cluster,
        processed: &ProcessedQuestion,
        id: u32,
        chunk: &[SubCollectionId],
    ) -> SubTask {
        SubTask::PrShard {
            question: processed.question.id,
            keywords: processed.keywords.clone(),
            shard: chunk[0],
            chunk: id,
        }
    }

    fn payload(result: SubTaskResult) -> Result<Self::Partial, QaError> {
        match result {
            SubTaskResult::Paragraphs { scored, .. } => Ok(scored),
            SubTaskResult::Answers { .. } => {
                Err(QaError::Protocol("AP result on PR reply channel".into()))
            }
        }
    }

    // By reference: the paragraphs' text is in the collection the successor
    // serves, so the journal keeps ids and scores and resume looks the text
    // up again.
    fn encode(partial: &Self::Partial) -> Vec<u8> {
        ScoredParagraph::encode_refs(partial)
    }

    fn decode(cl: &Cluster, payload: &[u8]) -> Option<Self::Partial> {
        ScoredParagraph::decode_refs(payload, &cl.store).ok()
    }

    fn fold(acc: &mut Self::Acc, partial: Self::Partial) {
        acc.extend(partial);
    }

    fn finish(acc: Self::Acc, _cl: &Cluster) -> Self::Output {
        acc
    }
}

/// AP over the chunks the configured SEND/ISEND/RECV strategy cut: a chunk
/// is a batch of accepted paragraphs, sent as one `ApBatch` envelope; the
/// partials are locally ranked answers, merged and sorted centrally.
pub(super) struct ApPhase;

impl Phase for ApPhase {
    type Item = ApItem;
    type Partial = RankedAnswers;
    type Acc = Vec<RankedAnswers>;
    type Output = RankedAnswers;
    const JOURNAL: JournalPhase = JournalPhase::Ap;
    const NAME: &'static str = "AP";

    fn reply_capacity(_shards: usize, workers: usize) -> usize {
        workers.max(1) * 8
    }

    // The paragraph fan-out is the `par_send` overhead slice.
    fn fan_out_overhead(metrics: &DqaMetrics) -> &Histogram {
        &metrics.overhead_par_send
    }

    fn fits_one_task(_chunk: &[ApItem]) -> bool {
        true
    }

    fn task(cl: &Cluster, processed: &ProcessedQuestion, id: u32, chunk: &[ApItem]) -> SubTask {
        SubTask::ApBatch {
            question: processed.clone(),
            items: chunk.to_vec(),
            config: cl.cfg.pipeline,
            chunk: id,
        }
    }

    fn payload(result: SubTaskResult) -> Result<Self::Partial, QaError> {
        match result {
            SubTaskResult::Answers { answers, .. } => Ok(answers),
            SubTaskResult::Paragraphs { .. } => {
                Err(QaError::Protocol("PR result on AP reply channel".into()))
            }
        }
    }

    // By value: answers are derived windows, stored nowhere else.
    fn encode(partial: &Self::Partial) -> Vec<u8> {
        partial.encode()
    }

    fn decode(_cl: &Cluster, payload: &[u8]) -> Option<Self::Partial> {
        RankedAnswers::decode(payload).ok()
    }

    fn fold(acc: &mut Self::Acc, partial: Self::Partial) {
        acc.push(partial);
    }

    // Centralized answer merging + sorting = the `ans_sort` overhead.
    fn finish(acc: Self::Acc, cl: &Cluster) -> Self::Output {
        let t = now_instant();
        let merged = RankedAnswers::merge(acc, cl.cfg.pipeline.answers_requested);
        cl.metrics
            .overhead_ans_sort
            .observe(t.elapsed().as_secs_f64());
        merged
    }
}

/// One phase in flight: the chunk queue, the reply channel's sending half,
/// the worker sets and the robustness policy — what every step of the
/// loop touches.
struct PhaseRun<'a, P: Phase> {
    cl: &'a Cluster,
    processed: &'a ProcessedQuestion,
    home: NodeId,
    queue: ChunkQueue<P::Item>,
    reply_tx: Sender<SubTaskResult>,
    /// Workers still pulling chunks.
    active: Vec<NodeId>,
    /// Every worker that was ever granted a chunk.
    used: Vec<NodeId>,
    policy: PhasePolicy,
}

impl Cluster {
    /// Scatter `chunks` of phase `P` over `workers`, gather the partials,
    /// merge them.
    ///
    /// Whatever the phase, the loop runs the same robustness policy: keyed
    /// first-result-wins completion (absorbing link duplicates,
    /// speculative twins and — through `resume` — chunks a previous
    /// coordinator incarnation already finished, so chunk execution stays
    /// exactly-once), a bounded retry budget with backoff on recovered
    /// chunks, carried across incarnations, optional speculative
    /// re-execution of straggler chunks, retransmission on lossy links,
    /// and deadline-driven graceful degradation. Grants, partials and
    /// retry spend are journaled. The phase always terminates with a
    /// coverage report; it never spins forever. A chunk that does not fit
    /// one sub-task ([`Phase::fits_one_task`]) is a protocol error, raised
    /// before anything is sent.
    pub(super) fn run_phase<P: Phase>(
        &self,
        processed: &ProcessedQuestion,
        home: NodeId,
        workers: Vec<NodeId>,
        chunks: Vec<Vec<P::Item>>,
        deadline: Option<Instant>,
        resume: Option<&QuestionRecovery>,
    ) -> Result<(P::Output, Vec<NodeId>, Coverage), QaError> {
        let question = processed.question.id;
        if !chunks.iter().all(|chunk| P::fits_one_task(chunk)) {
            return Err(QaError::Protocol(format!(
                "a {} chunk does not fit one sub-task",
                P::NAME
            )));
        }
        let (reply_tx, reply_rx) =
            bounded::<SubTaskResult>(P::reply_capacity(self.shards, workers.len()));
        let mut run = PhaseRun::<P> {
            cl: self,
            processed,
            home,
            queue: ChunkQueue::new(chunks),
            reply_tx,
            active: Vec::new(),
            used: Vec::new(),
            policy: PhasePolicy {
                retry: self.cfg.retry,
                speculate_after: self.cfg.speculate_after,
                deadline,
                // A resumed question keeps the budget it had burned before
                // the crash rather than getting a fresh allowance.
                spent: resume.map_or(0, |r| r.retry_spent(P::JOURNAL)),
                stall_rounds: 0,
                backoff_attempt: 0,
            },
        };
        let mut gathered = P::Acc::default();

        // Resume: chunks whose results the journal preserved are marked
        // complete up front and their partials restored instead of
        // recomputed. Decode first: a partial that does not decode (damaged
        // bytes, a reference this collection cannot resolve) completes
        // nothing, so its chunk is dispatched again like any other.
        if let Some(rec) = resume {
            for (chunk, payload) in rec.partials(P::JOURNAL) {
                if let Some(partial) = P::decode(self, payload) {
                    if run.queue.complete_keyed(home, chunk) == ChunkOutcome::Fresh {
                        P::fold(&mut gathered, partial);
                    }
                }
            }
        }

        let t = now_instant();
        for node in workers {
            if run.dispatch(node) {
                run.active.push(node);
                run.used.push(node);
            }
        }
        P::fan_out_overhead(&self.metrics).observe(t.elapsed().as_secs_f64());
        // A fully journal-restored phase has no chunks left to dispatch,
        // so an empty active set is completion there, not disconnection.
        if run.active.is_empty() && !run.queue.drained() {
            return Err(QaError::Disconnected(format!("no {} workers", P::NAME)));
        }

        while !run.queue.drained() {
            if run.policy.deadline_passed() {
                run.degrade();
                break;
            }
            match reply_rx.recv_timeout(run.policy.poll(self.cfg.subtask_poll)) {
                Ok(result) => {
                    let (node, chunk) = (result.node(), result.chunk());
                    let partial = P::payload(result)?;
                    run.policy.progress();
                    if run.queue.complete_keyed(node, chunk) == ChunkOutcome::Fresh {
                        // Journaled so a successor coordinator reuses the
                        // result instead of re-running the chunk.
                        if self.cfg.journal.is_some() {
                            self.journal_append(&JournalRecord::PartialResult {
                                question,
                                phase: P::JOURNAL,
                                chunk,
                                payload: P::encode(&partial),
                            });
                        }
                        P::fold(&mut gathered, partial);
                    }
                    if !run.dispatch(node) {
                        run.active.retain(|n| *n != node);
                    }
                }
                Err(RecvTimeoutError::Timeout) => {
                    if run.stalled() {
                        run.degrade();
                        break;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(QaError::Disconnected(format!(
                        "{} reply channel closed",
                        P::NAME
                    )))
                }
            }
        }
        let coverage = Coverage {
            completed: run.queue.completed(),
            total: run.queue.total(),
        };
        Ok((P::finish(gathered, self), run.used, coverage))
    }
}

impl<P: Phase> PhaseRun<'_, P> {
    /// Send chunk `id` to `node` and journal the grant. A full ingress
    /// queue (send timeout) counts as backpressure and fails the grant,
    /// which re-queues the chunk.
    fn send_chunk(&mut self, node: NodeId, id: u32, chunk: &[P::Item]) -> bool {
        let (cl, question) = (self.cl, self.processed.question.id);
        let link = &cl.links[node.index()];
        let envelope = Envelope {
            task: P::task(cl, self.processed, id, chunk),
            reply: self.reply_tx.clone(),
        };
        let sent = link.send(envelope, SEND_TIMEOUT);
        if sent == Err(SendError::Timeout) {
            cl.metrics.backpressure.inc();
            cl.trace.record(question, node, TraceKind::Backpressure);
        }
        cl.queue_depth[node.index()].set(link.queue_len() as f64);
        let granted = sent.is_ok();
        if !granted {
            self.queue.fail(node);
        } else if cl.cfg.journal.is_some() {
            cl.journal_append(&JournalRecord::ChunkGranted {
                question,
                phase: P::JOURNAL,
                chunk: id,
                node: node.raw(),
            });
        }
        granted
    }

    /// Let `node` pull its next chunk; false when the queue had none for
    /// it or the send failed.
    fn dispatch(&mut self, node: NodeId) -> bool {
        match self.queue.pull_keyed(node) {
            Some((id, chunk)) => self.send_chunk(node, id, &chunk),
            None => false,
        }
    }

    /// One empty poll round: reap dead workers, charge and re-dispatch
    /// what they held, then — as the stall persists — speculate and, on
    /// lossy links, retransmit. Returns true when the phase must give up
    /// and degrade: every worker everywhere is gone (never spin on an
    /// undrainable queue) or the retry budget is exhausted.
    fn stalled(&mut self) -> bool {
        let (requeued, pool_alive) = self.reap_failed();
        if !pool_alive || self.charge(requeued) {
            return true;
        }
        self.redispatch_idle();
        if self.policy.should_speculate() && self.speculate() {
            return true;
        }
        // Only a lossy link can make an envelope vanish while its worker
        // stays alive; coordinator-level retransmission exists for exactly
        // that case, and stays off on clean links so fault-free runs are
        // untouched.
        if !self.cl.cfg.faults.link.is_clean() && self.policy.should_retransmit() {
            // Presume the in-flight envelopes lost, re-queue and re-send
            // them; first-result-wins dedups any that were merely slow.
            let recycled = self.active.iter().map(|n| self.queue.fail(*n)).sum();
            if self.charge(recycled) {
                return true;
            }
            self.redispatch_idle();
        }
        false
    }

    /// Detect dead workers among `active`; recover their chunks. Returns
    /// the number of chunks re-queued and whether any worker (current or
    /// recruited from the live pool) remains.
    fn reap_failed(&mut self) -> (usize, bool) {
        let (cl, question) = (self.cl, self.processed.question.id);
        let queue = &mut self.queue;
        let mut requeued = 0;
        self.active.retain(|&node| {
            let alive = cl.board.is_alive(node);
            if !alive {
                requeued += queue.fail(node);
                cl.metrics.worker_failures.inc();
                cl.trace.record(question, node, TraceKind::WorkerFailed);
            }
            alive
        });
        if self.active.is_empty() && !self.queue.drained() {
            // Try to recruit replacements from the live pool.
            self.active.extend(cl.live_pool());
            return (requeued, !self.active.is_empty());
        }
        (requeued, true)
    }

    /// Charge `recovered` chunks to the retry budget (backing off first)
    /// and journal the cumulative spend, so a resumed question keeps it.
    /// Returns true when the budget is exhausted.
    fn charge(&mut self, recovered: usize) -> bool {
        let exhausted = self.policy.spend(recovered);
        if recovered > 0 {
            self.cl
                .journal_retry(self.processed.question.id, P::JOURNAL, self.policy.spent);
        }
        exhausted
    }

    /// Re-dispatch recovered chunks to the surviving idle workers.
    fn redispatch_idle(&mut self) {
        for node in self.active.clone() {
            if self.queue.outstanding(node) == 0 {
                self.dispatch(node);
            }
        }
    }

    /// Speculatively re-execute a straggler's oldest chunk on an idle node.
    /// Idle workers leave `active` when the queue dries up, so targets come
    /// from the live pool, not just the active set. Returns true when
    /// paying for the twin exhausted the retry budget.
    fn speculate(&mut self) -> bool {
        let live = self.cl.live_pool();
        let Some((to, id, chunk)) = speculate_oldest(&mut self.queue, &self.active, &live) else {
            return false;
        };
        if !self.send_chunk(to, id, &chunk) {
            return false;
        }
        if !self.active.contains(&to) {
            self.active.push(to);
        }
        if !self.used.contains(&to) {
            self.used.push(to);
        }
        self.cl.metrics.speculations.inc();
        self.cl
            .trace
            .record(self.processed.question.id, to, TraceKind::Speculated(id));
        self.policy.speculated()
    }

    /// Abandon everything still outstanding and record the degradation
    /// (graceful degradation: the question completes with partial coverage
    /// instead of erroring or hanging).
    fn degrade(&mut self) {
        let lost = self.queue.abandon();
        if lost > 0 {
            self.cl.trace.record(
                self.processed.question.id,
                self.home,
                TraceKind::Degraded(lost as usize),
            );
        }
    }
}

/// How long a coordinator waits for room in a node's ingress queue before
/// treating the send as failed and recovering the chunk.
const SEND_TIMEOUT: Duration = Duration::from_millis(100);

/// Consecutive empty poll rounds before a lossy-link coordinator presumes
/// its in-flight envelopes lost and retransmits them. Deliberately above
/// any sane `speculate_after`, so speculation gets the first try.
const RETRANSMIT_STALLS: u32 = 6;

/// Per-phase robustness bookkeeping of the drain loop: deadline, retry
/// budget with backoff, and the stall counter that triggers speculation.
struct PhasePolicy {
    retry: RetryPolicy,
    speculate_after: Option<u32>,
    deadline: Option<Instant>,
    /// Cumulative retry budget spent (journaled so recovery can restore
    /// it).
    spent: u32,
    stall_rounds: u32,
    backoff_attempt: u32,
}

impl PhasePolicy {
    fn deadline_passed(&self) -> bool {
        self.deadline.is_some_and(|d| now_instant() >= d)
    }

    /// The poll timeout, clipped so the loop re-checks a nearby deadline.
    fn poll(&self, base: Duration) -> Duration {
        match self.deadline {
            Some(d) => base.min(d.saturating_duration_since(now_instant())),
            None => base,
        }
    }

    /// A result arrived: the phase is making progress.
    fn progress(&mut self) {
        self.stall_rounds = 0;
    }

    /// A poll round timed out with `requeued` chunks recovered from dead
    /// workers. Charges the budget and applies exponential backoff before
    /// the re-dispatch. Returns true when the retry budget is exhausted.
    fn spend(&mut self, requeued: usize) -> bool {
        self.stall_rounds += 1;
        if requeued > 0 {
            self.spent += requeued as u32;
            let backoff = self.retry.backoff_secs(self.backoff_attempt);
            self.backoff_attempt += 1;
            std::thread::sleep(Duration::from_secs_f64(backoff));
        }
        self.spent > self.retry.budget
    }

    /// Whether the stall counter has reached the speculation trigger.
    fn should_speculate(&self) -> bool {
        self.speculate_after
            .is_some_and(|after| self.stall_rounds >= after)
    }

    /// Whether the stall has persisted long enough that the coordinator
    /// should presume its in-flight envelopes lost and retransmit (only
    /// meaningful on lossy links). Resets the stall counter when it fires.
    fn should_retransmit(&mut self) -> bool {
        if self.stall_rounds >= RETRANSMIT_STALLS {
            self.stall_rounds = 0;
            true
        } else {
            false
        }
    }

    /// A chunk was speculatively re-issued: charge it, restart the stall
    /// counter. Returns true when the retry budget is exhausted.
    fn speculated(&mut self) -> bool {
        self.stall_rounds = 0;
        self.spent += 1;
        self.spent > self.retry.budget
    }
}

/// Clone the oldest chunk of the first busy active worker onto the first
/// idle node of the live pool (speculative re-execution; see
/// [`ChunkQueue::speculate`]).
fn speculate_oldest<T: Clone>(
    queue: &mut ChunkQueue<T>,
    busy: &[NodeId],
    pool: &[NodeId],
) -> Option<(NodeId, u32, Vec<T>)> {
    let from = busy.iter().copied().find(|n| queue.outstanding(*n) > 0)?;
    let to = pool
        .iter()
        .copied()
        .find(|n| *n != from && queue.outstanding(*n) == 0)?;
    let (id, chunk) = queue.speculate(from, to)?;
    Some((to, id, chunk))
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::ClusterConfig;
    use super::*;
    use ir_engine::ParagraphRetriever;
    use nlp::NamedEntityRecognizer;
    use qa_types::OverloadPolicy;
    use scheduler::partition::PartitionStrategy;
    use std::sync::Arc;

    #[test]
    fn survives_node_failure_mid_stream() {
        let (c, cl) = cluster(4, PartitionStrategy::Recv { chunk_size: 4 });
        let qs = QuestionGenerator::new(&c, 5).generate(6);
        // Kill one node, then keep asking: recovery must re-queue its work.
        let _ = cl.ask(&qs[0].question).unwrap();
        cl.kill_node(NodeId::new(2));
        for gq in &qs[1..] {
            let out = cl.ask(&gq.question).expect("answers despite failure");
            assert!(
                !out.pr_nodes.contains(&NodeId::new(2))
                    || cl
                        .trace()
                        .for_question(gq.question.id)
                        .iter()
                        .any(|e| matches!(e.kind, TraceKind::WorkerFailed)),
                "dead node served work without recovery"
            );
        }
        cl.shutdown();
    }

    #[test]
    fn expired_deadline_degrades_instead_of_hanging() {
        let (c, cl) = cluster(2, PartitionStrategy::Recv { chunk_size: 8 });
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
        let cl2 = Cluster::start(
            retriever,
            NamedEntityRecognizer::standard(),
            ClusterConfig {
                nodes: 2,
                overload: OverloadPolicy::default().with_deadline(0.0),
                ..ClusterConfig::default()
            },
        );
        drop(cl);
        let qs = QuestionGenerator::new(&c, 22).generate(1);
        let out = cl2
            .ask(&qs[0].question)
            .expect("deadline degrades, never errors");
        assert!(!out.coverage.is_complete(), "nothing can finish in 0 s");
        assert!(out.coverage.fraction() < 1.0);
        let degraded = cl2
            .trace()
            .for_question(qs[0].question.id)
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Degraded(_)));
        assert!(degraded, "degradation must be traced");
        cl2.shutdown();
    }

    #[test]
    fn straggler_chunk_is_speculated_to_an_idle_worker() {
        let (c, _) = cluster(1, PartitionStrategy::Recv { chunk_size: 8 });
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
        let cl = Cluster::start(
            retriever,
            NamedEntityRecognizer::standard(),
            ClusterConfig {
                nodes: 2,
                ap_partition: PartitionStrategy::Recv { chunk_size: 8 },
                // Staleness far above the straggler's pad: reap cannot be
                // the rescuer, only speculation can.
                staleness: Duration::from_secs(30),
                subtask_poll: Duration::from_millis(10),
                speculate_after: Some(1),
                ..ClusterConfig::default()
            },
        );
        // Node 1 crawls: every sub-task is padded ~1 s.
        cl.board().set_slowdown(NodeId::new(1), 0.001);
        let qs = QuestionGenerator::new(&c, 24).generate(1);
        let started = Instant::now();
        let out = cl.ask(&qs[0].question).expect("question completes");
        assert!(
            started.elapsed() < Duration::from_millis(800),
            "speculation should beat the ~1 s straggler pad (took {:?})",
            started.elapsed()
        );
        assert!(out.coverage.is_complete());
        cl.shutdown();
    }

    /// A journaled partial that does not decode — damaged bytes, or a
    /// reference the collection cannot resolve — completes nothing: its
    /// chunk runs again, and the resumed phase is whole, not silently
    /// partial under a coverage that says complete.
    #[test]
    fn an_undecodable_journaled_partial_reruns_its_chunk() {
        let c = Corpus::generate(CorpusConfig::small(91)).unwrap();
        let dir = std::env::temp_dir().join(format!("dqa-phase-{}-garbage", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (journal, _) = crate::CoordinatorJournal::open(&dir).unwrap();
        let cl = Cluster::start(
            retriever(&c),
            NamedEntityRecognizer::standard(),
            ClusterConfig {
                nodes: 2,
                journal: Some(journal),
                ..ClusterConfig::default()
            },
        );
        let q = QuestionGenerator::new(&c, 23)
            .generate(1)
            .remove(0)
            .question;
        let processed = cl.qp.process(&q).unwrap();
        // One chunk a sub-collection, as `readable_chunks` cuts them; the
        // last one is the chunk whose journaled partial is lost.
        let chunks: Vec<Vec<SubCollectionId>> = (0..c.config.sub_collections as u32)
            .map(|s| vec![SubCollectionId::new(s)])
            .collect();
        let last = chunks.len() - 1;
        assert!(last > 0);
        let (home, both) = (NodeId::new(0), vec![NodeId::new(0), NodeId::new(1)]);
        let by_id = |mut scored: Vec<ScoredParagraph>| {
            scored.sort_by_key(|s| s.paragraph.id);
            scored
        };
        // Chunk ids granted so far, in journal order.
        let granted = || -> Vec<u32> {
            let mut segments: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().path())
                .collect();
            segments.sort();
            segments
                .iter()
                .flat_map(|seg| journal::read_segment(seg).unwrap())
                .filter_map(|(_, framed)| match framed.record {
                    JournalRecord::ChunkGranted { chunk, .. } => Some(chunk),
                    _ => None,
                })
                .collect()
        };

        let (baseline, _, coverage) = cl
            .run_phase::<PrPhase>(&processed, home, both.clone(), chunks.clone(), None, None)
            .unwrap();
        assert!(coverage.is_complete());
        let baseline = by_id(baseline);
        let of_chunk = |i: usize| -> Vec<ScoredParagraph> {
            let mine = |s: &&ScoredParagraph| chunks[i].contains(&s.paragraph.sub_collection);
            baseline.iter().filter(mine).cloned().collect()
        };
        let lost = of_chunk(last);
        assert!(!lost.is_empty(), "the lost chunk retrieves");
        assert!(!of_chunk(0).is_empty(), "a kept chunk retrieves");

        let mut dangling = lost.clone();
        dangling[0].paragraph.id.ordinal = u32::MAX;
        for garbage in [vec![0xff; 7], ScoredParagraph::encode_refs(&dangling)] {
            let mut state = journal::RecoveredState::new();
            for chunk in 0..=last {
                let payload = if chunk == last {
                    garbage.clone()
                } else {
                    ScoredParagraph::encode_refs(&of_chunk(chunk))
                };
                state.apply(&journal::Framed {
                    term: 1,
                    record: JournalRecord::PartialResult {
                        question: q.id,
                        phase: JournalPhase::Pr,
                        chunk: chunk as u32,
                        payload,
                    },
                });
            }
            let before = granted().len();
            let (resumed, used, coverage) = cl
                .run_phase::<PrPhase>(
                    &processed,
                    home,
                    both.clone(),
                    chunks.clone(),
                    None,
                    state.get(q.id),
                )
                .unwrap();
            assert_eq!(by_id(resumed), baseline, "the resumed phase is whole");
            assert_eq!(coverage, Coverage::full(chunks.len() as u32));
            assert_eq!(used.len(), 1);
            assert_eq!(
                granted()[before..],
                [last as u32],
                "only the lost chunk runs again"
            );
        }
        cl.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A worker answers a `PrShard` per shard and the loop completes a chunk
    /// at its first result, so a PR chunk of two shards would keep one
    /// shard's paragraphs under a coverage that says complete. Such a chunk
    /// is refused where chunks are accepted, before anything is sent.
    #[test]
    fn a_two_shard_pr_chunk_is_refused_before_anything_is_sent() {
        let (c, mut cl) = cluster(2, PartitionStrategy::Recv { chunk_size: 8 });
        let held = black_hole(&mut cl);
        let q = QuestionGenerator::new(&c, 23)
            .generate(1)
            .remove(0)
            .question;
        let processed = cl.qp.process(&q).unwrap();
        let shard = SubCollectionId::new;
        for chunks in [
            vec![vec![shard(0), shard(1)]],
            vec![vec![shard(0)], vec![shard(1), shard(2)]],
            vec![vec![]],
        ] {
            let out = cl.run_phase::<PrPhase>(
                &processed,
                NodeId::new(0),
                vec![NodeId::new(0), NodeId::new(1)],
                chunks,
                None,
                None,
            );
            assert!(matches!(out, Err(QaError::Protocol(_))), "{out:?}");
        }
        assert!(
            held.iter().all(|rx| rx.try_recv().is_err()),
            "a refused phase dispatched work"
        );
        cl.shutdown();
    }

    /// What a scenario needs from a phase description beyond the trait.
    struct Fixture<P: Phase> {
        /// Cut the chunks of one question's phase.
        chunks: fn(&Corpus, &ProcessedQuestion) -> Vec<Vec<P::Item>>,
        /// A well-formed partial, as the journal would hold it.
        journaled: Vec<u8>,
        /// A result only the *other* phase's workers send.
        foreign: SubTaskResult,
    }

    /// Swap every node's ingress link for a channel the test holds: sends
    /// succeed (dispatch works) but no worker ever serves them. The
    /// returned receivers keep the channels open.
    fn black_hole(cl: &mut Cluster) -> Vec<crate::channel::Receiver<Envelope>> {
        (0..cl.links.len())
            .map(|i| {
                let (tx, rx) = bounded::<Envelope>(64);
                cl.links[i] = crate::links::FaultyLink::clean(tx);
                rx
            })
            .collect()
    }

    /// Run phase `P` through the scenarios every description must survive.
    fn drive<P: Phase>(fx: Fixture<P>) {
        let both = vec![NodeId::new(0), NodeId::new(1)];
        let start = || {
            let (c, cl) = cluster(2, PartitionStrategy::Recv { chunk_size: 8 });
            let q = QuestionGenerator::new(&c, 23)
                .generate(1)
                .remove(0)
                .question;
            let processed = cl.qp.process(&q).unwrap();
            let chunks = (fx.chunks)(&c, &processed);
            assert!(!chunks.is_empty(), "{}: fixture cut no chunks", P::NAME);
            (cl, processed, chunks)
        };

        // All workers dead mid-phase: every chunk was granted, nobody will
        // ever answer. The loop must degrade with nothing completed — not
        // spin on an undrainable queue, not error the question.
        let (mut cl, processed, chunks) = start();
        let _held = black_hole(&mut cl);
        cl.kill_node(NodeId::new(0));
        cl.kill_node(NodeId::new(1));
        let started = Instant::now();
        let (_, used, coverage) = cl
            .run_phase::<P>(&processed, NodeId::new(0), both.clone(), chunks, None, None)
            .expect("degrades, never errors");
        assert!(started.elapsed() < Duration::from_secs(30), "loop spun");
        assert_eq!(coverage.completed, 0, "{}", P::NAME);
        assert!(coverage.total > 0);
        assert_eq!(used, both, "both workers were granted chunks");
        let degraded = cl
            .trace()
            .for_question(processed.question.id)
            .iter()
            .any(|e| matches!(e.kind, TraceKind::Degraded(_)));
        assert!(degraded, "{}: degradation must be traced", P::NAME);
        cl.shutdown();

        // Expired deadline: live workers, no time. Degraded coverage.
        let (cl, processed, chunks) = start();
        let expired = Some(now_instant());
        let (_, _, coverage) = cl
            .run_phase::<P>(
                &processed,
                NodeId::new(0),
                both.clone(),
                chunks,
                expired,
                None,
            )
            .expect("deadline degrades, never errors");
        assert!(
            !coverage.is_complete(),
            "{}: nothing finishes in 0 s",
            P::NAME
        );
        cl.shutdown();

        // The other phase's result on the reply channel: a protocol error.
        let (mut cl, processed, chunks) = start();
        let held = black_hole(&mut cl);
        let foreign = fx.foreign.clone();
        let impostor = std::thread::spawn(move || {
            let envelope = held[0].recv().expect("a chunk is granted to node 0");
            envelope.reply.send(foreign).expect("coordinator listens");
        });
        let out = cl.run_phase::<P>(
            &processed,
            NodeId::new(0),
            vec![NodeId::new(0)],
            chunks,
            None,
            None,
        );
        assert!(
            matches!(out, Err(QaError::Protocol(_))),
            "{}: foreign result must be a protocol error",
            P::NAME
        );
        impostor.join().unwrap();
        cl.shutdown();

        // Fully journal-restored: every chunk pre-completed by the previous
        // incarnation. Returns complete without dispatching anything — and
        // without mistaking the empty worker set for "no workers".
        let (mut cl, processed, chunks) = start();
        let held = black_hole(&mut cl);
        let mut state = journal::RecoveredState::new();
        for chunk in 0..chunks.len() as u32 {
            state.apply(&journal::Framed {
                term: 1,
                record: JournalRecord::PartialResult {
                    question: processed.question.id,
                    phase: P::JOURNAL,
                    chunk,
                    payload: fx.journaled.clone(),
                },
            });
        }
        let rec = state.get(processed.question.id).expect("replayed");
        let (_, used, coverage) = cl
            .run_phase::<P>(
                &processed,
                NodeId::new(0),
                both.clone(),
                chunks,
                None,
                Some(rec),
            )
            .expect("a restored phase is complete, not disconnected");
        assert!(coverage.is_complete(), "{}", P::NAME);
        assert!(used.is_empty(), "{}: nothing left to grant", P::NAME);
        assert!(
            held.iter().all(|rx| rx.try_recv().is_err()),
            "{}: a restored phase dispatched work",
            P::NAME
        );
        cl.shutdown();
    }

    #[test]
    fn both_phase_descriptions_survive_the_driver_scenarios() {
        drive(Fixture::<PrPhase> {
            chunks: |c, _| {
                (0..c.config.sub_collections as u32)
                    .map(|s| vec![SubCollectionId::new(s)])
                    .collect()
            },
            journaled: ScoredParagraph::encode_refs(&[]),
            foreign: SubTaskResult::Answers {
                node: NodeId::new(0),
                answers: RankedAnswers::default(),
                paragraphs: 0,
                chunk: 0,
            },
        });
        drive(Fixture::<ApPhase> {
            chunks: |c, processed| {
                let retriever = retriever(c);
                let items = (0..c.config.sub_collections as u32)
                    .flat_map(|s| {
                        let found = retriever
                            .retrieve(&processed.keywords, SubCollectionId::new(s))
                            .unwrap_or_default();
                        qa_pipeline::scoring::score_paragraphs(
                            found.paragraphs,
                            &processed.keywords,
                        )
                    })
                    .map(|s| ApItem {
                        paragraph: s.paragraph,
                        rank: s.score,
                    })
                    .collect();
                scheduler::partition::partition_recv(items, 4)
            },
            journaled: RankedAnswers::default().encode(),
            foreign: SubTaskResult::Paragraphs {
                node: NodeId::new(0),
                shard: SubCollectionId::new(0),
                scored: Vec::new(),
                chunk: 0,
            },
        });
    }
}
