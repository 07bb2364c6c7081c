//! Worker node threads.
//!
//! Each node owns a receiver of [`Envelope`]s and the shared substrates
//! (index + store via the [`ParagraphRetriever`], NER, trace log, load
//! board). Its loop: heartbeat, receive (with timeout so heartbeats keep
//! flowing while idle), check the alive flag (failure injection), execute,
//! reply. A dead node drains silently — its queued envelopes are dropped,
//! which the coordinator detects by timeout, mirroring the paper's TCP
//! error path.

use crate::board::LoadBoard;
use crate::channel::{Receiver, RecvTimeoutError, TryRecvError};
use crate::message::{Envelope, SubTask, SubTaskResult};
use crate::trace::{TraceKind, TraceLog};
use ir_engine::ParagraphRetriever;
use nlp::NamedEntityRecognizer;
use qa_pipeline::answer::extract_answers;
use qa_pipeline::scoring::score_paragraphs;
use qa_types::NodeId;
use std::sync::Arc;
use std::time::Duration;

/// Everything a worker needs.
pub struct NodeContext {
    /// This node's identity.
    pub id: NodeId,
    /// The PR substrate (shared index + store).
    pub retriever: ParagraphRetriever,
    /// The AP substrate.
    pub ner: NamedEntityRecognizer,
    /// Shared load board.
    pub board: Arc<LoadBoard>,
    /// Shared trace log.
    pub trace: TraceLog,
}

/// Worker heartbeat / idle-poll interval.
pub(crate) const HEARTBEAT_EVERY: Duration = Duration::from_millis(5);

/// Run the worker loop until the channel closes or the node is killed.
pub fn run_node(ctx: NodeContext, rx: Receiver<Envelope>) {
    loop {
        if ctx.board.is_suspended(ctx.id) {
            // Transient crash: go silent. No heartbeats (peers age this
            // node out through staleness, like a real silent crash), queued
            // envelopes are discarded, but the thread survives so a resume
            // brings the node back with reset state.
            loop {
                match rx.try_recv() {
                    Ok(_) => {}
                    Err(TryRecvError::Empty) => break,
                    // The cluster shut down around a suspended (drained,
                    // standby) node: exit, or `shutdown` joins forever.
                    Err(TryRecvError::Disconnected) => return,
                }
            }
            std::thread::sleep(HEARTBEAT_EVERY);
            continue;
        }
        ctx.board.heartbeat(ctx.id);
        if !alive(&ctx) {
            // Failure injection: stop serving; drop queued envelopes.
            return;
        }
        match rx.recv_timeout(HEARTBEAT_EVERY) {
            Ok(envelope) => {
                if ctx.board.is_suspended(ctx.id) {
                    // Suspended between poll and receive: the envelope dies
                    // with the crash; the coordinator recovers it.
                    continue;
                }
                if !alive(&ctx) {
                    return;
                }
                serve(&ctx, envelope);
            }
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => return,
        }
    }
}

fn alive(ctx: &NodeContext) -> bool {
    // Only the explicit kill switch stops a node's own threads. Staleness
    // is for peers, and quarantine (flap breaker or overload breaker) only
    // excludes the node from *dispatch* — a breaker that killed worker
    // threads would turn a transient overload into a permanent crash.
    ctx.board.self_alive(ctx.id)
}

fn serve(ctx: &NodeContext, envelope: Envelope) {
    let Envelope { task, reply } = envelope;
    let disk_bound = task.is_disk_bound();
    if disk_bound {
        ctx.board.disk_delta(ctx.id, 1);
    } else {
        ctx.board.cpu_delta(ctx.id, 1);
    }
    let started = crate::clock::now_instant();

    let result = match task {
        SubTask::PrShard {
            question,
            keywords,
            shard,
            chunk,
        } => {
            ctx.trace
                .record(question, ctx.id, TraceKind::PrChunkStart(shard));
            // An unknown shard contributes nothing; the coordinator
            // validated shard ids up front, so this only fires on races
            // with reconfiguration.
            let retrieval = ctx.retriever.retrieve(&keywords, shard).unwrap_or_default();
            // PS runs where PR ran (Fig. 3: PR(i) feeds PS(i)).
            let scored = score_paragraphs(retrieval.paragraphs, &keywords);
            ctx.trace
                .record(question, ctx.id, TraceKind::PrChunkDone(shard));
            SubTaskResult::Paragraphs {
                node: ctx.id,
                shard,
                scored,
                chunk,
            }
        }
        SubTask::ApBatch {
            question,
            items,
            config,
            chunk,
        } => {
            let qid = question.question.id;
            ctx.trace
                .record(qid, ctx.id, TraceKind::ApBatchStart(items.len()));
            let answers = extract_answers(&items, &question, &ctx.ner, &config);
            ctx.trace
                .record(qid, ctx.id, TraceKind::ApBatchDone(items.len()));
            SubTaskResult::Answers {
                node: ctx.id,
                answers,
                paragraphs: items.len(),
                chunk,
            }
        }
    };

    // Straggler emulation: a node running at speed `f` takes `1/f` times
    // as long, so pad the real work time by the difference.
    let factor = ctx.board.slowdown(ctx.id);
    if factor < 1.0 {
        let pad = started.elapsed().as_secs_f64() * (1.0 / factor - 1.0);
        std::thread::sleep(Duration::from_secs_f64(pad.min(1.0)));
    }

    if disk_bound {
        ctx.board.disk_delta(ctx.id, -1);
    } else {
        ctx.board.cpu_delta(ctx.id, -1);
    }
    // The coordinator may have given up (timeout); ignore send failures.
    let _ = reply.send(result);
}
