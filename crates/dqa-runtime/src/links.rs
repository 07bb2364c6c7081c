//! Fault-injecting channel layer.
//!
//! [`FaultyLink`] wraps a node's [`Sender`] and consults the seeded
//! [`LinkJudge`] for every envelope: deliver, drop, duplicate, or delay.
//! Decisions are a pure function of `(seed, destination, sequence number)`,
//! so a given schedule perturbs the same messages on every run.
//!
//! A *dropped* envelope is not retransmitted here — the coordinator's
//! retry/speculation policy recovers it, mirroring how the paper's system
//! leans on TCP errors plus rescheduling rather than link-level heroics. A
//! *duplicated* envelope is sent twice and collapses at the coordinator's
//! first-result-wins chunk dedup. A *delayed* envelope is handed to a
//! short-lived sleeper thread.
//!
//! Node ingress queues are *bounded*: every send carries a timeout, and a
//! send that cannot enqueue within it fails with [`SendError::Timeout`]
//! so the coordinator re-queues the chunk
//! (backpressure feeding the retry machinery) instead of blocking behind a
//! saturated node.

use crate::channel::{SendTimeoutError, Sender};
use crate::message::Envelope;
use faults::{LinkDecision, LinkJudge};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Why [`FaultyLink::send`] failed. The rejected envelope is dropped: the
/// coordinator rebuilds it from the chunk it re-queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendError {
    /// The destination's ingress queue stayed full for the whole timeout.
    Timeout,
    /// The destination node is shut down.
    Disconnected,
}

impl From<SendTimeoutError<Envelope>> for SendError {
    fn from(e: SendTimeoutError<Envelope>) -> SendError {
        match e {
            SendTimeoutError::Timeout(_) => SendError::Timeout,
            SendTimeoutError::Disconnected(_) => SendError::Disconnected,
        }
    }
}

/// A sender to one node, optionally perturbed by a [`LinkJudge`].
#[derive(Debug)]
pub struct FaultyLink {
    inner: Sender<Envelope>,
    judge: Option<LinkJudge>,
    flow: u64,
    seq: AtomicU64,
}

impl FaultyLink {
    /// A transparent link: every send goes straight through.
    pub fn clean(inner: Sender<Envelope>) -> FaultyLink {
        FaultyLink {
            inner,
            judge: None,
            flow: 0,
            seq: AtomicU64::new(0),
        }
    }

    /// A link perturbed by `judge`; `flow` identifies the destination in
    /// the judge's decision hash.
    pub fn faulty(inner: Sender<Envelope>, judge: LinkJudge, flow: u64) -> FaultyLink {
        FaultyLink {
            inner,
            judge: Some(judge),
            flow,
            seq: AtomicU64::new(0),
        }
    }

    /// Depth of the destination's bounded ingress queue right now
    /// (feeds the `dqa_queue_depth` gauge).
    pub fn queue_len(&self) -> usize {
        self.inner.queued()
    }

    /// Send an envelope through the (possibly faulty) link, waiting at most
    /// `timeout` for room in the destination's bounded ingress queue.
    /// `Ok(())` means the link accepted the message — which, under fault
    /// injection, may still mean it was silently lost, exactly like a real
    /// network. `Err(Timeout)` is backpressure from a saturated node (the
    /// caller re-queues the chunk); `Err(Disconnected)` means the node is
    /// shut down.
    pub fn send(&self, envelope: Envelope, timeout: Duration) -> Result<(), SendError> {
        let Some(judge) = self.judge else {
            return self
                .inner
                .send_timeout(envelope, timeout)
                .map_err(SendError::from);
        };
        let msg = self.seq.fetch_add(1, Ordering::Relaxed);
        match judge.decide(self.flow, msg) {
            LinkDecision::Deliver => self
                .inner
                .send_timeout(envelope, timeout)
                .map_err(SendError::from),
            LinkDecision::Drop => Ok(()),
            LinkDecision::Duplicate => {
                let copy = envelope.clone();
                self.inner.send_timeout(envelope, timeout)?;
                // The twin is best-effort; dedup absorbs it either way, and
                // a full queue simply swallows the duplicate.
                let _ = self.inner.try_send(copy);
                Ok(())
            }
            LinkDecision::Delay(secs) => {
                let tx = self.inner.clone();
                let dur = Duration::from_secs_f64(secs.max(0.0));
                let spawned = std::thread::Builder::new()
                    .name("dqa-link-delay".into())
                    .spawn(move || {
                        std::thread::sleep(dur);
                        let _ = tx.send_timeout(envelope, timeout);
                    });
                // No thread for the sleeper → the message is effectively
                // lost in transit; the retry policy recovers it.
                let _ = spawned;
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::bounded;
    use crate::message::{SubTask, SubTaskResult};
    use faults::FaultSchedule;
    use qa_types::{QuestionId, SubCollectionId};

    const T: Duration = Duration::from_millis(50);

    fn envelope(reply: Sender<SubTaskResult>, chunk: u32) -> Envelope {
        Envelope {
            task: SubTask::PrShard {
                question: QuestionId::new(1),
                keywords: vec![],
                shard: SubCollectionId::new(0),
                chunk,
            },
            reply,
        }
    }

    #[test]
    fn clean_link_delivers_everything() {
        let (tx, _rx) = bounded(16);
        let (reply, _keep) = bounded(1);
        let link = FaultyLink::clean(tx);
        for i in 0..10 {
            link.send(envelope(reply.clone(), i), T).unwrap();
        }
        assert_eq!(link.queue_len(), 10);
    }

    #[test]
    fn full_loss_delivers_nothing_but_reports_ok() {
        let (tx, _rx) = bounded(16);
        let (reply, _keep) = bounded(1);
        let judge = FaultSchedule::seeded(3).message_loss(1.0).link_judge();
        let link = FaultyLink::faulty(tx, judge, 0);
        for i in 0..10 {
            link.send(envelope(reply.clone(), i), T).unwrap();
        }
        assert_eq!(link.queue_len(), 0, "every message lost");
    }

    #[test]
    fn full_duplication_doubles_delivery() {
        let (tx, _rx) = bounded(16);
        let (reply, _keep) = bounded(1);
        let judge = FaultSchedule::seeded(3).message_dup(1.0).link_judge();
        let link = FaultyLink::faulty(tx, judge, 0);
        for i in 0..5 {
            link.send(envelope(reply.clone(), i), T).unwrap();
        }
        assert_eq!(link.queue_len(), 10, "every message delivered twice");
    }

    #[test]
    fn delayed_messages_arrive_late_but_arrive() {
        let (tx, rx) = bounded(16);
        let (reply, _keep) = bounded(1);
        let judge = FaultSchedule::seeded(3)
            .message_delay(1.0, 0.01)
            .link_judge();
        let link = FaultyLink::faulty(tx, judge, 0);
        link.send(envelope(reply, 0), T).unwrap();
        let got = rx.recv_timeout(Duration::from_secs(2));
        assert!(got.is_ok(), "delayed message never arrived");
    }

    #[test]
    fn closed_channel_is_an_error_on_delivery() {
        let (tx, rx) = bounded(16);
        let (reply, _keep) = bounded(1);
        drop(rx);
        let link = FaultyLink::clean(tx);
        assert_eq!(
            link.send(envelope(reply, 0), T),
            Err(SendError::Disconnected)
        );
    }

    #[test]
    fn full_bounded_queue_times_out_instead_of_blocking() {
        let (tx, rx) = bounded(1);
        let (reply, _keep) = bounded(1);
        let link = FaultyLink::clean(tx);
        link.send(envelope(reply.clone(), 0), T).unwrap();
        let started = std::time::Instant::now();
        let out = link.send(envelope(reply.clone(), 1), Duration::from_millis(20));
        assert_eq!(out, Err(SendError::Timeout));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "send must give up after the timeout, not block"
        );
        // Draining the queue makes room again.
        rx.recv().unwrap();
        link.send(envelope(reply, 2), T).unwrap();
    }
}
