//! The queue between a dispatcher and its nodes: a bounded FIFO with any
//! number of senders and receivers, timed on both sides.
//!
//! The paper's SEND / ISEND / RECV partitioning recovers from a lost or
//! saturated peer by *timing out* on it, so the primitive underneath is
//! [`Sender::send_timeout`] — what `std::sync::mpsc` lacks; only its
//! receive-side error enums are reused. There is no unbounded constructor:
//! a saturated node must push back on whoever feeds it. One `VecDeque`
//! under one lock and two condition variables, taken through the
//! [`crate::sync`] seam so that `--features loom` explores this queue
//! itself. The last receiver to go takes the queued messages with it, so
//! nothing they own (a reply sender, say) outlives the channel.

use crate::clock::now_instant;
use crate::sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
pub use std::sync::mpsc::{RecvTimeoutError, TryRecvError};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled on every push and when the last sender goes.
    not_empty: Condvar,
    /// Signalled on every pop and when the last receiver goes.
    not_full: Condvar,
}

impl<T> std::fmt::Debug for Shared<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bounded({})", self.capacity)
    }
}

/// The sending half; clone for more producers.
#[derive(Debug)]
pub struct Sender<T>(Arc<Shared<T>>);

/// The receiving half; clone for more consumers (each message goes to one).
#[derive(Debug)]
pub struct Receiver<T>(Arc<Shared<T>>);

/// A channel holding at most `capacity` messages; zero is raised to one
/// (there is no rendezvous mode).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity: capacity.max(1),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender(Arc::clone(&shared)), Receiver(shared))
}

/// Why [`Sender::send_timeout`] or [`Sender::try_send`] did not enqueue;
/// either way the message comes back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The queue was full for as long as the call was allowed to wait.
    Timeout(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// How long an operation may park for its condition.
#[derive(Clone, Copy)]
enum Patience {
    None,
    Until(Instant),
    Forever,
}

impl Patience {
    /// Parks on `cv` until `ready`, which is checked after every wake-up
    /// and once more after the deadline, so that a message arriving with
    /// the deadline is still taken. False: gave up with `ready` false.
    fn until<S>(
        self,
        cv: &Condvar,
        state: &mut MutexGuard<'_, S>,
        ready: impl Fn(&S) -> bool,
    ) -> bool {
        let mut out_of_time = matches!(self, Patience::None);
        while !ready(state) {
            if out_of_time {
                return false;
            }
            out_of_time = match self {
                Patience::None => true,
                Patience::Until(deadline) => cv.wait_until(state, deadline).timed_out(),
                Patience::Forever => {
                    cv.wait(state);
                    false
                }
            };
        }
        true
    }
}

impl<T> Sender<T> {
    fn push(&self, msg: T, patience: Patience) -> Result<(), SendTimeoutError<T>> {
        let ch = &*self.0;
        let mut s = ch.state.lock();
        let room_or_nobody = |s: &State<T>| s.receivers == 0 || s.queue.len() < ch.capacity;
        let in_time = patience.until(&ch.not_full, &mut s, room_or_nobody);
        if s.receivers == 0 {
            return Err(SendTimeoutError::Disconnected(msg));
        }
        if !in_time {
            return Err(SendTimeoutError::Timeout(msg));
        }
        s.queue.push_back(msg);
        drop(s);
        ch.not_empty.notify_all();
        Ok(())
    }

    /// Waits for room however long it takes; `Err` hands the message back
    /// because every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), T> {
        self.push(msg, Patience::Forever).map_err(|e| match e {
            SendTimeoutError::Timeout(m) | SendTimeoutError::Disconnected(m) => m,
        })
    }

    /// Enqueues only if there is room right now (`Timeout` = full).
    pub fn try_send(&self, msg: T) -> Result<(), SendTimeoutError<T>> {
        self.push(msg, Patience::None)
    }

    /// Waits at most `timeout` for room.
    pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.push(msg, Patience::Until(now_instant() + timeout))
    }

    /// Messages queued right now.
    pub fn queued(&self) -> usize {
        self.0.state.lock().queue.len()
    }
}

impl<T> Receiver<T> {
    fn pop(&self, patience: Patience) -> Result<T, RecvTimeoutError> {
        let ch = &*self.0;
        let mut s = ch.state.lock();
        let message_or_nobody = |s: &State<T>| s.senders == 0 || !s.queue.is_empty();
        let in_time = patience.until(&ch.not_empty, &mut s, message_or_nobody);
        match s.queue.pop_front() {
            Some(msg) => {
                drop(s);
                ch.not_full.notify_all();
                Ok(msg)
            }
            None if in_time => Err(RecvTimeoutError::Disconnected),
            None => Err(RecvTimeoutError::Timeout),
        }
    }

    /// Waits for a message however long it takes; `None` once the queue is
    /// empty and every sender is gone.
    pub fn recv(&self) -> Option<T> {
        self.pop(Patience::Forever).ok()
    }

    /// Dequeues only if a message is queued right now.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        self.pop(Patience::None).map_err(|e| match e {
            RecvTimeoutError::Timeout => TryRecvError::Empty,
            RecvTimeoutError::Disconnected => TryRecvError::Disconnected,
        })
    }

    /// Waits at most `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.pop(Patience::Until(now_instant() + timeout))
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.0.state.lock().senders += 1;
        Sender(Arc::clone(&self.0))
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.0.state.lock().receivers += 1;
        Receiver(Arc::clone(&self.0))
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock();
        s.senders -= 1;
        if s.senders == 0 {
            drop(s);
            self.0.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.0.state.lock();
        s.receivers -= 1;
        if s.receivers == 0 {
            // Dropped after the lock is released: a message may own a
            // sender whose own drop locks another channel.
            let _orphaned = std::mem::take(&mut s.queue);
            drop(s);
            self.0.not_full.notify_all();
        }
    }
}

/// The contract, each scenario a function so that it runs twice: here on
/// OS threads, and in [`loom_tests`] under every interleaving.
#[cfg(test)]
mod tests {
    use super::*;
    #[cfg(feature = "loom")]
    use dqa_verify::thread;
    #[cfg(not(feature = "loom"))]
    use std::thread;

    const SOON: Duration = Duration::from_millis(2);

    pub(super) fn fifo_to_the_bound_then_timeouts_then_sender_gone() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.clone().try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(SendTimeoutError::Timeout(3)));
        // Nobody receives, so the deadline is the only way forward, and
        // the message comes back.
        assert_eq!(tx.send_timeout(3, SOON), Err(SendTimeoutError::Timeout(3)));
        assert_eq!(tx.queued(), 2);
        assert_eq!((rx.recv(), rx.try_recv()), (Some(1), Ok(2)));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(rx.recv_timeout(SOON), Err(RecvTimeoutError::Timeout));
        tx.send(4).unwrap();
        drop(tx);
        // The last sender is gone: what is queued drains, then it shows.
        assert_eq!(rx.recv_timeout(SOON), Ok(4));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
        assert_eq!(rx.recv_timeout(SOON), Err(RecvTimeoutError::Disconnected));
        assert_eq!(rx.recv(), None);
    }

    pub(super) fn receiver_gone_sends_fail_and_the_queue_is_dropped() {
        let (tx, rx) = bounded(1);
        let (queued, reply) = bounded::<u8>(1);
        tx.send(queued).unwrap();
        drop(rx.clone());
        assert_eq!(reply.try_recv(), Err(TryRecvError::Empty), "one left");
        drop(rx);
        // The sender that sat in the queue went with the last receiver.
        assert_eq!(reply.try_recv(), Err(TryRecvError::Disconnected));
        let (again, _) = bounded::<u8>(1);
        let refused = tx.send_timeout(again, SOON);
        assert!(matches!(refused, Err(SendTimeoutError::Disconnected(_))));
    }

    pub(super) fn receiver_gone_wakes_a_parked_sender() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let parked = thread::spawn(move || tx.send(2));
        drop(rx);
        assert_eq!(parked.join().unwrap(), Err(2));
    }

    /// `senders` threads send `(who, 0..each)`; the caller and `helpers`
    /// more threads receive untimed until disconnected, so a push whose
    /// notify went missing parks one for good. Nothing is lost or
    /// duplicated, and what one receiver sees of one sender is in that
    /// sender's order.
    pub(super) fn deliver(senders: usize, each: u32, helpers: usize) {
        let (tx, rx) = bounded(1);
        let receive = |rx: Receiver<_>| std::iter::from_fn(|| rx.recv()).collect::<Vec<_>>();
        let helping: Vec<_> = (0..helpers)
            .map(|_| {
                let rx = rx.clone();
                thread::spawn(move || receive(rx))
            })
            .collect();
        let sending: Vec<_> = (0..senders)
            .map(|who| {
                let tx = tx.clone();
                thread::spawn(move || (0..each).for_each(|seq| tx.send((who, seq)).unwrap()))
            })
            .collect();
        drop(tx);
        let mut all = Vec::new();
        let helped = helping.into_iter().map(|h| h.join().unwrap());
        for got in std::iter::once(receive(rx)).chain(helped) {
            for who in 0..senders {
                let seqs = got.iter().filter(|m| m.0 == who).map(|m| m.1);
                assert!(seqs.clone().zip(seqs.skip(1)).all(|(a, b)| a < b));
            }
            all.extend(got);
        }
        sending.into_iter().for_each(|s| s.join().unwrap());
        all.sort_unstable();
        let sent = (0..senders).flat_map(|who| (0..each).map(move |seq| (who, seq)));
        assert!(all.into_iter().eq(sent), "lost or duplicated");
    }

    pub(super) const SCENARIOS: [fn(); 3] = [
        fifo_to_the_bound_then_timeouts_then_sender_gone,
        receiver_gone_sends_fail_and_the_queue_is_dropped,
        receiver_gone_wakes_a_parked_sender,
    ];

    #[test]
    fn contract_holds_on_os_threads() {
        SCENARIOS.iter().for_each(|scenario| scenario());
        deliver(2, 500, 2);
    }
}

/// The same scenarios under `dqa-verify` (`--features loom`), on
/// `bounded(1)` wherever a sender has to park. A timed wait is explored
/// both ways — notified, and the deadline firing first — so no real clock
/// decides anything.
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::tests::{deliver, SCENARIOS};
    use super::*;
    use dqa_verify::Builder;

    #[test]
    fn single_sender_scenarios_hold_in_every_interleaving() {
        let explored = SCENARIOS.map(|scenario| Builder::default().check(scenario).executions);
        assert!(
            explored[2] > 1,
            "the two-thread scenario has one path: {explored:?}"
        );
    }

    /// Two senders and a receiver, a lock and a notify per operation, are
    /// past what the explorer finishes unbounded (200 000 executions and
    /// counting), so preemptions per execution are capped: 5 for one
    /// message each (28 718 interleavings), 2 for two each (7 777).
    #[test]
    fn two_senders_lose_nothing_and_keep_their_order() {
        let capped = |preemptions, each| {
            let bounds = Builder {
                preemption_bound: Some(preemptions),
                ..Builder::default()
            };
            assert!(bounds.check(move || deliver(2, each, 0)).executions > 1);
        };
        capped(5, 1);
        capped(2, 2);
    }
}
