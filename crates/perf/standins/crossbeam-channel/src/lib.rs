//! Offline stand-in for `crossbeam-channel` (see `crates/perf/README.md`):
//! multi-producer multi-consumer FIFO channels, bounded or unbounded,
//! with crossbeam's method names, disconnect semantics and error types.
//! One mutex-guarded queue and two condvars replace crossbeam's lock-free
//! queues, so a hop costs more here than with the real crate. Capacity 0
//! (rendezvous) and `select!` are not provided; the workspace uses neither.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    /// `None` = unbounded.
    capacity: Option<usize>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // The queue is valid at every step, so a panicking peer cannot leave it torn.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn is_full(&self, s: &State<T>) -> bool {
        self.capacity.is_some_and(|c| s.queue.len() >= c)
    }
}

/// The sending half; clone for more producers.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

/// The receiving half; clone for more consumers.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

fn channel<T>(capacity: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        capacity,
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// A channel holding at most `capacity` messages (`capacity >= 1`).
pub fn bounded<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    assert!(capacity > 0, "stand-in channel has no rendezvous mode");
    channel(Some(capacity))
}

/// A channel that never blocks senders.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    channel(None)
}

/// Every receiver is gone; the message comes back.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Why `try_send` did not enqueue.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is at capacity.
    Full(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// Why `send_timeout` did not enqueue.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum SendTimeoutError<T> {
    /// The channel stayed full until the deadline.
    Timeout(T),
    /// Every receiver is gone.
    Disconnected(T),
}

/// The channel is empty and every sender is gone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Why `try_recv` returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// Nothing queued right now.
    Empty,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

/// Why `recv_timeout` returned nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// Nothing queued and every sender is gone.
    Disconnected,
}

macro_rules! error_impls {
    ($($name:ident$(<$t:ident>)? => $msg:expr;)*) => {$(
        impl$(<$t>)? fmt::Display for $name$(<$t>)? {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                #[allow(clippy::redundant_closure_call)]
                f.write_str(($msg)(self))
            }
        }
    )*};
}
error_impls! {
    SendError<T> => |_| "sending on a disconnected channel";
    TrySendError<T> => |e: &TrySendError<T>| match e {
        TrySendError::Full(_) => "sending on a full channel",
        TrySendError::Disconnected(_) => "sending on a disconnected channel",
    };
    SendTimeoutError<T> => |e: &SendTimeoutError<T>| match e {
        SendTimeoutError::Timeout(_) => "timed out waiting on send operation",
        SendTimeoutError::Disconnected(_) => "sending on a disconnected channel",
    };
    RecvError => |_| "receiving on an empty and disconnected channel";
    TryRecvError => |e: &TryRecvError| match e {
        TryRecvError::Empty => "receiving on an empty channel",
        TryRecvError::Disconnected => "receiving on an empty and disconnected channel",
    };
    RecvTimeoutError => |e: &RecvTimeoutError| match e {
        RecvTimeoutError::Timeout => "timed out waiting on receive operation",
        RecvTimeoutError::Disconnected => "receiving on an empty and disconnected channel",
    };
}

// Like crossbeam, Debug on the send errors does not require `T: Debug`.
impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            TrySendError::Full(_) => "Full(..)",
            TrySendError::Disconnected(_) => "Disconnected(..)",
        })
    }
}

impl<T> fmt::Debug for SendTimeoutError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SendTimeoutError::Timeout(_) => "Timeout(..)",
            SendTimeoutError::Disconnected(_) => "Disconnected(..)",
        })
    }
}

impl<T> std::error::Error for SendError<T> {}
impl<T> std::error::Error for TrySendError<T> {}
impl<T> std::error::Error for SendTimeoutError<T> {}
impl std::error::Error for RecvError {}
impl std::error::Error for TryRecvError {}
impl std::error::Error for RecvTimeoutError {}

impl<T> Sender<T> {
    /// Enqueues `msg`, waiting up to `deadline` (forever if `None`) for space.
    fn send_until(&self, msg: T, deadline: Option<Instant>) -> Result<(), SendTimeoutError<T>> {
        let mut s = self.shared.lock();
        loop {
            if s.receivers == 0 {
                return Err(SendTimeoutError::Disconnected(msg));
            }
            if !self.shared.is_full(&s) {
                s.queue.push_back(msg);
                drop(s);
                self.shared.not_empty.notify_one();
                return Ok(());
            }
            s = match deadline {
                None => self
                    .shared
                    .not_full
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(SendTimeoutError::Timeout(msg));
                    }
                    self.shared
                        .not_full
                        .wait_timeout(s, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Blocks until there is space or every receiver is gone.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        self.send_until(msg, None).map_err(|e| match e {
            SendTimeoutError::Timeout(m) | SendTimeoutError::Disconnected(m) => SendError(m),
        })
    }

    /// Enqueues only if there is space right now.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut s = self.shared.lock();
        if s.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if self.shared.is_full(&s) {
            return Err(TrySendError::Full(msg));
        }
        s.queue.push_back(msg);
        drop(s);
        self.shared.not_empty.notify_one();
        Ok(())
    }

    /// Waits at most `timeout` for space.
    pub fn send_timeout(&self, msg: T, timeout: Duration) -> Result<(), SendTimeoutError<T>> {
        self.send_until(msg, Some(Instant::now() + timeout))
    }

    /// Messages queued right now.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound, `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity
    }
}

impl<T> Receiver<T> {
    /// Dequeues, waiting up to `deadline` (forever if `None`) for a message.
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut s = self.shared.lock();
        loop {
            if let Some(msg) = s.queue.pop_front() {
                drop(s);
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if s.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            s = match deadline {
                None => self
                    .shared
                    .not_empty
                    .wait(s)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return Err(RecvTimeoutError::Timeout);
                    }
                    self.shared
                        .not_empty
                        .wait_timeout(s, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0
                }
            };
        }
    }

    /// Blocks until a message arrives or every sender is gone.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Dequeues only if a message is queued right now.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut s = self.shared.lock();
        match s.queue.pop_front() {
            Some(msg) => {
                drop(s);
                self.shared.not_full.notify_one();
                Ok(msg)
            }
            None if s.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    /// Waits at most `timeout` for a message.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Some(Instant::now() + timeout))
    }

    /// Messages queued right now.
    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    /// Whether nothing is queued right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bound, `None` if unbounded.
    pub fn capacity(&self) -> Option<usize> {
        self.shared.capacity
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.shared.lock().senders += 1;
        Sender {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.shared.lock().receivers += 1;
        Receiver {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut s = self.shared.lock();
        s.senders -= 1;
        if s.senders == 0 {
            drop(s);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut s = self.shared.lock();
        s.receivers -= 1;
        if s.receivers == 0 {
            // Crossbeam drops queued messages with the last receiver.
            let orphaned = std::mem::take(&mut s.queue);
            drop(s);
            drop(orphaned);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_bounds_and_disconnects() {
        let (tx, rx) = bounded(2);
        tx.send(1).unwrap();
        tx.try_send(2).unwrap();
        assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
        assert_eq!(
            tx.send_timeout(3, Duration::from_millis(5)),
            Err(SendTimeoutError::Timeout(3))
        );
        assert_eq!((rx.len(), rx.capacity()), (2, Some(2)));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(4).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(4));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));

        let (tx, rx) = unbounded();
        drop(rx);
        assert_eq!(tx.send(9), Err(SendError(9)));
    }

    #[test]
    fn blocked_sender_and_many_consumers_make_progress() {
        let (tx, rx) = bounded(1);
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let rx = rx.clone();
                std::thread::spawn(move || std::iter::from_fn(|| rx.recv().ok()).sum::<u64>())
            })
            .collect();
        drop(rx);
        let producers: Vec<_> = (0..2)
            .map(|_| {
                let tx = tx.clone();
                std::thread::spawn(move || (1..=500u64).for_each(|i| tx.send(i).unwrap()))
            })
            .collect();
        drop(tx);
        producers.into_iter().for_each(|p| p.join().unwrap());
        let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(total, 2 * 500 * 501 / 2);
    }
}
