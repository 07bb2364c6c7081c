//! Bounded flight recorder: a drop-oldest ring buffer for trace events.
//!
//! Long soaks used to grow the trace log without bound; the recorder
//! caps it at a fixed capacity and *counts* what it evicts so loss is
//! visible (export the count as `dqa_trace_dropped_total`), never silent.

use qa_types::sync::Mutex;
use std::collections::VecDeque;

/// Default capacity: 64k events, roughly 40 questions' worth of fully
/// traced lifecycle on an 8-node cluster — plenty for post-mortem while
/// bounding a soak's memory.
pub const DEFAULT_FLIGHT_RECORDER_CAPACITY: usize = 65_536;

#[derive(Debug)]
struct Ring<T> {
    buf: VecDeque<T>,
    dropped: u64,
}

/// A bounded, thread-safe, drop-oldest event buffer.
#[derive(Debug)]
pub struct FlightRecorder<T> {
    inner: Mutex<Ring<T>>,
    cap: usize,
}

impl<T: Clone> FlightRecorder<T> {
    /// A recorder holding at most `cap` events (`cap` is clamped to 1).
    pub fn new(cap: usize) -> FlightRecorder<T> {
        let cap = cap.max(1);
        FlightRecorder {
            inner: Mutex::new(Ring {
                buf: VecDeque::with_capacity(cap.min(4096)),
                dropped: 0,
            }),
            cap,
        }
    }

    /// Append an event, evicting the oldest when full. Returns `true`
    /// when an event was evicted to make room.
    pub fn push(&self, event: T) -> bool {
        let mut ring = self.inner.lock();
        let evicted = ring.buf.len() >= self.cap;
        if evicted {
            ring.buf.pop_front();
            ring.dropped += 1;
        }
        ring.buf.push_back(event);
        evicted
    }

    /// Events currently retained, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner.lock().buf.iter().cloned().collect()
    }

    /// Retained events matching `pred`, oldest first.
    pub fn filtered(&self, pred: impl Fn(&T) -> bool) -> Vec<T> {
        self.inner
            .lock()
            .buf
            .iter()
            .filter(|e| pred(e))
            .cloned()
            .collect()
    }

    /// Number of events evicted so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.inner.lock().buf.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().buf.is_empty()
    }

    /// The fixed capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retains_everything_under_capacity() {
        let r = FlightRecorder::new(10);
        for i in 0..5 {
            assert!(!r.push(i));
        }
        assert_eq!(r.snapshot(), vec![0, 1, 2, 3, 4]);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn drops_oldest_and_counts_when_full() {
        let r = FlightRecorder::new(3);
        for i in 0..7 {
            r.push(i);
        }
        assert_eq!(r.snapshot(), vec![4, 5, 6]);
        assert_eq!(r.dropped(), 4);
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
    }

    #[test]
    fn filtered_preserves_order() {
        let r = FlightRecorder::new(16);
        for i in 0..10 {
            r.push(i);
        }
        assert_eq!(r.filtered(|&x| x % 3 == 0), vec![0, 3, 6, 9]);
    }

    #[test]
    fn zero_capacity_is_clamped_to_one() {
        let r = FlightRecorder::new(0);
        r.push(1);
        r.push(2);
        assert_eq!(r.snapshot(), vec![2]);
        assert_eq!(r.dropped(), 1);
    }
}
