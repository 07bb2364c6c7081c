//! Model-checking tests for the runtime's hot concurrency protocols.
//!
//! Each model is a miniature of a real `dqa-runtime` structure, built on
//! the dual-mode shims and explored exhaustively. Each comes in two
//! flavors: the *correct* protocol, which must explore to completion
//! (every interleaving passes), and a *seeded mutant* reproducing a bug
//! class the real code must avoid (dropped notify, check outside the
//! lock, non-atomic max, check-then-act across lock sections). The
//! mutants must fail demonstrably — that is the evidence the explorer
//! actually has the power to catch these bugs.

use dqa_verify::sync::atomic::{AtomicU64, Ordering};
use dqa_verify::sync::{Condvar, Mutex};
use dqa_verify::{thread, Builder};
use std::sync::Arc;

fn explorer() -> Builder {
    Builder {
        max_executions: 100_000,
        max_steps: 5_000,
        preemption_bound: None,
    }
}

// -- AdmissionGate: permit hand-off over a Condvar ------------------------

/// Miniature of `dqa_runtime::overload::AdmissionGate`: a permit counter
/// guarded by a mutex, waiters parked on a condvar until a release hands
/// a permit back.
struct Gate {
    permits: Mutex<usize>,
    cv: Condvar,
}

impl Gate {
    fn new(permits: usize) -> Self {
        Gate {
            permits: Mutex::new(permits),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut g = self.permits.lock();
        while *g == 0 {
            self.cv.wait(&mut g);
        }
        *g -= 1;
    }

    fn release(&self, notify: bool) {
        let mut g = self.permits.lock();
        *g += 1;
        if notify {
            self.cv.notify_one();
        }
    }
}

#[test]
fn admission_gate_protocol_explores_to_completion() {
    let report = explorer().check(|| {
        let gate = Arc::new(Gate::new(0));
        let releaser = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.release(true))
        };
        let acquirer = {
            let gate = Arc::clone(&gate);
            thread::spawn(move || gate.acquire())
        };
        releaser.join().unwrap();
        acquirer.join().unwrap();
        assert_eq!(
            *gate.permits.lock(),
            0,
            "permit must be consumed exactly once"
        );
    });
    assert!(
        report.executions > 1,
        "expected multiple interleavings, got {}",
        report.executions
    );
}

#[test]
fn admission_gate_mutant_dropped_notify_is_caught_as_lost_wakeup() {
    let failure = explorer()
        .try_check(|| {
            let gate = Arc::new(Gate::new(0));
            let releaser = {
                let gate = Arc::clone(&gate);
                // Seeded bug: hand the permit back without notifying.
                thread::spawn(move || gate.release(false))
            };
            let acquirer = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.acquire())
            };
            releaser.join().unwrap();
            acquirer.join().unwrap();
        })
        .expect_err("dropped notify must be detected");
    assert!(
        failure.message.contains("deadlock"),
        "expected a deadlock/lost-wakeup report, got: {failure}"
    );
}

// -- Journal term fencing -------------------------------------------------

/// Miniature of the journal's term fence: an append is accepted only if
/// its term is >= the highest term seen, and the check and the append
/// must be one critical section so accepted terms reach the log in
/// monotone order.
struct Journal {
    state: Mutex<(u64, Vec<u64>)>,
}

impl Journal {
    fn new() -> Self {
        Journal {
            state: Mutex::new((0, Vec::new())),
        }
    }

    fn append_fenced(&self, term: u64) {
        let mut g = self.state.lock();
        if term >= g.0 {
            g.0 = term;
            g.1.push(term);
        }
    }

    /// Seeded bug: the fence check reads the term in one critical
    /// section and appends in another, so a higher term can land in
    /// between and the stale append still goes through.
    fn append_fence_outside_lock(&self, term: u64) {
        let current = self.state.lock().0;
        if term >= current {
            let mut g = self.state.lock();
            g.0 = term;
            g.1.push(term);
        }
    }

    fn assert_log_monotone(&self) {
        let g = self.state.lock();
        assert!(
            g.1.windows(2).all(|w| w[0] <= w[1]),
            "log terms regressed: {:?}",
            g.1
        );
    }
}

#[test]
fn journal_term_fencing_explores_to_completion() {
    let report = explorer().check(|| {
        let journal = Arc::new(Journal::new());
        let high = {
            let journal = Arc::clone(&journal);
            thread::spawn(move || journal.append_fenced(2))
        };
        let low = {
            let journal = Arc::clone(&journal);
            thread::spawn(move || journal.append_fenced(1))
        };
        high.join().unwrap();
        low.join().unwrap();
        journal.assert_log_monotone();
    });
    assert!(report.executions > 1);
}

#[test]
fn journal_mutant_fence_outside_lock_breaks_monotonicity() {
    let failure = explorer()
        .try_check(|| {
            let journal = Arc::new(Journal::new());
            let high = {
                let journal = Arc::clone(&journal);
                thread::spawn(move || journal.append_fence_outside_lock(2))
            };
            let low = {
                let journal = Arc::clone(&journal);
                thread::spawn(move || journal.append_fence_outside_lock(1))
            };
            high.join().unwrap();
            low.join().unwrap();
            journal.assert_log_monotone();
        })
        .expect_err("fence outside the lock must be detected");
    assert!(
        failure.message.contains("log terms regressed"),
        "expected the monotonicity assertion, got: {failure}"
    );
}

// -- LoadBoard high-watermark ---------------------------------------------

#[test]
fn board_watermark_fetch_max_explores_to_completion() {
    let report = explorer().check(|| {
        let watermark = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = [5u64, 3u64]
            .into_iter()
            .map(|sample| {
                let watermark = Arc::clone(&watermark);
                thread::spawn(move || {
                    watermark.fetch_max(sample, Ordering::SeqCst);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(watermark.load(Ordering::SeqCst), 5);
    });
    assert!(report.executions > 1);
}

#[test]
fn board_mutant_load_then_store_loses_the_maximum() {
    let failure = explorer()
        .try_check(|| {
            let watermark = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = [5u64, 3u64]
                .into_iter()
                .map(|sample| {
                    let watermark = Arc::clone(&watermark);
                    thread::spawn(move || {
                        // Seeded bug: non-atomic read-compare-store.
                        if sample > watermark.load(Ordering::SeqCst) {
                            watermark.store(sample, Ordering::SeqCst);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(watermark.load(Ordering::SeqCst), 5);
        })
        .expect_err("racy watermark update must be detected");
    assert!(
        failure.message.contains("assertion"),
        "expected the watermark assertion, got: {failure}"
    );
}

// -- FlightRecorder ring capacity -----------------------------------------

/// Miniature of the flight-recorder ring: pushes must evict-and-insert in
/// one critical section or concurrent pushers overshoot the capacity.
struct Ring {
    slots: Mutex<Vec<u64>>,
    cap: usize,
}

impl Ring {
    fn new(cap: usize) -> Self {
        Ring {
            slots: Mutex::new(Vec::new()),
            cap,
        }
    }

    fn push(&self, v: u64) {
        let mut g = self.slots.lock();
        if g.len() == self.cap {
            g.remove(0);
        }
        g.push(v);
    }

    /// Seeded bug: the capacity check and the insert are separate
    /// critical sections, so two pushers can both pass the check.
    fn push_check_then_act(&self, v: u64) {
        let full = self.slots.lock().len() == self.cap;
        if full {
            self.slots.lock().remove(0);
        }
        self.slots.lock().push(v);
    }
}

#[test]
fn recorder_ring_bounded_push_explores_to_completion() {
    let report = explorer().check(|| {
        let ring = Arc::new(Ring::new(1));
        let handles: Vec<_> = [1u64, 2u64]
            .into_iter()
            .map(|v| {
                let ring = Arc::clone(&ring);
                thread::spawn(move || ring.push(v))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let len = ring.slots.lock().len();
        assert!(len <= 1, "ring overshot its capacity: {len}");
    });
    assert!(report.executions > 1);
}

#[test]
fn recorder_mutant_check_then_act_overshoots_capacity() {
    let failure = explorer()
        .try_check(|| {
            let ring = Arc::new(Ring::new(1));
            let handles: Vec<_> = [1u64, 2u64]
                .into_iter()
                .map(|v| {
                    let ring = Arc::clone(&ring);
                    thread::spawn(move || ring.push_check_then_act(v))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let len = ring.slots.lock().len();
            assert!(len <= 1, "ring overshot its capacity: {len}");
        })
        .expect_err("check-then-act push must be detected");
    assert!(
        failure.message.contains("overshot"),
        "expected the capacity assertion, got: {failure}"
    );
}

// -- Explorer semantics ----------------------------------------------------

#[test]
fn timed_wait_explores_the_timeout_branch_instead_of_deadlocking() {
    // Nobody ever notifies: the only way out is the modeled timeout, and
    // the explorer must take it rather than reporting a deadlock.
    let report = explorer().check(|| {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            thread::spawn(move || {
                let (m, cv) = &*pair;
                let mut g = m.lock();
                let deadline = std::time::Instant::now() + std::time::Duration::from_millis(1);
                let res = cv.wait_until(&mut g, deadline);
                assert!(
                    res.timed_out(),
                    "no notifier exists, only the timeout fires"
                );
            })
        };
        waiter.join().unwrap();
    });
    assert!(report.executions >= 1);
}

#[test]
fn counter_under_mutex_is_exact_across_interleavings() {
    let report = explorer().check(|| {
        let counter = Arc::new(Mutex::new(0u64));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let counter = Arc::clone(&counter);
                thread::spawn(move || *counter.lock() += 1)
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*counter.lock(), 2);
    });
    assert!(report.executions > 1);
}

#[test]
fn shims_pass_through_to_std_outside_a_model_run() {
    // Dual mode: without an active explorer the same types behave like
    // ordinary std primitives, so `--features loom` builds still run
    // their normal test suites.
    let pair = Arc::new((Mutex::new(0u64), Condvar::new()));
    let producer = {
        let pair = Arc::clone(&pair);
        thread::spawn(move || {
            let (m, cv) = &*pair;
            *m.lock() = 7;
            cv.notify_all();
        })
    };
    let (m, cv) = &*pair;
    let mut g = m.lock();
    while *g != 7 {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let res = cv.wait_until(&mut g, deadline);
        assert!(!res.timed_out(), "producer should beat the 5s deadline");
    }
    drop(g);
    producer.join().unwrap();
    let w = AtomicU64::new(1);
    w.fetch_max(9, Ordering::SeqCst);
    assert_eq!(w.load(Ordering::SeqCst), 9);
}
