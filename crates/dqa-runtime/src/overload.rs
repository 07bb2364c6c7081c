//! The overload-robustness layer: admission gate, phase-demand estimator
//! and the [`Admission`] result type of the concurrent front-end.
//!
//! Admission is a counting gate in front of the coordinator, configured by
//! [`OverloadPolicy`]: up to `max_in_flight` questions run concurrently,
//! up to `admission_queue` more wait for a slot, and everything past that
//! is *rejected immediately* with a retry hint — the queue is bounded by
//! construction, so a traffic burst can only ever hold
//! `max_in_flight + admission_queue` questions inside the cluster.
//!
//! The [`PhaseEstimator`] feeds deadline-aware shedding: it tracks an
//! exponentially weighted moving average of observed per-phase wall time
//! and, before each phase, the coordinator compares the remaining deadline
//! budget against the estimate. A phase that cannot fit is shed — the
//! question short-circuits to a Coverage-annotated degraded answer instead
//! of occupying nodes it cannot profit from. Until a module has its own
//! observations, its estimate is apportioned from the total-question EWMA
//! using the paper's per-module demand fractions (Table 2 — the same
//! `T_module` terms the Eqs. 1–3 load functions weigh).

use crate::cluster::DistributedAnswer;
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::{Condvar, Mutex};
use qa_types::{
    ModuleProfile, ModuleTimings, Offer, OverloadPolicy, QaError, QaModule, QuestionOutcome,
};
use std::time::{Duration, Instant};

/// Outcome of offering one question to the concurrent front-end
/// ([`crate::Cluster::submit`] / [`crate::Cluster::ask_many`]).
#[derive(Debug)]
pub enum Admission {
    /// Admitted and completed. The answer's [`qa_types::Coverage`] tells a
    /// full completion apart from a degraded (shed or fault-hit) one.
    Answered(Box<DistributedAnswer>),
    /// Refused at admission: queue full, every node at its resident cap,
    /// the deadline expired while waiting for a slot, or the cluster is
    /// shutting down. The question never occupied a node.
    Rejected {
        /// Client back-off hint from the policy.
        retry_after: Duration,
    },
    /// Admitted but failed with an infrastructure error (e.g. every node
    /// dead). Never happens on a healthy cluster.
    Failed(QaError),
}

impl Admission {
    /// Classify into the three-way outcome the overload accounting uses;
    /// `None` for infrastructure failures (which the soak harness treats
    /// as hard violations, not shed load).
    pub fn outcome(&self) -> Option<QuestionOutcome> {
        match self {
            Admission::Answered(a) if a.coverage.is_complete() => Some(QuestionOutcome::Answered),
            Admission::Answered(_) => Some(QuestionOutcome::Degraded),
            Admission::Rejected { .. } => Some(QuestionOutcome::Rejected),
            Admission::Failed(_) => None,
        }
    }

    /// The answer, when one was produced.
    pub fn answer(&self) -> Option<&DistributedAnswer> {
        match self {
            Admission::Answered(a) => Some(a),
            _ => None,
        }
    }
}

/// What the gate decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateDecision {
    /// A slot is held; the caller runs the question and must
    /// [`AdmissionGate::release`] afterwards.
    Admitted,
    /// Queue full (or the wait deadline expired before a slot freed).
    Rejected,
    /// The cluster is draining; nothing new is admitted.
    ShuttingDown,
}

#[derive(Debug, Default)]
struct GateState {
    in_flight: usize,
    waiting: usize,
    peak_waiting: usize,
}

/// Counting admission gate: bounded waiting room in front of a bounded
/// set of in-flight slots. All waiting is deadline-capped and every
/// waiter is woken deterministically by [`AdmissionGate::drain`].
#[derive(Debug)]
pub struct AdmissionGate {
    policy: OverloadPolicy,
    state: Mutex<GateState>,
    cv: Condvar,
    draining: AtomicBool,
}

impl AdmissionGate {
    /// A gate enforcing `policy`'s in-flight cap and queue depth.
    pub fn new(policy: &OverloadPolicy) -> AdmissionGate {
        AdmissionGate {
            policy: *policy,
            state: Mutex::new(GateState::default()),
            cv: Condvar::new(),
            draining: AtomicBool::new(false),
        }
    }

    /// Try to take an in-flight slot, waiting in the bounded queue until
    /// `wait_until` (forever if `None`) when the cluster is at capacity.
    pub fn admit(&self, wait_until: Option<Instant>) -> GateDecision {
        let mut s = self.state.lock();
        if self.draining.load(Ordering::Acquire) {
            return GateDecision::ShuttingDown;
        }
        // The decision is the policy's (one answer for both backends);
        // the lock, the condvar and the counters are the gate's.
        match self.policy.offer(s.in_flight, s.waiting) {
            Offer::Admit => {
                s.in_flight += 1;
                return GateDecision::Admitted;
            }
            Offer::Reject => return GateDecision::Rejected,
            Offer::Queue => {}
        }
        s.waiting += 1;
        s.peak_waiting = s.peak_waiting.max(s.waiting);
        loop {
            let timed_out = match wait_until {
                Some(d) => self.cv.wait_until(&mut s, d).timed_out(),
                None => {
                    self.cv.wait(&mut s);
                    false
                }
            };
            if self.draining.load(Ordering::Acquire) {
                s.waiting -= 1;
                return GateDecision::ShuttingDown;
            }
            // A parked arrival is not competing with itself for the queue.
            if self.policy.offer(s.in_flight, 0) == Offer::Admit {
                s.waiting -= 1;
                s.in_flight += 1;
                return GateDecision::Admitted;
            }
            if timed_out {
                s.waiting -= 1;
                return GateDecision::Rejected;
            }
        }
    }

    /// Return an in-flight slot and wake queued arrivals.
    pub fn release(&self) {
        let mut s = self.state.lock();
        s.in_flight = s.in_flight.saturating_sub(1);
        drop(s);
        self.cv.notify_all();
    }

    /// Stop admitting: every queued arrival wakes and reports
    /// [`GateDecision::ShuttingDown`]; subsequent arrivals are refused at
    /// the door. Idempotent.
    pub fn drain(&self) {
        self.draining.store(true, Ordering::Release);
        let _guard = self.state.lock();
        self.cv.notify_all();
    }

    /// Whether [`AdmissionGate::drain`] has been called.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    /// Currently admitted questions.
    pub fn in_flight(&self) -> usize {
        self.state.lock().in_flight
    }

    /// Currently queued arrivals.
    pub fn waiting(&self) -> usize {
        self.state.lock().waiting
    }

    /// High-water mark of the waiting queue — by construction never above
    /// the configured depth (the invariant the root property tests draw
    /// arrivals against).
    pub fn peak_waiting(&self) -> usize {
        self.state.lock().peak_waiting
    }
}

/// EWMA weight for new phase observations.
const EWMA_ALPHA: f64 = 0.3;

#[derive(Debug, Default, Clone, Copy)]
struct EwmaState {
    per_module: [Option<f64>; 5],
    total: Option<f64>,
}

fn module_slot(m: QaModule) -> usize {
    match m {
        QaModule::Qp => 0,
        QaModule::Pr => 1,
        QaModule::Ps => 2,
        QaModule::Po => 3,
        QaModule::Ap => 4,
    }
}

fn blend(prev: Option<f64>, obs: f64) -> Option<f64> {
    Some(match prev {
        Some(p) => (1.0 - EWMA_ALPHA) * p + EWMA_ALPHA * obs,
        None => obs,
    })
}

/// Online per-phase demand estimator for deadline-aware shedding.
///
/// Observations come from completed questions' [`ModuleTimings`]; the
/// calibration [`ModuleProfile`] supplies relative per-module demand
/// fractions for modules that have not been observed yet (e.g. a phase
/// that every prior question shed). With no observations at all the
/// estimator abstains and nothing is shed — the first question always
/// runs, calibrating the rest.
#[derive(Debug)]
pub struct PhaseEstimator {
    profile: ModuleProfile,
    state: Mutex<EwmaState>,
}

impl PhaseEstimator {
    /// An estimator apportioning cold-start estimates from `profile`.
    pub fn new(profile: ModuleProfile) -> PhaseEstimator {
        PhaseEstimator {
            profile,
            state: Mutex::new(EwmaState::default()),
        }
    }

    /// Fold one completed question's wall-clock phase times in. In the
    /// thread runtime PS runs fused into the PR phase, so `pr + ps` is
    /// observed as PR and the PS slot stays profile-apportioned.
    pub fn observe(&self, timings: &ModuleTimings) {
        let mut s = self.state.lock();
        s.per_module[module_slot(QaModule::Qp)] =
            blend(s.per_module[module_slot(QaModule::Qp)], timings.qp);
        s.per_module[module_slot(QaModule::Pr)] = blend(
            s.per_module[module_slot(QaModule::Pr)],
            timings.pr + timings.ps,
        );
        s.per_module[module_slot(QaModule::Po)] =
            blend(s.per_module[module_slot(QaModule::Po)], timings.po);
        s.per_module[module_slot(QaModule::Ap)] =
            blend(s.per_module[module_slot(QaModule::Ap)], timings.ap);
        s.total = blend(s.total, timings.total());
    }

    /// The profile's share of total demand for one module (PR includes the
    /// fused PS share).
    fn fraction(&self, m: QaModule) -> f64 {
        let t = self.profile.times.total();
        if t <= 0.0 {
            return 0.0;
        }
        let share = match m {
            QaModule::Pr => self.profile.times.pr + self.profile.times.ps,
            other => self.profile.times.get(other),
        };
        share / t
    }

    /// Estimated wall seconds for one phase, or `None` before any
    /// observation exists to scale from.
    pub fn phase_estimate(&self, m: QaModule) -> Option<f64> {
        let s = self.state.lock();
        if let Some(e) = s.per_module[module_slot(m)] {
            return Some(e);
        }
        s.total.map(|t| t * self.fraction(m))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::Trec9Profile;
    use std::sync::Arc;

    #[test]
    fn gate_without_cap_admits_everything() {
        let gate = AdmissionGate::new(&OverloadPolicy::unlimited());
        for _ in 0..100 {
            assert_eq!(gate.admit(None), GateDecision::Admitted);
        }
        assert_eq!(gate.in_flight(), 100);
        assert_eq!(gate.peak_waiting(), 0);
    }

    #[test]
    fn full_queue_rejects_immediately() {
        let policy = OverloadPolicy::server(1).with_queue(0);
        let gate = AdmissionGate::new(&policy);
        assert_eq!(gate.admit(None), GateDecision::Admitted);
        let start = Instant::now();
        assert_eq!(gate.admit(None), GateDecision::Rejected);
        assert!(
            start.elapsed() < Duration::from_millis(100),
            "zero-depth queue must reject without waiting"
        );
        gate.release();
        assert_eq!(gate.admit(None), GateDecision::Admitted);
    }

    #[test]
    fn queued_arrival_gets_the_freed_slot() {
        let policy = OverloadPolicy::server(1);
        let gate = Arc::new(AdmissionGate::new(&policy));
        assert_eq!(gate.admit(None), GateDecision::Admitted);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.admit(None));
        while gate.waiting() == 0 {
            std::thread::yield_now();
        }
        gate.release();
        assert_eq!(waiter.join().unwrap(), GateDecision::Admitted);
        assert_eq!(gate.in_flight(), 1);
        assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn wait_deadline_turns_into_rejection() {
        let policy = OverloadPolicy::server(1);
        let gate = AdmissionGate::new(&policy);
        assert_eq!(gate.admit(None), GateDecision::Admitted);
        let until = Some(Instant::now() + Duration::from_millis(20));
        assert_eq!(gate.admit(until), GateDecision::Rejected);
        assert_eq!(gate.waiting(), 0, "timed-out waiter left the queue");
    }

    #[test]
    fn drain_wakes_queued_arrivals_deterministically() {
        let policy = OverloadPolicy::server(1);
        let gate = Arc::new(AdmissionGate::new(&policy));
        assert_eq!(gate.admit(None), GateDecision::Admitted);
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.admit(None));
        while gate.waiting() == 0 {
            std::thread::yield_now();
        }
        gate.drain();
        assert_eq!(waiter.join().unwrap(), GateDecision::ShuttingDown);
        assert_eq!(gate.admit(None), GateDecision::ShuttingDown);
    }

    #[test]
    fn estimator_abstains_cold_then_tracks_observations() {
        let est = PhaseEstimator::new(Trec9Profile::average());
        assert_eq!(est.phase_estimate(QaModule::Pr), None, "cold start");
        let t = ModuleTimings {
            qp: 0.010,
            pr: 0.040,
            ps: 0.010,
            po: 0.001,
            ap: 0.100,
            overhead: 0.0,
        };
        est.observe(&t);
        let pr = est.phase_estimate(QaModule::Pr).unwrap();
        assert!((pr - 0.050).abs() < 1e-9, "PR estimate fuses PS: {pr}");
        let ap = est.phase_estimate(QaModule::Ap).unwrap();
        assert!((ap - 0.100).abs() < 1e-9);
        // PS never observed directly → apportioned from the total EWMA by
        // the paper's demand fractions.
        let ps = est.phase_estimate(QaModule::Ps).unwrap();
        assert!(ps > 0.0);
    }

    #[test]
    fn estimator_ewma_converges_toward_recent_observations() {
        let est = PhaseEstimator::new(Trec9Profile::average());
        let slow = ModuleTimings {
            ap: 1.0,
            ..ModuleTimings::default()
        };
        est.observe(&slow);
        let fast = ModuleTimings {
            ap: 0.1,
            ..ModuleTimings::default()
        };
        for _ in 0..30 {
            est.observe(&fast);
        }
        let ap = est.phase_estimate(QaModule::Ap).unwrap();
        assert!(ap < 0.11, "EWMA should have converged near 0.1, got {ap}");
    }
}

/// Model-checking tests over the *real* [`AdmissionGate`] — not a
/// miniature. Compiled only under `--features loom`, where the
/// [`crate::sync`] seam routes every lock, condvar and atomic through the
/// `dqa-verify` shims; `dqa_verify::model` then explores every
/// interleaving of the closure exhaustively. Run via the CI
/// `verify-concurrency` job: `cargo test -p dqa-runtime --features loom`.
#[cfg(all(test, feature = "loom"))]
mod loom_tests {
    use super::*;
    use dqa_verify::thread;
    use std::sync::Arc;

    /// One in-flight slot, one queue seat: the smallest policy where
    /// hand-off, shutdown wakeup and queue-bound rejection all occur.
    fn tight_policy() -> OverloadPolicy {
        OverloadPolicy {
            admission_queue: 1,
            max_in_flight: Some(1),
            ..OverloadPolicy::unlimited()
        }
    }

    #[test]
    fn slot_handoff_explores_to_completion() {
        let report = dqa_verify::Builder::default().check(|| {
            let gate = Arc::new(AdmissionGate::new(&tight_policy()));
            assert_eq!(gate.admit(None), GateDecision::Admitted);
            let waiter = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.admit(None))
            };
            gate.release();
            assert_eq!(waiter.join().unwrap(), GateDecision::Admitted);
            gate.release();
            assert_eq!(gate.in_flight(), 0);
        });
        assert!(report.executions > 1, "exploration degenerated to one path");
    }

    #[test]
    fn drain_wakes_queued_waiters_in_every_interleaving() {
        dqa_verify::Builder::default().check(|| {
            let gate = Arc::new(AdmissionGate::new(&tight_policy()));
            assert_eq!(gate.admit(None), GateDecision::Admitted);
            let waiter = {
                let gate = Arc::clone(&gate);
                thread::spawn(move || gate.admit(None))
            };
            gate.drain();
            assert_eq!(waiter.join().unwrap(), GateDecision::ShuttingDown);
        });
    }

    #[test]
    fn queue_never_exceeds_its_depth_under_any_interleaving() {
        dqa_verify::Builder::default().check(|| {
            let gate = Arc::new(AdmissionGate::new(&tight_policy()));
            assert_eq!(gate.admit(None), GateDecision::Admitted);
            let contenders: Vec<_> = (0..2)
                .map(|_| {
                    let gate = Arc::clone(&gate);
                    thread::spawn(move || {
                        let decision = gate.admit(None);
                        if decision == GateDecision::Admitted {
                            gate.release();
                        }
                        decision
                    })
                })
                .collect();
            gate.release();
            for c in contenders {
                assert_ne!(c.join().unwrap(), GateDecision::ShuttingDown);
            }
            // The property-test invariant, now checked exhaustively.
            assert!(gate.peak_waiting() <= 1, "queue overshot its bound");
            assert_eq!(gate.in_flight(), 0);
        });
    }

    /// The seeded mutant the ISSUE calls for: hand the slot back without
    /// the notify (what a buggy `release` would do). The explorer must
    /// find the interleaving where the queued waiter sleeps forever.
    #[test]
    fn dropped_notify_mutant_is_reported_as_lost_wakeup() {
        let failure = dqa_verify::Builder::default()
            .try_check(|| {
                let gate = Arc::new(AdmissionGate::new(&tight_policy()));
                assert_eq!(gate.admit(None), GateDecision::Admitted);
                let waiter = {
                    let gate = Arc::clone(&gate);
                    thread::spawn(move || gate.admit(None))
                };
                gate.state.lock().in_flight = 0;
                assert_eq!(waiter.join().unwrap(), GateDecision::Admitted);
            })
            .expect_err("a release without notify must be detected");
        assert!(
            failure.message.contains("deadlock"),
            "expected a lost-wakeup report, got: {failure}"
        );
    }
}
