//! Virtual-time model of the federation broker.
//!
//! The runtime broker in [`crate::broker`] demonstrates the federation
//! tier with real threads; this module reproduces its *decisions* in
//! pure virtual time so chaos soaks can replay them bit-stably:
//!
//! * each shard is a full [`QaSimulation`] over a seed salted per shard
//!   (and per replica), whose per-question response times stand in for
//!   shard service latency;
//! * hedging uses the same [`LatencyEstimator`] the runtime uses, fed
//!   with virtual seconds: a primary slower than the hedge trigger pays
//!   `trigger + replica_latency` and the faster of the two lanes wins;
//! * federation faults come from the same [`FaultWindows`] compilation of
//!   the schedule, evaluated at each question's virtual arrival instant;
//! * the merge applies the broker's exact quorum/rejection rules:
//!   responders merge into a Coverage-annotated record, zero responders
//!   with an admission rejection aggregate a retry-after, zero responders
//!   otherwise merge an empty answer — never an error, never a drop.
//!
//! **Unit.** Every duration in this module is a *virtual* second of the
//! shard simulations' clock: arrival spacing, shard latencies, fault
//! windows, and the policy's hedge floor and shard deadline. A shard
//! answers in tens to hundreds of virtual seconds (the paper's questions
//! take 48–94 s sequentially), so [`FederationPolicy`]'s defaults — wall
//! seconds sized for the thread runtime's millisecond questions — do not
//! apply here; [`FedSimConfig::new`] derives both durations from the
//! shard profile instead.
//!
//! Deliberate simplifications versus the runtime (documented so the soak
//! asserts the right things): circuit breakers are not simulated (their
//! inputs — wall-clock failure streaks — have no virtual analog here),
//! and responder coverage is composed at shard granularity only. This is
//! a model that shares the broker's [`LatencyEstimator`], [`FaultWindows`]
//! and policy type, not a second driver of one broker core.
//!
//! Everything is a pure function of the config, so running a config twice
//! yields `PartialEq`-identical — and therefore digest-identical —
//! reports; [`FedSimReport::digest`] folds every `(question, shard,
//! status, latency-bits)` tuple into one u64 for cheap cross-run
//! comparison.

use crate::estimator::LatencyEstimator;
use crate::windows::FaultWindows;
use cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use faults::FaultSchedule;
use qa_types::rng::splitmix64;
use qa_types::stats::percentile;
use qa_types::{
    Coverage, FederationPolicy, OverloadCounts, OverloadPolicy, QuestionOutcome, ShardReport,
    ShardStatus,
};
use serde::Serialize;

/// Configuration of one federation DES run.
#[derive(Debug, Clone)]
pub struct FedSimConfig {
    /// Coordinator shards.
    pub shards: usize,
    /// Nodes inside each shard simulation.
    pub nodes_per_shard: usize,
    /// Load-balancing strategy inside each shard.
    pub strategy: BalancingStrategy,
    /// Questions offered to the broker.
    pub questions: usize,
    /// Master seed; shard and replica simulations are salted from it.
    pub seed: u64,
    /// Scatter-gather policy (quorum, hedge trigger/budget, deadlines).
    /// Both durations in it — `hedge_after_secs`, `default_deadline_secs`
    /// — are read as **virtual** seconds here.
    pub policy: FederationPolicy,
    /// Admission policy inside each shard simulation.
    pub overload: OverloadPolicy,
    /// Fault schedule; federation-tier events are consumed here, the
    /// rest by the shard simulations' own chaos timeline.
    pub faults: FaultSchedule,
    /// Whether shards have hedge-target replicas.
    pub replicated: bool,
}

/// Deterministic gap between broker arrivals, virtual seconds.
const ARRIVAL_SPACING_SECS: f64 = 2.0;

/// How many times over a shard node may take to serve its share of the
/// offered questions before the broker stops waiting: the shard model's
/// thrashing floor is 20 % of a node's speed, so five times the unloaded
/// back-to-back time is the slowest a *healthy* shard can be. Like the
/// runtime's 30 s default against millisecond questions, the deadline is
/// a backstop for dark shards, not a latency target.
const DEADLINE_SHARES: f64 = 5.0;

impl FedSimConfig {
    /// The defaults of [`crate::broker::FederationConfig::new`], with the
    /// policy's two durations restated in virtual seconds from the
    /// slowest profile the shard simulations draw from (a derived value,
    /// the way `SimConfig::paper_high_load` derives its hysteresis from
    /// Table 3): the hedge floor is one unloaded sequential question
    /// ([`ModuleProfile::sequential_total`](qa_types::ModuleProfile::sequential_total))
    /// — a shard slower than that is being held up by load or a fault —
    /// and the shard deadline is [`DEADLINE_SHARES`] × the time one node
    /// needs for its share, `⌈questions / nodes_per_shard⌉`, of them back
    /// to back.
    pub fn new(shards: usize, questions: usize, seed: u64) -> FedSimConfig {
        let nodes_per_shard = 2;
        let strategy = BalancingStrategy::Dqa;
        let sequential = SimConfig::paper_high_load(nodes_per_shard, strategy, seed)
            .profiles
            .iter()
            .map(|p| p.sequential_total())
            .fold(0.0, f64::max);
        let share = questions.div_ceil(nodes_per_shard).max(1) as f64;
        let mut policy = FederationPolicy::for_shards(shards.max(1)).with_hedge_after(sequential);
        policy.default_deadline_secs = DEADLINE_SHARES * share * sequential;
        FedSimConfig {
            shards: shards.max(1),
            nodes_per_shard,
            strategy,
            questions,
            seed,
            policy,
            overload: OverloadPolicy::default(),
            faults: FaultSchedule::none(),
            replicated: true,
        }
    }
}

/// One broker-level question in the model.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FedQuestionRecord {
    /// Virtual arrival at the broker (after any broker-crash hold).
    pub arrival: f64,
    /// Virtual completion (arrival + slowest responding shard).
    pub finished: f64,
    /// One report per shard (empty when the broker itself was down).
    pub shards: Vec<ShardReport>,
    /// Shards that contributed answers.
    pub responders: usize,
    /// Whether the responders met the policy quorum.
    pub quorum_met: bool,
    /// Shard-granularity federation coverage.
    pub coverage: Coverage,
    /// Three-way outcome (merged-full / merged-partial / rejected).
    pub outcome: QuestionOutcome,
}

impl FedQuestionRecord {
    /// Broker-observed response time.
    pub fn response_time(&self) -> f64 {
        self.finished - self.arrival
    }
}

/// Aggregate model output. `PartialEq` + [`FedSimReport::digest`] give
/// double-run bit-identity checks.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct FedSimReport {
    /// Per-question records in arrival order.
    pub questions: Vec<FedQuestionRecord>,
    /// Hedged shard retries issued.
    pub hedges: usize,
    /// Hedges whose replica lane won.
    pub hedge_wins: usize,
    /// Questions that produced a merged answer (even an empty one).
    pub merges: usize,
    /// Questions refused with an aggregated retry-after.
    pub rejected: usize,
    /// Merges below the policy quorum.
    pub quorum_shortfalls: usize,
    /// Virtual completion of the last question.
    pub makespan: f64,
    /// splitmix64 fold of every (question, shard, status, latency) tuple.
    pub digest: u64,
}

impl FedSimReport {
    /// Conservation ledger: every offered question left exactly one way.
    pub fn conserved(&self) -> bool {
        self.merges + self.rejected == self.questions.len()
    }

    /// Outcome tally over the broker-level records.
    pub fn outcome_counts(&self) -> OverloadCounts {
        let mut counts = OverloadCounts::default();
        for q in &self.questions {
            counts.record(q.outcome);
        }
        counts
    }

    /// Response-time percentile over merged (non-rejected) questions,
    /// nearest-rank; 0 when nothing merged.
    pub fn merged_response_percentile(&self, p: f64) -> f64 {
        let mut times: Vec<f64> = self
            .questions
            .iter()
            .filter(|q| q.outcome != QuestionOutcome::Rejected)
            .map(FedQuestionRecord::response_time)
            .collect();
        percentile(&mut times, p)
    }
}

const fn mix(h: u64, v: u64) -> u64 {
    splitmix64(h ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

const fn outcome_code(o: QuestionOutcome) -> u64 {
    match o {
        QuestionOutcome::Answered => 0,
        QuestionOutcome::Degraded => 1,
        QuestionOutcome::Rejected => 2,
    }
}

/// Run one shard simulation and harvest `(latency, outcome)` per question.
fn shard_service(cfg: &FedSimConfig, seed: u64) -> Vec<(f64, QuestionOutcome)> {
    let mut sc = SimConfig::paper_high_load(cfg.nodes_per_shard.max(1), cfg.strategy, seed);
    sc.questions = cfg.questions;
    sc.overload = cfg.overload;
    sc.record_trace = false;
    QaSimulation::new(sc)
        .run()
        .questions
        .iter()
        .map(|q| (q.response_time().max(0.0), q.outcome))
        .collect()
}

/// Run the federation model. Pure function of `cfg`: identical configs
/// produce `PartialEq`-identical reports (the double-run soak property).
pub fn run_fed_sim(cfg: &FedSimConfig) -> FedSimReport {
    let shards = cfg.shards.max(1);
    let primaries: Vec<Vec<(f64, QuestionOutcome)>> = (0..shards)
        .map(|s| shard_service(cfg, mix(cfg.seed, s as u64 + 1)))
        .collect();
    let replicas: Vec<Vec<(f64, QuestionOutcome)>> = if cfg.replicated {
        (0..shards)
            .map(|s| shard_service(cfg, mix(cfg.seed ^ 0x5eed_5eed, s as u64 + 1)))
            .collect()
    } else {
        Vec::new()
    };
    let estimators: Vec<LatencyEstimator> = (0..shards).map(|_| LatencyEstimator::new()).collect();
    let windows = FaultWindows::from_schedule(&cfg.faults);
    let deadline = cfg.policy.shard_deadline(cfg.overload.deadline_secs);
    let quorum = cfg.policy.quorum.max(1);
    let retry_latency = cfg.overload.retry_after_secs.max(0.0);

    let mut report = FedSimReport {
        questions: Vec::with_capacity(cfg.questions),
        hedges: 0,
        hedge_wins: 0,
        merges: 0,
        rejected: 0,
        quorum_shortfalls: 0,
        makespan: 0.0,
        digest: splitmix64(cfg.seed),
    };

    for q in 0..cfg.questions {
        let mut arrival = q as f64 * ARRIVAL_SPACING_SECS;
        if let Some(rejoin) = windows.broker_down(arrival) {
            if rejoin.is_finite() {
                // Transient broker crash: arrivals in the window are held
                // and re-offered at rejoin — delayed, never lost.
                arrival = rejoin;
            } else {
                // Permanent crash: refused with a retry hint, and still
                // accounted in the ledger.
                report.rejected += 1;
                report.questions.push(FedQuestionRecord {
                    arrival,
                    finished: arrival,
                    shards: Vec::new(),
                    responders: 0,
                    quorum_met: false,
                    coverage: Coverage {
                        completed: 0,
                        total: shards as u32,
                    },
                    outcome: QuestionOutcome::Rejected,
                });
                continue;
            }
        }
        let mut budget = cfg.policy.hedge_budget;
        let mut reports: Vec<ShardReport> = Vec::with_capacity(shards);
        for s in 0..shards {
            if windows.shard_down(s as u32, arrival) {
                reports.push(ShardReport {
                    shard: s as u32,
                    status: ShardStatus::Down,
                    latency_secs: 0.0,
                    hedged: false,
                    hedge_won: false,
                });
                continue;
            }
            let (plat, pout) = primaries[s][q];
            if pout == QuestionOutcome::Rejected {
                reports.push(ShardReport {
                    shard: s as u32,
                    status: ShardStatus::Rejected,
                    latency_secs: retry_latency,
                    hedged: false,
                    hedge_won: false,
                });
                continue;
            }
            let hedge_at = estimators[s]
                .hedge_trigger(cfg.policy.hedge_after_secs)
                .min(deadline);
            let mut latency = plat;
            let mut outcome = pout;
            let mut hedged = false;
            let mut hedge_won = false;
            if latency > hedge_at && budget > 0 && cfg.replicated {
                budget -= 1;
                hedged = true;
                report.hedges += 1;
                let (rlat, rout) = replicas[s][q];
                if rout != QuestionOutcome::Rejected {
                    let alt = hedge_at + rlat;
                    if alt < latency {
                        latency = alt;
                        outcome = rout;
                        hedge_won = true;
                        report.hedge_wins += 1;
                    }
                }
            }
            let status = if latency > deadline {
                latency = deadline;
                ShardStatus::TimedOut
            } else {
                estimators[s].observe(latency);
                match outcome {
                    QuestionOutcome::Degraded => ShardStatus::Degraded,
                    _ => ShardStatus::Answered,
                }
            };
            reports.push(ShardReport {
                shard: s as u32,
                status,
                latency_secs: latency,
                hedged,
                hedge_won,
            });
        }
        let responders = reports.iter().filter(|r| r.status.responded()).count();
        let any_reject = reports.iter().any(|r| r.status == ShardStatus::Rejected);
        let slowest = reports
            .iter()
            .filter(|r| r.status.responded())
            .map(|r| r.latency_secs)
            .fold(0.0_f64, f64::max);
        let (outcome, quorum_met) = if responders == 0 && any_reject {
            report.rejected += 1;
            (QuestionOutcome::Rejected, false)
        } else {
            report.merges += 1;
            let quorum_met = responders >= quorum;
            if !quorum_met {
                report.quorum_shortfalls += 1;
            }
            let full =
                responders == shards && reports.iter().all(|r| r.status == ShardStatus::Answered);
            (
                if full {
                    QuestionOutcome::Answered
                } else {
                    QuestionOutcome::Degraded
                },
                quorum_met,
            )
        };
        let finished = arrival + slowest;
        report.makespan = report.makespan.max(finished);
        report.questions.push(FedQuestionRecord {
            arrival,
            finished,
            shards: reports,
            responders,
            quorum_met,
            coverage: Coverage {
                completed: responders as u32,
                total: shards as u32,
            },
            outcome,
        });
    }

    for (q, rec) in report.questions.iter().enumerate() {
        report.digest = mix(report.digest, q as u64);
        report.digest = mix(report.digest, outcome_code(rec.outcome));
        for r in &rec.shards {
            report.digest = mix(report.digest, u64::from(r.shard));
            report.digest = mix(report.digest, r.status.code());
            report.digest = mix(report.digest, r.latency_secs.to_bits());
        }
    }
    report
}

/// Deterministic virtual-time model of a retry-after-honoring client
/// population against a saturated admission gate: `clients` all arrive at
/// t = 0 at a gate with `capacity` concurrent slots and `service_secs`
/// occupancy, and every refused client retries exactly `retry_after_secs`
/// later. The model admits every client in bounded attempts — the
/// no-starvation property the runtime twin asserts with real threads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateSimReport {
    /// Clients eventually admitted (always all of them).
    pub admitted: usize,
    /// Worst-case attempts by any single client.
    pub max_attempts: usize,
    /// Virtual time the last client finished service.
    pub makespan: f64,
}

/// Run the retry-after gate model. See [`GateSimReport`].
pub fn run_retry_gate_sim(
    clients: usize,
    capacity: usize,
    service_secs: f64,
    retry_after_secs: f64,
) -> GateSimReport {
    let service = service_secs.max(0.0);
    let step = retry_after_secs.max(1e-6);
    let mut free_at = vec![0.0_f64; capacity.max(1)];
    let mut max_attempts = 0;
    let mut makespan = 0.0_f64;
    for _ in 0..clients {
        let mut t = 0.0;
        let mut attempts = 1;
        loop {
            if let Some(slot) = free_at.iter_mut().find(|f| **f <= t) {
                *slot = t + service;
                makespan = makespan.max(t + service);
                break;
            }
            t += step;
            attempts += 1;
        }
        max_attempts = max_attempts.max(attempts);
    }
    GateSimReport {
        admitted: clients,
        max_attempts,
        makespan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn double_runs_are_bit_identical() {
        let mut cfg = FedSimConfig::new(2, 10, 42);
        cfg.faults = FaultSchedule::seeded(42)
            .shard_down_rejoin(0, 4.0, 9.0)
            .shard_partition(1, 12.0, 14.0);
        let a = run_fed_sim(&cfg);
        let b = run_fed_sim(&cfg);
        assert_eq!(a, b, "seeded replay must be bit-stable");
        assert_eq!(a.digest, b.digest);
        assert!(a.conserved());
    }

    #[test]
    fn different_seeds_change_the_digest() {
        let a = run_fed_sim(&FedSimConfig::new(2, 8, 1));
        let b = run_fed_sim(&FedSimConfig::new(2, 8, 2));
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn single_shard_loss_degrades_but_never_drops() {
        let mut cfg = FedSimConfig::new(2, 12, 7);
        cfg.faults = FaultSchedule::seeded(7).shard_down(0, 0.0);
        let r = run_fed_sim(&cfg);
        assert!(r.conserved());
        assert_eq!(r.rejected, 0, "losing one shard must not reject");
        assert_eq!(r.merges, 12);
        for q in &r.questions {
            assert_eq!(q.outcome, QuestionOutcome::Degraded);
            assert!(q.coverage.fraction() < 1.0);
            assert_eq!(q.shards[0].status, ShardStatus::Down);
            assert!(q.shards[1].status.responded());
        }
        // Majority quorum over 2 shards is 2 — every merge falls short.
        assert_eq!(r.quorum_shortfalls, 12);
    }

    #[test]
    fn transient_broker_crash_holds_questions_instead_of_losing_them() {
        let mut cfg = FedSimConfig::new(2, 10, 3);
        // Arrivals are 2 s apart; the broker is dark over [3, 8).
        cfg.faults = FaultSchedule::seeded(3).broker_crash_rejoin(3.0, 8.0);
        let r = run_fed_sim(&cfg);
        assert!(r.conserved());
        assert_eq!(r.rejected, 0);
        for q in &r.questions {
            assert!(
                q.arrival < 3.0 || q.arrival >= 8.0,
                "no question may start inside the outage, got {}",
                q.arrival
            );
        }
    }

    #[test]
    fn permanent_broker_crash_rejects_with_accounting() {
        let mut cfg = FedSimConfig::new(2, 10, 3);
        cfg.faults = FaultSchedule::seeded(3).broker_crash(9.0);
        let r = run_fed_sim(&cfg);
        assert!(r.conserved());
        assert!(r.rejected > 0, "arrivals after t=9 are refused");
        assert!(r.merges > 0, "arrivals before t=9 still merge");
        assert_eq!(r.merges + r.rejected, 10);
    }

    #[test]
    fn aggressive_hedging_fires_and_stays_deterministic() {
        let mut cfg = FedSimConfig::new(2, 8, 11);
        cfg.policy = cfg.policy.with_hedge_after(0.0).with_hedge_budget(2);
        let r = run_fed_sim(&cfg);
        assert!(r.hedges > 0, "zero floor must hedge cold shards");
        assert!(r.hedge_wins <= r.hedges);
        assert_eq!(run_fed_sim(&cfg), r);
    }

    #[test]
    fn healthy_federation_meets_quorum_everywhere() {
        let r = run_fed_sim(&FedSimConfig::new(4, 10, 5));
        assert!(r.conserved());
        assert_eq!(r.rejected, 0);
        assert_eq!(r.quorum_shortfalls, 0);
        for q in &r.questions {
            assert!(q.quorum_met);
            assert_eq!(q.responders, 4);
        }
        assert!(r.merged_response_percentile(0.99) > 0.0);
    }

    #[test]
    fn retry_gate_model_admits_every_client_without_starvation() {
        let r = run_retry_gate_sim(20, 2, 1.0, 0.25);
        assert_eq!(r.admitted, 20);
        // 20 clients through 2 slots of 1 s each ends by t = 10; a client
        // retrying every 0.25 s needs at most 4 attempts per busy second.
        assert!(r.makespan <= 10.0 + 1e-9);
        assert!(
            r.max_attempts <= 1 + (10.0 / 0.25) as usize,
            "attempts stay bounded, got {}",
            r.max_attempts
        );
    }
}
