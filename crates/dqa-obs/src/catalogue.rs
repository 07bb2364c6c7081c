//! Pre-bound handles for the shared metric catalogue ([`crate::names`]).
//!
//! Both backends construct one [`DqaMetrics`] from their registry and
//! record through its fields on the hot path. Binding the catalogue in
//! one place is what guarantees `dqa-runtime` and `cluster-sim` export
//! *identical* metric names and label keys — the property `qa-cli report`
//! and the cross-backend comparisons rely on.

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry};
use crate::names;

/// One handle per catalogue entry (per-node gauges are created on
/// demand via [`DqaMetrics::node_load`] / [`DqaMetrics::queue_depth`]).
#[derive(Debug, Clone)]
pub struct DqaMetrics {
    registry: MetricsRegistry,
    /// `dqa_module_seconds{module="QP"}`.
    pub qp_seconds: Histogram,
    /// `dqa_module_seconds{module="PR"}` (PS fused in, as in Fig. 3).
    pub pr_seconds: Histogram,
    /// `dqa_module_seconds{module="PO"}`.
    pub po_seconds: Histogram,
    /// `dqa_module_seconds{module="AP"}`.
    pub ap_seconds: Histogram,
    /// `dqa_question_seconds` — end-to-end response time.
    pub question_seconds: Histogram,
    /// `dqa_overhead_seconds{part="kw_send"}` — keyword propagation.
    pub overhead_kw_send: Histogram,
    /// `dqa_overhead_seconds{part="par_recv"}` — remote paragraphs back.
    pub overhead_par_recv: Histogram,
    /// `dqa_overhead_seconds{part="par_send"}` — paragraphs out to AP.
    pub overhead_par_send: Histogram,
    /// `dqa_overhead_seconds{part="ans_recv"}` — answers back home.
    pub overhead_ans_recv: Histogram,
    /// `dqa_overhead_seconds{part="ans_sort"}` — final merge + sort.
    pub overhead_ans_sort: Histogram,
    /// `dqa_questions_total{outcome="answered"}`.
    pub answered: Counter,
    /// `dqa_questions_total{outcome="degraded"}`.
    pub degraded: Counter,
    /// `dqa_questions_total{outcome="rejected"}`.
    pub rejected: Counter,
    /// `dqa_questions_total{outcome="failed"}`.
    pub failed: Counter,
    /// `dqa_migrations_total{kind="qa"}` (Table 7).
    pub migrations_qa: Counter,
    /// `dqa_migrations_total{kind="pr"}`.
    pub migrations_pr: Counter,
    /// `dqa_migrations_total{kind="ap"}`.
    pub migrations_ap: Counter,
    /// `dqa_speculations_total`.
    pub speculations: Counter,
    /// `dqa_sheds_total{module="PR"}`.
    pub shed_pr: Counter,
    /// `dqa_sheds_total{module="AP"}`.
    pub shed_ap: Counter,
    /// `dqa_backpressure_total`.
    pub backpressure: Counter,
    /// `dqa_worker_failures_total`.
    pub worker_failures: Counter,
    /// `dqa_breaker_trips_total`.
    pub breaker_trips: Counter,
    /// `dqa_in_flight`.
    pub in_flight: Gauge,
    /// `dqa_admission_waiting`.
    pub admission_waiting: Gauge,
    /// `dqa_failovers_total` — standby promotions.
    pub failovers: Counter,
    /// `dqa_fenced_grants_total` — stale-term journal appends rejected.
    pub fenced_grants: Counter,
    /// `dqa_journal_records_total` — records durably appended.
    pub journal_records: Counter,
    /// `dqa_replayed_records_total` — records folded on recovery.
    pub replayed_records: Counter,
    /// `dqa_resumed_questions_total` — in-flight questions resumed.
    pub resumed_questions: Counter,
    /// `dqa_recovery_seconds` — crash → resumed latency.
    pub recovery_seconds: Histogram,
    /// `dqa_leader_term` — coordinator term in force.
    pub leader_term: Gauge,
    /// `dqa_hedges_total` — hedged shard retries issued by the broker.
    pub hedges: Counter,
    /// `dqa_hedge_wins_total` — hedged replies that beat the primary.
    pub hedge_wins: Counter,
    /// `dqa_merges_total` — scatter-gathered questions merged.
    pub merges: Counter,
    /// `dqa_quorum_shortfalls_total` — merges below the shard quorum.
    pub quorum_shortfalls: Counter,
    /// `dqa_rebalance_migrated_total` — ownership transfers applied.
    pub rebalance_migrated: Counter,
    /// `dqa_rebalance_ownership_epoch` — monotone ownership-map epoch.
    pub ownership_epoch: Gauge,
    /// `dqa_rebalance_converged` — 1 while every sub-collection has a
    /// live owner.
    pub rebalance_converged: Gauge,
    /// `dqa_rebalance_heal_seconds` — loss/join → convergence latency.
    pub heal_seconds: Histogram,
    /// `dqa_integrity_quarantined` — sub-collections detected-damaged
    /// and not yet repaired.
    pub integrity_quarantined: Gauge,
    /// `dqa_integrity_scrubbed_total` — scrubber shard verifications.
    pub integrity_scrubbed: Counter,
    /// `dqa_integrity_scrub_progress` — scrub-cycle position, 0..1.
    pub integrity_scrub_progress: Gauge,
    /// `dqa_integrity_scrub_throttled_total` — scrub steps deferred for
    /// admission headroom.
    pub integrity_scrub_throttled: Counter,
    /// `dqa_integrity_degraded_total` — questions answered with
    /// explicitly degraded Coverage because a quarantined sub-collection
    /// was skipped.
    pub integrity_degraded: Counter,
}

impl DqaMetrics {
    /// Bind every catalogue instrument against `registry`.
    pub fn new(registry: &MetricsRegistry) -> DqaMetrics {
        let module = |m: &str| registry.histogram(names::MODULE_SECONDS, &[("module", m)]);
        let overhead = |p: &str| registry.histogram(names::OVERHEAD_SECONDS, &[("part", p)]);
        let outcome = |o: &str| registry.counter(names::QUESTIONS_TOTAL, &[("outcome", o)]);
        let migration = |k: &str| registry.counter(names::MIGRATIONS_TOTAL, &[("kind", k)]);
        DqaMetrics {
            qp_seconds: module("QP"),
            pr_seconds: module("PR"),
            po_seconds: module("PO"),
            ap_seconds: module("AP"),
            question_seconds: registry.histogram(names::QUESTION_SECONDS, &[]),
            overhead_kw_send: overhead("kw_send"),
            overhead_par_recv: overhead("par_recv"),
            overhead_par_send: overhead("par_send"),
            overhead_ans_recv: overhead("ans_recv"),
            overhead_ans_sort: overhead("ans_sort"),
            answered: outcome("answered"),
            degraded: outcome("degraded"),
            rejected: outcome("rejected"),
            failed: outcome("failed"),
            migrations_qa: migration("qa"),
            migrations_pr: migration("pr"),
            migrations_ap: migration("ap"),
            speculations: registry.counter(names::SPECULATIONS_TOTAL, &[]),
            shed_pr: registry.counter(names::SHEDS_TOTAL, &[("module", "PR")]),
            shed_ap: registry.counter(names::SHEDS_TOTAL, &[("module", "AP")]),
            backpressure: registry.counter(names::BACKPRESSURE_TOTAL, &[]),
            worker_failures: registry.counter(names::WORKER_FAILURES_TOTAL, &[]),
            breaker_trips: registry.counter(names::BREAKER_TRIPS_TOTAL, &[]),
            in_flight: registry.gauge(names::IN_FLIGHT, &[]),
            admission_waiting: registry.gauge(names::ADMISSION_WAITING, &[]),
            failovers: registry.counter(names::FAILOVERS_TOTAL, &[]),
            fenced_grants: registry.counter(names::FENCED_GRANTS_TOTAL, &[]),
            journal_records: registry.counter(names::JOURNAL_RECORDS_TOTAL, &[]),
            replayed_records: registry.counter(names::REPLAYED_RECORDS_TOTAL, &[]),
            resumed_questions: registry.counter(names::RESUMED_QUESTIONS_TOTAL, &[]),
            recovery_seconds: registry.histogram(names::RECOVERY_SECONDS, &[]),
            leader_term: registry.gauge(names::LEADER_TERM, &[]),
            hedges: registry.counter(names::HEDGES_TOTAL, &[]),
            hedge_wins: registry.counter(names::HEDGE_WINS_TOTAL, &[]),
            merges: registry.counter(names::MERGES_TOTAL, &[]),
            quorum_shortfalls: registry.counter(names::QUORUM_SHORTFALLS_TOTAL, &[]),
            rebalance_migrated: registry.counter(names::REBALANCE_MIGRATED_TOTAL, &[]),
            ownership_epoch: registry.gauge(names::REBALANCE_OWNERSHIP_EPOCH, &[]),
            rebalance_converged: registry.gauge(names::REBALANCE_CONVERGED, &[]),
            heal_seconds: registry.histogram(names::REBALANCE_HEAL_SECONDS, &[]),
            integrity_quarantined: registry.gauge(names::INTEGRITY_QUARANTINED, &[]),
            integrity_scrubbed: registry.counter(names::INTEGRITY_SCRUBBED_TOTAL, &[]),
            integrity_scrub_progress: registry.gauge(names::INTEGRITY_SCRUB_PROGRESS, &[]),
            integrity_scrub_throttled: registry
                .counter(names::INTEGRITY_SCRUB_THROTTLED_TOTAL, &[]),
            integrity_degraded: registry.counter(names::INTEGRITY_DEGRADED_TOTAL, &[]),
            registry: registry.clone(),
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Eq. 1–3 load gauge for one node/module pair
    /// (`module` is `"QA"`, `"PR"` or `"AP"`).
    pub fn node_load(&self, node: u32, module: &str) -> Gauge {
        self.registry.gauge(
            names::NODE_LOAD,
            &[("module", module), ("node", &node.to_string())],
        )
    }

    /// Ingress-queue depth gauge for one node.
    pub fn queue_depth(&self, node: u32) -> Gauge {
        self.registry
            .gauge(names::QUEUE_DEPTH, &[("node", &node.to_string())])
    }

    /// Broker-side per-shard request counter (`status` is a
    /// `qa_types::ShardStatus` label such as `"answered"`).
    pub fn shard_requests(&self, shard: u32, status: &str) -> Counter {
        self.registry.counter(
            names::SHARD_REQUESTS_TOTAL,
            &[("shard", &shard.to_string()), ("status", status)],
        )
    }

    /// Broker-observed latency histogram for one shard.
    pub fn shard_seconds(&self, shard: u32) -> Histogram {
        self.registry
            .histogram(names::SHARD_SECONDS, &[("shard", &shard.to_string())])
    }

    /// Breaker-state gauge for one shard (1 = open, 0 = closed).
    pub fn shard_breaker_open(&self, shard: u32) -> Gauge {
        self.registry
            .gauge(names::SHARD_BREAKER_OPEN, &[("shard", &shard.to_string())])
    }

    /// Migration-plan counter for one trigger (`reason` is the
    /// `rebalance::RebalanceReason` label: `"permanent-loss"`, `"drain"`,
    /// `"join"`, `"load-skew"`).
    pub fn rebalance_plans(&self, reason: &str) -> Counter {
        self.registry
            .counter(names::REBALANCE_PLANS_TOTAL, &[("reason", reason)])
    }

    /// Throttle-deferral counter for one cause (`"stalled"`,
    /// `"saturated"`, `"yielding"`).
    pub fn rebalance_throttled(&self, cause: &str) -> Counter {
        self.registry
            .counter(names::REBALANCE_THROTTLED_TOTAL, &[("cause", cause)])
    }

    /// A migration plan entered the step queue — what both backends record
    /// for it: the reason-labelled plan counter, the convergence gauge
    /// broken, and the throttle deferrals its admission already cost
    /// (`saturated`: it queued behind pending steps; `stalled`: steps a
    /// stall window pushed back). Series appear only once they count.
    pub fn plan_minted(&self, reason: &str, saturated: bool, stalled: usize) {
        self.rebalance_plans(reason).inc();
        self.rebalance_converged.set(0.0);
        if saturated {
            self.rebalance_throttled("saturated").inc();
        }
        if stalled > 0 {
            self.rebalance_throttled("stalled").add(stalled as u64);
        }
    }

    /// Checksum-failure counter for one damage class (`target` is
    /// `"index"`, `"journal"` or `"message"`).
    pub fn integrity_checksum_failures(&self, target: &str) -> Counter {
        self.registry.counter(
            names::INTEGRITY_CHECKSUM_FAILURES_TOTAL,
            &[("target", target)],
        )
    }

    /// Repair counter for one restoration source (`"replica"` — verified
    /// federation copy — or `"rebuild"` — re-indexed from corpus).
    pub fn integrity_repairs(&self, source: &str) -> Counter {
        self.registry
            .counter(names::INTEGRITY_REPAIRS_TOTAL, &[("source", source)])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_binds_every_family_once() {
        let reg = MetricsRegistry::new();
        let m = DqaMetrics::new(&reg);
        m.answered.inc();
        m.qp_seconds.observe(0.01);
        m.node_load(2, "PR").set(1.5);
        m.queue_depth(2).set(3.0);
        m.failovers.inc();
        m.fenced_grants.inc();
        m.recovery_seconds.observe(0.25);
        m.leader_term.set(2.0);
        m.hedges.inc();
        m.hedge_wins.inc();
        m.merges.inc();
        m.quorum_shortfalls.inc();
        m.shard_requests(1, "answered").inc();
        m.shard_seconds(1).observe(0.05);
        m.shard_breaker_open(1).set(1.0);
        m.rebalance_plans("drain").inc();
        m.rebalance_throttled("yielding").inc();
        m.rebalance_migrated.inc();
        m.ownership_epoch.set(4.0);
        m.rebalance_converged.set(1.0);
        m.heal_seconds.observe(0.4);
        m.integrity_checksum_failures("index").inc();
        m.integrity_quarantined.set(1.0);
        m.integrity_scrubbed.inc();
        m.integrity_scrub_progress.set(0.5);
        m.integrity_scrub_throttled.inc();
        m.integrity_repairs("replica").inc();
        m.integrity_degraded.inc();
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter(r#"dqa_questions_total{outcome="answered"}"#),
            1
        );
        assert!(snap
            .histograms
            .contains_key(r#"dqa_module_seconds{module="QP"}"#));
        assert_eq!(snap.counter("dqa_failovers_total"), 1);
        assert_eq!(snap.counter("dqa_fenced_grants_total"), 1);
        assert!(snap.histograms.contains_key("dqa_recovery_seconds"));
        assert_eq!(snap.gauges["dqa_leader_term"], 2.0);
        assert_eq!(snap.gauges[r#"dqa_node_load{module="PR",node="2"}"#], 1.5);
        assert_eq!(snap.gauges[r#"dqa_queue_depth{node="2"}"#], 3.0);
        assert_eq!(snap.counter("dqa_hedges_total"), 1);
        assert_eq!(snap.counter("dqa_hedge_wins_total"), 1);
        assert_eq!(snap.counter("dqa_merges_total"), 1);
        assert_eq!(snap.counter("dqa_quorum_shortfalls_total"), 1);
        assert_eq!(
            snap.counter(r#"dqa_shard_requests_total{shard="1",status="answered"}"#),
            1
        );
        assert!(snap
            .histograms
            .contains_key(r#"dqa_shard_seconds{shard="1"}"#));
        assert_eq!(snap.gauges[r#"dqa_shard_breaker_open{shard="1"}"#], 1.0);
        assert_eq!(
            snap.counter(r#"dqa_rebalance_plans_total{reason="drain"}"#),
            1
        );
        assert_eq!(
            snap.counter(r#"dqa_rebalance_throttled_total{cause="yielding"}"#),
            1
        );
        assert_eq!(snap.counter("dqa_rebalance_migrated_total"), 1);
        assert_eq!(snap.gauges["dqa_rebalance_ownership_epoch"], 4.0);
        assert_eq!(snap.gauges["dqa_rebalance_converged"], 1.0);
        assert!(snap.histograms.contains_key("dqa_rebalance_heal_seconds"));
        assert_eq!(
            snap.counter(r#"dqa_integrity_checksum_failures_total{target="index"}"#),
            1
        );
        assert_eq!(snap.gauges["dqa_integrity_quarantined"], 1.0);
        assert_eq!(snap.counter("dqa_integrity_scrubbed_total"), 1);
        assert_eq!(snap.gauges["dqa_integrity_scrub_progress"], 0.5);
        assert_eq!(snap.counter("dqa_integrity_scrub_throttled_total"), 1);
        assert_eq!(
            snap.counter(r#"dqa_integrity_repairs_total{source="replica"}"#),
            1
        );
        assert_eq!(snap.counter("dqa_integrity_degraded_total"), 1);
        // The exposition must validate (CI smoke requirement).
        crate::validate_prometheus(&snap.to_prometheus()).expect("valid");
    }
}
