//! Data-integrity hooks: corruption injection against the checksummed
//! segment image, the read-path spot check that quarantines damaged
//! sub-collections, and the throttled scrub-and-repair engine.

use super::Cluster;
use crate::integrity::ScrubReport;
use crate::trace::TraceKind;
use qa_types::{NodeId, QuestionId, SubCollectionId};
use rebalance::MAX_DEFERRALS;
use std::time::Duration;

impl Cluster {
    /// Apply every index-segment corruption in the configured fault
    /// schedule (the runtime analog of the simulator firing them at their
    /// scheduled virtual times). Returns the number of segments damaged.
    pub fn inject_scheduled_corruption(&self) -> usize {
        let Some(integ) = &self.integrity else {
            return 0;
        };
        let judge = self.cfg.faults.corruption_judge();
        let mut it = integ.lock();
        self.cfg
            .faults
            .events
            .iter()
            .filter(|e| it.inject(e, &judge))
            .count()
    }

    /// One throttled scrub step: wait (bounded) while the admission gate
    /// sits above the throttle's headroom line — foreground questions keep
    /// their latency budget — then verify the next quantum of shard
    /// regions and repair anything quarantined. Safe to call from a
    /// background cadence loop; each call is cheap.
    pub fn scrub_step(&self) -> ScrubReport {
        let Some(integ) = &self.integrity else {
            return ScrubReport::default();
        };
        let throttle = {
            let it = integ.lock();
            it.cfg.throttle
        };
        let mut report = ScrubReport::default();
        // The deferral rule migration steps follow inside the rebalancer:
        // yield a quantum at a time, at most MAX_DEFERRALS times, then go
        // anyway — scrubbing must stay live under a persistently full gate.
        let quantum = Duration::from_secs_f64(throttle.step_secs.max(0.0));
        let cap = self.cfg.overload.max_in_flight;
        for _ in 0..MAX_DEFERRALS {
            if !throttle.yields(self.gate.in_flight(), cap) {
                break;
            }
            report.throttled += 1;
            self.metrics.integrity_scrub_throttled.inc();
            std::thread::sleep(quantum);
        }
        let (step, progress, quarantined) = {
            let mut it = integ.lock();
            let step = it.scrub_quantum();
            (
                step,
                it.store.scrub_progress(),
                it.store.quarantined_subs().len(),
            )
        };
        self.metrics.integrity_scrubbed.add(step.verified as u64);
        for _ in &step.detected {
            self.metrics.integrity_checksum_failures("index").inc();
        }
        for _ in &step.repaired_replica {
            self.metrics.integrity_repairs("replica").inc();
        }
        for _ in &step.repaired_rebuild {
            self.metrics.integrity_repairs("rebuild").inc();
        }
        self.metrics.integrity_scrub_progress.set(progress);
        self.metrics.integrity_quarantined.set(quarantined as f64);
        report.absorb(step);
        report
    }

    /// One full scrub pass over the shard directory (the `dqa scrub`
    /// verb): every region verified, every quarantined sub-collection
    /// repaired, throttled step by step.
    pub fn scrub(&self) -> ScrubReport {
        let Some(integ) = &self.integrity else {
            return ScrubReport::default();
        };
        let steps = integ.lock().steps_per_pass();
        let mut total = ScrubReport::default();
        for _ in 0..steps {
            total.absorb(self.scrub_step());
        }
        total
    }

    /// Sub-collections currently quarantined by checksum failures
    /// (ascending; empty without an integrity config).
    pub fn quarantined_subs(&self) -> Vec<u32> {
        self.integrity
            .as_ref()
            .map(|i| i.lock().store.quarantined_subs())
            .unwrap_or_default()
    }

    /// A copy of the integrity store's primary segment image — what a
    /// bench dumps as a forensic artifact when an invariant fails.
    pub fn integrity_segment(&self) -> Option<Vec<u8>> {
        self.integrity
            .as_ref()
            .map(|i| i.lock().store.segment().to_vec())
    }

    /// The read path of one question: spot-check the shard regions it is
    /// about to read (sampled CRC verification, seeded per question), then
    /// cut one PR chunk per sub-collection that is not quarantined. Returns
    /// the chunks and how many sub-collections were skipped. A checksum
    /// failure can reduce the answer's coverage but never reach PR — bytes
    /// that failed verification are off-limits until scrub-and-repair heals
    /// them.
    pub(super) fn readable_chunks(
        &self,
        question: QuestionId,
        home: NodeId,
    ) -> (Vec<Vec<SubCollectionId>>, usize) {
        let subs = 0..self.shards as u32;
        let Some(integ) = &self.integrity else {
            return (subs.map(|s| vec![SubCollectionId::new(s)]).collect(), 0);
        };
        let (fresh, quarantined) = {
            let mut it = integ.lock();
            let all: Vec<u32> = subs.clone().collect();
            let fresh = it.read_check(&all, u64::from(question.raw()));
            (fresh, it.store.quarantined_subs())
        };
        for _ in &fresh {
            self.metrics.integrity_checksum_failures("index").inc();
        }
        if !fresh.is_empty() {
            self.metrics
                .integrity_quarantined
                .set(quarantined.len() as f64);
        }
        let chunks: Vec<Vec<SubCollectionId>> = subs
            .filter(|s| !quarantined.contains(s))
            .map(|s| vec![SubCollectionId::new(s)])
            .collect();
        let skipped = self.shards - chunks.len();
        if skipped > 0 {
            self.metrics.integrity_degraded.inc();
            self.trace
                .record(question, home, TraceKind::Quarantined(skipped));
        }
        (chunks, skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::super::testkit::*;
    use super::super::ClusterConfig;
    use super::*;
    use faults::FaultSchedule;
    use nlp::NamedEntityRecognizer;
    use scheduler::partition::PartitionStrategy;

    fn integrity_cluster(faults: FaultSchedule) -> (Corpus, Cluster) {
        let c = Corpus::generate(CorpusConfig::small(91)).unwrap();
        let retriever = retriever(&c);
        let cfg = ClusterConfig {
            nodes: 3,
            faults,
            integrity: Some(crate::integrity::IntegrityConfig {
                // Exhaustive read-path verification: the sampled check
                // degenerates to check-all, so detection is deterministic.
                read_sample_blocks: usize::MAX,
                ..Default::default()
            }),
            ..ClusterConfig::default()
        };
        let cl = Cluster::start(retriever, NamedEntityRecognizer::standard(), cfg);
        (c, cl)
    }

    #[test]
    fn corruption_degrades_explicitly_then_scrub_repairs() {
        let (c, cl) = integrity_cluster(FaultSchedule::seeded(7).bit_flip_index(1, 0.0));
        let qs = QuestionGenerator::new(&c, 17).generate(2);

        // Clean baseline: full coverage.
        let before = cl.ask(&qs[0].question).unwrap();
        assert!(before.coverage.is_complete());

        // Fire the scheduled bit flip and ask again: the read check
        // quarantines the damaged sub-collection, the question skips it,
        // and the answer closes explicitly coverage-degraded.
        assert_eq!(cl.inject_scheduled_corruption(), 1);
        let degraded = cl.ask(&qs[1].question).unwrap();
        assert!(
            !degraded.coverage.is_complete(),
            "quarantine must reduce coverage, not pass corrupt data"
        );
        assert_eq!(cl.quarantined_subs(), vec![1]);
        let ev = cl.trace().for_question(qs[1].question.id);
        assert!(
            ev.iter()
                .any(|e| matches!(e.kind, crate::trace::TraceKind::Quarantined(1))),
            "degraded question carries the quarantine trace event"
        );

        // Scrub: detection already happened on the read path, so the pass
        // repairs (replica intact → splice) and lifts the quarantine.
        let report = cl.scrub();
        assert_eq!(report.repaired_replica, vec![1]);
        assert!(cl.quarantined_subs().is_empty());

        // Healed: same question returns the same full-coverage answer as
        // the clean baseline — repair is exact, not approximate.
        let after = cl.ask(&qs[0].question).unwrap();
        assert!(after.coverage.is_complete());
        assert_eq!(
            before.answers.best().map(|a| a.candidate.clone()),
            after.answers.best().map(|a| a.candidate.clone()),
        );

        let snap = cl.metrics().snapshot();
        assert_eq!(
            snap.counter(r#"dqa_integrity_checksum_failures_total{target="index"}"#),
            1
        );
        assert_eq!(
            snap.counter(r#"dqa_integrity_repairs_total{source="replica"}"#),
            1
        );
        assert_eq!(snap.counter("dqa_integrity_degraded_total"), 1);
        cl.shutdown();
    }

    #[test]
    fn scrub_detects_torn_write_without_read_traffic() {
        let (_c, cl) = integrity_cluster(FaultSchedule::seeded(9).torn_write_index(2, 0.0));
        assert_eq!(cl.inject_scheduled_corruption(), 1);
        // No question has touched the segment; the background scrubber is
        // the only detector, and one full pass both finds and heals it.
        let report = cl.scrub();
        assert_eq!(report.detected, vec![2]);
        assert_eq!(report.repaired(), 1);
        assert!(cl.quarantined_subs().is_empty());
        let snap = cl.metrics().snapshot();
        assert!(snap.counter("dqa_integrity_scrubbed_total") > 0);
        cl.shutdown();
    }

    #[test]
    fn without_integrity_config_every_hook_is_inert() {
        let (c, cl) = cluster(2, PartitionStrategy::Send);
        assert_eq!(cl.inject_scheduled_corruption(), 0);
        assert!(cl.quarantined_subs().is_empty());
        assert_eq!(cl.scrub(), crate::integrity::ScrubReport::default());
        assert!(cl.integrity_segment().is_none());
        let out = cl
            .ask(&QuestionGenerator::new(&c, 19).generate(1)[0].question)
            .unwrap();
        assert!(out.coverage.is_complete());
        cl.shutdown();
    }
}
