//! Seeded chaos soak: the unified fault framework's end-to-end
//! invariants, asserted at integration level across both backends.
//!
//! 1. **No question is ever lost.** Under every fault type the runtime
//!    returns `Ok` for every ask (possibly degraded, never hung or
//!    errored) and the simulator completes every submitted question.
//! 2. **Complete answers are byte-identical to the fault-free run.**
//!    Faults may slow a question or degrade its coverage, but a
//!    full-coverage answer must carry exactly the clean run's bytes.
//! 3. **The DES replays seed-stably under every fault type.** Two runs
//!    of the same seeded `FaultSchedule` produce bit-equal reports.
//! 4. **Membership churn is invisible to callers.** A decommission
//!    racing in-flight questions, or a join landing mid flash crowd,
//!    re-homes sub-collections without losing, rejecting or degrading
//!    a single answer.

use falcon_dqa::cluster_sim::workload::{BalancingStrategy, QaSimulation, SimConfig};
use falcon_dqa::corpus::{Corpus, CorpusConfig, QuestionGenerator};
use falcon_dqa::dqa_runtime::{Cluster, ClusterConfig};
use falcon_dqa::faults::{FaultSchedule, RetryPolicy};
use falcon_dqa::ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig, ShardedIndex};
use falcon_dqa::nlp::NamedEntityRecognizer;
use falcon_dqa::qa_types::{NodeId, OverloadCounts, OverloadPolicy};
use falcon_dqa::rebalance::ElasticConfig;
use falcon_dqa::scheduler::partition::PartitionStrategy;
use std::sync::Arc;
use std::time::Duration;

fn retriever(corpus: &Corpus) -> ParagraphRetriever {
    let index = Arc::new(ShardedIndex::build(
        &corpus.documents,
        corpus.config.sub_collections,
    ));
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    ParagraphRetriever::new(index, store, RetrievalConfig::default())
}

fn chaos_config(faults: FaultSchedule) -> ClusterConfig {
    ClusterConfig {
        nodes: 4,
        ap_partition: PartitionStrategy::Recv { chunk_size: 4 },
        faults,
        // Schedules are authored in simulator seconds; run them at
        // millisecond scale so a crash at t=20 lands 20 ms in.
        fault_time_scale: 0.001,
        overload: OverloadPolicy::default().with_deadline(20.0),
        retry: RetryPolicy::with_budget(64),
        speculate_after: Some(5),
        ..ClusterConfig::default()
    }
}

fn answer_bytes(answers: &falcon_dqa::qa_types::RankedAnswers) -> Vec<u8> {
    answers.encode()
}

#[test]
fn runtime_soak_loses_no_question_and_degrades_byte_identically() {
    let corpus = Corpus::generate(CorpusConfig::small(808)).unwrap();
    let questions = QuestionGenerator::new(&corpus, 9).generate(10);

    // Fault-free baseline, asked on fixed homes so the chaotic run can
    // replay the same placement.
    let clean = Cluster::start(
        retriever(&corpus),
        NamedEntityRecognizer::standard(),
        chaos_config(FaultSchedule::none()),
    );
    let mut baseline = Vec::new();
    for (i, gq) in questions.iter().enumerate() {
        let home = NodeId::new((i % 4) as u32);
        let out = clean.ask_on(home, &gq.question).expect("clean ask");
        assert!(out.coverage.is_complete(), "clean run must not degrade");
        baseline.push(answer_bytes(&out.answers));
    }
    clean.shutdown();

    // The same questions under every fault type at once: a transient
    // crash, a permanent crash, a straggler window, lossy/delaying/
    // duplicating links and monitor packet loss.
    let schedule = FaultSchedule::seeded(808)
        .crash_rejoin(NodeId::new(1), 30.0, 120.0)
        .crash(NodeId::new(3), 400.0)
        .straggler(NodeId::new(2), 60.0, 200.0, 0.25)
        // Coordinator faults ride along in the same schedule: the
        // board-level chaos driver must tolerate them (they are realized
        // by the journal/failover harness, see tests/coordinator_failover)
        // without perturbing worker-level fault injection.
        .coordinator_crash_rejoin(50.0, 90.0)
        .leader_partition(250.0, 300.0)
        .message_loss(0.08)
        .message_delay(0.10, 0.004)
        .message_dup(0.05)
        .monitor_loss(0.30);
    let chaotic = Cluster::start(
        retriever(&corpus),
        NamedEntityRecognizer::standard(),
        chaos_config(schedule),
    );
    let mut complete = 0usize;
    for (i, gq) in questions.iter().enumerate() {
        let home = NodeId::new((i % 4) as u32);
        // Invariant 1: never lost — every ask returns, and returns Ok.
        let out = chaotic
            .ask_on(home, &gq.question)
            .expect("chaotic ask must degrade, not fail");
        assert!(out.coverage.total > 0, "coverage must be populated");
        // Invariant 2: full coverage ⇒ byte-identical answers.
        if out.coverage.is_complete() {
            complete += 1;
            assert_eq!(
                answer_bytes(&out.answers),
                baseline[i],
                "non-degraded answer diverged from the fault-free run"
            );
        }
    }
    assert!(
        complete > 0,
        "soak produced no full-coverage answer at all; faults too hot for the assertion to bite"
    );
    chaotic.shutdown();
}

#[test]
fn overloaded_chaotic_cluster_conserves_outcomes() {
    let corpus = Corpus::generate(CorpusConfig::small(606)).unwrap();
    let questions: Vec<_> = QuestionGenerator::new(&corpus, 7)
        .generate(12)
        .into_iter()
        .map(|g| g.question)
        .collect();
    // Chaos × overload: a straggler window covering the whole run while a
    // 12-question burst hits a cap-3 + queue-3 front-end — 2× the load
    // the admission layer can hold at once.
    let schedule = FaultSchedule::seeded(606).straggler(NodeId::new(2), 0.0, 600.0, 0.25);
    let cluster = Cluster::start(
        retriever(&corpus),
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            overload: OverloadPolicy::server(3).with_deadline(15.0),
            ..chaos_config(schedule)
        },
    );
    let results = cluster.ask_many(&questions);
    let mut counts = OverloadCounts::default();
    for admission in &results {
        match admission.outcome() {
            Some(o) => counts.record(o),
            None => panic!("question failed outright under overload+chaos: {admission:?}"),
        }
    }
    // Invariant 1 under pressure: every offered question terminates in
    // exactly one of Answered/Degraded/Rejected — none silently dropped.
    assert_eq!(
        counts.offered(),
        questions.len(),
        "outcome conservation broken under chaos and 2x load"
    );
    assert!(
        counts.answered + counts.degraded >= 1,
        "the burst saturated admission completely; nothing ran"
    );
    assert!(
        cluster.admission().peak_waiting() <= 3,
        "admission queue exceeded its configured depth"
    );
    assert_eq!(cluster.admission().in_flight(), 0, "slots leaked");
    cluster.shutdown();
}

#[test]
fn des_replays_seed_stably_under_every_fault_type() {
    let low =
        |seed| SimConfig::paper_low_load(4, PartitionStrategy::Recv { chunk_size: 40 }, 6, seed);
    let schedules: Vec<(&str, SimConfig)> = vec![
        ("crash", {
            let mut cfg = low(900);
            cfg.faults = FaultSchedule::seeded(900).crash(NodeId::new(1), 30.0);
            cfg
        }),
        ("crash+rejoin", {
            let mut cfg = low(901);
            cfg.faults = FaultSchedule::seeded(901).crash_rejoin(NodeId::new(2), 20.0, 150.0);
            cfg
        }),
        ("straggler", {
            let mut cfg = low(902);
            cfg.faults = FaultSchedule::seeded(902).straggler(NodeId::new(0), 0.0, 300.0, 0.3);
            cfg
        }),
        ("link loss/delay/dup", {
            let mut cfg = low(903);
            cfg.faults = FaultSchedule::seeded(903)
                .message_loss(0.15)
                .message_delay(0.2, 0.4)
                .message_dup(0.1);
            cfg.faults.link.retransmit_secs = 1.0;
            cfg
        }),
        ("monitor loss", {
            let mut cfg = low(904);
            cfg.faults = FaultSchedule::seeded(904).monitor_loss(0.6);
            cfg
        }),
        ("coordinator crash", {
            let mut cfg = low(906);
            cfg.faults = FaultSchedule::seeded(906).coordinator_crash(25.0);
            cfg
        }),
        ("coordinator crash+rejoin", {
            let mut cfg = low(907);
            cfg.faults = FaultSchedule::seeded(907).coordinator_crash_rejoin(25.0, 90.0);
            cfg
        }),
        ("leader partition", {
            let mut cfg = low(908);
            cfg.faults = FaultSchedule::seeded(908).leader_partition(15.0, 350.0);
            cfg
        }),
        ("decommission", {
            let mut cfg = low(909);
            cfg.faults = FaultSchedule::seeded(909).decommission(NodeId::new(1), 20.0);
            cfg
        }),
        ("decommission+join", {
            let mut cfg = low(910);
            cfg.faults = FaultSchedule::seeded(910)
                .decommission(NodeId::new(2), 15.0)
                .node_join(NodeId::new(2), 90.0);
            cfg
        }),
        ("rebalance stall", {
            let mut cfg = low(911);
            cfg.faults = FaultSchedule::seeded(911)
                .decommission(NodeId::new(1), 10.0)
                .rebalance_stall(10.0, 70.0);
            cfg
        }),
        ("everything at once", {
            let mut cfg = low(905);
            cfg.faults = FaultSchedule::seeded(905)
                .crash_rejoin(NodeId::new(1), 40.0, 200.0)
                .straggler(NodeId::new(3), 10.0, 120.0, 0.25)
                .coordinator_crash(60.0)
                .leader_partition(400.0, 500.0)
                // Membership churn rides the same combined timeline: the
                // elastic tier must coexist with every other fault type.
                .decommission(NodeId::new(2), 80.0)
                .rebalance_stall(80.0, 110.0)
                .message_loss(0.1)
                .message_delay(0.1, 0.3)
                .message_dup(0.05)
                .monitor_loss(0.4);
            cfg.faults.link.retransmit_secs = 1.0;
            cfg
        }),
    ];
    for (label, cfg) in schedules {
        let a = QaSimulation::new(cfg.clone()).run();
        let b = QaSimulation::new(cfg).run();
        assert_eq!(a, b, "{label}: DES replay diverged");
        assert_eq!(a.questions.len(), 6, "{label}: question lost in the DES");
    }
}

#[test]
fn decommission_mid_question_migrates_live_without_losing_answers() {
    let corpus = Corpus::generate(CorpusConfig::small(909)).unwrap();
    let questions: Vec<_> = QuestionGenerator::new(&corpus, 5)
        .generate(8)
        .into_iter()
        .map(|g| g.question)
        .collect();
    let mut ecfg = ElasticConfig::default();
    // Pace migration steps fast enough for a test, slow enough that the
    // drain genuinely overlaps the in-flight burst.
    ecfg.throttle.step_secs = 0.002;
    let cluster = Cluster::start(
        retriever(&corpus),
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            elastic: Some(ecfg),
            ..chaos_config(FaultSchedule::none())
        },
    );
    // Pre-drain baseline: the byte-identical yardstick for every later
    // full-coverage answer.
    let baseline: Vec<Vec<u8>> = questions
        .iter()
        .map(|q| answer_bytes(&cluster.ask(q).expect("clean ask").answers))
        .collect();

    // Decommission node 1 while the burst is in flight: the evacuation
    // must yield to foreground questions, not the other way round.
    let (results, moved) = std::thread::scope(|scope| {
        let burst = scope.spawn(|| cluster.ask_many(&questions));
        let moved = cluster.drain(NodeId::new(1));
        (burst.join().expect("burst thread"), moved)
    });
    assert!(moved > 0, "the drained node owned nothing to migrate");
    let mut counts = OverloadCounts::default();
    for admission in &results {
        match admission.outcome() {
            Some(o) => counts.record(o),
            None => panic!("question failed outright during the drain: {admission:?}"),
        }
    }
    assert_eq!(
        counts.offered(),
        questions.len(),
        "a question racing the decommission was lost"
    );
    assert_eq!(counts.rejected, 0, "migration must not reject foreground");

    // Post-healing: ownership excludes the victim, the invariant holds,
    // and answers are byte-identical to the pre-drain run (Coverage is
    // unchanged by re-homing).
    let (epoch, converged) = cluster.rebalance_status().expect("elastic tier active");
    assert!(converged, "ownership did not re-converge after the drain");
    assert!(epoch > 0, "migration must bump the ownership epoch");
    assert!(
        cluster.ownership().iter().all(|&(_, node)| node != 1),
        "the drained node still owns a sub-collection"
    );
    for (i, q) in questions.iter().enumerate() {
        let out = cluster.ask(q).expect("post-drain ask");
        assert!(out.coverage.is_complete(), "re-homing degraded coverage");
        assert_eq!(
            answer_bytes(&out.answers),
            baseline[i],
            "post-healing answer diverged from the fault-free run"
        );
    }
    cluster.shutdown();
}

#[test]
fn des_join_during_flash_crowd_conserves_and_replays_bit_stably() {
    // A 3-node cluster loses a node just as an open-loop arrival wave
    // starts, then gets it back mid-crowd: the join plan must land
    // while questions are still arriving, with nothing lost and the
    // whole interleaving bit-stable under replay.
    let build = || {
        let mut cfg = SimConfig::paper_high_load(3, BalancingStrategy::Dqa, 912);
        cfg.questions = 12;
        cfg.faults = FaultSchedule::seeded(912)
            .decommission(NodeId::new(2), 0.5)
            .node_join(NodeId::new(2), 6.0);
        cfg
    };
    let report = QaSimulation::new(build()).run();
    assert_eq!(
        report.questions.len(),
        12,
        "a flash-crowd question was lost to membership churn"
    );
    assert_eq!(
        report.outcome_counts().rejected,
        0,
        "churn rejected a question under a permissive policy"
    );
    assert_eq!(
        report
            .metrics
            .counter(r#"dqa_rebalance_plans_total{reason="join"}"#),
        1,
        "the mid-crowd join never minted a plan"
    );
    assert_eq!(
        report.metrics.gauges["dqa_rebalance_converged"], 1.0,
        "ownership did not re-converge after the round trip"
    );
    assert_eq!(
        report,
        QaSimulation::new(build()).run(),
        "join-during-flash-crowd replay diverged"
    );
}
