//! Coordinator crash/failover integration tests.
//!
//! The scenario the journal + failover layer exists for: a journaled
//! coordinator dies mid-question, a successor replays the journal,
//! promotes past the dead incarnation's term and *resumes* — not
//! restarts — the in-flight work. The acceptance bar is exact: zero
//! questions lost, resumed answers identical (paragraph, candidate,
//! window, score) to a crash-free run of the same seed, and every
//! post-term grant from the zombie provably fenced (visible in
//! `dqa_fenced_grants_total`).

use falcon_dqa::corpus::{Corpus, CorpusConfig, QuestionGenerator};
use falcon_dqa::dqa_obs::MetricsRegistry;
use falcon_dqa::dqa_runtime::{Cluster, ClusterConfig, CoordinatorJournal};
use falcon_dqa::ir_engine::{DocumentStore, ParagraphRetriever, RetrievalConfig, ShardedIndex};
use falcon_dqa::journal::{read_segment, JournalRecord};
use falcon_dqa::nlp::NamedEntityRecognizer;
use falcon_dqa::qa_types::RankedAnswers;
use falcon_dqa::scheduler::partition::PartitionStrategy;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "dqa-coordinator-failover-{}-{name}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn cluster(
    seed: u64,
    nodes: usize,
    journal: Option<CoordinatorJournal>,
    metrics: Option<MetricsRegistry>,
) -> (Corpus, Cluster) {
    let corpus = Corpus::generate(CorpusConfig::small(seed)).unwrap();
    let index = Arc::new(ShardedIndex::build(
        &corpus.documents,
        corpus.config.sub_collections,
    ));
    let store = Arc::new(DocumentStore::new(corpus.documents.clone()));
    let retriever = ParagraphRetriever::new(index, store, RetrievalConfig::default());
    let cl = Cluster::start(
        retriever,
        NamedEntityRecognizer::standard(),
        ClusterConfig {
            nodes,
            ap_partition: PartitionStrategy::Recv { chunk_size: 4 },
            journal,
            metrics,
            ..ClusterConfig::default()
        },
    );
    (corpus, cl)
}

#[test]
fn coordinator_crash_resumes_in_flight_question_byte_identically() {
    const SEED: u64 = 701;

    // Phase A — crash-free baseline: the answers every later incarnation
    // must reproduce exactly.
    let (corpus, base) = cluster(SEED, 3, None, None);
    let questions = QuestionGenerator::new(&corpus, 9).generate(4);
    let mut baseline = Vec::new();
    for gq in &questions {
        let out = base.ask(&gq.question).unwrap();
        assert!(out.coverage.is_complete());
        baseline.push(out.answers);
    }
    base.shutdown();

    // Phase B — the journaled first incarnation answers the same stream.
    let dir = tmp("run");
    let (leader, recovery) = CoordinatorJournal::open(&dir).unwrap();
    assert!(recovery.state.is_empty(), "fresh journal has no state");
    let (_, cl) = cluster(SEED, 3, Some(leader.clone()), None);
    for (gq, want) in questions.iter().zip(&baseline) {
        let out = cl.ask(&gq.question).unwrap();
        assert_eq!(&out.answers, want, "journaling must not perturb answers");
    }
    cl.shutdown();
    assert!(leader.appended() > 0, "the run must have journaled records");
    drop(leader);

    // Simulate the crash: copy the journal, cutting it immediately before
    // Q4's final-answer record. That is exactly the on-disk image of a
    // coordinator that died after granting and collecting Q4's chunks but
    // before durably answering it.
    let crash = tmp("crash");
    fs::create_dir_all(&crash).unwrap();
    let q4 = questions[3].question.id;
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let mut cut = None;
    for (i, seg) in segments.iter().enumerate() {
        for (offset, framed) in read_segment(seg).unwrap() {
            if matches!(
                &framed.record,
                JournalRecord::Answered { question, .. } if *question == q4
            ) {
                cut = Some((i, offset));
            }
        }
    }
    let (cut_seg, cut_off) = cut.expect("Q4's answer must be journaled");
    for (i, seg) in segments.iter().enumerate() {
        if i > cut_seg {
            continue; // written after the crash point: never existed
        }
        let bytes = fs::read(seg).unwrap();
        let keep = if i == cut_seg {
            &bytes[..cut_off as usize]
        } else {
            &bytes[..]
        };
        fs::write(crash.join(seg.file_name().unwrap()), keep).unwrap();
    }

    // Phase C — a successor opens the crashed journal, replays it, fences
    // the dead incarnation out and resumes the in-flight question.
    let (successor, recovery) = CoordinatorJournal::open(&crash).unwrap();
    assert_eq!(
        recovery.state.gate_occupancy(),
        1,
        "exactly Q4 occupies an admission slot"
    );
    for (gq, want) in questions[..3].iter().zip(&baseline) {
        let rec = recovery.state.get(gq.question.id).expect("journaled");
        let (payload, complete) = rec.answer().expect("answered before the crash");
        assert!(complete);
        assert_eq!(
            RankedAnswers::decode(payload).as_ref(),
            Ok(want),
            "pre-crash answer changed in the journal"
        );
    }
    // A handle frozen at the dead incarnation's term, minted *before* the
    // successor promotes: the zombie ex-leader.
    let zombie = successor.standby();
    assert_eq!(successor.promote().unwrap(), 2);

    let registry = MetricsRegistry::new();
    let (_, cl2) = cluster(SEED, 3, Some(successor.clone()), Some(registry.clone()));
    let resumed = cl2.resume(&recovery);
    assert_eq!(resumed.len(), 1, "only Q4 needs resuming");
    let (q, res) = &resumed[0];
    assert_eq!(q.id, q4);
    let out = res.as_ref().expect("resumed question answers");
    assert!(out.coverage.is_complete(), "no chunk may be lost");
    assert_eq!(
        out.answers, baseline[3],
        "resumed answer must be identical to the crash-free run"
    );
    let snap = registry.snapshot();
    assert_eq!(snap.counter("dqa_resumed_questions_total"), 1);
    assert!(snap.counter("dqa_replayed_records_total") > 0);
    assert!(snap.counter("dqa_journal_records_total") > 0);
    assert_eq!(snap.histograms["dqa_recovery_seconds"].count, 1);
    assert_eq!(snap.gauges["dqa_leader_term"], 2.0);
    cl2.shutdown();

    // Phase D — the zombie keeps serving: its answers still flow (journal
    // failures never fail the question path) but every grant it tries to
    // journal is rejected by the term fence, visibly.
    let zombie_registry = MetricsRegistry::new();
    let (_, cl3) = cluster(SEED, 3, Some(zombie), Some(zombie_registry.clone()));
    let out = cl3.ask(&questions[0].question).unwrap();
    assert_eq!(
        out.answers, baseline[0],
        "fencing must not corrupt the zombie's in-memory answers"
    );
    let zsnap = zombie_registry.snapshot();
    assert!(
        zsnap.counter("dqa_fenced_grants_total") > 0,
        "every post-term grant must be fenced"
    );
    assert_eq!(
        zsnap.counter("dqa_journal_records_total"),
        0,
        "a fenced incarnation appends nothing"
    );
    cl3.shutdown();

    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
}

#[test]
fn resume_reuses_journaled_chunks_instead_of_rerunning_them() {
    const SEED: u64 = 702;
    let dir = tmp("reuse");
    let (leader, _) = CoordinatorJournal::open(&dir).unwrap();
    let (corpus, cl) = cluster(SEED, 2, Some(leader.clone()), None);
    let questions = QuestionGenerator::new(&corpus, 11).generate(1);
    let want = cl.ask(&questions[0].question).unwrap().answers;
    cl.shutdown();
    drop(leader);

    // Cut immediately before the final-answer record: every chunk payload
    // of both phases survives in the journal.
    let crash = tmp("reuse-crash");
    fs::create_dir_all(&crash).unwrap();
    let q1 = questions[0].question.id;
    let mut segments: Vec<PathBuf> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segments.sort();
    let mut cut = None;
    for (i, seg) in segments.iter().enumerate() {
        for (offset, framed) in read_segment(seg).unwrap() {
            if matches!(
                &framed.record,
                JournalRecord::Answered { question, .. } if *question == q1
            ) {
                cut = Some((i, offset));
            }
        }
    }
    let (cut_seg, cut_off) = cut.expect("Q1 answered");
    for (i, seg) in segments.iter().enumerate() {
        if i > cut_seg {
            continue;
        }
        let bytes = fs::read(seg).unwrap();
        let keep = if i == cut_seg {
            &bytes[..cut_off as usize]
        } else {
            &bytes[..]
        };
        fs::write(crash.join(seg.file_name().unwrap()), keep).unwrap();
    }

    let (successor, recovery) = CoordinatorJournal::open(&crash).unwrap();
    successor.promote().unwrap();
    let registry = MetricsRegistry::new();
    let (_, cl2) = cluster(SEED, 2, Some(successor), Some(registry.clone()));
    let resumed = cl2.resume(&recovery);
    assert_eq!(resumed.len(), 1);
    assert_eq!(
        resumed[0].1.as_ref().unwrap().answers,
        want,
        "resumed answer diverged"
    );
    // Exactly-once chunk semantics, observable in the record count: with
    // every chunk payload replayed from the journal, the resume appends
    // only the idempotent re-admission (Admitted + three scheduling
    // points) and the final answer — no chunk is granted or re-run.
    let snap = registry.snapshot();
    assert_eq!(
        snap.counter("dqa_journal_records_total"),
        5,
        "a fully-journaled question must not re-execute any chunk"
    );
    assert_eq!(snap.counter("dqa_resumed_questions_total"), 1);
    cl2.shutdown();
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&crash);
}
