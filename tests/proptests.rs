//! Property-based tests of cross-crate invariants.

use falcon_dqa::cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use falcon_dqa::dqa_runtime::{AdmissionGate, GateDecision};
use falcon_dqa::ir_engine::postings::{intersect, union, PostingsList};
use falcon_dqa::ir_engine::terms::index_terms;
use falcon_dqa::nlp::analyze::words;
use falcon_dqa::nlp::stem::stem;
use falcon_dqa::nlp::stopwords::is_stopword;
use falcon_dqa::nlp::tokenize::{tokenize, word_count};
use falcon_dqa::qa_types::{Answer, DocId, NodeId, OverloadPolicy, ParagraphId, RankedAnswers};
use falcon_dqa::scheduler::partition::{
    partition_counts, partition_isend, partition_recv, partition_send,
};
use falcon_dqa::scheduler::recovery::ChunkQueue;
use proptest::prelude::*;

proptest! {
    // ---- postings ----------------------------------------------------

    #[test]
    fn postings_round_trip(mut ids in proptest::collection::vec(0u32..1_000_000, 0..300)) {
        ids.sort_unstable();
        ids.dedup();
        let p = PostingsList::from_sorted(&ids);
        prop_assert_eq!(p.to_vec(), ids);
    }

    #[test]
    fn intersect_union_against_sets(
        mut a in proptest::collection::vec(0u32..500, 0..100),
        mut b in proptest::collection::vec(0u32..500, 0..100),
    ) {
        a.sort_unstable(); a.dedup();
        b.sort_unstable(); b.dedup();
        let pa = PostingsList::from_sorted(&a);
        let pb = PostingsList::from_sorted(&b);
        use std::collections::BTreeSet;
        let sa: BTreeSet<u32> = a.iter().copied().collect();
        let sb: BTreeSet<u32> = b.iter().copied().collect();
        let want_and: Vec<u32> = sa.intersection(&sb).copied().collect();
        let want_or: Vec<u32> = sa.union(&sb).copied().collect();
        prop_assert_eq!(intersect(pa.iter(), pb.iter()), want_and);
        prop_assert_eq!(union(pa.iter(), pb.iter()), want_or);
    }

    // ---- text normalization -------------------------------------------

    #[test]
    fn stem_is_idempotent_on_ascii_words(word in "[a-z]{1,12}") {
        let once = stem(&word);
        prop_assert_eq!(stem(&once), once);
    }

    #[test]
    fn tokenize_offsets_are_valid_slices(text in ".{0,200}") {
        for t in tokenize(&text) {
            prop_assert!(t.start < t.end);
            prop_assert!(t.end <= text.len());
            prop_assert!(text.is_char_boundary(t.start));
            prop_assert!(text.is_char_boundary(t.end));
            prop_assert!(!t.text.is_empty());
        }
    }

    #[test]
    fn index_terms_never_contain_stopwords(text in "[a-zA-Z ]{0,120}") {
        for term in index_terms(&text) {
            prop_assert!(!is_stopword(&term), "term {term}");
        }
    }

    // The streaming analyser against its collecting wrappers, over text that
    // mixes ASCII words, joiners and arbitrary Unicode.

    #[test]
    fn tokenize_is_spans_plus_lowercase(text in "([a-zA-Z0-9 '-]|[ÉéİΣσς’—]|.){0,160}") {
        let tokens = tokenize(&text);
        let spans: Vec<_> = words(&text).collect();
        prop_assert_eq!(tokens.len(), spans.len());
        prop_assert_eq!(word_count(&text), tokens.len());
        let mut prev_end = 0;
        for (t, w) in tokens.iter().zip(&spans) {
            prop_assert!(prev_end <= w.start && w.start < w.end && w.end <= text.len());
            prop_assert!(text.is_char_boundary(w.start) && text.is_char_boundary(w.end));
            prev_end = w.end;
            prop_assert_eq!((t.start, t.end, t.capitalized), (w.start, w.end, w.capitalized));
            prop_assert_eq!(&t.text, &text[w.start..w.end].to_lowercase());
            prop_assert_eq!(t.capitalized, t.source(&text).chars().next().is_some_and(char::is_uppercase));
        }
    }

    #[test]
    fn index_terms_is_filter_map_over_tokenize(text in "([a-zA-Z0-9 '-]|[ÉéİΣσς’—]|.){0,160}") {
        let want: Vec<String> = tokenize(&text)
            .iter()
            .filter(|t| !is_stopword(&t.text))
            .map(|t| stem(&t.text))
            .collect();
        prop_assert_eq!(index_terms(&text), want);
    }

    // ---- partitioning --------------------------------------------------

    #[test]
    fn partition_counts_always_sum(total in 0usize..5000, weights in proptest::collection::vec(0.0f64..10.0, 1..12)) {
        let counts = partition_counts(total, &weights);
        prop_assert_eq!(counts.len(), weights.len());
        prop_assert_eq!(counts.iter().sum::<usize>(), total);
    }

    #[test]
    fn send_isend_recv_conserve_items(
        n in 0usize..2000,
        weights in proptest::collection::vec(0.01f64..1.0, 1..10),
        chunk in 1usize..200,
    ) {
        let items: Vec<usize> = (0..n).collect();
        for parts in [
            partition_send(items.clone(), &weights),
            partition_isend(items.clone(), &weights),
            partition_recv(items.clone(), chunk),
        ] {
            let mut all: Vec<usize> = parts.concat();
            all.sort_unstable();
            prop_assert_eq!(&all, &items);
        }
    }

    #[test]
    fn send_partitions_are_contiguous(n in 1usize..1000, weights in proptest::collection::vec(0.01f64..1.0, 1..8)) {
        let items: Vec<usize> = (0..n).collect();
        let parts = partition_send(items, &weights);
        let mut expect = 0usize;
        for p in parts {
            for v in p {
                prop_assert_eq!(v, expect);
                expect += 1;
            }
        }
    }

    #[test]
    fn recv_chunks_bounded_by_size(n in 0usize..2000, chunk in 1usize..100) {
        let items: Vec<usize> = (0..n).collect();
        for c in partition_recv(items, chunk) {
            // The last chunk may absorb a small remainder.
            prop_assert!(c.len() <= chunk + chunk / 2, "chunk of {} for size {}", c.len(), chunk);
            prop_assert!(!c.is_empty());
        }
    }

    // ---- chunk queue work conservation ---------------------------------

    #[test]
    fn chunk_queue_conserves_work_under_failures(
        n in 0usize..300,
        chunk in 1usize..40,
        fail_mask in proptest::collection::vec(any::<bool>(), 4),
    ) {
        let items: Vec<usize> = (0..n).collect();
        let mut queue = ChunkQueue::new(partition_recv(items, chunk));
        let workers: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut processed: Vec<usize> = Vec::new();
        let mut failed = [false; 4];
        let mut round = 0usize;
        while !queue.drained() {
            round += 1;
            prop_assert!(round < 10_000, "queue did not drain");
            let mut progressed = false;
            for (i, &w) in workers.iter().enumerate() {
                if failed[i] {
                    continue;
                }
                if let Some(c) = queue.pull(w) {
                    // Fail each worker at most once, mid-holding.
                    if fail_mask[i] && !failed[i] && round.is_multiple_of(3) && i != 0 {
                        failed[i] = true;
                        queue.fail(w);
                    } else {
                        processed.extend(c);
                        queue.complete_one(w);
                    }
                    progressed = true;
                }
            }
            prop_assert!(progressed || queue.drained(), "live-lock");
        }
        processed.sort_unstable();
        processed.dedup();
        prop_assert_eq!(processed.len(), n, "lost or duplicated items");
    }

    // ---- answer merging -------------------------------------------------

    #[test]
    fn merge_is_permutation_invariant(
        scores in proptest::collection::vec(0.0f64..100.0, 0..40),
        keep in 1usize..10,
        split in 1usize..5,
    ) {
        let answers: Vec<Answer> = scores
            .iter()
            .enumerate()
            .map(|(i, &s)| Answer {
                paragraph: ParagraphId::new(DocId::new(i as u32), 0),
                candidate: format!("c{i}"),
                text: String::new(),
                score: s,
            })
            .collect();
        // Global ranking.
        let global = RankedAnswers::from_unsorted(answers.clone(), keep);
        // Partitioned: split into `split` parts, rank locally, merge.
        let parts: Vec<RankedAnswers> = answers
            .chunks(answers.len().max(1).div_ceil(split))
            .map(|c| RankedAnswers::from_unsorted(c.to_vec(), keep))
            .collect();
        let merged = RankedAnswers::merge(parts, keep);
        prop_assert_eq!(global, merged, "partitioned merge changed the ranking");
    }
}

// Overload invariants run real threads (gate) or a full DES (simulator),
// so they get a reduced case count.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- admission gate --------------------------------------------------

    #[test]
    fn admission_gate_bounds_queue_and_conserves_arrivals(
        cap in 1usize..4,
        queue in 0usize..4,
        jobs in 1usize..16,
        hold_us in 0u64..300,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let policy = OverloadPolicy::server(cap).with_queue(queue);
        let gate = AdmissionGate::new(&policy);
        let admitted = AtomicUsize::new(0);
        let rejected = AtomicUsize::new(0);
        let peak_in_flight = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..jobs {
                s.spawn(|| {
                    // A generous backstop deadline: with sub-millisecond
                    // holds no waiter should ever hit it.
                    match gate.admit(Some(Instant::now() + Duration::from_secs(10))) {
                        GateDecision::Admitted => {
                            peak_in_flight.fetch_max(gate.in_flight(), Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(hold_us));
                            admitted.fetch_add(1, Ordering::Relaxed);
                            gate.release();
                        }
                        GateDecision::Rejected => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        GateDecision::ShuttingDown => {}
                    }
                });
            }
        });
        // Nothing is silently dropped: every arrival was admitted or
        // rejected (the gate never drains here), ...
        prop_assert_eq!(
            admitted.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
            jobs,
            "an offered arrival vanished"
        );
        // ... the waiting room never exceeded its configured depth, ...
        prop_assert!(gate.peak_waiting() <= queue, "queue depth exceeded");
        // ... the in-flight cap held, and the gate returned to empty.
        prop_assert!(peak_in_flight.load(Ordering::Relaxed) <= cap, "in-flight cap exceeded");
        prop_assert_eq!(gate.in_flight(), 0);
        prop_assert_eq!(gate.waiting(), 0);
    }

    #[test]
    fn draining_gate_never_strands_a_waiter(
        cap in 1usize..3,
        extra in 1usize..6,
    ) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::time::{Duration, Instant};
        let gate = AdmissionGate::new(&OverloadPolicy::server(cap));
        for _ in 0..cap {
            prop_assert_eq!(gate.admit(None), GateDecision::Admitted);
        }
        let shutdown = AtomicUsize::new(0);
        let rejected = AtomicUsize::new(0);
        // `server(cap)` queues up to `cap` more; the rest reject at once.
        let expect_waiting = extra.min(cap);
        std::thread::scope(|s| {
            for _ in 0..extra {
                s.spawn(|| {
                    match gate.admit(Some(Instant::now() + Duration::from_secs(10))) {
                        GateDecision::ShuttingDown => {
                            shutdown.fetch_add(1, Ordering::Relaxed);
                        }
                        GateDecision::Rejected => {
                            rejected.fetch_add(1, Ordering::Relaxed);
                        }
                        GateDecision::Admitted => gate.release(),
                    }
                });
            }
            while gate.waiting() < expect_waiting {
                std::thread::yield_now();
            }
            gate.drain();
        });
        // Every queued waiter was woken with a deterministic verdict
        // instead of being stranded behind the held slots.
        prop_assert_eq!(
            shutdown.load(Ordering::Relaxed) + rejected.load(Ordering::Relaxed),
            extra,
            "a waiter was stranded by drain"
        );
        prop_assert_eq!(gate.waiting(), 0);
        prop_assert_eq!(gate.admit(None), GateDecision::ShuttingDown);
    }

    // ---- simulator admission mirror -------------------------------------

    #[test]
    fn sim_admission_conserves_every_offered_question(
        cap in 0usize..5,
        queue in 0usize..5,
        questions in 1usize..10,
        nodes in 2usize..5,
        seed in 0u64..500,
        deadline in proptest::option::of(5.0f64..400.0),
    ) {
        let mut overload = OverloadPolicy::server(cap).with_queue(queue);
        if let Some(d) = deadline {
            overload = overload.with_deadline(d);
        }
        let cfg = SimConfig {
            questions,
            arrival_spacing: (0.0, 1.0),
            overload,
            ..SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, seed)
        };
        let report = QaSimulation::new(cfg).run();
        let counts = report.outcome_counts();
        prop_assert_eq!(report.questions.len(), questions, "a question record is missing");
        prop_assert_eq!(counts.offered(), questions, "an offered question vanished");
        if cap == 0 {
            prop_assert_eq!(counts.rejected, questions, "zero capacity must reject everything");
        }
    }
}
