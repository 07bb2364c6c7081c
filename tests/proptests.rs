//! Property-based tests of cross-crate invariants.

use falcon_dqa::cluster_sim::{BalancingStrategy, QaSimulation, SimConfig};
use falcon_dqa::dqa_runtime::{AdmissionGate, GateDecision};
use falcon_dqa::ir_engine::postings::PostingsList;
use falcon_dqa::ir_engine::terms::index_terms;
use falcon_dqa::nlp::analyze::words;
use falcon_dqa::nlp::stem::stem;
use falcon_dqa::nlp::stopwords::is_stopword;
use falcon_dqa::nlp::tokenize::{tokenize, word_count};
use falcon_dqa::qa_types::rng::{cases, Rng};
use falcon_dqa::qa_types::{Answer, DocId, NodeId, OverloadPolicy, ParagraphId, RankedAnswers};
use falcon_dqa::scheduler::partition::{
    partition_counts, partition_isend, partition_recv, partition_send,
};
use falcon_dqa::scheduler::recovery::ChunkQueue;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// `len` characters drawn from `alphabet`.
fn text_of(rng: &mut Rng, len: std::ops::RangeInclusive<u64>, alphabet: &[char]) -> String {
    rng.vec(len, |r| alphabet[r.below(alphabet.len())])
        .into_iter()
        .collect()
}

fn weights(rng: &mut Rng, len: std::ops::RangeInclusive<u64>, lo: f64, hi: f64) -> Vec<f64> {
    rng.vec(len, |r| r.uniform(lo..hi))
}

// ---- postings ----------------------------------------------------

#[test]
fn postings_round_trip() {
    cases(0xfa1c_0001, 256, |rng| {
        let mut ids = rng.vec(0..=299, |r| r.below(1_000_000) as u32);
        ids.sort_unstable();
        ids.dedup();
        let p = PostingsList::from_sorted(&ids);
        assert_eq!(p.to_vec(), ids);
    });
}

// ---- text normalization -------------------------------------------

#[test]
fn stem_is_idempotent_on_ascii_words() {
    let lower: Vec<char> = ('a'..='z').collect();
    cases(0xfa1c_0002, 256, |rng| {
        let word = text_of(rng, 1..=12, &lower);
        let once = stem(&word);
        assert_eq!(stem(&once), once, "stem({word:?})");
    });
}

#[test]
fn index_terms_never_contain_stopwords() {
    let letters: Vec<char> = ('a'..='z').chain('A'..='Z').chain([' ']).collect();
    cases(0xfa1c_0004, 256, |rng| {
        for term in index_terms(&text_of(rng, 0..=120, &letters)) {
            assert!(!is_stopword(&term), "term {term}");
        }
    });
}

// The streaming analyser against its collecting wrappers, over text that
// mixes ASCII words, joiners and arbitrary Unicode. The first also holds
// what `tokenize_offsets_are_valid_slices` asserted, on the same draws.

#[test]
fn tokenize_is_spans_plus_lowercase() {
    cases(0xfa1c_0005, 256, |rng| {
        let text = rng.text(0..=200);
        let tokens = tokenize(&text);
        let spans: Vec<_> = words(&text).collect();
        assert_eq!(tokens.len(), spans.len());
        assert_eq!(word_count(&text), tokens.len());
        let mut prev_end = 0;
        for (t, w) in tokens.iter().zip(&spans) {
            assert!(prev_end <= w.start && w.start < w.end && w.end <= text.len());
            assert!(text.is_char_boundary(w.start) && text.is_char_boundary(w.end));
            prev_end = w.end;
            assert_eq!(
                (t.start, t.end, t.capitalized),
                (w.start, w.end, w.capitalized)
            );
            assert!(!t.text.is_empty());
            assert_eq!(&t.text, &text[w.start..w.end].to_lowercase());
            let first = text[t.start..t.end].chars().next();
            assert_eq!(t.capitalized, first.is_some_and(char::is_uppercase));
        }
    });
}

#[test]
fn index_terms_is_filter_map_over_tokenize() {
    cases(0xfa1c_0006, 256, |rng| {
        let text = rng.text(0..=160);
        let want: Vec<String> = tokenize(&text)
            .iter()
            .filter(|t| !is_stopword(&t.text))
            .map(|t| stem(&t.text))
            .collect();
        assert_eq!(index_terms(&text), want, "{text:?}");
    });
}

// ---- partitioning --------------------------------------------------

#[test]
fn partition_counts_always_sum() {
    cases(0xfa1c_0007, 256, |rng| {
        let total = rng.below(5000);
        let weights = weights(rng, 1..=11, 0.0, 10.0);
        let counts = partition_counts(total, &weights);
        assert_eq!(counts.len(), weights.len());
        assert_eq!(counts.iter().sum::<usize>(), total);
    });
}

#[test]
fn send_isend_recv_conserve_items() {
    cases(0xfa1c_0008, 256, |rng| {
        let items: Vec<usize> = (0..rng.below(2000)).collect();
        let weights = weights(rng, 1..=9, 0.01, 1.0);
        let chunk = rng.range(1..=199) as usize;
        for parts in [
            partition_send(items.clone(), &weights),
            partition_isend(items.clone(), &weights),
            partition_recv(items.clone(), chunk),
        ] {
            let mut all: Vec<usize> = parts.concat();
            all.sort_unstable();
            assert_eq!(&all, &items);
        }
    });
}

#[test]
fn send_partitions_are_contiguous() {
    cases(0xfa1c_0009, 256, |rng| {
        let items: Vec<usize> = (0..rng.range(1..=999) as usize).collect();
        let parts = partition_send(items, &weights(rng, 1..=7, 0.01, 1.0));
        let mut expect = 0usize;
        for p in parts {
            for v in p {
                assert_eq!(v, expect);
                expect += 1;
            }
        }
    });
}

#[test]
fn recv_chunks_bounded_by_size() {
    cases(0xfa1c_000a, 256, |rng| {
        let items: Vec<usize> = (0..rng.below(2000)).collect();
        let chunk = rng.range(1..=99) as usize;
        for c in partition_recv(items, chunk) {
            // The last chunk may absorb a small remainder.
            assert!(
                c.len() <= chunk + chunk / 2,
                "chunk of {} for size {chunk}",
                c.len()
            );
            assert!(!c.is_empty());
        }
    });
}

// ---- chunk queue work conservation ---------------------------------

#[test]
fn chunk_queue_conserves_work_under_failures() {
    cases(0xfa1c_000b, 256, |rng| {
        let n = rng.below(300);
        let chunk = rng.range(1..=39) as usize;
        let fail_mask: [bool; 4] = std::array::from_fn(|_| rng.bool(0.5));
        let items: Vec<usize> = (0..n).collect();
        let mut queue = ChunkQueue::new(partition_recv(items, chunk));
        let workers: Vec<NodeId> = (0..4).map(NodeId::new).collect();
        let mut processed: Vec<usize> = Vec::new();
        let mut failed = [false; 4];
        let mut round = 0usize;
        while !queue.drained() {
            round += 1;
            assert!(round < 10_000, "queue did not drain");
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
            assert!(progressed || queue.drained(), "live-lock");
        }
        processed.sort_unstable();
        processed.dedup();
        assert_eq!(processed.len(), n, "lost or duplicated items");
    });
}

// ---- answer merging -------------------------------------------------

#[test]
fn merge_is_permutation_invariant() {
    cases(0xfa1c_000c, 256, |rng| {
        let scores = weights(rng, 0..=39, 0.0, 100.0);
        let keep = rng.range(1..=9) as usize;
        let split = rng.range(1..=4) as usize;
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
        assert_eq!(global, merged, "partitioned merge changed the ranking");
    });
}

// Overload invariants run real threads (gate) or a full DES (simulator),
// so they get a reduced case count.

// ---- admission gate --------------------------------------------------

/// `arrivals` threads offer themselves to `gate` at once — behind a 10 s
/// backstop deadline no waiter should ever hit — and hold an admitted slot
/// for `hold`, while `meanwhile` runs beside them. Returns how many were
/// admitted, rejected and turned away by shutdown, and the most in flight.
fn offer(
    gate: &AdmissionGate,
    arrivals: usize,
    hold: Duration,
    meanwhile: impl FnOnce(),
) -> ([usize; 3], usize) {
    let tally = [const { AtomicUsize::new(0) }; 3];
    let peak_in_flight = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..arrivals {
            s.spawn(|| {
                let decision = gate.admit(Some(Instant::now() + Duration::from_secs(10)));
                if decision == GateDecision::Admitted {
                    peak_in_flight.fetch_max(gate.in_flight(), Ordering::Relaxed);
                    std::thread::sleep(hold);
                    gate.release();
                }
                let slot = match decision {
                    GateDecision::Admitted => 0,
                    GateDecision::Rejected => 1,
                    GateDecision::ShuttingDown => 2,
                };
                tally[slot].fetch_add(1, Ordering::Relaxed);
            });
        }
        meanwhile();
    });
    (
        tally.map(AtomicUsize::into_inner),
        peak_in_flight.into_inner(),
    )
}

#[test]
fn admission_gate_bounds_queue_and_conserves_arrivals() {
    cases(0xfa1c_000d, 48, |rng| {
        let (cap, queue) = (rng.range(1..=3) as usize, rng.below(4));
        let jobs = rng.range(1..=15) as usize;
        let hold = Duration::from_micros(rng.range(0..=299));
        let gate = AdmissionGate::new(&OverloadPolicy::server(cap).with_queue(queue));
        let ([admitted, rejected, _], peak_in_flight) = offer(&gate, jobs, hold, || ());
        // Nothing is silently dropped: every arrival was admitted or
        // rejected (the gate never drains here), ...
        assert_eq!(admitted + rejected, jobs, "an offered arrival vanished");
        // ... the waiting room never exceeded its configured depth, ...
        assert!(gate.peak_waiting() <= queue, "queue depth exceeded");
        // ... the in-flight cap held, and the gate returned to empty.
        assert!(peak_in_flight <= cap, "in-flight cap exceeded");
        assert_eq!((gate.in_flight(), gate.waiting()), (0, 0));
    });
}

#[test]
fn draining_gate_never_strands_a_waiter() {
    cases(0xfa1c_000e, 48, |rng| {
        let cap = rng.range(1..=2) as usize;
        let extra = rng.range(1..=5) as usize;
        let gate = AdmissionGate::new(&OverloadPolicy::server(cap));
        for _ in 0..cap {
            assert_eq!(gate.admit(None), GateDecision::Admitted);
        }
        // `server(cap)` queues up to `cap` more; the rest reject at once.
        let ([_, rejected, shutdown], _) = offer(&gate, extra, Duration::ZERO, || {
            while gate.waiting() < extra.min(cap) {
                std::thread::yield_now();
            }
            gate.drain();
        });
        // Every queued waiter was woken with a deterministic verdict
        // instead of being stranded behind the held slots.
        assert_eq!(shutdown + rejected, extra, "a waiter was stranded by drain");
        assert_eq!(gate.waiting(), 0);
        assert_eq!(gate.admit(None), GateDecision::ShuttingDown);
    });
}

// ---- simulator admission mirror -------------------------------------

#[test]
fn sim_admission_conserves_every_offered_question() {
    cases(0xfa1c_000f, 48, |rng| {
        let cap = rng.below(5);
        let queue = rng.below(5);
        let questions = rng.range(1..=9) as usize;
        let nodes = rng.range(2..=4) as usize;
        let seed = rng.below(500) as u64;
        let mut overload = OverloadPolicy::server(cap).with_queue(queue);
        if rng.bool(0.5) {
            overload = overload.with_deadline(rng.uniform(5.0..400.0));
        }
        let cfg = SimConfig {
            questions,
            arrival_spacing: (0.0, 1.0),
            overload,
            ..SimConfig::paper_high_load(nodes, BalancingStrategy::Dqa, seed)
        };
        let report = QaSimulation::new(cfg).run();
        let counts = report.outcome_counts();
        assert_eq!(
            report.questions.len(),
            questions,
            "a question record is missing"
        );
        assert_eq!(counts.offered(), questions, "an offered question vanished");
        if cap == 0 {
            assert_eq!(
                counts.rejected, questions,
                "zero capacity must reject everything"
            );
        }
    });
}
