//! Criterion benches of the NLP substrate: the streaming analyser,
//! tokenization, stemming, NER, question classification.

use bench::fixtures::QaFixture;
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use nlp::stem::stem;
use nlp::tokenize::tokenize;
use nlp::{Analyzer, NamedEntityRecognizer, QuestionProcessor};
use std::hint::black_box;

fn bench_nlp(c: &mut Criterion) {
    let f = QaFixture::small(99, 4);
    let paragraph = f.corpus.documents[0].paragraphs[0].clone();
    let ner = NamedEntityRecognizer::standard();
    let qp = QuestionProcessor::new();
    let q = &f.questions[0].question;

    // The text shape of perf_gate's `ir-engine.terms_us_per_kb` probe (the
    // first 2000 paragraphs of the corpus), streamed instead of collected.
    let paragraphs: Vec<&str> = f
        .corpus
        .documents
        .iter()
        .flat_map(|d| d.paragraphs.iter().map(String::as_str))
        .take(2000)
        .collect();
    let bytes: usize = paragraphs.iter().map(|p| p.len()).sum();
    let mut per_kb = c.benchmark_group("analyze");
    per_kb.throughput(Throughput::Bytes(bytes as u64));
    per_kb.bench_function("terms_per_kb", |b| {
        let mut analyzer = Analyzer::default();
        b.iter(|| {
            let mut n = 0usize;
            for p in &paragraphs {
                let mut terms = analyzer.terms(black_box(p));
                while let Some(t) = terms.next_term() {
                    n += t.len();
                }
            }
            black_box(n)
        })
    });
    per_kb.finish();

    c.bench_function("nlp/tokenize_paragraph", |b| {
        b.iter(|| black_box(tokenize(black_box(&paragraph))))
    });

    c.bench_function("nlp/stem_word", |b| {
        b.iter(|| black_box(stem(black_box("categorizations"))))
    });

    c.bench_function("nlp/ner_paragraph", |b| {
        b.iter(|| black_box(ner.recognize(black_box(&paragraph))))
    });

    c.bench_function("nlp/question_processing", |b| {
        b.iter(|| black_box(qp.process(black_box(q)).unwrap()))
    });
}

criterion_group!(benches, bench_nlp);
criterion_main!(benches);
