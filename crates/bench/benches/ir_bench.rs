//! Criterion benches of the IR substrate: index construction, Boolean
//! evaluation, match counting and quorum relaxation, postings codec, full
//! paragraph retrieval.

use bench::fixtures::QaFixture;
use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use ir_engine::query::{match_counts, quorum, BooleanQuery};
use ir_engine::terms::QueryTerms;
use ir_engine::{decode_index_v2, encode_index_v2, ShardedIndex};
use nlp::QuestionProcessor;
use qa_types::SubCollectionId;
use std::hint::black_box;

fn bench_ir(c: &mut Criterion) {
    let f = QaFixture::small(77, 8);
    let shard = f.index.shard(SubCollectionId::new(0)).unwrap();
    let qp = QuestionProcessor::new();
    let processed = qp.process(&f.questions[0].question).unwrap();
    let terms: Vec<String> = processed.keywords.iter().map(|k| k.term.clone()).collect();

    c.bench_function("ir/index_build", |b| {
        b.iter(|| {
            black_box(ShardedIndex::build(
                black_box(&f.corpus.documents),
                f.corpus.config.sub_collections,
            ))
        })
    });

    c.bench_function("ir/boolean_and", |b| {
        let q = BooleanQuery::all_of(terms.clone());
        b.iter(|| black_box(q.eval(black_box(shard))))
    });

    c.bench_function("ir/quorum", |b| {
        b.iter(|| black_box(quorum(black_box(shard), &terms, 2)))
    });

    c.bench_function("ir/match_counts", |b| {
        let query = QueryTerms::new(terms.iter().map(String::as_str));
        b.iter(|| black_box(match_counts(black_box(shard), &query)))
    });

    c.bench_function("ir/persist_round_trip", |b| {
        b.iter_batched(
            || encode_index_v2(&f.index),
            |bytes| black_box(decode_index_v2(&bytes).unwrap()),
            BatchSize::SmallInput,
        )
    });

    c.bench_function("ir/retrieve_all_shards", |b| {
        let retriever = f.retriever();
        b.iter(|| black_box(retriever.retrieve_all(&processed.keywords)))
    });
}

criterion_group!(benches, bench_ir);
criterion_main!(benches);
