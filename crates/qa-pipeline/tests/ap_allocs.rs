//! An allocation gate for PS and AP that does not depend on the clock.
//!
//! Both stages read a paragraph through buffers the batch keeps, so the
//! blocks a call allocates must not grow with the paragraphs it is given:
//! AP's buffers, its candidate map and the few answers that leave it; PS's
//! scratch and its output `Vec`. A `String` per token, per mention or per
//! candidate shows up here as tens of blocks a paragraph.

use corpus::{Corpus, CorpusConfig, QuestionGenerator};
use nlp::{NamedEntityRecognizer, QuestionProcessor};
use qa_pipeline::{extract_answers, score_paragraphs, ApItem, PipelineConfig};
use qa_types::Paragraph;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator, counting the blocks each thread asks for.
struct Counting;

thread_local! {
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// `const`-initialised thread-local `Cell` without a destructor, so touching
// it allocates nothing and is sound at any point of a thread's life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BLOCKS.with(|b| b.set(b.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Blocks this thread allocated (or grew) while `f` ran.
fn blocks<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = BLOCKS.with(Cell::get);
    let out = f();
    (out, BLOCKS.with(Cell::get) - before)
}

#[test]
fn ps_and_ap_allocate_per_batch_not_per_paragraph() {
    let c = Corpus::generate(CorpusConfig::small(57)).unwrap();
    let mut paragraphs: Vec<Paragraph> =
        (c.documents.iter().flat_map(|d| d.iter_paragraphs())).collect();
    paragraphs.extend_from_within(..);
    assert!(paragraphs.len() >= 300, "only {}", paragraphs.len());
    let ner = NamedEntityRecognizer::standard();
    let cfg = PipelineConfig::default();
    let qp = QuestionProcessor::new();

    let (mut answers, mut candidates) = (0, 0);
    for gq in QuestionGenerator::new(&c, 13).generate(6) {
        let q = qp.process(&gq.question).unwrap();

        // PS: its scratch (sorted keywords, two small vectors, the
        // analyser's buffer growing to the longest word) and the output.
        let input = paragraphs.clone();
        let (scored, ps_blocks) = blocks(|| score_paragraphs(input, &q.keywords));
        assert_eq!(scored.len(), paragraphs.len());
        assert!(ps_blocks <= 12, "PS allocated {ps_blocks} blocks");

        let items: Vec<ApItem> = (scored.into_iter())
            .map(|s| ApItem {
                paragraph: s.paragraph,
                rank: s.score,
            })
            .collect();
        // One warm-up call, so that nothing lazily built is counted.
        let warm = extract_answers(&items, &q, &ner, &cfg);
        let (got, ap_blocks) = blocks(|| extract_answers(&items, &q, &ner, &cfg));
        assert_eq!(got, warm);
        assert!(
            ap_blocks < items.len() as u64,
            "AP allocated {ap_blocks} blocks over {} paragraphs",
            items.len()
        );
        answers += got.len();
        candidates += usize::from(!got.is_empty());
    }
    assert!(candidates >= 4 && answers >= 8, "the batches found answers");
}
