//! Robustness property tests: the NLP substrate must never panic on
//! arbitrary input and must stay self-consistent.

use nlp::gazetteer::Gazetteers;
use nlp::{NamedEntityRecognizer, QuestionProcessor};
use qa_types::rng::cases;
use qa_types::{Question, QuestionId};

#[test]
fn ner_never_panics_and_mentions_are_well_formed() {
    let ner = NamedEntityRecognizer::standard();
    cases(0x41e5_0001, 96, |rng| {
        let text = rng.text(0..=300);
        let mentions = ner.recognize(&text);
        for m in &mentions {
            assert!(m.start < m.end);
            assert!(m.end <= text.len());
            assert!(text.is_char_boundary(m.start) && text.is_char_boundary(m.end));
            assert_eq!(&text[m.start..m.end], m.text.as_str());
        }
        for w in mentions.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping mentions in {text:?}");
        }
    });
}

#[test]
fn qp_never_panics() {
    let qp = QuestionProcessor::new();
    cases(0x41e5_0002, 96, |rng| {
        let q = Question::new(QuestionId::new(1), rng.text(0..=200));
        if let Ok(p) = qp.process(&q) {
            assert!(!p.keywords.is_empty());
            assert!(p.keywords.len() <= 8);
            for w in p.keywords.windows(2) {
                assert!(w[0].weight >= w[1].weight, "keywords not weight-sorted");
            }
        }
    });
}

#[test]
fn planted_entities_always_recognized() {
    // Any gazetteer entity embedded in plain text must be found with
    // the right type — the contract the corpus generator relies on.
    let g = Gazetteers::standard();
    let ner = NamedEntityRecognizer::standard();
    let types: Vec<_> = g.listed_types().collect();
    cases(0x41e5_0003, 96, |rng| {
        let idx = rng.below(500);
        let ty = types[idx % types.len()];
        let list = g.entities(ty);
        let entity = &list[idx % list.len()];
        let text = format!("Yesterday the group saw {entity} during the visit.");
        let found = ner
            .recognize(&text)
            .into_iter()
            .any(|m| m.text == *entity && m.entity_type == ty);
        assert!(found, "missed {entity} ({ty})");
    });
}
