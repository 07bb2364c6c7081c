//! Paragraph Scoring (PS): three surface-text heuristics.
//!
//! Per the paper (§2.1), PS "assigns a rank to each paragraph provided by
//! the PR module using three surface-text heuristics. The heuristics
//! estimate the relevance of each paragraph based on the number of keywords
//! present in the paragraph and the inter-keyword distance" — the LASSO
//! heuristics. Our three:
//!
//! 1. **coverage** — fraction of distinct question keywords present;
//! 2. **density** — keyword occurrences relative to paragraph length;
//! 3. **proximity** — inverse length of the smallest token window that
//!    contains every present keyword.

use ir_engine::terms::QueryTerms;
use ir_engine::DocumentStore;
use nlp::analyze::FirstBytes;
use nlp::Analyzer;
use qa_types::wire::{put_u32, put_u64, Reader};
use qa_types::{DocId, Keyword, Paragraph, ParagraphId, QaError};

/// A paragraph plus its PS rank.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredParagraph {
    /// The scored paragraph.
    pub paragraph: Paragraph,
    /// Combined heuristic score in `[0, 1]`-ish range (weighted sum of three
    /// components each in `[0, 1]`).
    pub score: f64,
}

/// One encoded reference: document, ordinal, score bits.
const REF_BYTES: usize = 4 + 4 + 8;

impl ScoredParagraph {
    /// Encode `scored` *by reference* — a count, then `doc u32 · ordinal
    /// u32 · score bits u64` per paragraph ([`qa_types::wire`]) — which is
    /// what the journal keeps of a PR chunk: the text stays in the
    /// collection, where a successor coordinator already has it.
    pub fn encode_refs(scored: &[ScoredParagraph]) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + scored.len() * REF_BYTES);
        put_u32(&mut out, scored.len() as u32);
        for s in scored {
            put_u32(&mut out, s.paragraph.id.doc.raw());
            put_u32(&mut out, s.paragraph.id.ordinal);
            put_u64(&mut out, s.score.to_bits());
        }
        out
    }

    /// Decode [`ScoredParagraph::encode_refs`] bytes, re-materialising each
    /// paragraph from `store` — the collection the references were taken
    /// over. Malformed bytes and a reference the store cannot resolve are
    /// both errors: a caller re-runs the chunk rather than answer from part
    /// of it.
    pub fn decode_refs(
        bytes: &[u8],
        store: &DocumentStore,
    ) -> Result<Vec<ScoredParagraph>, QaError> {
        let mut r = Reader::new(bytes);
        let n = r.count(REF_BYTES)?;
        let mut scored = Vec::with_capacity(n);
        for _ in 0..n {
            let id = ParagraphId::new(DocId::new(r.u32()?), r.u32()?);
            let score = f64::from_bits(r.u64()?);
            let paragraph = store
                .paragraph(id)
                .ok_or_else(|| QaError::Codec(format!("paragraph {id} is not in the store")))?;
            scored.push(ScoredParagraph { paragraph, score });
        }
        r.finish()?;
        Ok(scored)
    }
}

/// Weights of the three PS heuristics (sum to 1).
const W_COVERAGE: f64 = 0.5;
const W_DENSITY: f64 = 0.2;
const W_PROXIMITY: f64 = 0.3;

/// Score one paragraph against the question keywords.
pub fn score_paragraph(paragraph: &Paragraph, keywords: &[Keyword]) -> f64 {
    Scorer::new(keywords).score(&paragraph.text)
}

/// The keyword set and the scratch PS reuses from paragraph to paragraph.
struct Scorer<'a> {
    query: QueryTerms<'a>,
    /// The prefilter: a term that starts like no keyword is counted, not
    /// stemmed and searched for.
    first: FirstBytes,
    analyzer: Analyzer,
    /// `(term position, keyword)` for every keyword occurrence, in text order.
    hits: Vec<(usize, usize)>,
    /// Occurrences of each keyword inside the sweep's current window.
    in_window: Vec<usize>,
}

impl<'a> Scorer<'a> {
    fn new(keywords: &'a [Keyword]) -> Self {
        let query = QueryTerms::new(keywords.iter().map(|k| k.term.as_str()));
        Self {
            in_window: vec![0; query.len()],
            first: FirstBytes::of(keywords.iter().map(|k| k.term.as_str())),
            query,
            analyzer: Analyzer::default(),
            hits: Vec::new(),
        }
    }

    fn score(&mut self, text: &str) -> f64 {
        self.hits.clear();
        let mut terms = self.analyzer.terms(text);
        while let Some((at, term)) = terms.next_match(&self.first) {
            if let Some(k) = self.query.position(term) {
                self.hits.push((at, k));
            }
        }
        let n_terms = terms.seen();
        if self.hits.is_empty() {
            return 0.0;
        }

        let (present, window) = smallest_window(&self.hits, &mut self.in_window);
        let coverage = present as f64 / self.query.len() as f64;
        let density = (self.hits.len() as f64 / n_terms as f64).min(1.0);
        let proximity = match window {
            Some(w) => (present as f64 / w as f64).min(1.0),
            None => 0.5, // single keyword: neutral proximity
        };

        W_COVERAGE * coverage + W_DENSITY * density + W_PROXIMITY * proximity
    }
}

/// How many distinct keywords `hits` (sorted by position) mention, and the
/// size (in terms, inclusive) of the smallest window containing at least one
/// occurrence of each of them — `None` when fewer than two are present.
/// `counts` is per-keyword scratch.
fn smallest_window(hits: &[(usize, usize)], counts: &mut [usize]) -> (usize, Option<usize>) {
    counts.fill(0);
    let mut wanted = 0usize;
    for &(_, k) in hits {
        wanted += usize::from(counts[k] == 0);
        counts[k] += 1;
    }
    if wanted < 2 {
        return (wanted, None);
    }

    // Classic minimum covering window sweep.
    counts.fill(0);
    let mut have = 0usize;
    let mut best: Option<usize> = None;
    let mut lo = 0usize;
    for &(hi_pos, k) in hits {
        have += usize::from(counts[k] == 0);
        counts[k] += 1;
        while have == wanted {
            let (lo_pos, lo_k) = hits[lo];
            let width = hi_pos - lo_pos + 1;
            best = Some(best.map_or(width, |b| b.min(width)));
            counts[lo_k] -= 1;
            have -= usize::from(counts[lo_k] == 0);
            lo += 1;
        }
    }
    (wanted, best)
}

/// Score a batch of paragraphs (the PS module proper). Order is preserved —
/// ordering is PO's job.
pub fn score_paragraphs(paragraphs: Vec<Paragraph>, keywords: &[Keyword]) -> Vec<ScoredParagraph> {
    let mut scorer = Scorer::new(keywords);
    paragraphs
        .into_iter()
        .map(|p| {
            let score = scorer.score(&p.text);
            ScoredParagraph {
                paragraph: p,
                score,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusConfig, QuestionGenerator};
    use qa_types::SubCollectionId;
    use std::collections::BTreeSet;

    fn para(text: &str) -> Paragraph {
        Paragraph {
            id: ParagraphId::new(DocId::new(0), 0),
            sub_collection: SubCollectionId::new(0),
            text: text.to_string(),
        }
    }

    fn kws(terms: &[&str]) -> Vec<Keyword> {
        terms.iter().map(|t| Keyword::new(*t, 1.0)).collect()
    }

    #[test]
    fn full_coverage_beats_partial() {
        let k = kws(&["alpha", "beta", "gamma"]);
        let all = score_paragraph(&para("alpha beta gamma together"), &k);
        let two = score_paragraph(&para("alpha beta filler filler"), &k);
        let one = score_paragraph(&para("alpha filler filler filler"), &k);
        assert!(all > two, "{all} vs {two}");
        assert!(two > one, "{two} vs {one}");
    }

    #[test]
    fn tight_windows_beat_spread_keywords() {
        let k = kws(&["alpha", "beta"]);
        let tight = score_paragraph(&para("alpha beta filler filler filler filler"), &k);
        let spread = score_paragraph(&para("alpha filler filler filler filler beta"), &k);
        assert!(tight > spread, "{tight} vs {spread}");
    }

    #[test]
    fn no_keywords_scores_zero() {
        assert_eq!(score_paragraph(&para("some text here"), &[]), 0.0);
        let k = kws(&["missing"]);
        assert_eq!(
            score_paragraph(&para("completely unrelated words"), &k),
            0.0
        );
    }

    #[test]
    fn empty_paragraph_scores_zero() {
        let k = kws(&["alpha"]);
        assert_eq!(score_paragraph(&para(""), &k), 0.0);
        assert_eq!(score_paragraph(&para("the of and"), &k), 0.0);
    }

    #[test]
    fn score_is_bounded() {
        let k = kws(&["alpha", "beta"]);
        for text in [
            "alpha beta",
            "alpha alpha alpha beta beta beta",
            "alpha",
            "alpha beta alpha beta alpha beta alpha beta",
        ] {
            let s = score_paragraph(&para(text), &k);
            assert!((0.0..=1.0).contains(&s), "{text} -> {s}");
        }
    }

    #[test]
    fn smallest_window_sweep() {
        let mut counts = vec![7; 2]; // scratch may arrive dirty
                                     // keyword 0 at {0, 9}, keyword 1 at {5}: best window is 5..=9 -> 5.
        let hits = [(0, 0), (5, 1), (9, 0)];
        assert_eq!(smallest_window(&hits, &mut counts), (2, Some(5)));
        // Single present keyword -> None.
        assert_eq!(smallest_window(&[(3, 0), (8, 0)], &mut counts), (1, None));
        // Adjacent keywords -> window 2.
        assert_eq!(
            smallest_window(&[(4, 0), (5, 1)], &mut counts),
            (2, Some(2))
        );
    }

    /// PS from collected terms and sets, with the covering window found by
    /// trying every pair of keyword occurrences.
    fn score_oracle(text: &str, keywords: &[Keyword]) -> f64 {
        let terms = ir_engine::terms::index_terms(text);
        let distinct: BTreeSet<&str> = keywords.iter().map(|k| k.term.as_str()).collect();
        let hits: Vec<(usize, &str)> = (terms.iter().map(String::as_str).enumerate())
            .filter(|(_, t)| distinct.contains(t))
            .collect();
        let present: BTreeSet<&str> = hits.iter().map(|h| h.1).collect();
        if present.is_empty() {
            return 0.0;
        }
        let window = (0..hits.len())
            .flat_map(|lo| (lo..hits.len()).map(move |hi| (lo, hi)))
            .filter(|&(lo, hi)| {
                hits[lo..=hi].iter().map(|h| h.1).collect::<BTreeSet<_>>() == present
            })
            .map(|(lo, hi)| hits[hi].0 - hits[lo].0 + 1)
            .min()
            .expect("the whole hit list covers every present keyword");
        let proximity = match present.len() {
            1 => 0.5,
            n => (n as f64 / window as f64).min(1.0),
        };
        W_COVERAGE * (present.len() as f64 / distinct.len() as f64)
            + W_DENSITY * (hits.len() as f64 / terms.len() as f64).min(1.0)
            + W_PROXIMITY * proximity
    }

    #[test]
    fn streamed_scores_are_bit_equal_to_the_oracle() {
        let c = Corpus::generate(CorpusConfig::small(55)).unwrap();
        let qp = nlp::QuestionProcessor::new();
        let paragraphs: Vec<Paragraph> = (c.documents.iter().step_by(7))
            .flat_map(|d| d.iter_paragraphs())
            .collect();
        let mut nonzero = 0;
        for gq in QuestionGenerator::new(&c, 11).generate(12) {
            let mut keywords = qp.process(&gq.question).unwrap().keywords;
            keywords.push(keywords[0].clone());
            let source = c.paragraph_text(gq.source).unwrap();
            assert!(score_paragraph(&para(source), &keywords) > 0.0);
            let batch = score_paragraphs(paragraphs.clone(), &keywords);
            for (p, scored) in paragraphs.iter().zip(&batch) {
                let want = score_oracle(&p.text, &keywords);
                assert_eq!(scored.score.to_bits(), want.to_bits(), "{:?}", p.text);
                assert_eq!(score_paragraph(p, &keywords).to_bits(), want.to_bits());
                nonzero += usize::from(want > 0.0);
            }
        }
        assert!(nonzero > 100, "only {nonzero} paragraphs held a keyword");
    }

    #[test]
    fn batch_preserves_order_and_length() {
        let k = kws(&["alpha"]);
        let ps = vec![para("alpha"), para("nothing"), para("alpha alpha")];
        let scored = score_paragraphs(ps.clone(), &k);
        assert_eq!(scored.len(), 3);
        for (s, p) in scored.iter().zip(&ps) {
            assert_eq!(s.paragraph.text, p.text);
        }
        assert!(scored[0].score > scored[1].score);
    }

    #[test]
    fn stemmed_keywords_match_inflected_text() {
        // Keywords arrive stemmed from QP; document text is stemmed at
        // scoring time, so "cities" matches keyword "city".
        let k = kws(&["city"]);
        let s = score_paragraph(&para("the cities were large"), &k);
        assert!(s > 0.0);
    }

    #[test]
    fn refs_round_trip_through_the_store_and_refuse_what_it_lacks() {
        let c = Corpus::generate(CorpusConfig::small(55)).unwrap();
        let store = DocumentStore::new(c.documents.clone());
        let k = kws(&["alpha"]);
        let scored = score_paragraphs(
            (c.documents.iter().take(9))
                .flat_map(|d| d.iter_paragraphs())
                .collect(),
            &k,
        );
        assert!(scored.len() > 9);
        let bytes = ScoredParagraph::encode_refs(&scored);
        assert_eq!(bytes.len(), 4 + scored.len() * REF_BYTES);
        assert_eq!(
            ScoredParagraph::decode_refs(&bytes, &store).unwrap(),
            scored
        );
        assert_eq!(
            ScoredParagraph::decode_refs(&ScoredParagraph::encode_refs(&[]), &store).unwrap(),
            []
        );

        // A document or an ordinal the store does not hold: refused whole.
        for (at, value) in [(4, u32::MAX - 1), (8, 10_000)] {
            let mut dangling = bytes.clone();
            dangling[at..at + 4].copy_from_slice(&value.to_le_bytes());
            assert!(ScoredParagraph::decode_refs(&dangling, &store).is_err());
        }
        // Hostile bytes: every truncation, a trailing byte, a count the
        // input cannot hold (refused before a `Vec` is sized by it).
        for cut in 0..bytes.len() {
            assert!(ScoredParagraph::decode_refs(&bytes[..cut], &store).is_err());
        }
        let mut huge = bytes.clone();
        huge[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(ScoredParagraph::decode_refs(&huge, &store).is_err());
        let trailing = [&bytes[..], &[0]].concat();
        assert!(ScoredParagraph::decode_refs(&trailing, &store).is_err());
    }
}
