//! Behaviour pin for the text analyser.
//!
//! `fixtures/analysis_golden.tsv` was written by the `String`-chain stemmer
//! and the `char_indices().collect()` tokenizer this crate had before the
//! streaming analyser replaced them, and is frozen: a row that no longer
//! matches is a behaviour change of the index, not a stale fixture. Rows:
//!
//! * `stem <TAB> word <TAB> stem` — every `corpus::vocab` word of
//!   `CorpusConfig::small` under twenty inflections, the 4 000 base words
//!   of `trec_like`, the stopword list and hand-picked English, joiner,
//!   digit and non-ASCII words;
//! * `tok <TAB> text <TAB> start..end|C or c|lower-cased text …` — the
//!   tokens of the text, `C` for a capitalised first character: joiner,
//!   apostrophe, digit and non-ASCII cases (`’`, `—`, `Sérengeti`, `İ`,
//!   final sigma, combining marks, ligatures) and generated paragraphs.

use nlp::analyze::{words, Analyzer, TokenTable};
use nlp::stem::{stem, stem_in_place};
use nlp::stopwords::is_stopword;
use nlp::tokenize::{tokenize, word_count};

const GOLDEN: &str = include_str!("fixtures/analysis_golden.tsv");

#[test]
fn stems_match_the_golden_table() {
    let mut analyzer = Analyzer::default();
    let mut rows = 0;
    for line in GOLDEN.lines().filter(|l| l.starts_with("stem\t")) {
        let mut fields = line.split('\t').skip(1);
        let (word, want) = (fields.next().unwrap(), fields.next().unwrap());
        assert_eq!(stem(word), want, "stem({word:?})");
        // Golden words are lower-case already, so the buffer path agrees.
        assert_eq!(analyzer.normalize(word), want, "normalize({word:?})");
        rows += 1;
    }
    assert!(rows > 15_000, "only {rows} stem rows read");
}

#[test]
fn tokens_match_the_golden_table() {
    let mut analyzer = Analyzer::default();
    let mut rows = 0;
    for line in GOLDEN.lines().filter(|l| l.starts_with("tok\t")) {
        let mut fields = line.split('\t').skip(1);
        let text = fields.next().unwrap();
        let want: Vec<&str> = fields.collect();
        let tokens = tokenize(text);
        let got: Vec<String> = tokens
            .iter()
            .map(|t| {
                let cap = if t.capitalized { 'C' } else { 'c' };
                format!("{}..{}|{cap}|{}", t.start, t.end, t.text)
            })
            .collect();
        assert_eq!(got, want, "tokenize({text:?})");

        // The streaming views agree with the collected one.
        let spans: Vec<_> = words(text).map(|w| (w.start, w.end)).collect();
        let token_spans: Vec<_> = tokens.iter().map(|t| (t.start, t.end)).collect();
        assert_eq!(spans, token_spans, "words({text:?})");
        assert_eq!(word_count(text), tokens.len(), "word_count({text:?})");
        let mut terms = analyzer.terms(text);
        for t in tokens.iter().filter(|t| !is_stopword(&t.text)) {
            assert_eq!(terms.next_term(), Some(stem(&t.text).as_str()), "{text:?}");
        }
        assert_eq!(terms.next_term(), None, "{text:?}");
        assert_table_matches_tokens(text);
        rows += 1;
    }
    assert_eq!(rows, 43);
}

/// The token table holds what `tokenize` collects: the same spans, the same
/// lower-cased words, and a phrase is its words joined by single spaces.
fn assert_table_matches_tokens(text: &str) {
    let tokens = tokenize(text);
    let mut table = TokenTable::default();
    table.fill("an earlier text the table must forget");
    table.fill(text);
    assert_eq!(table.len(), tokens.len(), "{text:?}");
    assert_eq!(table.is_empty(), tokens.is_empty());
    for (i, t) in tokens.iter().enumerate() {
        let span = table.span(i);
        assert_eq!(
            (span.start, span.end, span.capitalized),
            (t.start, t.end, t.capitalized)
        );
        assert_eq!(table.lower(i), t.text, "{text:?}");
        for n in 1..=(tokens.len() - i).min(4) {
            let words: Vec<&str> = tokens[i..i + n].iter().map(|t| t.text.as_str()).collect();
            assert_eq!(table.phrase(i, n), words.join(" "), "{text:?}");
        }
    }
}

#[test]
fn the_table_matches_tokenize_over_hostile_text() {
    qa_types::rng::cases(0x7461_626c, 400, |rng| {
        assert_table_matches_tokens(&rng.text(0..=200));
    });
}

/// The keyword prefilter's licence: stemming never changes a word's first
/// byte, so a lower-cased word that starts like no keyword stems to none.
#[test]
fn stemming_keeps_the_first_byte() {
    let keeps = |word: &str| {
        let mut stemmed = word.to_string();
        stem_in_place(&mut stemmed);
        assert_eq!(
            stemmed.bytes().next(),
            word.bytes().next(),
            "{word:?} -> {stemmed:?}"
        );
    };
    let mut rows = 0;
    for line in GOLDEN.lines().filter(|l| l.starts_with("stem\t")) {
        keeps(line.split('\t').nth(1).unwrap());
        rows += 1;
    }
    assert!(rows > 15_000, "only {rows} stem rows read");
    qa_types::rng::cases(0x7374_656d, 400, |rng| {
        let text = rng.text(0..=200);
        for t in tokenize(&text) {
            keeps(&t.text);
        }
        // Short tails of the suffixes the rules cut, which text rarely holds.
        let tail = ["ies", "sses", "es", "s", "ing", "ed", "ly", "eded", "ssly"];
        let word = format!("{}{}", &"abz"[..rng.below(3)], tail[rng.below(tail.len())]);
        keeps(&word);
    });
}
