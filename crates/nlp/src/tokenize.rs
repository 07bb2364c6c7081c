//! Word tokenization with byte offsets.
//!
//! Tokens are maximal runs of alphanumeric characters (plus internal
//! apostrophes and hyphens, so "Tourette's" and "open-domain" stay whole),
//! each with its byte span in the source. Boundaries come from
//! [`crate::analyze::words`]; this module collects them into owned tokens
//! for callers that keep them (QP reads one question, tests compare). The
//! paragraph paths — NER and answer processing — read the same words through
//! [`crate::analyze::TokenTable`] and allocate nothing per token.

use crate::analyze::{push_lowercase, words};

/// A token: its lower-cased text plus the byte span in the source string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// Lower-cased token text.
    pub text: String,
    /// Byte offset of the first character in the source.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// Whether the original first character was upper-case (a weak
    /// proper-noun signal used by keyword weighting).
    pub capitalized: bool,
}

/// Tokenize `text` into words with offsets.
///
/// A joiner character (`'` or `-`) is kept inside a token only when it is
/// surrounded by word characters on both sides.
pub fn tokenize(text: &str) -> Vec<Token> {
    words(text)
        .map(|w| {
            let mut lower = String::with_capacity(w.end - w.start);
            push_lowercase(&mut lower, &text[w.start..w.end]);
            Token {
                text: lower,
                start: w.start,
                end: w.end,
                capitalized: w.capitalized,
            }
        })
        .collect()
}

/// Count words in `text` without allocating tokens; used by corpus
/// statistics and the IR engine's document-length accounting.
pub fn word_count(text: &str) -> usize {
    words(text).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_on_whitespace_and_punct() {
        let toks = tokenize("Where is the Taj Mahal?");
        let words: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["where", "is", "the", "taj", "mahal"]);
    }

    #[test]
    fn keeps_internal_apostrophe_and_hyphen() {
        let toks = tokenize("Tourette's open-domain systems");
        let words: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["tourette's", "open-domain", "systems"]);
    }

    #[test]
    fn trailing_apostrophe_not_joined() {
        let toks = tokenize("the dogs' bowl");
        let words: Vec<_> = toks.iter().map(|t| t.text.as_str()).collect();
        assert_eq!(words, ["the", "dogs", "bowl"]);
    }

    #[test]
    fn offsets_slice_the_source() {
        let src = "Pope John Paul II";
        let toks = tokenize(src);
        assert_eq!(&src[toks[1].start..toks[1].end], "John");
        assert!(toks[1].capitalized);
        assert_eq!(toks[1].text, "john");
        assert_eq!(&src[toks[3].start..toks[3].end], "II");
    }

    #[test]
    fn empty_and_punct_only() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("?!., --- ''").is_empty());
    }

    #[test]
    fn unicode_text_does_not_panic() {
        let toks = tokenize("Chartre’s Cathedral — Sérengeti");
        assert!(toks.iter().any(|t| t.text.contains("cathedral")));
        assert!(toks.iter().any(|t| t.text.contains("rengeti")));
    }

    #[test]
    fn word_count_matches_tokenize() {
        for s in [
            "Where is the Taj Mahal?",
            "Tourette's open-domain systems",
            "",
            "a b   c-d e'f",
            "a--b a-'b x- -y",
        ] {
            assert_eq!(word_count(s), tokenize(s).len(), "for {s:?}");
        }
    }

    #[test]
    fn numbers_are_tokens() {
        let toks = tokenize("a 1987 tour of 360 cities");
        assert!(toks.iter().any(|t| t.text == "1987"));
        assert!(toks.iter().any(|t| t.text == "360"));
    }
}
