//! Stopword list used by keyword extraction and the IR engine.
//!
//! Falcon selects question keywords by dropping closed-class words; the list
//! below covers English function words plus the wh-words and auxiliaries that
//! appear in TREC questions.

use qa_types::hash::fnv1a;
use std::sync::OnceLock;

/// The raw stopword list (lower-case).
pub const STOPWORDS: &[&str] = &[
    "a",
    "an",
    "the",
    "this",
    "that",
    "these",
    "those",
    "some",
    "any",
    "each",
    "every",
    "no",
    "of",
    "in",
    "on",
    "at",
    "by",
    "for",
    "with",
    "without",
    "from",
    "to",
    "into",
    "onto",
    "over",
    "under",
    "about",
    "after",
    "before",
    "between",
    "through",
    "during",
    "above",
    "below",
    "up",
    "down",
    "out",
    "off",
    "again",
    "further",
    "and",
    "or",
    "but",
    "nor",
    "so",
    "yet",
    "if",
    "then",
    "else",
    "because",
    "as",
    "until",
    "while",
    "although",
    "though",
    "since",
    "unless",
    "i",
    "me",
    "my",
    "mine",
    "we",
    "us",
    "our",
    "ours",
    "you",
    "your",
    "yours",
    "he",
    "him",
    "his",
    "she",
    "her",
    "hers",
    "it",
    "its",
    "they",
    "them",
    "their",
    "theirs",
    "who",
    "whom",
    "whose",
    "which",
    "what",
    "where",
    "when",
    "why",
    "how",
    "am",
    "is",
    "are",
    "was",
    "were",
    "be",
    "been",
    "being",
    "do",
    "does",
    "did",
    "doing",
    "have",
    "has",
    "had",
    "having",
    "will",
    "would",
    "shall",
    "should",
    "can",
    "could",
    "may",
    "might",
    "must",
    "ought",
    "not",
    "only",
    "own",
    "same",
    "than",
    "too",
    "very",
    "just",
    "also",
    "such",
    "both",
    "more",
    "most",
    "other",
    "another",
    "few",
    "many",
    "much",
    "several",
    "there",
    "here",
    "now",
    "ever",
    "never",
    "always",
    "often",
    "sometimes",
    "name",
    "called",
    "did",
    "was",
    "many",
    "much",
    "s",
    "t",
    "ll",
    "ve",
    "re",
    "d",
    "m",
];

const BUCKETS: usize = 256;

/// FNV-1a folded to a bucket. The list is fixed and every probe is a short
/// lower-cased word, so a keyed hash would buy nothing here.
fn bucket(term: &str) -> usize {
    let h = fnv1a(term.as_bytes());
    (h ^ (h >> 32)) as usize % BUCKETS
}

fn buckets() -> &'static [Vec<&'static str>; BUCKETS] {
    static TABLE: OnceLock<[Vec<&'static str>; BUCKETS]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [const { Vec::new() }; BUCKETS];
        for &w in STOPWORDS {
            table[bucket(w)].push(w);
        }
        table
    })
}

/// Whether a lower-cased term is a stopword.
pub fn is_stopword(term: &str) -> bool {
    buckets()[bucket(term)].contains(&term)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn common_function_words_are_stopwords() {
        for w in ["the", "of", "is", "where", "what", "who"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["taj", "mahal", "nationality", "pope", "disease", "buried"] {
            assert!(!is_stopword(w), "{w} should not be a stopword");
        }
    }

    #[test]
    fn list_is_lowercase_and_duplicate_tolerant() {
        for w in STOPWORDS {
            assert_eq!(&w.to_lowercase(), w);
        }
        // Repeats in the list are harmless; lookups stay correct either way.
        assert!(is_stopword("did"));
    }

    #[test]
    fn buckets_hold_exactly_the_list() {
        for w in STOPWORDS {
            assert!(is_stopword(w), "{w}");
        }
        assert_eq!(
            buckets().iter().map(Vec::len).sum::<usize>(),
            STOPWORDS.len()
        );
        assert!(buckets().iter().all(|b| b.len() <= 4), "a crowded bucket");
        for w in ["", "th", "thee", "The", "wher", "zzzz", "sérengeti"] {
            assert!(!is_stopword(w), "{w:?}");
        }
    }
}
