//! Text → index terms.
//!
//! Indexing and querying must normalize identically; both stream through
//! [`nlp::Analyzer`] (word spans → lower-case → drop stopwords → stem).
//! [`index_terms`] and [`normalize_term`] collect from it for callers off
//! the hot path; [`QueryTerms`] is what streamed terms are matched against.

use nlp::Analyzer;

/// Extract the index terms of a text, in occurrence order (duplicates kept —
/// callers that need a set deduplicate themselves).
pub fn index_terms(text: &str) -> Vec<String> {
    let mut analyzer = Analyzer::default();
    let mut terms = analyzer.terms(text);
    std::iter::from_fn(|| terms.next_term().map(str::to_string)).collect()
}

/// Normalize a single query keyword the same way document text is indexed.
/// Keywords produced by `nlp::QuestionProcessor` are already stemmed; this
/// is for ad-hoc terms.
pub fn normalize_term(term: &str) -> String {
    Analyzer::default().normalize(term).to_string()
}

/// The distinct terms of one query, sorted, so that a streamed term is
/// matched by binary search whatever the keyword count.
#[derive(Debug, Clone)]
pub struct QueryTerms<'a> {
    pub(crate) sorted: Vec<&'a str>,
}

impl<'a> QueryTerms<'a> {
    /// Collect the distinct terms (duplicates count once).
    pub fn new(terms: impl IntoIterator<Item = &'a str>) -> Self {
        let mut sorted: Vec<&str> = terms.into_iter().collect();
        sorted.sort_unstable();
        sorted.dedup();
        Self { sorted }
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True for a query without terms.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Index of `term` among the distinct terms, if it is one of them.
    pub fn position(&self, term: &str) -> Option<usize> {
        self.sorted.binary_search(&term).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_terms_drop_stopwords_and_stem() {
        let terms = index_terms("The cities were visited by the walking dogs.");
        assert_eq!(terms, ["city", "visit", "walk", "dog"]);
    }

    #[test]
    fn duplicates_preserved() {
        let terms = index_terms("dog dog dog");
        assert_eq!(terms.len(), 3);
    }

    #[test]
    fn normalize_matches_indexing() {
        for w in ["Cities", "WALKED", "dogs"] {
            let n = normalize_term(w);
            let via_index = index_terms(w);
            assert_eq!(vec![n], via_index);
        }
    }

    #[test]
    fn empty_text() {
        assert!(index_terms("").is_empty());
        assert!(index_terms("the of and").is_empty());
    }

    #[test]
    fn query_terms_are_distinct_and_found() {
        let q = QueryTerms::new(["dog", "cat", "dog", "ant"]);
        assert_eq!(q.len(), 3);
        assert_eq!(q.sorted, ["ant", "cat", "dog"]);
        assert_eq!(q.position("cat"), Some(1));
        assert_eq!(q.position("cow"), None);
        assert!(QueryTerms::new([]).is_empty());
    }
}
