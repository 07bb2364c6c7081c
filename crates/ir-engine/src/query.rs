//! Boolean query AST and evaluation.

use crate::index::SubIndex;
use crate::postings::{intersect, union};
use crate::terms::QueryTerms;
use qa_types::DocId;

/// A Boolean query over index terms.
///
/// # Examples
/// ```
/// use ir_engine::{BooleanQuery, IndexBuilder};
/// use qa_types::{DocId, Document, SubCollectionId};
///
/// let mut builder = IndexBuilder::new(SubCollectionId::new(0));
/// builder.add_document(&Document {
///     id: DocId::new(0),
///     sub_collection: SubCollectionId::new(0),
///     title: String::new(),
///     paragraphs: vec!["the taj mahal stands in agra".into()],
/// });
/// let index = builder.finish();
/// let query = BooleanQuery::all_of(["taj", "mahal"]);
/// assert_eq!(query.eval(&index), vec![DocId::new(0)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BooleanQuery {
    /// Documents containing the term.
    Term(String),
    /// Documents matching every sub-query.
    And(Vec<BooleanQuery>),
    /// Documents matching at least one sub-query.
    Or(Vec<BooleanQuery>),
}

impl BooleanQuery {
    /// AND of a term list (the common Falcon query shape).
    pub fn all_of<I: IntoIterator<Item = S>, S: Into<String>>(terms: I) -> BooleanQuery {
        BooleanQuery::And(
            terms
                .into_iter()
                .map(|t| BooleanQuery::Term(t.into()))
                .collect(),
        )
    }

    /// Evaluate against a shard, producing sorted matching doc ids.
    ///
    /// AND over an empty list matches nothing (not everything): an empty
    /// conjunction arises only from an empty keyword set, which upstream
    /// code treats as an unanswerable question.
    pub fn eval(&self, index: &SubIndex) -> Vec<DocId> {
        match self {
            BooleanQuery::Term(t) => index.docs_with(t).map(|d| index.doc_ids()[d]).collect(),
            BooleanQuery::And(subs) => {
                let mut lists: Vec<Vec<DocId>> = subs.iter().map(|s| s.eval(index)).collect();
                // Evaluate cheapest-first: intersecting small lists early
                // keeps intermediate results minimal.
                lists.sort_by_key(Vec::len);
                let mut iter = lists.into_iter();
                let Some(mut acc) = iter.next() else {
                    return Vec::new();
                };
                for l in iter {
                    if acc.is_empty() {
                        break;
                    }
                    acc = intersect(acc.into_iter(), l.into_iter());
                }
                acc
            }
            BooleanQuery::Or(subs) => {
                let mut acc = Vec::new();
                for s in subs {
                    acc = union(acc.into_iter(), s.eval(index).into_iter());
                }
                acc
            }
        }
    }

    /// The distinct terms mentioned by this query.
    pub fn terms(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_terms(&mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    fn collect_terms<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            BooleanQuery::Term(t) => out.push(t),
            BooleanQuery::And(s) | BooleanQuery::Or(s) => {
                for q in s {
                    q.collect_terms(out);
                }
            }
        }
    }
}

/// For every document containing at least one of the query's terms, how
/// many distinct terms it contains; sorted by document id.
///
/// A quorum at any `k` is a threshold over these counts, so a query is
/// counted once however many rounds its relaxation takes.
pub fn match_counts(index: &SubIndex, query: &QueryTerms<'_>) -> Vec<(DocId, usize)> {
    // One dense counter per document of the shard: no sort, and each
    // list is decoded once.
    let mut counts = vec![0usize; index.doc_count()];
    for term in &query.sorted {
        for doc in index.docs_with(term) {
            counts[doc] += 1;
        }
    }
    (index.doc_ids().iter().zip(counts))
        .filter(|(_, count)| *count > 0)
        .map(|(id, count)| (*id, count))
        .collect()
}

/// Quorum matching: documents containing at least `min_terms` of `terms`.
///
/// This implements Falcon-style Boolean query *relaxation*: when the strict
/// conjunction returns too few documents, the PR module retries with a
/// lower quorum instead of rewriting the AST.
pub fn quorum(index: &SubIndex, terms: &[String], min_terms: usize) -> Vec<DocId> {
    if min_terms == 0 {
        return Vec::new();
    }
    let query = QueryTerms::new(terms.iter().map(String::as_str));
    match_counts(index, &query)
        .into_iter()
        .filter(|(_, c)| *c >= min_terms)
        .map(|(id, _)| id)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexBuilder;
    use qa_types::{Document, SubCollectionId};

    fn index() -> SubIndex {
        let mut b = IndexBuilder::new(SubCollectionId::new(0));
        let texts = [
            "alpha beta gamma",
            "alpha beta",
            "alpha",
            "delta epsilon",
            "beta delta",
        ];
        for (i, t) in texts.iter().enumerate() {
            b.add_document(&Document {
                id: DocId::new(i as u32),
                sub_collection: SubCollectionId::new(0),
                title: String::new(),
                paragraphs: vec![t.to_string()],
            });
        }
        b.finish()
    }

    fn ids(v: &[u32]) -> Vec<DocId> {
        v.iter().map(|&i| DocId::new(i)).collect()
    }

    #[test]
    fn term_eval() {
        let idx = index();
        assert_eq!(
            BooleanQuery::Term("alpha".into()).eval(&idx),
            ids(&[0, 1, 2])
        );
        assert_eq!(BooleanQuery::Term("nope".into()).eval(&idx), ids(&[]));
    }

    #[test]
    fn and_eval() {
        let idx = index();
        let q = BooleanQuery::all_of(["alpha", "beta"]);
        assert_eq!(q.eval(&idx), ids(&[0, 1]));
        let q = BooleanQuery::all_of(["alpha", "beta", "gamma"]);
        assert_eq!(q.eval(&idx), ids(&[0]));
        let q = BooleanQuery::all_of(["alpha", "delta"]);
        assert_eq!(q.eval(&idx), ids(&[]));
    }

    #[test]
    fn or_eval() {
        let idx = index();
        let q = BooleanQuery::Or(vec![
            BooleanQuery::Term("gamma".into()),
            BooleanQuery::Term("epsilon".into()),
        ]);
        assert_eq!(q.eval(&idx), ids(&[0, 3]));
    }

    #[test]
    fn nested_eval() {
        let idx = index();
        // (alpha AND beta) OR epsilon
        let q = BooleanQuery::Or(vec![
            BooleanQuery::all_of(["alpha", "beta"]),
            BooleanQuery::Term("epsilon".into()),
        ]);
        assert_eq!(q.eval(&idx), ids(&[0, 1, 3]));
    }

    #[test]
    fn empty_and_matches_nothing() {
        let idx = index();
        assert_eq!(BooleanQuery::And(vec![]).eval(&idx), ids(&[]));
        assert_eq!(BooleanQuery::Or(vec![]).eval(&idx), ids(&[]));
    }

    #[test]
    fn quorum_relaxation() {
        let idx = index();
        let terms: Vec<String> = ["alpha", "beta", "gamma"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(quorum(&idx, &terms, 3), ids(&[0]));
        assert_eq!(quorum(&idx, &terms, 2), ids(&[0, 1]));
        assert_eq!(quorum(&idx, &terms, 1), ids(&[0, 1, 2, 4]));
    }

    #[test]
    fn quorum_edge_cases() {
        let idx = index();
        assert!(quorum(&idx, &[], 1).is_empty());
        assert!(quorum(&idx, &["alpha".to_string()], 0).is_empty());
        // Duplicate terms count once.
        let dup = vec!["alpha".to_string(), "alpha".to_string()];
        assert_eq!(quorum(&idx, &dup, 2), ids(&[]));
        assert_eq!(quorum(&idx, &dup, 1), ids(&[0, 1, 2]));
    }

    #[test]
    fn quorum_is_a_threshold_over_match_counts() {
        let idx = index();
        for terms in [
            vec!["alpha", "beta", "gamma"],
            vec!["beta", "delta", "beta", "nope"],
            vec!["epsilon"],
            vec!["nope"],
            vec![],
        ] {
            let terms: Vec<String> = terms.into_iter().map(String::from).collect();
            let counts = match_counts(&idx, &QueryTerms::new(terms.iter().map(String::as_str)));
            assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "sorted by id");
            for k in 0..=terms.len() + 1 {
                let want: Vec<DocId> = counts
                    .iter()
                    .filter(|(_, c)| k > 0 && *c >= k)
                    .map(|(id, _)| *id)
                    .collect();
                assert_eq!(quorum(&idx, &terms, k), want, "{terms:?} at k={k}");
            }
        }
        let terms: Vec<String> = vec!["alpha".into(), "beta".into(), "delta".into()];
        let counts = match_counts(&idx, &QueryTerms::new(terms.iter().map(String::as_str)));
        assert_eq!(
            counts,
            [(0, 2), (1, 2), (2, 1), (3, 1), (4, 2)].map(|(d, c)| (DocId::new(d), c))
        );
    }

    #[test]
    fn terms_are_collected_dedup() {
        let q = BooleanQuery::Or(vec![
            BooleanQuery::all_of(["b", "a"]),
            BooleanQuery::Term("a".into()),
        ]);
        assert_eq!(q.terms(), vec!["a", "b"]);
    }
}
