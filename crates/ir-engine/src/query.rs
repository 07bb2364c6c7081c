//! Quorum matching: the document-level view of the unit lists.

use crate::index::SubIndex;
use crate::terms::QueryTerms;
use qa_types::DocId;

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
}
