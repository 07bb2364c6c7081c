//! The Paragraph Retrieval (PR) module: Boolean search with Falcon-style
//! query relaxation, followed by paragraph extraction.
//!
//! PR is the paper's disk-bound bottleneck (80 % of its time is I/O,
//! Table 3). Real disk time is meaningless on a modern machine, so the
//! retriever *accounts* the bytes it touches — postings decoded plus
//! document bodies scanned — and the simulator converts bytes to virtual
//! disk seconds.

use crate::index::{ShardedIndex, SubIndex};
use crate::query::match_counts;
use crate::store::DocumentStore;
use crate::terms::QueryTerms;
use nlp::Analyzer;
use qa_types::{Keyword, Paragraph, ParagraphId, QaError, SubCollectionId};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Tuning knobs of the PR module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RetrievalConfig {
    /// Relax the Boolean query (lower the quorum) until at least this many
    /// documents match in the shard.
    pub min_docs: usize,
    /// Cap on documents whose paragraphs are extracted, per shard.
    pub max_docs: usize,
    /// A paragraph is kept when it contains at least this many distinct
    /// query terms (clamped to the query size).
    pub min_paragraph_terms: usize,
}

impl Default for RetrievalConfig {
    fn default() -> Self {
        Self {
            min_docs: 3,
            max_docs: 64,
            min_paragraph_terms: 2,
        }
    }
}

/// Output of one PR invocation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RetrievalResult {
    /// Extracted paragraphs (document order within shard order).
    pub paragraphs: Vec<Paragraph>,
    /// Number of documents the Boolean query matched (before the cap).
    pub docs_matched: usize,
    /// The quorum at which the query succeeded (`keywords.len()` = strict
    /// AND; lower values mean the query was relaxed).
    pub quorum_used: usize,
    /// Simulated disk bytes touched (postings + scanned document bodies).
    pub io_bytes: u64,
}

impl RetrievalResult {
    /// Merge a per-shard result into a running total (paragraph merging
    /// module of Fig. 3).
    pub fn merge(&mut self, other: RetrievalResult) {
        self.paragraphs.extend(other.paragraphs);
        self.docs_matched += other.docs_matched;
        self.quorum_used = self.quorum_used.max(other.quorum_used);
        self.io_bytes += other.io_bytes;
    }
}

/// The PR module: owns the sharded index and the document store.
#[derive(Debug, Clone)]
pub struct ParagraphRetriever {
    index: Arc<ShardedIndex>,
    store: Arc<DocumentStore>,
    config: RetrievalConfig,
}

impl ParagraphRetriever {
    /// Construct over a built index and its backing store.
    pub fn new(
        index: Arc<ShardedIndex>,
        store: Arc<DocumentStore>,
        config: RetrievalConfig,
    ) -> Self {
        Self {
            index,
            store,
            config,
        }
    }

    /// The sharded index.
    pub fn index(&self) -> &Arc<ShardedIndex> {
        &self.index
    }

    /// The document store.
    pub fn store(&self) -> &Arc<DocumentStore> {
        &self.store
    }

    /// Retrieval configuration.
    pub fn config(&self) -> RetrievalConfig {
        self.config
    }

    /// Retrieve paragraphs for `keywords` from one sub-collection.
    ///
    /// This is the unit of PR partitioning: the distributed system assigns
    /// whole sub-collections to nodes (Table 2: PR granularity =
    /// "Collection").
    pub fn retrieve(
        &self,
        keywords: &[Keyword],
        shard_id: SubCollectionId,
    ) -> Result<RetrievalResult, QaError> {
        let shard = self
            .index
            .shard(shard_id)
            .ok_or(QaError::UnknownSubCollection(shard_id.raw()))?;
        Ok(self.retrieve_in(keywords, shard))
    }

    /// Retrieve from every shard and merge (the sequential PR behaviour).
    pub fn retrieve_all(&self, keywords: &[Keyword]) -> RetrievalResult {
        let mut total = RetrievalResult::default();
        for shard in self.index.shards() {
            total.merge(self.retrieve_in(keywords, shard));
        }
        total
    }

    fn retrieve_in(&self, keywords: &[Keyword], shard: &SubIndex) -> RetrievalResult {
        if keywords.is_empty() {
            return RetrievalResult::default();
        }

        let mut io_bytes: u64 = keywords
            .iter()
            .filter_map(|k| shard.postings(&k.term))
            .map(|p| p.compressed_bytes() as u64)
            .sum();

        // Falcon-style relaxation: strict AND first, then lower the quorum.
        // The postings are merged once; each round only re-thresholds.
        let query = QueryTerms::new(keywords.iter().map(|k| k.term.as_str()));
        let counts = match_counts(shard, &query);
        let mut docs_matched = 0;
        let mut quorum_used = 0;
        for k in (1..=keywords.len()).rev() {
            docs_matched = counts.iter().filter(|(_, c)| *c >= k).count();
            quorum_used = k;
            if docs_matched >= self.config.min_docs {
                break;
            }
        }
        let docs = counts
            .iter()
            .filter(|(_, c)| *c >= quorum_used)
            .take(self.config.max_docs)
            .filter_map(|(id, _)| self.store.document(*id));

        let need = self
            .config
            .min_paragraph_terms
            .min(query.len())
            .min(quorum_used)
            .max(1);
        let mut filter = ParagraphFilter::new(query, need);

        let mut paragraphs = Vec::new();
        for doc in docs {
            io_bytes += doc.body_bytes() as u64;
            for (ordinal, text) in doc.paragraphs.iter().enumerate() {
                if filter.accepts(text) {
                    paragraphs.push(Paragraph {
                        id: ParagraphId::new(doc.id, ordinal as u32),
                        sub_collection: doc.sub_collection,
                        text: text.clone(),
                    });
                }
            }
        }

        RetrievalResult {
            paragraphs,
            docs_matched,
            quorum_used,
            io_bytes,
        }
    }
}

/// The paragraph post-filter of PR: does a text hold at least `need`
/// distinct query terms? Terms are streamed, so analysis stops at the
/// `need`-th hit, and the scratch is reused from paragraph to paragraph.
#[derive(Debug)]
pub struct ParagraphFilter<'a> {
    query: QueryTerms<'a>,
    need: usize,
    analyzer: Analyzer,
    seen: Vec<bool>,
}

impl<'a> ParagraphFilter<'a> {
    /// A filter keeping texts with at least `need` distinct terms of `query`.
    pub fn new(query: QueryTerms<'a>, need: usize) -> Self {
        Self {
            seen: vec![false; query.len()],
            query,
            need,
            analyzer: Analyzer::default(),
        }
    }

    /// Whether `text` passes.
    pub fn accepts(&mut self, text: &str) -> bool {
        self.seen.fill(false);
        let mut found = 0;
        let mut terms = self.analyzer.terms(text);
        while found < self.need {
            let Some(term) = terms.next_term() else {
                return false;
            };
            if let Some(k) = self.query.position(term) {
                if !self.seen[k] {
                    self.seen[k] = true;
                    found += 1;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ShardedIndex;
    use crate::terms::index_terms;
    use corpus::{Corpus, CorpusConfig, QuestionGenerator};
    use nlp::QuestionProcessor;
    use std::collections::HashSet;

    fn setup() -> (Corpus, ParagraphRetriever) {
        let c = Corpus::generate(CorpusConfig::small(55)).unwrap();
        let index = Arc::new(ShardedIndex::build(&c.documents, c.config.sub_collections));
        let store = Arc::new(DocumentStore::new(c.documents.clone()));
        let pr = ParagraphRetriever::new(index, store, RetrievalConfig::default());
        (c, pr)
    }

    #[test]
    fn retrieves_source_paragraph_of_generated_questions() {
        let (c, pr) = setup();
        let qs = QuestionGenerator::new(&c, 7).generate(20);
        let qp = QuestionProcessor::new();
        let mut hits = 0;
        for gq in &qs {
            let p = qp.process(&gq.question).unwrap();
            let res = pr.retrieve_all(&p.keywords);
            if res.paragraphs.iter().any(|para| para.id == gq.source) {
                hits += 1;
            }
        }
        // Retrieval with relaxation must find the planted paragraph for the
        // overwhelming majority of questions.
        assert!(hits >= 17, "only {hits}/20 source paragraphs retrieved");
    }

    #[test]
    fn per_shard_results_merge_to_all() {
        let (c, pr) = setup();
        let qs = QuestionGenerator::new(&c, 8).generate(3);
        let qp = QuestionProcessor::new();
        let p = qp.process(&qs[0].question).unwrap();

        let all = pr.retrieve_all(&p.keywords);
        let mut merged = RetrievalResult::default();
        for s in 0..c.config.sub_collections {
            merged.merge(
                pr.retrieve(&p.keywords, SubCollectionId::new(s as u32))
                    .unwrap(),
            );
        }
        // Per-shard relaxation may go deeper in sparse shards, so merged can
        // only have at least the strict-union paragraphs of `all`.
        let all_ids: HashSet<_> = all.paragraphs.iter().map(|p| p.id).collect();
        let merged_ids: HashSet<_> = merged.paragraphs.iter().map(|p| p.id).collect();
        assert!(all_ids.is_subset(&merged_ids) || merged_ids.is_subset(&all_ids));
        assert!(merged.io_bytes > 0);
    }

    #[test]
    fn unknown_shard_errors() {
        let (_, pr) = setup();
        let kw = vec![Keyword::new("anything", 1.0)];
        assert!(matches!(
            pr.retrieve(&kw, SubCollectionId::new(99)),
            Err(QaError::UnknownSubCollection(99))
        ));
    }

    #[test]
    fn empty_keywords_empty_result() {
        let (_, pr) = setup();
        let res = pr.retrieve_all(&[]);
        assert!(res.paragraphs.is_empty());
        assert_eq!(res.io_bytes, 0);
    }

    #[test]
    fn io_bytes_accumulate_with_matches() {
        let (c, pr) = setup();
        let qs = QuestionGenerator::new(&c, 9).generate(1);
        let qp = QuestionProcessor::new();
        let p = qp.process(&qs[0].question).unwrap();
        let res = pr.retrieve_all(&p.keywords);
        assert!(res.io_bytes > 0);
        assert!(res.quorum_used >= 1);
    }

    #[test]
    fn nonsense_keywords_match_nothing() {
        let (_, pr) = setup();
        let kw = vec![
            Keyword::new("zzzznotaword", 1.0),
            Keyword::new("qqqalsono", 1.0),
        ];
        let res = pr.retrieve_all(&kw);
        assert!(res.paragraphs.is_empty());
        assert_eq!(res.docs_matched, 0);
    }

    #[test]
    fn paragraphs_contain_enough_query_terms() {
        let (c, pr) = setup();
        let qs = QuestionGenerator::new(&c, 10).generate(5);
        let qp = QuestionProcessor::new();
        for gq in &qs {
            let p = qp.process(&gq.question).unwrap();
            let res = pr.retrieve_all(&p.keywords);
            let terms: HashSet<String> = p.keywords.iter().map(|k| k.term.clone()).collect();
            for para in &res.paragraphs {
                let found: HashSet<String> = index_terms(&para.text)
                    .into_iter()
                    .filter(|t| terms.contains(t))
                    .collect();
                assert!(!found.is_empty(), "paragraph with no query terms kept");
            }
        }
    }

    /// PR without postings or streaming: every document of the shard is
    /// analysed whole with the collecting `index_terms`, and documents and
    /// paragraphs are kept by the size of a `HashSet` of the terms found.
    fn retrieve_oracle(pr: &ParagraphRetriever, keywords: &[Keyword]) -> RetrievalResult {
        let set: HashSet<&str> = keywords.iter().map(|k| k.term.as_str()).collect();
        let hits = |text: &str| {
            let found: HashSet<String> = index_terms(text).into_iter().collect();
            found.iter().filter(|t| set.contains(t.as_str())).count()
        };
        let mut total = RetrievalResult::default();
        for shard in pr.index.shards() {
            let mut docs: Vec<_> = (pr.store.docs_in(shard.id))
                .map(|d| (hits(&format!("{} {}", d.title, d.paragraphs.join(" "))), d))
                .collect();
            docs.sort_by_key(|(_, d)| d.id);
            let at_least = |k: usize| docs.iter().filter(|(c, _)| *c >= k).count();
            let used = (1..=keywords.len())
                .rev()
                .find(|&k| at_least(k) >= pr.config.min_docs);
            let used = used.unwrap_or(1);
            let need = pr
                .config
                .min_paragraph_terms
                .min(set.len())
                .min(used)
                .max(1);
            let kept = docs.iter().filter(|(c, _)| *c >= used).map(|(_, d)| *d);
            let kept: Vec<_> = kept.take(pr.config.max_docs).collect();
            let postings = keywords.iter().filter_map(|k| shard.postings(&k.term));
            total.merge(RetrievalResult {
                paragraphs: (kept.iter().flat_map(|d| d.iter_paragraphs()))
                    .filter(|p| hits(&p.text) >= need)
                    .collect(),
                docs_matched: at_least(used),
                quorum_used: used,
                io_bytes: postings.map(|p| p.compressed_bytes() as u64).sum::<u64>()
                    + kept.iter().map(|d| d.body_bytes() as u64).sum::<u64>(),
            });
        }
        total
    }

    #[test]
    fn streaming_retrieval_matches_the_collecting_oracle() {
        let (c, pr) = setup();
        let qp = QuestionProcessor::new();
        let mut relaxed = 0;
        let mut paragraphs = 0;
        for gq in QuestionGenerator::new(&c, 11).generate(40) {
            let mut keywords = qp.process(&gq.question).unwrap().keywords;
            for round in 0..3 {
                let got = pr.retrieve_all(&keywords);
                assert_eq!(got, retrieve_oracle(&pr, &keywords), "{keywords:?}");
                relaxed += usize::from(got.quorum_used < keywords.len());
                paragraphs += got.paragraphs.len();
                // Second round: a duplicate and an unknown term; third: one keyword.
                match round {
                    0 => {
                        keywords.push(keywords[0].clone());
                        keywords.push(Keyword::new("zzzznotaword", 1.0));
                    }
                    _ => keywords.truncate(1),
                }
            }
        }
        assert!(
            relaxed > 0 && paragraphs > 100,
            "{relaxed} relaxed, {paragraphs} paragraphs"
        );
    }

    #[test]
    fn filter_needs_distinct_terms_for_any_keyword_count() {
        // More distinct terms than any machine-word bitmask holds.
        let words: Vec<String> = (0..100).map(|i| format!("kw{i:03}x")).collect();
        let text = words.join(" and ");
        let query = || QueryTerms::new(words.iter().map(String::as_str));
        assert!(ParagraphFilter::new(query(), 100).accepts(&text));
        assert!(!ParagraphFilter::new(query(), 101).accepts(&text));
        let mut two = ParagraphFilter::new(query(), 2);
        assert!(!two.accepts("kw007x kw007x kw007x"), "repeats count once");
        assert!(two.accepts("Kw007x, the kw099xs"));
        assert!(!two.accepts(""), "scratch is reset between texts");
    }
}
