//! The Paragraph Retrieval (PR) module: Boolean search with Falcon-style
//! query relaxation, followed by paragraph extraction.
//!
//! PR is the paper's disk-bound bottleneck (80 % of its time is I/O,
//! Table 3). Real disk time is meaningless on a modern machine, so the
//! retriever *accounts* the bytes it touches — postings decoded plus the
//! paragraphs it returns — and the simulator converts bytes to virtual
//! disk seconds.
//!
//! Postings name text units (see [`crate::index`]), so both questions PR
//! asks — which documents hold enough keywords, and which of their
//! paragraphs do — are answered by counting over the lists. Text is read
//! only for the paragraphs returned.

use crate::index::{ShardedIndex, SubIndex};
use crate::store::DocumentStore;
use crate::terms::QueryTerms;
use qa_types::{Keyword, Paragraph, ParagraphId, QaError, SubCollectionId};
use std::sync::Arc;

/// Tuning knobs of the PR module.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
    /// Simulated disk bytes touched (postings decoded + paragraphs returned).
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

        // Each query term's list is decoded once into two dense counters:
        // the distinct terms every document and every text unit holds. A
        // list names a unit once, and a document's units are adjacent.
        let query = QueryTerms::new(keywords.iter().map(|k| k.term.as_str()));
        let unit_doc = shard.unit_doc();
        let mut doc_hits = vec![0u32; shard.doc_count()];
        let mut unit_hits = vec![0u32; shard.unit_count()];
        let mut io_bytes = 0u64;
        for list in query.sorted.iter().filter_map(|t| shard.postings(t)) {
            io_bytes += list.compressed_bytes() as u64;
            let mut last_doc = u32::MAX;
            for unit in list {
                unit_hits[unit as usize] += 1;
                let doc = unit_doc[unit as usize];
                if doc != last_doc {
                    doc_hits[doc as usize] += 1;
                    last_doc = doc;
                }
            }
        }

        // Falcon-style relaxation: strict AND first, then lower the quorum.
        // Each round adds one bucket of the histogram of document counts.
        let mut holding = vec![0usize; query.len() + 1];
        for &hits in &doc_hits {
            holding[hits as usize] += 1;
        }
        let mut quorum_used = keywords.len();
        let mut docs_matched = holding.get(quorum_used).copied().unwrap_or(0);
        while docs_matched < self.config.min_docs && quorum_used > 1 {
            quorum_used -= 1;
            docs_matched += holding.get(quorum_used).copied().unwrap_or(0);
        }
        let kept = (0..shard.doc_count())
            .filter(|&d| doc_hits[d] as usize >= quorum_used)
            .take(self.config.max_docs);

        let need = self
            .config
            .min_paragraph_terms
            .min(query.len())
            .min(quorum_used)
            .max(1);

        // A document's first unit is its title, which never makes a
        // paragraph. The store is asked, not trusted, for each ordinal:
        // nothing ties it to the corpus the index was built over.
        let mut paragraphs = Vec::new();
        for d in kept {
            let Some(doc) = self.store.document(shard.doc_ids()[d]) else {
                continue;
            };
            let units = shard.doc_start()[d] as usize + 1..shard.doc_start()[d + 1] as usize;
            let hits = unit_hits.get(units).unwrap_or_default();
            for (ordinal, (text, &held)) in doc.paragraphs.iter().zip(hits).enumerate() {
                if held as usize >= need {
                    io_bytes += text.len() as u64;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::ShardedIndex;
    use crate::terms::index_terms;
    use corpus::{Corpus, CorpusConfig, QuestionGenerator};
    use nlp::QuestionProcessor;
    use qa_types::{DocId, Document};
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

    /// PR without postings or counters: every document of the shard is
    /// analysed whole, from its raw text, with the collecting `index_terms`,
    /// and documents and paragraphs are kept by the size of a `HashSet` of
    /// the terms found. Only the postings bytes in `io_bytes` come from
    /// the index.
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
            let postings = set.iter().filter_map(|t| shard.postings(t));
            let paragraphs: Vec<Paragraph> = (kept.iter().flat_map(|d| d.iter_paragraphs()))
                .filter(|p| hits(&p.text) >= need)
                .collect();
            total.merge(RetrievalResult {
                docs_matched: at_least(used),
                quorum_used: used,
                io_bytes: postings.map(|p| p.compressed_bytes() as u64).sum::<u64>()
                    + paragraphs.iter().map(|p| p.text.len() as u64).sum::<u64>(),
                paragraphs,
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
        hand_built_documents_match_the_collecting_oracle();
    }

    fn built_over(
        docs: Vec<Document>,
        shards: usize,
        config: RetrievalConfig,
    ) -> ParagraphRetriever {
        let index = Arc::new(ShardedIndex::build(&docs, shards));
        ParagraphRetriever::new(index, Arc::new(DocumentStore::new(docs)), config)
    }

    /// Shapes the generated corpus does not have, fed out of id order.
    fn hand_built_documents_match_the_collecting_oracle() {
        // More distinct terms than a machine-word mask or a byte counter holds.
        let words: Vec<String> = (0..300).map(|i| format!("kw{i:03}x")).collect();
        let doc = |id: u32, title: &str, paragraphs: Vec<String>| Document {
            id: DocId::new(id),
            sub_collection: SubCollectionId::new(0),
            title: title.into(),
            paragraphs,
        };
        let own = |texts: &[&str]| texts.iter().map(|t| t.to_string()).collect::<Vec<_>>();
        let mut long = vec!["filler text".to_string(); 70];
        long[3] = "zebra".into();
        long[68] = "Zebras, quaggas and the okapi".into();
        let docs = vec![
            doc(9, "zebra quagga", own(&["nothing relevant here", "okapi"])),
            doc(4, "more than sixty-four paragraphs", long),
            doc(
                7,
                "",
                vec![
                    words.join(" and "),
                    words[..299].join(" "),
                    "kw007x ".repeat(3),
                ],
            ),
            doc(2, "okapi", own(&["zebra okapi", "quagga"])),
            doc(5, "zebra", Vec::new()),
            doc(1, "", own(&["", "the of and"])),
        ];
        let config = |min_docs, max_docs, min_paragraph_terms| RetrievalConfig {
            min_docs,
            max_docs,
            min_paragraph_terms,
        };
        let keywords = |terms: &[&str]| -> Vec<Keyword> {
            terms.iter().map(|t| Keyword::new(*t, 1.0)).collect()
        };
        let every_word: Vec<&str> = words.iter().map(String::as_str).collect();
        let queries = [
            keywords(&["zebra", "quagga"]),
            keywords(&["zebra", "quagga", "okapi"]),
            keywords(&["zebra", "zebra", "zzzznotaword", "okapi", "zebra"]),
            keywords(&["okapi"]),
            keywords(&every_word),
            keywords(&[&every_word[..], &["kw007x", "zzzznotaword"]].concat()),
        ];
        let ids = |r: &RetrievalResult| -> Vec<(u32, u32)> {
            (r.paragraphs.iter().map(|p| (p.id.doc.raw(), p.id.ordinal))).collect()
        };
        for config in [
            RetrievalConfig::default(),
            config(1, 64, 2),
            config(1, 2, 1),
            config(2, 64, 1000), // above any query size: clamped to it
            config(1, 64, 300),
        ] {
            let pr = built_over(docs.clone(), 1, config);
            for q in &queries {
                assert_eq!(pr.retrieve_all(q), retrieve_oracle(&pr, q), "{config:?}");
            }
        }

        let pr = built_over(docs.clone(), 1, config(1, 64, 2));
        // Doc 9 matches in its title only: it counts, and yields nothing;
        // doc 2 holds the terms in different paragraphs.
        let got = pr.retrieve_all(&queries[0]);
        assert_eq!((got.docs_matched, got.quorum_used), (3, 2));
        assert_eq!(ids(&got), [(4, 68)]);
        let pr = built_over(docs, 1, config(1, 64, 300));
        let got = pr.retrieve_all(&queries[4]);
        assert_eq!((got.docs_matched, got.quorum_used), (1, 300));
        assert_eq!(ids(&got), [(7, 0)], "299 of 300 is not enough");
        // The duplicate raises the strict quorum past what can match.
        let got = pr.retrieve_all(&queries[5]);
        assert_eq!((got.docs_matched, got.quorum_used), (1, 300));
    }

    #[test]
    fn a_store_that_does_not_match_the_index_is_asked_not_trusted() {
        // `dqa ask --index F --corpus C` accepts any pair: here a third of
        // the indexed documents are missing and the rest are cut short.
        let (c, pr) = setup();
        let shrunk = (c.documents.iter().filter(|d| d.id.raw() % 3 != 0))
            .map(|d| Document {
                paragraphs: d.paragraphs[..d.id.raw() as usize % d.paragraphs.len().max(1)]
                    .to_vec(),
                ..d.clone()
            })
            .collect();
        let store = Arc::new(DocumentStore::new(shrunk));
        let mismatched = ParagraphRetriever::new(pr.index().clone(), store, pr.config());
        let qp = QuestionProcessor::new();
        let (mut served, mut indexed) = (0, 0);
        for gq in QuestionGenerator::new(&c, 12).generate(20) {
            let keywords = qp.process(&gq.question).unwrap().keywords;
            let got = mismatched.retrieve_all(&keywords);
            let full = pr.retrieve_all(&keywords);
            assert_eq!(got.docs_matched, full.docs_matched);
            for p in &got.paragraphs {
                assert_eq!(mismatched.store().paragraph_text(p.id), Some(&*p.text));
            }
            served += got.paragraphs.len();
            indexed += full.paragraphs.len();
        }
        assert!(0 < served && served < indexed, "{served} of {indexed}");
    }
}
