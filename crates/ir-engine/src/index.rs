//! Inverted indexes: one [`SubIndex`] per sub-collection, grouped into a
//! [`ShardedIndex`].
//!
//! The paper: "The TREC-9 collection was divided into 8 sub-collections,
//! separately indexed using a Boolean information retrieval system built on
//! top of Zprise." Index construction is data-parallel over shards
//! (scoped threads, one per core).

use crate::postings::PostingsList;
use nlp::Analyzer;
use qa_types::{DocId, Document, SubCollectionId};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// An inverted index over one sub-collection.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SubIndex {
    /// Which sub-collection this index covers.
    pub id: SubCollectionId,
    /// Term → compressed postings.
    postings: HashMap<String, PostingsList>,
    /// Documents indexed, sorted.
    doc_ids: Vec<DocId>,
    /// Total indexed term occurrences (proxy for index build work).
    term_occurrences: u64,
}

impl SubIndex {
    /// Documents covered by this shard.
    pub fn doc_ids(&self) -> &[DocId] {
        &self.doc_ids
    }

    /// Number of documents.
    pub fn doc_count(&self) -> usize {
        self.doc_ids.len()
    }

    /// Number of distinct terms.
    pub fn term_count(&self) -> usize {
        self.postings.len()
    }

    /// Total term occurrences indexed.
    pub fn term_occurrences(&self) -> u64 {
        self.term_occurrences
    }

    /// The postings list for a term, if present.
    pub fn postings(&self, term: &str) -> Option<&PostingsList> {
        self.postings.get(term)
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.postings.get(term).map_or(0, PostingsList::len)
    }

    /// Compressed size of all postings (bytes), for I/O cost accounting.
    pub fn compressed_bytes(&self) -> usize {
        self.postings
            .values()
            .map(PostingsList::compressed_bytes)
            .sum()
    }

    /// Iterate (term, postings) pairs in unspecified order.
    pub fn terms_iter(&self) -> impl Iterator<Item = (&str, &PostingsList)> {
        self.postings.iter().map(|(t, p)| (t.as_str(), p))
    }

    /// Rebuild from raw parts (persistence).
    pub(crate) fn from_parts(
        id: SubCollectionId,
        postings: HashMap<String, PostingsList>,
        doc_ids: Vec<DocId>,
        term_occurrences: u64,
    ) -> SubIndex {
        SubIndex {
            id,
            postings,
            doc_ids,
            term_occurrences,
        }
    }
}

/// Builder accumulating term → sorted doc ids for one shard.
#[derive(Debug, Default)]
pub struct IndexBuilder {
    id: SubCollectionId,
    // BTreeMap keeps doc insertion per term ordered when documents are fed
    // in id order; we still sort+dedup at finish to be safe.
    terms: BTreeMap<String, Vec<DocId>>,
    doc_ids: Vec<DocId>,
    term_occurrences: u64,
}

impl IndexBuilder {
    /// Start a builder for one sub-collection.
    pub fn new(id: SubCollectionId) -> Self {
        Self {
            id,
            ..Default::default()
        }
    }

    /// Index one document (title + all paragraphs).
    pub fn add_document(&mut self, doc: &Document) {
        self.doc_ids.push(doc.id);
        let mut analyzer = Analyzer::default();
        for text in std::iter::once(&doc.title).chain(&doc.paragraphs) {
            let mut terms = analyzer.terms(text);
            while let Some(term) = terms.next_term() {
                self.term_occurrences += 1;
                match self.terms.get_mut(term) {
                    Some(ids) if ids.last() == Some(&doc.id) => {}
                    Some(ids) => ids.push(doc.id),
                    // A `String` only the first time the shard sees the term.
                    None => {
                        self.terms.insert(term.to_string(), vec![doc.id]);
                    }
                }
            }
        }
    }

    /// Finish into an immutable [`SubIndex`].
    pub fn finish(mut self) -> SubIndex {
        self.doc_ids.sort_unstable();
        self.doc_ids.dedup();
        let postings = self
            .terms
            .into_iter()
            .map(|(term, mut ids)| {
                ids.sort_unstable();
                ids.dedup();
                (term, PostingsList::from_sorted(&ids))
            })
            .collect();
        SubIndex {
            id: self.id,
            postings,
            doc_ids: self.doc_ids,
            term_occurrences: self.term_occurrences,
        }
    }

    /// Merge another builder for the same shard into this one.
    pub fn merge(&mut self, other: IndexBuilder) {
        debug_assert_eq!(self.id, other.id);
        self.doc_ids.extend(other.doc_ids);
        self.term_occurrences += other.term_occurrences;
        for (term, ids) in other.terms {
            self.terms.entry(term).or_default().extend(ids);
        }
    }
}

/// All shards of the collection.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedIndex {
    shards: Vec<SubIndex>,
}

impl ShardedIndex {
    /// Build the index for a document set already labeled with
    /// sub-collection ids. Shards build in parallel: one scoped thread per
    /// available core, shards dealt round-robin, results in shard order.
    pub fn build(documents: &[Document], sub_collections: usize) -> ShardedIndex {
        let build_shard = &|c: usize| {
            let id = SubCollectionId::new(c as u32);
            let mut b = IndexBuilder::new(id);
            for d in documents.iter().filter(|d| d.sub_collection == id) {
                b.add_document(d);
            }
            b.finish()
        };
        let lanes = std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(sub_collections.max(1));
        let mut built: Vec<std::vec::IntoIter<SubIndex>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..lanes)
                .map(|lane| {
                    scope.spawn(move || {
                        (lane..sub_collections)
                            .step_by(lanes)
                            .map(build_shard)
                            .collect::<Vec<SubIndex>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("an index build lane panicked").into_iter())
                .collect()
        });
        let shards = (0..sub_collections)
            .map(|c| built[c % lanes].next().expect("lane built its share"))
            .collect();
        ShardedIndex { shards }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Access one shard.
    pub fn shard(&self, id: SubCollectionId) -> Option<&SubIndex> {
        self.shards.get(id.index()).filter(|s| s.id == id)
    }

    /// Iterate all shards.
    pub fn shards(&self) -> impl Iterator<Item = &SubIndex> {
        self.shards.iter()
    }

    /// Total documents indexed across shards.
    pub fn doc_count(&self) -> usize {
        self.shards.iter().map(SubIndex::doc_count).sum()
    }

    /// Build from pre-constructed shards (used by persistence).
    pub fn from_shards(mut shards: Vec<SubIndex>) -> ShardedIndex {
        shards.sort_by_key(|s| s.id);
        ShardedIndex { shards }
    }

    /// Incrementally index additional documents (the flexibility goal of
    /// §3: the system must absorb growth without a full rebuild). Each
    /// affected shard is rebuilt by merging its existing postings with a
    /// builder over the new documents.
    pub fn add_documents(&mut self, documents: &[Document]) {
        use std::collections::HashSet;
        let affected: HashSet<SubCollectionId> =
            documents.iter().map(|d| d.sub_collection).collect();
        for shard in &mut self.shards {
            if !affected.contains(&shard.id) {
                continue;
            }
            let mut builder = IndexBuilder::new(shard.id);
            for d in documents.iter().filter(|d| d.sub_collection == shard.id) {
                builder.add_document(d);
            }
            let fresh = builder.finish();
            // Merge: union postings term by term.
            let mut postings = std::mem::take(&mut shard.postings);
            for (term, new_list) in fresh.postings {
                let merged = match postings.remove(&term) {
                    Some(old) => {
                        let ids = crate::postings::union(old.iter(), new_list.iter());
                        PostingsList::from_sorted(&ids)
                    }
                    None => new_list,
                };
                postings.insert(term, merged);
            }
            shard.postings = postings;
            let mut doc_ids = std::mem::take(&mut shard.doc_ids);
            doc_ids.extend(fresh.doc_ids);
            doc_ids.sort_unstable();
            doc_ids.dedup();
            shard.doc_ids = doc_ids;
            shard.term_occurrences += fresh.term_occurrences;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use corpus::{Corpus, CorpusConfig};
    use qa_types::Document;

    fn doc(id: u32, coll: u32, text: &str) -> Document {
        Document {
            id: DocId::new(id),
            sub_collection: SubCollectionId::new(coll),
            title: String::new(),
            paragraphs: vec![text.to_string()],
        }
    }

    #[test]
    fn builds_and_finds_terms() {
        let docs = vec![
            doc(0, 0, "the walking dog barked"),
            doc(1, 0, "a dog and a cat"),
            doc(2, 0, "cats everywhere"),
        ];
        let idx = ShardedIndex::build(&docs, 1);
        let s = idx.shard(SubCollectionId::new(0)).unwrap();
        assert_eq!(s.doc_count(), 3);
        assert_eq!(s.doc_freq("dog"), 2);
        assert_eq!(s.doc_freq("cat"), 2, "cats stems to cat");
        assert_eq!(s.doc_freq("walk"), 1);
        assert_eq!(s.doc_freq("the"), 0, "stopwords not indexed");
        assert_eq!(s.doc_freq("zebra"), 0);
    }

    #[test]
    fn postings_are_sorted_dedup() {
        let docs = vec![doc(5, 0, "dog dog dog"), doc(2, 0, "dog")];
        let idx = ShardedIndex::build(&docs, 1);
        let s = idx.shard(SubCollectionId::new(0)).unwrap();
        let ids = s.postings("dog").unwrap().to_vec();
        assert_eq!(ids, vec![DocId::new(2), DocId::new(5)]);
    }

    #[test]
    fn shards_cover_their_own_collections_only() {
        let docs = vec![doc(0, 0, "alpha term"), doc(1, 1, "beta term")];
        let idx = ShardedIndex::build(&docs, 2);
        assert_eq!(idx.shard_count(), 2);
        let s0 = idx.shard(SubCollectionId::new(0)).unwrap();
        let s1 = idx.shard(SubCollectionId::new(1)).unwrap();
        assert_eq!(s0.doc_freq("alpha"), 1);
        assert_eq!(s0.doc_freq("beta"), 0);
        assert_eq!(s1.doc_freq("beta"), 1);
        assert_eq!(idx.doc_count(), 2);
    }

    #[test]
    fn merge_builders() {
        let mut a = IndexBuilder::new(SubCollectionId::new(0));
        a.add_document(&doc(0, 0, "common alpha"));
        let mut b = IndexBuilder::new(SubCollectionId::new(0));
        b.add_document(&doc(1, 0, "common beta"));
        a.merge(b);
        let s = a.finish();
        assert_eq!(s.doc_count(), 2);
        assert_eq!(s.doc_freq("common"), 2);
        assert_eq!(s.doc_freq("alpha"), 1);
    }

    #[test]
    fn indexes_generated_corpus() {
        let c = Corpus::generate(CorpusConfig::small(44)).unwrap();
        let idx = ShardedIndex::build(&c.documents, c.config.sub_collections);
        assert_eq!(idx.doc_count(), c.documents.len());
        for s in idx.shards() {
            assert!(s.term_count() > 0);
            assert!(s.term_occurrences() > 0);
            assert!(s.compressed_bytes() > 0);
        }
    }

    #[test]
    fn incremental_add_matches_full_rebuild() {
        let c = Corpus::generate(CorpusConfig::small(45)).unwrap();
        let split = c.documents.len() / 2;
        let mut incremental = ShardedIndex::build(&c.documents[..split], c.config.sub_collections);
        incremental.add_documents(&c.documents[split..]);
        let full = ShardedIndex::build(&c.documents, c.config.sub_collections);
        assert_eq!(incremental.doc_count(), full.doc_count());
        for (a, b) in incremental.shards().zip(full.shards()) {
            assert_eq!(a.doc_count(), b.doc_count());
            assert_eq!(a.term_count(), b.term_count());
            // Spot-check postings byte-equality through a few terms.
            for (term, postings) in b.terms_iter().take(50) {
                assert_eq!(
                    a.postings(term).map(|p| p.to_vec()),
                    Some(postings.to_vec()),
                    "postings differ for {term}"
                );
            }
        }
    }

    #[test]
    fn add_documents_to_empty_set_is_noop() {
        let c = Corpus::generate(CorpusConfig::small(46)).unwrap();
        let mut idx = ShardedIndex::build(&c.documents, c.config.sub_collections);
        let before = idx.doc_count();
        idx.add_documents(&[]);
        assert_eq!(idx.doc_count(), before);
    }

    #[test]
    fn missing_shard_is_none() {
        let idx = ShardedIndex::build(&[], 2);
        assert!(idx.shard(SubCollectionId::new(5)).is_none());
        assert!(idx.shard(SubCollectionId::new(1)).is_some());
    }
}
