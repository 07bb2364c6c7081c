//! Inverted indexes: one [`SubIndex`] per sub-collection, grouped into a
//! [`ShardedIndex`].
//!
//! The paper: "The TREC-9 collection was divided into 8 sub-collections,
//! separately indexed using a Boolean information retrieval system built on
//! top of Zprise." Index construction is data-parallel over shards
//! (scoped threads, one per core).
//!
//! A posting names a **text unit**, not a document: per shard, units are
//! numbered densely in document-id order, a document's title first and then
//! its paragraphs. PR's paragraph question ("which paragraphs of the matched
//! documents hold enough keywords?") is answered from the lists alone, and
//! a document matches a term when any of its units does.

use crate::postings::PostingsList;
use nlp::Analyzer;
use qa_types::hash::FnvBuild;
use qa_types::{DocId, Document, SubCollectionId};
use std::collections::HashMap;

/// An inverted index over one sub-collection.
#[derive(Debug, Clone, PartialEq)]
pub struct SubIndex {
    /// Which sub-collection this index covers.
    pub id: SubCollectionId,
    /// Term → compressed list of the text units holding it.
    postings: TermTable,
    /// Documents indexed, sorted.
    doc_ids: Vec<DocId>,
    /// The `d`-th document owns units `doc_start[d] .. doc_start[d + 1]`:
    /// its title, then paragraph `k` at `doc_start[d] + 1 + k`.
    doc_start: Vec<u32>,
    /// Unit → position of its document in `doc_ids` (derived from
    /// `doc_start`, never persisted).
    unit_doc: Vec<u32>,
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

    /// Number of text units (titles and paragraphs) across the documents.
    pub fn unit_count(&self) -> usize {
        self.unit_doc.len()
    }

    /// First unit of each document plus the unit count: `doc_count() + 1`
    /// non-decreasing entries starting at 0.
    pub fn doc_start(&self) -> &[u32] {
        &self.doc_start
    }

    /// Position in [`SubIndex::doc_ids`] of the document owning each unit.
    pub(crate) fn unit_doc(&self) -> &[u32] {
        &self.unit_doc
    }

    /// Total term occurrences indexed.
    pub fn term_occurrences(&self) -> u64 {
        self.term_occurrences
    }

    /// The text units holding a term, if any does.
    pub fn postings(&self, term: &str) -> Option<&PostingsList> {
        self.postings.get(term)
    }

    /// Positions in [`SubIndex::doc_ids`] of the documents holding a term,
    /// increasing: the term's units walked through unit → document, a
    /// document's run of units counted once.
    pub(crate) fn docs_with<'a>(&'a self, term: &str) -> impl Iterator<Item = usize> + 'a {
        let mut last = u32::MAX;
        let units = self.postings(term).into_iter().flatten();
        units.filter_map(move |unit| {
            let doc = self.unit_doc[unit as usize];
            (doc != std::mem::replace(&mut last, doc)).then_some(doc as usize)
        })
    }

    /// Document frequency of a term.
    pub fn doc_freq(&self, term: &str) -> usize {
        self.docs_with(term).count()
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

    /// Assemble from parts (the builder, persistence). Every list entry
    /// must be below the unit count `doc_start` ends on.
    pub(crate) fn from_parts(
        id: SubCollectionId,
        postings: TermTable,
        doc_ids: Vec<DocId>,
        doc_start: Vec<u32>,
        term_occurrences: u64,
    ) -> SubIndex {
        debug_assert_eq!(doc_start.len(), doc_ids.len() + 1);
        let unit_doc = (doc_start.windows(2).zip(0u32..))
            .flat_map(|(w, doc)| std::iter::repeat_n(doc, (w[1] - w[0]) as usize))
            .collect();
        SubIndex {
            id,
            postings,
            doc_ids,
            doc_start,
            unit_doc,
            term_occurrences,
        }
    }
}

/// The most text units (titles + paragraphs) one shard may number. The
/// builder stops there, so a segment reader can refuse a larger total
/// before sizing the unit → document table by it (64 MiB at the bound).
pub const MAX_SHARD_UNITS: u32 = 1 << 24;

/// Term → the text units holding it. FNV-keyed ([`qa_types::hash`]): the
/// table is probed once per term occurrence while a shard is built, and its
/// keys are document terms — nothing a question supplies is ever inserted.
pub(crate) type TermTable = HashMap<String, PostingsList, FnvBuild>;

/// Builder for one shard: the index's own term table, filled in place.
/// Units are handed out in increasing order, so every list is appended to
/// and is born sorted.
#[derive(Debug)]
pub struct IndexBuilder {
    id: SubCollectionId,
    postings: TermTable,
    /// Documents and their first units, in feed order.
    doc_ids: Vec<DocId>,
    doc_start: Vec<u32>,
    /// Whether feed order has been document-id order so far, so that unit
    /// order already is what [`IndexBuilder::finish`] promises.
    fed_in_id_order: bool,
    term_occurrences: u64,
    analyzer: Analyzer,
}

impl IndexBuilder {
    /// Start a builder for one sub-collection.
    pub fn new(id: SubCollectionId) -> Self {
        Self {
            id,
            postings: TermTable::default(),
            doc_ids: Vec::new(),
            doc_start: vec![0],
            fed_in_id_order: true,
            term_occurrences: 0,
            analyzer: Analyzer::default(),
        }
    }

    /// Reopen a finished shard so that more documents can be fed to it.
    fn reopen(shard: SubIndex) -> Self {
        Self {
            postings: shard.postings,
            doc_ids: shard.doc_ids,
            doc_start: shard.doc_start,
            term_occurrences: shard.term_occurrences,
            ..Self::new(shard.id)
        }
    }

    /// Index one document: its title is one text unit, each paragraph the
    /// next. A document id may be fed once ([`IndexBuilder::finish`]
    /// panics otherwise), and a document that would take the shard past
    /// [`MAX_SHARD_UNITS`] panics here.
    pub fn add_document(&mut self, doc: &Document) {
        self.fed_in_id_order &= self.doc_ids.last().is_none_or(|last| *last < doc.id);
        self.doc_ids.push(doc.id);
        let first = *self.doc_start.last().expect("starts at [0]");
        let end = first as usize + 1 + doc.paragraphs.len();
        assert!(
            end <= MAX_SHARD_UNITS as usize,
            "a shard holds at most {MAX_SHARD_UNITS} text units"
        );
        let end = end as u32;
        let texts = std::iter::once(&doc.title).chain(&doc.paragraphs);
        for (unit, text) in (first..end).zip(texts) {
            let mut terms = self.analyzer.terms(text);
            while let Some(term) = terms.next_term() {
                self.term_occurrences += 1;
                match self.postings.get_mut(term) {
                    Some(list) => list.push(unit),
                    // A `String` only the first time the shard sees the term.
                    None => {
                        let list = PostingsList::from_sorted(&[unit]);
                        self.postings.insert(term.to_string(), list);
                    }
                }
            }
        }
        self.doc_start.push(end);
    }

    /// Finish into an immutable [`SubIndex`] whose units are numbered in
    /// document-id order whatever the feed order was.
    ///
    /// # Panics
    /// When a document id was fed twice.
    pub fn finish(mut self) -> SubIndex {
        if !self.fed_in_id_order {
            self.renumber();
        }
        SubIndex::from_parts(
            self.id,
            self.postings,
            self.doc_ids,
            self.doc_start,
            self.term_occurrences,
        )
    }

    /// Move documents, and their units with them, from feed order into
    /// document-id order. Units of one document stay together and in
    /// order, so lists only need re-sorting, never deduplicating.
    fn renumber(&mut self) {
        let mut order: Vec<usize> = (0..self.doc_ids.len()).collect();
        order.sort_unstable_by_key(|&d| self.doc_ids[d]);
        let mut renumbered = vec![0u32; self.doc_start[order.len()] as usize];
        let mut doc_ids = Vec::with_capacity(order.len());
        let mut doc_start = vec![0u32];
        let mut next = 0;
        for d in order {
            assert!(
                doc_ids.last() != Some(&self.doc_ids[d]),
                "document {} was indexed twice",
                self.doc_ids[d].raw()
            );
            for old in self.doc_start[d]..self.doc_start[d + 1] {
                renumbered[old as usize] = next;
                next += 1;
            }
            doc_ids.push(self.doc_ids[d]);
            doc_start.push(next);
        }
        for list in self.postings.values_mut() {
            let mut units: Vec<u32> = list.iter().map(|u| renumbered[u as usize]).collect();
            units.sort_unstable();
            *list = PostingsList::from_sorted(&units);
        }
        self.doc_ids = doc_ids;
        self.doc_start = doc_start;
    }
}

/// All shards of the collection.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedIndex {
    shards: Vec<SubIndex>,
}

impl ShardedIndex {
    /// Build the index for a document set already labeled with
    /// sub-collection ids. Shards build in parallel: one lane per available
    /// core, shards dealt round-robin, results in shard order. The caller
    /// is the first lane, so a lone core spawns nothing and that lane's
    /// shards live in the allocator arena their owner will free them from.
    pub fn build(documents: &[Document], sub_collections: usize) -> ShardedIndex {
        let build_shard = |c: usize| {
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
        let run_lane = &|lane: usize| -> std::vec::IntoIter<SubIndex> {
            let shards = (lane..sub_collections).step_by(lanes).map(build_shard);
            shards.collect::<Vec<_>>().into_iter()
        };
        let mut built: Vec<_> = std::thread::scope(|scope| {
            let spawned: Vec<_> = (1..lanes)
                .map(|lane| scope.spawn(move || run_lane(lane)))
                .collect();
            let joined = spawned
                .into_iter()
                .map(|h| h.join().expect("an index build lane panicked"));
            std::iter::once(run_lane(0)).chain(joined).collect()
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
    /// affected shard is reopened and fed the new documents; finishing it
    /// moves the old units up past the units of every new document with a
    /// smaller id, so the result is what a full rebuild gives.
    ///
    /// # Panics
    /// When a document's id is already indexed in its shard.
    pub fn add_documents(&mut self, documents: &[Document]) {
        let grow = |shard: SubIndex| {
            let id = shard.id;
            let mut fresh = (documents.iter().filter(|d| d.sub_collection == id)).peekable();
            if fresh.peek().is_none() {
                return shard;
            }
            let mut builder = IndexBuilder::reopen(shard);
            fresh.for_each(|d| builder.add_document(d));
            builder.finish()
        };
        self.shards = std::mem::take(&mut self.shards)
            .into_iter()
            .map(grow)
            .collect();
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
        // Units follow document ids, not feed order: doc 2 owns 0 (title)
        // and 1, doc 5 owns 2 and 3.
        assert_eq!(s.doc_ids(), [DocId::new(2), DocId::new(5)]);
        assert_eq!(s.doc_start(), [0, 2, 4]);
        assert_eq!(s.postings("dog").unwrap().to_vec(), [1, 3]);
        assert_eq!(s.docs_with("dog").collect::<Vec<_>>(), [0, 1]);
    }

    #[test]
    fn a_posting_names_a_text_unit_title_first() {
        let mut b = IndexBuilder::new(SubCollectionId::new(0));
        b.add_document(&Document {
            title: "Cat".into(),
            paragraphs: vec!["dog".into(), String::new(), "cat dog cat".into()],
            ..doc(7, 0, "")
        });
        b.add_document(&doc(9, 0, "dog"));
        let s = b.finish();
        assert_eq!(s.doc_start(), [0, 4, 6]);
        assert_eq!(s.unit_count(), 6);
        assert_eq!(s.unit_doc(), [0, 0, 0, 0, 1, 1]);
        assert_eq!(s.postings("cat").unwrap().to_vec(), [0, 3]);
        assert_eq!(s.postings("dog").unwrap().to_vec(), [1, 3, 5]);
        // Two units of one document are one document.
        assert_eq!((s.doc_freq("cat"), s.doc_freq("dog")), (1, 2));
        assert_eq!(s.term_occurrences(), 6);
    }

    #[test]
    fn feed_order_does_not_show_in_the_index() {
        let c = Corpus::generate(CorpusConfig::small(47)).unwrap();
        let shards = c.config.sub_collections;
        let in_order = ShardedIndex::build(&c.documents, shards);
        let mut shuffled = c.documents.clone();
        shuffled.reverse();
        shuffled.swap(0, 3);
        assert_eq!(ShardedIndex::build(&shuffled, shards), in_order);
    }

    #[test]
    #[should_panic(expected = "document 2 was indexed twice")]
    fn a_document_id_is_indexed_once() {
        let mut b = IndexBuilder::new(SubCollectionId::new(0));
        for d in [doc(5, 0, "dog"), doc(2, 0, "dog"), doc(2, 0, "cat")] {
            b.add_document(&d);
        }
        b.finish();
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
    fn indexes_generated_corpus() {
        let c = Corpus::generate(CorpusConfig::small(44)).unwrap();
        let idx = ShardedIndex::build(&c.documents, c.config.sub_collections);
        assert_eq!(idx.doc_count(), c.documents.len());
        for s in idx.shards() {
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
        assert_eq!(
            crate::encode_index_v2(&incremental),
            crate::encode_index_v2(&full)
        );
        // Old units move up past new documents with smaller ids, too.
        let mut backwards = ShardedIndex::build(&c.documents[split..], c.config.sub_collections);
        backwards.add_documents(&c.documents[..split]);
        assert_eq!(backwards, full);
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
