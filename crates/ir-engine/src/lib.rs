#![warn(missing_docs)]
//! Boolean information-retrieval engine with paragraph extraction.
//!
//! The paper's Paragraph Retrieval module "uses a Boolean Information
//! Retrieval system to identify and extract the documents that contain the
//! previously identified keywords and an additional post-processing phase to
//! extract paragraphs from documents" (§2.1), built on NIST's Zprise. Zprise
//! is not available, so this crate implements the substrate from scratch:
//!
//! * [`terms`] — text → index terms, streamed through the one `nlp`
//!   analyser (word spans, lower-case, drop stopwords, stem);
//! * [`postings`] — delta+varint compressed postings lists; a posting
//!   names a *text unit* (a document's title, then each paragraph);
//! * [`index`] — per-sub-collection inverted indexes ([`SubIndex`]: term →
//!   units, numbered in document-id order, plus each document's first
//!   unit) grouped into a [`ShardedIndex`] (the paper splits TREC-9 into 8
//!   shards), and the hashed [`IndexBuilder`];
//! * [`query`] — per-document match counts and quorum matching, the
//!   document-level view of the unit lists;
//! * [`retrieval`] — the PR module proper: Boolean search with Falcon-style
//!   query relaxation, then paragraph selection, both counted over the
//!   lists (text is read only for the paragraphs returned), with I/O
//!   accounting so the simulator can charge disk time;
//! * [`store`] — a document store resolving ids to text;
//! * [`integrity`] — binary serialization of indexes, the checksummed
//!   `DQAIDX3` segment format: per-shard and per-term-block CRCs and
//!   strict/quarantining/sampled verification.

pub mod index;
pub mod integrity;
mod persist;
pub mod postings;
pub mod query;
pub mod retrieval;
pub mod store;
pub mod terms;

pub use index::{IndexBuilder, ShardedIndex, SubIndex};
pub use integrity::{
    decode_index_auto, decode_index_quarantining, decode_index_v2, encode_index_v2, shard_regions,
    verify_index_v2, verify_sampled, verify_shard, verify_shard_sampled, IntegrityError,
    Quarantine, VerifiedIndex,
};
pub use postings::PostingsList;
pub use retrieval::{ParagraphRetriever, RetrievalConfig, RetrievalResult};
pub use store::DocumentStore;
