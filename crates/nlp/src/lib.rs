#![warn(missing_docs)]
//! Natural-language substrate for the distributed Q/A system.
//!
//! The paper's Falcon pipeline relies on an NLP stack (tokenization, named
//! entity recognition, question classification) that is proprietary; this
//! crate provides a from-scratch, deterministic, rule-based equivalent that
//! exercises the same code paths:
//!
//! * [`analyze`] — the one analyser (word spans, lower-casing, stopwords,
//!   stemming; no allocation per token) under everything below, and the
//!   token table NER and answer processing read a paragraph through;
//! * [`tokenize`] — owned tokens collected from it, for callers that keep
//!   them (QP, tests);
//! * [`stopwords`] — the stopword list used for keyword selection;
//! * [`stem`] — a light suffix-stripping stemmer;
//! * [`gazetteer`] — entity lists per answer type, shared between the corpus
//!   generator and the recognizer so planted answers are recoverable;
//! * [`ner`] — gazetteer + pattern named-entity recognition;
//! * [`question`] — the Question Processing (QP) module logic: answer-type
//!   classification and keyword extraction.

pub mod analyze;
pub mod gazetteer;
pub mod ner;
pub mod question;
pub mod stem;
pub mod stopwords;
pub mod tokenize;

pub use analyze::{Analyzer, TokenTable};
pub use gazetteer::Gazetteers;
pub use ner::{EntityMention, MentionRange, NamedEntityRecognizer};
pub use question::QuestionProcessor;
pub use tokenize::{tokenize, Token};
