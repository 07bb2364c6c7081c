#![warn(missing_docs)]
//! Shared vocabulary for the `falcon-dqa` workspace.
//!
//! This crate defines the data types exchanged between every subsystem of the
//! distributed question/answering reproduction: questions and answers, the
//! document/paragraph model, the five pipeline modules of the sequential
//! Falcon architecture (Fig. 1 of the paper), resource descriptors used by the
//! load-balancing machinery, and the calibration constants taken from the
//! paper's own measurements (Tables 2, 3 and 8).
//!
//! Everything here is plain data: no I/O, no threads. Higher crates
//! (`ir-engine`, `qa-pipeline`, `cluster-sim`, …) build behaviour on top.
//! The pieces every crate must agree on live here too: the seeded
//! generator ([`rng`]), the nearest-rank percentile ([`stats`]), the CRC-32
//! of every checksummed file ([`crc`]), the FNV-1a of every word-keyed table
//! ([`hash`]), the byte cursor of every
//! hand-written binary format ([`wire`]) and the lock the threaded crates
//! share ([`sync`]).

pub mod answer;
pub mod calibration;
pub mod crc;
pub mod document;
pub mod error;
pub mod federation;
pub mod hash;
pub mod ids;
pub mod modules;
pub mod overload;
pub mod params;
pub mod question;
pub mod resources;
pub mod rng;
pub mod stats;
pub mod sync;
pub mod wire;

pub use answer::{Answer, Coverage, RankedAnswers};
pub use calibration::{ModuleProfile, Trec8Profile, Trec9Profile};
pub use crc::crc32;
pub use document::{Document, Paragraph, SubCollectionMeta};
pub use error::QaError;
pub use federation::{FederationPolicy, ShardReport, ShardStatus};
pub use ids::{DocId, NodeId, ParagraphId, QuestionId, SubCollectionId};
pub use modules::{ModuleTimings, QaModule};
pub use overload::{Offer, OverloadCounts, OverloadPolicy, QuestionOutcome};
pub use params::SystemParams;
pub use question::{AnswerType, Keyword, ProcessedQuestion, Question};
pub use resources::{ResourceVector, ResourceWeights};
