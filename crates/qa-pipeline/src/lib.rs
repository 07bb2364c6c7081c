#![warn(missing_docs)]
//! The sequential Falcon-style question/answering pipeline (Fig. 1).
//!
//! Five modules, in order:
//!
//! 1. **QP** (Question Processing) — answer-type detection + keyword
//!    extraction, delegated to [`nlp::QuestionProcessor`];
//! 2. **PR** (Paragraph Retrieval) — Boolean IR + paragraph extraction,
//!    delegated to [`ir_engine::ParagraphRetriever`];
//! 3. **PS** (Paragraph Scoring) — [`scoring`]: three surface-text
//!    heuristics estimating paragraph relevance from keyword counts and
//!    inter-keyword distance;
//! 4. **PO** (Paragraph Ordering) — [`ordering`]: sort by rank, keep only
//!    paragraphs above a threshold;
//! 5. **AP** (Answer Processing) — [`answer`]: candidate-answer detection,
//!    answer-window construction, scoring with seven heuristics, ranking.
//!
//! Each module is exposed as a standalone function over its own inputs so
//! the distributed runtime can execute *partitions* of PR/PS/AP on
//! different nodes and merge the results — exactly the structure of the
//! paper's Fig. 3 — while [`QaPipeline`] chains them sequentially with
//! per-module timing.

pub mod answer;
pub mod config;
pub mod ordering;
pub mod pipeline;
pub mod scoring;

pub use answer::{extract_answers, ApItem};
pub use config::PipelineConfig;
pub use ordering::order_paragraphs;
pub use pipeline::{PipelineOutput, QaPipeline};
pub use scoring::{score_paragraph, score_paragraphs, ScoredParagraph};
