//! Pipeline tuning parameters.

use ir_engine::RetrievalConfig;
use qa_types::answer::{LONG_ANSWER_BYTES, SHORT_ANSWER_BYTES};

/// Configuration of the sequential pipeline.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PipelineConfig {
    /// Paragraph-retrieval knobs.
    pub retrieval: RetrievalConfig,
    /// PO keeps paragraphs scoring at least this fraction of the best
    /// paragraph's score ("only the paragraphs with a rank over a certain
    /// threshold are passed to the next stage").
    pub po_threshold: f64,
    /// Hard cap on accepted paragraphs (bounds AP work).
    pub max_accepted: usize,
    /// Number of answers requested by the user (`N_a`).
    pub answers_requested: usize,
    /// Answer window size in bytes (50 for TREC short, 250 for long).
    pub answer_bytes: usize,
}

impl PipelineConfig {
    /// TREC "short answer" configuration (50-byte windows).
    pub fn short_answers() -> Self {
        Self {
            answer_bytes: SHORT_ANSWER_BYTES,
            ..Self::default()
        }
    }

    /// TREC "long answer" configuration (250-byte windows).
    pub fn long_answers() -> Self {
        Self {
            answer_bytes: LONG_ANSWER_BYTES,
            ..Self::default()
        }
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            retrieval: RetrievalConfig::default(),
            po_threshold: 0.25,
            max_accepted: 512,
            answers_requested: 5,
            answer_bytes: LONG_ANSWER_BYTES,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_set_answer_bytes() {
        assert_eq!(PipelineConfig::short_answers().answer_bytes, 50);
        assert_eq!(PipelineConfig::long_answers().answer_bytes, 250);
    }

    #[test]
    fn default_is_sane() {
        let c = PipelineConfig::default();
        assert!(c.po_threshold > 0.0 && c.po_threshold < 1.0);
        assert!(c.max_accepted > 0);
        assert!(c.answers_requested > 0);
    }
}
