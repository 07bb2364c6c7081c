//! The sub-task protocol between question coordinators and worker nodes.

use crate::channel::Sender;
use qa_pipeline::scoring::ScoredParagraph;
use qa_pipeline::{ApItem, PipelineConfig};
use qa_types::ProcessedQuestion;
use qa_types::{Keyword, NodeId, QuestionId, RankedAnswers, SubCollectionId};

/// A sub-task sent to a worker node.
#[derive(Debug, Clone)]
pub enum SubTask {
    /// Run PR + PS over one sub-collection (the paper's PR chunk): Boolean
    /// retrieval, paragraph extraction, then local paragraph scoring.
    PrShard {
        /// Originating question (trace labeling).
        question: QuestionId,
        /// Query keywords.
        keywords: Vec<Keyword>,
        /// Which sub-collection to search.
        shard: SubCollectionId,
        /// Coordinator-issued chunk id, echoed in the result so first-wins
        /// dedup can retire speculative twins and link-level duplicates.
        chunk: u32,
    },
    /// Run AP over a batch of accepted paragraphs.
    ApBatch {
        /// The processed question (answer type + keywords).
        question: ProcessedQuestion,
        /// Paragraphs (with PS ranks) to process.
        items: Vec<ApItem>,
        /// Pipeline knobs (window sizes, answers requested).
        config: PipelineConfig,
        /// Coordinator-issued chunk id (see [`SubTask::PrShard`]).
        chunk: u32,
    },
}

impl SubTask {
    /// Whether this sub-task is disk-dominated (PR) or CPU-dominated (AP) —
    /// drives which load-board counter it bumps (Table 3).
    pub fn is_disk_bound(&self) -> bool {
        matches!(self, SubTask::PrShard { .. })
    }
}

/// A sub-task result returned on the coordinator's reply channel.
#[derive(Debug, Clone)]
pub enum SubTaskResult {
    /// PR+PS output for one shard.
    Paragraphs {
        /// Worker that produced it.
        node: NodeId,
        /// Shard processed.
        shard: SubCollectionId,
        /// Scored paragraphs.
        scored: Vec<ScoredParagraph>,
        /// Chunk id echoed from the sub-task.
        chunk: u32,
    },
    /// AP output for one batch.
    Answers {
        /// Worker that produced it.
        node: NodeId,
        /// Locally ranked best answers.
        answers: RankedAnswers,
        /// How many paragraphs the batch held (trace labeling).
        paragraphs: usize,
        /// Chunk id echoed from the sub-task.
        chunk: u32,
    },
}

impl SubTaskResult {
    /// The worker that sent this result.
    pub fn node(&self) -> NodeId {
        match self {
            SubTaskResult::Paragraphs { node, .. } | SubTaskResult::Answers { node, .. } => *node,
        }
    }

    /// The chunk id the result answers for.
    pub fn chunk(&self) -> u32 {
        match self {
            SubTaskResult::Paragraphs { chunk, .. } | SubTaskResult::Answers { chunk, .. } => {
                *chunk
            }
        }
    }
}

/// A sub-task envelope: work plus the reply channel.
///
/// `Clone` exists for the fault-injecting link layer (message duplication
/// delivers the same envelope twice); the coordinator's dedup-by-chunk-id
/// makes the copy harmless.
#[derive(Debug, Clone)]
pub struct Envelope {
    /// The work.
    pub task: SubTask,
    /// Where to send the result.
    pub reply: Sender<SubTaskResult>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use qa_types::{AnswerType, Question};

    #[test]
    fn disk_bound_classification() {
        let pr = SubTask::PrShard {
            question: QuestionId::new(1),
            keywords: vec![],
            shard: SubCollectionId::new(0),
            chunk: 0,
        };
        assert!(pr.is_disk_bound());
        let ap = SubTask::ApBatch {
            question: ProcessedQuestion {
                question: Question::new(QuestionId::new(1), "x"),
                answer_type: AnswerType::Unknown,
                keywords: vec![],
            },
            items: vec![],
            config: PipelineConfig::default(),
            chunk: 1,
        };
        assert!(!ap.is_disk_bound());
    }

    #[test]
    fn result_node_and_chunk_accessors() {
        let r = SubTaskResult::Answers {
            node: NodeId::new(3),
            answers: RankedAnswers::default(),
            paragraphs: 0,
            chunk: 7,
        };
        assert_eq!(r.node(), NodeId::new(3));
        assert_eq!(r.chunk(), 7);
    }
}
