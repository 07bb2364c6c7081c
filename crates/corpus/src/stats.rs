//! Corpus-level statistics, used by reports and by benchmark calibration.

use crate::generator::Corpus;
use nlp::tokenize::word_count;

/// Aggregate statistics of a generated corpus.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusStats {
    /// Total documents.
    pub documents: usize,
    /// Total paragraphs.
    pub paragraphs: usize,
    /// Total body bytes.
    pub bytes: usize,
    /// Total word tokens.
    pub words: usize,
    /// Planted entities (ground-truth answers).
    pub plants: usize,
    /// Mean paragraph length in bytes.
    pub mean_paragraph_bytes: f64,
    /// Per-sub-collection byte counts (shows topic-size spread).
    pub bytes_per_collection: Vec<usize>,
}

impl CorpusStats {
    /// Compute statistics for a corpus.
    pub fn compute(corpus: &Corpus) -> CorpusStats {
        let mut paragraphs = 0usize;
        let mut bytes = 0usize;
        let mut words = 0usize;
        let mut per_coll = vec![0usize; corpus.config.sub_collections];
        for d in &corpus.documents {
            paragraphs += d.paragraphs.len();
            let b = d.body_bytes();
            bytes += b;
            per_coll[d.sub_collection.index()] += b;
            for p in &d.paragraphs {
                words += word_count(p);
            }
        }
        CorpusStats {
            documents: corpus.documents.len(),
            paragraphs,
            bytes,
            words,
            plants: corpus.plants.len(),
            mean_paragraph_bytes: if paragraphs == 0 {
                0.0
            } else {
                bytes as f64 / paragraphs as f64
            },
            bytes_per_collection: per_coll,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorpusConfig;

    #[test]
    fn stats_are_consistent_with_metas() {
        let c = Corpus::generate(CorpusConfig::small(33)).unwrap();
        let s = c.stats();
        let metas = c.metas();
        assert_eq!(
            s.documents,
            metas.iter().map(|m| m.documents).sum::<usize>()
        );
        assert_eq!(
            s.paragraphs,
            metas.iter().map(|m| m.paragraphs).sum::<usize>()
        );
        assert_eq!(s.bytes, metas.iter().map(|m| m.bytes).sum::<usize>());
        assert_eq!(s.bytes_per_collection.len(), c.config.sub_collections);
        assert!(s.words > s.paragraphs, "paragraphs contain multiple words");
        assert!(s.mean_paragraph_bytes > 10.0);
        assert_eq!(s.plants, c.plants.len());
    }

    #[test]
    fn collections_have_nonzero_spread() {
        let c = Corpus::generate(CorpusConfig::small(34)).unwrap();
        let s = c.stats();
        assert!(s.bytes_per_collection.iter().all(|&b| b > 0));
    }
}
