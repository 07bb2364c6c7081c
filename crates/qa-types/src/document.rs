//! The document / paragraph data model.
//!
//! The Paragraph Retrieval module of the paper operates on documents grouped
//! into *sub-collections* (the TREC-9 collection is split into eight), and
//! the downstream PS/PO/AP modules operate on individual *paragraphs*.

use crate::ids::{DocId, ParagraphId, SubCollectionId};
use serde::{Deserialize, Serialize};

/// A paragraph extracted from a document: the unit of work of PS and AP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Paragraph {
    /// Identity of this paragraph.
    pub id: ParagraphId,
    /// Sub-collection the parent document lives in.
    pub sub_collection: SubCollectionId,
    /// Paragraph text.
    pub text: String,
}

/// A document: a title plus a sequence of paragraphs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Document {
    /// Unique id within the whole collection.
    pub id: DocId,
    /// Sub-collection this document belongs to.
    pub sub_collection: SubCollectionId,
    /// Headline / title line.
    pub title: String,
    /// Body paragraphs, in document order.
    pub paragraphs: Vec<String>,
}

impl Document {
    /// Total body size in bytes.
    pub fn body_bytes(&self) -> usize {
        self.paragraphs.iter().map(String::len).sum()
    }

    /// Iterate the body as [`Paragraph`] values with proper ids.
    pub fn iter_paragraphs(&self) -> impl Iterator<Item = Paragraph> + '_ {
        self.paragraphs
            .iter()
            .enumerate()
            .map(move |(i, text)| Paragraph {
                id: ParagraphId::new(self.id, i as u32),
                sub_collection: self.sub_collection,
                text: text.clone(),
            })
    }
}

/// Summary statistics for one sub-collection, used by the load balancer and
/// by the corpus generator's reporting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubCollectionMeta {
    /// Which sub-collection this describes.
    pub id: SubCollectionId,
    /// Number of documents.
    pub documents: usize,
    /// Number of paragraphs across all documents.
    pub paragraphs: usize,
    /// Total body bytes.
    pub bytes: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_doc() -> Document {
        Document {
            id: DocId::new(4),
            sub_collection: SubCollectionId::new(1),
            title: "Sample".into(),
            paragraphs: vec!["first para".into(), "second para text".into()],
        }
    }

    #[test]
    fn iter_paragraphs_assigns_sequential_ordinals() {
        let doc = sample_doc();
        let paras: Vec<_> = doc.iter_paragraphs().collect();
        assert_eq!(paras.len(), 2);
        assert_eq!(paras[0].id, ParagraphId::new(DocId::new(4), 0));
        assert_eq!(paras[1].id, ParagraphId::new(DocId::new(4), 1));
        assert_eq!(paras[1].text, "second para text");
        assert_eq!(paras[0].sub_collection, SubCollectionId::new(1));
    }

    #[test]
    fn body_bytes_sums_paragraph_lengths() {
        let doc = sample_doc();
        assert_eq!(
            doc.body_bytes(),
            "first para".len() + "second para text".len()
        );
    }
}
