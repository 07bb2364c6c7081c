//! Document generation with entity planting.

use crate::config::CorpusConfig;
use crate::stats::CorpusStats;
use crate::vocab::Vocabulary;
use nlp::gazetteer::{Gazetteers, QUANTITY_UNITS};
use qa_types::rng::Rng;
use qa_types::{
    AnswerType, DocId, Document, ParagraphId, QaError, SubCollectionId, SubCollectionMeta,
};

/// Verbs used by the sentence templates (real English so text reads
/// plausibly; they index and stem like any other content word).
const VERBS: &[&str] = &[
    "visited",
    "described",
    "reported",
    "examined",
    "built",
    "opened",
    "restored",
    "measured",
    "observed",
    "reviewed",
    "launched",
    "studied",
    "painted",
    "surveyed",
    "documented",
];

/// A ground-truth record: an entity planted into a specific paragraph.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlantedEntity {
    /// Where the entity was planted.
    pub paragraph: ParagraphId,
    /// Sub-collection of the host document.
    pub sub_collection: SubCollectionId,
    /// The entity surface form (e.g. "Lake Korden", "1987", "42 miles").
    pub entity: String,
    /// Its category.
    pub entity_type: AnswerType,
    /// Content words from the same sentence, usable as question keywords.
    pub context_terms: Vec<String>,
}

/// The generated corpus: documents and planted ground truth.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// Generation parameters.
    pub config: CorpusConfig,
    /// All documents; `documents[d].id == DocId(d)`.
    pub documents: Vec<Document>,
    /// Ground truth for question generation.
    pub plants: Vec<PlantedEntity>,
}

impl Corpus {
    /// Generate a corpus. Pure function of the configuration.
    pub fn generate(config: CorpusConfig) -> Result<Corpus, QaError> {
        config.validate().map_err(QaError::InvalidConfig)?;
        let gazetteers = Gazetteers::standard();
        let vocabulary = Vocabulary::generate(&config);

        let mut documents = Vec::with_capacity(config.total_docs());
        let mut plants = Vec::new();
        let mut next_doc = 0u32;

        for coll in 0..config.sub_collections {
            let mut rng = Rng::new(config.seed.wrapping_mul(0x5851_f42d_4c95_7f2d) ^ coll as u64);
            for _ in 0..config.docs_per_collection {
                let doc_id = DocId::new(next_doc);
                next_doc += 1;
                let doc = generate_document(
                    &config,
                    &vocabulary,
                    &gazetteers,
                    coll,
                    doc_id,
                    &mut rng,
                    &mut plants,
                );
                documents.push(doc);
            }
        }

        Ok(Corpus {
            config,
            documents,
            plants,
        })
    }

    /// Look up a document by id.
    pub fn document(&self, id: DocId) -> Option<&Document> {
        self.documents.get(id.index()).filter(|d| d.id == id)
    }

    /// Look up a paragraph's text.
    pub fn paragraph_text(&self, pid: ParagraphId) -> Option<&str> {
        self.document(pid.doc)
            .and_then(|d| d.paragraphs.get(pid.ordinal as usize))
            .map(String::as_str)
    }

    /// Per-sub-collection summary statistics.
    pub fn metas(&self) -> Vec<SubCollectionMeta> {
        let mut metas: Vec<SubCollectionMeta> = (0..self.config.sub_collections)
            .map(|c| SubCollectionMeta {
                id: SubCollectionId::new(c as u32),
                documents: 0,
                paragraphs: 0,
                bytes: 0,
            })
            .collect();
        for d in &self.documents {
            let m = &mut metas[d.sub_collection.index()];
            m.documents += 1;
            m.paragraphs += d.paragraphs.len();
            m.bytes += d.body_bytes();
        }
        metas
    }

    /// Corpus-level statistics.
    pub fn stats(&self) -> CorpusStats {
        CorpusStats::compute(self)
    }

    /// Snapshot for persistence (documents + ground truth + config).
    pub fn snapshot(&self) -> CorpusSnapshot {
        CorpusSnapshot {
            config: self.config.clone(),
            documents: self.documents.clone(),
            plants: self.plants.clone(),
        }
    }

    /// Restore from a snapshot.
    pub fn from_snapshot(snapshot: CorpusSnapshot) -> Result<Corpus, QaError> {
        snapshot.config.validate().map_err(QaError::InvalidConfig)?;
        Ok(Corpus {
            config: snapshot.config,
            documents: snapshot.documents,
            plants: snapshot.plants,
        })
    }
}

/// Serializable corpus state (see [`Corpus::snapshot`]).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CorpusSnapshot {
    /// Generation parameters.
    pub config: CorpusConfig,
    /// All documents.
    pub documents: Vec<Document>,
    /// Ground-truth plants.
    pub plants: Vec<PlantedEntity>,
}

#[allow(clippy::too_many_arguments)]
fn generate_document(
    cfg: &CorpusConfig,
    vocab: &Vocabulary,
    gaz: &Gazetteers,
    coll: usize,
    doc_id: DocId,
    rng: &mut Rng,
    plants: &mut Vec<PlantedEntity>,
) -> Document {
    let sub = SubCollectionId::new(coll as u32);
    let n_paras = count_in(rng, cfg.paragraphs_per_doc);
    let title = format!(
        "Report on the {} {}",
        vocab.sample(coll, rng),
        vocab.sample(coll, rng)
    );

    let mut paragraphs = Vec::with_capacity(n_paras);
    for p in 0..n_paras {
        let pid = ParagraphId::new(doc_id, p as u32);
        let n_sents = count_in(rng, cfg.sentences_per_paragraph);
        let mut text = String::new();
        for s in 0..n_sents {
            if s > 0 {
                text.push(' ');
            }
            let sentence = generate_sentence(cfg, vocab, gaz, coll, pid, sub, rng, plants);
            text.push_str(&sentence);
        }
        paragraphs.push(text);
    }

    Document {
        id: doc_id,
        sub_collection: sub,
        title,
        paragraphs,
    }
}

/// Uniform count in an inclusive `(lo, hi)` configuration pair.
fn count_in(rng: &mut Rng, (lo, hi): (usize, usize)) -> usize {
    rng.range(lo as u64..=hi as u64) as usize
}

/// Pick an entity (surface form + type) to plant.
fn pick_entity(gaz: &Gazetteers, rng: &mut Rng) -> (String, AnswerType) {
    // Weighted mix roughly matching TREC question-type frequencies.
    let roll = rng.f64();
    let ty = if roll < 0.28 {
        AnswerType::Person
    } else if roll < 0.52 {
        AnswerType::Location
    } else if roll < 0.62 {
        AnswerType::Organization
    } else if roll < 0.70 {
        AnswerType::Disease
    } else if roll < 0.76 {
        AnswerType::Nationality
    } else if roll < 0.86 {
        AnswerType::Date
    } else if roll < 0.95 {
        AnswerType::Quantity
    } else {
        AnswerType::Money
    };
    let surface = match ty {
        AnswerType::Date => {
            let year = rng.range(1900..=2000);
            format!("{year}")
        }
        AnswerType::Quantity => {
            let n = rng.range(2..=990);
            let unit = QUANTITY_UNITS[rng.below(QUANTITY_UNITS.len())];
            format!("{n} {unit}")
        }
        AnswerType::Money => {
            let n = rng.range(10..=9000);
            format!("{n} dollars")
        }
        _ => {
            let list = gaz.entities(ty);
            list[rng.below(list.len())].clone()
        }
    };
    (surface, ty)
}

#[allow(clippy::too_many_arguments)]
fn generate_sentence(
    cfg: &CorpusConfig,
    vocab: &Vocabulary,
    gaz: &Gazetteers,
    coll: usize,
    pid: ParagraphId,
    sub: SubCollectionId,
    rng: &mut Rng,
    plants: &mut Vec<PlantedEntity>,
) -> String {
    let w1 = vocab.sample(coll, rng).to_string();
    let w2 = vocab.sample(coll, rng).to_string();
    let w3 = vocab.sample(coll, rng).to_string();
    let verb = *rng.choose(VERBS).expect("non-empty verb list");

    if rng.bool(cfg.entity_density) {
        let (entity, ty) = pick_entity(gaz, rng);
        let sentence = match ty {
            AnswerType::Person | AnswerType::Organization => {
                format!("{entity} {verb} the {w1} {w2} near the {w3}.")
            }
            AnswerType::Location => {
                format!("The {w1} {w2} was {verb} in {entity} beside the {w3}.")
            }
            AnswerType::Date => {
                format!("The {w1} {w2} was {verb} in {entity} by the {w3} council.")
            }
            AnswerType::Quantity => {
                format!("The {w1} {w2} spans {entity} across the {w3} region.")
            }
            AnswerType::Money => {
                format!("The {w1} {w2} cost {entity} according to the {w3} ledger.")
            }
            AnswerType::Nationality => {
                format!("The {entity} {w1} {verb} the {w2} and the {w3}.")
            }
            AnswerType::Disease => {
                format!("The {w1} {w2} outbreak of {entity} affected the {w3}.")
            }
            AnswerType::Definition | AnswerType::Unknown => {
                format!("The {w1} {w2} {verb} the {w3}.")
            }
        };
        plants.push(PlantedEntity {
            paragraph: pid,
            sub_collection: sub,
            entity,
            entity_type: ty,
            context_terms: vec![w1, w2, w3],
        });
        sentence
    } else {
        format!("The {w1} {w2} {verb} the {w3}.")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlp::NamedEntityRecognizer;

    fn corpus() -> Corpus {
        Corpus::generate(CorpusConfig::small(11)).unwrap()
    }

    #[test]
    fn generates_expected_document_count() {
        let c = corpus();
        assert_eq!(c.documents.len(), c.config.total_docs());
        for (i, d) in c.documents.iter().enumerate() {
            assert_eq!(d.id, DocId::new(i as u32));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Corpus::generate(CorpusConfig::small(5)).unwrap();
        let b = Corpus::generate(CorpusConfig::small(5)).unwrap();
        assert_eq!(a.documents, b.documents);
        assert_eq!(a.plants, b.plants);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(CorpusConfig::small(5)).unwrap();
        let b = Corpus::generate(CorpusConfig::small(6)).unwrap();
        assert_ne!(a.documents, b.documents);
    }

    #[test]
    fn sub_collections_partition_documents() {
        let c = corpus();
        // Every document lands in one of the configured sub-collections.
        for d in &c.documents {
            assert!(d.sub_collection.index() < c.config.sub_collections, "{d:?}");
        }
    }

    #[test]
    fn plants_reference_real_paragraphs_containing_entity() {
        let c = corpus();
        assert!(!c.plants.is_empty());
        for plant in c.plants.iter().take(200) {
            let text = c
                .paragraph_text(plant.paragraph)
                .expect("planted paragraph exists");
            assert!(
                text.contains(&plant.entity),
                "paragraph {:?} lacks entity {:?}",
                plant.paragraph,
                plant.entity
            );
        }
    }

    #[test]
    fn planted_entities_are_recoverable_by_ner() {
        let c = corpus();
        let ner = NamedEntityRecognizer::standard();
        let mut checked = 0;
        for plant in c.plants.iter().take(100) {
            let text = c.paragraph_text(plant.paragraph).unwrap();
            let mentions = ner.recognize(text);
            assert!(
                mentions
                    .iter()
                    .any(|m| m.text == plant.entity && m.entity_type == plant.entity_type),
                "NER missed {:?} ({}) in {text:?}",
                plant.entity,
                plant.entity_type
            );
            checked += 1;
        }
        assert!(checked > 50);
    }

    #[test]
    fn metas_are_consistent() {
        let c = corpus();
        let metas = c.metas();
        assert_eq!(metas.len(), c.config.sub_collections);
        let docs: usize = metas.iter().map(|m| m.documents).sum();
        assert_eq!(docs, c.documents.len());
        for m in &metas {
            assert!(m.paragraphs >= m.documents * c.config.paragraphs_per_doc.0);
            assert!(m.bytes > 0);
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut cfg = CorpusConfig::small(0);
        cfg.vocab_size = 1;
        assert!(matches!(
            Corpus::generate(cfg),
            Err(QaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn snapshot_round_trips() {
        let c = corpus();
        let snap = c.snapshot();
        let back = Corpus::from_snapshot(snap).unwrap();
        assert_eq!(back.documents, c.documents);
        assert_eq!(back.plants, c.plants);
        assert_eq!(back.config, c.config);
    }

    #[test]
    fn paragraph_text_bounds() {
        let c = corpus();
        assert!(c
            .paragraph_text(ParagraphId::new(DocId::new(9999), 0))
            .is_none());
        let d0 = &c.documents[0];
        assert!(c
            .paragraph_text(ParagraphId::new(d0.id, d0.paragraphs.len() as u32))
            .is_none());
        assert!(c.paragraph_text(ParagraphId::new(d0.id, 0)).is_some());
    }
}
