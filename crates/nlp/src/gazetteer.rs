//! Entity gazetteers shared by the corpus generator and the recognizer.
//!
//! Falcon's named-entity recognizer is backed by large proprietary word
//! lists. We synthesize deterministic lists instead: the corpus generator
//! plants entities drawn from these lists, and [`crate::ner`] recognizes them
//! by longest-match lookup, so every planted answer is recoverable — which is
//! exactly the property the paper's *timing* experiments need (AP work is
//! proportional to candidate-answer density, not to linguistic accuracy).

use qa_types::hash::FnvBuild;
use qa_types::AnswerType;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Syllables used to synthesize pronounceable proper names.
const SYLLABLES: &[&str] = &[
    "ba", "den", "kor", "mal", "ta", "ri", "ven", "sol", "mar", "lin", "dor", "fa", "gan", "hel",
    "is", "jor", "kel", "lu", "men", "nor", "pol", "qua", "ros", "sen", "tor", "ul", "vas", "wen",
    "xan", "yor", "zel", "bren",
];

/// Deterministically synthesize the `i`-th proper name stem.
///
/// Stems are unique for `i < SYLLABLES.len()^3` and never collide with
/// English function words (every stem has at least two syllables).
pub fn name_stem(i: usize) -> String {
    let n = SYLLABLES.len();
    let mut s = String::new();
    s.push_str(SYLLABLES[i % n]);
    s.push_str(SYLLABLES[(i / n) % n]);
    if i >= n * n {
        s.push_str(SYLLABLES[(i / (n * n)) % n]);
    }
    // Capitalize.
    let mut c = s.chars();
    match c.next() {
        Some(f) => f.to_uppercase().collect::<String>() + c.as_str(),
        None => s,
    }
}

/// Real-world nationality adjectives (closed class, small enough to embed).
const NATIONALITIES: &[&str] = &[
    "Polish",
    "French",
    "German",
    "Italian",
    "Spanish",
    "Romanian",
    "Hungarian",
    "Russian",
    "Japanese",
    "Chinese",
    "Korean",
    "Indian",
    "Australian",
    "Brazilian",
    "Mexican",
    "Canadian",
    "American",
    "British",
    "Irish",
    "Scottish",
    "Dutch",
    "Belgian",
    "Swiss",
    "Austrian",
    "Greek",
    "Turkish",
    "Egyptian",
    "Moroccan",
    "Nigerian",
    "Kenyan",
    "Ethiopian",
    "Argentine",
    "Chilean",
    "Peruvian",
    "Swedish",
    "Norwegian",
    "Danish",
    "Finnish",
    "Icelandic",
    "Portuguese",
    "Czech",
    "Slovak",
    "Croatian",
    "Serbian",
    "Bulgarian",
    "Ukrainian",
    "Vietnamese",
    "Thai",
    "Indonesian",
    "Malaysian",
];

/// Units recognized as QUANTITY heads by the pattern rules.
pub const QUANTITY_UNITS: &[&str] = &[
    "miles",
    "mile",
    "kilometers",
    "kilometer",
    "meters",
    "meter",
    "feet",
    "foot",
    "people",
    "inhabitants",
    "tons",
    "tonnes",
    "percent",
    "years",
    "days",
    "hours",
    "pounds",
    "kilograms",
    "acres",
    "hectares",
    "stories",
    "floors",
];

/// Month names recognized by the DATE pattern rules.
pub const MONTHS: &[&str] = &[
    "january",
    "february",
    "march",
    "april",
    "may",
    "june",
    "july",
    "august",
    "september",
    "october",
    "november",
    "december",
];

/// Entity lists per answer type plus a phrase-lookup table.
#[derive(Debug)]
pub struct Gazetteers {
    by_type: HashMap<AnswerType, Vec<String>>,
    /// Probed once per word of every paragraph AP reads, hence FNV-keyed
    /// ([`qa_types::hash`]); the keys are the lists built below.
    lookup: HashMap<String, AnswerType, FnvBuild>,
    /// First word of a phrase → the longest phrase (in words) starting with
    /// it, so the recognizer asks once per token whether a match can start.
    first_words: HashMap<String, usize, FnvBuild>,
}

impl Gazetteers {
    /// Build the standard gazetteer set. Deterministic: no RNG involved.
    pub fn standard() -> Arc<Gazetteers> {
        static STD: OnceLock<Arc<Gazetteers>> = OnceLock::new();
        STD.get_or_init(|| Arc::new(Self::build(GazetteerSizes::default())))
            .clone()
    }

    /// Build gazetteers with custom per-type sizes (used by tests and by
    /// corpus configurations that want sparser/denser entity spaces).
    pub fn build(sizes: GazetteerSizes) -> Gazetteers {
        let mut by_type: HashMap<AnswerType, Vec<String>> = HashMap::new();

        let persons: Vec<String> = (0..sizes.persons)
            .map(|i| format!("{} {}", name_stem(i), name_stem(i + 7919)))
            .collect();
        let locations: Vec<String> = (0..sizes.locations)
            .map(|i| match i % 4 {
                0 => format!("Lake {}", name_stem(i + 101)),
                1 => format!("Mount {}", name_stem(i + 211)),
                2 => format!("{} City", name_stem(i + 307)),
                _ => name_stem(i + 401),
            })
            .collect();
        let orgs: Vec<String> = (0..sizes.organizations)
            .map(|i| match i % 3 {
                0 => format!("{} Corporation", name_stem(i + 503)),
                1 => format!("University of {}", name_stem(i + 601)),
                _ => format!("{} Institute", name_stem(i + 701)),
            })
            .collect();
        let diseases: Vec<String> = (0..sizes.diseases)
            .map(|i| match i % 3 {
                0 => format!("{} Syndrome", name_stem(i + 809)),
                1 => format!("{} Disease", name_stem(i + 907)),
                _ => format!("{} Fever", name_stem(i + 1009)),
            })
            .collect();
        let nationalities: Vec<String> = NATIONALITIES
            .iter()
            .take(sizes.nationalities)
            .map(|s| s.to_string())
            .collect();

        by_type.insert(AnswerType::Person, persons);
        by_type.insert(AnswerType::Location, locations);
        by_type.insert(AnswerType::Organization, orgs);
        by_type.insert(AnswerType::Disease, diseases);
        by_type.insert(AnswerType::Nationality, nationalities);

        let mut lookup = HashMap::default();
        let mut first_words: HashMap<String, usize, FnvBuild> = HashMap::default();
        // Iterate in AnswerType order, not hash order: an entity present in
        // two lists (e.g. a surname that is also a place) must resolve to
        // the same type on every run, or downstream answer extraction
        // diverges between processes.
        let mut entries: Vec<_> = by_type.iter().collect();
        entries.sort_by_key(|(ty, _)| **ty);
        for (ty, list) in entries {
            for e in list {
                let key = e.to_lowercase();
                let first = key.split(' ').next().unwrap_or_default();
                let longest = first_words.entry(first.to_string()).or_default();
                *longest = (*longest).max(key.split(' ').count());
                lookup.insert(key, *ty);
            }
        }

        Gazetteers {
            by_type,
            lookup,
            first_words,
        }
    }

    /// The entity list for a type (empty slice for pattern-only types like
    /// DATE / QUANTITY / MONEY).
    pub fn entities(&self, ty: AnswerType) -> &[String] {
        self.by_type.get(&ty).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Classify a lower-cased phrase; `None` if it is not a known entity.
    pub fn classify(&self, phrase_lower: &str) -> Option<AnswerType> {
        self.lookup.get(phrase_lower).copied()
    }

    /// Longest entity phrase, in words, whose first word is `first_lower`
    /// (bounds the NER scan window); 0 when no entity starts with it.
    pub fn max_phrase_words_from(&self, first_lower: &str) -> usize {
        self.first_words.get(first_lower).copied().unwrap_or(0)
    }

    /// Types that have a non-empty gazetteer.
    pub fn listed_types(&self) -> impl Iterator<Item = AnswerType> + '_ {
        self.by_type
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(t, _)| *t)
    }

    /// Total number of entity phrases.
    pub fn len(&self) -> usize {
        self.lookup.len()
    }

    /// True when no entities are loaded.
    pub fn is_empty(&self) -> bool {
        self.lookup.is_empty()
    }
}

/// How many entities to synthesize per type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GazetteerSizes {
    /// PERSON entities ("Firstname Lastname").
    pub persons: usize,
    /// LOCATION entities.
    pub locations: usize,
    /// ORGANIZATION entities.
    pub organizations: usize,
    /// DISEASE entities.
    pub diseases: usize,
    /// NATIONALITY entities (capped at the embedded list length).
    pub nationalities: usize,
}

impl Default for GazetteerSizes {
    fn default() -> Self {
        Self {
            persons: 1200,
            locations: 800,
            organizations: 500,
            diseases: 300,
            nationalities: NATIONALITIES.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_stems_are_unique_and_capitalized() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000 {
            let s = name_stem(i);
            assert!(s.chars().next().unwrap().is_uppercase());
            assert!(seen.insert(s), "duplicate stem at {i}");
        }
    }

    #[test]
    fn standard_is_shared_and_nonempty() {
        let a = Gazetteers::standard();
        let b = Gazetteers::standard();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.len() > 2000);
        assert!(!a.is_empty());
    }

    #[test]
    fn classify_round_trips_every_entity() {
        let g = Gazetteers::build(GazetteerSizes {
            persons: 50,
            locations: 40,
            organizations: 30,
            diseases: 20,
            nationalities: 10,
        });
        for ty in [
            AnswerType::Person,
            AnswerType::Location,
            AnswerType::Organization,
            AnswerType::Disease,
            AnswerType::Nationality,
        ] {
            for e in g.entities(ty) {
                assert_eq!(g.classify(&e.to_lowercase()), Some(ty), "entity {e}");
            }
        }
    }

    #[test]
    fn pattern_only_types_have_no_list() {
        let g = Gazetteers::standard();
        assert!(g.entities(AnswerType::Date).is_empty());
        assert!(g.entities(AnswerType::Quantity).is_empty());
        assert!(g.entities(AnswerType::Money).is_empty());
    }

    #[test]
    fn max_phrase_words_covers_multiword_entities() {
        let g = Gazetteers::standard();
        for ty in g.listed_types() {
            for e in g.entities(ty) {
                let key = e.to_lowercase();
                let first = key.split(' ').next().unwrap();
                assert!(g.max_phrase_words_from(first) >= key.split(' ').count());
            }
        }
        assert!(
            g.max_phrase_words_from("university") >= 3,
            "University of X is 3 words"
        );
        assert_eq!(g.max_phrase_words_from("lake"), 2);
        assert_eq!(g.max_phrase_words_from("the"), 0);
    }

    #[test]
    fn unknown_phrases_are_unclassified() {
        let g = Gazetteers::standard();
        assert_eq!(g.classify("completely unknown phrase"), None);
        assert_eq!(g.classify("the"), None);
    }

    #[test]
    fn listed_types_excludes_pattern_types() {
        let g = Gazetteers::standard();
        let types: Vec<_> = g.listed_types().collect();
        assert!(types.contains(&AnswerType::Person));
        assert!(!types.contains(&AnswerType::Date));
    }
}
