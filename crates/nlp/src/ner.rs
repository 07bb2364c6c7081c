//! Named-entity recognition: gazetteer longest-match plus pattern rules.
//!
//! The Answer Processing module of the paper detects *candidate answers* —
//! lexico-semantic entities of the question's answer type — inside
//! paragraphs. This recognizer provides that capability:
//!
//! * gazetteer entities (PERSON, LOCATION, ORGANIZATION, DISEASE,
//!   NATIONALITY) are found by longest-match over token windows;
//! * DATE is matched by year/month patterns;
//! * QUANTITY by `number unit` patterns;
//! * MONEY by `number dollars` patterns.

use crate::analyze::TokenTable;
use crate::gazetteer::{Gazetteers, MONTHS, QUANTITY_UNITS};
use qa_types::AnswerType;
use std::sync::Arc;

/// An entity occurrence inside a text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EntityMention {
    /// The original-case entity text.
    pub text: String,
    /// Recognized category.
    pub entity_type: AnswerType,
    /// Byte offset of the mention start in the source text.
    pub start: usize,
    /// Byte offset one past the mention end.
    pub end: usize,
}

/// An entity occurrence as a range of a [`TokenTable`]'s words: what the
/// recognizer finds before anyone asks for the text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MentionRange {
    /// Index of the mention's first word.
    pub first: usize,
    /// Index of its last word.
    pub last: usize,
    /// Recognized category.
    pub entity_type: AnswerType,
}

/// Gazetteer+pattern recognizer.
#[derive(Debug, Clone)]
pub struct NamedEntityRecognizer {
    gazetteers: Arc<Gazetteers>,
}

impl NamedEntityRecognizer {
    /// Build a recognizer over a gazetteer set.
    pub fn new(gazetteers: Arc<Gazetteers>) -> Self {
        Self { gazetteers }
    }

    /// Build a recognizer over the standard gazetteers.
    pub fn standard() -> Self {
        Self::new(Gazetteers::standard())
    }

    /// The backing gazetteers.
    pub fn gazetteers(&self) -> &Arc<Gazetteers> {
        &self.gazetteers
    }

    /// Find all entity mentions in `text`, left to right, non-overlapping
    /// (longest match wins at each position).
    pub fn recognize(&self, text: &str) -> Vec<EntityMention> {
        let mut table = TokenTable::default();
        table.fill(text);
        let mut ranges = Vec::new();
        self.recognize_in(&table, &mut ranges);
        let owned = |m: &MentionRange| {
            let (start, end) = (table.span(m.first).start, table.span(m.last).end);
            EntityMention {
                text: text[start..end].to_string(),
                entity_type: m.entity_type,
                start,
                end,
            }
        };
        ranges.iter().map(owned).collect()
    }

    /// As [`recognize`](Self::recognize) over a filled table, replacing the
    /// content of `out`: the pipeline fills one table per paragraph and
    /// nothing is allocated per mention.
    pub fn recognize_in(&self, table: &TokenTable, out: &mut Vec<MentionRange>) {
        out.clear();
        let mut i = 0usize;
        while i < table.len() {
            // Gazetteer longest match. One probe by first word says whether
            // any entity can start here and how wide it may be; a phrase of
            // that many words is a slice of the table.
            let upper = self
                .gazetteers
                .max_phrase_words_from(table.lower(i))
                .min(table.len() - i);
            let gazetteer = |w: usize| Some((w, self.gazetteers.classify(table.phrase(i, w))?));
            let matched = (1..=upper).rev().find_map(gazetteer);
            match matched.or_else(|| match_pattern(table, i)) {
                Some((words, entity_type)) => {
                    out.push(MentionRange {
                        first: i,
                        last: i + words - 1,
                        entity_type,
                    });
                    i += words;
                }
                None => i += 1,
            }
        }
    }
}

fn is_number(word: &str) -> bool {
    !word.is_empty() && word.bytes().all(|b| b.is_ascii_digit())
}

/// The pattern rules at word `i`: how many words match, and as what.
fn match_pattern(table: &TokenTable, i: usize) -> Option<(usize, AnswerType)> {
    let word = table.lower(i);
    let next = (i + 1 < table.len()).then(|| table.lower(i + 1));

    if is_number(word) {
        match next {
            Some("dollars") => return Some((2, AnswerType::Money)),
            Some(unit) if QUANTITY_UNITS.contains(&unit) => {
                return Some((2, AnswerType::Quantity));
            }
            _ => {}
        }
        // Standalone year.
        let year = |y: u32| (1000..=2100).contains(&y);
        if word.len() == 4 && word.parse().is_ok_and(year) {
            return Some((1, AnswerType::Date));
        }
    }

    // "May 1987" style month-year or "May 5" month-day dates.
    if table.span(i).capitalized && MONTHS.contains(&word) && next.is_some_and(is_number) {
        return Some((2, AnswerType::Date));
    }

    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokenize::tokenize;

    fn ner() -> NamedEntityRecognizer {
        NamedEntityRecognizer::standard()
    }

    #[test]
    fn recognizes_planted_person() {
        let g = Gazetteers::standard();
        let person = &g.entities(AnswerType::Person)[3];
        let text = format!("Yesterday {person} visited the market.");
        let ms = ner().recognize(&text);
        assert!(ms
            .iter()
            .any(|m| m.entity_type == AnswerType::Person && &m.text == person));
    }

    #[test]
    fn longest_match_wins() {
        // "University of X" must match as one ORGANIZATION, not leave "X"
        // to match as something else.
        let g = Gazetteers::standard();
        let org = g
            .entities(AnswerType::Organization)
            .iter()
            .find(|e| e.starts_with("University of "))
            .unwrap();
        let text = format!("She joined {org} last year.");
        let ms = ner().recognize(&text);
        let m = ms
            .iter()
            .find(|m| m.entity_type == AnswerType::Organization)
            .expect("organization found");
        assert_eq!(&m.text, org);
    }

    #[test]
    fn year_pattern() {
        let ms = ner().recognize("during a 1987 tour of the country");
        assert!(ms
            .iter()
            .any(|m| m.entity_type == AnswerType::Date && m.text == "1987"));
    }

    #[test]
    fn quantity_and_money_patterns() {
        let ms = ner().recognize("a wall 42 miles long that cost 900 dollars");
        assert!(ms
            .iter()
            .any(|m| m.entity_type == AnswerType::Quantity && m.text == "42 miles"));
        assert!(ms
            .iter()
            .any(|m| m.entity_type == AnswerType::Money && m.text == "900 dollars"));
    }

    #[test]
    fn month_day_pattern() {
        let ms = ner().recognize("It happened on March 15 in the capital.");
        assert!(ms
            .iter()
            .any(|m| m.entity_type == AnswerType::Date && m.text == "March 15"));
    }

    #[test]
    fn lowercase_month_not_a_date() {
        // "may" as auxiliary verb must not trigger the month rule.
        let ms = ner().recognize("it may 15 percent improve");
        assert!(!ms.iter().any(|m| m.entity_type == AnswerType::Date));
    }

    #[test]
    fn mentions_do_not_overlap_and_are_ordered() {
        let g = Gazetteers::standard();
        let p0 = &g.entities(AnswerType::Person)[0];
        let l0 = &g.entities(AnswerType::Location)[0];
        let text = format!("{p0} went to {l0} in 1999.");
        let ms = ner().recognize(&text);
        for w in ms.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {w:?}");
        }
        assert_eq!(ms.len(), 3);
    }

    /// The recognizer before the first-word probe and before the table: a
    /// phrase built from owned tokens and looked up for every width (to
    /// twice the longest entity) at every token.
    fn recognize_all_widths(ner: &NamedEntityRecognizer, text: &str) -> Vec<EntityMention> {
        let tokens = tokenize(text);
        let mut table = TokenTable::default();
        table.fill(text);
        let g = ner.gazetteers();
        let (mut out, mut i) = (Vec::new(), 0);
        while i < tokens.len() {
            let upper = 6.min(tokens.len() - i);
            let hit = (1..=upper).rev().find_map(|w| {
                let words: Vec<&str> = tokens[i..i + w].iter().map(|t| t.text.as_str()).collect();
                g.classify(&words.join(" ")).map(|ty| (w, ty))
            });
            let Some((w, entity_type)) = hit.or_else(|| match_pattern(&table, i)) else {
                i += 1;
                continue;
            };
            let (start, end) = (tokens[i].start, tokens[i + w - 1].end);
            out.push(EntityMention {
                text: text[start..end].to_string(),
                entity_type,
                start,
                end,
            });
            i += w;
        }
        out
    }

    #[test]
    fn first_word_probe_finds_what_every_width_finds() {
        let ner = ner();
        let corpus = corpus::Corpus::generate(corpus::CorpusConfig::small(31)).unwrap();
        let mut mentions = 0;
        for doc in &corpus.documents {
            for text in doc.paragraphs.iter().chain([&doc.title]) {
                let got = ner.recognize(text);
                assert_eq!(got, recognize_all_widths(&ner, text), "{text:?}");
                mentions += got.len();
            }
        }
        assert!(mentions > 200, "only {mentions} mentions compared");
        // Entity prefixes, overlaps and a first word that starts nothing.
        let g = Gazetteers::standard();
        let org = &g.entities(AnswerType::Organization)[1];
        for text in [
            format!("University of nowhere and {org} of 1999 dollars"),
            format!("Lake Lake Mount {org} City"),
            "of University of".to_string(),
        ] {
            assert_eq!(ner.recognize(&text), recognize_all_widths(&ner, &text));
        }
        // Hostile text with entities, numbers and months spliced in.
        let entities: Vec<&String> = (g.listed_types().flat_map(|ty| g.entities(ty))).collect();
        qa_types::rng::cases(0x6e65_7201, 300, |rng| {
            let mut text = String::new();
            for _ in 0..rng.below(6) {
                text.push_str(&rng.text(0..=20));
                let entity = entities[rng.below(entities.len())];
                match rng.below(4) {
                    0 => text.push_str(entity),
                    1 => text.push_str(&entity.to_uppercase()),
                    2 => text.push_str(" March 15, 1987 or 40 miles for 9 dollars"),
                    _ => text.push(' '),
                }
            }
            assert_eq!(ner.recognize(&text), recognize_all_widths(&ner, &text));
        });
    }

    #[test]
    fn empty_text_yields_nothing() {
        assert!(ner().recognize("").is_empty());
    }
}
