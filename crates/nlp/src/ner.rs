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

use crate::gazetteer::{Gazetteers, MONTHS, QUANTITY_UNITS};
use crate::tokenize::{tokenize, Token};
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
        let tokens = tokenize(text);
        self.recognize_tokens(text, &tokens)
    }

    /// As [`recognize`](Self::recognize) but over pre-tokenized input, so the
    /// pipeline can tokenize each paragraph once.
    pub fn recognize_tokens(&self, text: &str, tokens: &[Token]) -> Vec<EntityMention> {
        let mut mentions = Vec::new();
        let mut i = 0usize;
        let mut phrase = String::new();
        while i < tokens.len() {
            // Gazetteer longest match. One probe by first word says whether
            // any entity can start here and how wide it may be; a phrase is
            // only built for those widths.
            let upper = self
                .gazetteers
                .max_phrase_words_from(&tokens[i].text)
                .min(tokens.len() - i);
            let matched = (1..=upper).rev().find_map(|w| {
                phrase.clear();
                for (k, t) in tokens[i..i + w].iter().enumerate() {
                    if k > 0 {
                        phrase.push(' ');
                    }
                    phrase.push_str(&t.text);
                }
                self.gazetteers.classify(&phrase).map(|ty| (w, ty))
            });
            if let Some((w, ty)) = matched {
                mentions.push(self.mention(text, tokens[i].start, tokens[i + w - 1].end, ty));
                i += w;
                continue;
            }

            // Pattern rules.
            if let Some(m) = self.match_pattern(text, tokens, i) {
                let skip = tokens[i..]
                    .iter()
                    .take_while(|t| t.start < m.end)
                    .count()
                    .max(1);
                mentions.push(m);
                i += skip;
                continue;
            }

            i += 1;
        }
        mentions
    }

    fn match_pattern(&self, text: &str, tokens: &[Token], i: usize) -> Option<EntityMention> {
        let t = &tokens[i];
        let next = tokens.get(i + 1);

        let is_number = t.text.chars().all(|c| c.is_ascii_digit()) && !t.text.is_empty();

        if is_number {
            if let Some(n) = next {
                if n.text == "dollars" {
                    return Some(self.mention(text, t.start, n.end, AnswerType::Money));
                }
                if QUANTITY_UNITS.contains(&n.text.as_str()) {
                    return Some(self.mention(text, t.start, n.end, AnswerType::Quantity));
                }
            }
            // Standalone year.
            if t.text.len() == 4 {
                if let Ok(y) = t.text.parse::<u32>() {
                    if (1000..=2100).contains(&y) {
                        return Some(self.mention(text, t.start, t.end, AnswerType::Date));
                    }
                }
            }
        }

        // "May 1987" style month-year or "May 5" month-day dates.
        if MONTHS.contains(&t.text.as_str()) && t.capitalized {
            if let Some(n) = next {
                if n.text.chars().all(|c| c.is_ascii_digit()) && !n.text.is_empty() {
                    return Some(self.mention(text, t.start, n.end, AnswerType::Date));
                }
            }
        }

        None
    }

    fn mention(&self, text: &str, start: usize, end: usize, ty: AnswerType) -> EntityMention {
        EntityMention {
            text: text[start..end].to_string(),
            entity_type: ty,
            start,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// The recognizer before the first-word probe: a phrase built and
    /// looked up for every width (to twice the longest entity) at every token.
    fn recognize_all_widths(ner: &NamedEntityRecognizer, text: &str) -> Vec<EntityMention> {
        let tokens = tokenize(text);
        let g = ner.gazetteers();
        let (mut out, mut i) = (Vec::new(), 0);
        while i < tokens.len() {
            let upper = 6.min(tokens.len() - i);
            let hit = (1..=upper).rev().find_map(|w| {
                let words: Vec<&str> = tokens[i..i + w].iter().map(|t| t.text.as_str()).collect();
                g.classify(&words.join(" ")).map(|ty| (w, ty))
            });
            if let Some((w, ty)) = hit {
                out.push(ner.mention(text, tokens[i].start, tokens[i + w - 1].end, ty));
                i += w;
            } else if let Some(m) = ner.match_pattern(text, &tokens, i) {
                let covered = tokens[i..].iter().take_while(|t| t.start < m.end).count();
                i += covered.max(1);
                out.push(m);
            } else {
                i += 1;
            }
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
    }

    #[test]
    fn empty_text_yields_nothing() {
        assert!(ner().recognize("").is_empty());
    }
}
