//! Answer Processing (AP): candidate detection, answer windows, ranking.
//!
//! Per the paper (§2.1): "Answer processing starts with the identification
//! of candidate answers within paragraphs. Candidate answers are
//! lexico-semantic entities with the same type as the question answer type.
//! Around the candidate answers the system builds answer windows … Each
//! window is assigned a score which is a combination of seven heuristics."
//!
//! The seven heuristics implemented here mirror the frequency/distance
//! metrics of LASSO/Falcon:
//!
//! 1. keyword coverage inside the window;
//! 2. keyword order agreement with the question;
//! 3. candidate-to-keyword proximity;
//! 4. keyword density inside the window;
//! 5. keyword coverage of the whole paragraph;
//! 6. the paragraph's PS rank;
//! 7. candidate specificity (multi-word entities are more specific).
//!
//! A paragraph is read through one [`TokenTable`] the batch keeps: NER, the
//! keyword matcher and the windows all work on word indices, a candidate and
//! its window stay slices of the paragraph text, and an [`Answer`] is built
//! only for the `answers_requested` windows that survive the ranking.

use crate::config::PipelineConfig;
use nlp::analyze::{FirstBytes, TokenTable};
use nlp::ner::{MentionRange, NamedEntityRecognizer};
use nlp::Analyzer;
use qa_types::hash::FnvBuild;
use qa_types::{Answer, AnswerType, Paragraph, ParagraphId, ProcessedQuestion, RankedAnswers};
use std::collections::hash_map::{Entry, HashMap};

/// One unit of AP work: a paragraph plus its PS rank.
///
/// AP items arrive sorted by decreasing rank from PO — the property the
/// ISEND partitioning algorithm relies on ("the input data is an array
/// sorted in descending order of the sub-task granularities").
#[derive(Debug, Clone, PartialEq)]
pub struct ApItem {
    /// The accepted paragraph.
    pub paragraph: Paragraph,
    /// PS rank (heuristic 6); PS scores are already in `[0, 1]`, so the
    /// rank is used directly — batch-relative normalization would make
    /// partitioned AP disagree with sequential AP.
    pub rank: f64,
}

/// Answer-window radius in tokens around the candidate.
const WINDOW_TOKENS: usize = 10;

/// Heuristic weights; they sum to 1.
const W: [f64; 7] = [0.24, 0.10, 0.18, 0.10, 0.12, 0.16, 0.10];

/// A candidate's best answer window so far, borrowed from its paragraph.
struct Window<'a> {
    paragraph: ParagraphId,
    score: f64,
    /// The whole window, not yet cut to `answer_bytes`.
    text: &'a str,
}

impl Window<'_> {
    /// The key of [`Answer::by_rank`].
    fn rank(&self) -> (f64, ParagraphId) {
        (self.score, self.paragraph)
    }
}

/// Extract and rank answers from a batch of accepted paragraphs.
///
/// This is the unit of AP partitioning: each partition runs
/// `extract_answers` over its paragraph subset and returns its local best
/// `answers_requested` answers; the initiating node merges with
/// [`RankedAnswers::merge`].
pub fn extract_answers(
    items: &[ApItem],
    question: &ProcessedQuestion,
    ner: &NamedEntityRecognizer,
    cfg: &PipelineConfig,
) -> RankedAnswers {
    let mut best: HashMap<&str, Window<'_>, FnvBuild> = HashMap::default();
    let mut reader = ParagraphReader::new(question);
    let mut mentions: Vec<MentionRange> = Vec::new();
    let any_type = matches!(
        question.answer_type,
        AnswerType::Definition | AnswerType::Unknown
    );

    for item in items {
        let text = item.paragraph.text.as_str();
        // A window with no keyword support is not an answer, so a paragraph
        // without a keyword has none.
        if !reader.read(text, item.rank) {
            continue;
        }
        ner.recognize_in(&reader.table, &mut mentions);
        for m in &mentions {
            if !any_type && m.entity_type != question.answer_type {
                continue;
            }
            let lo = m.first.saturating_sub(WINDOW_TOKENS);
            let hi = (m.last + WINDOW_TOKENS).min(reader.table.len() - 1);
            let slice = |first: usize, last: usize| {
                &text[reader.table.span(first).start..reader.table.span(last).end]
            };
            let (candidate, window) = (slice(m.first, m.last), slice(lo, hi));
            let score = reader.score_window(lo, hi, m, candidate);
            if score <= 0.0 {
                continue;
            }
            let found = Window {
                paragraph: item.paragraph.id,
                score,
                text: window,
            };
            match best.entry(candidate) {
                Entry::Occupied(mut cur) => {
                    if Answer::by_rank(found.rank(), cur.get().rank()).is_lt() {
                        cur.insert(found);
                    }
                }
                Entry::Vacant(slot) => {
                    slot.insert(found);
                }
            }
        }
    }

    // Only the windows that leave the node are cut and copied; the final
    // order is `from_unsorted`'s.
    let mut ranked: Vec<(&str, Window<'_>)> = best.into_iter().collect();
    ranked.sort_by(|(a_text, a), (b_text, b)| {
        Answer::by_rank(a.rank(), b.rank()).then_with(|| a_text.cmp(b_text))
    });
    ranked.truncate(cfg.answers_requested);
    let answers = ranked.into_iter().map(|(candidate, w)| Answer {
        paragraph: w.paragraph,
        candidate: candidate.to_string(),
        text: cut(w.text, cfg.answer_bytes).to_string(),
        score: w.score,
    });
    RankedAnswers {
        answers: answers.collect(),
    }
}

/// The question's keywords and the buffers AP reuses from paragraph to
/// paragraph: the current paragraph as a token table plus where the
/// keywords occur in it.
struct ParagraphReader<'q> {
    keywords: Vec<&'q str>,
    first: FirstBytes,
    table: TokenTable,
    analyzer: Analyzer,
    /// `(token position, keyword)` of every keyword occurrence, in text order.
    hits: Vec<(usize, usize)>,
    /// Per-keyword scratch of [`distinct`].
    seen: Vec<bool>,
    /// Heuristic 5: the share of the keywords the paragraph mentions.
    coverage: f64,
    /// Heuristic 6: the paragraph's PS rank, clamped to `[0, 1]`.
    rank: f64,
}

impl<'q> ParagraphReader<'q> {
    fn new(question: &'q ProcessedQuestion) -> Self {
        let keywords: Vec<&str> = question.keywords.iter().map(|k| k.term.as_str()).collect();
        Self {
            first: FirstBytes::of(keywords.iter().copied()),
            seen: vec![false; keywords.len()],
            keywords,
            table: TokenTable::default(),
            analyzer: Analyzer::default(),
            hits: Vec::new(),
            coverage: 0.0,
            rank: 0.0,
        }
    }

    /// Make `text` the current paragraph; false when it holds no keyword.
    fn read(&mut self, text: &str, rank: f64) -> bool {
        self.table.fill(text);
        self.hits.clear();
        for i in 0..self.table.len() {
            let lower = self.table.lower(i);
            if !self.first.may_start(lower) {
                continue;
            }
            let stemmed = self.analyzer.stem_lowered(lower);
            if let Some(k) = self.keywords.iter().position(|kw| *kw == stemmed) {
                self.hits.push((i, k));
            }
        }
        let present = distinct(&self.hits, &mut self.seen);
        self.coverage = present as f64 / self.keywords.len().max(1) as f64;
        self.rank = rank.clamp(0.0, 1.0);
        present > 0
    }

    /// The seven heuristics over the window `lo ..= hi` (token positions)
    /// around mention `m`; 0 for a window without a keyword.
    fn score_window(&mut self, lo: usize, hi: usize, m: &MentionRange, candidate: &str) -> f64 {
        // Keyword occurrences inside the window, in text order.
        let from = self.hits.partition_point(|&(p, _)| p < lo);
        let to = self.hits.partition_point(|&(p, _)| p <= hi);
        let in_window = &self.hits[from..to];
        let distinct_in_window = distinct(in_window, &mut self.seen);
        if distinct_in_window == 0 {
            return 0.0;
        }

        // h1: coverage in window.
        let h1 = distinct_in_window as f64 / self.keywords.len().max(1) as f64;

        // h2: order agreement — fraction of adjacent pairs in question order.
        let h2 = if in_window.len() >= 2 {
            let ordered = in_window.windows(2).filter(|w| w[0].1 <= w[1].1).count();
            ordered as f64 / (in_window.len() - 1) as f64
        } else {
            0.0
        };

        // h3: proximity of keywords to candidate.
        let gap = |&(p, _): &(usize, usize)| {
            let d = if p < m.first {
                m.first - p
            } else {
                p.saturating_sub(m.last)
            };
            d as f64
        };
        let avg = in_window.iter().map(gap).sum::<f64>() / in_window.len() as f64;
        let h3 = 1.0 / (1.0 + avg / 4.0);

        // h4: density in window.
        let h4 = (in_window.len() as f64 / (hi - lo + 1) as f64).min(1.0);

        // h7: candidate specificity (multi-word entities are more specific).
        let h7 = candidate.split_whitespace().take(3).count() as f64 / 3.0;

        let (h5, h6) = (self.coverage, self.rank);
        W[0] * h1 + W[1] * h2 + W[2] * h3 + W[3] * h4 + W[4] * h5 + W[5] * h6 + W[6] * h7
    }
}

/// How many distinct keywords `hits` mention; `seen` is per-keyword scratch.
fn distinct(hits: &[(usize, usize)], seen: &mut [bool]) -> usize {
    seen.fill(false);
    let mut n = 0;
    for &(_, k) in hits {
        n += usize::from(!std::mem::replace(&mut seen[k], true));
    }
    n
}

/// `window` truncated to `max_bytes` at a character boundary.
fn cut(window: &str, max_bytes: usize) -> &str {
    let mut end = max_bytes.min(window.len());
    while !window.is_char_boundary(end) {
        end -= 1;
    }
    &window[..end]
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlp::gazetteer::Gazetteers;
    use nlp::tokenize::{tokenize, Token};
    use nlp::QuestionProcessor;
    use qa_types::rng::{cases, Rng};
    use qa_types::{DocId, Keyword, Question, QuestionId, SubCollectionId};

    fn para(doc: u32, text: &str) -> Paragraph {
        Paragraph {
            id: ParagraphId::new(DocId::new(doc), 0),
            sub_collection: SubCollectionId::new(0),
            text: text.to_string(),
        }
    }

    fn pq(text: &str) -> ProcessedQuestion {
        QuestionProcessor::new()
            .process(&Question::new(QuestionId::new(1), text))
            .unwrap()
    }

    fn location() -> String {
        Gazetteers::standard().entities(AnswerType::Location)[5].clone()
    }

    #[test]
    fn finds_planted_answer_of_matching_type() {
        let loc = location();
        let q = pq("Where is the granite quarry ledge?");
        let items = vec![ApItem {
            paragraph: para(0, &format!("The granite quarry ledge sits in {loc} today.")),
            rank: 1.0,
        }];
        let ans = extract_answers(
            &items,
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        assert!(!ans.is_empty());
        assert_eq!(ans.best().unwrap().candidate, loc);
    }

    #[test]
    fn rejects_wrong_entity_type() {
        let q = pq("Where is the granite quarry ledge?");
        // Paragraph mentions a year (DATE), not a location.
        let items = vec![ApItem {
            paragraph: para(0, "The granite quarry ledge opened in 1950."),
            rank: 1.0,
        }];
        let ans = extract_answers(
            &items,
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        assert!(ans.is_empty());
    }

    #[test]
    fn candidate_without_keyword_support_is_dropped() {
        let loc = location();
        let q = pq("Where is the granite quarry ledge?");
        // Entity present but zero question keywords anywhere near it.
        let filler = "unrelated words only ".repeat(20);
        let items = vec![ApItem {
            paragraph: para(0, &format!("{filler} {loc} {filler}")),
            rank: 1.0,
        }];
        let ans = extract_answers(
            &items,
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        assert!(ans.is_empty());
    }

    #[test]
    fn closer_keywords_score_higher() {
        let loc = location();
        let q = pq("Where is the granite quarry ledge?");
        let near = vec![ApItem {
            paragraph: para(0, &format!("The granite quarry ledge is in {loc}.")),
            rank: 1.0,
        }];
        let far = vec![ApItem {
            paragraph: para(
                1,
                &format!(
                    "granite quarry ledge. {} In the end we reached {loc}.",
                    "filler words abound here truly. ".repeat(3)
                ),
            ),
            rank: 1.0,
        }];
        let ner = NamedEntityRecognizer::standard();
        let cfg = PipelineConfig::default();
        let a = extract_answers(&near, &q, &ner, &cfg);
        let b = extract_answers(&far, &q, &ner, &cfg);
        assert!(!a.is_empty());
        let sa = a.best().unwrap().score;
        let sb = b.best().map(|x| x.score).unwrap_or(0.0);
        assert!(sa > sb, "{sa} vs {sb}");
    }

    #[test]
    fn answer_text_respects_byte_budget() {
        let loc = location();
        let q = pq("Where is the granite quarry ledge?");
        let items = vec![ApItem {
            paragraph: para(
                0,
                &format!("The granite quarry ledge near {loc} extends over many words and keeps going with more description."),
            ),
            rank: 1.0,
        }];
        let cfg = PipelineConfig::short_answers();
        let ans = extract_answers(&items, &q, &NamedEntityRecognizer::standard(), &cfg);
        let best = ans.best().unwrap();
        assert!(best.text.len() <= 50, "{} bytes", best.text.len());
    }

    #[test]
    fn keeps_at_most_requested_answers() {
        let g = Gazetteers::standard();
        let q = pq("Where is the granite quarry ledge?");
        let items: Vec<ApItem> = (0..10)
            .map(|i| {
                let loc = &g.entities(AnswerType::Location)[i];
                ApItem {
                    paragraph: para(i as u32, &format!("The granite quarry ledge is in {loc}.")),
                    rank: 1.0 - i as f64 * 0.05,
                }
            })
            .collect();
        let cfg = PipelineConfig {
            answers_requested: 3,
            ..PipelineConfig::default()
        };
        let ans = extract_answers(&items, &q, &NamedEntityRecognizer::standard(), &cfg);
        assert_eq!(ans.len(), 3);
    }

    #[test]
    fn higher_ranked_paragraph_wins_ties() {
        let loc = location();
        let q = pq("Where is the granite quarry ledge?");
        let text = format!("The granite quarry ledge is in {loc}.");
        let items = vec![
            ApItem {
                paragraph: para(0, &text),
                rank: 0.2,
            },
            ApItem {
                paragraph: para(1, &text),
                rank: 1.0,
            },
        ];
        let ans = extract_answers(
            &items,
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        // Same candidate in both: deduped, and the surviving answer is the
        // higher-ranked paragraph's.
        assert_eq!(ans.len(), 1);
        assert_eq!(ans.best().unwrap().paragraph.doc, DocId::new(1));
    }

    #[test]
    fn definition_questions_accept_any_entity() {
        let q = ProcessedQuestion {
            question: Question::new(QuestionId::new(2), "What is a ledge?"),
            answer_type: AnswerType::Definition,
            keywords: vec![Keyword::new("ledge", 1.0)],
        };
        let items = vec![ApItem {
            paragraph: para(0, "The ledge was surveyed in 1984."),
            rank: 1.0,
        }];
        let ans = extract_answers(
            &items,
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        assert!(!ans.is_empty());
    }

    #[test]
    fn empty_items_empty_answers() {
        let q = pq("Where is the granite quarry ledge?");
        let ans = extract_answers(
            &[],
            &q,
            &NamedEntityRecognizer::standard(),
            &PipelineConfig::default(),
        );
        assert!(ans.is_empty());
    }

    /// AP as it was before the token table: owned tokens, owned mentions,
    /// every token lower-cased and stemmed again, an `Answer` per candidate.
    /// Kept as the oracle the borrowed path must equal bit for bit.
    fn extract_answers_owned(
        items: &[ApItem],
        question: &ProcessedQuestion,
        ner: &NamedEntityRecognizer,
        cfg: &PipelineConfig,
    ) -> RankedAnswers {
        let mut best: HashMap<String, Answer> = HashMap::new();
        let mut analyzer = Analyzer::default();
        for item in items {
            for ans in candidates_owned(item, question, ner, cfg, &mut analyzer) {
                match best.get_mut(&ans.candidate) {
                    Some(cur) if !Answer::better(&ans, cur) => {}
                    Some(cur) => *cur = ans,
                    None => {
                        best.insert(ans.candidate.clone(), ans);
                    }
                }
            }
        }
        RankedAnswers::from_unsorted(best.into_values().collect(), cfg.answers_requested)
    }

    fn candidates_owned(
        item: &ApItem,
        question: &ProcessedQuestion,
        ner: &NamedEntityRecognizer,
        cfg: &PipelineConfig,
        analyzer: &mut Analyzer,
    ) -> Vec<Answer> {
        let text = &item.paragraph.text;
        let tokens = tokenize(text);
        if tokens.is_empty() {
            return Vec::new();
        }
        let kw_terms: Vec<&str> = question.keywords.iter().map(|k| k.term.as_str()).collect();
        let mut kw_pos = vec![Vec::new(); kw_terms.len()];
        for (i, t) in tokens.iter().enumerate() {
            let stemmed = analyzer.normalize(&t.text);
            if let Some(k) = kw_terms.iter().position(|kt| *kt == stemmed) {
                kw_pos[k].push(i);
            }
        }
        let paragraph_coverage =
            kw_pos.iter().filter(|p| !p.is_empty()).count() as f64 / kw_terms.len().max(1) as f64;

        let mut out = Vec::new();
        for m in ner.recognize(text) {
            let type_ok = match question.answer_type {
                AnswerType::Definition | AnswerType::Unknown => true,
                t => m.entity_type == t,
            };
            if !type_ok {
                continue;
            }
            let c_first = tokens.iter().position(|t| t.start >= m.start).unwrap_or(0);
            let c_last = tokens.iter().rposition(|t| t.end <= m.end);
            let c_last = c_last.unwrap_or(c_first).max(c_first);
            let win_lo = c_first.saturating_sub(WINDOW_TOKENS);
            let win_hi = (c_last + WINDOW_TOKENS).min(tokens.len() - 1);
            let score = score_window_owned(
                &kw_pos,
                (win_lo, win_hi),
                (c_first, c_last),
                paragraph_coverage,
                item.rank.clamp(0.0, 1.0),
                &m.text,
            );
            if score <= 0.0 {
                continue;
            }
            out.push(Answer {
                paragraph: item.paragraph.id,
                text: answer_span_owned(text, &tokens, win_lo, win_hi, cfg.answer_bytes),
                candidate: m.text,
                score,
            });
        }
        out
    }

    fn score_window_owned(
        kw_pos: &[Vec<usize>],
        (win_lo, win_hi): (usize, usize),
        (c_first, c_last): (usize, usize),
        paragraph_coverage: f64,
        rank: f64,
        candidate_text: &str,
    ) -> f64 {
        let n_kw = kw_pos.len().max(1);
        let mut in_window: Vec<(usize, usize)> = Vec::new(); // (token pos, kw index)
        for (k, ps) in kw_pos.iter().enumerate() {
            for &p in ps {
                if p >= win_lo && p <= win_hi {
                    in_window.push((p, k));
                }
            }
        }
        in_window.sort_unstable();
        let distinct_in_window = {
            let mut ks: Vec<usize> = in_window.iter().map(|&(_, k)| k).collect();
            ks.sort_unstable();
            ks.dedup();
            ks.len()
        };
        let h1 = distinct_in_window as f64 / n_kw as f64;
        let h2 = if in_window.len() >= 2 {
            let pairs = in_window.windows(2).count();
            let ordered = in_window.windows(2).filter(|w| w[0].1 <= w[1].1).count();
            ordered as f64 / pairs as f64
        } else {
            0.0
        };
        let h3 = if in_window.is_empty() {
            0.0
        } else {
            let total: f64 = in_window
                .iter()
                .map(|&(p, _)| {
                    let d = if p < c_first {
                        c_first - p
                    } else {
                        p.saturating_sub(c_last)
                    };
                    d as f64
                })
                .sum();
            let avg = total / in_window.len() as f64;
            1.0 / (1.0 + avg / 4.0)
        };
        let win_len = (win_hi - win_lo + 1).max(1);
        let h4 = (in_window.len() as f64 / win_len as f64).min(1.0);
        let h5 = paragraph_coverage;
        let h6 = rank.clamp(0.0, 1.0);
        let words = candidate_text.split_whitespace().count();
        let h7 = (words.min(3) as f64) / 3.0;
        if distinct_in_window == 0 {
            return 0.0;
        }
        W[0] * h1 + W[1] * h2 + W[2] * h3 + W[3] * h4 + W[4] * h5 + W[5] * h6 + W[6] * h7
    }

    fn answer_span_owned(
        text: &str,
        tokens: &[Token],
        win_lo: usize,
        win_hi: usize,
        max_bytes: usize,
    ) -> String {
        let slice = &text[tokens[win_lo].start..tokens[win_hi].end];
        if slice.len() <= max_bytes {
            return slice.to_string();
        }
        let mut cut = max_bytes;
        while cut > 0 && !slice.is_char_boundary(cut) {
            cut -= 1;
        }
        slice[..cut].to_string()
    }

    /// Both implementations over one batch: every score bit, candidate,
    /// paragraph and answer text equal. Returns how many answers came out.
    fn assert_equal_to_the_owned_path(
        items: &[ApItem],
        q: &ProcessedQuestion,
        cfg: &PipelineConfig,
    ) -> usize {
        let ner = NamedEntityRecognizer::standard();
        let got = extract_answers(items, q, &ner, cfg);
        let want = extract_answers_owned(items, q, &ner, cfg);
        let bits = |r: &RankedAnswers| -> Vec<u64> {
            r.answers.iter().map(|a| a.score.to_bits()).collect()
        };
        assert_eq!(bits(&got), bits(&want));
        assert_eq!(got, want);
        got.len()
    }

    #[test]
    fn borrowed_answers_equal_the_owned_path_over_a_generated_corpus() {
        use corpus::{Corpus, CorpusConfig, QuestionGenerator};
        let c = Corpus::generate(CorpusConfig::small(57)).unwrap();
        let qp = QuestionProcessor::new();
        let items: Vec<ApItem> = (c.documents.iter())
            .flat_map(|d| d.iter_paragraphs())
            .enumerate()
            .map(|(i, paragraph)| ApItem {
                paragraph,
                rank: 1.2 - (i % 17) as f64 / 12.0, // past both ends of [0, 1]
            })
            .collect();
        assert!(items.len() >= 150, "only {} paragraphs", items.len());
        let mut answers = 0;
        for (n, gq) in QuestionGenerator::new(&c, 13)
            .generate(24)
            .iter()
            .enumerate()
        {
            let mut q = qp.process(&gq.question).unwrap();
            if n % 4 == 0 {
                q.keywords.push(q.keywords[0].clone()); // a repeated keyword
            }
            if n % 6 == 0 {
                q.answer_type = AnswerType::Definition; // every entity is a candidate
            }
            let cfg = PipelineConfig {
                answers_requested: 1 + n % 7,
                answer_bytes: [250, 50, 7][n % 3],
                ..PipelineConfig::default()
            };
            answers += assert_equal_to_the_owned_path(&items, &q, &cfg);
        }
        assert!(answers > 40, "only {answers} answers compared");
    }

    /// A paragraph of hostile text with entities and pattern matches in it.
    fn hostile_paragraph(rng: &mut Rng, doc: u32) -> Paragraph {
        let g = Gazetteers::standard();
        let mut text = String::new();
        for _ in 0..rng.range(1..=8) {
            text.push_str(&rng.text(0..=30));
            let ty = [
                AnswerType::Person,
                AnswerType::Location,
                AnswerType::Organization,
            ][rng.below(3)];
            let entity = &g.entities(ty)[rng.below(40)];
            match rng.below(5) {
                0 => text.push_str(entity),
                1 => text.push_str(&format!(" {entity} ")),
                2 => text.push_str(&entity.to_uppercase()),
                3 => text.push_str(" in March 15 of 1987, 40 miles İstanbul ΟΔΥΣΣΕΥΣ o'clock-ish "),
                _ => text.push_str(" walking cities "),
            }
        }
        para(doc, &text)
    }

    #[test]
    fn borrowed_answers_equal_the_owned_path_over_hostile_text() {
        let mut answers = 0;
        cases(0x6170_0a01, 200, |rng| {
            let items: Vec<ApItem> = (0..rng.range(1..=6) as u32)
                .map(|doc| ApItem {
                    paragraph: hostile_paragraph(rng, doc),
                    rank: rng.uniform(-0.2..1.2),
                })
                .collect();
            // Keywords drawn from the text, normalized as QP would.
            let mut analyzer = Analyzer::default();
            let mut keywords = Vec::new();
            for item in &items {
                let tokens = tokenize(&item.paragraph.text);
                for _ in 0..rng.below(4) {
                    if let Some(t) = rng.choose(&tokens) {
                        keywords.push(Keyword::new(analyzer.normalize(&t.text), 1.0));
                    }
                }
            }
            let q = ProcessedQuestion {
                question: Question::new(QuestionId::new(3), "generated"),
                answer_type: [
                    AnswerType::Unknown,
                    AnswerType::Person,
                    AnswerType::Location,
                    AnswerType::Date,
                ][rng.below(4)],
                keywords,
            };
            let cfg = PipelineConfig {
                answers_requested: rng.below(8),
                answer_bytes: rng.below(300),
                ..PipelineConfig::default()
            };
            answers += assert_equal_to_the_owned_path(&items, &q, &cfg);
        });
        assert!(answers > 100, "only {answers} answers compared");
    }
}
