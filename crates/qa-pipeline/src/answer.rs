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

use crate::config::PipelineConfig;
use nlp::ner::NamedEntityRecognizer;
use nlp::tokenize::{tokenize, Token};
use nlp::Analyzer;
use qa_types::{Answer, AnswerType, Paragraph, ProcessedQuestion, RankedAnswers};
use std::collections::HashMap;

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
    let mut best: HashMap<String, Answer> = HashMap::new();
    let mut analyzer = Analyzer::default();

    for item in items {
        for ans in candidates_in_paragraph(item, question, ner, cfg, &mut analyzer) {
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

/// Candidate extraction: every typed entity with keyword support.
fn candidates_in_paragraph(
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
    let mentions = ner.recognize_tokens(text, &tokens);

    // Keyword positions in the token stream (after stemming), every token
    // normalized in the batch's one buffer.
    let kw_terms: Vec<&str> = question.keywords.iter().map(|k| k.term.as_str()).collect();
    let kw_pos: Vec<Vec<usize>> = {
        let mut pos = vec![Vec::new(); kw_terms.len()];
        for (i, t) in tokens.iter().enumerate() {
            let stemmed = analyzer.normalize(&t.text);
            if let Some(k) = kw_terms.iter().position(|kt| *kt == stemmed) {
                pos[k].push(i);
            }
        }
        pos
    };
    let paragraph_coverage =
        kw_pos.iter().filter(|p| !p.is_empty()).count() as f64 / kw_terms.len().max(1) as f64;

    let wanted = question.answer_type;
    let mut out = Vec::new();
    for m in mentions {
        let type_ok = match wanted {
            AnswerType::Definition | AnswerType::Unknown => true,
            t => m.entity_type == t,
        };
        if !type_ok {
            continue;
        }
        // Candidate token span.
        let c_first = tokens.iter().position(|t| t.start >= m.start).unwrap_or(0);
        let c_last = tokens
            .iter()
            .rposition(|t| t.end <= m.end)
            .unwrap_or(c_first)
            .max(c_first);

        let win_lo = c_first.saturating_sub(WINDOW_TOKENS);
        let win_hi = (c_last + WINDOW_TOKENS).min(tokens.len() - 1);

        let score = score_window(
            &kw_pos,
            win_lo,
            win_hi,
            c_first,
            c_last,
            paragraph_coverage,
            item.rank.clamp(0.0, 1.0),
            &m.text,
        );
        if score <= 0.0 {
            continue;
        }

        let text_span = answer_span(text, &tokens, win_lo, win_hi, cfg.answer_bytes);
        out.push(Answer {
            paragraph: item.paragraph.id,
            candidate: m.text.clone(),
            text: text_span,
            score,
        });
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn score_window(
    kw_pos: &[Vec<usize>],
    win_lo: usize,
    win_hi: usize,
    c_first: usize,
    c_last: usize,
    paragraph_coverage: f64,
    rank: f64,
    candidate_text: &str,
) -> f64 {
    let n_kw = kw_pos.len().max(1);

    // Keyword occurrences inside the window, keeping question order info.
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

    // h1: coverage in window.
    let h1 = distinct_in_window as f64 / n_kw as f64;

    // h2: order agreement — fraction of adjacent pairs in question order.
    let h2 = if in_window.len() >= 2 {
        let pairs = in_window.windows(2).count();
        let ordered = in_window.windows(2).filter(|w| w[0].1 <= w[1].1).count();
        ordered as f64 / pairs as f64
    } else {
        0.0
    };

    // h3: proximity of keywords to candidate.
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

    // h4: density in window.
    let win_len = (win_hi - win_lo + 1).max(1);
    let h4 = (in_window.len() as f64 / win_len as f64).min(1.0);

    // h5: paragraph coverage (computed once per paragraph by the caller).
    let h5 = paragraph_coverage;

    // h6: PS rank (already in [0, 1] from PS).
    let h6 = rank.clamp(0.0, 1.0);

    // h7: candidate specificity.
    let words = candidate_text.split_whitespace().count();
    let h7 = (words.min(3) as f64) / 3.0;

    // A window with no keyword support is not an answer.
    if distinct_in_window == 0 {
        return 0.0;
    }

    W[0] * h1 + W[1] * h2 + W[2] * h3 + W[3] * h4 + W[4] * h5 + W[5] * h6 + W[6] * h7
}

/// Cut the answer text: the window tokens, truncated to `max_bytes` at a
/// character boundary.
fn answer_span(
    text: &str,
    tokens: &[Token],
    win_lo: usize,
    win_hi: usize,
    max_bytes: usize,
) -> String {
    let start = tokens[win_lo].start;
    let end = tokens[win_hi].end;
    let slice = &text[start..end];
    if slice.len() <= max_bytes {
        return slice.to_string();
    }
    let mut cut = max_bytes;
    while cut > 0 && !slice.is_char_boundary(cut) {
        cut -= 1;
    }
    slice[..cut].to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlp::gazetteer::Gazetteers;
    use nlp::QuestionProcessor;
    use qa_types::{DocId, Keyword, ParagraphId, Question, QuestionId, SubCollectionId};

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
}
