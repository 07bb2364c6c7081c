//! The one text analyser: word boundaries, lower-casing, stopwords and
//! stemming, without a heap allocation per token.
//!
//! Index build, PR's paragraph filter, PS and AP must normalize the same
//! text the same way, so [`words`] is the only word-boundary scanner and
//! [`Analyzer`] the only place a word is stop-listed and stemmed. A text is
//! seen through one of two lending views over buffers the caller keeps:
//! [`Analyzer::terms`] streams index terms (index build, PR, PS), and
//! [`TokenTable`] — the one token representation — holds every word's span
//! and lower-cased form at once (NER, AP's keyword matching and answer
//! windows). `tokenize`, `word_count` and `stem` collect from them for
//! callers off the hot path.

use crate::stem::stem_in_place;
use crate::stopwords::is_stopword;

/// A word's byte span in the source text.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WordSpan {
    /// Byte offset of the first character.
    pub start: usize,
    /// Byte offset one past the last character.
    pub end: usize,
    /// Whether the first character is upper-case.
    pub capitalized: bool,
}

/// Stream the words of `text`: maximal runs of alphanumeric characters, with
/// a joiner (`'` or `-`) kept only between two word characters.
pub fn words(text: &str) -> Words<'_> {
    Words { text, pos: 0 }
}

/// Iterator returned by [`words`].
#[derive(Debug, Clone)]
pub struct Words<'a> {
    text: &'a str,
    pos: usize,
}

/// What a byte says about word boundaries on its own.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    /// ASCII that is neither of the below: always a boundary.
    Separator,
    /// ASCII alphanumeric: always a word character.
    Word,
    /// `'` or `-`: a word character between two word characters.
    Joiner,
    /// Not ASCII: decode the character to decide.
    Wide,
}

/// The class of every byte value, so that the scan is one load per byte.
static CLASS: [Class; 256] = {
    let mut table = [Class::Separator; 256];
    let mut b = 0usize;
    while b < 256 {
        table[b] = match b as u8 {
            c if c.is_ascii_alphanumeric() => Class::Word,
            b'\'' | b'-' => Class::Joiner,
            c if !c.is_ascii() => Class::Wide,
            _ => Class::Separator,
        };
        b += 1;
    }
    table
};

impl Words<'_> {
    /// The character starting at byte `i`.
    fn char_at(&self, i: usize) -> char {
        self.text[i..].chars().next().expect("i is in the text")
    }
}

impl Iterator for Words<'_> {
    type Item = WordSpan;

    fn next(&mut self) -> Option<WordSpan> {
        let bytes = self.text.as_bytes();
        let mut i = self.pos;
        // Skip to the first word character; `i` ends one past it.
        let (start, capitalized) = loop {
            let Some(&b) = bytes.get(i) else {
                self.pos = i;
                return None;
            };
            match CLASS[usize::from(b)] {
                Class::Word => {
                    i += 1;
                    break (i - 1, b.is_ascii_uppercase());
                }
                Class::Wide => {
                    let c = self.char_at(i);
                    i += c.len_utf8();
                    if c.is_alphanumeric() {
                        break (i - c.len_utf8(), c.is_uppercase());
                    }
                }
                Class::Separator | Class::Joiner => i += 1,
            }
        };
        loop {
            // ASCII word bytes run in a tight loop; the scan looks closer
            // only at what ends the run.
            while bytes
                .get(i)
                .is_some_and(|&b| CLASS[usize::from(b)] == Class::Word)
            {
                i += 1;
            }
            // The byte before `i` ends a word character, so a joiner here
            // stays when a word character follows it.
            let joined = bytes
                .get(i)
                .is_some_and(|&b| CLASS[usize::from(b)] == Class::Joiner);
            let at = i + usize::from(joined);
            match bytes.get(at).map(|&b| CLASS[usize::from(b)]) {
                Some(Class::Word) => i = at + 1,
                Some(Class::Wide) if self.char_at(at).is_alphanumeric() => {
                    i = at + self.char_at(at).len_utf8();
                }
                _ => break,
            }
        }
        self.pos = i;
        Some(WordSpan {
            start,
            end: i,
            capitalized,
        })
    }
}

/// Append the lower-cased form of `word` to `buf`. ASCII is folded in
/// place; anything else goes through `str::to_lowercase`, which knows the
/// multi-character and final-sigma mappings.
pub fn push_lowercase(buf: &mut String, word: &str) {
    if word.is_ascii() {
        let at = buf.len();
        buf.push_str(word);
        buf[at..].make_ascii_lowercase();
    } else {
        buf.push_str(&word.to_lowercase());
    }
}

/// The first bytes of a keyword set: the prefilter in front of the stemmer.
///
/// [`stem_in_place`] never changes a word's first byte, so a lower-cased word
/// whose first byte starts no keyword stems to no keyword, and is not stemmed
/// to find that out.
#[derive(Debug, Clone)]
pub struct FirstBytes([bool; 256]);

impl FirstBytes {
    /// Every byte: a prefilter that lets every word through.
    pub const ANY: FirstBytes = FirstBytes([true; 256]);

    /// The first bytes of `terms` (lower-cased, stemmed keywords).
    pub fn of<'a>(terms: impl IntoIterator<Item = &'a str>) -> Self {
        let mut set = [false; 256];
        for b in terms.into_iter().filter_map(|t| t.bytes().next()) {
            set[usize::from(b)] = true;
        }
        FirstBytes(set)
    }

    /// Whether the lower-cased `word` can stem to one of the terms.
    pub fn may_start(&self, word: &str) -> bool {
        word.bytes().next().is_some_and(|b| self.0[usize::from(b)])
    }
}

/// A reusable normalization buffer, serving any number of texts; the terms
/// it hands out borrow the buffer, so a caller that keeps a term copies it.
#[derive(Debug, Default)]
pub struct Analyzer {
    buf: String,
}

impl Analyzer {
    /// Stream the index terms of `text` in occurrence order: each word
    /// lower-cased, dropped if a stopword, stemmed otherwise.
    pub fn terms<'a>(&'a mut self, text: &'a str) -> Terms<'a> {
        Terms {
            text,
            words: words(text),
            buf: &mut self.buf,
            seen: 0,
        }
    }

    /// Lower-case and stem one word (a stopword is stemmed like any other).
    pub fn normalize(&mut self, word: &str) -> &str {
        self.buf.clear();
        push_lowercase(&mut self.buf, word);
        stem_in_place(&mut self.buf);
        &self.buf
    }

    /// Stem a word that is lower-cased already (a [`TokenTable`] entry).
    pub fn stem_lowered(&mut self, lower: &str) -> &str {
        self.buf.clear();
        self.buf.push_str(lower);
        stem_in_place(&mut self.buf);
        &self.buf
    }
}

/// The term stream of one text; see [`Analyzer::terms`]. Not an `Iterator`
/// because every term borrows the shared buffer.
#[derive(Debug)]
pub struct Terms<'a> {
    text: &'a str,
    words: Words<'a>,
    buf: &'a mut String,
    seen: usize,
}

impl Terms<'_> {
    /// The next index term, or `None` at the end of the text.
    pub fn next_term(&mut self) -> Option<&str> {
        self.next_match(&FirstBytes::ANY).map(|(_, term)| term)
    }

    /// The next index term `first` lets through, with its position in the
    /// term stream; the terms in between are counted ([`Terms::seen`]) but
    /// never stemmed.
    pub fn next_match(&mut self, first: &FirstBytes) -> Option<(usize, &str)> {
        loop {
            let w = self.words.next()?;
            self.buf.clear();
            push_lowercase(self.buf, &self.text[w.start..w.end]);
            if is_stopword(self.buf) {
                continue;
            }
            self.seen += 1;
            if first.may_start(self.buf) {
                stem_in_place(self.buf);
                return Some((self.seen - 1, self.buf));
            }
        }
    }

    /// How many index terms the stream has passed so far.
    pub fn seen(&self) -> usize {
        self.seen
    }
}

/// The one token representation: every word of a text as a span plus its
/// lower-cased form, in buffers that serve any number of texts.
///
/// The lower-cased words sit in one string, a space after each, so a run of
/// words is one slice of it — the phrase a gazetteer is probed with.
#[derive(Debug, Default)]
pub struct TokenTable {
    spans: Vec<WordSpan>,
    lower: String,
    /// Where word `i` starts in `lower`, plus one entry past the last word.
    starts: Vec<usize>,
}

impl TokenTable {
    /// Replace the table's content with the words of `text`.
    pub fn fill(&mut self, text: &str) {
        self.spans.clear();
        self.lower.clear();
        self.starts.clear();
        for w in words(text) {
            self.starts.push(self.lower.len());
            push_lowercase(&mut self.lower, &text[w.start..w.end]);
            self.lower.push(' ');
            self.spans.push(w);
        }
        self.starts.push(self.lower.len());
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True for a text without words (and before the first `fill`).
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Word `i`'s span in the source text.
    pub fn span(&self, i: usize) -> WordSpan {
        self.spans[i]
    }

    /// Word `i`, lower-cased.
    pub fn lower(&self, i: usize) -> &str {
        self.phrase(i, 1)
    }

    /// Words `i .. i + n` (`n ≥ 1`), lower-cased and joined by single spaces.
    pub fn phrase(&self, i: usize, n: usize) -> &str {
        &self.lower[self.starts[i]..self.starts[i + n] - 1]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(text: &str) -> Vec<String> {
        let mut a = Analyzer::default();
        let mut terms = a.terms(text);
        let mut out = Vec::new();
        while let Some(t) = terms.next_term() {
            out.push(t.to_string());
        }
        out
    }

    #[test]
    fn terms_drop_stopwords_and_stem() {
        assert_eq!(
            collect("The cities were visited by the walking dogs."),
            ["city", "visit", "walk", "dog"]
        );
        assert!(collect("the of and").is_empty());
    }

    #[test]
    fn one_analyzer_serves_many_texts() {
        let mut a = Analyzer::default();
        for _ in 0..2 {
            let mut terms = a.terms("Walking DOGS");
            assert_eq!(terms.next_term(), Some("walk"));
            assert_eq!(terms.next_term(), Some("dog"));
            assert_eq!(terms.next_term(), None);
        }
        assert_eq!(a.normalize("Cities"), "city");
        assert_eq!(a.normalize("The"), "the");
    }

    #[test]
    fn spans_keep_inner_joiners_only() {
        let text = "a--b don't x- -y";
        let got: Vec<&str> = words(text).map(|w| &text[w.start..w.end]).collect();
        assert_eq!(got, ["a", "b", "don't", "x", "y"]);
    }

    #[test]
    fn lowercase_matches_std_beyond_ascii() {
        let mut buf = String::new();
        for w in ["Sérengeti", "İ", "ΟΔΥΣΣΕΥΣ", "ABC", "ǅ"] {
            buf.clear();
            push_lowercase(&mut buf, w);
            assert_eq!(buf, w.to_lowercase());
        }
    }

    /// The documented rule, character by character: a word is a maximal run
    /// of alphanumeric characters, a joiner belonging to it only between two
    /// of them.
    fn words_by_char(text: &str) -> Vec<WordSpan> {
        let chars: Vec<(usize, char)> = text.char_indices().collect();
        let alnum = |k: usize| chars.get(k).is_some_and(|c| c.1.is_alphanumeric());
        let joins =
            |k: usize| matches!(chars[k].1, '\'' | '-') && k > 0 && alnum(k - 1) && alnum(k + 1);
        let mut out: Vec<WordSpan> = Vec::new();
        for (k, &(start, c)) in chars.iter().enumerate() {
            if !alnum(k) && !joins(k) {
                continue;
            }
            let end = start + c.len_utf8();
            match out.last_mut() {
                Some(w) if w.end == start => w.end = end,
                _ => out.push(WordSpan {
                    start,
                    end,
                    capitalized: c.is_uppercase(),
                }),
            }
        }
        out
    }

    #[test]
    fn the_byte_class_scanner_equals_the_char_rule() {
        qa_types::rng::cases(0x776f_7264, 2000, |rng| {
            let text = rng.text(0..=200);
            assert_eq!(
                words(&text).collect::<Vec<_>>(),
                words_by_char(&text),
                "{text:?}"
            );
        });
        for text in ["a--b don't x- -y", "a-'b", "-a-", "é-é'É", "x'", "'", "3-D"] {
            assert_eq!(
                words(text).collect::<Vec<_>>(),
                words_by_char(text),
                "{text:?}"
            );
        }
    }

    #[test]
    fn a_prefiltered_stream_counts_every_term_and_stems_only_candidates() {
        let mut a = Analyzer::default();
        let first = FirstBytes::of(["walk", "dog", ""]);
        let mut terms = a.terms("The walking cities, the DOGS and a wolf.");
        assert_eq!(terms.next_match(&first), Some((0, "walk")));
        assert_eq!(terms.next_match(&first), Some((2, "dog")));
        assert_eq!(terms.next_match(&first), Some((3, "wolf")));
        assert_eq!(terms.next_match(&first), None);
        assert_eq!(terms.seen(), 4);
        assert!(!first.may_start("") && !first.may_start("cat"));
        assert_eq!(a.stem_lowered("cities"), "city");
    }
}
