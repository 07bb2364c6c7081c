//! The one text analyser: word boundaries, lower-casing, stopwords and
//! stemming as a stream, without a heap allocation per token.
//!
//! Index build, PR's paragraph filter, PS and AP must normalize the same
//! text the same way, so [`words`] is the only word-boundary scanner and
//! [`Analyzer`] the only place a word is lower-cased, stop-listed and
//! stemmed; `tokenize`, `word_count` and `stem` collect from them.

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

impl Words<'_> {
    /// Whether a word character starts at byte `i`, and its length in bytes.
    /// ASCII is decided from the byte; anything else is decoded.
    fn word_char_at(&self, i: usize) -> (bool, usize) {
        let b = self.text.as_bytes()[i];
        if b.is_ascii() {
            return (b.is_ascii_alphanumeric(), 1);
        }
        let c = self.text[i..].chars().next().expect("i is in the text");
        (c.is_alphanumeric(), c.len_utf8())
    }
}

impl Iterator for Words<'_> {
    type Item = WordSpan;

    fn next(&mut self) -> Option<WordSpan> {
        let bytes = self.text.as_bytes();
        // ASCII runs are skipped in tight byte loops; the scan stops to look
        // closer only at a joiner or at a byte that is not ASCII.
        let mut i = self.pos;
        let start = loop {
            let run = bytes[i..]
                .iter()
                .position(|b| b.is_ascii_alphanumeric() || !b.is_ascii());
            i += run.unwrap_or(bytes.len() - i);
            if i == bytes.len() {
                self.pos = i;
                return None;
            }
            let (is_word, len) = self.word_char_at(i);
            i += len;
            if is_word {
                break i - len;
            }
        };
        let first = self.text[start..].chars().next();
        loop {
            let run = bytes[i..].iter().position(|b| !b.is_ascii_alphanumeric());
            i += run.unwrap_or(bytes.len() - i);
            if i == bytes.len() {
                break;
            }
            // The byte before `i` ends a word run, so a joiner here stays
            // when a word character follows it.
            let joined = matches!(bytes[i], b'\'' | b'-') && i + 1 < bytes.len();
            let (is_word, len) = self.word_char_at(i + usize::from(joined));
            if !is_word {
                break;
            }
            i += len + usize::from(joined);
        }
        self.pos = i;
        Some(WordSpan {
            start,
            end: i,
            capitalized: first.is_some_and(char::is_uppercase),
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
        }
    }

    /// Lower-case and stem one word (a stopword is stemmed like any other).
    pub fn normalize(&mut self, word: &str) -> &str {
        self.buf.clear();
        push_lowercase(&mut self.buf, word);
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
}

impl Terms<'_> {
    /// The next index term, or `None` at the end of the text.
    pub fn next_term(&mut self) -> Option<&str> {
        loop {
            let w = self.words.next()?;
            self.buf.clear();
            push_lowercase(self.buf, &self.text[w.start..w.end]);
            if !is_stopword(self.buf) {
                stem_in_place(self.buf);
                return Some(self.buf);
            }
        }
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
}
