//! Zipf-distributed vocabulary with per-sub-collection topic skew.

use crate::config::CorpusConfig;
use nlp::gazetteer::Gazetteers;
use nlp::stopwords::is_stopword;
use qa_types::rng::{Rng, Zipf};
use std::collections::HashSet;

/// Consonant onsets used to synthesize content words.
const ONSETS: &[&str] = &[
    "b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "z", "br",
    "cl", "dr", "fr", "gr", "pl", "pr", "st", "tr", "sk",
];
/// Vowel nuclei.
const VOWELS: &[&str] = &["a", "e", "i", "o", "u", "ai", "ea", "ou"];

/// Synthesize the `i`-th candidate word (lower-case, 2–3 CV syllables).
fn synth_word(i: usize) -> String {
    let no = ONSETS.len();
    let nv = VOWELS.len();
    let unit = |k: usize| format!("{}{}", ONSETS[k % no], VOWELS[(k / no) % nv]);
    let base = no * nv;
    let mut w = String::new();
    w.push_str(&unit(i % base));
    w.push_str(&unit((i / base) % base));
    if i >= base * base {
        w.push_str(&unit((i / (base * base)) % base));
    }
    w
}

/// A ranked vocabulary: index 0 is the most frequent word globally, and each
/// sub-collection re-ranks the vocabulary through its own permutation to
/// create topical skew.
#[derive(Debug, Clone)]
pub struct Vocabulary {
    words: Vec<String>,
    /// `permutations[c][rank]` = word index occupying `rank` in collection c.
    permutations: Vec<Vec<u32>>,
    zipf: Zipf,
    skew: f64,
}

impl Vocabulary {
    /// Build the vocabulary for a corpus configuration.
    ///
    /// Synthesized words that collide with stopwords or gazetteer entries
    /// are skipped so that plain text never accidentally reads as an entity.
    pub fn generate(cfg: &CorpusConfig) -> Vocabulary {
        let gaz = Gazetteers::standard();
        let mut words = Vec::with_capacity(cfg.vocab_size);
        let mut seen = HashSet::new();
        let mut i = 0usize;
        while words.len() < cfg.vocab_size {
            let w = synth_word(i);
            i += 1;
            if is_stopword(&w) || gaz.classify(&w).is_some() || !seen.insert(w.clone()) {
                continue;
            }
            words.push(w);
        }

        let mut permutations = Vec::with_capacity(cfg.sub_collections);
        for c in 0..cfg.sub_collections {
            let mut rng = Rng::new(cfg.seed ^ (0x9e37_79b9 + c as u64));
            let mut perm: Vec<u32> = (0..cfg.vocab_size as u32).collect();
            // Fisher–Yates.
            for k in (1..perm.len()).rev() {
                let j = rng.below(k + 1);
                perm.swap(k, j);
            }
            permutations.push(perm);
        }

        let zipf =
            Zipf::new(cfg.vocab_size as u64, cfg.zipf_exponent).expect("validated zipf parameters");

        Vocabulary {
            words,
            permutations,
            zipf,
            skew: cfg.topic_skew,
        }
    }

    /// All words, global-rank order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// True when the vocabulary is empty (never, for a validated config).
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Sample a word for sub-collection `coll`: a Zipf rank mapped through
    /// the collection's permutation with probability `topic_skew`, through
    /// the identity (global ranking) otherwise.
    pub fn sample<'a>(&'a self, coll: usize, rng: &mut Rng) -> &'a str {
        let rank = (self.zipf.sample(rng) as usize - 1).min(self.words.len() - 1);
        let idx = if rng.bool(self.skew) {
            self.permutations[coll % self.permutations.len()][rank] as usize
        } else {
            rank
        };
        &self.words[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vocab() -> Vocabulary {
        Vocabulary::generate(&CorpusConfig::small(7))
    }

    #[test]
    fn generates_requested_size_unique_words() {
        let v = vocab();
        assert_eq!(v.len(), 600);
        let set: HashSet<_> = v.words().iter().collect();
        assert_eq!(set.len(), 600);
        assert!(!v.is_empty());
    }

    #[test]
    fn words_are_not_stopwords_or_entities() {
        let v = vocab();
        let gaz = Gazetteers::standard();
        for w in v.words() {
            assert!(!is_stopword(w), "{w}");
            assert!(gaz.classify(w).is_none(), "{w}");
        }
    }

    #[test]
    fn sampling_is_zipf_skewed() {
        let v = vocab();
        let mut rng = Rng::new(1);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..20_000 {
            *counts
                .entry(v.sample(0, &mut rng).to_string())
                .or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap();
        // The most frequent word should dominate: Zipf(1.07) gives the top
        // rank a large share.
        assert!(max > 1000, "max count {max}");
        // But the tail must exist too.
        assert!(counts.len() > 100);
    }

    #[test]
    fn topic_skew_differentiates_collections() {
        let v = vocab();
        let top_word = |coll: usize| {
            let mut rng = Rng::new(99);
            let mut counts = std::collections::HashMap::new();
            for _ in 0..5_000 {
                *counts
                    .entry(v.sample(coll, &mut rng).to_string())
                    .or_insert(0usize) += 1;
            }
            counts.into_iter().max_by_key(|(_, c)| *c).unwrap()
        };
        // With 50 % skew the dominant words of two collections are very
        // likely to differ (they share the global half only).
        let (w0, _) = top_word(0);
        let (w1, _) = top_word(1);
        let (w2, _) = top_word(2);
        assert!(
            w0 != w1 || w1 != w2,
            "all collections share top word {w0}: skew not applied"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Vocabulary::generate(&CorpusConfig::small(3));
        let b = Vocabulary::generate(&CorpusConfig::small(3));
        assert_eq!(a.words(), b.words());
        let mut ra = Rng::new(5);
        let mut rb = Rng::new(5);
        for _ in 0..100 {
            assert_eq!(a.sample(1, &mut ra), b.sample(1, &mut rb));
        }
    }

    #[test]
    fn synth_words_are_pronounceable_ascii() {
        for i in 0..1000 {
            let w = synth_word(i);
            assert!(w.is_ascii());
            assert!(w.len() >= 2);
            assert!(w.chars().all(|c| c.is_ascii_lowercase()));
        }
    }
}
