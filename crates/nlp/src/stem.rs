//! A light suffix-stripping stemmer.
//!
//! Boolean retrieval needs question keywords to match their inflected forms
//! in documents ("buried" / "bury", "cities" / "city"). A full Porter stemmer
//! is unnecessary for the synthetic corpus; this implements the high-yield
//! subset of Porter step 1 plus a couple of step-2 rules, chosen so that a
//! word and its generated inflections stem to the same string.

/// Stem a lower-cased word.
///
/// Words of three characters or fewer are returned unchanged; suffix rules
/// never reduce a word below three characters.
pub fn stem(word: &str) -> String {
    let mut w = word.to_string();
    stem_in_place(&mut w);
    w
}

/// [`stem`] on the caller's buffer: the rules only ever cut the tail of an
/// ASCII word and append at most one letter, so nothing is allocated.
///
/// A word's first byte is never changed: words of three bytes or fewer pass
/// through and no rule cuts below one. The keyword prefilter
/// ([`crate::analyze::FirstBytes`]) rests on that.
pub fn stem_in_place(w: &mut String) {
    let n = w.len();
    if n <= 3 || !w.is_ascii() {
        return;
    }

    // Plural / verbal 's' endings.
    if w.ends_with("ies") {
        // cities -> citi -> city
        w.truncate(n - 3);
        w.push('y');
    } else if w.ends_with("sses") {
        w.truncate(n - 2);
    } else if w.ends_with("es") {
        if n >= 5 {
            let sibilant = ["sh", "ch", "x", "z", "s"]
                .iter()
                .any(|end| w[..n - 2].ends_with(end));
            // boxes -> box, but cathedrales -> cathedrale
            w.truncate(if sibilant { n - 2 } else { n - 1 });
        }
    } else if w.ends_with('s') && !w.ends_with("ss") && !w.ends_with("us") {
        w.truncate(n - 1);
    }

    // -ing / -ed endings, then undo the consonant doubling they leave
    // ("planned" -> "plann" -> "plan").
    if let Some(suffix) = ["ing", "ed"].into_iter().find(|s| w.ends_with(s)) {
        let keep = w.len() - suffix.len();
        if keep >= 3 {
            w.truncate(keep);
            let b = w.as_bytes();
            if b[keep - 1] == b[keep - 2] && !matches!(b[keep - 1], b'l' | b's' | b'z') {
                w.truncate(keep - 1);
            }
        }
    }

    // -ly adverbs.
    if w.ends_with("ly") && w.len() >= 5 {
        w.truncate(w.len() - 2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plural_rules() {
        assert_eq!(stem("cities"), "city");
        assert_eq!(stem("dogs"), "dog");
        assert_eq!(stem("classes"), "class");
        assert_eq!(stem("boxes"), "box");
        assert_eq!(stem("glass"), "glass");
    }

    #[test]
    fn verbal_rules() {
        assert_eq!(stem("walking"), "walk");
        assert_eq!(stem("walked"), "walk");
        assert_eq!(stem("planned"), "plan");
        assert_eq!(stem("running"), "run");
    }

    #[test]
    fn adverbs() {
        assert_eq!(stem("quickly"), "quick");
    }

    #[test]
    fn short_words_unchanged() {
        for w in ["is", "the", "cat", "go", "a"] {
            assert_eq!(stem(w), w);
        }
    }

    #[test]
    fn stem_is_idempotent() {
        for w in ["cities", "walking", "planned", "quickly", "dogs", "classes"] {
            let once = stem(w);
            assert_eq!(stem(&once), once, "stem({w}) not idempotent");
        }
    }

    #[test]
    fn inflections_collide_with_base() {
        assert_eq!(stem("cathedrals"), stem("cathedral"));
        assert_eq!(stem("buried"), stem("buri")); // internal consistency, not linguistics
    }

    #[test]
    fn non_ascii_passes_through() {
        assert_eq!(stem("sérengeti"), "sérengeti");
    }
}
