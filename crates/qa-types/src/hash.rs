//! The one FNV-1a (64-bit) behind every table keyed by short words: the
//! stopword buckets, the index's term table, the gazetteer's phrase tables
//! and AP's candidate map.
//!
//! Those tables are probed once per word of a paragraph and SipHash was most
//! of a probe. None of them is keyed by what a question supplies: keys are
//! fixed lists or document text, so a corpus crafted to collide slows its
//! own build and its own answers, nothing else.

use std::hash::{BuildHasherDefault, Hasher};

const PRIME: u64 = 0x0000_0100_0000_01b3;

/// A [`Hasher`] folding bytes with FNV-1a; `BuildHasherDefault<Fnv1a>` (see
/// [`FnvBuild`]) is the `HashMap` parameter.
#[derive(Debug, Clone, Copy)]
pub struct Fnv1a(u64);

/// The `BuildHasher` of an FNV-keyed `HashMap`.
pub type FnvBuild = BuildHasherDefault<Fnv1a>;

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// FNV-1a of `bytes` in one call.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::default();
    h.write(bytes);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers() {
        // The reference vectors of the FNV specification.
        assert_eq!(fnv1a(b""), Fnv1a::default().finish());
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn writes_compose() {
        let mut h = Fnv1a::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }
}
