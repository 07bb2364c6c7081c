//! The one byte cursor behind every hand-written binary format in the
//! workspace: the index segment (`ir_engine::integrity`), the journal's
//! frame payloads (`journal::record`) and the partial-result payloads
//! inside them ([`RankedAnswers::encode`](crate::RankedAnswers::encode),
//! `qa_pipeline::ScoredParagraph::{encode_refs, decode_refs}`).
//!
//! Fixed-width little-endian integers; byte strings and `str`s carry a
//! `u32` length prefix. [`Reader`] is bounds-checked: every length read
//! from the input is compared with the bytes remaining *before* anything
//! is sliced or allocated, so hostile bytes cost an error, never a panic
//! or an allocation larger than the input itself.

use crate::error::QaError;

/// Append one byte.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a `u32`, little-endian.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u64`, little-endian.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32` length prefix and the raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

/// Append a string as its length-prefixed UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

/// Bounds-checked read cursor over untrusted bytes. Every failure is a
/// [`QaError::Codec`].
#[derive(Debug)]
pub struct Reader<'a> {
    rest: &'a [u8],
}

fn short() -> QaError {
    QaError::Codec("unexpected end of input".into())
}

impl<'a> Reader<'a> {
    /// A cursor at the first byte of `data`.
    pub fn new(data: &'a [u8]) -> Reader<'a> {
        Reader { rest: data }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], QaError> {
        if n > self.rest.len() {
            return Err(short());
        }
        let (head, rest) = self.rest.split_at(n);
        self.rest = rest;
        Ok(head)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, QaError> {
        Ok(self.take(1)?[0])
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, QaError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, QaError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// A length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], QaError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, QaError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| QaError::Codec("invalid UTF-8".into()))
    }

    /// An element count for a sequence whose elements take at least
    /// `min_bytes` each: refused when even the smallest elements would not
    /// fit in what remains, so the caller may size a `Vec` by it.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize, QaError> {
        let n = self.u32()? as usize;
        if n > self.rest.len() / min_bytes.max(1) {
            return Err(short());
        }
        Ok(n)
    }

    /// The bytes not yet consumed.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// How many bytes are left.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// End of decoding: anything left over is an error.
    pub fn finish(self) -> Result<(), QaError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(QaError::Codec(format!(
                "{} trailing byte(s)",
                self.rest.len()
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_width_round_trips_in_order() {
        let mut out = Vec::new();
        put_u8(&mut out, 0xab);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_bytes(&mut out, &[1, 2, 3]);
        put_str(&mut out, "état");
        assert_eq!(&out[..5], [0xab, 0xef, 0xbe, 0xad, 0xde], "little-endian");
        let mut r = Reader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xab);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.bytes().unwrap(), [1, 2, 3]);
        assert_eq!(r.str().unwrap(), "état");
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();
    }

    #[test]
    fn lengths_are_checked_against_what_remains() {
        // A length prefix of u32::MAX over three bytes of input.
        let mut out = Vec::new();
        put_u32(&mut out, u32::MAX);
        out.extend_from_slice(&[7, 7, 7]);
        assert!(Reader::new(&out).bytes().is_err());
        assert!(Reader::new(&out).str().is_err());
        assert!(Reader::new(&out).count(1).is_err());
        // Three one-byte elements fit, three two-byte elements do not.
        let mut three = Vec::new();
        put_u32(&mut three, 3);
        three.extend_from_slice(&[7, 7, 7]);
        assert_eq!(Reader::new(&three).count(1).unwrap(), 3);
        assert!(Reader::new(&three).count(2).is_err());
        // Every truncation of a fixed-width field is an error, not a panic.
        for cut in 0..8 {
            assert!(Reader::new(&[0u8; 8][..cut]).u64().is_err());
        }
        assert!(Reader::new(&[]).u8().is_err());
    }

    #[test]
    fn broken_utf8_and_trailing_bytes_are_errors() {
        let mut out = Vec::new();
        put_bytes(&mut out, &[0xff, 0xfe]);
        let mut r = Reader::new(&out);
        assert!(r.str().is_err());
        let mut r = Reader::new(&[1, 2]);
        r.u8().unwrap();
        assert_eq!(r.rest(), [2]);
        assert!(r.finish().is_err());
    }
}
