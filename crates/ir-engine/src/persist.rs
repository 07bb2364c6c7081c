//! Byte-level primitives of the index segment codec ([`crate::integrity`]):
//! length-prefixed little-endian writers and a bounds-checked reader — no
//! `unsafe`, no external codec crate. Varints are the postings codec's.

use crate::postings::read_varint;
use qa_types::QaError;

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, b: &[u8]) {
    put_u32(out, b.len() as u32);
    out.extend_from_slice(b);
}

pub(crate) struct Reader<'a> {
    pub(crate) data: &'a [u8],
    pub(crate) pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], QaError> {
        if self.pos + n > self.data.len() {
            return Err(QaError::Codec("unexpected end of input".into()));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u32(&mut self) -> Result<u32, QaError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, QaError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn bytes(&mut self) -> Result<&'a [u8], QaError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    pub(crate) fn varint(&mut self) -> Result<u32, QaError> {
        let (v, read) = read_varint(&self.data[self.pos..])
            .ok_or_else(|| QaError::Codec("unexpected end of input".into()))?;
        self.pos += read;
        Ok(v)
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}
